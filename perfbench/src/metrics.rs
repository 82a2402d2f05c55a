//! The metric catalogue (read from `BENCHMARK.json` at compile time),
//! the summary statistics, and the result line.

use crate::check::Tally;
use serde::{Deserialize, Value};
use std::sync::OnceLock;

/// One metric of the catalogue.
#[derive(Debug, Deserialize)]
pub struct Metric {
    /// Name in the result line.
    pub name: String,
    /// Unit in the result line.
    pub unit: String,
}

/// The metrics `BENCHMARK.json` lists.
#[derive(Debug, Deserialize)]
pub struct Catalogue {
    /// Reported by every untraced run (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Reported by every traced run (`--trace 1`); a layer the workload
    /// does not call reads 0.
    pub per_layer: Vec<Metric>,
}

/// The catalogue of the `BENCHMARK.json` beside this package.
///
/// # Panics
///
/// If that file does not parse as a catalogue.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json lists end_to_end and per_layer metrics")
    })
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when the base is 0 (a layer the workload does not
/// call).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The outcome of one run: its failure accounting and its metrics.
#[derive(Debug)]
pub struct RunReport {
    /// Operations checked and failed.
    pub tally: Tally,
    /// `(name, value)` for every metric of the catalogue the run reports.
    pub values: Vec<(&'static str, f64)>,
}

impl RunReport {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `catalogue` with its unit.
    ///
    /// # Panics
    ///
    /// If a catalogue metric is missing, repeated or not finite — a bug
    /// in the benchmark, not in the program under test.
    pub fn to_json(&self, catalogue: &[Metric]) -> String {
        assert_eq!(
            self.values.len(),
            catalogue.len(),
            "every metric reported exactly once"
        );
        let metrics = catalogue
            .iter()
            .map(|Metric { name, unit }| {
                let mut hits = self.values.iter().filter(|(n, _)| n == name);
                let (_, value) = hits
                    .next()
                    .unwrap_or_else(|| panic!("metric {name} missing"));
                assert!(hits.next().is_none(), "metric {name} repeated");
                assert!(value.is_finite(), "metric {name} is {value}");
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            (
                "correct".into(),
                Value::Bool(self.tally.failed == 0 && self.tally.attempted > 0),
            ),
            ("attempted".into(), Value::UInt(self.tally.attempted)),
            ("failed".into(), Value::UInt(self.tally.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("finite metrics serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_of_an_unused_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let report = RunReport {
            tally: Tally {
                attempted: 3,
                failed: 1,
            },
            values: vec![("setup_s", 0.5), ("run_s", 1.25), ("peak_rss_mb", 10.0)],
        };
        let line = report.to_json(&catalogue().end_to_end);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,\"metrics\":{"));
        assert!(line.contains("\"run_s\":{\"value\":1.25,\"unit\":\"s\"}"));
    }
}
