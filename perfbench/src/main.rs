//! The repository's end-to-end benchmark, with a traced per-layer
//! ledger. See `README.md` beside this package for the workloads, the
//! metrics and the layer each one measures.
//!
//! Everything runs on one thread: the builders are pinned to
//! `threads(1)`, the fleet gets a one-worker pool, and the checker gets
//! one explorer twin, so `LIS_SIM_THREADS` has no effect.

mod check;
mod cli;
mod metrics;
mod sim;
mod trace;
mod verify;

use check::Tally;
use cli::{Args, Command, Workload, USAGE};
use metrics::{catalogue, median, peak_rss_mb, RunReport};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest repetitions a run makes, whatever its budget: medians need
/// at least three.
const MIN_REPS: usize = 3;

/// Calls `rep(i)` for `i = 0, 1, …`: at least [`MIN_REPS`] times, then
/// while one more call of the mean length so far still fits in the
/// budget. Returns the number of calls.
pub fn repeat(budget: Duration, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    loop {
        rep(n);
        n += 1;
        let spent = start.elapsed();
        let mean = spent / u32::try_from(n).unwrap_or(u32::MAX);
        if n >= MIN_REPS && spent + mean > budget {
            return n;
        }
    }
}

/// Host times of one repetition, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct RepTimes {
    /// The set-up whose result the repetition ran.
    pub setup: f64,
    /// The run phase.
    pub run: f64,
    /// The output check.
    pub check: f64,
}

/// Times `n` set-ups with `build`, dropping each result, and appends the
/// times to `setups`. Called between repetitions, so a run's set-up
/// samples are spread over its whole budget, not bunched at its start.
pub fn sample_setups<T>(n: usize, setups: &mut Vec<f64>, mut build: impl FnMut() -> T) {
    for _ in 0..n {
        let t = Instant::now();
        let built = build();
        setups.push(t.elapsed().as_secs_f64());
        drop(built);
    }
}

/// The end-to-end metrics of an untraced run: the median set-up over
/// `setups` and every repetition's own, the median time from ready to
/// checked result, and the peak resident memory.
///
/// # Errors
///
/// When peak memory cannot be read.
pub fn end_to_end(
    tally: Tally,
    mut setups: Vec<f64>,
    reps: &[RepTimes],
) -> Result<RunReport, String> {
    for r in reps {
        eprintln!(
            "rep: setup {:.3e} s  run {:.4} s  check {:.3e} s",
            r.setup, r.run, r.check
        );
    }
    setups.extend(reps.iter().map(|r| r.setup));
    let runs: Vec<f64> = reps.iter().map(|r| r.run + r.check).collect();
    Ok(RunReport {
        tally,
        values: vec![
            ("setup_s", median(&setups)),
            ("run_s", median(&runs)),
            ("peak_rss_mb", peak_rss_mb()?),
        ],
    })
}

/// Completes a workload's per-layer values with 0 for every layer it
/// does not call, so each traced run reports the whole catalogue.
pub fn with_unused_layers_zeroed(mut values: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64)> {
    for m in &catalogue().per_layer {
        if !values.iter().any(|(n, _)| *n == m.name) {
            values.push((&m.name, 0.0));
        }
    }
    values
}

/// Where the traced run writes its spans.
fn ledger_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

fn run(args: &Args) -> Result<RunReport, String> {
    let budget = Duration::from_secs(args.seconds);
    let plan = match args.workload {
        Workload::MeshStream => Some(sim::mesh_stream(args.seed)),
        Workload::MeshPeriodic => Some(sim::mesh_periodic(args.seed)),
        Workload::FleetMixed => Some(sim::fleet_mixed(args.seed)),
        Workload::VerifySpj => None,
    };
    if !args.trace {
        return match &plan {
            Some(plan) => sim::measure(plan, budget),
            None => verify::measure(budget),
        };
    }
    let (report, rec) = match &plan {
        Some(plan) => sim::ledger(plan, budget),
        None => verify::ledger(budget)?,
    };
    let path = ledger_path(args);
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"spans\":{}}}",
        args.workload,
        args.seed,
        rec.spans().len()
    );
    rec.write_jsonl(&path, &header)
        .map_err(|e| format!("cannot write the span ledger {}: {e}", path.display()))?;
    eprintln!("spans of the last traced repetition: {}", path.display());
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: a debug build reports no timings; build with --release");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(report) => {
            let cat = catalogue();
            let metrics = if args.trace {
                &cat.per_layer
            } else {
                &cat.end_to_end
            };
            for (name, value) in &report.values {
                eprintln!("{name:>34} = {value}");
            }
            println!("{}", report.to_json(metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_makes_at_least_three_calls() {
        assert_eq!(repeat(Duration::ZERO, |_| {}), MIN_REPS);
    }

    #[test]
    fn repeat_stops_before_overrunning_the_budget() {
        let n = repeat(Duration::from_millis(60), |_| {
            std::thread::sleep(Duration::from_millis(10));
        });
        assert!((MIN_REPS..=6).contains(&n), "{n} calls");
    }

    #[test]
    fn unused_layers_read_zero_and_used_ones_are_kept() {
        let values = with_unused_layers_zeroed(vec![("run.phase_s", 2.0)]);
        assert_eq!(values.len(), catalogue().per_layer.len());
        assert!(values.contains(&("run.phase_s", 2.0)));
        assert!(values.contains(&("lis-verify.states", 0.0)));
    }
}
