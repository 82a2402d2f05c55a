//! E7: the activity kernel on the stress mesh.
//!
//! The 8×8 gate-level SP mesh (the E6 hot path) is simulated under
//! streaming, bursty, hotspot, saturating back-pressured, and
//! periodically back-pressured traffic, once per settle engine — the
//! full-sweep reference and the activity kernel (cross-cycle quiescence
//! skipping, selective ticks, and an event wheel that jumps the clock
//! over fully quiescent spans). Every configuration must deliver
//! bit-identical token streams; the activity rows additionally report
//! how much of the mesh they skipped and how many cycles they jumped.
//!
//! `--json <path>` records the rows (e.g. BENCH_e7.json; wall-clock
//! fields are volatile and excluded from the CI drift diff) and
//! `--check` enforces the headline bars: on the back-pressured stress
//! run the kernel skips ≥ 50% of group evaluations and ≥ 50% of ticks
//! (deterministic work counters; the full sweep skips none), and `run`
//! simulates the periodically back-pressured run at ≥ 10× the kcyc/s
//! of the same mesh stepped cycle by cycle.

use lis_bench::{print_rows, section, Arg, Cli, Flag};
use lis_topo::{assert_e7_streams, e7_bench, E7Config};
use serde::{Serialize, Value};

const FLAGS: &[Flag] = &[
    Flag {
        name: "--check",
        arg: Arg::Switch,
        help: "enforce the skip and event-wheel bars",
    },
    Flag {
        name: "--json",
        arg: Arg::Path,
        help: "write the rows as a JSON baseline (e.g. BENCH_e7.json)",
    },
];

fn main() {
    let cli = Cli::from_env(
        "E7: the activity kernel vs the full sweep on the 8x8 stress mesh.",
        FLAGS,
    );
    let json_path = cli.value("--json");
    let check = cli.switch("--check");

    let cfg = E7Config::default();
    section("E7 — activity kernel vs full sweep (stress mesh)");
    println!(
        "mesh {}x{} gate-level SP shells, compute latency {}, hop {} / budget {}",
        cfg.rows, cfg.cols, cfg.compute_latency, cfg.hop_distance, cfg.relay_budget
    );
    let report = e7_bench(&cfg);
    println!(
        "{} pearls, {} relay stations, {} components / {} signals",
        report.pearls, report.relay_stations, report.components, report.signals
    );

    section("E7 — engine × traffic sweep");
    print_rows(&report.sweep);
    assert_e7_streams(&report.sweep);

    section("E7 — back-pressured and periodic stress runs (the headlines)");
    print_rows(&report.check);
    assert_e7_streams(&report.check);
    let backpressured = &report.check[0];
    let (eval_skip, tick_skip) = (backpressured.eval_skip_pct(), backpressured.tick_skip_pct());
    println!(
        "back-pressured fast-forward skipped {eval_skip:.1}% of group evals, \
         {tick_skip:.1}% of ticks"
    );
    println!(
        "speedup fast-forward vs step-only (periodic): {:.2}x",
        report.speedup_fast_forward_vs_step
    );

    if let Some(path) = json_path {
        let baseline = Value::Object(vec![
            ("e7_config".into(), report.config.to_value()),
            ("pearls".into(), Value::UInt(report.pearls as u64)),
            (
                "relay_stations".into(),
                Value::UInt(report.relay_stations as u64),
            ),
            ("components".into(), Value::UInt(report.components as u64)),
            ("signals".into(), Value::UInt(report.signals as u64)),
            ("e7_sweep".into(), report.sweep.to_value()),
            ("e7_check".into(), report.check.to_value()),
            (
                "speedup_fast_forward_vs_step".into(),
                Value::Float(report.speedup_fast_forward_vs_step),
            ),
        ]);
        let json = serde_json::to_string_pretty(&baseline).expect("serialize E7 rows");
        std::fs::write(path, json + "\n").expect("write JSON baseline");
        eprintln!("wrote {path}");
    }

    if check {
        assert!(
            eval_skip >= 50.0 && tick_skip >= 50.0,
            "the activity kernel must skip >=50% of group evaluations and of ticks on the \
             back-pressured stress mesh (measured {eval_skip:.1}% / {tick_skip:.1}%)"
        );
        assert!(
            report.speedup_fast_forward_vs_step >= 10.0,
            "the event wheel must simulate the periodically back-pressured mesh at >=10x \
             the cycle-by-cycle step kcyc/s (measured {:.2}x)",
            report.speedup_fast_forward_vs_step
        );
        println!(
            "--check passed: skipped {eval_skip:.1}% / {tick_skip:.1}% >= 50%, {:.2}x >= 10x, \
             streams bit-identical across engines",
            report.speedup_fast_forward_vs_step
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_bench::CliError;

    /// The kernel is single-threaded, so a leftover `--threads 4` fails
    /// loudly instead of being ignored.
    #[test]
    fn rejects_a_stale_threads_flag() {
        let args = ["--threads".to_owned(), "4".to_owned()];
        assert_eq!(
            Cli::parse(FLAGS, &args).unwrap_err(),
            CliError::Bad("unknown flag `--threads`".to_owned())
        );
    }
}
