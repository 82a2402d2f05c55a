//! Fleet: lane-parallel scenario fleets vs sequential solo runs.
//!
//! The 8×8 gate-level SP stress mesh (the E6/E7 hot path) is simulated
//! under 64 independent traffic scenarios — per-lane regimes and stall
//! seeds — twice: once as 64 solo SoCs run back to back, and once as a
//! single lane-batched fleet whose gate-level shells execute all 64
//! scenarios through one shared packed instruction stream (64 lanes per
//! `u64`, one bitwise op per gate for the whole batch). Every fleet
//! lane must be bit-identical — streams, checksums, violation counts —
//! to its solo twin.
//!
//! Both sides are timed five times (`FLEET_BENCH_REPS`), alternating,
//! and each row reports its median wall time. `--json <path>` records
//! the rows (e.g. BENCH_fleet.json; wall-clock fields are volatile and
//! excluded from the CI drift diff) and `--check` enforces the headline
//! bar on the ratio of the two medians, printing the margin: the fleet's
//! aggregate scenario throughput (scenario-cycles per wall second) must
//! reach ≥ 8× the sequential solo runs'.

use lis_bench::{default_threads, print_rows, section, Arg, Cli, Flag};
use lis_topo::{assert_fleet_lanes, fleet_bench, FleetBenchConfig, FLEET_BENCH_REPS};
use serde::{Serialize, Value};

/// The `--check` bar: fleet over solo scenario throughput, ratio of
/// medians.
const BAR: f64 = 8.0;

const FLAGS: &[Flag] = &[
    Flag {
        name: "--check",
        arg: Arg::Switch,
        help: "enforce the >=8x scenario-throughput bar (ratio of medians)",
    },
    Flag {
        name: "--json",
        arg: Arg::Path,
        help: "write the rows as a JSON baseline (e.g. BENCH_fleet.json)",
    },
    Flag {
        name: "--threads",
        arg: Arg::Count,
        help: "pool workers fanning out lane batches (default: cores, at most 8)",
    },
];

fn main() {
    let cli = Cli::from_env(
        "Fleet: 64 lane-batched scenarios vs sequential solo runs of the stress mesh.",
        FLAGS,
    );
    let json_path = cli.value("--json");
    let check = cli.switch("--check");
    let threads = cli.count("--threads").unwrap_or_else(default_threads);

    let cfg = FleetBenchConfig::default();
    section("Fleet — 64 lane-batched scenarios vs sequential solo runs (stress mesh)");
    println!(
        "mesh {}x{} gate-level SP shells, {} lanes x {} cycles, hop {} / budget {} (threads {threads}), \
         median of {FLEET_BENCH_REPS} alternating runs per side",
        cfg.rows, cfg.cols, cfg.lanes, cfg.cycles, cfg.hop_distance, cfg.relay_budget
    );
    let report = fleet_bench(&cfg, threads);
    println!(
        "{} pearls, {} relay stations/lane, {} batches, {} components / {} signals",
        report.stats.nodes,
        report.stats.relay_stations_per_lane,
        report.stats.batches,
        report.stats.components,
        report.stats.signals
    );

    section("Fleet — aggregate scenario throughput");
    print_rows(&[report.solo.clone(), report.fleet.clone()]);
    assert_fleet_lanes(&report);
    let speedup = report.speedup_scenario_throughput;
    let margin = speedup - BAR;
    println!(
        "speedup fleet vs sequential solo (scenario-cycles/s, ratio of medians): {speedup:.2}x, \
         margin {margin:+.2}x over the {BAR}x bar; all {} lanes bit-identical to their solo twins",
        report.config.lanes
    );

    if let Some(path) = json_path {
        let baseline = Value::Object(vec![
            ("fleet_config".into(), report.config.to_value()),
            ("fleet_stats".into(), report.stats.to_value()),
            ("fleet_solo".into(), report.solo.to_value()),
            ("fleet_fleet".into(), report.fleet.to_value()),
            (
                "lanes_bit_identical".into(),
                Value::Bool(report.lanes_bit_identical),
            ),
            ("speedup_scenario_throughput".into(), Value::Float(speedup)),
            (
                "speedup_scenario_throughput_margin".into(),
                Value::Float(margin),
            ),
        ]);
        let json = serde_json::to_string_pretty(&baseline).expect("serialize fleet rows");
        std::fs::write(path, json + "\n").expect("write JSON baseline");
        eprintln!("wrote {path}");
    }

    if check {
        assert!(
            speedup >= BAR,
            "the lane-batched fleet must deliver >={BAR}x the aggregate scenario \
             throughput of sequential solo runs (ratio of medians {speedup:.2}x)"
        );
        println!(
            "--check passed: {speedup:.2}x >= {BAR}x (margin {margin:+.2}x), {} lanes \
             bit-identical to solo twins",
            report.config.lanes
        );
    }
}
