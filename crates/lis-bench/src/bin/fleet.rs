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
//! `--json <path>` records the rows (e.g. BENCH_fleet.json; wall-clock
//! fields are volatile and excluded from the CI drift diff) and
//! `--check` enforces the headline bar: the fleet's aggregate scenario
//! throughput (scenario-cycles per wall second) must reach ≥ 8× the
//! sequential solo runs'.

use lis_bench::{default_threads, print_rows, section, Arg, Cli, Flag};
use lis_topo::{assert_fleet_lanes, fleet_bench, FleetBenchConfig};
use serde::{Serialize, Value};

const FLAGS: &[Flag] = &[
    Flag {
        name: "--check",
        arg: Arg::Switch,
        help: "enforce the >=8x scenario-throughput bar",
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
        "mesh {}x{} gate-level SP shells, {} lanes x {} cycles, hop {} / budget {} (threads {threads})",
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
    println!(
        "speedup fleet vs sequential solo (scenario-cycles/s): {:.2}x; \
         all {} lanes bit-identical to their solo twins",
        report.speedup_scenario_throughput, report.config.lanes
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
            (
                "speedup_scenario_throughput".into(),
                Value::Float(report.speedup_scenario_throughput),
            ),
        ]);
        let json = serde_json::to_string_pretty(&baseline).expect("serialize fleet rows");
        std::fs::write(path, json + "\n").expect("write JSON baseline");
        eprintln!("wrote {path}");
    }

    if check {
        assert!(
            report.speedup_scenario_throughput >= 8.0,
            "the lane-batched fleet must deliver >=8x the aggregate scenario \
             throughput of sequential solo runs (measured {:.2}x)",
            report.speedup_scenario_throughput
        );
        println!(
            "--check passed: {:.2}x >= 8x, {} lanes bit-identical to solo twins",
            report.speedup_scenario_throughput, report.config.lanes
        );
    }
}
