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
//! and each row reports its median wall time. `--check` enforces the
//! headline bar on the ratio of the two medians, printing the margin:
//! the fleet's aggregate scenario throughput (scenario-cycles per wall
//! second) must reach ≥ 2× the sequential solo runs'.

use lis_bench::{
    default_threads, object, print_rows, section, Artifact, Bar, Cli, CHECK, JSON, THREADS,
};
use lis_topo::{assert_fleet_lanes, fleet_bench, FleetBenchConfig, FLEET_BENCH_REPS};
use serde::Value;

/// The `--check` bar: fleet over solo scenario throughput, ratio of
/// medians. The solo runs execute the scalar JIT shells, so a faster
/// scalar engine lowers the ratio: the word pass took the solo row from
/// ~7.7 s to ~2.9 s while the packed fleet row stayed near 0.85 s, and
/// ten runs on a 2-core x86_64 VM then read 2.91× to 4.06×. The bar is
/// the largest whole number below the lowest of them.
const BAR: f64 = 2.0;

pub const ARTIFACT: Artifact = Artifact {
    name: "fleet",
    about: "Fleet: 64 lane-batched scenarios vs sequential solo runs of the stress mesh.",
    flags: &[CHECK, JSON, THREADS],
    refuse: |_| Ok(()),
    run,
};

fn run(cli: &Cli) -> (Value, Vec<Bar>) {
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

    let bars = vec![Bar::at_least(
        "fleet / solo scenario throughput",
        speedup,
        BAR,
    )];
    let report = object(&[
        ("fleet_config", &report.config),
        ("fleet_stats", &report.stats),
        ("fleet_solo", &report.solo),
        ("fleet_fleet", &report.fleet),
        ("lanes_bit_identical", &report.lanes_bit_identical),
        ("speedup_scenario_throughput", &speedup),
        ("speedup_scenario_throughput_margin", &margin),
    ]);
    (report, bars)
}
