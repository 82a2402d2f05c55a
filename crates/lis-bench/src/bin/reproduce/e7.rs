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
//! `--check` enforces the headline bars: on the back-pressured stress
//! run the kernel skips ≥ 50% of group evaluations and ≥ 50% of ticks
//! (deterministic work counters; the full sweep skips none), and `run`
//! simulates the periodically back-pressured run at ≥ 10× the kcyc/s
//! of the same mesh stepped cycle by cycle.

use lis_bench::{object, print_rows, section, Artifact, Bar, Cli, CHECK, JSON};
use lis_topo::{assert_e7_streams, e7_bench, E7Config};
use serde::Value;

pub const ARTIFACT: Artifact = Artifact {
    name: "e7",
    about: "E7: the activity kernel vs the full sweep on the 8x8 stress mesh.",
    flags: &[CHECK, JSON],
    refuse: |_| Ok(()),
    run,
};

fn run(_: &Cli) -> (Value, Vec<Bar>) {
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
    let speedup = report.speedup_fast_forward_vs_step;
    println!("speedup fast-forward vs step-only (periodic): {speedup:.2}x");

    let bars = vec![
        Bar::at_least("back-pressured % of group evals skipped", eval_skip, 50.0),
        Bar::at_least("back-pressured % of ticks skipped", tick_skip, 50.0),
        Bar::at_least("periodic fast-forward / step-only kcyc/s", speedup, 10.0),
    ];
    let report = object(&[
        ("e7_config", &report.config),
        ("pearls", &report.pearls),
        ("relay_stations", &report.relay_stations),
        ("components", &report.components),
        ("signals", &report.signals),
        ("e7_sweep", &report.sweep),
        ("e7_check", &report.check),
        ("speedup_fast_forward_vs_step", &speedup),
    ]);
    (report, bars)
}
