//! E5: latency-insensitivity in action, plus the settle-path throughput
//! baseline of the component kernel.
//!
//! Part 1 (correctness): a relayed pipeline runs under every
//! protocol-respecting wrapper model across channel latencies and stall
//! rates; the informative stream must be identical in every
//! configuration (Carloni's latency equivalence), while throughput
//! degrades gracefully.
//!
//! Part 2 (performance): a many-pearl SoC of gate-level SP shells is
//! simulated under the full-sweep reference settle and the activity
//! kernel (`SettleMode::FastForward`, the production mode), each timed
//! five times (`REPS`) with the engines alternating. Both engines must
//! produce bit-identical token streams; the report records one row per
//! engine at its median wall time, and `--check` enforces that every
//! configuration stays intact and the ≥2x bar on the ratio of the two
//! medians, printing the margin.

use lis_bench::{object, print_rows, section, Artifact, Bar, Cli, CHECK, JSON};
use lis_core::experiment::{settle_bench, throughput_sweep, SettleBenchConfig};
use lis_sim::SettleMode;
use serde::Value;

/// Timed runs per settle engine.
const REPS: usize = 5;
/// The `--check` bar: fast-forward over full-sweep, ratio of medians.
const BAR: f64 = 2.0;

pub const ARTIFACT: Artifact = Artifact {
    name: "e5",
    about: "E5: latency-insensitivity sweep plus the settle-path throughput bench.",
    flags: &[CHECK, JSON],
    refuse: |_| Ok(()),
    run,
};

fn run(_: &Cli) -> (Value, Vec<Bar>) {
    section("E5 — throughput & correctness vs channel latency and stalls");
    let rows = throughput_sweep(&[0, 1, 2, 4, 8], &[0.0, 0.2, 0.5], 4000);
    print_rows(&rows);

    section("Summary");
    let intact = rows.iter().filter(|r| r.stream_intact).count();
    println!(
        "{intact}/{} configurations latency-equivalent to the reference (must be all)",
        rows.len()
    );
    let worst = rows
        .iter()
        .min_by(|a, b| a.tokens_per_cycle.total_cmp(&b.tokens_per_cycle))
        .expect("rows");
    println!(
        "lowest throughput: {} at latency={} stall={:.1} ({:.4} tokens/cycle)",
        worst.model, worst.latency, worst.stall, worst.tokens_per_cycle
    );

    section("E5 — settle-path throughput (many-pearl SoC, gate-level SP shells)");
    let cfg = SettleBenchConfig::default();
    println!(
        "{} chains × {} pearls, {} wire hops + {} relay(s) per link, {} cycles, stall {:.1}, \
         median of {REPS} alternating runs per engine",
        cfg.chains, cfg.depth, cfg.wire_hops, cfg.relays, cfg.cycles, cfg.stall
    );
    let (shape, bench_rows) = settle_bench(
        &cfg,
        &[SettleMode::FullSweep, SettleMode::FastForward],
        REPS,
    );
    println!(
        "{} components / {} signals -> {} groups in {} levels ({} cyclic, width {})",
        shape.components,
        shape.signals,
        shape.sched_groups,
        shape.sched_levels,
        shape.sched_cyclic_groups,
        shape.sched_max_level_width
    );
    print_rows(&bench_rows);
    for pair in bench_rows.windows(2) {
        assert_eq!(
            (pair[0].received, pair[0].checksum),
            (pair[1].received, pair[1].checksum),
            "engines must deliver identical streams"
        );
    }
    // Both rows carry their engine's median wall time, so the kcyc/s
    // ratio is the ratio of the medians.
    let speedup = bench_rows[1].kcps / bench_rows[0].kcps;
    let margin = speedup - BAR;
    println!(
        "speedup fast-forward vs full-sweep (ratio of medians): {speedup:.2}x, \
         margin {margin:+.2}x over the {BAR}x bar"
    );

    let bars = vec![
        Bar(
            intact == rows.len(),
            format!("every configuration intact: {intact}/{}", rows.len()),
        ),
        Bar::at_least("fast-forward / full-sweep settle throughput", speedup, BAR),
    ];
    let report = object(&[
        ("e5_sweep", &rows),
        ("settle_bench_config", &cfg),
        ("settle_bench_shape", &shape),
        ("settle_bench_rows", &bench_rows),
        ("speedup_fast_forward_1t", &speedup),
        ("speedup_fast_forward_margin", &margin),
    ]);
    (report, bars)
}
