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
//! simulated under the full-sweep reference settle (1 thread) and the
//! activity kernel (`SettleMode::FastForward`, the production mode) at
//! 1 and N threads. All engines must produce bit-identical token
//! streams; `--json <path>` records the rows (e.g. BENCH_e5.json;
//! wall-clock fields are volatile and excluded from the CI drift diff)
//! and `--check` additionally enforces the ≥2x speedup bar of the
//! production mode over full-sweep@1.

use lis_bench::{print_rows, section, threads_from_args};
use lis_core::experiment::{settle_bench, throughput_sweep, SettleBenchConfig};
use lis_sim::SettleMode;
use serde::{Serialize, Value};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());
    let check = args.iter().any(|a| a == "--check");
    let threads = threads_from_args(&args);

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
        "{} chains × {} pearls, {} wire hops + {} relay(s) per link, {} cycles, stall {:.1}",
        cfg.chains, cfg.depth, cfg.wire_hops, cfg.relays, cfg.cycles, cfg.stall
    );
    let engines = [
        (SettleMode::FullSweep, 1usize),
        (SettleMode::FastForward, 1),
        (SettleMode::FastForward, threads),
    ];
    let (shape, bench_rows) = settle_bench(&cfg, &engines);
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
    let baseline = &bench_rows[0];
    let speedup_1t = bench_rows[1].kcps / baseline.kcps;
    let speedup_nt = bench_rows[2].kcps / baseline.kcps;
    println!(
        "speedup vs full-sweep@1: fast-forward@1 {speedup_1t:.2}x, \
         fast-forward@{threads} {speedup_nt:.2}x"
    );

    if let Some(path) = &json_path {
        let baseline_json = Value::Object(vec![
            ("e5_sweep".into(), rows.to_value()),
            ("settle_bench_config".into(), cfg.to_value()),
            ("settle_bench_shape".into(), shape.to_value()),
            ("settle_bench_rows".into(), bench_rows.to_value()),
            ("speedup_fast_forward_1t".into(), Value::Float(speedup_1t)),
            ("speedup_fast_forward_nt".into(), Value::Float(speedup_nt)),
            ("threads_nt".into(), Value::UInt(threads as u64)),
        ]);
        let json = serde_json::to_string_pretty(&baseline_json).expect("serialize E5 rows");
        std::fs::write(path, json + "\n").expect("write JSON baseline");
        eprintln!("wrote {path}");
    }

    if check {
        assert_eq!(intact, rows.len(), "every configuration must stay intact");
        // The algorithmic (1-thread) speedup is thread-count- and
        // machine-independent; the threads=N row additionally reflects
        // the runner's real parallelism. Gate on the better of the two
        // so a noisy 2-vCPU runner cannot flake the bar.
        let best = speedup_nt.max(speedup_1t);
        assert!(
            best >= 2.0,
            "the activity kernel must be >=2x the single-threaded full-sweep \
             baseline on the many-pearl settle path (measured 1t {speedup_1t:.2}x, \
             {threads}t {speedup_nt:.2}x)"
        );
        println!("--check passed: {best:.2}x >= 2x");
    }
}
