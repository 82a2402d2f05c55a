//! # lis-bench — the reproduction harness
//!
//! One binary per table/figure of Bomel et al. (DATE 2005), plus
//! Criterion benches for the flow kernels. See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded results.
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table1` | Table 1 — FSM vs SP synthesis of Viterbi/RS wrappers |
//! | `fig1_fig2` | Figures 1 & 2 — wrapper architectures, regenerated structurally |
//! | `scaling` | E3/E4 — area/fmax vs schedule length and port count |
//! | `throughput` | E5 — relayed-pipeline throughput & latency-insensitivity |
//! | `ablation` | E6 — FSM encodings; static wrapper fragility |
//! | `e7` | E7 — activity kernel (run vs step-only) vs full sweep on the stress mesh |
//! | `fleet` | Scenario fleets — 64 lane-batched traffic scenarios vs sequential solo runs |
//! | `verify` | Bounded model check — SP protocol proven clean to depth 12; mutants caught |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Parses the `--threads N` flag (default: `LIS_SIM_THREADS`, then the
/// machine's available parallelism, capped at 8).
pub fn threads_from_args(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .or_else(|| {
            std::env::var("LIS_SIM_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        })
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(8)
        })
}

/// [`threads_from_args`], materialized as the shared work-stealing pool
/// the binaries fan their independent synthesis/simulation jobs across.
pub fn pool_from_args(args: &[String]) -> lis_sim::WorkStealingPool {
    lis_sim::WorkStealingPool::new(threads_from_args(args))
}

/// Prints a titled rule-delimited section.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints any row sequence, one `Display` per line.
pub fn print_rows<T: Display>(rows: &[T]) {
    for row in rows {
        println!("{row}");
    }
}

/// A quick textual bar for ASCII charts, scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
