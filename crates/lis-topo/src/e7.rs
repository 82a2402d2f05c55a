//! The E7 activity-kernel bench: stress-mesh settle throughput under
//! the two settle engines and five traffic regimes.
//!
//! The paper's synchronization processor exists so most of a
//! latency-insensitive SoC can *stall cheaply* — and in a stalled or
//! back-pressured mesh most components do nothing each cycle. E7
//! measures what the simulator makes of that: the 8×8 gate-level SP
//! stress mesh (the E6 hot path) is driven under streaming, bursty,
//! hotspot, saturating back-pressured, and periodically back-pressured
//! traffic, once per settle engine (the `full-sweep` reference and the
//! `fast-forward` activity kernel). Every configuration must deliver
//! bit-identical token streams — checksummed — while the activity rows
//! additionally record how much of the mesh they *skipped* (quiescent
//! groups per settle, quiescent components per tick, and — under `run`
//! — whole cycles jumped by the event wheel). Two headline bars,
//! asserted by the bench binary's `--check`: on the back-pressured
//! stress run the kernel skips at least half of all group evaluations
//! and half of all ticks (the full sweep evaluates and ticks
//! everything every cycle), and `run` simulates the *periodically*
//! back-pressured run (scheduled stall spans the event wheel can jump)
//! at ≥ 10× the same mesh stepped cycle by cycle (`step-only`).

use crate::build::TopologyBuilder;
use crate::topology::{NodeModel, SyncVariant, TopologyShape, TopologySpec, TrafficPattern};
use lis_sim::SettleMode;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Configuration of the E7 bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E7Config {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Compute-only cycles per pearl period. Kept short so pearl
    /// *capacity* outruns the clogged sinks of the back-pressured run —
    /// the fabric saturates and stays saturated.
    pub compute_latency: usize,
    /// Physical hop length (relay insertion, as in the E6 stress run).
    pub hop_distance: u32,
    /// Latency budget (units one clock may span).
    pub relay_budget: u32,
    /// Traffic regimes of the engine-comparison sweep.
    pub sweep_traffics: Vec<TrafficPattern>,
    /// Cycles per sweep row (kept modest: the full sweep pays up to
    /// ~10× the activity kernel's wall clock on this mesh).
    pub sweep_cycles: u64,
    /// The saturating regime of the headline run.
    pub backpressure: TrafficPattern,
    /// The scheduled-stall regime of the fast-forward headline: sinks
    /// accept in short lockstep windows, so between windows the mesh
    /// drains, quiesces, and the event wheel jumps to the next window.
    /// The period is long (2^19 cycles): each window costs a bounded
    /// drain transient (~100 visited cycles), so the dead span between
    /// windows must be long enough to dominate the cycle-by-cycle
    /// kernel's wall clock before jumping it pays off 10-fold.
    pub periodic: TrafficPattern,
    /// Cycles of the headline back-pressured run (the skip bar).
    pub check_cycles: u64,
    /// Cycles of the headline periodic run (step-only vs fast-forward)
    /// — a few full periods. Far larger than `check_cycles`: stepping
    /// crosses dead cycles at ~100× its saturated speed, and
    /// fast-forward doesn't visit them at all.
    pub periodic_check_cycles: u64,
    /// Tokens each source offers (ample; sources must never dry up).
    pub tokens_per_source: usize,
    /// Stall seed.
    pub seed: u64,
}

impl Default for E7Config {
    fn default() -> Self {
        E7Config {
            rows: 8,
            cols: 8,
            compute_latency: 2,
            hop_distance: 6,
            relay_budget: 2,
            sweep_traffics: vec![
                TrafficPattern::Streaming,
                TrafficPattern::Bursty { stall: 0.3 },
                TrafficPattern::Hotspot { stall: 0.6 },
                TrafficPattern::BackPressured { stall: 0.95 },
                TrafficPattern::PeriodicBackPressured { on: 4, period: 256 },
            ],
            sweep_cycles: 1_200,
            backpressure: TrafficPattern::BackPressured { stall: 0.95 },
            periodic: TrafficPattern::PeriodicBackPressured {
                on: 4,
                period: 524_288,
            },
            check_cycles: 20_000,
            periodic_check_cycles: 2_097_152,
            tokens_per_source: 100_000,
            seed: 7,
        }
    }
}

/// One measured (traffic, engine) configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E7Row {
    /// Traffic regime label.
    pub traffic: String,
    /// Settle engine label: `full-sweep`, `fast-forward` (driven by
    /// `Soc::run`), or `step-only` (the activity kernel driven by
    /// `System::step` alone, every cycle visited).
    pub engine: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Informative tokens delivered across all sinks (stable).
    pub tokens: u64,
    /// Order-sensitive stream checksum (stable; must match across
    /// engines within a traffic regime).
    pub checksum: u64,
    /// Whether every sink stream matched the dataflow oracle.
    pub stream_exact: bool,
    /// Groups evaluated by activity settles (stable; 0 for the full
    /// sweep).
    pub groups_evaluated: u64,
    /// Groups skipped as quiescent (stable; 0 for the full sweep).
    pub groups_skipped: u64,
    /// Component ticks executed (stable; 0 for the full sweep).
    pub components_ticked: u64,
    /// Component ticks skipped as quiescent (stable; 0 for the full
    /// sweep).
    pub components_quiescent: u64,
    /// Cycles jumped by the event wheel (stable; 0 unless the row runs
    /// fast-forward and the traffic leaves whole cycles dead).
    pub cycles_fast_forwarded: u64,
    /// Wall time (volatile; excluded from drift checks).
    pub wall_ms: f64,
    /// Simulated kilocycles per second (volatile).
    pub kcps: f64,
}

impl E7Row {
    /// Fraction of group evaluations skipped (stable).
    pub fn eval_skip_pct(&self) -> f64 {
        let total = self.groups_evaluated + self.groups_skipped;
        if total == 0 {
            0.0
        } else {
            100.0 * self.groups_skipped as f64 / total as f64
        }
    }

    /// Fraction of component ticks skipped (stable).
    pub fn tick_skip_pct(&self) -> f64 {
        let total = self.components_ticked + self.components_quiescent;
        if total == 0 {
            0.0
        } else {
            100.0 * self.components_quiescent as f64 / total as f64
        }
    }
}

impl fmt::Display for E7Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:20} {:12}: {:8.1} kcyc/s ({} cycles, {} jumped), {:6} tok, exact={}, \
             skip eval {:5.1}% tick {:5.1}%, checksum {:#018x}",
            self.traffic,
            self.engine,
            self.kcps,
            self.cycles,
            self.cycles_fast_forwarded,
            self.tokens,
            self.stream_exact,
            self.eval_skip_pct(),
            self.tick_skip_pct(),
            self.checksum,
        )
    }
}

/// The full E7 report: the engine×traffic sweep, the headline
/// back-pressured comparison, and the structural shape of the mesh.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E7Report {
    /// The configuration measured.
    pub config: E7Config,
    /// Pearls in the mesh.
    pub pearls: usize,
    /// Relay stations inserted by the latency budget.
    pub relay_stations: usize,
    /// Simulator components.
    pub components: usize,
    /// Signals in the arena.
    pub signals: usize,
    /// Engine × traffic sweep rows.
    pub sweep: Vec<E7Row>,
    /// Headline rows: back-pressured (fast-forward), then periodic
    /// (step-only, fast-forward).
    pub check: Vec<E7Row>,
    /// Fast-forward vs step-only kcyc/s on the periodic run (volatile;
    /// the event-wheel `--check` bar).
    pub speedup_fast_forward_vs_step: f64,
}

fn spec_for(cfg: &E7Config, traffic: TrafficPattern) -> TopologySpec {
    TopologySpec {
        shape: TopologyShape::Mesh {
            rows: cfg.rows,
            cols: cfg.cols,
        },
        compute_latency: cfg.compute_latency,
        hop_distance: cfg.hop_distance,
        relay_budget: cfg.relay_budget,
        wire_segments: 0,
        traffic,
        model: NodeModel::GateLevel,
        variant: SyncVariant::SpCompressed,
        tokens_per_source: cfg.tokens_per_source,
        seed: cfg.seed,
    }
}

/// How a row drives its mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    /// `Soc::run` under the given settle mode.
    Run(SettleMode),
    /// The activity kernel stepped with `System::step` alone.
    StepOnly,
}

/// Runs one (traffic, engine) configuration for `cycles`, filling
/// `census` with the mesh's structural stats on the first call.
fn run_one(
    cfg: &E7Config,
    traffic: TrafficPattern,
    drive: Drive,
    cycles: u64,
    census: &mut Option<crate::build::TopoStats>,
) -> E7Row {
    let spec = spec_for(cfg, traffic);
    let mode = match drive {
        Drive::Run(mode) => mode,
        Drive::StepOnly => SettleMode::FastForward,
    };
    let mut topo = TopologyBuilder::new(spec).settle_mode(mode).build();
    if census.is_none() {
        // The census is traffic/engine independent.
        *census = Some(topo.stats.clone());
    }
    let start = Instant::now();
    match drive {
        Drive::Run(_) => topo.soc.run(cycles).expect("E7 simulation"),
        Drive::StepOnly => {
            for _ in 0..cycles {
                topo.soc.system_mut().step().expect("E7 simulation");
            }
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(topo.soc.violations(), 0, "{traffic}/{drive:?}: violations");
    let stats = topo.soc.scheduler_stats();
    let engine = match drive {
        Drive::Run(mode) => lis_core::experiment::engine_name(mode),
        Drive::StepOnly => "step-only",
    };
    E7Row {
        traffic: traffic.to_string(),
        engine: engine.to_owned(),
        cycles,
        tokens: topo.total_received(),
        checksum: topo.checksum(),
        stream_exact: topo.token_exact(),
        groups_evaluated: stats.groups_evaluated,
        groups_skipped: stats.groups_skipped,
        components_ticked: stats.components_ticked,
        components_quiescent: stats.components_quiescent,
        cycles_fast_forwarded: stats.cycles_fast_forwarded,
        wall_ms,
        kcps: cycles as f64 / 1e3 / (wall_ms / 1e3),
    }
}

/// Runs the full E7 bench: the engine×traffic sweep plus the two
/// headline runs — back-pressured (the skip bar) and periodic
/// (step-only vs fast-forward).
pub fn e7_bench(cfg: &E7Config) -> E7Report {
    let mut census = None;
    let mut sweep = Vec::new();
    for &traffic in &cfg.sweep_traffics {
        for mode in [SettleMode::FullSweep, SettleMode::FastForward] {
            sweep.push(run_one(
                cfg,
                traffic,
                Drive::Run(mode),
                cfg.sweep_cycles,
                &mut census,
            ));
        }
    }

    let mut run = |traffic, drive, cycles| run_one(cfg, traffic, drive, cycles, &mut census);
    let ff = Drive::Run(SettleMode::FastForward);
    let backpressured = run(cfg.backpressure, ff, cfg.check_cycles);

    // The event-wheel headline: same mesh, scheduled stalls. Stepping
    // visits every dead cycle; `run` jumps them.
    let periodic_step = run(cfg.periodic, Drive::StepOnly, cfg.periodic_check_cycles);
    let periodic_ff = run(cfg.periodic, ff, cfg.periodic_check_cycles);
    let speedup_ff = periodic_ff.kcps / periodic_step.kcps;
    let check = vec![backpressured, periodic_step, periodic_ff];

    let stats = census.expect("at least one run recorded the census");
    E7Report {
        config: cfg.clone(),
        pearls: stats.nodes,
        relay_stations: stats.relay_stations,
        components: stats.components,
        signals: stats.signals,
        sweep,
        check,
        speedup_fast_forward_vs_step: speedup_ff,
    }
}

/// Asserts the E7 stream-identity claim: within each traffic regime,
/// every engine delivered the identical token stream (same count, same
/// checksum) and stayed oracle-exact, and the activity rows
/// (fast-forward, step-only) actually skipped work *and* agree exactly
/// on how much work they executed — `run` must evaluate the same groups
/// and tick the same components as stepping cycle by cycle, jumps or
/// not.
///
/// # Panics
///
/// Panics naming the diverging rows; this is the bench's acceptance
/// gate, kept loud on purpose.
pub fn assert_e7_streams(rows: &[E7Row]) {
    let mut by_traffic: Vec<(&str, &E7Row)> = Vec::new();
    let mut family: Vec<(&str, &E7Row)> = Vec::new();
    for row in rows {
        assert!(row.stream_exact, "stream corrupted: {row}");
        match by_traffic.iter().find(|(t, _)| *t == row.traffic) {
            None => by_traffic.push((&row.traffic, row)),
            Some((_, first)) => {
                assert_eq!(
                    (first.tokens, first.checksum),
                    (row.tokens, row.checksum),
                    "engines must deliver identical streams:\n  {first}\n  {row}"
                );
            }
        }
        if row.engine == "fast-forward" || row.engine == "step-only" {
            assert!(
                row.groups_skipped > 0 && row.components_quiescent > 0,
                "activity row skipped nothing: {row}"
            );
            match family.iter().find(|(t, _)| *t == row.traffic) {
                None => family.push((&row.traffic, row)),
                Some((_, first)) => {
                    assert_eq!(
                        (first.groups_evaluated, first.components_ticked),
                        (row.groups_evaluated, row.components_ticked),
                        "fast-forward must execute exactly the work stepping \
                         executes:\n  {first}\n  {row}"
                    );
                }
            }
        } else {
            assert_eq!(
                (row.groups_evaluated, row.components_ticked),
                (0, 0),
                "the full sweep must not report activity counters: {row}"
            );
        }
        if row.engine != "fast-forward" {
            assert_eq!(
                row.cycles_fast_forwarded, 0,
                "only `run` under fast-forward may jump cycles: {row}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature E7 exercising the whole pipeline: all engines and
    /// traffic regimes stream-identical, the activity kernel genuinely
    /// skipping, `run` genuinely jumping.
    #[test]
    fn miniature_e7_is_stream_identical_and_skips() {
        let cfg = E7Config {
            rows: 2,
            cols: 2,
            sweep_traffics: vec![
                TrafficPattern::Streaming,
                TrafficPattern::BackPressured { stall: 0.9 },
            ],
            sweep_cycles: 250,
            periodic: TrafficPattern::PeriodicBackPressured { on: 4, period: 64 },
            check_cycles: 600,
            periodic_check_cycles: 600,
            tokens_per_source: 5_000,
            ..E7Config::default()
        };
        let report = e7_bench(&cfg);
        assert_eq!(report.sweep.len(), 4);
        assert_eq!(report.check.len(), 3);
        assert_e7_streams(&report.sweep);
        assert_e7_streams(&report.check);
        assert!(report.pearls == 4 && report.relay_stations > 0);
        // The back-pressured mesh must be mostly asleep under the
        // activity kernel.
        let bp_activity = &report.check[0];
        assert!(
            bp_activity.tick_skip_pct() > 30.0,
            "back-pressure must induce real quiescence: {bp_activity}"
        );
        // The scheduled stall spans of the periodic run must produce
        // real clock jumps.
        let ff = &report.check[2];
        assert!(
            ff.cycles_fast_forwarded > 0,
            "the event wheel must jump dead spans: {ff}"
        );
    }
}
