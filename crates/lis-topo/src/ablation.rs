//! The E6 ablation bench: SP-with-ROM-compression vs SP-uncompressed vs
//! per-pearl FSM synchronizers across NoC topology scales, plus the
//! long-schedule stress run.
//!
//! The paper's evaluation stops at RS(255,239); this bench extends its
//! core claim to NoC scale. As the mesh grows, the generated pearls'
//! schedules lengthen (longer interconnect → deeper compute phases), so
//! per-pearl synchronizer cost is swept along two axes at once:
//!
//! * **area** — the FSM pays one state per schedule cycle and the
//!   uncompressed SP one ROM word per cycle, so both grow with scale;
//!   the run-counter-compressed SP stores one word per *synchronization
//!   point* and stays flat;
//! * **behaviour** — every variant drives the same generated traffic
//!   through gate-level shells on the activity kernel, and every
//!   stream must stay token-exact against the dataflow oracle.

use crate::build::TopologyBuilder;
use crate::topology::{NodeModel, SyncVariant, TopologyShape, TopologySpec, TrafficPattern};
use lis_core::{synthesize_wrapper, SpCompression, WrapperSynthesis};
use lis_proto::{AccumulatorPearl, Pearl};
use lis_synth::TechParams;
use lis_wrappers::{FsmEncoding, WrapperKind};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// One topology scale of the ablation sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Mesh side (the sweep uses square meshes: `side`² pearls).
    pub side: usize,
    /// Compute-only cycles per pearl period at this scale (the
    /// schedule-length axis; longer interconnect → deeper phases).
    pub compute_latency: usize,
    /// Clock cycles to simulate at this scale.
    pub sim_cycles: u64,
}

/// Configuration of the E6 topology ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationBenchConfig {
    /// Swept scales.
    pub scales: Vec<ScalePoint>,
    /// Physical hop length (wire-length units).
    pub hop_distance: u32,
    /// Latency budget (units one clock may span) — drives relay
    /// insertion.
    pub relay_budget: u32,
    /// Endpoint stall probability (bursty traffic).
    pub stall: f64,
    /// Stall seed.
    pub seed: u64,
}

impl Default for AblationBenchConfig {
    fn default() -> Self {
        // Latencies are picked inside one power-of-two band (run
        // counters 131..=249 all encode in 8 bits), so the compressed
        // SP's ROM geometry is *identical* at every scale — the
        // flat-cost claim in its sharpest form — while FSM state count
        // and uncompressed ROM words keep growing.
        AblationBenchConfig {
            // sim_cycles must outlast the first wavefront: a sink in an
            // s×s mesh only sees data after ~(s+2) pearl periods plus
            // the relay latencies.
            scales: vec![
                ScalePoint {
                    side: 2,
                    compute_latency: 130,
                    sim_cycles: 800,
                },
                ScalePoint {
                    side: 4,
                    compute_latency: 160,
                    sim_cycles: 1_400,
                },
                ScalePoint {
                    side: 6,
                    compute_latency: 200,
                    sim_cycles: 2_200,
                },
                ScalePoint {
                    side: 8,
                    compute_latency: 248,
                    sim_cycles: 3_200,
                },
            ],
            hop_distance: 4,
            relay_budget: 2,
            stall: 0.2,
            seed: 42,
        }
    }
}

/// One row of the E6 topology ablation: one (scale, variant) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopoAblationRow {
    /// Topology label ("mesh-4x4").
    pub scale: String,
    /// Pearls at this scale.
    pub nodes: usize,
    /// Pearl schedule period (cycles).
    pub schedule_period: usize,
    /// Synchronizer variant.
    pub variant: String,
    /// Per-pearl controller slices.
    pub slices: usize,
    /// Per-pearl controller fmax.
    pub fmax_mhz: f64,
    /// Per-pearl operations-memory bits (0 for the FSM).
    pub rom_bits: usize,
    /// SP program length in ROM words (0 for the FSM).
    pub sp_ops: usize,
    /// Cycles simulated.
    pub sim_cycles: u64,
    /// Relay stations the latency budget inserted.
    pub relay_stations: usize,
    /// Informative tokens delivered across all sinks (stable).
    pub tokens: u64,
    /// Sustained token rate (tokens / cycle; stable).
    pub tokens_per_cycle: f64,
    /// Order-sensitive checksum of all sink streams (stable).
    pub checksum: u64,
    /// Whether every sink stream matched the dataflow oracle.
    pub stream_exact: bool,
    /// Simulation wall time (volatile; excluded from drift checks).
    pub wall_ms: f64,
    /// Settle throughput in kilocycles/s (volatile).
    pub kcps: f64,
}

impl fmt::Display for TopoAblationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:9} period={:3} {:15} {:5} slices {:6.1} MHz {:6} ROM bits | {:6} tok ({:.4}/cyc) exact={} {:7.1} kcyc/s",
            self.scale,
            self.schedule_period,
            self.variant,
            self.slices,
            self.fmax_mhz,
            self.rom_bits,
            self.tokens,
            self.tokens_per_cycle,
            self.stream_exact,
            self.kcps,
        )
    }
}

fn node_schedule(compute_latency: usize) -> lis_schedule::IoSchedule {
    // Mesh pearls are homogeneous 2-in/2-out accumulators.
    AccumulatorPearl::new("node", 2, 2, compute_latency)
        .schedule()
        .clone()
}

fn synthesize_variant(
    variant: SyncVariant,
    schedule: &lis_schedule::IoSchedule,
    params: &TechParams,
) -> Result<WrapperSynthesis, lis_netlist::NetlistError> {
    match variant {
        SyncVariant::SpCompressed => {
            synthesize_wrapper(WrapperKind::Sp, schedule, SpCompression::Safe, params)
        }
        SyncVariant::SpUncompressed => synthesize_wrapper(
            WrapperKind::Sp,
            schedule,
            SpCompression::Uncompressed,
            params,
        ),
        SyncVariant::Fsm => synthesize_wrapper(
            WrapperKind::Fsm(FsmEncoding::OneHot),
            schedule,
            SpCompression::Safe,
            params,
        ),
    }
}

/// Runs the E6 topology ablation: per (scale, variant), synthesize the
/// pearl controller and drive the generated mesh gate-level through the
/// activity kernel.
///
/// # Errors
///
/// Propagates netlist generation/validation errors from synthesis.
pub fn topology_ablation(
    cfg: &AblationBenchConfig,
    params: &TechParams,
) -> Result<Vec<TopoAblationRow>, lis_netlist::NetlistError> {
    let mut rows = Vec::new();
    for scale in &cfg.scales {
        let shape = TopologyShape::Mesh {
            rows: scale.side,
            cols: scale.side,
        };
        let schedule = node_schedule(scale.compute_latency);
        for variant in SyncVariant::all() {
            let synth = synthesize_variant(variant, &schedule, params)?;
            let spec = TopologySpec {
                shape,
                compute_latency: scale.compute_latency,
                hop_distance: cfg.hop_distance,
                relay_budget: cfg.relay_budget,
                wire_segments: 0,
                traffic: TrafficPattern::Bursty { stall: cfg.stall },
                model: NodeModel::GateLevel,
                variant,
                tokens_per_source: 4 * scale.sim_cycles as usize,
                seed: cfg.seed,
            };
            let mut topo = TopologyBuilder::new(spec).build();
            let start = Instant::now();
            topo.soc.run(scale.sim_cycles).expect("ablation simulation");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let tokens = topo.total_received();
            assert_eq!(topo.soc.violations(), 0, "{shape}/{variant}: violations");
            rows.push(TopoAblationRow {
                scale: shape.to_string(),
                nodes: shape.nodes(),
                schedule_period: schedule.period(),
                variant: variant.to_string(),
                slices: synth.report.area.slices,
                fmax_mhz: synth.report.timing.fmax_mhz,
                rom_bits: synth.report.area.rom_bits_bram + synth.report.area.rom_bits_lutram,
                sp_ops: synth.sp_ops.unwrap_or(0),
                sim_cycles: scale.sim_cycles,
                relay_stations: topo.stats.relay_stations,
                tokens,
                tokens_per_cycle: tokens as f64 / scale.sim_cycles as f64,
                checksum: topo.checksum(),
                stream_exact: topo.token_exact(),
                wall_ms,
                kcps: scale.sim_cycles as f64 / 1e3 / (wall_ms / 1e3),
            });
        }
    }
    Ok(rows)
}

/// Asserts the E6 headline claim on a set of ablation rows: compressed
/// SP slice and ROM cost stay flat (within `tolerance`, e.g. `0.10`)
/// across scales while FSM slices and uncompressed-SP ROM bits grow
/// monotonically.
///
/// # Panics
///
/// Panics (with the offending rows) if the claim does not hold — this
/// is the bench's acceptance gate, kept loud on purpose.
pub fn assert_e6_claim(rows: &[TopoAblationRow], tolerance: f64) {
    let of = |variant: &str| -> Vec<&TopoAblationRow> {
        rows.iter().filter(|r| r.variant == variant).collect()
    };
    let sp = of("sp-compressed");
    assert!(sp.len() >= 2, "need at least two scales");
    let (smin, smax) = sp.iter().fold((usize::MAX, 0), |(lo, hi), r| {
        (lo.min(r.slices), hi.max(r.slices))
    });
    assert!(
        (smax - smin) as f64 <= tolerance * smax as f64,
        "compressed SP slices must stay flat: {smin}..{smax}"
    );
    let (rmin, rmax) = sp.iter().fold((usize::MAX, 0), |(lo, hi), r| {
        (lo.min(r.rom_bits), hi.max(r.rom_bits))
    });
    assert!(
        (rmax - rmin) as f64 <= tolerance * rmax as f64,
        "compressed SP ROM bits must stay flat: {rmin}..{rmax}"
    );
    for pair in of("fsm").windows(2) {
        assert!(
            pair[1].slices > pair[0].slices,
            "FSM slices must grow monotonically with scale: {} !> {}",
            pair[1].slices,
            pair[0].slices
        );
    }
    for pair in of("sp-uncompressed").windows(2) {
        assert!(
            pair[1].rom_bits > pair[0].rom_bits,
            "uncompressed SP ROM must grow with schedule length"
        );
    }
    for r in rows {
        assert!(r.stream_exact, "stream corrupted: {r}");
        assert!(r.tokens > 0, "no data flowed: {r}");
    }
}

/// Configuration of the long-schedule stress run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StressConfig {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Compute-only cycles per pearl period (the SP runs this many
    /// run-counter cycles between synchronization points, every period,
    /// for the whole run).
    pub compute_latency: usize,
    /// Physical hop length.
    pub hop_distance: u32,
    /// Latency budget (relay insertion).
    pub relay_budget: u32,
    /// Endpoint stall probability.
    pub stall: f64,
    /// Clock cycles to run (the roadmap's 10⁵-cycle bar).
    pub cycles: u64,
    /// Tokens each source offers.
    pub tokens_per_source: usize,
    /// Stall seed.
    pub seed: u64,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            rows: 8,
            cols: 8,
            compute_latency: 30,
            hop_distance: 6,
            relay_budget: 2,
            stall: 0.25,
            cycles: 100_000,
            tokens_per_source: 10_000,
            seed: 7,
        }
    }
}

/// Results of the stress run (wall-clock fields volatile, the rest
/// drift-checkable).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StressReport {
    /// Topology label.
    pub scale: String,
    /// Pearls simulated (gate-level SP shells).
    pub pearls: usize,
    /// Relay stations inserted.
    pub relay_stations: usize,
    /// Simulator components.
    pub components: usize,
    /// Signals in the arena.
    pub signals: usize,
    /// Pearl schedule period.
    pub schedule_period: usize,
    /// Cycles simulated.
    pub cycles: u64,
    /// Informative tokens delivered across all sinks (stable).
    pub received_total: u64,
    /// Order-sensitive stream checksum (stable).
    pub checksum: u64,
    /// Whether every sink stream matched the oracle exactly.
    pub token_exact: bool,
    /// Protocol violations (must be 0).
    pub violations: u64,
    /// Wall time (volatile).
    pub wall_ms: f64,
    /// Settle throughput (volatile).
    pub kcps: f64,
}

impl fmt::Display for StressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gate-level SP pearls, {} relays, {} cycles -> {} tokens, exact={}, {:.1} kcyc/s ({:.0} ms)",
            self.scale,
            self.pearls,
            self.relay_stations,
            self.cycles,
            self.received_total,
            self.token_exact,
            self.kcps,
            self.wall_ms,
        )
    }
}

/// The 10⁵-cycle long-schedule stress run: a mesh of gate-level
/// SP-compressed shells whose run counters cycle continuously, with the
/// latency budget inserting relay chains that absorb sustained
/// back-pressure (pearls consume one token per period, sources offer
/// continuously, so `stop` is asserted on the boundary links most of
/// the run).
pub fn stress_run(cfg: &StressConfig) -> StressReport {
    let shape = TopologyShape::Mesh {
        rows: cfg.rows,
        cols: cfg.cols,
    };
    let spec = TopologySpec {
        shape,
        compute_latency: cfg.compute_latency,
        hop_distance: cfg.hop_distance,
        relay_budget: cfg.relay_budget,
        wire_segments: 0,
        traffic: TrafficPattern::Bursty { stall: cfg.stall },
        model: NodeModel::GateLevel,
        variant: SyncVariant::SpCompressed,
        tokens_per_source: cfg.tokens_per_source,
        seed: cfg.seed,
    };
    let mut topo = TopologyBuilder::new(spec).build();
    let start = Instant::now();
    topo.soc.run(cfg.cycles).expect("stress simulation");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let token_exact = topo.token_exact();
    StressReport {
        scale: shape.to_string(),
        pearls: topo.stats.nodes,
        relay_stations: topo.stats.relay_stations,
        components: topo.stats.components,
        signals: topo.stats.signals,
        schedule_period: cfg.compute_latency + 2,
        cycles: cfg.cycles,
        received_total: topo.total_received(),
        checksum: topo.checksum(),
        token_exact,
        violations: topo.soc.violations(),
        wall_ms,
        kcps: cfg.cycles as f64 / 1e3 / (wall_ms / 1e3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_claim_holds_on_small_scales() {
        // A miniature sweep (tiny meshes, short sims) exercising the
        // whole pipeline; the full config runs in the bench binary.
        let cfg = AblationBenchConfig {
            scales: vec![
                ScalePoint {
                    side: 1,
                    compute_latency: 130,
                    sim_cycles: 300,
                },
                ScalePoint {
                    side: 2,
                    compute_latency: 200,
                    sim_cycles: 450,
                },
            ],
            ..AblationBenchConfig::default()
        };
        let rows = topology_ablation(&cfg, &TechParams::default()).unwrap();
        assert_eq!(rows.len(), 6);
        assert_e6_claim(&rows, 0.10);
    }

    #[test]
    fn stress_run_completes_token_exact_at_miniature_scale() {
        let cfg = StressConfig {
            rows: 2,
            cols: 2,
            compute_latency: 6,
            cycles: 2_000,
            tokens_per_source: 400,
            ..StressConfig::default()
        };
        let report = stress_run(&cfg);
        assert!(report.token_exact, "{report}");
        assert_eq!(report.violations, 0);
        assert!(report.received_total > 0);
        assert!(report.relay_stations > 0);
    }
}
