//! Scenario fleets over generated topologies, and the fleet bench.
//!
//! A topology fleet runs N independent *scenarios* — per-lane traffic
//! regimes and stall seeds — of one shared [`TopologySpec`] shape. The
//! graph walk mirrors [`crate::TopologyBuilder`] exactly, but through
//! [`lis_core::FleetBuilder`]: gate-level shells are instantiated once
//! per node as a packed 64-lane netlist, and endpoints, relay stations
//! and wires are packed too — every lane of a channel rides the same
//! bit-plane signals, one bitwise op per component for the whole
//! batch. Lane `k` of the fleet is
//! bit-identical (streams, checksums, violations) to a solo
//! [`crate::build_soc`] run of that lane's [`FleetScenario::solo_spec`].
//!
//! The **fleet bench** ([`fleet_bench`]) drives the point home on the
//! 8×8 gate-level stress mesh: 64 scenarios lane-batched through one
//! instruction stream versus the same 64 scenarios run solo and
//! sequentially. The headline bar (`fleet --check`) is *aggregate
//! scenario throughput* — scenario-cycles simulated per wall second —
//! with every fleet lane asserted bit-identical to its solo twin.

use crate::build::TopologyBuilder;
use crate::oracle::{expected_sink_streams, stream_checksum};
use crate::topology::{
    source_token, Endpoint, NodeModel, SyncVariant, TopologyGraph, TopologyShape, TopologySpec,
    TrafficPattern, CHANNEL_WIDTH,
};
use lis_core::experiment::median;
use lis_core::{FleetBuilder, FleetIpHandle, SocFleet};
use lis_proto::{AccumulatorPearl, PackedLisChannel, Pearl};
use lis_schedule::uncompressed;
use lis_sim::{SettleMode, SimError, WorkStealingPool, LANES};
use lis_wrappers::{generate_sp, FsmEncoding, SpPolicy, SyncPolicy, WrapperKind};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// One scenario lane of a topology fleet: the traffic regime and stall
/// seed that make the lane's run unique. Shape, latencies, wrapper
/// model and synchronizer variant are shared by the whole fleet — they
/// are what makes lane-batching through one instruction stream legal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Endpoint irregularity of this lane.
    pub traffic: TrafficPattern,
    /// Stall-injection seed of this lane (sources draw from
    /// `seed + 1000 + k`, sinks from `seed + 2000 + k`, exactly as the
    /// solo builder does).
    pub seed: u64,
}

impl FleetScenario {
    /// The [`TopologySpec`] of this lane's solo twin: `base` with the
    /// lane's traffic and seed substituted.
    pub fn solo_spec(&self, base: &TopologySpec) -> TopologySpec {
        TopologySpec {
            traffic: self.traffic,
            seed: self.seed,
            ..base.clone()
        }
    }
}

/// Structural census of a generated fleet (stable across machines and
/// pool widths — drift-checkable).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Scenario lanes across all batches.
    pub lanes: usize,
    /// Lane batches (`ceil(lanes / 64)`).
    pub batches: usize,
    /// Pearls per scenario (shared shells in the packed model).
    pub nodes: usize,
    /// Topology links per scenario.
    pub links: usize,
    /// Relay stations the latency budget inserts *per lane*.
    pub relay_stations_per_lane: usize,
    /// Test-bench sources per lane.
    pub sources: usize,
    /// Test-bench sinks per lane.
    pub sinks: usize,
    /// Simulator components across all batches (shared packed shells
    /// plus per-lane endpoints, relays and wires).
    pub components: usize,
    /// Signals in the arenas across all batches.
    pub signals: usize,
}

/// A runnable scenario fleet generated from a [`TopologySpec`] and a
/// scenario list, bundled with its graph and the per-lane oracle.
#[derive(Debug)]
pub struct GeneratedFleet {
    /// The lane-batched fleet.
    pub fleet: SocFleet,
    /// The flattened graph every lane was built from.
    pub graph: TopologyGraph,
    /// The shared base spec (per-lane traffic/seed live in `scenarios`).
    pub spec: TopologySpec,
    /// One scenario per lane, in lane order.
    pub scenarios: Vec<FleetScenario>,
    /// Structural census.
    pub stats: FleetStats,
    sink_names: Vec<String>,
}

impl GeneratedFleet {
    /// Runs every batch for `cycles`, fanning batches across `pool`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (combinational-loop detection).
    pub fn run(&mut self, cycles: u64, pool: &WorkStealingPool) -> Result<(), SimError> {
        self.fleet.run(cycles, pool)
    }

    /// The informative stream lane `lane` received so far at every
    /// sink, in sink index order.
    pub fn lane_received(&self, lane: usize) -> Vec<Vec<u64>> {
        self.sink_names
            .iter()
            .map(|n| self.fleet.received(n, lane))
            .collect()
    }

    /// The streams every sink must observe — shared by all lanes:
    /// token *content* is a function of the dataflow alone, and the
    /// lanes differ only in stall timing.
    pub fn expected(&self) -> Vec<Vec<u64>> {
        expected_sink_streams(&self.graph, self.spec.tokens_per_source)
    }

    /// Whether lane `lane`'s received streams are exact prefixes of the
    /// oracle's.
    pub fn lane_token_exact(&self, lane: usize) -> bool {
        self.lane_matches(lane, &self.expected())
    }

    /// Whether *every* lane is token-exact. The oracle is derived once
    /// and shared by every lane's comparison.
    pub fn token_exact(&self) -> bool {
        let want = self.expected();
        (0..self.scenarios.len()).all(|lane| self.lane_matches(lane, &want))
    }

    /// Whether lane `lane`'s received streams are exact prefixes of
    /// `want`, the oracle's streams in sink index order.
    fn lane_matches(&self, lane: usize, want: &[Vec<u64>]) -> bool {
        self.lane_received(lane)
            .iter()
            .zip(want)
            .all(|(got, want)| got.len() <= want.len() && got[..] == want[..got.len()])
    }

    /// Order-sensitive checksum over lane `lane`'s received streams.
    pub fn lane_checksum(&self, lane: usize) -> u64 {
        stream_checksum(&self.lane_received(lane))
    }

    /// Informative tokens lane `lane` received across all sinks.
    pub fn lane_total(&self, lane: usize) -> u64 {
        self.lane_received(lane)
            .iter()
            .map(|s| s.len() as u64)
            .sum()
    }

    /// Informative tokens received across all lanes and sinks.
    pub fn total_received(&self) -> u64 {
        (0..self.scenarios.len())
            .map(|lane| self.lane_total(lane))
            .sum()
    }

    /// Protocol violations lane `lane` observed.
    pub fn lane_violations(&self, lane: usize) -> u64 {
        self.fleet.violations(lane)
    }
}

/// Builds runnable scenario fleets from a [`TopologySpec`] plus one
/// [`FleetScenario`] per lane, chunking lanes into batches of up to 64.
///
/// # Examples
///
/// ```
/// use lis_topo::{FleetScenario, FleetTopologyBuilder, TopologySpec, TrafficPattern};
/// use lis_sim::WorkStealingPool;
///
/// # fn main() -> Result<(), lis_sim::SimError> {
/// let spec = TopologySpec {
///     compute_latency: 1,
///     tokens_per_source: 50,
///     ..TopologySpec::default()
/// };
/// let scenarios = (0..4)
///     .map(|lane| FleetScenario {
///         traffic: TrafficPattern::Bursty { stall: 0.1 * lane as f64 },
///         seed: 40 + lane,
///     })
///     .collect();
/// let mut fleet = FleetTopologyBuilder::new(spec, scenarios).build();
/// fleet.run(400, &WorkStealingPool::new(1))?;
/// // Every lane stays token-exact, whatever its stall schedule.
/// assert!(fleet.token_exact());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FleetTopologyBuilder {
    spec: TopologySpec,
    scenarios: Vec<FleetScenario>,
    mode: SettleMode,
}

impl FleetTopologyBuilder {
    /// Starts a builder for `spec` with one scenario per lane.
    ///
    /// # Panics
    ///
    /// Panics if `scenarios` is empty.
    pub fn new(spec: TopologySpec, scenarios: Vec<FleetScenario>) -> Self {
        assert!(!scenarios.is_empty(), "a fleet needs at least one lane");
        FleetTopologyBuilder {
            spec,
            scenarios,
            mode: SettleMode::default(),
        }
    }

    /// Selects the settle engine (default: the activity kernel,
    /// [`SettleMode::FastForward`]).
    #[must_use]
    pub fn settle_mode(mut self, mode: SettleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Does nothing: each batch runs single-threaded, and parallelism
    /// comes from fanning whole batches across the pool
    /// ([`GeneratedFleet::run`]).
    #[deprecated(note = "batches run single-threaded; drop the call")]
    #[must_use]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Instantiates the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the spec's shape parameters are degenerate or wrapper
    /// generation fails — construction bugs, not runtime conditions.
    pub fn build(&self) -> GeneratedFleet {
        let spec = &self.spec;
        let graph = spec.graph();
        graph.validate().expect("generated graph is valid");

        let mut batches = Vec::new();
        let mut sink_names = Vec::new();
        let mut relay_stations = 0;
        let mut components = 0;
        let mut signals = 0;
        for chunk in self.scenarios.chunks(LANES) {
            let (batch, names, relays) = build_batch(spec, &graph, chunk, self.mode);
            components += batch.system().component_count();
            signals += batch.system().signal_count();
            relay_stations = relays;
            sink_names = names;
            batches.push(batch);
        }
        let fleet = SocFleet::new(batches);
        let stats = FleetStats {
            lanes: self.scenarios.len(),
            batches: fleet.batch_count(),
            nodes: graph.nodes.len(),
            links: graph.links.len(),
            relay_stations_per_lane: relay_stations,
            sources: graph.sources(),
            sinks: graph.sinks(),
            components,
            signals,
        };
        GeneratedFleet {
            fleet,
            graph,
            spec: spec.clone(),
            scenarios: self.scenarios.clone(),
            stats,
            sink_names,
        }
    }
}

/// One lane batch: the [`crate::TopologyBuilder::build`] graph walk,
/// with a lane dimension threaded through every operation.
fn build_batch(
    spec: &TopologySpec,
    graph: &TopologyGraph,
    chunk: &[FleetScenario],
    mode: SettleMode,
) -> (lis_core::FleetBatch, Vec<String>, usize) {
    let mut b = FleetBuilder::new(chunk.len());
    b.set_settle_mode(mode);

    // 1. Every node becomes one accumulator pearl *per lane* behind the
    //    selected synchronizer shell (packed when gate-level).
    let handles: Vec<FleetIpHandle> = graph
        .nodes
        .iter()
        .map(|node| {
            let pearls: Vec<Box<dyn Pearl>> = (0..chunk.len())
                .map(|_| {
                    Box::new(AccumulatorPearl::new(
                        node.name.clone(),
                        node.n_in,
                        node.n_out,
                        spec.compute_latency,
                    )) as Box<dyn Pearl>
                })
                .collect();
            add_fleet_node(&mut b, &node.name, pearls, spec.model, spec.variant)
        })
        .collect();

    // 2. Every link becomes (optional zero-latency wire segments →) a
    //    relay chain per lane, sized by the shared latency budget.
    let mut relay_stations = 0;
    let mut sink_names = Vec::new();
    for (li, link) in graph.links.iter().enumerate() {
        let producer: PackedLisChannel = match link.from {
            Endpoint::Source(k) => {
                let stage = b.channel(&format!("src{k}"), CHANNEL_WIDTH);
                let tokens: Vec<u64> = (0..spec.tokens_per_source)
                    .map(|i| source_token(k, i))
                    .collect();
                b.feed(format!("source{k}"), &stage, |lane| {
                    let sc = &chunk[lane];
                    (
                        tokens.clone(),
                        sc.traffic.source_pattern(k),
                        sc.seed.wrapping_add(1000 + k as u64),
                    )
                });
                stage
            }
            Endpoint::NodeOut(n, p) => handles[n].outputs[p].clone(),
            other => unreachable!("validated graph: {other:?} cannot produce"),
        };
        let consumer: PackedLisChannel = match link.to {
            Endpoint::NodeIn(n, p) => handles[n].inputs[p].clone(),
            Endpoint::Sink(k) => {
                let stage = b.channel(&format!("snk{k}"), CHANNEL_WIDTH);
                let name = format!("sink{k}");
                b.capture(name.clone(), &stage, |lane| {
                    let sc = &chunk[lane];
                    (
                        sc.traffic.sink_pattern(k),
                        sc.seed.wrapping_add(2000 + k as u64),
                    )
                });
                if sink_names.len() <= k {
                    sink_names.resize(k + 1, String::new());
                }
                sink_names[k] = name;
                stage
            }
            other => unreachable!("validated graph: {other:?} cannot consume"),
        };
        let mut cur = producer;
        for s in 0..spec.wire_segments {
            let next = b.channel(&format!("w{li}_{s}"), CHANNEL_WIDTH);
            b.link(&cur, &next, 0);
            cur = next;
        }
        let relays = spec.relays_for(link.distance);
        relay_stations += relays;
        b.link(&cur, &consumer, relays);
    }
    (b.build(), sink_names, relay_stations)
}

/// Instantiates one node's per-lane pearls behind the (model, variant)
/// shell — the fleet analogue of the solo builder's node dispatch.
fn add_fleet_node(
    b: &mut FleetBuilder,
    name: &str,
    pearls: Vec<Box<dyn Pearl>>,
    model: NodeModel,
    variant: SyncVariant,
) -> FleetIpHandle {
    let schedule = pearls[0].schedule().clone();
    match (model, variant) {
        (NodeModel::Behavioural, SyncVariant::SpCompressed) => {
            b.add_ip(name, pearls, WrapperKind::Sp)
        }
        (NodeModel::Behavioural, SyncVariant::SpUncompressed) => {
            let policies: Vec<Box<dyn SyncPolicy>> = (0..pearls.len())
                .map(|_| Box::new(SpPolicy::new(uncompressed(&schedule))) as Box<dyn SyncPolicy>)
                .collect();
            b.add_ip_with_policies(name, pearls, policies)
        }
        (NodeModel::Behavioural, SyncVariant::Fsm) => {
            b.add_ip(name, pearls, WrapperKind::Fsm(FsmEncoding::OneHot))
        }
        (NodeModel::GateLevel, SyncVariant::SpCompressed) => {
            b.add_ip_full_netlist(name, pearls, WrapperKind::Sp)
        }
        (NodeModel::GateLevel, SyncVariant::SpUncompressed) => {
            let controller = generate_sp(&uncompressed(&schedule))
                .expect("uncompressed SP controller generation");
            b.add_ip_full_netlist_with_controller(name, pearls, controller)
        }
        (NodeModel::GateLevel, SyncVariant::Fsm) => {
            b.add_ip_full_netlist(name, pearls, WrapperKind::Fsm(FsmEncoding::OneHot))
        }
    }
}

/// [`FleetTopologyBuilder::build`] with all defaults — the one-liner
/// for tests and examples.
pub fn build_fleet(spec: &TopologySpec, scenarios: Vec<FleetScenario>) -> GeneratedFleet {
    FleetTopologyBuilder::new(spec.clone(), scenarios).build()
}

/// Configuration of the fleet bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetBenchConfig {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Compute-only cycles per pearl period.
    pub compute_latency: usize,
    /// Physical hop length (relay insertion, as in the E6 stress run).
    pub hop_distance: u32,
    /// Latency budget (units one clock may span).
    pub relay_budget: u32,
    /// Scenario lanes (≤ 64 fits one packed batch).
    pub lanes: usize,
    /// Cycles per scenario. Kept modest: the solo row pays this wall
    /// clock `lanes` times over.
    pub cycles: u64,
    /// Tokens each source offers (ample; sources must never dry up).
    pub tokens_per_source: usize,
    /// Base stall seed; lane seeds are derived deterministically.
    pub base_seed: u64,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        FleetBenchConfig {
            rows: 8,
            cols: 8,
            compute_latency: 2,
            hop_distance: 6,
            relay_budget: 2,
            lanes: 64,
            cycles: 400,
            tokens_per_source: 10_000,
            base_seed: 11,
        }
    }
}

impl FleetBenchConfig {
    /// The shared base spec of the bench fleet (gate-level SP mesh; the
    /// traffic/seed fields are per-lane and substituted per scenario).
    pub fn base_spec(&self) -> TopologySpec {
        TopologySpec {
            shape: TopologyShape::Mesh {
                rows: self.rows,
                cols: self.cols,
            },
            compute_latency: self.compute_latency,
            hop_distance: self.hop_distance,
            relay_budget: self.relay_budget,
            wire_segments: 0,
            traffic: TrafficPattern::Streaming,
            model: NodeModel::GateLevel,
            variant: SyncVariant::SpCompressed,
            tokens_per_source: self.tokens_per_source,
            seed: self.base_seed,
        }
    }
}

/// The deterministic scenario of bench lane `lane`: the four traffic
/// regimes cycle across lanes with a lane-dependent stall probability,
/// and every lane draws a distinct seed.
pub fn fleet_scenario(base_seed: u64, lane: usize) -> FleetScenario {
    let stall = 0.15 + 0.15 * ((lane / 4) % 4) as f64;
    let traffic = match lane % 4 {
        0 => TrafficPattern::Streaming,
        1 => TrafficPattern::Bursty { stall },
        2 => TrafficPattern::Hotspot { stall },
        _ => TrafficPattern::BackPressured {
            stall: 0.5 + stall / 2.0,
        },
    };
    FleetScenario {
        traffic,
        seed: base_seed.wrapping_add(7919 * lane as u64),
    }
}

/// One measured side of the fleet bench: either the sequential solo
/// runs or the lane-batched fleet, aggregated over all scenarios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetRow {
    /// Row label.
    pub label: String,
    /// Scenarios simulated.
    pub scenarios: usize,
    /// Cycles simulated per scenario.
    pub cycles: u64,
    /// Informative tokens delivered across all scenarios and sinks
    /// (stable).
    pub tokens: u64,
    /// Order-sensitive checksum over every scenario's streams, in lane
    /// then sink order (stable; must match between the two rows).
    pub checksum: u64,
    /// Whether every scenario stayed oracle-exact.
    pub stream_exact: bool,
    /// Wall time (volatile; excluded from drift checks).
    pub wall_ms: f64,
    /// Aggregate scenario throughput: scenario-cycles simulated per
    /// wall second, in thousands (volatile).
    pub scenario_kcps: f64,
}

impl fmt::Display for FleetRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:28} {:3} scenarios x {:6} cycles: {:8.1} scenario-kcyc/s ({:8.1} ms), \
             {:6} tok, exact={}, checksum {:#018x}",
            self.label,
            self.scenarios,
            self.cycles,
            self.scenario_kcps,
            self.wall_ms,
            self.tokens,
            self.stream_exact,
            self.checksum,
        )
    }
}

/// The full fleet-bench report: solo and fleet rows, the structural
/// census, and the per-lane bit-identity verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// The configuration measured.
    pub config: FleetBenchConfig,
    /// Structural census of the fleet build.
    pub stats: FleetStats,
    /// The `lanes` solo twins, run sequentially.
    pub solo: FleetRow,
    /// The lane-batched fleet.
    pub fleet: FleetRow,
    /// Whether every fleet lane's streams *and* violation count matched
    /// its solo twin exactly (stable; the correctness bar).
    pub lanes_bit_identical: bool,
    /// Fleet vs solo aggregate scenario throughput (volatile; the
    /// `--check` bar).
    pub speedup_scenario_throughput: f64,
}

/// Timed rounds of the fleet bench; each side reports its median.
pub const FLEET_BENCH_REPS: usize = 5;

/// Runs the fleet bench [`FLEET_BENCH_REPS`] times: every scenario
/// solo and sequentially, then the same scenarios lane-batched,
/// comparing streams lane by lane. The two sides alternate within every
/// round, so drift on a shared host hits them alike; each row reports
/// its median wall time, and the speedup is the ratio of the two
/// medians. Every round must repeat the first one's streams exactly.
///
/// # Panics
///
/// Panics if a round's stable fields differ from the first round's.
pub fn fleet_bench(cfg: &FleetBenchConfig, threads: usize) -> FleetReport {
    let base = cfg.base_spec();
    let scenarios: Vec<FleetScenario> = (0..cfg.lanes)
        .map(|lane| fleet_scenario(cfg.base_seed, lane))
        .collect();
    let pool = WorkStealingPool::new(threads);
    let stable = |r: &FleetReport| {
        (
            (r.solo.tokens, r.solo.checksum, r.solo.stream_exact),
            (r.fleet.tokens, r.fleet.checksum, r.fleet.stream_exact),
            r.lanes_bit_identical,
        )
    };
    let mut first: Option<FleetReport> = None;
    let (mut solo_walls, mut fleet_walls) = (Vec::new(), Vec::new());
    for _ in 0..FLEET_BENCH_REPS {
        let round = fleet_round(cfg, &base, &scenarios, &pool);
        solo_walls.push(round.solo.wall_ms);
        fleet_walls.push(round.fleet.wall_ms);
        match &first {
            None => first = Some(round),
            Some(first) => assert_eq!(
                stable(first),
                stable(&round),
                "every fleet bench round must repeat the first exactly"
            ),
        }
    }
    let mut report = first.expect("at least one round");
    for (row, walls) in [
        (&mut report.solo, solo_walls),
        (&mut report.fleet, fleet_walls),
    ] {
        row.wall_ms = median(walls);
        row.scenario_kcps = (cfg.lanes as u64 * cfg.cycles) as f64 / row.wall_ms;
    }
    report.speedup_scenario_throughput = report.fleet.scenario_kcps / report.solo.scenario_kcps;
    report
}

/// One fleet-bench round: the solo pass, then the fleet pass.
fn fleet_round(
    cfg: &FleetBenchConfig,
    base: &TopologySpec,
    scenarios: &[FleetScenario],
    pool: &WorkStealingPool,
) -> FleetReport {
    // Solo pass: one SoC per scenario, run back to back. Build time is
    // excluded on both sides; the rows time simulation only.
    let mut solo_streams = Vec::with_capacity(cfg.lanes);
    let mut solo_violations = Vec::with_capacity(cfg.lanes);
    let mut solo_wall_ms = 0.0;
    let mut solo_exact = true;
    for sc in scenarios {
        let mut topo = TopologyBuilder::new(sc.solo_spec(base)).build();
        let start = Instant::now();
        topo.soc.run(cfg.cycles).expect("fleet bench solo run");
        solo_wall_ms += start.elapsed().as_secs_f64() * 1e3;
        solo_exact &= topo.token_exact();
        solo_violations.push(topo.soc.violations());
        solo_streams.push(topo.received());
    }
    let all_solo: Vec<Vec<u64>> = solo_streams.iter().flatten().cloned().collect();
    let solo = FleetRow {
        label: format!("solo x{} (sequential)", cfg.lanes),
        scenarios: cfg.lanes,
        cycles: cfg.cycles,
        tokens: all_solo.iter().map(|s| s.len() as u64).sum(),
        checksum: stream_checksum(&all_solo),
        stream_exact: solo_exact,
        wall_ms: solo_wall_ms,
        scenario_kcps: (cfg.lanes as u64 * cfg.cycles) as f64 / solo_wall_ms,
    };

    // Fleet pass: the same scenarios through shared packed shells.
    let mut fleet = FleetTopologyBuilder::new(base.clone(), scenarios.to_vec()).build();
    let start = Instant::now();
    fleet.run(cfg.cycles, pool).expect("fleet bench fleet run");
    let fleet_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut lanes_bit_identical = true;
    let mut all_fleet = Vec::with_capacity(all_solo.len());
    for lane in 0..cfg.lanes {
        let got = fleet.lane_received(lane);
        lanes_bit_identical &=
            got == solo_streams[lane] && fleet.lane_violations(lane) == solo_violations[lane];
        all_fleet.extend(got);
    }
    let fleet_row = FleetRow {
        label: format!("fleet ({} lanes packed)", cfg.lanes),
        scenarios: cfg.lanes,
        cycles: cfg.cycles,
        tokens: all_fleet.iter().map(|s| s.len() as u64).sum(),
        checksum: stream_checksum(&all_fleet),
        stream_exact: fleet.token_exact(),
        wall_ms: fleet_wall_ms,
        scenario_kcps: (cfg.lanes as u64 * cfg.cycles) as f64 / fleet_wall_ms,
    };
    let speedup = fleet_row.scenario_kcps / solo.scenario_kcps;
    FleetReport {
        config: cfg.clone(),
        stats: fleet.stats.clone(),
        solo,
        fleet: fleet_row,
        lanes_bit_identical,
        speedup_scenario_throughput: speedup,
    }
}

/// Asserts the fleet-bench correctness claim: both rows oracle-exact,
/// identical aggregate token counts and checksums, and every lane
/// bit-identical to its solo twin.
///
/// # Panics
///
/// Panics naming the diverging quantity — the bench's acceptance gate,
/// kept loud on purpose.
pub fn assert_fleet_lanes(report: &FleetReport) {
    assert!(report.solo.stream_exact, "solo runs corrupted a stream");
    assert!(report.fleet.stream_exact, "fleet lanes corrupted a stream");
    assert!(
        report.lanes_bit_identical,
        "some fleet lane diverged from its solo twin"
    );
    assert_eq!(
        report.solo.tokens, report.fleet.tokens,
        "fleet and solo token counts diverged"
    );
    assert_eq!(
        report.solo.checksum, report.fleet.checksum,
        "fleet and solo checksums diverged"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_soc;

    /// A miniature fleet bench exercising the whole pipeline: every
    /// lane bit-identical to its solo twin, both rows oracle-exact.
    #[test]
    fn miniature_fleet_bench_is_lane_identical() {
        let cfg = FleetBenchConfig {
            rows: 2,
            cols: 2,
            lanes: 6,
            cycles: 250,
            tokens_per_source: 2_000,
            ..FleetBenchConfig::default()
        };
        let report = fleet_bench(&cfg, 2);
        assert_fleet_lanes(&report);
        assert_eq!(report.stats.lanes, 6);
        assert_eq!(report.stats.batches, 1);
        assert_eq!(report.stats.nodes, 4);
        assert!(report.stats.relay_stations_per_lane > 0);
        assert!(report.solo.tokens > 0, "data must flow");
    }

    /// The fleet graph walk must hold beyond meshes and beyond the
    /// gate-level model: behavioural ring lanes match their solo twins.
    #[test]
    fn behavioural_ring_fleet_lanes_match_solo() {
        let spec = TopologySpec {
            shape: TopologyShape::Ring { nodes: 3 },
            compute_latency: 1,
            model: NodeModel::Behavioural,
            tokens_per_source: 100,
            ..TopologySpec::default()
        };
        let scenarios: Vec<FleetScenario> = (0..4).map(|lane| fleet_scenario(77, lane)).collect();
        let mut fleet = build_fleet(&spec, scenarios.clone());
        let pool = WorkStealingPool::new(1);
        fleet.run(500, &pool).unwrap();
        for (lane, sc) in scenarios.iter().enumerate() {
            let mut solo = build_soc(&sc.solo_spec(&spec));
            solo.soc.run(500).unwrap();
            assert_eq!(fleet.lane_received(lane), solo.received(), "lane {lane}");
            assert_eq!(
                fleet.lane_violations(lane),
                solo.soc.violations(),
                "lane {lane}"
            );
            assert!(fleet.lane_token_exact(lane), "lane {lane}");
        }
    }

    /// Every synchronizer variant builds and stays exact under the
    /// fleet walk, behavioural and gate-level alike.
    #[test]
    fn all_variants_build_fleets_and_stay_exact() {
        for model in [NodeModel::Behavioural, NodeModel::GateLevel] {
            for variant in SyncVariant::all() {
                let spec = TopologySpec {
                    shape: TopologyShape::Chain { nodes: 2 },
                    compute_latency: 1,
                    model,
                    variant,
                    tokens_per_source: 50,
                    ..TopologySpec::default()
                };
                let scenarios = vec![
                    FleetScenario {
                        traffic: TrafficPattern::Streaming,
                        seed: 5,
                    },
                    FleetScenario {
                        traffic: TrafficPattern::Bursty { stall: 0.3 },
                        seed: 6,
                    },
                ];
                let mut fleet = build_fleet(&spec, scenarios);
                fleet.run(300, &WorkStealingPool::new(1)).unwrap();
                assert!(fleet.token_exact(), "{model:?}/{variant}");
                assert!(fleet.total_received() > 0, "{model:?}/{variant}: no data");
            }
        }
    }
}
