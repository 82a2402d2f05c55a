//! Instantiating a [`TopologySpec`] as a runnable latency-insensitive
//! SoC: pearls behind the selected synchronizer shells, links segmented
//! with relay stations from the latency budget, and seeded traffic
//! endpoints — all through [`lis_core::SocBuilder`]. The graph walk and
//! the node dispatch are written once over [`lis_core::Fabric`]; fleet
//! batches ([`crate::FleetTopologyBuilder`]) run the same walk on the
//! packed fabric.

use crate::fleet::FleetScenario;
use crate::oracle::{expected_sink_streams, stream_checksum};
use crate::topology::{
    source_token, Endpoint, NodeModel, SyncVariant, TopologyGraph, TopologySpec, CHANNEL_WIDTH,
};
use lis_core::{Fabric, IpHandle, Soc, SocBuilder};
use lis_proto::{AccumulatorPearl, Pearl};
use lis_schedule::uncompressed;
use lis_sim::SettleMode;
use lis_wrappers::{generate_sp, FsmEncoding, SpPolicy, SyncPolicy, WrapperKind};
use serde::{Deserialize, Serialize};

/// Structural census of a generated SoC (stable across machines and
/// settle engines — drift-checkable).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopoStats {
    /// Pearls instantiated.
    pub nodes: usize,
    /// Topology links.
    pub links: usize,
    /// Relay stations inserted by the latency budget.
    pub relay_stations: usize,
    /// Test-bench sources.
    pub sources: usize,
    /// Test-bench sinks.
    pub sinks: usize,
    /// Simulator components (shells + relays + wires + endpoints).
    pub components: usize,
    /// Signals in the arena.
    pub signals: usize,
}

/// A runnable SoC generated from a [`TopologySpec`], bundled with its
/// graph and the token-exactness oracle.
#[derive(Debug)]
pub struct GeneratedSoc {
    /// The simulatable system.
    pub soc: Soc,
    /// The flattened graph the SoC was built from.
    pub graph: TopologyGraph,
    /// The spec (kept for the oracle and diagnostics).
    pub spec: TopologySpec,
    /// Structural census.
    pub stats: TopoStats,
    sink_names: Vec<String>,
}

impl GeneratedSoc {
    /// The informative stream received so far at every sink, in sink
    /// index order.
    pub fn received(&self) -> Vec<Vec<u64>> {
        self.sink_names
            .iter()
            .map(|n| self.soc.received(n))
            .collect()
    }

    /// The streams every sink *must* observe (prefix-wise), computed by
    /// the dataflow oracle from the spec alone.
    pub fn expected(&self) -> Vec<Vec<u64>> {
        expected_sink_streams(&self.graph, self.spec.tokens_per_source)
    }

    /// Whether every sink's received stream is an exact prefix of the
    /// oracle's — the latency-insensitivity correctness criterion
    /// (content may never differ; only timing may).
    pub fn token_exact(&self) -> bool {
        self.received()
            .iter()
            .zip(self.expected())
            .all(|(got, want)| got.len() <= want.len() && got[..] == want[..got.len()])
    }

    /// Total informative tokens received across all sinks.
    pub fn total_received(&self) -> u64 {
        self.received().iter().map(|s| s.len() as u64).sum()
    }

    /// Order-sensitive checksum over all received streams.
    pub fn checksum(&self) -> u64 {
        stream_checksum(&self.received())
    }
}

/// Builds runnable SoCs from a [`TopologySpec`], with simulator knobs.
///
/// # Examples
///
/// ```
/// use lis_topo::{TopologyBuilder, TopologyShape, TopologySpec};
///
/// # fn main() -> Result<(), lis_sim::SimError> {
/// let spec = TopologySpec {
///     shape: TopologyShape::Mesh { rows: 2, cols: 2 },
///     compute_latency: 2,
///     hop_distance: 3,
///     relay_budget: 1, // every hop gets 2 relay stations
///     ..TopologySpec::default()
/// };
/// let mut topo = TopologyBuilder::new(spec).build();
/// assert_eq!(topo.stats.nodes, 4);
/// assert!(topo.stats.relay_stations > 0);
/// topo.soc.run(300)?;
/// // Whatever the latency assignment, the streams are token-exact.
/// assert!(topo.token_exact());
/// assert!(topo.total_received() > 0);
/// assert_eq!(topo.soc.violations(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    spec: TopologySpec,
    mode: SettleMode,
}

impl TopologyBuilder {
    /// Starts a builder for `spec`.
    pub fn new(spec: TopologySpec) -> Self {
        TopologyBuilder {
            spec,
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

    /// Does nothing: the simulation kernel is single-threaded.
    #[deprecated(note = "the simulation kernel is single-threaded; drop the call")]
    #[must_use]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Instantiates the SoC.
    ///
    /// # Panics
    ///
    /// Panics if the spec's shape parameters are degenerate (zero
    /// nodes), or if gate-level wrapper generation fails — both are
    /// construction bugs, not runtime conditions.
    pub fn build(&self) -> GeneratedSoc {
        let spec = &self.spec;
        let graph = spec.graph();
        graph.validate().expect("generated graph is valid");

        let mut b = SocBuilder::new();
        b.set_settle_mode(self.mode);
        let lane = FleetScenario {
            traffic: spec.traffic,
            seed: spec.seed,
        };
        let (sink_names, relay_stations) = build_graph(&mut b, spec, &graph, &[lane]);

        let mut soc = b.build();
        let stats = TopoStats {
            nodes: graph.nodes.len(),
            links: graph.links.len(),
            relay_stations,
            sources: graph.sources(),
            sinks: graph.sinks(),
            components: soc.system().component_count(),
            signals: soc.system().signal_count(),
        };
        // Seal the scheduler up front so callers can read stats before
        // the first settle.
        let _ = soc.system_mut().scheduler_stats();
        GeneratedSoc {
            soc,
            graph,
            spec: spec.clone(),
            stats,
            sink_names,
        }
    }
}

/// The one graph walk, shared by solo SoCs and fleet batches: assembles
/// `graph` on `b`, whose lane `k` draws its traffic and stall seeds from
/// `lanes[k]`. Returns the sink names in sink index order and the relay
/// stations the latency budget inserted per lane.
pub(crate) fn build_graph<F: Fabric>(
    b: &mut F,
    spec: &TopologySpec,
    graph: &TopologyGraph,
    lanes: &[FleetScenario],
) -> (Vec<String>, usize) {
    // 1. Every node becomes one accumulator pearl per lane behind the
    //    selected synchronizer shell.
    let handles: Vec<IpHandle<F::Channel>> = graph
        .nodes
        .iter()
        .map(|node| {
            let pearls = lanes
                .iter()
                .map(|_| {
                    Box::new(AccumulatorPearl::new(
                        node.name.clone(),
                        node.n_in,
                        node.n_out,
                        spec.compute_latency,
                    )) as Box<dyn Pearl>
                })
                .collect();
            add_node(b, &node.name, pearls, spec.model, spec.variant)
        })
        .collect();

    // 2. Every link becomes (optional zero-latency wire segments →) a
    //    relay chain sized by the latency budget.
    let mut relay_stations = 0;
    let mut sink_names = Vec::new();
    for (li, link) in graph.links.iter().enumerate() {
        let producer = match link.from {
            Endpoint::Source(k) => {
                let stage = b.channel(&format!("src{k}"), CHANNEL_WIDTH);
                b.feed(format!("source{k}"), &stage, |lane| {
                    let sc = &lanes[lane];
                    (
                        (0..spec.tokens_per_source)
                            .map(|i| source_token(k, i))
                            .collect(),
                        sc.traffic.source_pattern(k),
                        sc.seed.wrapping_add(1000 + k as u64),
                    )
                });
                stage
            }
            Endpoint::NodeOut(n, p) => handles[n].outputs[p].clone(),
            other => unreachable!("validated graph: {other:?} cannot produce"),
        };
        let consumer = match link.to {
            Endpoint::NodeIn(n, p) => handles[n].inputs[p].clone(),
            Endpoint::Sink(k) => {
                let stage = b.channel(&format!("snk{k}"), CHANNEL_WIDTH);
                let name = format!("sink{k}");
                b.capture(name.clone(), &stage, |lane| {
                    let sc = &lanes[lane];
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
    (sink_names, relay_stations)
}

/// The one node dispatch: instantiates one node's pearls (one per
/// lane) behind the (model, variant) shell.
fn add_node<F: Fabric>(
    b: &mut F,
    name: &str,
    pearls: Vec<Box<dyn Pearl>>,
    model: NodeModel,
    variant: SyncVariant,
) -> IpHandle<F::Channel> {
    let schedule = pearls[0].schedule().clone();
    match (model, variant) {
        (NodeModel::Behavioural, SyncVariant::SpCompressed) => {
            b.add_ip(name, pearls, WrapperKind::Sp)
        }
        (NodeModel::Behavioural, SyncVariant::SpUncompressed) => {
            let policies = pearls
                .iter()
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

/// [`TopologyBuilder::build`] with all defaults — the one-liner for
/// tests and examples.
pub fn build_soc(spec: &TopologySpec) -> GeneratedSoc {
    TopologyBuilder::new(spec.clone()).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{TopologyShape, TrafficPattern};

    fn quick_spec(shape: TopologyShape) -> TopologySpec {
        TopologySpec {
            shape,
            compute_latency: 1,
            tokens_per_source: 64,
            ..TopologySpec::default()
        }
    }

    #[test]
    fn chain_streams_running_sums_token_exactly() {
        let spec = quick_spec(TopologyShape::Chain { nodes: 3 });
        let mut topo = build_soc(&spec);
        topo.soc.run(200).unwrap();
        assert!(topo.total_received() > 0, "data must flow");
        assert!(topo.token_exact());
        assert_eq!(topo.soc.violations(), 0);
        // Chain of accumulators: sink 0 sees triple running sums of 1,3,5…
        let got = &topo.received()[0];
        let expected = &topo.expected()[0];
        assert_eq!(&expected[..got.len()], &got[..]);
    }

    #[test]
    fn all_shapes_and_variants_flow_and_stay_exact() {
        for shape in [
            TopologyShape::Chain { nodes: 2 },
            TopologyShape::Ring { nodes: 3 },
            TopologyShape::Star { leaves: 3 },
            TopologyShape::Mesh { rows: 2, cols: 2 },
        ] {
            for variant in SyncVariant::all() {
                let spec = TopologySpec {
                    variant,
                    traffic: TrafficPattern::Bursty { stall: 0.2 },
                    ..quick_spec(shape)
                };
                let mut topo = build_soc(&spec);
                topo.soc.run(400).unwrap();
                assert!(topo.total_received() > 0, "{shape}/{variant}: no data");
                assert!(topo.token_exact(), "{shape}/{variant}: stream corrupted");
                assert_eq!(topo.soc.violations(), 0, "{shape}/{variant}");
            }
        }
    }

    #[test]
    fn gate_level_matches_behavioural_streams() {
        let base = quick_spec(TopologyShape::Mesh { rows: 2, cols: 2 });
        let run = |model| {
            let spec = TopologySpec {
                model,
                ..base.clone()
            };
            let mut topo = build_soc(&spec);
            topo.soc.run(300).unwrap();
            assert_eq!(topo.soc.violations(), 0);
            topo.received()
        };
        let behavioural = run(NodeModel::Behavioural);
        let gate = run(NodeModel::GateLevel);
        // Latency equivalence: identical content, possibly different
        // progress — compare the common prefix of every sink.
        for (bhv, gl) in behavioural.iter().zip(&gate) {
            let n = bhv.len().min(gl.len());
            assert_eq!(&bhv[..n], &gl[..n]);
            assert!(n > 0, "both models must make progress");
        }
    }

    #[test]
    fn relay_latency_does_not_change_streams() {
        let base = quick_spec(TopologyShape::Ring { nodes: 4 });
        let reference = {
            let mut topo = build_soc(&base);
            topo.soc.run(500).unwrap();
            topo.received()
        };
        for (hop, budget) in [(3u32, 1u32), (8, 2)] {
            let spec = TopologySpec {
                hop_distance: hop,
                relay_budget: budget,
                ..base.clone()
            };
            let mut topo = build_soc(&spec);
            assert!(topo.stats.relay_stations > 0);
            topo.soc.run(500).unwrap();
            for (a, b) in reference.iter().zip(topo.received()) {
                let n = a.len().min(b.len());
                assert_eq!(&a[..n], &b[..n], "latency must never change content");
            }
            assert_eq!(topo.soc.violations(), 0);
        }
    }
}
