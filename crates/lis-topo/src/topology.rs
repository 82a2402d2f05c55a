//! Topology specification: shapes, link-latency model, traffic
//! patterns, and the flattened node/link graph every other module
//! (builder, oracle, bench) consumes.
//!
//! A [`TopologySpec`] is a *description*, cheap to clone and hash-free
//! to rebuild: the same spec always flattens to the same
//! [`TopologyGraph`], instantiates the same simulator components, and
//! feeds the same token streams — which is what makes the determinism
//! property tests and the drift-checked E6 baseline possible.

use lis_proto::StallPattern;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The macro shape of a generated NoC-style SoC.
///
/// Every shape flattens to a directed acyclic dataflow over homogeneous
/// accumulator pearls (see [`TopologyGraph`]); relay stations make the
/// long links latency-legal, so the *informative streams* are identical
/// for any latency assignment — the latency-insensitivity invariant the
/// generator exists to stress at scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyShape {
    /// A linear pipeline of `nodes` 1-in/1-out pearls.
    Chain {
        /// Pipeline depth (>= 1).
        nodes: usize,
    },
    /// `nodes` pearls on a unidirectional ring bus: traffic enters at
    /// pearl 0, circumnavigates the whole ring, and drains into a wrap
    /// sink back at the injection point; every pearl additionally taps
    /// the passing stream into its own local sink (1-in/2-out pearls,
    /// `nodes + 1` sinks).
    Ring {
        /// Ring circumference (>= 1).
        nodes: usize,
    },
    /// `leaves` 1-in/1-out pearls, each feeding one input port of a
    /// central hub pearl (`leaves`-in/1-out) — the hotspot shape.
    Star {
        /// Leaf count (>= 1).
        leaves: usize,
    },
    /// A `rows` × `cols` systolic mesh: every pearl is 2-in/2-out
    /// (north/west in, south/east out); boundary inputs are fed by
    /// sources, boundary outputs drain into sinks.
    Mesh {
        /// Mesh rows (>= 1).
        rows: usize,
        /// Mesh columns (>= 1).
        cols: usize,
    },
}

impl TopologyShape {
    /// Number of pearls this shape instantiates.
    pub fn nodes(&self) -> usize {
        match *self {
            TopologyShape::Chain { nodes } | TopologyShape::Ring { nodes } => nodes,
            TopologyShape::Star { leaves } => leaves + 1,
            TopologyShape::Mesh { rows, cols } => rows * cols,
        }
    }
}

impl fmt::Display for TopologyShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyShape::Chain { nodes } => write!(f, "chain-{nodes}"),
            TopologyShape::Ring { nodes } => write!(f, "ring-{nodes}"),
            TopologyShape::Star { leaves } => write!(f, "star-{leaves}"),
            TopologyShape::Mesh { rows, cols } => write!(f, "mesh-{rows}x{cols}"),
        }
    }
}

/// How the test-bench endpoints inject irregularity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Sources and sinks never stall: peak sustained load.
    Streaming,
    /// Every source and sink independently stalls with the given
    /// probability (seeded, deterministic) — the irregular-stream regime
    /// the LIS protocol must absorb.
    Bursty {
        /// Per-cycle stall probability in `[0, 1]`.
        stall: f64,
    },
    /// Sources stream, but sink 0 refuses tokens with the given
    /// probability: localized congestion whose back-pressure must ripple
    /// through the relay fabric without corrupting any stream.
    Hotspot {
        /// Per-cycle stall probability of the hotspot sink.
        stall: f64,
    },
    /// Sources stream but *every* sink refuses tokens with the given
    /// (high) probability: the whole fabric saturates, `stop` stays
    /// asserted on most links, and pearls block at their write sync
    /// points — the stalled-mesh regime where an activity-driven kernel
    /// should be simulating almost nothing per cycle.
    BackPressured {
        /// Per-cycle stall probability of every sink.
        stall: f64,
    },
    /// Sources stream but every sink runs a deterministic duty cycle:
    /// accepting for `on` cycles out of each `period`, stalled for the
    /// rest, all in lockstep. Unlike [`TrafficPattern::BackPressured`]
    /// the stall spans are *scheduled*, so the endpoints declare their
    /// wake-up times and the fast-forward kernel can jump the clock
    /// over the dead spans instead of visiting them.
    PeriodicBackPressured {
        /// Accepting cycles at the start of each period.
        on: u64,
        /// Total cycles per period.
        period: u64,
    },
}

impl TrafficPattern {
    /// Stall pattern of source `_idx` under this traffic regime.
    pub fn source_pattern(&self, _idx: usize) -> StallPattern {
        match *self {
            TrafficPattern::Streaming
            | TrafficPattern::Hotspot { .. }
            | TrafficPattern::BackPressured { .. }
            | TrafficPattern::PeriodicBackPressured { .. } => StallPattern::None,
            TrafficPattern::Bursty { stall } => StallPattern::from(stall),
        }
    }

    /// Stall pattern of sink `idx` under this traffic regime.
    pub fn sink_pattern(&self, idx: usize) -> StallPattern {
        match *self {
            TrafficPattern::Streaming => StallPattern::None,
            TrafficPattern::Bursty { stall } | TrafficPattern::BackPressured { stall } => {
                StallPattern::from(stall)
            }
            TrafficPattern::Hotspot { stall } => {
                if idx == 0 {
                    StallPattern::from(stall)
                } else {
                    StallPattern::None
                }
            }
            TrafficPattern::PeriodicBackPressured { on, period } => StallPattern::Periodic {
                on,
                period,
                phase: 0,
            },
        }
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrafficPattern::Streaming => write!(f, "streaming"),
            TrafficPattern::Bursty { stall } => write!(f, "bursty({stall:.2})"),
            TrafficPattern::Hotspot { stall } => write!(f, "hotspot({stall:.2})"),
            TrafficPattern::BackPressured { stall } => write!(f, "backpressured({stall:.2})"),
            TrafficPattern::PeriodicBackPressured { on, period } => {
                write!(f, "periodic-bp({on}/{period})")
            }
        }
    }
}

/// Fidelity of the wrapper shells the builder instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeModel {
    /// Behavioural wrapper (policy-level) — fast, for property sweeps.
    Behavioural,
    /// Complete gate-level shell (controller netlist plus port FIFOs,
    /// the paper's Figure 2) driven through the activity kernel.
    GateLevel,
}

/// Which synchronizer controls each pearl — the E6 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncVariant {
    /// The paper's synchronization processor with run-counter ROM
    /// compression ([`lis_schedule::compress`]).
    SpCompressed,
    /// The same processor datapath executing a verbatim program — one
    /// ROM word per schedule cycle ([`lis_schedule::uncompressed`]).
    SpUncompressed,
    /// A per-pearl one-hot FSM synchronizer (one state per schedule
    /// cycle), the growing-cost baseline.
    Fsm,
}

impl SyncVariant {
    /// All ablation variants, in report order.
    pub fn all() -> [SyncVariant; 3] {
        [
            SyncVariant::SpCompressed,
            SyncVariant::SpUncompressed,
            SyncVariant::Fsm,
        ]
    }
}

impl fmt::Display for SyncVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncVariant::SpCompressed => write!(f, "sp-compressed"),
            SyncVariant::SpUncompressed => write!(f, "sp-uncompressed"),
            SyncVariant::Fsm => write!(f, "fsm"),
        }
    }
}

/// The full description of one generated SoC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Macro shape (and thereby pearl count and port arities).
    pub shape: TopologyShape,
    /// Compute-only cycles between each pearl's read and write phase:
    /// the schedule-length knob (period = latency + 2) that the SP's run
    /// counter compresses and the FSM pays one state per cycle for.
    pub compute_latency: usize,
    /// Physical length of one adjacency hop, in abstract wire-length
    /// units.
    pub hop_distance: u32,
    /// Longest wire a single clock period may span, in the same units.
    /// Every link longer than this is segmented with relay stations:
    /// `ceil(distance / budget) - 1` stations per link.
    pub relay_budget: u32,
    /// Extra zero-latency wire segments per link (combinational
    /// `stop`-ripple stress for the settle scheduler; 0 = direct).
    pub wire_segments: usize,
    /// Endpoint irregularity.
    pub traffic: TrafficPattern,
    /// Behavioural or gate-level shells.
    pub model: NodeModel,
    /// Synchronizer variant controlling every pearl.
    pub variant: SyncVariant,
    /// Tokens each source offers (streams are deterministic functions of
    /// the source index — see [`source_token`]).
    pub tokens_per_source: usize,
    /// Seed for all stall injection.
    pub seed: u64,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            shape: TopologyShape::Mesh { rows: 2, cols: 2 },
            compute_latency: 4,
            hop_distance: 1,
            relay_budget: 1,
            wire_segments: 0,
            traffic: TrafficPattern::Streaming,
            model: NodeModel::Behavioural,
            variant: SyncVariant::SpCompressed,
            tokens_per_source: 10_000,
            seed: 1,
        }
    }
}

impl TopologySpec {
    /// Relay stations inserted on a link of the given physical length
    /// under this spec's latency budget.
    ///
    /// # Panics
    ///
    /// Panics if the relay budget is zero.
    pub fn relays_for(&self, distance: u32) -> usize {
        assert!(self.relay_budget > 0, "relay budget must be positive");
        (distance.max(1) as usize).div_ceil(self.relay_budget as usize) - 1
    }

    /// Flattens the shape into its node/link graph.
    ///
    /// # Panics
    ///
    /// Panics if the shape has zero nodes/leaves/rows/cols.
    pub fn graph(&self) -> TopologyGraph {
        let hop = self.hop_distance.max(1);
        match self.shape {
            TopologyShape::Chain { nodes } => {
                assert!(nodes >= 1, "chain needs at least one node");
                let mut g = TopologyGraph::new();
                for i in 0..nodes {
                    g.add_node(format!("n{i}"), 1, 1);
                }
                g.add_link(Endpoint::Source(0), Endpoint::NodeIn(0, 0), hop);
                for i in 0..nodes - 1 {
                    g.add_link(Endpoint::NodeOut(i, 0), Endpoint::NodeIn(i + 1, 0), hop);
                }
                g.add_link(Endpoint::NodeOut(nodes - 1, 0), Endpoint::Sink(0), hop);
                g
            }
            TopologyShape::Ring { nodes } => {
                assert!(nodes >= 1, "ring needs at least one node");
                let mut g = TopologyGraph::new();
                for i in 0..nodes {
                    g.add_node(format!("n{i}"), 1, 2);
                }
                // Out port 0 continues around the ring (the wrap segment
                // from the last pearl drains into sink `nodes` at the
                // injection point); out port 1 is the pearl's local
                // observation tap.
                g.add_link(Endpoint::Source(0), Endpoint::NodeIn(0, 0), hop);
                for i in 0..nodes - 1 {
                    g.add_link(Endpoint::NodeOut(i, 0), Endpoint::NodeIn(i + 1, 0), hop);
                }
                g.add_link(Endpoint::NodeOut(nodes - 1, 0), Endpoint::Sink(nodes), hop);
                for i in 0..nodes {
                    g.add_link(Endpoint::NodeOut(i, 1), Endpoint::Sink(i), hop);
                }
                g
            }
            TopologyShape::Star { leaves } => {
                assert!(leaves >= 1, "star needs at least one leaf");
                let mut g = TopologyGraph::new();
                g.add_node("hub".to_owned(), leaves, 1);
                for k in 0..leaves {
                    g.add_node(format!("leaf{k}"), 1, 1);
                    g.add_link(Endpoint::Source(k), Endpoint::NodeIn(1 + k, 0), hop);
                    g.add_link(Endpoint::NodeOut(1 + k, 0), Endpoint::NodeIn(0, k), hop);
                }
                g.add_link(Endpoint::NodeOut(0, 0), Endpoint::Sink(0), hop);
                g
            }
            TopologyShape::Mesh { rows, cols } => {
                assert!(rows >= 1 && cols >= 1, "mesh needs at least one cell");
                let mut g = TopologyGraph::new();
                let at = |r: usize, c: usize| r * cols + c;
                for r in 0..rows {
                    for c in 0..cols {
                        g.add_node(format!("n{r}_{c}"), 2, 2);
                    }
                }
                // In ports: 0 = north, 1 = west. Out ports: 0 = south,
                // 1 = east. Boundary rows/columns talk to sources/sinks.
                for c in 0..cols {
                    g.add_link(Endpoint::Source(c), Endpoint::NodeIn(at(0, c), 0), hop);
                }
                for r in 0..rows {
                    g.add_link(
                        Endpoint::Source(cols + r),
                        Endpoint::NodeIn(at(r, 0), 1),
                        hop,
                    );
                }
                for r in 0..rows {
                    for c in 0..cols {
                        let south = if r + 1 < rows {
                            Endpoint::NodeIn(at(r + 1, c), 0)
                        } else {
                            Endpoint::Sink(c)
                        };
                        g.add_link(Endpoint::NodeOut(at(r, c), 0), south, hop);
                        let east = if c + 1 < cols {
                            Endpoint::NodeIn(at(r, c + 1), 1)
                        } else {
                            Endpoint::Sink(cols + r)
                        };
                        g.add_link(Endpoint::NodeOut(at(r, c), 1), east, hop);
                    }
                }
                g
            }
        }
    }
}

/// One end of a topology link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Endpoint {
    /// Test-bench source `idx` (the link's producer side only).
    Source(usize),
    /// Output port `port` of node `node` (producer side).
    NodeOut(usize, usize),
    /// Input port `port` of node `node` (consumer side).
    NodeIn(usize, usize),
    /// Test-bench sink `idx` (consumer side only).
    Sink(usize),
}

/// One pearl of the flattened topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopoNode {
    /// Instance name (unique within the topology).
    pub name: String,
    /// Input port count.
    pub n_in: usize,
    /// Output port count.
    pub n_out: usize,
}

/// One directed link of the flattened topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopoLink {
    /// Producer end ([`Endpoint::Source`] or [`Endpoint::NodeOut`]).
    pub from: Endpoint,
    /// Consumer end ([`Endpoint::NodeIn`] or [`Endpoint::Sink`]).
    pub to: Endpoint,
    /// Physical length in wire-length units (relay insertion divides
    /// this by the spec's latency budget).
    pub distance: u32,
}

/// The flattened node/link graph of a [`TopologySpec`].
///
/// Invariants (checked by [`TopologyGraph::validate`]): every node input
/// port is the consumer of exactly one link, every node output port the
/// producer of exactly one link, sources/sinks are densely indexed, and
/// the node-to-node dataflow is acyclic — which is why generated SoCs
/// can never contain a combinational `stop` loop, regardless of how many
/// relay stations the latency budget inserts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TopologyGraph {
    /// Pearls, indexed by the `usize` in [`Endpoint`].
    pub nodes: Vec<TopoNode>,
    /// Directed links.
    pub links: Vec<TopoLink>,
}

impl TopologyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TopologyGraph::default()
    }

    /// Appends a node, returning its index.
    pub fn add_node(&mut self, name: String, n_in: usize, n_out: usize) -> usize {
        self.nodes.push(TopoNode { name, n_in, n_out });
        self.nodes.len() - 1
    }

    /// Appends a link.
    pub fn add_link(&mut self, from: Endpoint, to: Endpoint, distance: u32) {
        self.links.push(TopoLink { from, to, distance });
    }

    /// Number of test-bench sources.
    pub fn sources(&self) -> usize {
        self.links
            .iter()
            .filter(|l| matches!(l.from, Endpoint::Source(_)))
            .count()
    }

    /// Number of test-bench sinks.
    pub fn sinks(&self) -> usize {
        self.links
            .iter()
            .filter(|l| matches!(l.to, Endpoint::Sink(_)))
            .count()
    }

    /// Checks the structural invariants; returns a description of the
    /// first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let mut in_seen = vec![Vec::new(); self.nodes.len()];
        let mut out_seen = vec![Vec::new(); self.nodes.len()];
        for (n, node) in self.nodes.iter().enumerate() {
            in_seen[n] = vec![false; node.n_in];
            out_seen[n] = vec![false; node.n_out];
        }
        let mut src_seen = Vec::new();
        let mut sink_seen = Vec::new();
        for link in &self.links {
            match link.from {
                Endpoint::Source(k) => {
                    if src_seen.len() <= k {
                        src_seen.resize(k + 1, false);
                    }
                    if std::mem::replace(&mut src_seen[k], true) {
                        return Err(format!("source {k} drives two links"));
                    }
                }
                Endpoint::NodeOut(n, p) => {
                    let slot = out_seen
                        .get_mut(n)
                        .and_then(|v| v.get_mut(p))
                        .ok_or_else(|| format!("link from missing output port {n}:{p}"))?;
                    if std::mem::replace(slot, true) {
                        return Err(format!("output port {n}:{p} drives two links"));
                    }
                }
                other => return Err(format!("{other:?} cannot produce")),
            }
            match link.to {
                Endpoint::Sink(k) => {
                    if sink_seen.len() <= k {
                        sink_seen.resize(k + 1, false);
                    }
                    if std::mem::replace(&mut sink_seen[k], true) {
                        return Err(format!("sink {k} consumes two links"));
                    }
                }
                Endpoint::NodeIn(n, p) => {
                    let slot = in_seen
                        .get_mut(n)
                        .and_then(|v| v.get_mut(p))
                        .ok_or_else(|| format!("link to missing input port {n}:{p}"))?;
                    if std::mem::replace(slot, true) {
                        return Err(format!("input port {n}:{p} consumes two links"));
                    }
                }
                other => return Err(format!("{other:?} cannot consume")),
            }
        }
        for (n, ports) in in_seen.iter().enumerate() {
            if let Some(p) = ports.iter().position(|&s| !s) {
                return Err(format!("input port {n}:{p} is unconnected"));
            }
        }
        for (n, ports) in out_seen.iter().enumerate() {
            if let Some(p) = ports.iter().position(|&s| !s) {
                return Err(format!("output port {n}:{p} is unconnected"));
            }
        }
        if src_seen.iter().any(|&s| !s) || sink_seen.iter().any(|&s| !s) {
            return Err("source/sink indices are not dense".to_owned());
        }
        self.topo_order().map(|_| ())
    }

    /// Nodes in a topological order of the node-to-node dataflow.
    ///
    /// # Errors
    ///
    /// Returns an error naming a node on a dataflow cycle (generated
    /// shapes are acyclic by construction; this guards hand-built
    /// graphs).
    pub fn topo_order(&self) -> Result<Vec<usize>, String> {
        let mut indegree = vec![0usize; self.nodes.len()];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for link in &self.links {
            if let (Endpoint::NodeOut(a, _), Endpoint::NodeIn(b, _)) = (link.from, link.to) {
                succ[a].push(b);
                indegree[b] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| indegree[n] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = ready.pop() {
            order.push(n);
            for &s in &succ[n] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if order.len() != self.nodes.len() {
            let stuck = (0..self.nodes.len())
                .find(|&n| indegree[n] > 0)
                .expect("some node is on the cycle");
            return Err(format!(
                "dataflow cycle through node {}",
                self.nodes[stuck].name
            ));
        }
        Ok(order)
    }
}

/// Payload width of every generated channel, in bits. Data is truncated
/// to this width at each channel crossing — in the SoC *and* in the
/// oracle, which must model the same wrap-around.
pub const CHANNEL_WIDTH: u32 = 32;

/// Bit mask of [`CHANNEL_WIDTH`].
pub const CHANNEL_MASK: u64 = (1 << CHANNEL_WIDTH) - 1;

/// The `i`-th token source `src` offers: deterministic, distinct per
/// source, and cheap for the oracle to regenerate. Streams are odd
/// multiples so every source is distinguishable in any checksum.
pub fn source_token(src: usize, i: usize) -> u64 {
    (i as u64 + 1).wrapping_mul(2 * src as u64 + 1) & CHANNEL_MASK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_flattens_to_a_valid_graph() {
        for shape in [
            TopologyShape::Chain { nodes: 1 },
            TopologyShape::Chain { nodes: 5 },
            TopologyShape::Ring { nodes: 1 },
            TopologyShape::Ring { nodes: 6 },
            TopologyShape::Star { leaves: 1 },
            TopologyShape::Star { leaves: 7 },
            TopologyShape::Mesh { rows: 1, cols: 1 },
            TopologyShape::Mesh { rows: 3, cols: 4 },
        ] {
            let spec = TopologySpec {
                shape,
                ..TopologySpec::default()
            };
            let g = spec.graph();
            assert_eq!(g.nodes.len(), shape.nodes(), "{shape}");
            g.validate().unwrap_or_else(|e| panic!("{shape}: {e}"));
        }
    }

    #[test]
    fn mesh_graph_has_boundary_sources_and_sinks() {
        let spec = TopologySpec {
            shape: TopologyShape::Mesh { rows: 3, cols: 2 },
            ..TopologySpec::default()
        };
        let g = spec.graph();
        assert_eq!(g.nodes.len(), 6);
        assert_eq!(g.sources(), 5, "rows + cols sources");
        assert_eq!(g.sinks(), 5, "rows + cols sinks");
        // 2 out-ports per node, every one drives exactly one link.
        assert_eq!(g.links.len(), 5 + 6 * 2);
    }

    #[test]
    fn relay_insertion_follows_the_latency_budget() {
        let spec = TopologySpec {
            hop_distance: 7,
            relay_budget: 3,
            ..TopologySpec::default()
        };
        assert_eq!(spec.relays_for(1), 0, "short wires need no relays");
        assert_eq!(spec.relays_for(3), 0);
        assert_eq!(spec.relays_for(4), 1);
        assert_eq!(spec.relays_for(7), 2);
        assert_eq!(spec.relays_for(9), 2);
        assert_eq!(spec.relays_for(10), 3);
    }

    #[test]
    fn validate_rejects_cycles_and_double_drives() {
        let mut g = TopologyGraph::new();
        g.add_node("a".into(), 1, 1);
        g.add_node("b".into(), 1, 1);
        g.add_link(Endpoint::NodeOut(0, 0), Endpoint::NodeIn(1, 0), 1);
        g.add_link(Endpoint::NodeOut(1, 0), Endpoint::NodeIn(0, 0), 1);
        let err = g.validate().unwrap_err();
        assert!(err.contains("cycle"), "{err}");

        let mut g = TopologyGraph::new();
        g.add_node("a".into(), 1, 2);
        g.add_link(Endpoint::Source(0), Endpoint::NodeIn(0, 0), 1);
        g.add_link(Endpoint::NodeOut(0, 0), Endpoint::Sink(0), 1);
        g.add_link(Endpoint::NodeOut(0, 0), Endpoint::Sink(1), 1);
        let err = g.validate().unwrap_err();
        assert!(err.contains("drives two links"), "{err}");
    }

    #[test]
    fn source_tokens_are_distinct_across_sources() {
        assert_ne!(source_token(0, 0), source_token(1, 0));
        assert_eq!(source_token(0, 4), 5);
        assert_eq!(source_token(2, 0), 5);
    }
}
