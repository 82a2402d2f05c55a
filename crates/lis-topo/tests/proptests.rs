//! Property tests for the topology generator: any generated topology —
//! random shape, size, latency assignment, traffic, and seed — must
//! settle without `NoConvergence`, stay protocol-clean, and stay
//! token-exact against the dataflow oracle.

use lis_topo::{
    NodeModel, SyncVariant, TopologyBuilder, TopologyShape, TopologySpec, TrafficPattern,
};
use proptest::prelude::*;

/// Decodes a compact random tuple into a spec (keeps the strategy
/// surface simple: the vendored proptest has no `prop_oneof`).
#[allow(clippy::too_many_arguments)]
fn spec_from(
    shape_sel: u8,
    size_a: usize,
    size_b: usize,
    compute_latency: usize,
    hop_distance: u32,
    relay_budget: u32,
    wire_segments: usize,
    traffic_sel: u8,
    stall: f64,
    variant_sel: u8,
    gate_level: bool,
    seed: u64,
) -> TopologySpec {
    let shape = match shape_sel % 4 {
        0 => TopologyShape::Chain { nodes: size_a },
        1 => TopologyShape::Ring { nodes: size_a },
        2 => TopologyShape::Star { leaves: size_a },
        _ => TopologyShape::Mesh {
            rows: size_a,
            cols: size_b,
        },
    };
    let traffic = match traffic_sel % 3 {
        0 => TrafficPattern::Streaming,
        1 => TrafficPattern::Bursty { stall },
        _ => TrafficPattern::Hotspot { stall },
    };
    let variant = SyncVariant::all()[variant_sel as usize % 3];
    TopologySpec {
        shape,
        compute_latency,
        hop_distance,
        relay_budget,
        wire_segments,
        traffic,
        model: if gate_level {
            NodeModel::GateLevel
        } else {
            NodeModel::Behavioural
        },
        variant,
        tokens_per_source: 200,
        seed,
    }
}

/// Runs the spec for `cycles` and returns (per-sink streams, violations,
/// token-exact flag). Any `NoConvergence` fails the property via unwrap.
fn run(spec: &TopologySpec, cycles: u64) -> (Vec<Vec<u64>>, u64, bool) {
    let mut topo = TopologyBuilder::new(spec.clone()).build();
    topo.soc
        .run(cycles)
        .expect("generated topologies must never hit NoConvergence");
    (topo.received(), topo.soc.violations(), topo.token_exact())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Behavioural topologies: convergent, protocol-clean, and
    /// token-exact, whatever the shape, latency assignment, and stall
    /// pattern.
    #[test]
    fn random_topology_settles_deterministically(
        shape_sel in any::<u8>(),
        size_a in 1usize..6,
        size_b in 1usize..4,
        compute_latency in 0usize..7,
        hop_distance in 1u32..8,
        relay_budget in 1u32..4,
        wire_segments in 0usize..3,
        traffic_sel in any::<u8>(),
        stall in 0.0f64..0.6,
        variant_sel in any::<u8>(),
        seed in any::<u64>(),
        cycles in 50u64..260,
    ) {
        let spec = spec_from(
            shape_sel, size_a, size_b, compute_latency, hop_distance,
            relay_budget, wire_segments, traffic_sel, stall, variant_sel,
            false, seed,
        );
        let (_, violations, exact) = run(&spec, cycles);
        prop_assert_eq!(violations, 0, "violations: {:?}", &spec);
        prop_assert!(exact, "oracle mismatch for {:?}", &spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Gate-level topologies (every synchronizer variant as a real
    /// netlist shell): same guarantees, smaller sizes — each case
    /// simulates hundreds of gate-level components.
    #[test]
    fn random_gate_level_topology_settles_deterministically(
        shape_sel in any::<u8>(),
        size_a in 1usize..4,
        size_b in 1usize..3,
        compute_latency in 0usize..5,
        hop_distance in 1u32..6,
        relay_budget in 1u32..3,
        traffic_sel in any::<u8>(),
        stall in 0.0f64..0.5,
        variant_sel in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let spec = spec_from(
            shape_sel, size_a, size_b, compute_latency, hop_distance,
            relay_budget, 0, traffic_sel, stall, variant_sel, true, seed,
        );
        let (_, violations, exact) = run(&spec, 150);
        prop_assert_eq!(violations, 0, "{:?}", &spec);
        prop_assert!(exact, "oracle mismatch for {:?}", &spec);
    }
}
