//! Property tests for scenario fleets: for any generated topology —
//! random shape, latency assignment, wire segmentation, synchronizer
//! variant — and any
//! random per-lane traffic/seed assignment, every fleet lane must be
//! bit-identical (streams, violations) to a solo SoC run of that lane's
//! scenario.

use lis_sim::WorkStealingPool;
use lis_topo::{
    build_soc, FleetScenario, FleetTopologyBuilder, NodeModel, SyncVariant, TopologyShape,
    TopologySpec, TrafficPattern,
};
use proptest::prelude::*;

/// Decodes a compact random tuple into a shared fleet spec without wire
/// segments (traffic and seed are per-lane and substituted per
/// scenario).
#[allow(clippy::too_many_arguments)]
fn base_spec_from(
    shape_sel: u8,
    size_a: usize,
    size_b: usize,
    compute_latency: usize,
    hop_distance: u32,
    relay_budget: u32,
    variant_sel: u8,
    gate_level: bool,
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
    TopologySpec {
        shape,
        compute_latency,
        hop_distance,
        relay_budget,
        wire_segments: 0,
        traffic: TrafficPattern::Streaming,
        model: if gate_level {
            NodeModel::GateLevel
        } else {
            NodeModel::Behavioural
        },
        variant: SyncVariant::all()[variant_sel as usize % 3],
        tokens_per_source: 200,
        seed: 0,
    }
}

/// Decodes one random lane: its traffic regime and stall seed.
fn scenario_from(traffic_sel: u8, stall: f64, seed: u64, lane: usize) -> FleetScenario {
    let traffic = match (traffic_sel as usize + lane) % 4 {
        0 => TrafficPattern::Streaming,
        1 => TrafficPattern::Bursty { stall },
        2 => TrafficPattern::Hotspot { stall },
        _ => TrafficPattern::BackPressured {
            stall: 0.5 + stall / 2.0,
        },
    };
    FleetScenario {
        traffic,
        seed: seed.wrapping_add(7919 * lane as u64),
    }
}

/// Decodes one fully deterministic lane: streaming, or periodic
/// back-pressure whose duty cycle differs from lane to lane. With no
/// random stall anywhere, packed endpoints may go quiescent or sleep.
fn deterministic_scenario(period_sel: u8, lane: usize) -> FleetScenario {
    let lane64 = lane as u64;
    let traffic = match (period_sel as usize + lane) % 3 {
        0 => TrafficPattern::Streaming,
        k => TrafficPattern::PeriodicBackPressured {
            on: 1 + lane64 % 3,
            period: 4 * k as u64 + 2 * lane64 + 3,
        },
    };
    FleetScenario {
        traffic,
        seed: lane64,
    }
}

/// Runs the fleet and returns each lane's (streams, violations).
fn run_fleet(
    spec: &TopologySpec,
    scenarios: &[FleetScenario],
    cycles: u64,
) -> Vec<(Vec<Vec<u64>>, u64)> {
    let mut fleet = FleetTopologyBuilder::new(spec.clone(), scenarios.to_vec()).build();
    fleet
        .run(cycles, &WorkStealingPool::new(1))
        .expect("fleets must never hit NoConvergence");
    (0..scenarios.len())
        .map(|lane| (fleet.lane_received(lane), fleet.lane_violations(lane)))
        .collect()
}

/// Runs lane `lane`'s solo twin and returns its (streams, violations).
fn run_solo(spec: &TopologySpec, sc: &FleetScenario, cycles: u64) -> (Vec<Vec<u64>>, u64) {
    let mut topo = build_soc(&sc.solo_spec(spec));
    topo.soc
        .run(cycles)
        .expect("solo twins must never hit NoConvergence");
    (topo.received(), topo.soc.violations())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Behavioural fleets: every lane bit-identical to its solo twin.
    #[test]
    fn random_behavioural_fleet_lanes_match_solo_twins(
        shape_sel in any::<u8>(),
        size_a in 1usize..5,
        size_b in 1usize..3,
        compute_latency in 0usize..5,
        hop_distance in 1u32..7,
        relay_budget in 1u32..4,
        variant_sel in any::<u8>(),
        traffic_sel in any::<u8>(),
        stall in 0.0f64..0.6,
        seed in any::<u64>(),
        lanes in 2usize..6,
        cycles in 50u64..240,
        wire_segments in 0usize..3,
    ) {
        let spec = TopologySpec {
            wire_segments,
            ..base_spec_from(
                shape_sel, size_a, size_b, compute_latency, hop_distance,
                relay_budget, variant_sel, false,
            )
        };
        let scenarios: Vec<FleetScenario> = (0..lanes)
            .map(|lane| scenario_from(traffic_sel, stall, seed, lane))
            .collect();
        let got = run_fleet(&spec, &scenarios, cycles);
        for (lane, sc) in scenarios.iter().enumerate() {
            let want = run_solo(&spec, sc, cycles);
            prop_assert_eq!(&got[lane], &want,
                "lane {} diverged from its solo twin for {:?}", lane, &spec);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Gate-level fleets (shared packed netlist shells): same
    /// guarantees, smaller sizes — each case simulates every lane both
    /// packed and solo.
    #[test]
    fn random_gate_level_fleet_lanes_match_solo_twins(
        shape_sel in any::<u8>(),
        size_a in 1usize..4,
        size_b in 1usize..3,
        compute_latency in 0usize..4,
        hop_distance in 1u32..6,
        relay_budget in 1u32..3,
        variant_sel in any::<u8>(),
        traffic_sel in any::<u8>(),
        stall in 0.0f64..0.5,
        seed in any::<u64>(),
        lanes in 2usize..5,
        wire_segments in 0usize..3,
    ) {
        let spec = TopologySpec {
            wire_segments,
            ..base_spec_from(
                shape_sel, size_a, size_b, compute_latency, hop_distance,
                relay_budget, variant_sel, true,
            )
        };
        let scenarios: Vec<FleetScenario> = (0..lanes)
            .map(|lane| scenario_from(traffic_sel, stall, seed, lane))
            .collect();
        let got = run_fleet(&spec, &scenarios, 150);
        for (lane, sc) in scenarios.iter().enumerate() {
            let want = run_solo(&spec, sc, 150);
            prop_assert_eq!(&got[lane], &want,
                "lane {} diverged from its solo twin for {:?}", lane, &spec);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fleets whose every lane is deterministic (streaming, or periodic
    /// back-pressure with differing periods): a packed endpoint's
    /// activity is then the combination of its lanes' quiescence and
    /// sleeps, and every lane must still match its solo twin.
    #[test]
    fn deterministic_fleet_lanes_match_solo_twins(
        shape_sel in any::<u8>(),
        size_a in 1usize..4,
        size_b in 1usize..3,
        compute_latency in 0usize..4,
        hop_distance in 1u32..6,
        relay_budget in 1u32..3,
        variant_sel in any::<u8>(),
        gate_level in any::<bool>(),
        period_sel in any::<u8>(),
        lanes in 2usize..5,
        wire_segments in 0usize..3,
    ) {
        let spec = TopologySpec {
            wire_segments,
            ..base_spec_from(
                shape_sel, size_a, size_b, compute_latency, hop_distance,
                relay_budget, variant_sel, gate_level,
            )
        };
        let scenarios: Vec<FleetScenario> = (0..lanes)
            .map(|lane| deterministic_scenario(period_sel, lane))
            .collect();
        let got = run_fleet(&spec, &scenarios, 300);
        for (lane, sc) in scenarios.iter().enumerate() {
            let want = run_solo(&spec, sc, 300);
            prop_assert_eq!(&got[lane], &want,
                "lane {} diverged from its solo twin for {:?}", lane, &spec);
        }
    }
}
