//! Integration tests: token-exactness to full drain, the 32-bit
//! wrap-around regression, and cross-engine agreement on generated
//! topologies.

use lis_sim::SettleMode;
use lis_topo::{
    build_soc, expected_sink_streams, NodeModel, SyncVariant, TopologyBuilder, TopologyShape,
    TopologySpec, TrafficPattern, CHANNEL_MASK,
};

/// Running a finite workload to quiescence must reproduce the oracle's
/// streams *exactly* (not just prefix-wise): every offered token
/// arrives, none are duplicated, reordered, or corrupted.
#[test]
fn finite_workload_drains_to_exact_oracle_equality() {
    for shape in [
        TopologyShape::Chain { nodes: 3 },
        TopologyShape::Ring { nodes: 3 },
        TopologyShape::Star { leaves: 2 },
        TopologyShape::Mesh { rows: 2, cols: 2 },
    ] {
        let spec = TopologySpec {
            shape,
            compute_latency: 2,
            hop_distance: 5,
            relay_budget: 2,
            traffic: TrafficPattern::Bursty { stall: 0.3 },
            tokens_per_source: 40,
            ..TopologySpec::default()
        };
        let mut topo = build_soc(&spec);
        topo.soc.run(4_000).unwrap();
        let got = topo.received();
        let want = expected_sink_streams(&topo.graph, spec.tokens_per_source);
        assert_eq!(got, want, "{shape}: full drain must equal the oracle");
        assert_eq!(topo.soc.violations(), 0, "{shape}");
    }
}

/// Regression: accumulator sums exceed 2³² a few hundred tokens in;
/// the oracle must model the channel-width wrap-around the hardware
/// performs at every crossing, or deep streams diverge exactly at the
/// first wrapped value.
#[test]
fn deep_streams_wrap_at_channel_width_consistently() {
    let spec = TopologySpec {
        shape: TopologyShape::Mesh { rows: 2, cols: 2 },
        compute_latency: 0,
        tokens_per_source: 2_500,
        ..TopologySpec::default()
    };
    let mut topo = build_soc(&spec);
    topo.soc.run(6_000).unwrap();
    let received = topo.received();
    let max_seen = received
        .iter()
        .flat_map(|s| s.iter().copied())
        .max()
        .unwrap_or(0);
    assert!(
        received.iter().map(|s| s.len()).sum::<usize>() > 1_000,
        "need a deep stream to exercise the wrap"
    );
    assert!(max_seen <= CHANNEL_MASK, "channels must mask payloads");
    assert!(
        topo.token_exact(),
        "oracle must wrap exactly like the hardware"
    );
}

/// The activity kernel and the full-sweep reference settle agree on a
/// generated gate-level topology.
#[test]
fn settle_engines_agree_on_generated_topologies() {
    let spec = TopologySpec {
        shape: TopologyShape::Mesh { rows: 2, cols: 2 },
        compute_latency: 1,
        hop_distance: 4,
        relay_budget: 2,
        traffic: TrafficPattern::Bursty { stall: 0.25 },
        model: NodeModel::GateLevel,
        variant: SyncVariant::SpCompressed,
        tokens_per_source: 120,
        ..TopologySpec::default()
    };
    let run = |mode: SettleMode| {
        let mut topo = TopologyBuilder::new(spec.clone()).settle_mode(mode).build();
        topo.soc.run(700).unwrap();
        assert_eq!(topo.soc.violations(), 0);
        topo.received()
    };
    let reference = run(SettleMode::FullSweep);
    assert_eq!(reference, run(SettleMode::FastForward));
    assert!(reference.iter().any(|s| !s.is_empty()), "data must flow");
}

/// Hotspot traffic congests one sink; its back-pressure must slow the
/// fabric without corrupting any stream — and the uncongested sinks
/// keep making progress.
#[test]
fn hotspot_backpressure_slows_but_never_corrupts() {
    let spec = TopologySpec {
        shape: TopologyShape::Mesh { rows: 2, cols: 3 },
        compute_latency: 0,
        traffic: TrafficPattern::Hotspot { stall: 0.9 },
        tokens_per_source: 500,
        ..TopologySpec::default()
    };
    let mut topo = build_soc(&spec);
    topo.soc.run(1_500).unwrap();
    assert!(topo.token_exact());
    assert_eq!(topo.soc.violations(), 0);
    let streams = topo.received();
    let hotspot = streams[0].len();
    let best = streams.iter().map(|s| s.len()).max().unwrap();
    assert!(
        best > hotspot,
        "uncongested sinks ({best}) must outpace the hotspot ({hotspot})"
    );
}

/// A gate-level mesh survives a mid-run checkpoint. Every shell is a
/// scalar JIT whose FIFO data registers commit as bus words, while its
/// `save_state` keeps one word per flip-flop. Restoring the snapshot
/// into a fresh build that has already run a different number of cycles
/// and then running to the end must reproduce an uninterrupted twin:
/// the same component states and the same sink streams.
#[test]
fn gate_level_mesh_resumes_from_a_checkpoint_bit_identically() {
    let spec = TopologySpec {
        shape: TopologyShape::Mesh { rows: 3, cols: 3 },
        compute_latency: 2,
        hop_distance: 3,
        relay_budget: 1,
        traffic: TrafficPattern::Bursty { stall: 0.3 },
        model: NodeModel::GateLevel,
        variant: SyncVariant::SpCompressed,
        tokens_per_source: 200,
        ..TopologySpec::default()
    };
    let (total, at) = (700, 260);
    let mut twin = build_soc(&spec);
    twin.soc.run(total).unwrap();

    let mut first = build_soc(&spec);
    first.soc.run(at).unwrap();
    let snap = first.soc.system().checkpoint();
    let data_words: usize = snap.component_states.iter().map(Vec::len).sum();
    assert!(data_words > 0, "the shells must carry state");

    let mut resumed = build_soc(&spec);
    resumed.soc.run(97).unwrap();
    resumed.soc.system_mut().restore(&snap);
    assert_eq!(resumed.soc.cycle(), at);
    resumed.soc.run(total - at).unwrap();

    assert!(twin.total_received() > 0, "data must flow");
    assert_eq!(resumed.received(), twin.received(), "sink streams");
    assert_eq!(
        resumed.soc.system().checkpoint(),
        twin.soc.system().checkpoint(),
        "component states and signals"
    );
}
