//! # lis-topo — NoC-scale SoC topology generation
//!
//! The paper's evaluation stops at a single RS(255,239) pipeline; this
//! crate turns the reproduction into a *scenario machine*. A
//! [`TopologySpec`] describes a NoC-style SoC — a [`TopologyShape`]
//! (mesh / ring / star / chain), per-link physical distances, a relay
//! latency budget, a [`TrafficPattern`], and the synchronizer
//! [`SyncVariant`] controlling every pearl — and [`TopologyBuilder`]
//! instantiates it as a runnable latency-insensitive system, inserting
//! `ceil(distance / budget) − 1` relay stations on every link and
//! driving behavioural or full gate-level wrapper shells through
//! `lis-sim`'s activity kernel.
//!
//! Correctness at any scale is checked against the dataflow
//! **oracle** ([`expected_sink_streams`]): generated topologies are
//! acyclic Kahn process networks of accumulator pearls, so every sink's
//! informative stream is a pure function of the graph — independent of
//! latencies, relays, stalls, wrapper model, and settle engine. A run is
//! *token-exact* ([`GeneratedSoc::token_exact`]) when each received
//! stream is a prefix of the oracle's.
//!
//! On top sit the benches. The **E6 ablation** ([`topology_ablation`],
//! [`stress_run`]): SP-with-ROM-compression vs SP-uncompressed vs
//! per-pearl FSM synchronizers swept across topology scales, and the
//! 10⁵-cycle long-schedule stress run of an 8×8 gate-level mesh under
//! sustained relay back-pressure. And the **E7 kernel bench**
//! ([`e7_bench`]): the same stress mesh under streaming / bursty /
//! hotspot / saturating back-pressured traffic, once per settle engine
//! — proving the activity kernel delivers bit-identical streams
//! while skipping most of the quiescent mesh. And the **fleet bench**
//! ([`fleet_bench`]): up to 64 independent traffic scenarios of the
//! stress mesh lane-batched through one shared packed instruction
//! stream ([`FleetTopologyBuilder`]), every lane asserted bit-identical
//! to a sequential solo run of the same seed.
//!
//! # Examples
//!
//! ```
//! use lis_topo::{build_soc, TopologyShape, TopologySpec, TrafficPattern};
//!
//! # fn main() -> Result<(), lis_sim::SimError> {
//! let spec = TopologySpec {
//!     shape: TopologyShape::Star { leaves: 3 },
//!     compute_latency: 1,
//!     traffic: TrafficPattern::Bursty { stall: 0.3 },
//!     tokens_per_source: 50,
//!     ..TopologySpec::default()
//! };
//! let mut topo = build_soc(&spec);
//! topo.soc.run(500)?;
//! // Bursty stalls reshape timing, never content.
//! assert!(topo.token_exact());
//! assert!(topo.total_received() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ablation;
mod build;
mod e7;
mod fleet;
mod oracle;
mod topology;

pub use ablation::{
    assert_e6_claim, stress_run, topology_ablation, AblationBenchConfig, ScalePoint, StressConfig,
    StressReport, TopoAblationRow,
};
pub use build::{build_soc, GeneratedSoc, TopoStats, TopologyBuilder};
pub use e7::{assert_e7_streams, e7_bench, E7Config, E7Report, E7Row};
pub use fleet::{
    assert_fleet_lanes, build_fleet, fleet_bench, fleet_scenario, FleetBenchConfig, FleetReport,
    FleetRow, FleetScenario, FleetStats, FleetTopologyBuilder, GeneratedFleet, FLEET_BENCH_REPS,
};
pub use oracle::{expected_sink_streams, stream_checksum};
pub use topology::{
    source_token, Endpoint, NodeModel, SyncVariant, TopoLink, TopoNode, TopologyGraph,
    TopologyShape, TopologySpec, TrafficPattern, CHANNEL_MASK, CHANNEL_WIDTH,
};
