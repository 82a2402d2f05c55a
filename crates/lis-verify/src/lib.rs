//! Bounded model checking for the SP wrapper protocol.
//!
//! The rest of the workspace *simulates* latency-insensitive systems
//! under particular stall patterns; this crate *verifies* them against
//! **every** stall pattern up to a depth bound. Small closed
//! configurations — an SP-wrapped pearl, relay stations, and an
//! adversary on each open edge — are explored breadth-first over the
//! adversary's per-cycle stall decisions ([`explore()`]), with
//! 128-bit-hashed state deduplication collapsing the decision tree
//! into the reachable state graph, 64 branches expanded per step on
//! the packed SIMD engine. Each BFS level shards across configuration
//! twins, one scoped worker thread each ([`explore_pool()`]), and the
//! [`reduce`] module prunes the walk further — partial-order reduction
//! over provably inert stall choices and symmetry reduction over
//! interchangeable branches — without giving up concrete, replayable
//! counterexamples.
//!
//! Checked invariants, all consequences of the latency-insensitive
//! protocol of Bomel/Martin/Boutillon (DATE 2005) and of Carloni's
//! theory it builds on:
//!
//! * **Sequencing** — the adversary sink receives `0, 1, 2, …` mod 64:
//!   a skip is a dropped token, a repeat a duplicate ([`lis_proto::SeqSink`]).
//! * **Conservation** — the KPN ledger: tokens in flight between a
//!   source and the sink never exceed the path's physical capacity
//!   ([`ClosedConfig::ledger_violation`]).
//! * **Signalling legality** — `void ⇒ data == 0` on every channel at
//!   every settled cycle ([`ClosedConfig::signal_bad_mask`]).
//! * **Deadlock freedom** — from every reachable state, the stall-free
//!   continuation delivers a token within a bounded horizon.
//!
//! A violation is minimized into a [`Counterexample`] — a concrete
//! per-edge stall schedule from reset — serialized as JSON, and
//! replayed through the ordinary [`lis_core::Soc`] simulator
//! ([`replay_on_soc`]) so checker and simulator vouch for each other.
//! The harness validates its own teeth against seeded protocol bugs
//! ([`mutants`]): relay stations that drop, duplicate, or wedge, and an
//! SP that fires without synchronizing, each of which the explorer must
//! catch within the search depth.

pub mod config;
pub mod counterexample;
pub mod explore;
pub mod join;
pub mod mutants;
pub mod reduce;

pub use config::{
    build_config, packed_sp, packed_spj, scalar_sp, scalar_spj, ClosedConfig, Mutant,
    CORRECT_CONFIGS, MODULUS, MUTANT_CONFIGS,
};
pub use counterexample::{replay_on_soc, Counterexample, ReplayVerdict};
pub use explore::{explore, explore_pool, replay_on_checker, ExploreOptions, ExploreReport};
pub use join::JoinPearl;
pub use mutants::{EagerPolicy, MutantRelay, RelayBug};
pub use reduce::{BranchSwap, EdgeGuard, ReductionPlan};
