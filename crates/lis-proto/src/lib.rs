//! # lis-proto — the latency-insensitive protocol layer
//!
//! Behavioural building blocks of a latency-insensitive system, after
//! Carloni, McMillan & Sangiovanni-Vincentelli:
//!
//! * [`Token`] — informative data vs. the void event `τ`;
//!   [`latency_equivalent`] compares streams modulo stalling, the
//!   correctness criterion of the whole methodology.
//! * [`LisChannel`] — the `data`/`void`/`stop` wire bundle, and
//!   [`PackedLisChannel`], its bit-plane form carrying up to 64
//!   independent scenario lanes (the scenario fleets' plumbing).
//!   [`Lanes`] is what the two have in common: void and stop as lane
//!   masks, payload registers, one per-lane snapshot layout.
//! * [`RelayStation`] — the 2-place buffered repeater that legalizes
//!   wire pipelining, and [`Wire`], the zero-latency hop.
//! * [`InputPort`] / [`OutputPort`] — the FIFO port adapters of the
//!   paper's Figure 2 (`pop`/`not_empty`, `push`/`not_full`).
//! * [`Pearl`] — the suspendable-IP trait every wrapper encapsulates;
//!   [`AccumulatorPearl`] is a minimal example implementation.
//! * [`TokenSource`] / [`TokenSink`] — test-bench endpoints with
//!   [`StallPattern`]-driven stall injection (seeded-random or
//!   clock-scheduled).
//! * [`SeqSource`] / [`SeqSink`] — the model-checking adversary
//!   endpoints: sequence-numbered feed and capture with
//!   externally-scripted or atomically-rewritable stall masks
//!   ([`StallControl`]), used by `lis-verify` to close a wrapper
//!   configuration and drive every stall schedule exhaustively.
//!
//! The relay station, the wire and the four endpoints are each written
//! once over [`Lanes`], with [`LisChannel`] as the default: on a packed
//! channel one bitwise step advances every lane, and lane `k` is
//! bit-identical to the scalar component run alone with lane `k`'s
//! seeds. [`LaneDemux`] / [`LaneMux`] bridge packed channels to per-lane
//! scalar ones.
//!
//! All components plug into the two-phase simulator of [`lis_sim`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod adversary;
mod channel;
mod endpoints;
mod fifo;
mod lanes;
mod packed;
mod pearl;
mod relay;
mod token;

pub use adapter::{Deserializer, Serializer};
pub use adversary::{SeqSink, SeqSource, StallControl};
pub use channel::LisChannel;
pub use endpoints::{StallPattern, TokenSink, TokenSource};
pub use fifo::{InputPort, InputPortFace, OutputPort, OutputPortFace, PORT_QUEUE_CAPACITY};
pub use lanes::Lanes;
pub use packed::{LaneDemux, LaneMux, PackedLisChannel};
pub use pearl::{AccumulatorPearl, Pearl, PortValues};
pub use relay::{RelayStation, ViolationCounter, Wire};
pub use token::{informative, latency_equivalent, Token};
