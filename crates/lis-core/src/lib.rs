//! # lis-core — the top-level API of the LIS wrapper-synthesis suite
//!
//! Ties the substrate crates together:
//!
//! * [`SocBuilder`] / [`Soc`] — assemble patient processes (behavioural
//!   wrappers or complete gate-level shells), relay-station links,
//!   sources and sinks into a runnable latency-insensitive system;
//! * [`Fabric`] — the same assembly API over lane width, implemented by
//!   the one-lane [`SocBuilder`] and the packed [`FleetBuilder`];
//! * [`synthesize_wrapper`] — schedule → wrapper controller → FPGA
//!   area/timing report, for all four wrapper models;
//! * [`experiment`] — one driver per table/figure of Bomel et al.
//!   (DATE 2005): [`experiment::table1`], [`experiment::figures`], the
//!   scaling/throughput/ablation sweeps.
//!
//! # Examples
//!
//! ```
//! use lis_core::{SocBuilder};
//! use lis_proto::AccumulatorPearl;
//! use lis_wrappers::WrapperKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SocBuilder::new();
//! let ip = b.add_ip(
//!     "acc",
//!     Box::new(AccumulatorPearl::new("acc", 1, 1, 2)),
//!     WrapperKind::Sp,
//! );
//! b.feed("src", ip.inputs[0], 1..=5, 0.0, 1);
//! b.capture("out", ip.outputs[0], 0.0, 2);
//! let mut soc = b.build();
//! soc.run(60)?;
//! assert_eq!(soc.received("out"), vec![1, 3, 6, 10, 15]);
//! assert_eq!(soc.violations(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiment;
mod fabric;
mod fleet;
mod flow;
mod soc;

pub use fabric::{Fabric, IpHandle};
pub use fleet::{FleetBatch, FleetBuilder, FleetCheckpoint, SocFleet};
pub use flow::{synthesize_full_wrapper, synthesize_wrapper, SpCompression, WrapperSynthesis};
pub use soc::{Soc, SocBuilder};
