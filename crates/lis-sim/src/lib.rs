//! # lis-sim — synchronous simulation for latency-insensitive systems
//!
//! Two executors with identical two-phase clock semantics:
//!
//! * [`System`] — a component-level simulator. Components implement
//!   [`Component`], declaring their read/write/tick signal sets via
//!   [`Component::ports`]; each cycle the kernel seeds a dirty set,
//!   **settles** combinational outputs to a fixpoint (LIS `stop`/`void`
//!   wires ripple through several shells within one cycle) and then
//!   **ticks** sequential state. The production kernel is the
//!   *activity kernel* with its event wheel ([`SettleMode::FastForward`],
//!   the default): each tick reports an [`Activity`], quiescent
//!   components are skipped — evals and ticks both — until a declared
//!   signal changes or their declared wake-up arrives, and
//!   [`System::run`] jumps the clock over spans in which nothing is due.
//!   The settle runs on the dependency-aware scheduler: the
//!   signal→reader graph is sealed once, combinational SCCs are
//!   condensed at build time, and one sequential pass over the groups
//!   in dependency order reaches the fixpoint. Combinational loops are
//!   detected and reported with the component names forming the cycle.
//!   The blind sweep-everything loop survives as
//!   [`SettleMode::FullSweep`], the reference for differential testing.
//! * [`NetlistSim`] — a gate-level interpreter for
//!   [`lis_netlist::Module`]s, the reference executor for generated
//!   wrapper hardware. A netlist enters a component system inside the
//!   component that owns its engine: `lis-wrappers`' gate-level shells
//!   each own one JIT engine.
//!
//! On top of the interpreter sit two fast engines. A module is lowered
//! once into a levelized flat instruction stream, then post-processed
//! into a [`JitNetlistProgram`] — fusing superinstructions
//! (inverted-input gates, 3-input chains, wide AndN/OrN sum-of-products
//! trees), folding constants, propagating copies, deduplicating and
//! dead-code-eliminating — with each level sorted into contiguous
//! per-opcode runs so dispatch costs one branch per run, not per gate.
//! [`JitNetlistSim`] executes it scalar, after a word pass that runs
//! each bus read only word-wide (multi-bit ports, registers, MUX buses
//! under one select, up to 64 bits) as one `u64` word;
//! [`JitPackedNetlistSim`] executes [`LANES`] independent lanes per
//! `u64` word. Both engines evaluate `u64` slots. All three implement
//! [`NetlistExec`], through which property tests pin them
//! cycle-for-cycle equivalent.
//!
//! Both executors are single-threaded. Parallelism lives one level up,
//! over whole independent jobs: [`map_with`] runs fleet batches,
//! model-checker twins and synthesis runs in one [`std::thread::scope`]
//! per call, with the caller's thread as the first worker.
//! [`WorkStealingPool`] is a worker count for stateless jobs over it;
//! the type keeps that name only because the benchmark package imports
//! it.
//!
//! [`Trace`] records signals per cycle and renders standard VCD.
//!
//! # Examples
//!
//! ```
//! use lis_sim::{FnComponent, Ports, System};
//!
//! # fn main() -> Result<(), lis_sim::SimError> {
//! let mut sys = System::new();
//! let x = sys.add_signal("x", 8);
//! let y = sys.add_signal("y", 8);
//! sys.add_component(FnComponent::new(
//!     "inc",
//!     Ports::new([x], [y]),
//!     move |s| { let v = s.get(x); s.set(y, v + 1); },
//!     |_| {},
//! ));
//! sys.poke(x, 9);
//! sys.settle()?;
//! assert_eq!(sys.peek(y), 10);
//! # Ok(())
//! # }
//! ```

// Unsafe is confined to the JIT (`jit.rs`), whose unchecked slot
// accesses rest on build-time bounds validation; each use documents
// the invariant that justifies it.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod checkpoint;
mod compile;
mod jit;
mod kernel;
mod lanes;
mod netlist_sim;
mod pool;
mod sched;
mod signal;
mod trace;

pub use checkpoint::{hash_words128, SystemCheckpoint};
pub use jit::{JitNetlistProgram, JitNetlistSim, JitPackedNetlistSim, PortHandle, LANES};
pub use kernel::{Activity, Component, FnComponent, Ports, SettleMode, SimError, System};
pub use lanes::{load_plane_lanes, save_plane_lanes, transpose64};
pub use netlist_sim::{NetlistExec, NetlistSim};
pub use pool::{map_with, WorkStealingPool};
pub use sched::SchedulerStats;
pub use signal::{Signal, SignalId, SignalView};
pub use trace::Trace;
