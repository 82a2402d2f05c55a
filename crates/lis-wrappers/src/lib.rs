//! # lis-wrappers — synchronization wrapper synthesis
//!
//! The heart of the reproduction: four synchronization-wrapper models,
//! each available as a *behavioural policy* (for system simulation) and
//! as a *gate-level generator* (for synthesis and HDL export), with
//! co-simulation proving the two agree:
//!
//! * [`CombPolicy`] / [`generate_comb`] — Carloni et al.'s combinational
//!   shell (Figure 1 of the paper);
//! * [`FsmPolicy`] / [`generate_fsm`] — Singh & Theobald's Mealy FSM
//!   (one state per schedule cycle; one-hot or binary encoding);
//! * [`ShiftRegPolicy`] / [`generate_shiftreg`] — Casu & Macchiarulo's
//!   static activation ring;
//! * [`SpPolicy`] / [`generate_sp`] — **the synchronization processor of
//!   Bomel, Martin & Boutillon (DATE 2005)**: a three-state CFSMD
//!   executing `(input-mask, output-mask, run-cycles)` operations from
//!   an asynchronous ROM (Figure 2 of the paper).
//!
//! [`PatientProcess`] assembles pearl + policy + port queues into a
//! simulator component: the behavioural oracle. The gate-level shell is
//! the paper's Figure 2 in gates, the controller plus one FIFO per port
//! ([`assemble_full_wrapper`]); [`FullNetlistPatientProcess`] runs it
//! around one pearl per lane of its channels, whose type
//! ([`ShellLanes`]) picks the engine: the scalar JIT for one lane, the
//! packed JIT for up to 64. Only the SP and FSM controllers pop and push
//! on the pearl's schedule, so only they drive a shell
//! ([`WrapperKind::shell_controller`]). [`WrapperKind`] dispatches over
//! all four models.
//!
//! # Examples
//!
//! ```
//! use lis_schedule::ScheduleBuilder;
//! use lis_wrappers::WrapperKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schedule = ScheduleBuilder::new(2, 1)
//!     .read(0)
//!     .read(1)
//!     .quiet(198)
//!     .write(0)
//!     .build()?;
//! // The SP controller is constant-size logic plus a 3-operation ROM;
//! // the FSM needs one state per schedule cycle (201 of them).
//! let sp = WrapperKind::Sp.generate_netlist(&schedule)?;
//! let fsm = WrapperKind::Fsm(Default::default()).generate_netlist(&schedule)?;
//! assert!(sp.cell_count() < fsm.cell_count() / 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comb_netlist;
mod fifo_netlist;
mod fsm_netlist;
mod full_netlist_harness;
mod kind;
mod patient;
mod policy;
mod shiftreg_netlist;
mod sp_netlist;

pub use comb_netlist::generate_comb;
pub use fifo_netlist::{assemble_full_wrapper, generate_input_port, generate_output_port};
pub use fsm_netlist::{generate_fsm, FsmEncoding};
pub use full_netlist_harness::{wrap_pearl_full_netlist, FullNetlistPatientProcess, ShellLanes};
pub use kind::WrapperKind;
pub use patient::{swap_patient_inputs, wrap_pearl, PatientProcess, PatientStats};
pub use policy::{
    firing_trace, CombPolicy, Decision, FsmPolicy, ShiftRegPolicy, SpPolicy, SyncPolicy,
};
pub use shiftreg_netlist::generate_shiftreg;
pub use sp_netlist::generate_sp;
