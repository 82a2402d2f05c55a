//! Unified dispatch over the four wrapper models.

use crate::comb_netlist::generate_comb;
use crate::fsm_netlist::{generate_fsm, FsmEncoding};
use crate::policy::{CombPolicy, FsmPolicy, ShiftRegPolicy, SpPolicy, SyncPolicy};
use crate::shiftreg_netlist::generate_shiftreg;
use crate::sp_netlist::generate_sp;
use lis_netlist::{Module, NetlistError};
use lis_schedule::{compress, IoSchedule};
use std::fmt;

/// Which synchronization-wrapper model to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrapperKind {
    /// Carloni's combinational wrapper (all-port sensing).
    Comb,
    /// Singh & Theobald's Mealy FSM (per-cycle states).
    Fsm(FsmEncoding),
    /// Casu & Macchiarulo's static shift register.
    ShiftReg,
    /// Bomel et al.'s synchronization processor (this paper).
    #[default]
    Sp,
}

impl fmt::Display for WrapperKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapperKind::Comb => write!(f, "comb"),
            WrapperKind::Fsm(FsmEncoding::OneHot) => write!(f, "fsm-onehot"),
            WrapperKind::Fsm(FsmEncoding::Binary) => write!(f, "fsm-binary"),
            WrapperKind::ShiftReg => write!(f, "shiftreg"),
            WrapperKind::Sp => write!(f, "sp"),
        }
    }
}

impl WrapperKind {
    /// All four models with default settings (for sweeps).
    pub fn all() -> [WrapperKind; 4] {
        [
            WrapperKind::Comb,
            WrapperKind::Fsm(FsmEncoding::OneHot),
            WrapperKind::ShiftReg,
            WrapperKind::Sp,
        ]
    }

    /// Builds the behavioural policy of this wrapper for `schedule`.
    pub fn make_policy(self, schedule: &IoSchedule) -> Box<dyn SyncPolicy> {
        match self {
            WrapperKind::Comb => Box::new(CombPolicy::new(schedule.clone())),
            WrapperKind::Fsm(_) => Box::new(FsmPolicy::new(schedule.clone())),
            WrapperKind::ShiftReg => Box::new(ShiftRegPolicy::full_rate(schedule.clone())),
            WrapperKind::Sp => Box::new(SpPolicy::from_schedule(schedule)),
        }
    }

    /// Generates the gate-level controller of this wrapper for
    /// `schedule`.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors from the generators.
    pub fn generate_netlist(self, schedule: &IoSchedule) -> Result<Module, NetlistError> {
        match self {
            WrapperKind::Comb => generate_comb(schedule.n_inputs(), schedule.n_outputs()),
            WrapperKind::Fsm(enc) => generate_fsm(schedule, enc),
            WrapperKind::ShiftReg => generate_shiftreg(&vec![true; schedule.period()]),
            WrapperKind::Sp => generate_sp(&compress(schedule)),
        }
    }

    /// Generates the controller of IP `ip`'s complete gate-level shell
    /// ([`crate::assemble_full_wrapper`]) for `schedule`.
    ///
    /// The shell moves its port FIFOs on the controller's `pop` and
    /// `push`, and only the SP and FSM controllers pop and push on the
    /// pearl's schedule.
    ///
    /// # Panics
    ///
    /// Panics naming `ip` and the reason for [`WrapperKind::Comb`],
    /// which pops and pushes every port on every enabled cycle, and for
    /// [`WrapperKind::ShiftReg`], which has no `ne`/`nf` inputs and no
    /// `pop`/`push` outputs; also if generation fails.
    pub fn shell_controller(self, ip: &str, schedule: &IoSchedule) -> Module {
        let refusal = match self {
            WrapperKind::Fsm(_) | WrapperKind::Sp => None,
            WrapperKind::Comb => Some(
                "it pops and pushes every port on every enabled cycle, not on the pearl's schedule",
            ),
            WrapperKind::ShiftReg => Some("it has no ne/nf inputs and no pop/push outputs"),
        };
        if let Some(why) = refusal {
            panic!("IP {ip}: the gate-level shell cannot run a {self} controller: {why}");
        }
        self.generate_netlist(schedule)
            .unwrap_or_else(|e| panic!("IP {ip}: {self} controller generation failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_schedule::ScheduleBuilder;

    fn schedule() -> IoSchedule {
        ScheduleBuilder::new(2, 1)
            .read(0)
            .read(1)
            .quiet(4)
            .write(0)
            .build()
            .unwrap()
    }

    #[test]
    fn every_kind_generates_a_valid_netlist() {
        let s = schedule();
        for kind in WrapperKind::all() {
            let m = kind.generate_netlist(&s).unwrap_or_else(|e| {
                panic!("{kind} failed: {e}");
            });
            assert!(m.cell_count() > 0, "{kind}");
        }
        let binary = WrapperKind::Fsm(FsmEncoding::Binary);
        assert!(binary.generate_netlist(&s).is_ok());
    }

    #[test]
    fn every_kind_makes_a_policy() {
        let s = schedule();
        for kind in WrapperKind::all() {
            let p = kind.make_policy(&s);
            assert!(!p.model_name().is_empty());
        }
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = WrapperKind::all().iter().map(|k| k.to_string()).collect();
        names.push(WrapperKind::Fsm(FsmEncoding::Binary).to_string());
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
