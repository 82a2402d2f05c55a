//! Concrete counterexamples: serializable stall schedules, and their
//! replay through the ordinary [`lis_core::Soc`] simulator.
//!
//! A counterexample found by the explorer is not trusted on its own: it
//! is serialized to JSON, committed under
//! `crates/lis-verify/tests/counterexamples/`, and replayed through a
//! SoC built from the *same* components the rest of the workspace uses
//! ([`lis_core::SocBuilder`]). The replay must reproduce the violation
//! on the seeded-mutant SoC and pass cleanly on the fixed one — the
//! regression loop that keeps checker and simulator honest about the
//! same protocol.

use crate::config::{Shape, MODULUS};
use crate::join::JoinPearl;
use crate::mutants::MutantRelay;
use lis_core::{Soc, SocBuilder};
use lis_proto::{Pearl, StallControl};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A concrete protocol violation: the adversary stall schedule that
/// drives a named closed configuration from power-up into the fault.
///
/// `schedule[c]` is the stall mask of cycle `c`; bit *e* stalls the
/// edge named `edges[e]`. For deadlock counterexamples `free_run` is
/// the stall-free horizon after the schedule within which the sink saw
/// no delivery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counterexample {
    /// Closed-configuration name (see [`crate::config::build_config`]).
    pub config: String,
    /// Violated invariant: `"sequencing"`, `"conservation"`,
    /// `"signalling"`, or `"deadlock"`.
    pub kind: String,
    /// Edge names, in stall-mask bit order.
    pub edges: Vec<String>,
    /// Per-cycle stall masks, from reset.
    pub schedule: Vec<u64>,
    /// Stall-free cycles appended for deadlock detection (0 otherwise).
    pub free_run: u64,
    /// Human-readable description of the observed fault.
    pub detail: String,
}

impl Counterexample {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("counterexample serializes")
    }

    /// Parses a counterexample back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error message.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("{e:?}"))
    }

    /// The per-edge scripted stall schedule: element `e` is the script
    /// for edge `e`, one mask word per cycle with only bit 0 used (the
    /// scalar replay lane).
    pub fn edge_scripts(&self) -> Vec<Vec<u64>> {
        (0..self.edges.len())
            .map(|e| self.schedule.iter().map(|m| (m >> e) & 1).collect())
            .collect()
    }
}

/// Outcome of replaying a counterexample through a [`Soc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayVerdict {
    /// Protocol violations recorded anywhere in the SoC by the end of
    /// the replay (order faults, relay overflow, wrapper faults).
    pub violations: u64,
    /// Tokens the adversary sink had received when the scripted
    /// schedule ran out.
    pub delivered_after_schedule: u64,
    /// Tokens received after one stall-free drain window.
    pub delivered_after_drain: u64,
    /// Whether a *second* stall-free window still made progress — the
    /// liveness signal (false = the pipeline is wedged: deadlock).
    pub progressed: bool,
}

impl ReplayVerdict {
    /// Whether the replay reproduced the counterexample's verdict.
    pub fn reproduces(&self, kind: &str) -> bool {
        match kind {
            "deadlock" => !self.progressed,
            _ => self.violations > 0,
        }
    }

    /// Whether the replay was fully clean: no violations and live.
    pub fn clean(&self) -> bool {
        self.violations == 0 && self.progressed
    }
}

/// Replays `cx` through an ordinary [`Soc`] built with
/// [`SocBuilder`] from the same protocol components the rest of the
/// workspace simulates with.
///
/// With `seeded == true` the SoC carries the configuration's mutant
/// (only meaningful for `mut-*` configurations); with `false` it is the
/// correct system of the same shape — the "fixed code" side of the
/// regression, on which every committed counterexample must pass
/// cleanly.
///
/// # Panics
///
/// Panics if the configuration name is unknown or the edge list does
/// not match the shape (sources first, sink last).
pub fn replay_on_soc(cx: &Counterexample, seeded: bool) -> ReplayVerdict {
    let mut shape = Shape::named(&cx.config)
        .unwrap_or_else(|| panic!("unknown counterexample config {:?}", cx.config));
    if !seeded {
        shape.mutant = None;
    }
    assert_eq!(
        cx.edges.len(),
        shape.branches.len() + 1,
        "edge list must be sources then sink"
    );
    let scripts = cx.edge_scripts();

    let mut b = SocBuilder::new();
    let vio = b.violations_handle();
    let pearl = JoinPearl::new("join", shape.branches.len(), 1, &vio);
    let policy = shape.policy(pearl.schedule());
    let ip = b.add_ip_with_policy("sp", Box::new(pearl), policy);

    for (branch, (&relays, script)) in shape.branches.iter().zip(&scripts).enumerate() {
        let stage = b.channel(&format!("adv_src{branch}"), 32);
        b.adversary_feed(
            format!("src{branch}"),
            stage,
            StallControl::Scripted(script.clone()),
            MODULUS,
        );
        match shape.input_mutant() {
            // The mutant is the branch's only relay station.
            Some(bug) if branch == 0 => {
                b.system_mut()
                    .add_component(MutantRelay::new("mut", stage, ip.inputs[0], bug));
            }
            _ => b.link(stage, ip.inputs[branch], relays),
        }
    }

    let mut tail = ip.outputs[0];
    if shape.relays_after > 0 {
        let out = b.channel("adv_out", 32);
        b.link(tail, out, shape.relays_after);
        tail = out;
    }
    if let Some(bug) = shape.output_mutant() {
        let out = b.channel("adv_out", 32);
        b.system_mut()
            .add_component(MutantRelay::new("mut", tail, out, bug));
        tail = out;
    }
    let delivered = b.adversary_capture(
        "snk",
        tail,
        StallControl::Scripted(scripts[shape.branches.len()].clone()),
        MODULUS,
    );
    let soc = b.build();
    run_verdict(soc, delivered, cx)
}

fn run_verdict(mut soc: Soc, delivered: Arc<[AtomicU64]>, cx: &Counterexample) -> ReplayVerdict {
    let delivered = &delivered[0];
    let drain = cx.free_run.max(64);
    soc.run(cx.schedule.len() as u64)
        .expect("replay SoC must converge");
    let delivered_after_schedule = delivered.load(Ordering::Relaxed);
    soc.run(drain).expect("replay SoC must converge");
    let delivered_after_drain = delivered.load(Ordering::Relaxed);
    soc.run(drain).expect("replay SoC must converge");
    ReplayVerdict {
        violations: soc.violations(),
        delivered_after_schedule,
        delivered_after_drain,
        progressed: delivered.load(Ordering::Relaxed) > delivered_after_drain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counterexample {
        Counterexample {
            config: "sp1".into(),
            kind: "sequencing".into(),
            edges: vec!["src".into(), "sink".into()],
            schedule: vec![0, 2, 3, 1],
            free_run: 0,
            detail: "sample".into(),
        }
    }

    #[test]
    fn counterexample_round_trips_through_json() {
        let cx = sample();
        let back = Counterexample::from_json(&cx.to_json()).unwrap();
        assert_eq!(back, cx);
    }

    #[test]
    fn edge_scripts_split_the_mask_bits() {
        let cx = sample();
        let scripts = cx.edge_scripts();
        assert_eq!(scripts[0], vec![0, 0, 1, 1], "src stalls = bit 0");
        assert_eq!(scripts[1], vec![0, 1, 1, 0], "sink stalls = bit 1");
    }

    #[test]
    fn correct_soc_replays_any_schedule_cleanly() {
        // Latency insensitivity in one line: whatever the adversary
        // schedule, the correct SoC neither misorders nor wedges.
        let cx = Counterexample {
            config: "sp2".into(),
            kind: "sequencing".into(),
            edges: vec!["src".into(), "sink".into()],
            schedule: vec![3, 1, 2, 3, 2, 1, 0, 3, 3, 1, 2, 2],
            free_run: 0,
            detail: "clean replay".into(),
        };
        let verdict = replay_on_soc(&cx, false);
        assert!(verdict.clean(), "{verdict:?}");
    }

    #[test]
    fn join_soc_replays_cleanly_across_branch_skew() {
        let cx = Counterexample {
            config: "spj".into(),
            kind: "sequencing".into(),
            edges: vec!["src0".into(), "src1".into(), "sink".into()],
            schedule: vec![1, 2, 4, 7, 5, 3, 6, 0, 1, 2],
            free_run: 0,
            detail: "clean join replay".into(),
        };
        let verdict = replay_on_soc(&cx, false);
        assert!(verdict.clean(), "{verdict:?}");
    }
}
