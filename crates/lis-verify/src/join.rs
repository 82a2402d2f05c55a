//! The checker's pearl: an identity/join IP with a built-in invariant.
//!
//! Verification configurations need a pearl whose *correct output is
//! predictable from the adversary inputs* so the sink can check
//! end-to-end sequencing. [`JoinPearl`] reads one token per period on
//! each input port, asserts they are all equal (in a KPN join fed from
//! sources emitting the same sequence, the *n*-th firing must see the
//! *n*-th token on every branch — regardless of per-branch latency),
//! and forwards input 0 unchanged. With one input it is the plain
//! identity pearl used by the single-stream configurations.

use lis_proto::{Pearl, PortValues, ViolationCounter};
use lis_schedule::{Interface, IoSchedule, PortSpec, ScheduleBuilder};

/// An equality-checking join (identity for one input): reads every
/// input, waits `latency` quiet cycles, then writes input 0's value.
/// Branch disagreement — which in a correct latency-insensitive system
/// is impossible — is recorded on a [`ViolationCounter`].
#[derive(Debug)]
pub struct JoinPearl {
    name: String,
    interface: Interface,
    schedule: IoSchedule,
    step: usize,
    held: Vec<u64>,
    mismatches: ViolationCounter,
}

impl JoinPearl {
    /// Creates the pearl with `n_in` input ports and one output port.
    ///
    /// # Panics
    ///
    /// Panics if `n_in == 0`.
    pub fn new(
        name: impl Into<String>,
        n_in: usize,
        latency: usize,
        mismatches: &ViolationCounter,
    ) -> Self {
        assert!(n_in > 0, "join needs at least one input");
        let mut ports = Vec::new();
        for i in 0..n_in {
            ports.push(PortSpec::input(format!("in{i}"), 32));
        }
        ports.push(PortSpec::output("out0", 32));
        let schedule = ScheduleBuilder::new(n_in, 1)
            .io(0..n_in, [])
            .quiet(latency)
            .io([], [0])
            .build()
            .expect("join schedule is valid");
        JoinPearl {
            name: name.into(),
            interface: Interface::new(ports),
            schedule,
            step: 0,
            held: vec![0; n_in],
            mismatches: mismatches.clone(),
        }
    }
}

impl Pearl for JoinPearl {
    fn name(&self) -> &str {
        &self.name
    }

    fn interface(&self) -> &Interface {
        &self.interface
    }

    fn schedule(&self) -> &IoSchedule {
        &self.schedule
    }

    fn clock(&mut self, inputs: &PortValues, outputs: &mut PortValues) {
        let io = self.schedule.at(self.step);
        for port in io.reads.iter() {
            self.held[port] = inputs
                .get(port)
                .expect("shell guarantees scheduled inputs are present");
        }
        if !io.writes.is_empty() {
            if self.held.iter().any(|&v| v != self.held[0]) {
                self.mismatches.record();
            }
            outputs.set(0, self.held[0]);
        }
        self.step = (self.step + 1) % self.schedule.period();
    }

    fn reset(&mut self) {
        self.step = 0;
        self.held.iter_mut().for_each(|h| *h = 0);
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.step as u64);
        out.push(self.held.len() as u64);
        out.extend(self.held.iter().copied());
    }

    fn load_state(&mut self, data: &[u64]) {
        self.step = data[0] as usize;
        let n = data[1] as usize;
        self.held = data[2..2 + n].to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clocks `p` once into a fresh output frame.
    fn clock(p: &mut JoinPearl, inputs: &PortValues) -> PortValues {
        let mut out = PortValues::empty(1);
        p.clock(inputs, &mut out);
        out
    }

    #[test]
    fn identity_join_forwards_input_zero() {
        let counter = ViolationCounter::new();
        let mut p = JoinPearl::new("j", 1, 1, &counter);
        assert_eq!(p.schedule().period(), 3);
        let mut ins = PortValues::empty(1);
        ins.set(0, 42);
        assert_eq!(clock(&mut p, &ins).get(0), None, "read step emits nothing");
        assert_eq!(
            clock(&mut p, &PortValues::empty(1)).get(0),
            None,
            "quiet step"
        );
        assert_eq!(clock(&mut p, &PortValues::empty(1)).get(0), Some(42));
        assert_eq!(counter.count(), 0);
    }

    #[test]
    fn mismatched_branches_are_recorded() {
        let counter = ViolationCounter::new();
        let mut p = JoinPearl::new("j", 2, 0, &counter);
        let mut ins = PortValues::empty(2);
        ins.set(0, 7);
        ins.set(1, 8);
        clock(&mut p, &ins);
        let out = clock(&mut p, &PortValues::empty(2));
        assert_eq!(out.get(0), Some(7), "output follows branch 0");
        assert_eq!(counter.count(), 1);
    }

    #[test]
    fn state_round_trips() {
        let counter = ViolationCounter::new();
        let mut p = JoinPearl::new("j", 2, 2, &counter);
        let mut ins = PortValues::empty(2);
        ins.set(0, 5);
        ins.set(1, 5);
        clock(&mut p, &ins);
        let mut words = Vec::new();
        p.save_state(&mut words);
        let mut q = JoinPearl::new("j", 2, 2, &counter);
        q.load_state(&words);
        let mut a = Vec::new();
        let mut b = Vec::new();
        p.save_state(&mut a);
        q.save_state(&mut b);
        assert_eq!(a, b);
    }
}
