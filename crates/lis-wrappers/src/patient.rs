//! The patient process: pearl + synchronization policy + port queues,
//! assembled as one simulator component.
//!
//! This is the behavioural counterpart of the paper's Figures 1 and 2:
//! LIS channels enter through input-port queues, the policy (comb logic,
//! FSM, shift register, or synchronization processor) gates the pearl's
//! clock, and produced tokens leave through output-port queues.

use crate::policy::SyncPolicy;
use lis_proto::{LisChannel, Pearl, PortValues, Token, ViolationCounter, PORT_QUEUE_CAPACITY};
use lis_sim::{Activity, Component, Ports, SignalView, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live occupancy/progress counters exposed by a patient process.
#[derive(Debug, Clone, Default)]
pub struct PatientStats {
    fired: Arc<AtomicU64>,
    stalled: Arc<AtomicU64>,
}

impl PatientStats {
    /// Enabled (fired) cycles so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Stalled cycles so far.
    pub fn stalled(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }

    /// Fired / total, in 0..=1.
    pub fn utilization(&self) -> f64 {
        let total = self.fired() + self.stalled();
        if total == 0 {
            0.0
        } else {
            self.fired() as f64 / total as f64
        }
    }
}

/// A pearl encapsulated behind a synchronization policy, connected to
/// LIS channels.
pub struct PatientProcess {
    name: String,
    pearl: Box<dyn Pearl>,
    policy: Box<dyn SyncPolicy>,
    in_channels: Vec<LisChannel>,
    out_channels: Vec<LisChannel>,
    in_queues: Vec<VecDeque<u64>>,
    out_queues: Vec<VecDeque<u64>>,
    /// Registered stop towards each input channel.
    in_stop: Vec<bool>,
    /// Mirror of the pearl's position in its schedule: the I/O actually
    /// performed on a fired cycle is the *pearl's* (burst operations
    /// stream I/O during free-run; the policy only gates the clock).
    sched_step: usize,
    stats: PatientStats,
    violations: ViolationCounter,
    queue_capacity: usize,
    /// The pearl's port frames, reused by every clock.
    frame_in: PortValues,
    frame_out: PortValues,
}

impl std::fmt::Debug for PatientProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatientProcess")
            .field("name", &self.name)
            .field("pearl", &self.pearl.name())
            .field("policy", &self.policy.model_name())
            .finish()
    }
}

impl PatientProcess {
    /// Encapsulates `pearl` behind `policy`.
    ///
    /// `in_channels`/`out_channels` connect the wrapper to the SoC, in
    /// the pearl's directional port order.
    ///
    /// # Panics
    ///
    /// Panics if the channel counts do not match the pearl's interface.
    pub fn new(
        name: impl Into<String>,
        pearl: Box<dyn Pearl>,
        policy: Box<dyn SyncPolicy>,
        in_channels: Vec<LisChannel>,
        out_channels: Vec<LisChannel>,
        violations: ViolationCounter,
    ) -> Self {
        let n_in = pearl.interface().input_count();
        let n_out = pearl.interface().output_count();
        assert_eq!(in_channels.len(), n_in, "input channel count mismatch");
        assert_eq!(out_channels.len(), n_out, "output channel count mismatch");
        PatientProcess {
            name: name.into(),
            pearl,
            policy,
            in_queues: vec![VecDeque::new(); n_in],
            out_queues: vec![VecDeque::new(); n_out],
            in_stop: vec![false; n_in],
            sched_step: 0,
            in_channels,
            out_channels,
            stats: PatientStats::default(),
            violations,
            queue_capacity: PORT_QUEUE_CAPACITY,
            frame_in: PortValues::empty(n_in),
            frame_out: PortValues::empty(n_out),
        }
    }

    /// Handle to the progress counters.
    pub fn stats(&self) -> PatientStats {
        self.stats.clone()
    }

    /// The policy's model name ("comb", "fsm", "shiftreg", "sp").
    pub fn model_name(&self) -> &'static str {
        self.policy.model_name()
    }

    fn not_empty(&self) -> Vec<bool> {
        self.in_queues.iter().map(|q| !q.is_empty()).collect()
    }

    fn not_full(&self) -> Vec<bool> {
        self.out_queues
            .iter()
            .map(|q| q.len() < self.queue_capacity)
            .collect()
    }
}

impl Component for PatientProcess {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        // Registered on every face: stops toward inputs, queue heads
        // toward outputs; channel reads happen at the clock edge.
        let mut p = Ports::none();
        for ch in &self.in_channels {
            p = p.merge(ch.consumer_ports());
        }
        for ch in &self.out_channels {
            p = p.merge(ch.producer_ports());
        }
        p
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        for (i, ch) in self.in_channels.iter().enumerate() {
            ch.write_stop(sigs, self.in_stop[i]);
        }
        for (o, ch) in self.out_channels.iter().enumerate() {
            let tok = self.out_queues[o]
                .front()
                .map_or(Token::Void, |&v| Token::Data(v));
            ch.write_token(sigs, tok);
        }
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let mut changed = false;
        // 1. Output channels consume heads unless stalled.
        for (o, ch) in self.out_channels.iter().enumerate() {
            if !ch.read_stop(sigs) && !self.out_queues[o].is_empty() {
                self.out_queues[o].pop_front();
                changed = true;
            }
        }

        // 2. The policy decides on the registered queue state.
        let ne = self.not_empty();
        let nf = self.not_full();
        let decision = self.policy.decide(&ne, &nf);

        // 3. Fire the pearl. I/O follows the pearl's schedule position
        //    (identical to the decision masks for safe programs; a
        //    superset during the free-run of burst operations).
        if decision.fire {
            changed = true;
            let io = self.pearl.schedule().at(self.sched_step);
            self.frame_in.clear();
            for port in io.reads.iter() {
                match self.in_queues[port].pop_front() {
                    Some(v) => self.frame_in.set(port, v),
                    None => {
                        // Static wrappers and burst runs can pop empty
                        // queues; record the protocol violation and feed
                        // a poisoned value.
                        self.violations.record();
                        self.frame_in.set(port, 0);
                    }
                }
            }
            self.frame_out.clear();
            self.pearl.clock(&self.frame_in, &mut self.frame_out);
            for (port, value) in self.frame_out.occupied() {
                if self.out_queues[port].len() < self.queue_capacity {
                    self.out_queues[port].push_back(value);
                } else {
                    self.violations.record();
                }
            }
            self.sched_step = (self.sched_step + 1) % self.pearl.schedule().period();
            self.stats.fired.fetch_add(1, Ordering::Relaxed);
        } else {
            // Diagnostic only: counts *executed* stalled ticks (cycles
            // skipped as quiescent are not simulated at all).
            self.stats.stalled.fetch_add(1, Ordering::Relaxed);
        }
        changed |= self.policy.commit(decision.fire);

        // 4. Input channels deliver (transfers gated by the stop we
        //    presented this cycle).
        for (i, ch) in self.in_channels.iter().enumerate() {
            if !self.in_stop[i] {
                if let Token::Data(v) = ch.read_token(sigs) {
                    changed = true;
                    if self.in_queues[i].len() < self.queue_capacity {
                        self.in_queues[i].push_back(v);
                    } else {
                        self.violations.record();
                    }
                }
            }
            let stop = self.in_queues[i].len() >= self.queue_capacity;
            changed |= stop != self.in_stop[i];
            self.in_stop[i] = stop;
        }
        Activity::from_changed(changed)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.sched_step as u64);
        for q in self.in_queues.iter().chain(&self.out_queues) {
            out.push(q.len() as u64);
            out.extend(q.iter().copied());
        }
        for &stop in &self.in_stop {
            out.push(stop as u64);
        }
        let mut policy = Vec::new();
        self.policy.save_state(&mut policy);
        out.push(policy.len() as u64);
        out.extend(policy);
        // The pearl's blob goes last; like the policy's it is
        // self-describing, so no trailing length is needed.
        self.pearl.save_state(out);
    }

    fn load_state(&mut self, data: &[u64]) {
        self.sched_step = data[0] as usize;
        let mut at = 1;
        for q in self.in_queues.iter_mut().chain(&mut self.out_queues) {
            let n = data[at] as usize;
            *q = data[at + 1..at + 1 + n].iter().copied().collect();
            at += 1 + n;
        }
        for stop in &mut self.in_stop {
            *stop = data[at] != 0;
            at += 1;
        }
        let n_policy = data[at] as usize;
        self.policy.load_state(&data[at + 1..at + 1 + n_policy]);
        self.pearl.load_state(&data[at + 1 + n_policy..]);
    }
}

/// Rewrites a [`PatientProcess`] [`save_state`](PatientProcess) blob
/// with input ports `a` and `b` exchanged: their pending-input queues
/// and registered stop flags swap places, and `swap_pearl` is applied
/// in place to the trailing pearl blob so pearl-internal per-port state
/// can follow the relabeling. Output queues, the schedule position, and
/// the policy blob are copied verbatim — callers must only use this on
/// wrappers whose policy state is port-symmetric between `a` and `b`
/// (true of every policy that keys decisions off the schedule alone).
///
/// This is the wrapper half of the bounded model checker's symmetry
/// reduction: two structurally interchangeable source branches induce
/// an involution on saved lane states, and the branch-local pieces
/// (sources, relay stations) swap as whole component blobs while the
/// shared wrapper needs this port-level splice.
///
/// # Panics
///
/// Panics if the blob is shorter than the declared `n_in`/`n_out`
/// layout requires.
pub fn swap_patient_inputs(
    blob: &[u64],
    n_in: usize,
    n_out: usize,
    a: usize,
    b: usize,
    swap_pearl: impl FnOnce(&mut [u64]),
) -> Vec<u64> {
    assert!(a < n_in && b < n_in, "swapped ports must be input ports");
    // Layout (see `PatientProcess::save_state`): sched_step, then
    // `n_in + n_out` length-prefixed queues, `n_in` stop flags, the
    // length-prefixed policy blob, and the self-describing pearl blob.
    let mut at = 1usize;
    let queues: Vec<(usize, usize)> = (0..n_in + n_out)
        .map(|_| {
            let len = blob[at] as usize;
            let range = (at, at + 1 + len);
            at = range.1;
            range
        })
        .collect();
    let stops = at;
    at += n_in;
    let policy_end = at + 1 + blob[at] as usize;

    let mut out = Vec::with_capacity(blob.len());
    out.push(blob[0]);
    for q in 0..n_in + n_out {
        let src = if q == a {
            b
        } else if q == b {
            a
        } else {
            q
        };
        let (start, end) = queues[src];
        out.extend_from_slice(&blob[start..end]);
    }
    for i in 0..n_in {
        let src = if i == a {
            b
        } else if i == b {
            a
        } else {
            i
        };
        out.extend_from_slice(&blob[stops + src..stops + src + 1]);
    }
    out.extend_from_slice(&blob[stops + n_in..policy_end]);
    let pearl_at = out.len();
    out.extend_from_slice(&blob[policy_end..]);
    swap_pearl(&mut out[pearl_at..]);
    out
}

/// Builds the standard single-pearl test bench: source channels feeding
/// the patient process, which feeds sink channels.
///
/// Returns the input channels (to be driven) and output channels (to be
/// consumed).
pub fn wrap_pearl(
    system: &mut System,
    name: &str,
    pearl: Box<dyn Pearl>,
    policy: Box<dyn SyncPolicy>,
    violations: &ViolationCounter,
) -> (Vec<LisChannel>, Vec<LisChannel>, PatientStats) {
    let iface = pearl.interface();
    let in_channels: Vec<LisChannel> = iface
        .inputs()
        .map(|p| LisChannel::new(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let out_channels: Vec<LisChannel> = iface
        .outputs()
        .map(|p| LisChannel::new(system, &format!("{name}_{}", p.name), p.width))
        .collect();
    let pp = PatientProcess::new(
        name,
        pearl,
        policy,
        in_channels.clone(),
        out_channels.clone(),
        violations.clone(),
    );
    let stats = pp.stats();
    system.add_component(pp);
    (in_channels, out_channels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CombPolicy, FsmPolicy, ShiftRegPolicy, SpPolicy};
    use lis_proto::{AccumulatorPearl, TokenSink, TokenSource};

    /// Runs an accumulator pearl under the given policy, feeding
    /// `n_tokens` tokens per port; returns the received stream and the
    /// violation count. Stops early once `want` outputs arrived.
    fn run_accumulator_n(
        policy_for: impl Fn(&lis_schedule::IoSchedule) -> Box<dyn SyncPolicy>,
        src_stall: f64,
        sink_stall: f64,
        cycles: u64,
        n_tokens: u64,
        want: usize,
    ) -> (Vec<u64>, u64) {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let pearl = AccumulatorPearl::new("acc", 2, 1, 3);
        let policy = policy_for(pearl.schedule());
        let (ins, outs, _stats) = wrap_pearl(&mut sys, "pp", Box::new(pearl), policy, &violations);
        sys.add_component(
            TokenSource::new("s0", ins[0], (1..=n_tokens).map(|v| v * 10))
                .with_stalls(src_stall, 7),
        );
        sys.add_component(TokenSource::new("s1", ins[1], 1..=n_tokens).with_stalls(src_stall, 8));
        let sink = TokenSink::new("sink", outs[0]).with_stalls(sink_stall, 9);
        let got = sink.received();
        sys.add_component(sink);
        sys.run_until(cycles, |_| got.lock().unwrap().len() >= want)
            .unwrap();
        let result = got.lock().unwrap().clone();
        (result, violations.count())
    }

    /// As [`run_accumulator_n`] with 20 tokens, expecting all 20 outputs.
    fn run_accumulator(
        policy_for: impl Fn(&lis_schedule::IoSchedule) -> Box<dyn SyncPolicy>,
        src_stall: f64,
        sink_stall: f64,
        cycles: u64,
    ) -> (Vec<u64>, u64) {
        run_accumulator_n(policy_for, src_stall, sink_stall, cycles, 20, usize::MAX)
    }

    /// Expected accumulator outputs for the streams above.
    fn expected(n: u64) -> Vec<u64> {
        let mut acc = 0;
        (1..=n)
            .map(|i| {
                acc += i * 10 + i;
                acc
            })
            .collect()
    }

    #[test]
    fn sp_wrapper_computes_correctly_on_smooth_streams() {
        let (got, violations) =
            run_accumulator(|s| Box::new(SpPolicy::from_schedule(s)), 0.0, 0.0, 400);
        assert_eq!(got, expected(20));
        assert_eq!(violations, 0);
    }

    #[test]
    fn fsm_and_sp_agree_under_irregular_streams() {
        let (got_fsm, v1) =
            run_accumulator(|s| Box::new(FsmPolicy::new(s.clone())), 0.4, 0.3, 2000);
        let (got_sp, v2) =
            run_accumulator(|s| Box::new(SpPolicy::from_schedule(s)), 0.4, 0.3, 2000);
        assert_eq!(got_fsm, expected(20));
        assert_eq!(got_sp, expected(20));
        assert_eq!(v1 + v2, 0);
    }

    #[test]
    fn comb_wrapper_is_correct_but_slower() {
        // The comb wrapper stalls whenever ANY port is idle, so it halts
        // for good once the finite sources dry up — feed a few extra
        // tokens beyond the 20 periods we check.
        let (got, violations) = run_accumulator_n(
            |s| Box::new(CombPolicy::new(s.clone())),
            0.2,
            0.2,
            5000,
            25,
            20,
        );
        assert!(got.len() >= 20, "only {} outputs arrived", got.len());
        assert_eq!(&got[..20], &expected(25)[..20]);
        assert_eq!(violations, 0);
    }

    #[test]
    fn comb_utilization_is_below_fsm_on_skewed_traffic() {
        // Port 1 data arrives rarely: FSM only waits for it at its sync
        // point; comb waits for it on EVERY cycle.
        let util = |policy: Box<dyn SyncPolicy>| {
            let mut sys = System::new();
            let violations = ViolationCounter::new();
            let pearl = AccumulatorPearl::new("acc", 2, 1, 6);
            let (ins, outs, stats) =
                wrap_pearl(&mut sys, "pp", Box::new(pearl), policy, &violations);
            sys.add_component(TokenSource::new("s0", ins[0], 1..=100));
            sys.add_component(TokenSource::new("s1", ins[1], 1..=100).with_stalls(0.7, 3));
            sys.add_component(TokenSink::new("k", outs[0]));
            sys.run(600).unwrap();
            stats.utilization()
        };
        let pearl = AccumulatorPearl::new("acc", 2, 1, 6);
        let schedule = pearl.schedule().clone();
        let u_fsm = util(Box::new(FsmPolicy::new(schedule.clone())));
        let u_comb = util(Box::new(CombPolicy::new(schedule)));
        assert!(
            u_fsm > u_comb,
            "subset sensing must beat all-port sensing: fsm={u_fsm:.3} comb={u_comb:.3}"
        );
    }

    #[test]
    fn shiftreg_corrupts_data_under_irregular_streams() {
        let (got, violations) = run_accumulator(
            |s| Box::new(ShiftRegPolicy::full_rate(s.clone())),
            0.5,
            0.0,
            500,
        );
        // Either tokens are missing/corrupt or violations fired (popping
        // empty queues) — the static wrapper needs regular streams.
        let ok = got == expected(20) && violations == 0;
        assert!(!ok, "static wrapper cannot survive 50% source stalls");
    }

    #[test]
    fn shiftreg_works_on_perfectly_regular_streams() {
        // Casu-style static activation: one idle slot per period to cover
        // the pipeline-fill latency of the first token, then free-running.
        // Stop at the 20th output — a static wrapper keeps firing after
        // the streams end (it cannot know they did), which is legal only
        // while data keeps coming.
        let (got, violations) = run_accumulator_n(
            |s| {
                let mut pattern = vec![true; s.period()];
                pattern[0] = false;
                Box::new(ShiftRegPolicy::with_pattern(s.clone(), pattern))
            },
            0.0,
            0.0,
            500,
            22, // one spare period so the run stops before starvation
            20,
        );
        assert_eq!(violations, 0, "ideal streams keep the static wrapper legal");
        assert!(got.len() >= 20);
        assert_eq!(&got[..20], &expected(22)[..20]);
    }

    #[test]
    fn burst_sp_is_correct_on_smooth_streams() {
        // Burst operations stream I/O through runs unchecked; with
        // ideal sources the 2-deep ports refill every cycle and the
        // result matches the safe-mode wrapper.
        let (got, violations) = run_accumulator_n(
            |s| Box::new(SpPolicy::from_schedule_bursty(s)),
            0.0,
            0.0,
            800,
            20,
            20,
        );
        assert_eq!(violations, 0);
        assert_eq!(got, expected(20));
    }

    #[test]
    fn burst_sp_underruns_on_stalling_streams() {
        // The same burst program against a stalling source: the run
        // outpaces the arrivals and the wrapper pops empty queues —
        // exactly the hazard `lis_schedule::burst_buffer_requirements`
        // quantifies. (Safe-mode compression is immune; see
        // fsm_and_sp_agree_under_irregular_streams.)
        let pearl = AccumulatorPearl::new("acc", 2, 1, 3);
        let req = lis_schedule::burst_buffer_requirements(pearl.schedule());
        assert!(
            req.safe_with(2),
            "this pearl's bursts fit 2-deep ports; use a burstier one"
        );
        // Build a genuinely bursty schedule: 8 consecutive reads fold
        // into one op, exceeding the 2-deep port queue.
        let schedule = lis_schedule::ScheduleBuilder::new(1, 1)
            .repeat_io([0], [], 8)
            .quiet(4)
            .write(0)
            .build()
            .unwrap();
        let req = lis_schedule::burst_buffer_requirements(&schedule);
        assert!(!req.safe_with(2));

        let run = |stall: f64| {
            let mut sys = System::new();
            let violations = ViolationCounter::new();
            // An echo pearl: sums each 8-read burst.
            #[derive(Debug)]
            struct BurstSum {
                iface: lis_schedule::Interface,
                schedule: lis_schedule::IoSchedule,
                step: usize,
                acc: u64,
            }
            impl lis_proto::Pearl for BurstSum {
                fn name(&self) -> &str {
                    "burstsum"
                }
                fn interface(&self) -> &lis_schedule::Interface {
                    &self.iface
                }
                fn schedule(&self) -> &lis_schedule::IoSchedule {
                    &self.schedule
                }
                fn clock(&mut self, inputs: &PortValues, out: &mut PortValues) {
                    let io = self.schedule.at(self.step);
                    if io.reads.contains(0) {
                        self.acc += inputs.get(0).expect("scheduled");
                    }
                    if io.writes.contains(0) {
                        out.set(0, self.acc);
                        self.acc = 0;
                    }
                    self.step = (self.step + 1) % self.schedule.period();
                }
                fn reset(&mut self) {
                    self.step = 0;
                    self.acc = 0;
                }
            }
            let pearl = BurstSum {
                iface: lis_schedule::Interface::new(vec![
                    lis_schedule::PortSpec::input("x", 32),
                    lis_schedule::PortSpec::output("y", 32),
                ]),
                schedule: schedule.clone(),
                step: 0,
                acc: 0,
            };
            let policy = Box::new(SpPolicy::from_schedule_bursty(&schedule));
            let (ins, outs, _) = wrap_pearl(&mut sys, "pp", Box::new(pearl), policy, &violations);
            sys.add_component(TokenSource::new("src", ins[0], 1..=80).with_stalls(stall, 13));
            let sink = TokenSink::new("k", outs[0]);
            let got = sink.received();
            sys.add_component(sink);
            sys.run(600).unwrap();
            let result = got.lock().unwrap().clone();
            (result, violations.count())
        };

        let (smooth, v_smooth) = run(0.0);
        // Smooth streams: every burst of 8 sums correctly (1..8 = 36, …).
        assert_eq!(v_smooth, 0);
        assert_eq!(smooth[0], 36);
        let (_stalled, v_stalled) = run(0.5);
        assert!(
            v_stalled > 0,
            "a 50%-stalling source must underrun an 8-deep burst on 2-deep ports"
        );
    }

    #[test]
    fn stats_track_fired_and_stalled() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let pearl = AccumulatorPearl::new("acc", 1, 1, 1);
        let schedule = pearl.schedule().clone();
        let (ins, outs, stats) = wrap_pearl(
            &mut sys,
            "pp",
            Box::new(pearl),
            Box::new(FsmPolicy::new(schedule)),
            &violations,
        );
        sys.add_component(TokenSource::new("s", ins[0], 1..=3));
        sys.add_component(TokenSink::new("k", outs[0]));
        sys.run(50).unwrap();
        assert!(stats.fired() >= 9, "3 periods × 3 cycles");
        assert!(stats.stalled() > 0, "source exhausts; wrapper must stall");
        assert!(stats.utilization() > 0.0 && stats.utilization() < 1.0);
    }

    #[test]
    fn swap_patient_inputs_is_an_involution_and_loads_cleanly() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let pearl = AccumulatorPearl::new("acc", 2, 1, 3);
        let policy = Box::new(SpPolicy::from_schedule(pearl.schedule()));
        let (ins, _outs, _stats) = wrap_pearl(&mut sys, "pp", Box::new(pearl), policy, &violations);
        // Skewed feeding: port 1's source exhausts early, so the two
        // input queues end up observably different.
        sys.add_component(TokenSource::new("s0", ins[0], (1..=20u64).map(|v| v * 10)));
        sys.add_component(TokenSource::new("s1", ins[1], 1..=4u64));
        sys.run(15).unwrap();
        let mut ck = sys.checkpoint();
        let blob = ck.component_states[0].clone();
        let swapped = swap_patient_inputs(&blob, 2, 1, 0, 1, |_| {});
        assert_ne!(swapped, blob, "skewed ports must be distinguishable");
        let back = swap_patient_inputs(&swapped, 2, 1, 0, 1, |_| {});
        assert_eq!(back, blob, "the swap is an involution");
        // The spliced blob is a valid save_state: restoring it and
        // saving again reproduces it bit-for-bit.
        ck.component_states[0] = swapped.clone();
        sys.restore(&ck);
        assert_eq!(sys.checkpoint().component_states[0], swapped);
    }
}
