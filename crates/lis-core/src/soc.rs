//! SoC assembly: patient processes, channels, relay stations, sources
//! and sinks, composed into a runnable system.
//!
//! This is the level at which the LIS methodology operates: IPs are
//! encapsulated, long wires are segmented with relay stations, and the
//! resulting system is correct for *any* latency assignment.

use crate::{Fabric, IpHandle};
use lis_netlist::Module;
use lis_proto::{
    LisChannel, Pearl, RelayStation, SeqSink, SeqSource, StallControl, StallPattern, TokenSink,
    TokenSource, ViolationCounter, Wire,
};
use lis_sim::{SchedulerStats, SettleMode, SimError, System, Trace};
use lis_wrappers::{wrap_pearl, wrap_pearl_full_netlist, PatientStats, SyncPolicy, WrapperKind};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// Incremental SoC constructor.
///
/// # Examples
///
/// The README quickstart, runnable: one accumulator pearl behind an SP
/// wrapper, a stalling source, and a recording sink.
///
/// ```
/// use lis_core::SocBuilder;
/// use lis_proto::AccumulatorPearl;
/// use lis_wrappers::WrapperKind;
///
/// # fn main() -> Result<(), lis_sim::SimError> {
/// let mut b = SocBuilder::new();
/// let ip = b.add_ip(
///     "acc",
///     Box::new(AccumulatorPearl::new("acc", 1, 1, 2)),
///     WrapperKind::Sp,
/// );
/// b.feed("src", ip.inputs[0], 1..=5, 0.3, 7); // 30% stalls, seed 7
/// b.capture("out", ip.outputs[0], 0.2, 8);
/// let mut soc = b.build();
/// soc.run(100)?;
/// // Latency insensitivity: stalls change *when* tokens arrive, never
/// // *what* arrives.
/// assert_eq!(soc.received("out"), vec![1, 3, 6, 10, 15]);
/// assert_eq!(soc.violations(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SocBuilder {
    system: System,
    violations: ViolationCounter,
    stats: HashMap<String, PatientStats>,
    sinks: HashMap<String, Arc<Mutex<Vec<u64>>>>,
    trace: Trace,
}

impl Default for SocBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SocBuilder {
    /// Starts an empty SoC.
    pub fn new() -> Self {
        SocBuilder {
            system: System::new(),
            violations: ViolationCounter::new(),
            stats: HashMap::new(),
            sinks: HashMap::new(),
            trace: Trace::new(),
        }
    }

    /// Records a channel's three wires (`data`/`void`/`stop`) in the
    /// SoC's waveform trace; see [`Soc::vcd`].
    pub fn watch_channel(&mut self, label: &str, channel: LisChannel) {
        self.trace
            .watch(format!("{label}_data"), &self.system, channel.data);
        self.trace
            .watch(format!("{label}_void"), &self.system, channel.void);
        self.trace
            .watch(format!("{label}_stop"), &self.system, channel.stop);
    }

    /// Encapsulates `pearl` behind a behavioural wrapper of the given
    /// kind and instantiates it: the one-lane [`Fabric::add_ip`].
    pub fn add_ip(
        &mut self,
        name: impl Into<String>,
        pearl: Box<dyn Pearl>,
        kind: WrapperKind,
    ) -> IpHandle {
        Fabric::add_ip(self, name, vec![pearl], kind)
    }

    /// Encapsulates `pearl` behind an explicit synchronization policy
    /// (e.g. a [`lis_wrappers::ShiftRegPolicy`] with a hand-computed
    /// activation pattern).
    pub fn add_ip_with_policy(
        &mut self,
        name: impl Into<String>,
        pearl: Box<dyn Pearl>,
        policy: Box<dyn SyncPolicy>,
    ) -> IpHandle {
        let name = name.into();
        let (inputs, outputs, stats) =
            wrap_pearl(&mut self.system, &name, pearl, policy, &self.violations);
        self.stats.insert(name.clone(), stats);
        IpHandle {
            name,
            inputs,
            outputs,
        }
    }

    /// Encapsulates `pearl` behind the *complete* gate-level shell: the
    /// controller of `kind` plus one gate-level FIFO per port, run as
    /// one netlist on the scalar JIT. This is the paper's Figure 2 in
    /// gates; only the pearl stays behavioural. The one-lane
    /// [`Fabric::add_ip_full_netlist`].
    ///
    /// # Panics
    ///
    /// Panics naming the IP if `kind` is [`WrapperKind::Comb`] or
    /// [`WrapperKind::ShiftReg`]: their controllers do not pop and push
    /// on the pearl's schedule (see
    /// [`WrapperKind::shell_controller`]).
    pub fn add_ip_full_netlist(
        &mut self,
        name: impl Into<String>,
        pearl: Box<dyn Pearl>,
        kind: WrapperKind,
    ) -> IpHandle {
        Fabric::add_ip_full_netlist(self, name, vec![pearl], kind)
    }

    /// Encapsulates `pearl` behind an explicitly provided gate-level
    /// controller inside the complete shell (controller plus port
    /// FIFOs).
    ///
    /// This is the seam for controllers whose program is *not* the
    /// default lowering of the pearl's schedule — e.g. an SP running an
    /// uncompressed or burst-compressed program
    /// ([`lis_wrappers::generate_sp`] over any
    /// [`lis_schedule::SpProgram`]). The controller must implement the
    /// pearl's schedule: the gate-level shell records no violations, so
    /// a wrong program shows only in the token streams.
    pub fn add_ip_full_netlist_with_controller(
        &mut self,
        name: impl Into<String>,
        pearl: Box<dyn Pearl>,
        controller: Module,
    ) -> IpHandle {
        let name = name.into();
        let (inputs, outputs) =
            wrap_pearl_full_netlist(&mut self.system, &name, vec![pearl], controller);
        IpHandle {
            name,
            inputs,
            outputs,
        }
    }

    /// Allocates a free-standing staging channel (useful between a
    /// source and a relayed link).
    pub fn channel(&mut self, name: &str, width: u32) -> LisChannel {
        LisChannel::new(&mut self.system, name, width)
    }

    /// Connects producer channel `from` to consumer channel `to` through
    /// `relay_count` relay stations (`0` = a plain wire).
    pub fn link(&mut self, from: LisChannel, to: LisChannel, relay_count: usize) {
        let tail = RelayStation::chain(
            &mut self.system,
            "link",
            from,
            relay_count,
            &self.violations,
        );
        let n = self.system.component_count();
        self.system
            .add_component(Wire::new(format!("wire{n}"), tail, to));
    }

    /// Attaches a token source to `channel`. `stall` is a
    /// [`StallPattern`] — a plain probability (`f64`) still works and
    /// maps to [`StallPattern::Random`] seeded with `seed`.
    pub fn feed(
        &mut self,
        name: impl Into<String>,
        channel: LisChannel,
        tokens: impl IntoIterator<Item = u64>,
        stall: impl Into<StallPattern>,
        seed: u64,
    ) {
        let src = TokenSource::new(name, channel, tokens).with_stall_pattern(stall, seed);
        self.system.add_component(src);
    }

    /// Attaches a recording sink to `channel`; results retrievable by
    /// name from [`Soc::received`]. `stall` as in [`SocBuilder::feed`].
    pub fn capture(
        &mut self,
        name: impl Into<String>,
        channel: LisChannel,
        stall: impl Into<StallPattern>,
        seed: u64,
    ) {
        let name = name.into();
        let sink = TokenSink::new(name.clone(), channel).with_stall_pattern(stall, seed);
        self.sinks.insert(name, sink.received(0));
        self.system.add_component(sink);
    }

    /// Attaches an adversary sequence source to `channel` — the replay
    /// form of a model-checker stall schedule (see
    /// [`lis_proto::SeqSource`]).
    pub fn adversary_feed(
        &mut self,
        name: impl Into<String>,
        channel: LisChannel,
        control: StallControl,
        modulus: u64,
    ) {
        self.system
            .add_component(SeqSource::new(name, channel, control, modulus));
    }

    /// Attaches an adversary sequence sink to `channel`. Order faults
    /// (dropped or duplicated tokens) land on the SoC-wide violation
    /// counter reported by [`Soc::violations`]; the returned one-lane
    /// counter counts informative deliveries, the progress signal a
    /// deadlock check watches.
    pub fn adversary_capture(
        &mut self,
        name: impl Into<String>,
        channel: LisChannel,
        control: StallControl,
        modulus: u64,
    ) -> Arc<[AtomicU64]> {
        let sink = SeqSink::new(name, channel, control, modulus, &self.violations);
        let delivered = sink.delivered();
        self.system.add_component(sink);
        delivered
    }

    /// Shared handle to the SoC-wide violation counter — lets
    /// externally built components (mutant relays, custom checkers)
    /// report faults through [`Soc::violations`].
    pub fn violations_handle(&self) -> ViolationCounter {
        self.violations.clone()
    }

    /// Mutable access to the underlying [`System`] — for attaching
    /// custom components (adapters, probes) the builder has no
    /// dedicated method for.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// Sets the settle strategy of the underlying [`System`] (default:
    /// the activity kernel, [`SettleMode::FastForward`];
    /// [`SettleMode::FullSweep`] is the reference).
    pub fn set_settle_mode(&mut self, mode: SettleMode) {
        self.system.set_settle_mode(mode);
    }

    /// Finalizes the SoC.
    pub fn build(self) -> Soc {
        Soc {
            system: self.system,
            violations: self.violations,
            stats: self.stats,
            sinks: self.sinks,
            trace: self.trace,
        }
    }
}

/// The one-lane fabric: every method delegates to the [`SocBuilder`]
/// method of the same name, taking lane 0's pearl, policy, tokens and
/// stalls.
impl Fabric for SocBuilder {
    type Channel = LisChannel;

    fn lanes(&self) -> usize {
        1
    }

    fn channel(&mut self, name: &str, width: u32) -> LisChannel {
        SocBuilder::channel(self, name, width)
    }

    fn link(&mut self, from: &LisChannel, to: &LisChannel, relay_count: usize) {
        SocBuilder::link(self, *from, *to, relay_count);
    }

    fn feed(
        &mut self,
        name: impl Into<String>,
        channel: &LisChannel,
        mut per_lane: impl FnMut(usize) -> (Vec<u64>, StallPattern, u64),
    ) {
        let (tokens, stall, seed) = per_lane(0);
        SocBuilder::feed(self, name, *channel, tokens, stall, seed);
    }

    fn capture(
        &mut self,
        name: impl Into<String>,
        channel: &LisChannel,
        mut per_lane: impl FnMut(usize) -> (StallPattern, u64),
    ) {
        let (stall, seed) = per_lane(0);
        SocBuilder::capture(self, name, *channel, stall, seed);
    }

    fn add_ip_with_policies(
        &mut self,
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        policies: Vec<Box<dyn SyncPolicy>>,
    ) -> IpHandle {
        self.add_ip_with_policy(name, only(pearls, "pearl"), only(policies, "policy"))
    }

    fn add_ip_full_netlist_with_controller(
        &mut self,
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        controller: Module,
    ) -> IpHandle {
        SocBuilder::add_ip_full_netlist_with_controller(
            self,
            name,
            only(pearls, "pearl"),
            controller,
        )
    }
}

/// The one entry of a one-lane list.
fn only<T>(mut items: Vec<T>, what: &str) -> T {
    assert_eq!(items.len(), 1, "a SoC takes one {what} per IP");
    items.pop().expect("one entry")
}

/// A runnable latency-insensitive system.
#[derive(Debug)]
pub struct Soc {
    system: System,
    violations: ViolationCounter,
    stats: HashMap<String, PatientStats>,
    sinks: HashMap<String, Arc<Mutex<Vec<u64>>>>,
    trace: Trace,
}

impl Soc {
    fn step_traced(&mut self) -> Result<(), SimError> {
        self.system.settle()?;
        if !self.trace.is_unwatched() {
            self.trace.sample(&mut self.system);
        }
        self.system.step()
    }

    /// Runs `cycles` clock cycles (saturating at `u64::MAX`).
    ///
    /// Under [`SettleMode::FastForward`] the loop is target-based: after
    /// each executed cycle the system may jump the clock over a fully
    /// quiescent span, so fewer than `cycles` cycles are *visited* while
    /// the cycle counter still advances by exactly `cycles`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (combinational-loop detection).
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        let target = self.system.cycle().saturating_add(cycles);
        while self.system.cycle() < target {
            self.step_traced()?;
            self.system.fast_forward(target);
        }
        Ok(())
    }

    /// Runs until `predicate(self)` holds or `max_cycles` pass; returns
    /// whether it fired. The predicate is checked after each *visited*
    /// cycle (fast-forwarded spans cannot change observable state).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut predicate: impl FnMut(&Soc) -> bool,
    ) -> Result<bool, SimError> {
        let target = self.system.cycle().saturating_add(max_cycles);
        while self.system.cycle() < target {
            self.step_traced()?;
            if predicate(self) {
                return Ok(true);
            }
            self.system.fast_forward(target);
        }
        Ok(false)
    }

    /// Runs until the system makes no progress (no patient process fires
    /// and no sink receives) for `idle_window` consecutive cycles, or
    /// `max_cycles` elapse. Returns the number of cycles the clock
    /// advanced (under [`SettleMode::FastForward`] that includes jumped
    /// cycles, which are idle by construction).
    ///
    /// A latency-insensitive system that quiesces with unconsumed input
    /// is deadlocked (e.g. a comb wrapper starving on an idle port);
    /// this is the diagnostic to catch it.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn run_until_quiescent(
        &mut self,
        max_cycles: u64,
        idle_window: u64,
    ) -> Result<u64, SimError> {
        let start = self.system.cycle();
        let target = start.saturating_add(max_cycles);
        let mut last = self.progress();
        let mut last_progress_cycle = start;
        while self.system.cycle() < target
            && self.system.cycle() - last_progress_cycle < idle_window
        {
            self.step_traced()?;
            let now = self.progress();
            if now != last {
                last = now;
                last_progress_cycle = self.system.cycle();
            }
            // Never jump past the idle deadline: quiescence must be
            // reported at the same cycle count as a stepped run.
            self.system
                .fast_forward(target.min(last_progress_cycle.saturating_add(idle_window)));
        }
        Ok(self.system.cycle() - start)
    }

    /// A monotone progress counter: total fired cycles across
    /// behavioural patient processes plus total tokens received by
    /// sinks.
    pub fn progress(&self) -> u64 {
        let fired: u64 = self.stats.values().map(PatientStats::fired).sum();
        let received: u64 = self
            .sinks
            .values()
            .map(|s| s.lock().unwrap().len() as u64)
            .sum();
        fired + received
    }

    /// The recorded waveform as a VCD document (channels registered via
    /// [`SocBuilder::watch_channel`]).
    pub fn vcd(&self, top: &str) -> String {
        self.trace.to_vcd(top)
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.system.cycle()
    }

    /// Scheduler statistics: the structural shape (groups, levels, SCC
    /// census) plus — under [`SettleMode::FastForward`] — the
    /// cumulative skip/eval/tick counters of the run so far.
    pub fn scheduler_stats(&mut self) -> SchedulerStats {
        self.system.scheduler_stats()
    }

    /// The underlying simulation system (e.g. for differential signal
    /// snapshots or scheduler statistics).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the underlying system.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// The informative stream captured by sink `name` so far.
    ///
    /// # Panics
    ///
    /// Panics if no sink has that name.
    pub fn received(&self, name: &str) -> Vec<u64> {
        self.sinks
            .get(name)
            .unwrap_or_else(|| panic!("no sink named {name}"))
            .lock()
            .unwrap()
            .clone()
    }

    /// Protocol violations observed so far (0 in a correct system).
    pub fn violations(&self) -> u64 {
        self.violations.count()
    }

    /// Utilization (fired / total cycles) of the named behavioural IP.
    pub fn utilization(&self, ip: &str) -> Option<f64> {
        self.stats.get(ip).map(PatientStats::utilization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_proto::AccumulatorPearl;

    fn accumulator_soc(kind: WrapperKind) -> (Soc, &'static str) {
        let mut b = SocBuilder::new();
        let ip = b.add_ip("acc", Box::new(AccumulatorPearl::new("acc", 1, 1, 2)), kind);
        b.feed("src", ip.inputs[0], 1..=10, 0.0, 1);
        b.capture("out", ip.outputs[0], 0.0, 2);
        (b.build(), "out")
    }

    #[test]
    fn single_ip_soc_streams_data() {
        let (mut soc, sink) = accumulator_soc(WrapperKind::Sp);
        soc.run(100).unwrap();
        let got = soc.received(sink);
        let expected: Vec<u64> = (1..=10)
            .scan(0u64, |acc, v| {
                *acc += v;
                Some(*acc)
            })
            .collect();
        assert_eq!(got, expected);
        assert_eq!(soc.violations(), 0);
        assert!(soc.utilization("acc").unwrap() > 0.0);
    }

    #[test]
    fn two_stage_pipeline_with_relays() {
        let mut b = SocBuilder::new();
        let first = b.add_ip(
            "first",
            Box::new(AccumulatorPearl::new("a1", 1, 1, 1)),
            WrapperKind::Sp,
        );
        let second = b.add_ip(
            "second",
            Box::new(AccumulatorPearl::new("a2", 1, 1, 1)),
            WrapperKind::Fsm(Default::default()),
        );
        b.feed("src", first.inputs[0], 1..=8, 0.2, 3);
        b.link(first.outputs[0], second.inputs[0], 3);
        b.capture("out", second.outputs[0], 0.1, 4);
        let mut soc = b.build();
        soc.run(400).unwrap();
        // first: running sums of 1..=8; second: running sums of those.
        let first_sums: Vec<u64> = (1..=8)
            .scan(0u64, |a, v| {
                *a += v;
                Some(*a)
            })
            .collect();
        let expected: Vec<u64> = first_sums
            .iter()
            .scan(0u64, |a, &v| {
                *a += v;
                Some(*a)
            })
            .collect();
        assert_eq!(soc.received("out"), expected);
        assert_eq!(soc.violations(), 0);
    }

    #[test]
    fn netlist_backed_ip_matches_behavioural() {
        let run_one = |hardware: bool| {
            let mut b = SocBuilder::new();
            let pearl = Box::new(AccumulatorPearl::new("acc", 1, 1, 3));
            let ip = if hardware {
                b.add_ip_full_netlist("acc", pearl, WrapperKind::Sp)
            } else {
                b.add_ip("acc", pearl, WrapperKind::Sp)
            };
            b.feed("src", ip.inputs[0], (1..=12).map(|v| v * 2), 0.3, 9);
            b.capture("out", ip.outputs[0], 0.2, 10);
            let mut soc = b.build();
            soc.run(600).unwrap();
            assert_eq!(soc.violations(), 0);
            soc.received("out")
        };
        assert_eq!(run_one(false), run_one(true));
    }

    /// The comb controller pops and pushes every port on every enabled
    /// cycle. Fed `7, 14, …` and `1, 2, …` without stalls, its full
    /// shell would deliver `[0, 0, 0, 0, 0, 8, …]` where the behavioural
    /// comb wrapper delivers `[8, 24, 48, …]`; the builder refuses it.
    #[test]
    #[should_panic(
        expected = "IP acc: the gate-level shell cannot run a comb controller: \
                    it pops and pushes every port on every enabled cycle"
    )]
    fn full_shell_refuses_a_comb_controller() {
        let mut b = SocBuilder::new();
        let pearl = Box::new(AccumulatorPearl::new("acc", 2, 1, 4));
        b.add_ip_full_netlist("acc", pearl, WrapperKind::Comb);
    }

    #[test]
    fn soc_traces_channels_to_vcd() {
        let mut b = SocBuilder::new();
        let ip = b.add_ip(
            "acc",
            Box::new(AccumulatorPearl::new("acc", 1, 1, 1)),
            WrapperKind::Sp,
        );
        b.watch_channel("in", ip.inputs[0]);
        b.watch_channel("out", ip.outputs[0]);
        b.feed("src", ip.inputs[0], 1..=3, 0.0, 1);
        b.capture("sink", ip.outputs[0], 0.0, 2);
        let mut soc = b.build();
        soc.run(30).unwrap();
        assert_eq!(soc.cycle(), 30);
        let vcd = soc.vcd("soc");
        assert!(vcd.contains("$var wire 32 ! in_data $end"));
        assert!(vcd.contains("out_void"));
        // The running sums 1, 3, 6 all reach the output wire; once the
        // drained SoC is quiescent, `run` jumps the rest of the 30
        // cycles, so the VCD ends at the last visited cycle.
        assert!(vcd.contains("b110 "), "{vcd}");
        let stamps: Vec<u64> = vcd
            .lines()
            .filter_map(|l| l.strip_prefix('#')?.parse().ok())
            .collect();
        assert_eq!(stamps[0], 0);
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
        assert!(
            *stamps.last().unwrap() < 29,
            "quiescent tail jumped: {stamps:?}"
        );
    }

    #[test]
    fn quiescence_detects_end_of_stream() {
        let mut b = SocBuilder::new();
        let ip = b.add_ip(
            "acc",
            Box::new(AccumulatorPearl::new("acc", 1, 1, 1)),
            WrapperKind::Sp,
        );
        b.feed("src", ip.inputs[0], 1..=5, 0.0, 1);
        b.capture("out", ip.outputs[0], 0.0, 2);
        let mut soc = b.build();
        let executed = soc.run_until_quiescent(10_000, 20).unwrap();
        assert!(executed < 10_000, "must quiesce well before the budget");
        assert_eq!(soc.received("out").len(), 5, "all work done first");
        assert!(soc.progress() >= 5);
    }

    /// Unbounded budgets after some elapsed cycles saturate instead of
    /// overflowing: each loop runs to its own stop condition, and once
    /// the system is quiescent the event wheel jumps an unbounded run
    /// straight to the end of time.
    #[test]
    fn unbounded_budgets_saturate_after_elapsed_cycles() {
        let (mut soc, sink) = accumulator_soc(WrapperKind::Sp);
        soc.run(3).unwrap();
        assert!(soc
            .run_until(u64::MAX, |s| s.received(sink).len() == 10)
            .unwrap());
        let idle = soc.run_until_quiescent(u64::MAX, 50).unwrap();
        assert!(
            (50..10_000).contains(&idle),
            "stops after the idle window: {idle}"
        );
        soc.run(u64::MAX).unwrap();
        assert_eq!(soc.cycle(), u64::MAX);
        assert_eq!(soc.received(sink).len(), 10);
    }

    #[test]
    fn quiescence_exposes_comb_wrapper_deadlock() {
        // Two-input pearl, but only one port is fed: the comb wrapper
        // deadlocks immediately; quiescence detection reports it.
        let mut b = SocBuilder::new();
        let ip = b.add_ip(
            "acc",
            Box::new(AccumulatorPearl::new("acc", 2, 1, 1)),
            WrapperKind::Comb,
        );
        b.feed("src", ip.inputs[0], 1..=100, 0.0, 1);
        b.capture("out", ip.outputs[0], 0.0, 2);
        let mut soc = b.build();
        let executed = soc.run_until_quiescent(5_000, 30).unwrap();
        assert!(executed < 200, "deadlock should be caught quickly");
        assert!(soc.received("out").is_empty());
    }

    #[test]
    fn latency_insensitivity_across_relay_counts() {
        let reference: Vec<u64> = {
            let (mut soc, sink) = accumulator_soc(WrapperKind::Sp);
            soc.run(200).unwrap();
            soc.received(sink)
        };
        for relays in [1usize, 2, 5, 8] {
            let mut b = SocBuilder::new();
            let ip = b.add_ip(
                "acc",
                Box::new(AccumulatorPearl::new("acc", 1, 1, 2)),
                WrapperKind::Sp,
            );
            // Source feeds a staging channel linked through relays.
            let stage = b.channel("stage", 32);
            b.feed("src", stage, 1..=10, 0.0, 1);
            b.link(stage, ip.inputs[0], relays);
            b.capture("out", ip.outputs[0], 0.0, 2);
            let mut soc = b.build();
            soc.run(300).unwrap();
            assert_eq!(
                soc.received("out"),
                reference,
                "{relays} relay stations must not change the informative stream"
            );
            assert_eq!(soc.violations(), 0);
        }
    }
}
