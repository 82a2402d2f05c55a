//! Scenario fleets: many independent traffic scenarios of the *same*
//! SoC, lane-batched through one shared levelized instruction stream.
//!
//! A **lane** is one complete scenario — its own source seeds, stall
//! schedules and back-pressure pattern. A [`FleetBuilder`], the packed
//! [`Fabric`], assembles up to [`LANES`] lanes into one [`FleetBatch`]
//! built entirely from *packed* plumbing: channels are
//! [`PackedLisChannel`]s (one bit-plane signal per data bit, lane `k`
//! in bit `k`), and links, wires and endpoints are the
//! [`RelayStation`], [`Wire`], [`TokenSource`] and [`TokenSink`] a
//! [`crate::SocBuilder`] uses, on packed channels. Every gate-level IP
//! is one complete shell per node shared by all lanes: the
//! [`lis_wrappers::FullNetlistPatientProcess`] a solo SoC runs, on
//! packed channels. One bitwise op advances all 64 lanes of a
//! component at once, so a batch costs barely more than a solo run.
//! Behavioural wrappers stay scalar per lane (their state is cheap) and
//! are bridged onto the packed fabric with [`LaneDemux`] / [`LaneMux`].
//!
//! A [`SocFleet`] owns a sequence of batches and fans whole batches
//! out across a [`WorkStealingPool`]'s scoped worker threads, the first
//! of them the caller's.
//!
//! The correctness bar is strict: lane `k` of a fleet is bit-identical
//! (streams, checksums, violation counts) to a solo [`crate::Soc`] run
//! with the same seeds, at any pool width.

use crate::{Fabric, IpHandle};
use lis_proto::{
    LaneDemux, LaneMux, PackedLisChannel, Pearl, RelayStation, StallPattern, TokenSink,
    TokenSource, ViolationCounter, Wire,
};
use lis_sim::{SettleMode, SimError, System, SystemCheckpoint, WorkStealingPool, LANES};
use lis_wrappers::{wrap_pearl, wrap_pearl_full_netlist, SyncPolicy};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Incremental constructor for one lane-batched [`FleetBatch`] of up to
/// [`LANES`] scenarios.
///
/// Its builder methods are its [`Fabric`] impl, the same API as a
/// [`crate::SocBuilder`]'s: the lane dimension lives inside the packed
/// channels, so fleet topologies are declared exactly like solo ones.
#[derive(Debug)]
pub struct FleetBuilder {
    lanes: usize,
    system: System,
    violations: Vec<ViolationCounter>,
    sinks: HashMap<String, Vec<Arc<Mutex<Vec<u64>>>>>,
}

impl FleetBuilder {
    /// Starts an empty fleet batch of `lanes` scenarios.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= LANES`.
    pub fn new(lanes: usize) -> Self {
        assert!(
            (1..=LANES).contains(&lanes),
            "a fleet batch holds 1..={LANES} lanes, got {lanes}"
        );
        FleetBuilder {
            lanes,
            system: System::new(),
            violations: (0..lanes).map(|_| ViolationCounter::new()).collect(),
            sinks: HashMap::new(),
        }
    }

    /// Sets the settle strategy of the underlying [`System`].
    pub fn set_settle_mode(&mut self, mode: SettleMode) {
        self.system.set_settle_mode(mode);
    }

    /// Mutable access to the underlying [`System`].
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// Finalizes the batch.
    pub fn build(self) -> FleetBatch {
        FleetBatch {
            system: self.system,
            lanes: self.lanes,
            violations: self.violations,
            sinks: self.sinks,
        }
    }
}

/// The packed fabric: channels, relay chains, wires and endpoints
/// carry every lane at once, and every gate-level IP is one packed
/// shell shared by all lanes. Behavioural wrappers stay scalar per lane
/// (their state is cheap to replicate): a [`LaneDemux`] fans each
/// packed input out to the lanes and a [`LaneMux`] gathers each output.
/// Both are zero-latency, so lane streams stay bit-identical to their
/// solo twins.
impl Fabric for FleetBuilder {
    type Channel = PackedLisChannel;

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn channel(&mut self, name: &str, width: u32) -> PackedLisChannel {
        PackedLisChannel::new(&mut self.system, name, width)
    }

    fn link(&mut self, from: &PackedLisChannel, to: &PackedLisChannel, relay_count: usize) {
        let tail = RelayStation::chain(
            &mut self.system,
            "link",
            from.clone(),
            relay_count,
            &self.violations,
        );
        let n = self.system.component_count();
        self.system
            .add_component(Wire::new(format!("wire{n}"), tail, to.clone()));
    }

    fn feed(
        &mut self,
        name: impl Into<String>,
        channel: &PackedLisChannel,
        per_lane: impl FnMut(usize) -> (Vec<u64>, StallPattern, u64),
    ) {
        let lanes = (0..self.lanes).map(per_lane).collect();
        self.system
            .add_component(TokenSource::with_lanes(name, channel.clone(), lanes));
    }

    /// Lane `k`'s stream is retrievable as
    /// [`FleetBatch::received`]`(name, k)`.
    fn capture(
        &mut self,
        name: impl Into<String>,
        channel: &PackedLisChannel,
        per_lane: impl FnMut(usize) -> (StallPattern, u64),
    ) {
        let name = name.into();
        let sink = TokenSink::with_lanes(
            name.clone(),
            channel.clone(),
            (0..self.lanes).map(per_lane).collect(),
        );
        let handles = (0..self.lanes).map(|l| sink.received(l)).collect();
        self.system.add_component(sink);
        self.sinks.insert(name, handles);
    }

    fn add_ip_with_policies(
        &mut self,
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        policies: Vec<Box<dyn SyncPolicy>>,
    ) -> IpHandle<PackedLisChannel> {
        let name = name.into();
        assert_eq!(pearls.len(), self.lanes, "one pearl per lane");
        assert_eq!(policies.len(), self.lanes, "one policy per lane");
        let (mut lane_inputs, mut lane_outputs) = (Vec::new(), Vec::new());
        for (lane, (pearl, policy)) in pearls.into_iter().zip(policies).enumerate() {
            let (ins, outs, _stats) = wrap_pearl(
                &mut self.system,
                &format!("{name}_l{lane}"),
                pearl,
                policy,
                &self.violations[lane],
            );
            lane_inputs.push(ins);
            lane_outputs.push(outs);
        }
        let inputs = (0..lane_inputs[0].len())
            .map(|p| {
                let lanes = lane_inputs.iter().map(|l| l[p]).collect();
                let packed = self.channel(&format!("{name}_in{p}"), lane_inputs[0][p].width);
                let demux = LaneDemux::new(format!("{name}_dx{p}"), packed.clone(), lanes);
                self.system.add_component(demux);
                packed
            })
            .collect();
        let outputs = (0..lane_outputs[0].len())
            .map(|p| {
                let lanes = lane_outputs.iter().map(|l| l[p]).collect();
                let packed = self.channel(&format!("{name}_out{p}"), lane_outputs[0][p].width);
                let mux = LaneMux::new(format!("{name}_mx{p}"), lanes, packed.clone());
                self.system.add_component(mux);
                packed
            })
            .collect();
        IpHandle {
            name,
            inputs,
            outputs,
        }
    }

    fn add_ip_full_netlist_with_controller(
        &mut self,
        name: impl Into<String>,
        pearls: Vec<Box<dyn Pearl>>,
        controller: lis_netlist::Module,
    ) -> IpHandle<PackedLisChannel> {
        let name = name.into();
        assert_eq!(pearls.len(), self.lanes, "one pearl per lane");
        let (inputs, outputs) =
            wrap_pearl_full_netlist(&mut self.system, &name, pearls, controller);
        IpHandle {
            name,
            inputs,
            outputs,
        }
    }
}

/// One runnable batch of up to [`LANES`] lane-parallel scenarios.
#[derive(Debug)]
pub struct FleetBatch {
    system: System,
    lanes: usize,
    violations: Vec<ViolationCounter>,
    sinks: HashMap<String, Vec<Arc<Mutex<Vec<u64>>>>>,
}

impl FleetBatch {
    /// Number of lanes in this batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs `cycles` clock cycles (all lanes advance in lockstep;
    /// quiescent spans are fast-forwarded exactly as in
    /// [`crate::Soc::run`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (combinational-loop detection).
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        self.system.run(cycles)
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.system.cycle()
    }

    /// The informative stream lane `lane` received at sink `name` so
    /// far.
    ///
    /// # Panics
    ///
    /// Panics if no sink has that name or the lane is out of range.
    pub fn received(&self, name: &str, lane: usize) -> Vec<u64> {
        self.sinks
            .get(name)
            .unwrap_or_else(|| panic!("no sink named {name}"))[lane]
            .lock()
            .unwrap()
            .clone()
    }

    /// Protocol violations lane `lane` observed so far.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    pub fn violations(&self, lane: usize) -> u64 {
        self.violations[lane].count()
    }

    /// Captures the batch's architectural state (every lane at once —
    /// lanes share the cycle counter by construction).
    pub fn checkpoint(&self) -> SystemCheckpoint {
        self.system.checkpoint()
    }

    /// Restores state captured by [`FleetBatch::checkpoint`] into a
    /// batch built identically.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint shape mismatches this batch.
    pub fn restore(&mut self, checkpoint: &SystemCheckpoint) {
        self.system.restore(checkpoint);
    }

    /// The underlying simulation system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the underlying system.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }
}

/// A serializable snapshot of a whole [`SocFleet`] — one
/// [`SystemCheckpoint`] per batch. Survives a process restart through
/// the vendored serde and resumes bit-identically.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Per-batch snapshots, in batch order.
    pub batches: Vec<SystemCheckpoint>,
}

/// A fleet of scenario batches: N independent scenarios packed into
/// `ceil(N / LANES)` lane-batched [`FleetBatch`]es, advanced together.
///
/// Whole batches fan out across a [`WorkStealingPool`]'s workers (a
/// one-worker pool runs them in order on the caller's thread); each
/// batch runs single-threaded inside its job, so results are
/// bit-identical at any pool width.
#[derive(Debug)]
pub struct SocFleet {
    batches: Vec<FleetBatch>,
    lanes: usize,
}

impl SocFleet {
    /// Assembles a fleet from finalized batches.
    ///
    /// # Panics
    ///
    /// Panics if `batches` is empty.
    pub fn new(batches: Vec<FleetBatch>) -> Self {
        assert!(!batches.is_empty(), "a fleet needs at least one batch");
        let lanes = batches.iter().map(FleetBatch::lanes).sum();
        SocFleet { batches, lanes }
    }

    /// Total scenario lanes across all batches.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of batches.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// The batches, for direct inspection.
    pub fn batches(&self) -> &[FleetBatch] {
        &self.batches
    }

    /// Mutable access to the batches.
    pub fn batches_mut(&mut self) -> &mut [FleetBatch] {
        &mut self.batches
    }

    fn locate(&self, lane: usize) -> (usize, usize) {
        let mut remaining = lane;
        for (b, batch) in self.batches.iter().enumerate() {
            if remaining < batch.lanes() {
                return (b, remaining);
            }
            remaining -= batch.lanes();
        }
        panic!("lane {lane} out of range ({} lanes)", self.lanes);
    }

    /// Runs every batch for `cycles` cycles, fanning whole batches
    /// across `pool`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] any batch hit (every batch
    /// still completes its run attempt).
    pub fn run(&mut self, cycles: u64, pool: &WorkStealingPool) -> Result<(), SimError> {
        let results = pool.map(
            self.batches.iter_mut().collect(),
            |batch: &mut FleetBatch| batch.run(cycles),
        );
        results.into_iter().collect()
    }

    /// The informative stream scenario `lane` received at sink `name`.
    ///
    /// # Panics
    ///
    /// Panics if no sink has that name or the lane is out of range.
    pub fn received(&self, name: &str, lane: usize) -> Vec<u64> {
        let (b, l) = self.locate(lane);
        self.batches[b].received(name, l)
    }

    /// Protocol violations scenario `lane` observed.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    pub fn violations(&self, lane: usize) -> u64 {
        let (b, l) = self.locate(lane);
        self.batches[b].violations(l)
    }

    /// Elapsed cycles (batches advance in lockstep; the first batch is
    /// authoritative).
    pub fn cycle(&self) -> u64 {
        self.batches[0].cycle()
    }

    /// Captures every batch's architectural state.
    pub fn checkpoint(&self) -> FleetCheckpoint {
        FleetCheckpoint {
            batches: self.batches.iter().map(FleetBatch::checkpoint).collect(),
        }
    }

    /// Restores state captured by [`SocFleet::checkpoint`] into a fleet
    /// built identically.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's batch count or any batch shape
    /// mismatches this fleet.
    pub fn restore(&mut self, checkpoint: &FleetCheckpoint) {
        assert_eq!(
            checkpoint.batches.len(),
            self.batches.len(),
            "fleet restore: batch count mismatch"
        );
        for (batch, snap) in self.batches.iter_mut().zip(&checkpoint.batches) {
            batch.restore(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SocBuilder;
    use lis_proto::AccumulatorPearl;
    use lis_wrappers::WrapperKind;

    fn lane_pearls(lanes: usize) -> Vec<Box<dyn Pearl>> {
        (0..lanes)
            .map(|_| Box::new(AccumulatorPearl::new("acc", 1, 1, 2)) as Box<dyn Pearl>)
            .collect()
    }

    fn lane_stall(lane: usize) -> f64 {
        [0.0, 0.35, 0.2, 0.5][lane % 4]
    }

    /// Builds a `lanes`-wide single-IP fleet batch where each lane
    /// carries its own seed and stall probability.
    fn build_batch(lanes: usize, gate_level: bool) -> FleetBatch {
        let mut b = FleetBuilder::new(lanes);
        let ip = if gate_level {
            b.add_ip_full_netlist("acc", lane_pearls(lanes), WrapperKind::Sp)
        } else {
            b.add_ip("acc", lane_pearls(lanes), WrapperKind::Sp)
        };
        b.feed("src", &ip.inputs[0], |lane| {
            (
                (1..=10u64).map(|v| v * (lane as u64 + 1)).collect(),
                StallPattern::from(lane_stall(lane)),
                100 + lane as u64,
            )
        });
        b.capture("out", &ip.outputs[0], |lane| {
            (StallPattern::from(lane_stall(lane + 1)), 200 + lane as u64)
        });
        b.build()
    }

    /// An unbounded budget after some elapsed cycles saturates instead
    /// of overflowing: the run stops at the end of time. (This batch's
    /// endpoints have randomly stalling lanes and never quiesce, so the
    /// clock is moved near the end through a checkpoint rather than by
    /// jumping.)
    #[test]
    fn unbounded_run_saturates_after_elapsed_cycles() {
        let mut batch = build_batch(2, false);
        batch.run(3).unwrap();
        let mut ck = batch.system_mut().checkpoint();
        ck.cycle = u64::MAX - 5;
        batch.system_mut().restore(&ck);
        batch.run(u64::MAX).unwrap();
        assert_eq!(batch.cycle(), u64::MAX);
    }

    /// The solo twin of lane `lane` from [`build_batch`].
    fn solo_received(lane: usize, gate_level: bool) -> (Vec<u64>, u64) {
        let mut b = SocBuilder::new();
        let pearl = Box::new(AccumulatorPearl::new("acc", 1, 1, 2));
        let ip = if gate_level {
            b.add_ip_full_netlist("acc", pearl, WrapperKind::Sp)
        } else {
            b.add_ip("acc", pearl, WrapperKind::Sp)
        };
        b.feed(
            "src",
            ip.inputs[0],
            (1..=10u64).map(|v| v * (lane as u64 + 1)),
            lane_stall(lane),
            100 + lane as u64,
        );
        b.capture(
            "out",
            ip.outputs[0],
            lane_stall(lane + 1),
            200 + lane as u64,
        );
        let mut soc = b.build();
        soc.run(400).unwrap();
        (soc.received("out"), soc.violations())
    }

    /// With every lane deterministic, the packed endpoints quiesce and
    /// sleep as their solo twins do: the batch jumps over the sinks'
    /// stall spans, and every lane still matches its solo run.
    #[test]
    fn deterministic_batch_fast_forwards_like_solo_runs() {
        let lanes = 3;
        let tokens = |lane: usize| (1..=10u64).map(move |v| v * (lane as u64 + 1));
        let accept = |lane: usize| StallPattern::Periodic {
            on: 2,
            period: 32 + 16 * lane as u64,
            phase: 0,
        };
        let mut b = FleetBuilder::new(lanes);
        let ip = b.add_ip_full_netlist("acc", lane_pearls(lanes), WrapperKind::Sp);
        b.feed("src", &ip.inputs[0], |lane| {
            (tokens(lane).collect(), StallPattern::None, 0)
        });
        b.capture("out", &ip.outputs[0], |lane| (accept(lane), 0));
        let mut batch = b.build();
        batch.run(1000).unwrap();
        let jumped = batch.system_mut().scheduler_stats().cycles_fast_forwarded;
        assert!(jumped > 0, "a deterministic batch must fast-forward");
        for lane in 0..lanes {
            let mut b = SocBuilder::new();
            let pearl = Box::new(AccumulatorPearl::new("acc", 1, 1, 2));
            let ip = b.add_ip_full_netlist("acc", pearl, WrapperKind::Sp);
            b.feed("src", ip.inputs[0], tokens(lane), StallPattern::None, 0);
            b.capture("out", ip.outputs[0], accept(lane), 0);
            let mut soc = b.build();
            soc.run(1000).unwrap();
            assert_eq!(soc.received("out").len(), 10, "lane {lane} drains");
            assert_eq!(
                batch.received("out", lane),
                soc.received("out"),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn gate_level_fleet_lanes_match_solo_socs() {
        let mut batch = build_batch(5, true);
        batch.run(400).unwrap();
        for lane in 0..5 {
            let (want, solo_violations) = solo_received(lane, true);
            assert!(!want.is_empty());
            assert_eq!(batch.received("out", lane), want, "lane {lane}");
            assert_eq!(batch.violations(lane), solo_violations, "lane {lane}");
        }
    }

    #[test]
    #[should_panic(
        expected = "IP acc: the gate-level shell cannot run a shiftreg controller: \
                    it has no ne/nf inputs and no pop/push outputs"
    )]
    fn full_shell_refuses_a_shiftreg_controller() {
        FleetBuilder::new(2).add_ip_full_netlist("acc", lane_pearls(2), WrapperKind::ShiftReg);
    }

    #[test]
    fn behavioural_fleet_lanes_match_solo_socs() {
        let mut batch = build_batch(4, false);
        batch.run(400).unwrap();
        for lane in 0..4 {
            let (want, _) = solo_received(lane, false);
            assert_eq!(batch.received("out", lane), want, "lane {lane}");
        }
    }

    #[test]
    fn fleet_spans_batches_and_runs_on_pool() {
        // 7 lanes over two batches of 4 + 3; lane addressing must cross
        // the batch boundary transparently.
        let batches = vec![build_batch(4, true), {
            // Second batch: lanes 4..7 reuse the same per-lane recipe
            // shifted by 4 so each global lane has a distinct scenario.
            let lanes = 3;
            let mut b = FleetBuilder::new(lanes);
            let ip = b.add_ip_full_netlist("acc", lane_pearls(lanes), WrapperKind::Sp);
            b.feed("src", &ip.inputs[0], |l| {
                let lane = l + 4;
                (
                    (1..=10u64).map(|v| v * (lane as u64 + 1)).collect(),
                    StallPattern::from(lane_stall(lane)),
                    100 + lane as u64,
                )
            });
            b.capture("out", &ip.outputs[0], |l| {
                let lane = l + 4;
                (StallPattern::from(lane_stall(lane + 1)), 200 + lane as u64)
            });
            b.build()
        }];
        let mut fleet = SocFleet::new(batches);
        assert_eq!(fleet.lanes(), 7);
        let pool = WorkStealingPool::new(2);
        fleet.run(400, &pool).unwrap();
        for lane in 0..7 {
            let (want, _) = solo_received(lane, true);
            assert_eq!(fleet.received("out", lane), want, "lane {lane}");
            assert_eq!(fleet.violations(lane), 0, "lane {lane}");
        }
        assert_eq!(fleet.cycle(), 400);
    }

    #[test]
    fn fleet_checkpoint_restores_bit_identically() {
        // Uninterrupted reference.
        let mut reference = SocFleet::new(vec![build_batch(3, true)]);
        let pool = WorkStealingPool::new(1);
        reference.run(300, &pool).unwrap();
        // Interrupted twin: snapshot at 120, restore into a fresh fleet.
        let mut first = SocFleet::new(vec![build_batch(3, true)]);
        first.run(120, &pool).unwrap();
        let snap = first.checkpoint();
        let mut resumed = SocFleet::new(vec![build_batch(3, true)]);
        resumed.restore(&snap);
        assert_eq!(resumed.cycle(), 120);
        resumed.run(180, &pool).unwrap();
        for lane in 0..3 {
            assert_eq!(
                resumed.received("out", lane),
                reference.received("out", lane),
                "lane {lane}"
            );
        }
    }
}
