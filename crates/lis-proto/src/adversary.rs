//! Adversary endpoints for bounded protocol exploration.
//!
//! A bounded model checker drives every input edge of a closed wrapper
//! configuration with an *adversary*: an endpoint whose stall decision
//! each cycle is a branch of the search tree, not a pseudo-random draw.
//! The endpoints here differ from [`crate::TokenSource`] /
//! [`crate::TokenSink`] in three deliberate ways:
//!
//! * **Bounded state.** They emit and expect sequence numbers modulo a
//!   small `modulus` and keep no cumulative history, so a saved lane
//!   state ([`lis_sim::Component::save_lanes_state`]) is a few words and
//!   two states reached along different paths can collide in the
//!   explorer's hash set. Monotone progress (tokens delivered) is
//!   reported through *external* atomics that are deliberately outside
//!   the saved state.
//! * **External stall control.** [`StallControl::External`] reads a
//!   shared [`AtomicU64`] stall mask (bit *k* = lane *k*) that the
//!   explorer rewrites before every step, so one settle/tick pass
//!   expands up to 64 adversary branches at once.
//!   [`StallControl::Scripted`] replays a fixed schedule instead —
//!   the form a minimized counterexample is replayed with.
//! * **Order checking at the sink.** [`SeqSink`] checks delivery order
//!   directly: a skipped number is a dropped token, a repeated number a
//!   duplicated one. Violations land on a [`ViolationCounter`] so the
//!   explorer can diff counts across a single transition.

use crate::channel::LisChannel;
use crate::lanes::{lanes_in, load_every_lane, save_every_lane, Lanes};
use crate::relay::ViolationCounter;
use lis_sim::{Activity, Component, Ports, SignalView};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where an adversary endpoint's per-cycle stall decision comes from.
#[derive(Debug, Clone)]
pub enum StallControl {
    /// The explorer owns the decision: before each step it stores a
    /// stall mask (bit *k* stalls lane *k*; scalar endpoints read bit
    /// 0). The mask must be stable for the whole settle/tick pass.
    External(Arc<AtomicU64>),
    /// A fixed schedule of stall masks, indexed by the endpoint's own
    /// tick counter; cycles beyond the script never stall. This is the
    /// replay form: a counterexample is a `Scripted` schedule per edge.
    Scripted(Vec<u64>),
}

impl StallControl {
    fn mask_at(&self, tick: u64) -> u64 {
        match self {
            StallControl::External(mask) => mask.load(Ordering::Relaxed),
            StallControl::Scripted(script) => script.get(tick as usize).copied().unwrap_or(0),
        }
    }

    /// Whether saved state must carry the tick counter (scripted
    /// schedules are cycle-indexed; external masks are not).
    fn scripted(&self) -> bool {
        matches!(self, StallControl::Scripted(_))
    }
}

/// An adversary producer: emits the sequence `0, 1, …` modulo
/// `modulus` on every lane of its channel, holding (void) on the lanes
/// its [`StallControl`] stalls. A lane advances past a number only when
/// the protocol transfer condition held there (`stop == 0` and not
/// stalled).
#[derive(Debug)]
pub struct SeqSource<C: Lanes = LisChannel> {
    name: String,
    channel: C,
    control: StallControl,
    modulus: u64,
    /// Each lane's next sequence number.
    seqs: Vec<u64>,
    tick: u64,
    /// The offered sequence numbers, reused across evals.
    offer: C::Reg,
}

impl<C: Lanes> SeqSource<C> {
    /// Creates the source on `channel`. `modulus` bounds the sequence
    /// counters; it must exceed the closed configuration's total token
    /// capacity for the conservation ledger to be unambiguous.
    pub fn new(name: impl Into<String>, channel: C, control: StallControl, modulus: u64) -> Self {
        assert!(modulus >= 2, "sequence modulus must be at least 2");
        SeqSource {
            name: name.into(),
            offer: channel.register(),
            channel,
            control,
            modulus,
            seqs: vec![0; C::LANE_COUNT],
            tick: 0,
        }
    }
}

impl<C: Lanes> Component for SeqSource<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.producer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let offered = C::LANE_MASK & !self.control.mask_at(self.tick);
        self.offer.as_mut().fill(0);
        for lane in lanes_in(offered) {
            C::deposit(&mut self.offer, lane, self.seqs[lane]);
        }
        self.channel.drive(sigs, &self.offer, offered);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let stall = self.control.mask_at(self.tick);
        for lane in lanes_in(C::LANE_MASK & !stall & !self.channel.stop_lanes(sigs)) {
            self.seqs[lane] = (self.seqs[lane] + 1) % self.modulus;
        }
        self.tick += 1;
        // The kernel cannot observe the external mask changing, so an
        // adversary is never allowed to go quiescent.
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        save_every_lane(self, C::LANE_COUNT, out);
    }

    fn load_state(&mut self, data: &[u64]) {
        load_every_lane(self, C::LANE_COUNT, data);
    }

    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        for (out, &seq) in outs.iter_mut().zip(&self.seqs[first..]) {
            out.push(seq);
            if self.control.scripted() {
                out.push(self.tick);
            }
        }
    }

    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        for (seq, data) in self.seqs[first..].iter_mut().zip(blobs) {
            *seq = data[0];
            if self.control.scripted() {
                self.tick = data[1];
            }
        }
    }
}

/// An adversary consumer: expects the sequence `0, 1, …` modulo
/// `modulus` on every lane of its channel, asserting `stop` on the
/// lanes its [`StallControl`] stalls.
///
/// Any deviation from the expected order on a lane — a skip (dropped
/// token) or a repeat (duplicated token) — is recorded on that lane's
/// order [`ViolationCounter`]; after a mismatch the expectation
/// resynchronizes to `value + 1` so one fault is counted once, not once
/// per subsequent token. Every informative delivery bumps the lane's
/// external `delivered` atomic, the monotone progress signal the
/// deadlock check watches.
#[derive(Debug)]
pub struct SeqSink<C: Lanes = LisChannel> {
    name: String,
    channel: C,
    control: StallControl,
    modulus: u64,
    /// Each lane's next expected sequence number.
    expects: Vec<u64>,
    tick: u64,
    order_violations: Vec<ViolationCounter>,
    delivered: Arc<[AtomicU64]>,
    /// The delivered sequence numbers, reused across ticks.
    taken: C::Reg,
}

impl<C: Lanes> SeqSink<C> {
    /// Creates the sink on `channel`; lane *k*'s order faults land on
    /// `order_violations[k]` (a bare counter for a scalar channel).
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one order counter per lane.
    pub fn new(
        name: impl Into<String>,
        channel: C,
        control: StallControl,
        modulus: u64,
        order_violations: impl AsRef<[ViolationCounter]>,
    ) -> Self {
        assert!(modulus >= 2, "sequence modulus must be at least 2");
        let order_violations = order_violations.as_ref().to_vec();
        assert_eq!(
            order_violations.len(),
            C::LANE_COUNT,
            "a sequence sink needs one order counter per lane"
        );
        SeqSink {
            name: name.into(),
            taken: channel.register(),
            channel,
            control,
            modulus,
            expects: vec![0; C::LANE_COUNT],
            tick: 0,
            order_violations,
            delivered: (0..C::LANE_COUNT).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Shared handle to the per-lane monotone delivered-token counters.
    pub fn delivered(&self) -> Arc<[AtomicU64]> {
        Arc::clone(&self.delivered)
    }
}

impl<C: Lanes> Component for SeqSink<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.consumer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let stall = self.control.mask_at(self.tick);
        self.channel.set_stop_lanes(sigs, stall | !C::LANE_MASK);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let stall = self.control.mask_at(self.tick);
        let taken = C::LANE_MASK & !stall & self.channel.token_lanes(sigs);
        self.channel.sample(sigs, &mut self.taken, taken);
        for lane in lanes_in(taken) {
            let v = C::lane_value(&self.taken, lane);
            let expect = &mut self.expects[lane];
            if v != *expect {
                self.order_violations[lane].record();
            }
            *expect = (v + 1) % self.modulus;
            self.delivered[lane].fetch_add(1, Ordering::Relaxed);
        }
        self.tick += 1;
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        save_every_lane(self, C::LANE_COUNT, out);
    }

    fn load_state(&mut self, data: &[u64]) {
        load_every_lane(self, C::LANE_COUNT, data);
    }

    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        for (out, &expect) in outs.iter_mut().zip(&self.expects[first..]) {
            out.push(expect);
            if self.control.scripted() {
                out.push(self.tick);
            }
        }
    }

    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        for (expect, data) in self.expects[first..].iter_mut().zip(blobs) {
            *expect = data[0];
            if self.control.scripted() {
                self.tick = data[1];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackedLisChannel, Token};
    use lis_sim::{System, LANES};

    const M: u64 = 64;

    fn all_lanes() -> Vec<ViolationCounter> {
        (0..LANES).map(|_| ViolationCounter::new()).collect()
    }

    #[test]
    fn scalar_adversaries_stream_in_order_when_unstalled() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 32);
        let order = ViolationCounter::new();
        let src_stall = Arc::new(AtomicU64::new(0));
        let snk_stall = Arc::new(AtomicU64::new(0));
        sys.add_component(SeqSource::new(
            "src",
            ch,
            StallControl::External(Arc::clone(&src_stall)),
            M,
        ));
        let sink = SeqSink::new(
            "snk",
            ch,
            StallControl::External(Arc::clone(&snk_stall)),
            M,
            &order,
        );
        let delivered = sink.delivered();
        sys.add_component(sink);
        sys.run(10).unwrap();
        assert_eq!(delivered[0].load(Ordering::Relaxed), 10);
        assert_eq!(order.count(), 0);
    }

    #[test]
    fn scalar_adversaries_respect_external_stalls() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 32);
        let order = ViolationCounter::new();
        let src_stall = Arc::new(AtomicU64::new(1));
        sys.add_component(SeqSource::new(
            "src",
            ch,
            StallControl::External(Arc::clone(&src_stall)),
            M,
        ));
        let sink = SeqSink::new("snk", ch, StallControl::Scripted(vec![]), M, &order);
        let delivered = sink.delivered();
        sys.add_component(sink);
        sys.run(5).unwrap();
        assert_eq!(
            delivered[0].load(Ordering::Relaxed),
            0,
            "stalled source is void"
        );
        src_stall.store(0, Ordering::Relaxed);
        sys.run(5).unwrap();
        assert_eq!(delivered[0].load(Ordering::Relaxed), 5);
        assert_eq!(order.count(), 0);
    }

    #[test]
    fn scalar_sink_counts_order_faults_once_per_fault() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 32);
        let order = ViolationCounter::new();
        // A misbehaving producer that skips sequence number 2.
        sys.add_component(lis_sim::FnComponent::new(
            "bad_src",
            ch.producer_ports(),
            {
                let mut n = 0u64;
                move |sigs: &mut SignalView<'_>| {
                    let v = if n >= 2 { n + 1 } else { n };
                    ch.write_token(sigs, Token::Data(v));
                    n += 1;
                }
            },
            |_| {},
        ));
        let sink = SeqSink::new("snk", ch, StallControl::Scripted(vec![]), M, &order);
        sys.add_component(sink);
        sys.run(8).unwrap();
        assert_eq!(
            order.count(),
            1,
            "one skip = one fault, resynchronized after"
        );
    }

    #[test]
    fn packed_adversaries_stream_per_lane() {
        let mut sys = System::new();
        let ch = PackedLisChannel::new(&mut sys, "c", 32);
        let counters = all_lanes();
        // Stall lane 3 at the source for the whole run.
        sys.add_component(SeqSource::new(
            "src",
            ch.clone(),
            StallControl::Scripted(vec![0b1000; 10]),
            M,
        ));
        // Stall lane 1 for the first 4 cycles.
        let sink = SeqSink::new(
            "snk",
            ch.clone(),
            StallControl::Scripted(vec![0b010; 4]),
            M,
            &counters,
        );
        let delivered = sink.delivered();
        sys.add_component(sink);
        sys.run(10).unwrap();
        assert_eq!(delivered[0].load(Ordering::Relaxed), 10);
        assert_eq!(delivered[1].load(Ordering::Relaxed), 6);
        assert_eq!(delivered[2].load(Ordering::Relaxed), 10);
        assert_eq!(
            delivered[3].load(Ordering::Relaxed),
            0,
            "a lane stalled at the source is idle"
        );
        assert!(counters.iter().all(|c| c.count() == 0));
    }

    #[test]
    fn packed_lane_state_round_trips_and_resets_the_sequence() {
        let mut sys = System::new();
        let ch = PackedLisChannel::new(&mut sys, "c", 32);
        let counters = all_lanes();
        sys.add_component(SeqSource::new(
            "src",
            ch.clone(),
            StallControl::Scripted(vec![]),
            M,
        ));
        let sink = SeqSink::new(
            "snk",
            ch.clone(),
            StallControl::Scripted(vec![]),
            M,
            &counters,
        );
        sys.add_component(sink);
        sys.run(3).unwrap();
        let lane0 = sys.save_lane(0);
        sys.run(4).unwrap();
        let later = sys.save_lane(0);
        assert_ne!(lane0, later, "sequence counters advanced");
        // Rewind lane 5 to lane 0's earlier snapshot: lane 5 replays the
        // stream from the snapshot without order faults.
        sys.load_lane(5, &lane0);
        sys.run(6).unwrap();
        assert!(counters.iter().all(|c| c.count() == 0));
    }

    #[test]
    fn packed_source_keeps_void_lanes_data_free() {
        let mut sys = System::new();
        let ch = PackedLisChannel::new(&mut sys, "c", 32);
        sys.add_component(SeqSource::new(
            "src",
            ch.clone(),
            // Stall lanes 0..32 on the first cycle.
            StallControl::Scripted(vec![0xFFFF_FFFF]),
            M,
        ));
        sys.run(2).unwrap();
        // After two transfers-or-stalls, check the settled planes obey
        // void => data == 0 (the signalling-legality invariant).
        sys.settle().unwrap();
        let void = sys.peek(ch.void);
        let mut planes = vec![0u64; ch.width as usize];
        for (b, plane) in planes.iter_mut().enumerate() {
            *plane = sys.peek(ch.data[b]);
        }
        for plane in &planes {
            assert_eq!(void & plane, 0, "void lanes must carry zero data");
        }
    }
}
