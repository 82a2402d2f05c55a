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
use crate::packed::PackedLisChannel;
use crate::relay::ViolationCounter;
use crate::token::Token;
use lis_sim::{Activity, Component, Ports, SignalView, LANES};
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

// ---------------------------------------------------------------------
// Scalar adversaries.
// ---------------------------------------------------------------------

/// An adversary producer: emits the sequence `0, 1, …` modulo
/// `modulus` on its channel, holding (void) whenever its
/// [`StallControl`] says so. Advances past a number only when the
/// protocol transfer condition held (`stop == 0` and not stalled).
#[derive(Debug)]
pub struct SeqSource {
    name: String,
    channel: LisChannel,
    control: StallControl,
    modulus: u64,
    seq: u64,
    tick: u64,
}

impl SeqSource {
    /// Creates the source on `channel`. `modulus` bounds the sequence
    /// counter; it must exceed the closed configuration's total token
    /// capacity for the conservation ledger to be unambiguous.
    pub fn new(
        name: impl Into<String>,
        channel: LisChannel,
        control: StallControl,
        modulus: u64,
    ) -> Self {
        assert!(modulus >= 2, "sequence modulus must be at least 2");
        SeqSource {
            name: name.into(),
            channel,
            control,
            modulus,
            seq: 0,
            tick: 0,
        }
    }

    /// The next sequence number the source will emit.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Component for SeqSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.producer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let stalled = self.control.mask_at(self.tick) & 1 != 0;
        let tok = if stalled {
            Token::Void
        } else {
            Token::Data(self.seq)
        };
        self.channel.write_token(sigs, tok);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let stalled = self.control.mask_at(self.tick) & 1 != 0;
        if !stalled && !self.channel.read_stop(sigs) {
            self.seq = (self.seq + 1) % self.modulus;
        }
        self.tick += 1;
        // The kernel cannot observe the external mask changing, so an
        // adversary is never allowed to go quiescent.
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.seq);
        if self.control.scripted() {
            out.push(self.tick);
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        self.seq = data[0];
        if self.control.scripted() {
            self.tick = data[1];
        }
    }
}

/// An adversary consumer: expects the sequence `0, 1, …` modulo
/// `modulus`, asserting `stop` whenever its [`StallControl`] says so.
///
/// Any deviation from the expected order — a skip (dropped token) or a
/// repeat (duplicated token) — is recorded on the order
/// [`ViolationCounter`]; after a mismatch the expectation resynchronizes
/// to `value + 1` so one fault is counted once, not once per subsequent
/// token. Every informative delivery bumps the external `delivered`
/// atomic, the monotone progress signal the deadlock check watches.
#[derive(Debug)]
pub struct SeqSink {
    name: String,
    channel: LisChannel,
    control: StallControl,
    modulus: u64,
    expect: u64,
    tick: u64,
    order_violations: ViolationCounter,
    delivered: Arc<AtomicU64>,
}

impl SeqSink {
    /// Creates the sink on `channel`; order faults land on
    /// `order_violations`.
    pub fn new(
        name: impl Into<String>,
        channel: LisChannel,
        control: StallControl,
        modulus: u64,
        order_violations: &ViolationCounter,
    ) -> Self {
        assert!(modulus >= 2, "sequence modulus must be at least 2");
        SeqSink {
            name: name.into(),
            channel,
            control,
            modulus,
            expect: 0,
            tick: 0,
            order_violations: order_violations.clone(),
            delivered: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The next sequence number the sink expects.
    pub fn expect(&self) -> u64 {
        self.expect
    }

    /// Shared handle to the monotone delivered-token counter.
    pub fn delivered(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.delivered)
    }
}

impl Component for SeqSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.consumer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let stalled = self.control.mask_at(self.tick) & 1 != 0;
        self.channel.write_stop(sigs, stalled);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let stalled = self.control.mask_at(self.tick) & 1 != 0;
        if !stalled {
            if let Token::Data(v) = self.channel.read_token(sigs) {
                if v != self.expect {
                    self.order_violations.record();
                    self.expect = (v + 1) % self.modulus;
                } else {
                    self.expect = (self.expect + 1) % self.modulus;
                }
                self.delivered.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.tick += 1;
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.expect);
        if self.control.scripted() {
            out.push(self.tick);
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        self.expect = data[0];
        if self.control.scripted() {
            self.tick = data[1];
        }
    }
}

// ---------------------------------------------------------------------
// Packed (64-lane) adversaries.
// ---------------------------------------------------------------------

/// The packed twin of [`SeqSource`]: 64 independent sequence counters,
/// one per lane, stalled lane-wise by the control mask. Lanes outside
/// `active_mask` emit void forever (idle branches of a partially filled
/// frontier batch).
#[derive(Debug)]
pub struct PackedSeqSource {
    name: String,
    channel: PackedLisChannel,
    control: StallControl,
    modulus: u64,
    seqs: Vec<u64>,
    active_mask: u64,
    tick: u64,
}

impl PackedSeqSource {
    /// Creates the source on `channel`.
    pub fn new(
        name: impl Into<String>,
        channel: PackedLisChannel,
        control: StallControl,
        modulus: u64,
        active_mask: u64,
    ) -> Self {
        assert!(modulus >= 2, "sequence modulus must be at least 2");
        PackedSeqSource {
            name: name.into(),
            channel,
            control,
            modulus,
            seqs: vec![0; LANES],
            active_mask,
            tick: 0,
        }
    }

    /// Sets which lanes carry live adversary branches.
    pub fn set_active_mask(&mut self, mask: u64) {
        self.active_mask = mask;
    }

    /// Lane `lane`'s next sequence number.
    pub fn seq(&self, lane: usize) -> u64 {
        self.seqs[lane]
    }
}

impl Component for PackedSeqSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.producer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let stall = self.control.mask_at(self.tick);
        let offer = self.active_mask & !stall;
        let mut planes = vec![0u64; self.channel.width as usize];
        for lane in 0..LANES {
            if offer & (1 << lane) != 0 {
                PackedLisChannel::scatter_value(&mut planes, lane, self.seqs[lane]);
            }
        }
        self.channel.write_planes(sigs, &planes);
        self.channel.write_void(sigs, !offer);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let stall = self.control.mask_at(self.tick);
        let transferred = self.active_mask & !stall & !self.channel.read_stop(sigs);
        for lane in 0..LANES {
            if transferred & (1 << lane) != 0 {
                self.seqs[lane] = (self.seqs[lane] + 1) % self.modulus;
            }
        }
        self.tick += 1;
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.seqs);
        if self.control.scripted() {
            out.push(self.tick);
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        self.seqs.copy_from_slice(&data[..LANES]);
        if self.control.scripted() {
            self.tick = data[LANES];
        }
    }

    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        let words = &self.seqs[first..first + outs.len()];
        for (out, &word) in outs.iter_mut().zip(words) {
            out.push(word);
        }
    }

    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        for (word, data) in self.seqs[first..first + blobs.len()].iter_mut().zip(blobs) {
            *word = data[0];
        }
    }
}

/// The packed twin of [`SeqSink`]: 64 independent expectation counters
/// with per-lane order-violation counters and per-lane monotone
/// delivered counters.
#[derive(Debug)]
pub struct PackedSeqSink {
    name: String,
    channel: PackedLisChannel,
    control: StallControl,
    modulus: u64,
    expects: Vec<u64>,
    active_mask: u64,
    tick: u64,
    order_violations: Vec<ViolationCounter>,
    delivered: Arc<Vec<AtomicU64>>,
}

impl PackedSeqSink {
    /// Creates the sink on `channel`; lane *k*'s order faults land on
    /// `order_violations[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `order_violations` does not hold exactly
    /// [`LANES`] counters.
    pub fn new(
        name: impl Into<String>,
        channel: PackedLisChannel,
        control: StallControl,
        modulus: u64,
        active_mask: u64,
        order_violations: &[ViolationCounter],
    ) -> Self {
        assert!(modulus >= 2, "sequence modulus must be at least 2");
        assert_eq!(
            order_violations.len(),
            LANES,
            "packed sink needs one order counter per lane"
        );
        PackedSeqSink {
            name: name.into(),
            channel,
            control,
            modulus,
            expects: vec![0; LANES],
            active_mask,
            tick: 0,
            order_violations: order_violations.to_vec(),
            delivered: Arc::new((0..LANES).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Sets which lanes carry live adversary branches.
    pub fn set_active_mask(&mut self, mask: u64) {
        self.active_mask = mask;
    }

    /// Lane `lane`'s next expected sequence number.
    pub fn expect(&self, lane: usize) -> u64 {
        self.expects[lane]
    }

    /// Shared handle to the per-lane monotone delivered counters.
    pub fn delivered(&self) -> Arc<Vec<AtomicU64>> {
        Arc::clone(&self.delivered)
    }
}

impl Component for PackedSeqSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.consumer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let stall = self.control.mask_at(self.tick);
        self.channel.write_stop(sigs, stall | !self.active_mask);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let stall = self.control.mask_at(self.tick);
        let void = self.channel.read_void(sigs);
        let transferred = self.active_mask & !stall & !void;
        if transferred != 0 {
            let mut planes = vec![0u64; self.channel.width as usize];
            self.channel.read_planes_into(sigs, &mut planes);
            for lane in 0..LANES {
                if transferred & (1 << lane) != 0 {
                    let v = PackedLisChannel::lane_value(&planes, lane);
                    if v != self.expects[lane] {
                        self.order_violations[lane].record();
                        self.expects[lane] = (v + 1) % self.modulus;
                    } else {
                        self.expects[lane] = (self.expects[lane] + 1) % self.modulus;
                    }
                    self.delivered[lane].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.tick += 1;
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.expects);
        if self.control.scripted() {
            out.push(self.tick);
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        self.expects.copy_from_slice(&data[..LANES]);
        if self.control.scripted() {
            self.tick = data[LANES];
        }
    }

    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        let words = &self.expects[first..first + outs.len()];
        for (out, &word) in outs.iter_mut().zip(words) {
            out.push(word);
        }
    }

    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        for (word, data) in self.expects[first..first + blobs.len()]
            .iter_mut()
            .zip(blobs)
        {
            *word = data[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_sim::System;

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
        assert_eq!(delivered.load(Ordering::Relaxed), 10);
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
            delivered.load(Ordering::Relaxed),
            0,
            "stalled source is void"
        );
        src_stall.store(0, Ordering::Relaxed);
        sys.run(5).unwrap();
        assert_eq!(delivered.load(Ordering::Relaxed), 5);
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
        let active = 0b111u64;
        sys.add_component(PackedSeqSource::new(
            "src",
            ch.clone(),
            StallControl::Scripted(vec![]),
            M,
            active,
        ));
        // Stall lane 1 for the first 4 cycles.
        let sink = PackedSeqSink::new(
            "snk",
            ch.clone(),
            StallControl::Scripted(vec![0b010; 4]),
            M,
            active,
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
            "inactive lane is idle"
        );
        assert!(counters.iter().all(|c| c.count() == 0));
    }

    #[test]
    fn packed_lane_state_round_trips_and_resets_the_sequence() {
        let mut sys = System::new();
        let ch = PackedLisChannel::new(&mut sys, "c", 32);
        let counters = all_lanes();
        sys.add_component(PackedSeqSource::new(
            "src",
            ch.clone(),
            StallControl::Scripted(vec![]),
            M,
            u64::MAX,
        ));
        let sink = PackedSeqSink::new(
            "snk",
            ch.clone(),
            StallControl::Scripted(vec![]),
            M,
            u64::MAX,
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
        sys.add_component(PackedSeqSource::new(
            "src",
            ch.clone(),
            // Stall lanes 0..32 on the first cycle.
            StallControl::Scripted(vec![0xFFFF_FFFF]),
            M,
            u64::MAX,
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
