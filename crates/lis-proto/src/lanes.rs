//! The lane dimension of a LIS channel.
//!
//! A scalar [`LisChannel`] carries one traffic scenario; a bit-plane
//! [`PackedLisChannel`] carries up to [`LANES`] of them in lockstep.
//! [`Lanes`] is everything the protocol components need from either
//! encoding: the void and stop wires as lane masks (bit `k` = lane
//! `k`), payload registers holding one value per lane in the channel's
//! own data encoding, and one per-lane snapshot layout. The relay
//! station, the wire and the four endpoints are written once over it,
//! and each one-lane instance is exactly the scalar component.

use crate::channel::LisChannel;
use crate::packed::PackedLisChannel;
use lis_sim::{
    load_plane_lanes, save_plane_lanes, Activity, Component, Ports, SignalId, SignalView, System,
    LANES,
};
use std::fmt::Debug;

/// A channel type over its lane dimension.
///
/// A payload register ([`Lanes::Reg`]) has one word per payload
/// signal: the whole value of its one lane on a scalar channel, one
/// bit-plane (bit `k` = lane `k`) per payload bit on a packed one.
/// [`Lanes::spread`] and [`Lanes::word_lanes`] translate between lane
/// masks and those words, so the lane-mask algebra of the provided
/// methods serves both encodings.
pub trait Lanes: Clone + Debug + Send + 'static {
    /// Bit `k` is set for every lane `k` the channel can carry.
    const LANE_MASK: u64;
    /// How many lanes the channel can carry.
    const LANE_COUNT: usize = Self::LANE_MASK.count_ones() as usize;

    /// A payload register: one value per lane.
    type Reg: AsRef<[u64]> + AsMut<[u64]> + Clone + Debug + Send;

    /// Allocates a channel of `width`-bit payloads in `system`, void on
    /// every lane.
    fn alloc(system: &mut System, name: &str, width: u32) -> Self;

    /// Payload width in bits.
    fn width(&self) -> u32;

    /// The payload signals, one per register word.
    fn data_signals(&self) -> &[SignalId];

    /// The void wire (downstream).
    fn void_signal(&self) -> SignalId;

    /// The back-pressure wire (upstream).
    fn stop_signal(&self) -> SignalId;

    /// A payload register holding 0 on every lane.
    fn register(&self) -> Self::Reg;

    /// The bits of a register word that belong to `lanes`.
    fn spread(lanes: u64) -> u64;

    /// The lanes in which register word `word` holds a set bit.
    fn word_lanes(word: u64) -> u64;

    /// Lane `lane`'s value in `reg`.
    fn lane_value(reg: &Self::Reg, lane: usize) -> u64;

    /// ORs `value` into lane `lane` of `reg`, whose bits there must be
    /// clear.
    fn deposit(reg: &mut Self::Reg, lane: usize, value: u64);

    /// Appends one word to each snapshot `outs[i]` of lane `first + i`:
    /// bit `j` of the word is that lane's bit of `masks[j]` (at most 64
    /// masks).
    fn save_mask_lanes(masks: &[u64], first: usize, outs: &mut [Vec<u64>]);

    /// Restores lanes `first..first + blobs.len()` of `masks` from word
    /// `at` of each snapshot, in the [`Lanes::save_mask_lanes`] layout.
    fn load_mask_lanes(masks: &mut [u64], first: usize, blobs: &[&[u64]], at: usize);

    /// Appends to each snapshot `outs[i]` lane `first + i`'s value of
    /// `reg`, or 0 where `held` is clear: a register is state only while
    /// it holds a token.
    fn save_reg_lanes(reg: &Self::Reg, held: u64, first: usize, outs: &mut [Vec<u64>]);

    /// Restores lanes `first..first + blobs.len()` of `reg` from word
    /// `at` of each snapshot.
    fn load_reg_lanes(reg: &mut Self::Reg, first: usize, blobs: &[&[u64]], at: usize);

    /// Declared ports of a *registered* producer on this channel (Moore
    /// outputs): eval writes the payload and `void`; `stop` is sampled
    /// at the clock edge, so it is a tick-phase read, which is also what
    /// wakes a quiescent producer when downstream back-pressure changes.
    fn producer_ports(&self) -> Ports {
        let token_wires = self
            .data_signals()
            .iter()
            .copied()
            .chain([self.void_signal()]);
        Ports::writes_only(token_wires).tick_read(self.stop_signal())
    }

    /// Declared ports of a *registered* consumer: eval writes `stop`;
    /// the token wires are sampled at the clock edge (tick-phase reads,
    /// waking a quiescent consumer when a token arrives).
    fn consumer_ports(&self) -> Ports {
        let mut ports = Ports::writes_only([self.stop_signal()]);
        for &d in self.data_signals() {
            ports = ports.tick_read(d);
        }
        ports.tick_read(self.void_signal())
    }

    /// Extra declaration for a stage reading the token wires
    /// *combinationally* during eval (zero-latency connectors,
    /// gate-level shells).
    fn downstream_reads(&self) -> Ports {
        Ports::reads_only(
            self.data_signals()
                .iter()
                .copied()
                .chain([self.void_signal()]),
        )
    }

    /// Extra declaration for a stage reading back-pressure
    /// combinationally during eval.
    fn stop_reads(&self) -> Ports {
        Ports::reads_only([self.stop_signal()])
    }

    /// The lanes carrying a token (void low).
    fn token_lanes(&self, sigs: &SignalView<'_>) -> u64 {
        !sigs.get(self.void_signal()) & Self::LANE_MASK
    }

    /// The lanes back-pressured (stop high).
    fn stop_lanes(&self, sigs: &SignalView<'_>) -> u64 {
        sigs.get(self.stop_signal())
    }

    /// Raises stop on exactly the lanes in `lanes`.
    fn set_stop_lanes(&self, sigs: &mut SignalView<'_>, lanes: u64) {
        sigs.set(self.stop_signal(), lanes);
    }

    /// Drives `reg`'s tokens on `lanes` and void, with zeroed payload,
    /// on every other lane.
    fn drive(&self, sigs: &mut SignalView<'_>, reg: &Self::Reg, lanes: u64) {
        let keep = Self::spread(lanes);
        for (&sig, &word) in self.data_signals().iter().zip(reg.as_ref()) {
            sigs.set(sig, word & keep);
        }
        sigs.set(self.void_signal(), !lanes);
    }

    /// Samples the payload of `lanes` into `reg`; other lanes keep
    /// their values.
    fn sample(&self, sigs: &SignalView<'_>, reg: &mut Self::Reg, lanes: u64) {
        if lanes == 0 {
            return;
        }
        let take = Self::spread(lanes);
        for (&sig, word) in self.data_signals().iter().zip(reg.as_mut()) {
            *word = (*word & !take) | (sigs.get(sig) & take);
        }
    }

    /// Copies lanes `lanes` of `src` into `dst`.
    fn copy_lanes(dst: &mut Self::Reg, src: &Self::Reg, lanes: u64) {
        if lanes == 0 {
            return;
        }
        let take = Self::spread(lanes);
        for (d, &s) in dst.as_mut().iter_mut().zip(src.as_ref()) {
            *d = (*d & !take) | (s & take);
        }
    }
}

/// Panics unless lanes `first..first + count` exist on a one-lane
/// channel.
fn one_lane(first: usize, count: usize) {
    assert!(
        first + count <= 1,
        "a scalar channel carries one lane; asked for lanes {first}..{}",
        first + count
    );
}

/// One lane, whose payload is one word.
impl Lanes for LisChannel {
    const LANE_MASK: u64 = 1;
    type Reg = [u64; 1];

    fn alloc(system: &mut System, name: &str, width: u32) -> Self {
        LisChannel::new(system, name, width)
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn data_signals(&self) -> &[SignalId] {
        std::slice::from_ref(&self.data)
    }

    fn void_signal(&self) -> SignalId {
        self.void
    }

    fn stop_signal(&self) -> SignalId {
        self.stop
    }

    fn register(&self) -> [u64; 1] {
        [0]
    }

    fn spread(lanes: u64) -> u64 {
        0u64.wrapping_sub(lanes & 1)
    }

    fn word_lanes(word: u64) -> u64 {
        u64::from(word != 0)
    }

    fn lane_value(reg: &[u64; 1], _lane: usize) -> u64 {
        reg[0]
    }

    fn deposit(reg: &mut [u64; 1], _lane: usize, value: u64) {
        reg[0] |= value;
    }

    fn save_mask_lanes(masks: &[u64], first: usize, outs: &mut [Vec<u64>]) {
        one_lane(first, outs.len());
        for out in outs {
            out.push(masks.iter().rev().fold(0, |word, m| (word << 1) | (m & 1)));
        }
    }

    fn load_mask_lanes(masks: &mut [u64], first: usize, blobs: &[&[u64]], at: usize) {
        one_lane(first, blobs.len());
        for blob in blobs {
            for (j, m) in masks.iter_mut().enumerate() {
                *m = (blob[at] >> j) & 1;
            }
        }
    }

    fn save_reg_lanes(reg: &[u64; 1], held: u64, first: usize, outs: &mut [Vec<u64>]) {
        one_lane(first, outs.len());
        for out in outs {
            out.push(reg[0] & Self::spread(held));
        }
    }

    fn load_reg_lanes(reg: &mut [u64; 1], first: usize, blobs: &[&[u64]], at: usize) {
        one_lane(first, blobs.len());
        for blob in blobs {
            reg[0] = blob[at];
        }
    }
}

/// Up to [`LANES`] lanes, one payload bit-plane per word.
impl Lanes for PackedLisChannel {
    const LANE_MASK: u64 = u64::MAX;
    type Reg = Vec<u64>;

    fn alloc(system: &mut System, name: &str, width: u32) -> Self {
        PackedLisChannel::new(system, name, width)
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn data_signals(&self) -> &[SignalId] {
        &self.data
    }

    fn void_signal(&self) -> SignalId {
        self.void
    }

    fn stop_signal(&self) -> SignalId {
        self.stop
    }

    fn register(&self) -> Vec<u64> {
        vec![0; self.data.len()]
    }

    fn spread(lanes: u64) -> u64 {
        lanes
    }

    fn word_lanes(word: u64) -> u64 {
        word
    }

    fn lane_value(reg: &Vec<u64>, lane: usize) -> u64 {
        reg.iter()
            .enumerate()
            .fold(0, |v, (b, &plane)| v | (((plane >> lane) & 1) << b))
    }

    fn deposit(reg: &mut Vec<u64>, lane: usize, mut value: u64) {
        while value != 0 {
            let b = value.trailing_zeros() as usize;
            value &= value - 1;
            if let Some(plane) = reg.get_mut(b) {
                *plane |= 1 << lane;
            }
        }
    }

    fn save_mask_lanes(masks: &[u64], first: usize, outs: &mut [Vec<u64>]) {
        save_plane_lanes(masks, first, outs);
    }

    fn load_mask_lanes(masks: &mut [u64], first: usize, blobs: &[&[u64]], at: usize) {
        load_plane_lanes(masks, first, blobs, at);
    }

    fn save_reg_lanes(reg: &Vec<u64>, held: u64, first: usize, outs: &mut [Vec<u64>]) {
        let mut planes = [0u64; LANES];
        for (p, &word) in planes.iter_mut().zip(reg) {
            *p = word & held;
        }
        save_plane_lanes(&planes[..reg.len()], first, outs);
    }

    fn load_reg_lanes(reg: &mut Vec<u64>, first: usize, blobs: &[&[u64]], at: usize) {
        load_plane_lanes(reg, first, blobs, at);
    }
}

/// Panics unless a component on a `C` channel is given between 1 and
/// [`Lanes::LANE_COUNT`] lanes.
pub(crate) fn assert_lanes<C: Lanes>(lanes: usize) {
    assert!(
        (1..=C::LANE_COUNT).contains(&lanes),
        "a component on this channel serves 1..={} lanes, got {lanes}",
        C::LANE_COUNT
    );
}

/// Saves a component whose lanes all have fixed-size snapshots in full:
/// every lane's snapshot, in lane order.
pub(crate) fn save_every_lane(component: &impl Component, lanes: usize, out: &mut Vec<u64>) {
    let mut blobs = vec![Vec::new(); lanes];
    component.save_lanes_state(0, &mut blobs);
    out.extend(blobs.into_iter().flatten());
}

/// Restores a full state saved by [`save_every_lane`].
pub(crate) fn load_every_lane(component: &mut impl Component, lanes: usize, data: &[u64]) {
    let blobs: Vec<&[u64]> = data.chunks(data.len() / lanes).collect();
    component.load_lanes_state(0, &blobs);
}

/// The lanes set in `mask`, lowest first.
pub(crate) fn lanes_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Combines the activity of two lanes of one component: it runs when
/// either must, else wakes at the earlier declared time, else stays
/// quiescent.
pub(crate) fn combine(a: Activity, b: Activity) -> Activity {
    match (a, b) {
        (Activity::Quiescent, x) | (x, Activity::Quiescent) => x,
        (Activity::Sleep(m), Activity::Sleep(n)) => Activity::Sleep(m.min(n)),
        _ => Activity::Active,
    }
}
