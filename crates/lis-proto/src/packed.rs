//! Lane-batched LIS plumbing: bit-plane packed channels and the packed
//! relay/endpoint/wire components that speak them.
//!
//! A scenario fleet advances up to [`LANES`] independent traffic
//! scenarios ("lanes") of the same SoC in lockstep. Replicating the
//! behavioural plumbing per lane makes the arena 64× larger and the
//! simulation correspondingly slower; instead, this module packs each
//! LIS channel across lanes as **bit-planes**: the `void` and `stop`
//! wires become one 64-bit signal each (bit `k` = lane `k`), and a
//! width-`W` data channel becomes `W` plane signals (bit `k` of plane
//! `b` = bit `b` of lane `k`'s payload). One relay station, wire,
//! source or sink then serves all lanes with a handful of bitwise mask
//! operations per cycle — the same bit-slicing trick
//! [`lis_sim::JitPackedNetlistSim`] plays for gate-level shells, whose
//! lane-words these planes match natively (no per-lane scatter/gather
//! at the shell boundary).
//!
//! Every component here is the exact lane-wise twin of its scalar
//! counterpart ([`RelayStation`](crate::RelayStation), [`TokenSource`](crate::TokenSource), [`TokenSink`](crate::TokenSink),
//! the zero-latency wire): lane `k`'s state evolves bit-identically to
//! a solo run with the same seeds, which is the fleet correctness bar.
//! [`LaneDemux`] / [`LaneMux`] bridge packed channels to per-lane
//! scalar channels for components that are still replicated per lane
//! (behavioural wrappers) — zero-latency combinational hops that leave
//! the settled values every registered face samples unchanged.

use crate::channel::LisChannel;
use crate::endpoints::StallPattern;
use crate::relay::ViolationCounter;
use crate::token::Token;
use lis_sim::{
    load_plane_lanes, save_plane_lanes, Activity, Component, Ports, SignalId, SignalView, System,
    LANES,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The bit-plane packed twin of [`LisChannel`]: one channel carrying up
/// to [`LANES`] independent scenario lanes.
///
/// `void` and `stop` hold one lane per bit; `data[b]` holds bit `b` of
/// every lane's payload. Lane `k` of a packed channel behaves exactly
/// like a scalar channel: `void` powers up high on every lane (idle
/// channels carry void, not stale data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLisChannel {
    /// Data bit-planes (downstream): `data[b]` bit `k` is bit `b` of
    /// lane `k`'s payload.
    pub data: Vec<SignalId>,
    /// Void flags (downstream), one lane per bit.
    pub void: SignalId,
    /// Back-pressure (upstream), one lane per bit.
    pub stop: SignalId,
    /// Payload width in bits (the number of data planes).
    pub width: u32,
}

impl PackedLisChannel {
    /// Allocates the `width + 2` plane signals of a packed channel in
    /// `system`. Every lane powers up void.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64`: a lane's payload is one
    /// word, as on a scalar channel.
    pub fn new(system: &mut System, name: &str, width: u32) -> Self {
        assert!(
            (1..=64).contains(&width),
            "packed channel {name}: width must be in 1..=64, got {width}"
        );
        let data = (0..width)
            .map(|b| system.add_signal(format!("{name}_d{b}"), 64))
            .collect();
        let void = system.add_signal(format!("{name}_void"), 64);
        let stop = system.add_signal(format!("{name}_stop"), 64);
        system.poke(void, u64::MAX);
        PackedLisChannel {
            data,
            void,
            stop,
            width,
        }
    }

    /// Declared ports of a registered producer: eval writes the data
    /// planes and `void`; `stop` is sampled at the clock edge.
    pub fn producer_ports(&self) -> Ports {
        Ports::writes_only(self.data.iter().copied().chain([self.void])).tick_read(self.stop)
    }

    /// Declared ports of a registered consumer: eval writes `stop`; the
    /// token planes are sampled at the clock edge.
    pub fn consumer_ports(&self) -> Ports {
        let mut p = Ports::writes_only([self.stop]);
        for &d in &self.data {
            p = p.tick_read(d);
        }
        p.tick_read(self.void)
    }

    /// Extra declaration for a stage reading the token planes
    /// *combinationally* during eval (zero-latency connectors, packed
    /// gate-level shells).
    pub fn downstream_reads(&self) -> Ports {
        Ports::reads_only(self.data.iter().copied().chain([self.void]))
    }

    /// Extra declaration for a stage reading back-pressure
    /// combinationally during eval.
    pub fn stop_reads(&self) -> Ports {
        Ports::reads_only([self.stop])
    }

    /// Reads the void mask (bit `k` = lane `k` carries no token).
    pub fn read_void(&self, sigs: &SignalView<'_>) -> u64 {
        sigs.get(self.void)
    }

    /// Reads the stop mask (bit `k` = lane `k` is back-pressured).
    pub fn read_stop(&self, sigs: &SignalView<'_>) -> u64 {
        sigs.get(self.stop)
    }

    /// Drives the void mask.
    pub fn write_void(&self, sigs: &mut SignalView<'_>, mask: u64) {
        sigs.set(self.void, mask);
    }

    /// Drives the stop mask.
    pub fn write_stop(&self, sigs: &mut SignalView<'_>, mask: u64) {
        sigs.set(self.stop, mask);
    }

    /// Reads every data plane into `buf` (must hold `width` words).
    pub fn read_planes_into(&self, sigs: &SignalView<'_>, buf: &mut [u64]) {
        for (b, &plane) in self.data.iter().enumerate() {
            buf[b] = sigs.get(plane);
        }
    }

    /// Drives every data plane from `planes`.
    pub fn write_planes(&self, sigs: &mut SignalView<'_>, planes: &[u64]) {
        for (&plane, &word) in self.data.iter().zip(planes) {
            sigs.set(plane, word);
        }
    }

    /// Extracts lane `lane`'s payload from gathered plane words.
    pub fn lane_value(planes: &[u64], lane: usize) -> u64 {
        planes
            .iter()
            .enumerate()
            .fold(0, |v, (b, &p)| v | ((p >> lane) & 1) << b)
    }

    /// Deposits `value` into lane `lane` of `planes` (whose lane bits
    /// must be clear).
    pub fn scatter_value(planes: &mut [u64], lane: usize, mut value: u64) {
        while value != 0 {
            let b = value.trailing_zeros() as usize;
            value &= value - 1;
            if b < planes.len() {
                planes[b] |= 1 << lane;
            }
        }
    }
}

/// Asserts a packed component's lane count is in `1..=LANES`.
fn assert_lanes(lanes: usize) {
    assert!(
        (1..=LANES).contains(&lanes),
        "a packed component serves 1..={LANES} lanes, got {lanes}"
    );
}

/// The lane-batched twin of [`RelayStation`](crate::RelayStation): one 2-place buffer per
/// lane, all lanes advanced with bitwise mask algebra (presence masks
/// `main`/`aux` plus value planes). Lane `k` follows the scalar relay's
/// state machine bit-for-bit; a full `aux` lane that is offered a third
/// token records a violation on *that lane's* counter.
#[derive(Debug)]
pub struct PackedRelayStation {
    name: String,
    upstream: PackedLisChannel,
    downstream: PackedLisChannel,
    /// Through-register presence, one lane per bit.
    main_p: u64,
    /// Overflow-register presence, one lane per bit.
    aux_p: u64,
    /// Registered back-pressure towards upstream, one lane per bit.
    stop_up: u64,
    /// Through-register payload planes.
    main_v: Vec<u64>,
    /// Overflow-register payload planes.
    aux_v: Vec<u64>,
    /// One counter per lane.
    violations: Vec<ViolationCounter>,
}

impl PackedRelayStation {
    /// Creates a packed relay forwarding `upstream` to `downstream`,
    /// with one violation counter per lane.
    ///
    /// # Panics
    ///
    /// Panics if the channels disagree on width or the lane count is
    /// not in `1..=LANES`.
    pub fn new(
        name: impl Into<String>,
        upstream: PackedLisChannel,
        downstream: PackedLisChannel,
        violations: Vec<ViolationCounter>,
    ) -> Self {
        assert_eq!(upstream.width, downstream.width, "relay channel widths");
        assert_lanes(violations.len());
        let planes = upstream.width as usize;
        PackedRelayStation {
            name: name.into(),
            upstream,
            downstream,
            main_p: 0,
            aux_p: 0,
            stop_up: 0,
            main_v: vec![0; planes],
            aux_v: vec![0; planes],
            violations,
        }
    }

    /// Inserts `count` packed relay stations between `from` and a fresh
    /// tail channel, returning the tail — the packed twin of
    /// [`RelayStation::chain`](crate::RelayStation::chain).
    pub fn chain(
        system: &mut System,
        name: &str,
        from: PackedLisChannel,
        count: usize,
        violations: &[ViolationCounter],
    ) -> PackedLisChannel {
        let mut current = from;
        for i in 0..count {
            let next = PackedLisChannel::new(system, &format!("{name}_seg{i}"), current.width);
            system.add_component(PackedRelayStation::new(
                format!("{name}_rs{i}"),
                current,
                next.clone(),
                violations.to_vec(),
            ));
            current = next;
        }
        current
    }

    /// Tokens currently buffered across all lanes (diagnostics).
    pub fn occupancy(&self) -> usize {
        (self.main_p.count_ones() + self.aux_p.count_ones()) as usize
    }
}

impl Component for PackedRelayStation {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.downstream
            .producer_ports()
            .merge(self.upstream.consumer_ports())
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        // Lanes without a token present void with zeroed data — exactly
        // what the scalar relay's `Token::Void.to_wires()` drives.
        for (b, &plane) in self.downstream.data.iter().enumerate() {
            sigs.set(plane, self.main_v[b] & self.main_p);
        }
        self.downstream.write_void(sigs, !self.main_p);
        self.upstream.write_stop(sigs, self.stop_up);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        // Lane-wise transcription of the scalar relay's four steps; each
        // mask below is "the lanes where the scalar branch fires".
        let up_void = self.upstream.read_void(sigs);
        let incoming = !self.stop_up & !up_void;
        let stalled = self.downstream.read_stop(sigs);

        // 1. Downstream consumes main unless it stalls.
        let consume = self.main_p & !stalled;
        self.main_p &= !consume;
        // 2. Aux backfills the through register.
        let backfill = self.aux_p & !self.main_p;
        if backfill != 0 {
            for (m, a) in self.main_v.iter_mut().zip(&self.aux_v) {
                *m = (*m & !backfill) | (a & backfill);
            }
            self.main_p |= backfill;
            self.aux_p &= !backfill;
        }
        // 3. Absorb the incoming token: into main, else aux, else a
        //    violation on that lane.
        if incoming != 0 {
            let to_main = incoming & !self.main_p;
            let rest = incoming & !to_main;
            let to_aux = rest & !self.aux_p;
            for (b, (m, a)) in self.main_v.iter_mut().zip(&mut self.aux_v).enumerate() {
                let up = sigs.get(self.upstream.data[b]);
                *m = (*m & !to_main) | (up & to_main);
                *a = (*a & !to_aux) | (up & to_aux);
            }
            self.main_p |= to_main;
            self.aux_p |= to_aux;
            let mut overflow = rest & !to_aux;
            while overflow != 0 {
                let lane = overflow.trailing_zeros() as usize;
                overflow &= overflow - 1;
                self.violations[lane].record();
            }
        }
        // 4. Back-pressure upstream while the overflow slot is in use.
        let stop = self.aux_p;
        let changed = consume != 0 || backfill != 0 || incoming != 0 || stop != self.stop_up;
        self.stop_up = stop;
        Activity::from_changed(changed)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.main_p);
        out.push(self.aux_p);
        out.push(self.stop_up);
        out.extend(self.main_v.iter().copied());
        out.extend(self.aux_v.iter().copied());
    }

    fn load_state(&mut self, data: &[u64]) {
        let planes = self.main_v.len();
        self.main_p = data[0];
        self.aux_p = data[1];
        self.stop_up = data[2];
        self.main_v.copy_from_slice(&data[3..3 + planes]);
        self.aux_v
            .copy_from_slice(&data[3 + planes..3 + 2 * planes]);
    }

    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        // Per lane: presence/stop flags (bits 0, 1, 2), then the main
        // and aux payloads — each a transposed group of planes.
        save_plane_lanes(&[self.main_p, self.aux_p, self.stop_up], first, outs);
        save_plane_lanes(&self.main_v, first, outs);
        save_plane_lanes(&self.aux_v, first, outs);
    }

    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        let mut flags = [self.main_p, self.aux_p, self.stop_up];
        load_plane_lanes(&mut flags, first, blobs, 0);
        [self.main_p, self.aux_p, self.stop_up] = flags;
        load_plane_lanes(&mut self.main_v, first, blobs, 1);
        load_plane_lanes(&mut self.aux_v, first, blobs, 2);
    }
}

/// The zero-latency packed connector: forwards the token planes
/// downstream and the stop mask upstream, fully combinationally — the
/// packed twin of the SoC builder's scalar wire.
#[derive(Debug)]
pub struct PackedWire {
    name: String,
    upstream: PackedLisChannel,
    downstream: PackedLisChannel,
}

impl PackedWire {
    /// Creates a wire forwarding `upstream` to `downstream`.
    ///
    /// # Panics
    ///
    /// Panics if the channels disagree on width.
    pub fn new(
        name: impl Into<String>,
        upstream: PackedLisChannel,
        downstream: PackedLisChannel,
    ) -> Self {
        assert_eq!(upstream.width, downstream.width, "wire channel widths");
        PackedWire {
            name: name.into(),
            upstream,
            downstream,
        }
    }
}

impl Component for PackedWire {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.upstream
            .downstream_reads()
            .merge(self.upstream.consumer_ports())
            .merge(self.downstream.producer_ports())
            .merge(self.downstream.stop_reads())
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        for (&up, &down) in self.upstream.data.iter().zip(&self.downstream.data) {
            let v = sigs.get(up);
            sigs.set(down, v);
        }
        let void = self.upstream.read_void(sigs);
        self.downstream.write_void(sigs, void);
        let stop = self.downstream.read_stop(sigs);
        self.upstream.write_stop(sigs, stop);
    }

    fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
        Activity::Quiescent
    }
}

/// One lane of a [`PackedTokenSource`]: its own queue, stall schedule
/// and RNG stream — seeded exactly like a solo [`TokenSource`](crate::TokenSource).
#[derive(Debug)]
struct SourceLane {
    pending: VecDeque<u64>,
    pattern: StallPattern,
    rng: StdRng,
    sent: Arc<Mutex<Vec<u64>>>,
}

/// The lane-batched twin of [`TokenSource`](crate::TokenSource): one producer driving up to
/// [`LANES`] independent token sequences onto a packed channel, each
/// lane honouring its own stall pattern and back-pressure bit.
#[derive(Debug)]
pub struct PackedTokenSource {
    name: String,
    channel: PackedLisChannel,
    lanes: Vec<SourceLane>,
    /// Current-cycle random stalls, one lane per bit.
    stalling: u64,
    /// Scratch plane buffer reused across evals.
    planes: Vec<u64>,
}

impl PackedTokenSource {
    /// Creates a packed source; `lanes[k]` supplies lane `k`'s token
    /// stream, stall pattern and seed.
    ///
    /// # Panics
    ///
    /// Panics if the lane count is not in `1..=LANES` or any pattern is
    /// invalid.
    pub fn new(
        name: impl Into<String>,
        channel: PackedLisChannel,
        lanes: Vec<(Vec<u64>, StallPattern, u64)>,
    ) -> Self {
        assert_lanes(lanes.len());
        let planes = channel.width as usize;
        let lanes = lanes
            .into_iter()
            .map(|(tokens, pattern, seed)| {
                pattern.validate();
                SourceLane {
                    pending: tokens.into_iter().collect(),
                    pattern,
                    rng: StdRng::seed_from_u64(seed),
                    sent: Arc::new(Mutex::new(Vec::new())),
                }
            })
            .collect();
        PackedTokenSource {
            name: name.into(),
            channel,
            lanes,
            stalling: 0,
            planes: vec![0; planes],
        }
    }

    /// Handle to the tokens lane `lane` actually sent (in order).
    pub fn sent(&self, lane: usize) -> Arc<Mutex<Vec<u64>>> {
        Arc::clone(&self.lanes[lane].sent)
    }

    /// Tokens lane `lane` has not yet emitted.
    pub fn remaining(&self, lane: usize) -> usize {
        self.lanes[lane].pending.len()
    }

    fn stalled_at(&self, lane: usize, cycle: u64) -> bool {
        match self.lanes[lane].pattern {
            StallPattern::Random(_) => (self.stalling >> lane) & 1 == 1,
            pattern => pattern.scheduled_stall_at(cycle),
        }
    }
}

impl Component for PackedTokenSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.producer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let cycle = sigs.cycle();
        // Unpopulated lanes stay void forever.
        let mut void = u64::MAX;
        let mut planes = std::mem::take(&mut self.planes);
        planes.fill(0);
        for lane in 0..self.lanes.len() {
            if self.stalled_at(lane, cycle) {
                continue;
            }
            if let Some(&v) = self.lanes[lane].pending.front() {
                void &= !(1u64 << lane);
                PackedLisChannel::scatter_value(&mut planes, lane, v);
            }
        }
        self.channel.write_planes(sigs, &planes);
        self.channel.write_void(sigs, void);
        self.planes = planes;
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let cycle = sigs.cycle();
        let stop = self.channel.read_stop(sigs);
        for lane in 0..self.lanes.len() {
            if !self.stalled_at(lane, cycle) && (stop >> lane) & 1 == 0 {
                if let Some(v) = self.lanes[lane].pending.pop_front() {
                    self.lanes[lane].sent.lock().unwrap().push(v);
                }
            }
            // Decide next cycle's stall; each lane's RNG stream is state
            // and must advance exactly once per cycle, as in a solo run.
            if let StallPattern::Random(p) = self.lanes[lane].pattern {
                let bit = 1u64 << lane;
                if self.lanes[lane].rng.random_bool(p) {
                    self.stalling |= bit;
                } else {
                    self.stalling &= !bit;
                }
            }
        }
        // Per-lane activity is a solo-run superset: a packed source
        // ticks every cycle (the batch rarely quiesces as a whole, and
        // each lane's update is a pure function of its own state and
        // signals, so extra executions change nothing).
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.lanes.len() as u64);
        out.push(self.stalling);
        for lane in &self.lanes {
            out.extend(lane.rng.state());
            out.push(lane.pending.len() as u64);
            out.extend(lane.pending.iter().copied());
            let sent = lane.sent.lock().unwrap();
            out.push(sent.len() as u64);
            out.extend(sent.iter().copied());
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        assert_eq!(data[0] as usize, self.lanes.len(), "checkpoint lane count");
        self.stalling = data[1];
        let mut at = 2;
        for lane in &mut self.lanes {
            lane.rng = StdRng::from_state([data[at], data[at + 1], data[at + 2], data[at + 3]]);
            at += 4;
            let n = data[at] as usize;
            lane.pending = data[at + 1..at + 1 + n].iter().copied().collect();
            at += 1 + n;
            let m = data[at] as usize;
            *lane.sent.lock().unwrap() = data[at + 1..at + 1 + m].to_vec();
            at += 1 + m;
        }
    }
}

/// One lane of a [`PackedTokenSink`].
#[derive(Debug)]
struct SinkLane {
    pattern: StallPattern,
    rng: StdRng,
    received: Arc<Mutex<Vec<u64>>>,
    cycles_busy: u64,
    cycles_total: u64,
}

/// The lane-batched twin of [`TokenSink`](crate::TokenSink): one consumer recording up to
/// [`LANES`] independent informative streams from a packed channel,
/// each lane asserting its own back-pressure bit.
#[derive(Debug)]
pub struct PackedTokenSink {
    name: String,
    channel: PackedLisChannel,
    lanes: Vec<SinkLane>,
    /// Current-cycle random stalls, one lane per bit.
    stalling: u64,
    /// Scratch plane buffer reused across ticks.
    planes: Vec<u64>,
}

impl PackedTokenSink {
    /// Creates a packed sink; `lanes[k]` supplies lane `k`'s stall
    /// pattern and seed.
    ///
    /// # Panics
    ///
    /// Panics if the lane count is not in `1..=LANES` or any pattern is
    /// invalid.
    pub fn new(
        name: impl Into<String>,
        channel: PackedLisChannel,
        lanes: Vec<(StallPattern, u64)>,
    ) -> Self {
        assert_lanes(lanes.len());
        let planes = channel.width as usize;
        let lanes = lanes
            .into_iter()
            .map(|(pattern, seed)| {
                pattern.validate();
                SinkLane {
                    pattern,
                    rng: StdRng::seed_from_u64(seed),
                    received: Arc::new(Mutex::new(Vec::new())),
                    cycles_busy: 0,
                    cycles_total: 0,
                }
            })
            .collect();
        PackedTokenSink {
            name: name.into(),
            channel,
            lanes,
            stalling: 0,
            planes: vec![0; planes],
        }
    }

    /// Handle to the informative tokens lane `lane` received (in
    /// order).
    pub fn received(&self, lane: usize) -> Arc<Mutex<Vec<u64>>> {
        Arc::clone(&self.lanes[lane].received)
    }

    fn stalled_at(&self, lane: usize, cycle: u64) -> bool {
        match self.lanes[lane].pattern {
            StallPattern::Random(_) => (self.stalling >> lane) & 1 == 1,
            pattern => pattern.scheduled_stall_at(cycle),
        }
    }

    fn stop_mask(&self, cycle: u64) -> u64 {
        // Unpopulated lanes see permanent back-pressure.
        let mut stop = u64::MAX;
        for lane in 0..self.lanes.len() {
            if !self.stalled_at(lane, cycle) {
                stop &= !(1u64 << lane);
            }
        }
        stop
    }
}

impl Component for PackedTokenSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.consumer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let stop = self.stop_mask(sigs.cycle());
        self.channel.write_stop(sigs, stop);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let cycle = sigs.cycle();
        // Lanes taking a token this cycle: accepting and non-void.
        let take = !self.stop_mask(cycle) & !self.channel.read_void(sigs);
        if take != 0 {
            let mut planes = std::mem::take(&mut self.planes);
            self.channel.read_planes_into(sigs, &mut planes);
            let mut lanes = take;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let v = PackedLisChannel::lane_value(&planes, lane);
                self.lanes[lane].received.lock().unwrap().push(v);
                self.lanes[lane].cycles_busy += 1;
            }
            self.planes = planes;
        }
        for lane in 0..self.lanes.len() {
            self.lanes[lane].cycles_total += 1;
            // As for the packed source: every lane's RNG stream must
            // advance exactly once per cycle.
            if let StallPattern::Random(p) = self.lanes[lane].pattern {
                let bit = 1u64 << lane;
                if self.lanes[lane].rng.random_bool(p) {
                    self.stalling |= bit;
                } else {
                    self.stalling &= !bit;
                }
            }
        }
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.lanes.len() as u64);
        out.push(self.stalling);
        for lane in &self.lanes {
            out.extend(lane.rng.state());
            out.push(lane.cycles_busy);
            out.push(lane.cycles_total);
            let received = lane.received.lock().unwrap();
            out.push(received.len() as u64);
            out.extend(received.iter().copied());
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        assert_eq!(data[0] as usize, self.lanes.len(), "checkpoint lane count");
        self.stalling = data[1];
        let mut at = 2;
        for lane in &mut self.lanes {
            lane.rng = StdRng::from_state([data[at], data[at + 1], data[at + 2], data[at + 3]]);
            lane.cycles_busy = data[at + 4];
            lane.cycles_total = data[at + 5];
            let n = data[at + 6] as usize;
            *lane.received.lock().unwrap() = data[at + 7..at + 7 + n].to_vec();
            at += 7 + n;
        }
    }
}

/// Zero-latency bridge from a packed channel to per-lane scalar
/// channels: lane `k`'s token fans out to `down[k]` and the per-lane
/// `stop` wires gather back into the packed stop mask. Used to feed
/// per-lane behavioural wrappers from packed plumbing.
#[derive(Debug)]
pub struct LaneDemux {
    name: String,
    upstream: PackedLisChannel,
    downstream: Vec<LisChannel>,
}

impl LaneDemux {
    /// Creates a demux from `upstream` onto one scalar channel per
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree or the lane count is not in
    /// `1..=LANES`.
    pub fn new(
        name: impl Into<String>,
        upstream: PackedLisChannel,
        downstream: Vec<LisChannel>,
    ) -> Self {
        assert_lanes(downstream.len());
        for ch in &downstream {
            assert_eq!(ch.width, upstream.width, "demux channel widths");
        }
        LaneDemux {
            name: name.into(),
            upstream,
            downstream,
        }
    }
}

impl Component for LaneDemux {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        let mut p = self
            .upstream
            .downstream_reads()
            .merge(self.upstream.consumer_ports());
        for ch in &self.downstream {
            p = p.merge(ch.producer_ports()).merge(ch.stop_reads());
        }
        p
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let void = self.upstream.read_void(sigs);
        let mut stop = u64::MAX;
        for (lane, ch) in self.downstream.iter().enumerate() {
            let token = if (void >> lane) & 1 == 1 {
                Token::Void
            } else {
                let mut v = 0;
                for (b, &plane) in self.upstream.data.iter().enumerate() {
                    v |= ((sigs.get(plane) >> lane) & 1) << b;
                }
                Token::Data(v)
            };
            ch.write_token(sigs, token);
            if !ch.read_stop(sigs) {
                stop &= !(1u64 << lane);
            }
        }
        self.upstream.write_stop(sigs, stop);
    }

    fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
        Activity::Quiescent
    }
}

/// Zero-latency bridge from per-lane scalar channels to a packed
/// channel: the inverse of [`LaneDemux`], gathering per-lane tokens
/// into planes and fanning the packed stop mask back out. Used to
/// collect per-lane behavioural wrappers' outputs into packed plumbing.
#[derive(Debug)]
pub struct LaneMux {
    name: String,
    upstream: Vec<LisChannel>,
    downstream: PackedLisChannel,
}

impl LaneMux {
    /// Creates a mux from one scalar channel per lane onto
    /// `downstream`.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree or the lane count is not in
    /// `1..=LANES`.
    pub fn new(
        name: impl Into<String>,
        upstream: Vec<LisChannel>,
        downstream: PackedLisChannel,
    ) -> Self {
        assert_lanes(upstream.len());
        for ch in &upstream {
            assert_eq!(ch.width, downstream.width, "mux channel widths");
        }
        LaneMux {
            name: name.into(),
            upstream,
            downstream,
        }
    }
}

impl Component for LaneMux {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        let mut p = self
            .downstream
            .producer_ports()
            .merge(self.downstream.stop_reads());
        for ch in &self.upstream {
            p = p.merge(ch.downstream_reads()).merge(ch.consumer_ports());
        }
        p
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let mut void = u64::MAX;
        let mut planes = vec![0u64; self.downstream.width as usize];
        let stop = self.downstream.read_stop(sigs);
        for (lane, ch) in self.upstream.iter().enumerate() {
            if let Token::Data(v) = ch.read_token(sigs) {
                void &= !(1u64 << lane);
                PackedLisChannel::scatter_value(&mut planes, lane, v);
            }
            ch.write_stop(sigs, (stop >> lane) & 1 == 1);
        }
        self.downstream.write_planes(sigs, &planes);
        self.downstream.write_void(sigs, void);
    }

    fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
        Activity::Quiescent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoints::{TokenSink, TokenSource};
    use crate::relay::RelayStation;

    /// Per-lane traffic of the equivalence tests: distinct streams,
    /// stall regimes and seeds per lane.
    fn lane_traffic(lane: usize) -> (Vec<u64>, f64, u64, f64, u64) {
        let tokens: Vec<u64> = (1..=25).map(|v| v * (lane as u64 + 3)).collect();
        let src_stall = [0.0, 0.3, 0.55, 0.15][lane % 4];
        let sink_stall = [0.4, 0.0, 0.2, 0.6][lane % 4];
        (
            tokens,
            src_stall,
            7 + lane as u64,
            sink_stall,
            90 + lane as u64,
        )
    }

    /// One solo scalar pipeline: source → `relays` relay stations →
    /// sink, with lane `lane`'s traffic.
    fn solo_run(lane: usize, relays: usize, cycles: u64) -> (Vec<u64>, Vec<u64>, u64) {
        let (tokens, ss, s_seed, ks, k_seed) = lane_traffic(lane);
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let a = LisChannel::new(&mut sys, "a", 16);
        let src = TokenSource::new("src", a, tokens).with_stalls(ss, s_seed);
        let sent = src.sent();
        sys.add_component(src);
        let out = RelayStation::chain(&mut sys, "link", a, relays, &violations);
        let sink = TokenSink::new("sink", out).with_stalls(ks, k_seed);
        let got = sink.received();
        sys.add_component(sink);
        sys.run(cycles).unwrap();
        let received = got.lock().unwrap().clone();
        let sent = sent.lock().unwrap().clone();
        (received, sent, violations.count())
    }

    /// The packed twin: every lane through one packed pipeline.
    fn packed_run(lanes: usize, relays: usize, cycles: u64) -> Vec<(Vec<u64>, Vec<u64>, u64)> {
        let mut sys = System::new();
        let violations: Vec<ViolationCounter> =
            (0..lanes).map(|_| ViolationCounter::new()).collect();
        let a = PackedLisChannel::new(&mut sys, "a", 16);
        let src = PackedTokenSource::new(
            "src",
            a.clone(),
            (0..lanes)
                .map(|lane| {
                    let (tokens, ss, s_seed, _, _) = lane_traffic(lane);
                    (tokens, StallPattern::from(ss), s_seed)
                })
                .collect(),
        );
        let sent: Vec<_> = (0..lanes).map(|l| src.sent(l)).collect();
        sys.add_component(src);
        let out = PackedRelayStation::chain(&mut sys, "link", a, relays, &violations);
        let sink = PackedTokenSink::new(
            "sink",
            out,
            (0..lanes)
                .map(|lane| {
                    let (_, _, _, ks, k_seed) = lane_traffic(lane);
                    (StallPattern::from(ks), k_seed)
                })
                .collect(),
        );
        let got: Vec<_> = (0..lanes).map(|l| sink.received(l)).collect();
        sys.add_component(sink);
        sys.run(cycles).unwrap();
        (0..lanes)
            .map(|l| {
                (
                    got[l].lock().unwrap().clone(),
                    sent[l].lock().unwrap().clone(),
                    violations[l].count(),
                )
            })
            .collect()
    }

    #[test]
    fn packed_channel_powers_up_void_on_every_lane() {
        let mut sys = System::new();
        let ch = PackedLisChannel::new(&mut sys, "c", 8);
        assert_eq!(sys.signal_count(), 10);
        assert_eq!(sys.peek(ch.void), u64::MAX);
    }

    #[test]
    fn packed_relay_pipeline_lanes_match_solo_runs() {
        let lanes = 7;
        let packed = packed_run(lanes, 4, 600);
        for (lane, got) in packed.iter().enumerate() {
            let want = solo_run(lane, 4, 600);
            assert!(!want.0.is_empty(), "lane {lane} must deliver tokens");
            assert_eq!(got, &want, "lane {lane} diverges from its solo twin");
        }
    }

    #[test]
    fn all_64_lanes_run_in_one_packed_pipeline() {
        let packed = packed_run(LANES, 2, 250);
        for (lane, got) in packed.iter().enumerate() {
            let want = solo_run(lane, 2, 250);
            assert_eq!(got, &want, "lane {lane}");
        }
    }

    #[test]
    fn demux_and_mux_bridge_to_scalar_components() {
        // packed source → demux → per-lane scalar relay → mux → packed
        // sink must equal the all-scalar solo pipeline with one relay.
        let lanes = 5;
        let cycles = 500;
        let mut sys = System::new();
        let violations: Vec<ViolationCounter> =
            (0..lanes).map(|_| ViolationCounter::new()).collect();
        let a = PackedLisChannel::new(&mut sys, "a", 16);
        let src = PackedTokenSource::new(
            "src",
            a.clone(),
            (0..lanes)
                .map(|lane| {
                    let (tokens, ss, s_seed, _, _) = lane_traffic(lane);
                    (tokens, StallPattern::from(ss), s_seed)
                })
                .collect(),
        );
        sys.add_component(src);
        let scalar_in: Vec<LisChannel> = (0..lanes)
            .map(|l| LisChannel::new(&mut sys, &format!("si{l}"), 16))
            .collect();
        let scalar_out: Vec<LisChannel> = (0..lanes)
            .map(|l| LisChannel::new(&mut sys, &format!("so{l}"), 16))
            .collect();
        sys.add_component(LaneDemux::new("demux", a, scalar_in.clone()));
        for (l, (i, o)) in scalar_in.iter().zip(&scalar_out).enumerate() {
            sys.add_component(RelayStation::new(
                format!("rs{l}"),
                *i,
                *o,
                violations[l].clone(),
            ));
        }
        let b = PackedLisChannel::new(&mut sys, "b", 16);
        sys.add_component(LaneMux::new("mux", scalar_out, b.clone()));
        let sink = PackedTokenSink::new(
            "sink",
            b,
            (0..lanes)
                .map(|lane| {
                    let (_, _, _, ks, k_seed) = lane_traffic(lane);
                    (StallPattern::from(ks), k_seed)
                })
                .collect(),
        );
        let got: Vec<_> = (0..lanes).map(|l| sink.received(l)).collect();
        sys.add_component(sink);
        sys.run(cycles).unwrap();
        for lane in 0..lanes {
            let want = solo_run(lane, 1, cycles);
            assert_eq!(
                got[lane].lock().unwrap().clone(),
                want.0,
                "lane {lane} stream"
            );
            assert_eq!(violations[lane].count(), want.2, "lane {lane} violations");
        }
    }

    #[test]
    fn packed_pipeline_checkpoint_round_trips() {
        let lanes = 6;
        let build = |sys: &mut System| {
            let violations: Vec<ViolationCounter> =
                (0..lanes).map(|_| ViolationCounter::new()).collect();
            let a = PackedLisChannel::new(sys, "a", 16);
            sys.add_component(PackedTokenSource::new(
                "src",
                a.clone(),
                (0..lanes)
                    .map(|lane| {
                        let (tokens, ss, s_seed, _, _) = lane_traffic(lane);
                        (tokens, StallPattern::from(ss), s_seed)
                    })
                    .collect(),
            ));
            let out = PackedRelayStation::chain(sys, "link", a, 3, &violations);
            let sink = PackedTokenSink::new(
                "sink",
                out,
                (0..lanes)
                    .map(|lane| {
                        let (_, _, _, ks, k_seed) = lane_traffic(lane);
                        (StallPattern::from(ks), k_seed)
                    })
                    .collect(),
            );
            let got: Vec<_> = (0..lanes).map(|l| sink.received(l)).collect();
            sys.add_component(sink);
            got
        };
        let mut reference = System::new();
        let want = build(&mut reference);
        reference.run(400).unwrap();
        let mut first = System::new();
        build(&mut first);
        first.run(150).unwrap();
        let snap = first.checkpoint();
        let mut resumed = System::new();
        let got = build(&mut resumed);
        resumed.restore(&snap);
        resumed.run(250).unwrap();
        for lane in 0..lanes {
            assert_eq!(
                got[lane].lock().unwrap().clone(),
                want[lane].lock().unwrap().clone(),
                "lane {lane}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn packed_channel_rejects_widths_past_one_word() {
        let mut sys = System::new();
        let _ = PackedLisChannel::new(&mut sys, "wide", 65);
    }

    /// Lane-range save/load on the packed relay: writing one lane's
    /// state back must reproduce exactly the full-state words, and must
    /// not disturb any other lane.
    #[test]
    fn packed_relay_lane_state_round_trips() {
        let counters: Vec<_> = (0..LANES).map(|_| ViolationCounter::new()).collect();
        let mut sys = System::new();
        let up = PackedLisChannel::new(&mut sys, "up", 16);
        let down = PackedLisChannel::new(&mut sys, "down", 16);
        let mut relay = PackedRelayStation::new("rs", up, down, counters);
        // Hand-fill a mixed occupancy: lane 3 holds main+aux, lane 7
        // main only, others empty.
        relay.main_p = (1 << 3) | (1 << 7);
        relay.aux_p = 1 << 3;
        relay.stop_up = 1 << 3;
        PackedLisChannel::scatter_value(&mut relay.main_v, 3, 0xAB);
        PackedLisChannel::scatter_value(&mut relay.main_v, 7, 0x55);
        PackedLisChannel::scatter_value(&mut relay.aux_v, 3, 0xCD);
        let mut full = Vec::new();
        relay.save_state(&mut full);

        // Lanes 3..8 in one call: lane 3 holds main+aux, lane 7 main
        // only, the lanes between are empty.
        let mut lanes = vec![Vec::new(); 5];
        relay.save_lanes_state(3, &mut lanes);
        assert_eq!(lanes[0], vec![0b111, 0xAB, 0xCD]);
        assert_eq!(lanes[1], vec![0, 0, 0]);
        assert_eq!(lanes[4], vec![0b001, 0x55, 0]);

        // Clobber lane 3, restore it, and check nothing else moved.
        relay.load_lanes_state(3, &[&[0, 0, 0]]);
        let mut l7 = vec![Vec::new()];
        relay.save_lanes_state(7, &mut l7);
        assert_eq!(
            l7[0],
            vec![0b001, 0x55, 0],
            "lane 7 untouched by lane 3 load"
        );
        relay.load_lanes_state(3, &[&lanes[0]]);
        let mut again = Vec::new();
        relay.save_state(&mut again);
        assert_eq!(again, full, "lane round trip restores the full state");
    }
}
