//! Lane-batched LIS plumbing: the bit-plane packed channel and the
//! bridges between packed and scalar channels.
//!
//! A scenario fleet advances up to 64 independent traffic scenarios
//! ("lanes") of the same SoC in lockstep. Replicating the
//! behavioural plumbing per lane makes the arena 64× larger and the
//! simulation correspondingly slower; instead, a [`PackedLisChannel`]
//! packs each LIS channel across lanes as **bit-planes**: the `void`
//! and `stop` wires become one 64-bit signal each (bit `k` = lane `k`),
//! and a width-`W` data channel becomes `W` plane signals (bit `k` of
//! plane `b` = bit `b` of lane `k`'s payload). One relay station, wire,
//! source or sink on packed channels (the components written over
//! [`crate::Lanes`]) then serves all lanes with a handful of bitwise
//! mask operations per cycle — the same bit-slicing trick
//! [`lis_sim::JitPackedNetlistSim`] plays for gate-level shells, whose
//! lane-words these planes match natively (no per-lane scatter/gather
//! at the shell boundary). Lane `k` of each evolves bit-identically to
//! a solo run with the same seeds, which is the fleet correctness bar.
//!
//! [`LaneDemux`] / [`LaneMux`] bridge packed channels to per-lane
//! scalar channels for components that are still replicated per lane
//! (behavioural wrappers) — zero-latency combinational hops that leave
//! the settled values every registered face samples unchanged.

use crate::channel::LisChannel;
use crate::lanes::{assert_lanes, Lanes};
use crate::token::Token;
use lis_sim::{Activity, Component, Ports, SignalId, SignalView, System};

/// The bit-plane packed twin of [`LisChannel`]: one channel carrying up
/// to 64 independent scenario lanes.
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
        assert_lanes::<PackedLisChannel>(downstream.len());
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
        let tokens = self.upstream.token_lanes(sigs);
        let mut stop = u64::MAX;
        for (lane, ch) in self.downstream.iter().enumerate() {
            let token = if (tokens >> lane) & 1 == 0 {
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
        self.upstream.set_stop_lanes(sigs, stop);
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
        assert_lanes::<PackedLisChannel>(upstream.len());
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
        let mut tokens = 0;
        let mut planes = self.downstream.register();
        let stop = self.downstream.stop_lanes(sigs);
        for (lane, ch) in self.upstream.iter().enumerate() {
            if let Token::Data(v) = ch.read_token(sigs) {
                tokens |= 1u64 << lane;
                PackedLisChannel::deposit(&mut planes, lane, v);
            }
            ch.write_stop(sigs, (stop >> lane) & 1 == 1);
        }
        self.downstream.drive(sigs, &planes, tokens);
    }

    fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
        Activity::Quiescent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoints::{StallPattern, TokenSink, TokenSource};
    use crate::relay::{RelayStation, ViolationCounter};
    use lis_sim::LANES;

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
        let sent = src.sent(0);
        sys.add_component(src);
        let out = RelayStation::chain(&mut sys, "link", a, relays, &violations);
        let sink = TokenSink::new("sink", out).with_stalls(ks, k_seed);
        let got = sink.received(0);
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
        let src = TokenSource::with_lanes(
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
        let out = RelayStation::chain(&mut sys, "link", a, relays, &violations);
        let sink = TokenSink::with_lanes(
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
        let src = TokenSource::with_lanes(
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
        let sink = TokenSink::with_lanes(
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
            sys.add_component(TokenSource::with_lanes(
                "src",
                a.clone(),
                (0..lanes)
                    .map(|lane| {
                        let (tokens, ss, s_seed, _, _) = lane_traffic(lane);
                        (tokens, StallPattern::from(ss), s_seed)
                    })
                    .collect(),
            ));
            let out = RelayStation::chain(sys, "link", a, 3, &violations);
            let sink = TokenSink::with_lanes(
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
        let mut relay = RelayStation::new("rs", up, down, counters);
        // Load a mixed occupancy: lane 3 holds main+aux, lane 7 main
        // only, others empty.
        relay.load_lanes_state(3, &[&[0b111, 0xAB, 0xCD]]);
        relay.load_lanes_state(7, &[&[0b001, 0x55, 0]]);
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
