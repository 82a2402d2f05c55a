//! Relay stations and wires: the link components that segment long
//! wires.
//!
//! A relay station is a 2-place buffer speaking the LIS protocol
//! (Carloni et al.): one main register on the through path and one
//! auxiliary register that absorbs the single token which may still be in
//! flight when back-pressure is asserted (the `stop` wire is registered,
//! so upstream learns about a stall one cycle late). Inserting `k` relay
//! stations on a channel gives it `k` cycles of latency — the physical
//!-wire-pipelining move the whole LIS methodology exists to legalize.
//! A [`Wire`] is the zero-latency hop that closes a link.

use crate::channel::LisChannel;
use crate::lanes::{assert_lanes, lanes_in, load_every_lane, save_every_lane, Lanes};
use lis_sim::{Activity, Component, Ports, SignalView, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared flag counting protocol violations (token overflow) observed by
/// relay stations and port adapters. A correct system never increments
/// it; tests assert it stays zero.
#[derive(Debug, Clone, Default)]
pub struct ViolationCounter(Arc<AtomicU64>);

impl ViolationCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current violation count.
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Records one violation.
    pub fn record(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// One counter is the one-lane list of counters: a scalar component
/// takes a bare counter where a packed one takes one counter per lane.
impl AsRef<[ViolationCounter]> for ViolationCounter {
    fn as_ref(&self) -> &[ViolationCounter] {
        std::slice::from_ref(self)
    }
}

/// A 2-place relay station between an upstream and a downstream channel
/// segment, one per lane the channels carry.
///
/// Each lane runs the scalar relay's state machine; the masks below hold
/// one lane per bit, so one bitwise step advances every lane. A lane
/// whose full overflow register is offered a third token records a
/// violation on that lane's counter.
#[derive(Debug)]
pub struct RelayStation<C: Lanes = LisChannel> {
    name: String,
    upstream: C,
    downstream: C,
    /// Lanes whose through register (driving downstream) holds a token.
    main: u64,
    /// Lanes whose overflow register (absorbing the in-flight token
    /// during a stall) holds a token.
    aux: u64,
    /// Registered back-pressure towards upstream.
    stop_up: u64,
    /// Through-register payloads, meaningful on `main` lanes only.
    main_v: C::Reg,
    /// Overflow-register payloads, meaningful on `aux` lanes only.
    aux_v: C::Reg,
    /// One counter per lane.
    violations: Vec<ViolationCounter>,
}

impl<C: Lanes> RelayStation<C> {
    /// Creates a relay station forwarding `upstream` to `downstream`,
    /// with one violation counter per lane (a bare counter for a scalar
    /// channel).
    ///
    /// # Panics
    ///
    /// Panics if the channels disagree on width or the counters are not
    /// 1 to [`Lanes::LANE_COUNT`] long.
    pub fn new(
        name: impl Into<String>,
        upstream: C,
        downstream: C,
        violations: impl AsRef<[ViolationCounter]>,
    ) -> Self {
        assert_eq!(upstream.width(), downstream.width(), "relay channel widths");
        let violations = violations.as_ref().to_vec();
        assert_lanes::<C>(violations.len());
        RelayStation {
            name: name.into(),
            main_v: upstream.register(),
            aux_v: upstream.register(),
            upstream,
            downstream,
            main: 0,
            aux: 0,
            stop_up: 0,
            violations,
        }
    }

    /// Inserts `count` relay stations between `from` and a fresh tail
    /// channel in `system`, returning the tail, which then plays the role
    /// of the consumer's source.
    ///
    /// With `count == 0` no station is added and `from` is the tail.
    pub fn chain(
        system: &mut System,
        name: &str,
        from: C,
        count: usize,
        violations: impl AsRef<[ViolationCounter]>,
    ) -> C {
        let mut current = from;
        for i in 0..count {
            let next = C::alloc(system, &format!("{name}_seg{i}"), current.width());
            system.add_component(RelayStation::new(
                format!("{name}_rs{i}"),
                current,
                next.clone(),
                violations.as_ref(),
            ));
            current = next;
        }
        current
    }
}

impl<C: Lanes> Component for RelayStation<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        // Both faces are registered: the main register drives
        // downstream, the stop register drives upstream.
        self.downstream
            .producer_ports()
            .merge(self.upstream.consumer_ports())
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        // Downstream sees the main register (void where it is empty);
        // upstream sees the registered stop.
        self.downstream.drive(sigs, &self.main_v, self.main);
        self.upstream.set_stop_lanes(sigs, self.stop_up);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        // Each mask is "the lanes where this step fires". A token
        // transfers only on lanes where we presented stop = 0; while stop
        // is up the producer re-presents the same token, which must not
        // be absorbed twice.
        let incoming = self.upstream.token_lanes(sigs) & !self.stop_up;
        let stalled = self.downstream.stop_lanes(sigs);

        // 1. Downstream consumes main unless it stalls.
        let consume = self.main & !stalled;
        self.main &= !consume;
        // 2. Aux backfills the through register.
        let backfill = self.aux & !self.main;
        C::copy_lanes(&mut self.main_v, &self.aux_v, backfill);
        self.main |= backfill;
        self.aux &= !backfill;
        // 3. Absorb the incoming token: into main, else aux, else the
        //    upstream ignored our stop and the token is lost.
        let to_main = incoming & !self.main;
        let to_aux = incoming & !to_main & !self.aux;
        self.upstream.sample(sigs, &mut self.main_v, to_main);
        self.upstream.sample(sigs, &mut self.aux_v, to_aux);
        self.main |= to_main;
        self.aux |= to_aux;
        for lane in lanes_in(incoming & !to_main & !to_aux) {
            self.violations[lane].record();
        }
        // 4. Back-pressure upstream while the overflow slot is in use.
        let changed = (consume | backfill | incoming) != 0 || self.aux != self.stop_up;
        self.stop_up = self.aux;
        // A stalled relay with no token movement is exactly the state a
        // back-pressured mesh spends most of its cycles in — report it
        // quiescent so deep relay chains get skipped, not recomputed.
        Activity::from_changed(changed)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        save_every_lane(self, C::LANE_COUNT, out);
    }

    fn load_state(&mut self, data: &[u64]) {
        load_every_lane(self, C::LANE_COUNT, data);
    }

    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        // Per lane: the main/aux presence and stop flags (bits 0, 1, 2),
        // then the main and aux payloads, 0 while empty.
        C::save_mask_lanes(&[self.main, self.aux, self.stop_up], first, outs);
        C::save_reg_lanes(&self.main_v, self.main, first, outs);
        C::save_reg_lanes(&self.aux_v, self.aux, first, outs);
    }

    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        let mut flags = [self.main, self.aux, self.stop_up];
        C::load_mask_lanes(&mut flags, first, blobs, 0);
        [self.main, self.aux, self.stop_up] = flags;
        C::load_reg_lanes(&mut self.main_v, first, blobs, 1);
        C::load_reg_lanes(&mut self.aux_v, first, blobs, 2);
    }
}

/// The zero-latency connector: forwards every lane's token downstream
/// and its stop upstream, fully combinationally.
#[derive(Debug)]
pub struct Wire<C: Lanes = LisChannel> {
    name: String,
    upstream: C,
    downstream: C,
    /// The forwarded payloads, reused across evals.
    payload: C::Reg,
}

impl<C: Lanes> Wire<C> {
    /// Creates a wire forwarding `upstream` to `downstream`. Payload
    /// bits beyond the downstream width are dropped, and bits beyond the
    /// upstream width read 0.
    pub fn new(name: impl Into<String>, upstream: C, downstream: C) -> Self {
        Wire {
            name: name.into(),
            payload: upstream.register(),
            upstream,
            downstream,
        }
    }
}

impl<C: Lanes> Component for Wire<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        // Fully combinational in both directions.
        self.upstream
            .downstream_reads()
            .merge(self.upstream.consumer_ports())
            .merge(self.downstream.producer_ports())
            .merge(self.downstream.stop_reads())
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let tokens = self.upstream.token_lanes(sigs);
        self.upstream.sample(sigs, &mut self.payload, tokens);
        self.downstream.drive(sigs, &self.payload, tokens);
        let stop = self.downstream.stop_lanes(sigs);
        self.upstream.set_stop_lanes(sigs, stop);
    }

    fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
        // Stateless: re-evaluated only when a wire it reads changes.
        Activity::Quiescent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;
    use lis_sim::FnComponent;

    /// Drives a fixed token sequence, respecting stop.
    fn add_source(sys: &mut System, ch: LisChannel, tokens: Vec<u64>) {
        let queue = Arc::new(std::sync::Mutex::new(tokens));
        let q2 = Arc::clone(&queue);
        sys.add_component(FnComponent::new(
            "src",
            ch.producer_ports(),
            move |sigs: &mut SignalView<'_>| {
                let q = q2.lock().unwrap();
                let tok = q.first().map_or(Token::Void, |&v| Token::Data(v));
                ch.write_token(sigs, tok);
            },
            move |sigs: &SignalView<'_>| {
                let mut q = queue.lock().unwrap();
                if !ch.read_stop(sigs) && !q.is_empty() {
                    q.remove(0);
                }
            },
        ));
    }

    /// Collects informative tokens; stalls (asserts stop) on cycles given
    /// by `stall_pattern` (cyclic).
    fn add_sink(
        sys: &mut System,
        ch: LisChannel,
        stall_pattern: Vec<bool>,
    ) -> Arc<std::sync::Mutex<Vec<u64>>> {
        let got = Arc::new(std::sync::Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        let pattern = stall_pattern.clone();
        sys.add_component(FnComponent::new(
            "sink",
            ch.consumer_ports(),
            move |sigs: &mut SignalView<'_>| {
                let stall = pattern[t2.load(Ordering::Relaxed) as usize % pattern.len()];
                ch.write_stop(sigs, stall);
            },
            move |sigs: &SignalView<'_>| {
                let step = t.load(Ordering::Relaxed) as usize;
                let stall = stall_pattern[step % stall_pattern.len()];
                if !stall {
                    if let Token::Data(v) = ch.read_token(sigs) {
                        got2.lock().unwrap().push(v);
                    }
                }
                t.store(step as u64 + 1, Ordering::Relaxed);
            },
        ));
        got
    }

    #[test]
    fn relay_station_forwards_with_one_cycle_latency() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let a = LisChannel::new(&mut sys, "a", 8);
        let b = LisChannel::new(&mut sys, "b", 8);
        add_source(&mut sys, a, vec![1, 2, 3]);
        sys.add_component(RelayStation::new("rs", a, b, violations.clone()));
        let got = add_sink(&mut sys, b, vec![false]);
        sys.run(10).unwrap();
        assert_eq!(*got.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(violations.count(), 0);
    }

    #[test]
    fn chain_of_relays_preserves_stream() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let a = LisChannel::new(&mut sys, "a", 8);
        add_source(&mut sys, a, (1..=20).collect());
        let out = RelayStation::chain(&mut sys, "ch", a, 5, &violations);
        let got = add_sink(&mut sys, out, vec![false]);
        sys.run(40).unwrap();
        assert_eq!(*got.lock().unwrap(), (1..=20).collect::<Vec<u64>>());
        assert_eq!(violations.count(), 0);
    }

    #[test]
    fn relay_station_survives_heavy_backpressure() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let a = LisChannel::new(&mut sys, "a", 8);
        add_source(&mut sys, a, (1..=30).collect());
        let out = RelayStation::chain(&mut sys, "ch", a, 3, &violations);
        // Sink stalls 2 of every 3 cycles.
        let got = add_sink(&mut sys, out, vec![true, true, false]);
        sys.run(200).unwrap();
        assert_eq!(*got.lock().unwrap(), (1..=30).collect::<Vec<u64>>());
        assert_eq!(violations.count(), 0, "no token may ever be dropped");
    }

    /// Lane 0's snapshot of a lone relay after two tokens piled up
    /// behind a stalled consumer (`held`) and after the consumer drained
    /// them again (`drained`).
    fn relay_lane_blobs<C: Lanes>(tokens: [u64; 2]) -> (Vec<u64>, Vec<u64>) {
        let mut sys = System::new();
        let up = C::alloc(&mut sys, "up", 16);
        let down = C::alloc(&mut sys, "down", 16);
        let violations = ViolationCounter::new();
        sys.add_component(RelayStation::new(
            "rs",
            up.clone(),
            down.clone(),
            &violations,
        ));
        let offer = |sys: &mut System, token: Option<u64>| {
            let mut reg = up.register();
            if let Some(v) = token {
                C::deposit(&mut reg, 0, v);
            }
            for (&sig, &word) in up.data_signals().iter().zip(reg.as_ref()) {
                sys.poke(sig, word);
            }
            sys.poke(up.void_signal(), if token.is_some() { !1 } else { !0 });
        };
        sys.poke(down.stop_signal(), !0);
        for token in tokens {
            offer(&mut sys, Some(token));
            sys.step().unwrap();
        }
        let held = sys.save_lane(0);
        offer(&mut sys, None);
        sys.poke(down.stop_signal(), 0);
        sys.step().unwrap();
        sys.step().unwrap();
        assert_eq!(violations.count(), 0);
        (held, sys.save_lane(0))
    }

    /// A payload register is state only while it holds a token: at both
    /// widths, relays that differ only in the payloads of emptied
    /// registers save identical lane blobs `[flags, main, aux]`.
    #[test]
    fn emptied_registers_save_no_payload_at_both_widths() {
        fn check<C: Lanes>() {
            let (held, drained) = relay_lane_blobs::<C>([5, 6]);
            // Length prefix, then main, aux and stop set; both payloads.
            assert_eq!(held, vec![3, 0b111, 5, 6]);
            assert_eq!(drained, vec![3, 0, 0, 0]);
            assert_eq!(relay_lane_blobs::<C>([9, 10]).1, drained);
        }
        check::<LisChannel>();
        check::<crate::PackedLisChannel>();
    }
}
