//! Test-bench endpoints: token sources and sinks with configurable
//! irregularity.
//!
//! LIS correctness must hold for *any* pattern of stalls; the endpoints
//! here inject them deterministically — per seed ([`StallPattern::Random`])
//! or per schedule ([`StallPattern::Periodic`]) — so experiments and
//! property tests can sweep the space of data-stream irregularities the
//! paper's §2 discusses. Scheduled patterns derive their phase from the
//! view's cycle counter and declare their next event time to the
//! kernel ([`Activity::Sleep`]), which lets the fast-forward mode jump
//! over whole stall spans.

use crate::channel::LisChannel;
use crate::lanes::{assert_lanes, combine, Lanes};
use lis_sim::{Activity, Component, Ports, SignalView};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// When an endpoint refuses to make progress on its own account.
///
/// A `f64` converts into a pattern (`0.0` → [`StallPattern::None`],
/// otherwise [`StallPattern::Random`]), so probability-taking APIs keep
/// accepting plain numbers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StallPattern {
    /// Never stall.
    #[default]
    None,
    /// Stall each cycle with this probability, drawn from a seeded RNG.
    /// The RNG stream is endpoint state advancing every cycle, so a
    /// random endpoint never quiesces on its own.
    Random(f64),
    /// A deterministic duty cycle derived from the simulation clock:
    /// within each `period`, accept/emit during the first `on` cycles
    /// (offset by `phase`) and stall for the rest. Being a pure
    /// function of the cycle counter, the endpoint can sleep through
    /// the stall span and declare its wake-up to the event wheel.
    Periodic {
        /// Accepting/emitting cycles at the start of each period.
        on: u64,
        /// Total cycles per period (must be ≥ 1 and ≥ `on`).
        period: u64,
        /// Shifts the schedule: cycle `c` maps to slot
        /// `(c + phase) % period`.
        phase: u64,
    },
}

impl StallPattern {
    /// Whether an endpoint lane on this pattern stalls at `cycle`. A
    /// [`StallPattern::Random`] lane is *not* cycle-determined: it
    /// tracks its stall as state, passed in as `random`.
    fn stalls(self, random: bool, cycle: u64) -> bool {
        match self {
            StallPattern::None => false,
            StallPattern::Random(_) => random,
            StallPattern::Periodic { on, period, phase } => (cycle + phase) % period >= on,
        }
    }

    /// The endpoint's next self-driven event strictly after `cycle`, as
    /// an [`Activity`] declaration. Deep inside a periodic stall span
    /// this is a [`Activity::Sleep`] to the start of the next accept
    /// window; at span boundaries (and for non-scheduled patterns) it
    /// is [`Activity::Active`] so the boundary cycle is evaluated.
    fn next_event(self, cycle: u64) -> Activity {
        match self {
            StallPattern::Periodic { on, period, phase } => {
                if on == 0 {
                    // Permanently stalled: nothing self-driven, ever.
                    return Activity::Quiescent;
                }
                let offset = (cycle + phase) % period;
                if offset < on || offset + 1 == period {
                    // Accept window, or last stall cycle: the next cycle
                    // may flip the wires — run it.
                    Activity::Active
                } else {
                    // Deep in the stall span: sleep to the next window.
                    Activity::Sleep(period - offset)
                }
            }
            _ => Activity::Active,
        }
    }

    fn validate(self) {
        match self {
            StallPattern::None => {}
            StallPattern::Random(p) => {
                assert!(!p.is_nan(), "stall probability is NaN");
                assert!(
                    (0.0..=1.0).contains(&p),
                    "stall probability {p} not in 0..=1"
                );
            }
            StallPattern::Periodic { on, period, phase } => {
                assert!(period >= 1, "periodic stall pattern needs period >= 1");
                assert!(
                    on <= period,
                    "periodic stall pattern has on={on} > period={period}"
                );
                // A phase is a slot within the period. Accepting
                // `phase >= period` would silently alias `phase % period`
                // (and overflow `cycle + phase` near u64::MAX), hiding
                // typos such as swapped on/phase arguments — reject it
                // loudly instead of normalizing.
                assert!(
                    phase < period,
                    "periodic stall pattern has phase={phase} >= period={period} \
                     (phases are slots within the period; did you mean phase % period?)"
                );
            }
        }
    }
}

impl From<f64> for StallPattern {
    /// Clamps rather than trusting the caller: `NaN` and `p <= 0` mean
    /// "never stall" ([`StallPattern::None`]), `p >= 1` saturates to
    /// `Random(1.0)` (always stall). A degenerate probability therefore
    /// can never smuggle an invalid schedule past validation (which
    /// still *rejects* out-of-range values built directly).
    fn from(probability: f64) -> Self {
        if probability.is_nan() || probability <= 0.0 {
            StallPattern::None
        } else if probability >= 1.0 {
            StallPattern::Random(1.0)
        } else {
            StallPattern::Random(probability)
        }
    }
}

/// One lane of a [`TokenSource`]: its own queue, stall schedule and RNG
/// stream.
#[derive(Debug)]
struct SourceLane {
    pending: VecDeque<u64>,
    pattern: StallPattern,
    rng: StdRng,
    sent: Arc<Mutex<Vec<u64>>>,
}

/// A producer driving a predefined token sequence onto a channel,
/// honouring back-pressure, optionally skipping cycles (emitting void)
/// per its [`StallPattern`].
///
/// On a packed channel each lane drives its own sequence with its own
/// pattern and seed, exactly as a solo source would; lanes past the
/// last populated one stay void.
#[derive(Debug)]
pub struct TokenSource<C: Lanes = LisChannel> {
    name: String,
    channel: C,
    lanes: Vec<SourceLane>,
    /// Lanes stalling this cycle on their own random draw (decided per
    /// cycle; scheduled stalls are computed from the clock instead).
    stalling: u64,
    /// The offered payloads, reused across evals.
    offer: C::Reg,
}

impl TokenSource {
    /// Creates a source that will emit `tokens` in order.
    pub fn new(
        name: impl Into<String>,
        channel: LisChannel,
        tokens: impl IntoIterator<Item = u64>,
    ) -> Self {
        let tokens = tokens.into_iter().collect();
        TokenSource::with_lanes(name, channel, vec![(tokens, StallPattern::None, 0)])
    }

    /// Makes the source skip cycles with the given probability
    /// (deterministic per `seed`).
    #[must_use]
    pub fn with_stalls(self, probability: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        self.with_stall_pattern(probability, seed)
    }

    /// Makes the source stall per `pattern` (the seed feeds
    /// [`StallPattern::Random`]; scheduled patterns ignore it).
    #[must_use]
    pub fn with_stall_pattern(mut self, pattern: impl Into<StallPattern>, seed: u64) -> Self {
        let pattern = pattern.into();
        pattern.validate();
        self.lanes[0].pattern = pattern;
        self.lanes[0].rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl<C: Lanes> TokenSource<C> {
    /// Creates a source on `channel`; `lanes[k]` supplies lane `k`'s
    /// tokens, stall pattern and stall seed.
    ///
    /// # Panics
    ///
    /// Panics if the lane count is not in 1 to [`Lanes::LANE_COUNT`] or
    /// any pattern is invalid.
    pub fn with_lanes(
        name: impl Into<String>,
        channel: C,
        lanes: Vec<(Vec<u64>, StallPattern, u64)>,
    ) -> Self {
        assert_lanes::<C>(lanes.len());
        let lanes = lanes
            .into_iter()
            .map(|(tokens, pattern, seed)| {
                pattern.validate();
                SourceLane {
                    pending: tokens.into(),
                    pattern,
                    rng: StdRng::seed_from_u64(seed),
                    sent: Arc::new(Mutex::new(Vec::new())),
                }
            })
            .collect();
        TokenSource {
            name: name.into(),
            offer: channel.register(),
            channel,
            lanes,
            stalling: 0,
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
}

impl<C: Lanes> Component for TokenSource<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.producer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let cycle = sigs.cycle();
        let mut offered = 0;
        self.offer.as_mut().fill(0);
        for (lane, l) in self.lanes.iter().enumerate() {
            if l.pattern.stalls((self.stalling >> lane) & 1 == 1, cycle) {
                continue;
            }
            if let Some(&v) = l.pending.front() {
                offered |= 1 << lane;
                C::deposit(&mut self.offer, lane, v);
            }
        }
        self.channel.drive(sigs, &self.offer, offered);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let cycle = sigs.cycle();
        let stop = self.channel.stop_lanes(sigs);
        let mut activity = Activity::Quiescent;
        for (lane, l) in self.lanes.iter_mut().enumerate() {
            let bit = 1 << lane;
            let mut sent = false;
            if !l.pattern.stalls(self.stalling & bit != 0, cycle) && stop & bit == 0 {
                if let Some(v) = l.pending.pop_front() {
                    l.sent.lock().unwrap().push(v);
                    sent = true;
                }
            }
            let lane_activity = match l.pattern {
                // Decide next cycle's stall. A randomly stalling lane must
                // keep ticking every cycle: its RNG stream is state, and it
                // must advance exactly once per cycle for runs to stay
                // bit-identical.
                StallPattern::Random(p) => {
                    if l.rng.random_bool(p) {
                        self.stalling |= bit;
                    } else {
                        self.stalling &= !bit;
                    }
                    Activity::Active
                }
                // Deterministic lane: quiescent once drained or held by
                // stop (a stop change re-wakes the tick).
                StallPattern::None => Activity::from_changed(sent),
                // Drained: the output is void forever.
                StallPattern::Periodic { .. } if l.pending.is_empty() => {
                    Activity::from_changed(sent)
                }
                StallPattern::Periodic { .. } => l.pattern.next_event(cycle),
            };
            activity = combine(activity, lane_activity);
        }
        activity
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        for (lane, l) in self.lanes.iter().enumerate() {
            out.extend(l.rng.state());
            out.push((self.stalling >> lane) & 1);
            out.push(l.pending.len() as u64);
            out.extend(l.pending.iter().copied());
            let sent = l.sent.lock().unwrap();
            out.push(sent.len() as u64);
            out.extend(sent.iter().copied());
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        let mut at = 0;
        for (lane, l) in self.lanes.iter_mut().enumerate() {
            l.rng = StdRng::from_state([data[at], data[at + 1], data[at + 2], data[at + 3]]);
            self.stalling = (self.stalling & !(1 << lane)) | (data[at + 4] << lane);
            let n = data[at + 5] as usize;
            l.pending = data[at + 6..at + 6 + n].iter().copied().collect();
            at += 6 + n;
            let m = data[at] as usize;
            *l.sent.lock().unwrap() = data[at + 1..at + 1 + m].to_vec();
            at += 1 + m;
        }
    }
}

/// One lane of a [`TokenSink`]: its own stall schedule and RNG stream.
#[derive(Debug)]
struct SinkLane {
    pattern: StallPattern,
    rng: StdRng,
    received: Arc<Mutex<Vec<u64>>>,
}

/// A consumer recording the informative stream from a channel,
/// optionally asserting `stop` per its [`StallPattern`].
///
/// On a packed channel each lane records its own stream under its own
/// pattern and seed; lanes past the last populated one see permanent
/// back-pressure.
#[derive(Debug)]
pub struct TokenSink<C: Lanes = LisChannel> {
    name: String,
    channel: C,
    lanes: Vec<SinkLane>,
    /// Lanes stalling this cycle on their own random draw.
    stalling: u64,
    /// The taken payloads, reused across ticks.
    taken: C::Reg,
}

impl TokenSink {
    /// Creates a sink on `channel`.
    pub fn new(name: impl Into<String>, channel: LisChannel) -> Self {
        TokenSink::with_lanes(name, channel, vec![(StallPattern::None, 0)])
    }

    /// Makes the sink refuse tokens with the given probability
    /// (deterministic per `seed`).
    #[must_use]
    pub fn with_stalls(self, probability: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        self.with_stall_pattern(probability, seed)
    }

    /// Makes the sink stall per `pattern` (the seed feeds
    /// [`StallPattern::Random`]; scheduled patterns ignore it).
    #[must_use]
    pub fn with_stall_pattern(mut self, pattern: impl Into<StallPattern>, seed: u64) -> Self {
        let pattern = pattern.into();
        pattern.validate();
        self.lanes[0].pattern = pattern;
        self.lanes[0].rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl<C: Lanes> TokenSink<C> {
    /// Creates a sink on `channel`; `lanes[k]` supplies lane `k`'s stall
    /// pattern and stall seed.
    ///
    /// # Panics
    ///
    /// Panics if the lane count is not in 1 to [`Lanes::LANE_COUNT`] or
    /// any pattern is invalid.
    pub fn with_lanes(
        name: impl Into<String>,
        channel: C,
        lanes: Vec<(StallPattern, u64)>,
    ) -> Self {
        assert_lanes::<C>(lanes.len());
        let lanes = lanes
            .into_iter()
            .map(|(pattern, seed)| {
                pattern.validate();
                SinkLane {
                    pattern,
                    rng: StdRng::seed_from_u64(seed),
                    received: Arc::new(Mutex::new(Vec::new())),
                }
            })
            .collect();
        TokenSink {
            name: name.into(),
            taken: channel.register(),
            channel,
            lanes,
            stalling: 0,
        }
    }

    /// Handle to the informative tokens lane `lane` received (in order).
    pub fn received(&self, lane: usize) -> Arc<Mutex<Vec<u64>>> {
        Arc::clone(&self.lanes[lane].received)
    }

    /// The lanes accepting a token at `cycle`.
    fn accepting(&self, cycle: u64) -> u64 {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(lane, l)| !l.pattern.stalls((self.stalling >> lane) & 1 == 1, cycle))
            .fold(0, |mask, (lane, _)| mask | (1 << lane))
    }
}

impl<C: Lanes> Component for TokenSink<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.channel.consumer_ports()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let stop = !self.accepting(sigs.cycle());
        self.channel.set_stop_lanes(sigs, stop);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let cycle = sigs.cycle();
        let take = self.accepting(cycle) & self.channel.token_lanes(sigs);
        self.channel.sample(sigs, &mut self.taken, take);
        let mut activity = Activity::Quiescent;
        for (lane, l) in self.lanes.iter_mut().enumerate() {
            let bit = 1 << lane;
            let took = take & bit != 0;
            if took {
                let v = C::lane_value(&self.taken, lane);
                l.received.lock().unwrap().push(v);
            }
            let lane_activity = match l.pattern {
                // As for the source: a randomly stalling lane's RNG is
                // state and must advance every cycle.
                StallPattern::Random(p) => {
                    if l.rng.random_bool(p) {
                        self.stalling |= bit;
                    } else {
                        self.stalling &= !bit;
                    }
                    Activity::Active
                }
                StallPattern::None => Activity::from_changed(took),
                // A scheduled lane sleeps through its stall span; a
                // data/void change still re-wakes the tick early (it then
                // consumes nothing and re-declares the same wake-up).
                StallPattern::Periodic { .. } => l.pattern.next_event(cycle),
            };
            activity = combine(activity, lane_activity);
        }
        activity
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        for (lane, l) in self.lanes.iter().enumerate() {
            out.extend(l.rng.state());
            out.push((self.stalling >> lane) & 1);
            let received = l.received.lock().unwrap();
            out.push(received.len() as u64);
            out.extend(received.iter().copied());
        }
    }

    fn load_state(&mut self, data: &[u64]) {
        let mut at = 0;
        for (lane, l) in self.lanes.iter_mut().enumerate() {
            l.rng = StdRng::from_state([data[at], data[at + 1], data[at + 2], data[at + 3]]);
            self.stalling = (self.stalling & !(1 << lane)) | (data[at + 4] << lane);
            let n = data[at + 5] as usize;
            *l.received.lock().unwrap() = data[at + 6..at + 6 + n].to_vec();
            at += 6 + n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::{RelayStation, ViolationCounter};
    use lis_sim::{SettleMode, System};

    #[test]
    fn from_f64_clamps_degenerate_probabilities() {
        assert_eq!(StallPattern::from(f64::NAN), StallPattern::None);
        assert_eq!(StallPattern::from(-0.25), StallPattern::None);
        assert_eq!(StallPattern::from(-0.0), StallPattern::None);
        assert_eq!(StallPattern::from(0.0), StallPattern::None);
        assert_eq!(StallPattern::from(f64::NEG_INFINITY), StallPattern::None);
        assert_eq!(StallPattern::from(1.0), StallPattern::Random(1.0));
        assert_eq!(StallPattern::from(1.5), StallPattern::Random(1.0));
        assert_eq!(StallPattern::from(f64::INFINITY), StallPattern::Random(1.0));
        assert_eq!(StallPattern::from(0.5), StallPattern::Random(0.5));
        // The boundary values survive a full endpoint construction.
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        let _ = TokenSource::new("s", ch, 1..=3).with_stall_pattern(1.0, 0);
        let _ = TokenSink::new("k", ch).with_stall_pattern(0.0, 0);
    }

    #[test]
    #[should_panic(expected = "stall probability is NaN")]
    fn explicit_nan_random_is_rejected() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        let _ = TokenSink::new("k", ch).with_stall_pattern(StallPattern::Random(f64::NAN), 0);
    }

    #[test]
    #[should_panic(expected = "not in 0..=1")]
    fn explicit_out_of_range_random_is_rejected() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        let _ = TokenSource::new("s", ch, 1..=3).with_stall_pattern(StallPattern::Random(1.5), 0);
    }

    #[test]
    #[should_panic(expected = "phase=8 >= period=8")]
    fn periodic_phase_equal_to_period_is_rejected() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        let _ = TokenSource::new("s", ch, 1..=3).with_stall_pattern(
            StallPattern::Periodic {
                on: 3,
                period: 8,
                phase: 8,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "phase=9 >= period=8")]
    fn periodic_phase_beyond_period_is_rejected() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        let _ = TokenSink::new("k", ch).with_stall_pattern(
            StallPattern::Periodic {
                on: 3,
                period: 8,
                phase: 9,
            },
            0,
        );
    }

    #[test]
    fn periodic_phase_edges_inside_the_period_are_accepted() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        // phase = 0 and phase = period - 1 are the legal extremes.
        for phase in [0, 7] {
            let _ = TokenSource::new("s", ch, 1..=3).with_stall_pattern(
                StallPattern::Periodic {
                    on: 3,
                    period: 8,
                    phase,
                },
                0,
            );
        }
        // The degenerate period=1 pattern only admits phase 0.
        let _ = TokenSink::new("k", ch).with_stall_pattern(
            StallPattern::Periodic {
                on: 1,
                period: 1,
                phase: 0,
            },
            0,
        );
    }

    #[test]
    #[should_panic]
    fn with_stalls_rejects_nan() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        let _ = TokenSource::new("s", ch, 1..=3).with_stalls(f64::NAN, 0);
    }

    #[test]
    fn source_to_sink_direct() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 16);
        let src = TokenSource::new("src", ch, 1..=5);
        let sink = TokenSink::new("sink", ch);
        let got = sink.received(0);
        sys.add_component(src);
        sys.add_component(sink);
        sys.run(10).unwrap();
        assert_eq!(*got.lock().unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stream_survives_stalls_on_both_ends_and_relays() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let a = LisChannel::new(&mut sys, "a", 16);
        let src = TokenSource::new("src", a, 1..=50).with_stalls(0.3, 11);
        sys.add_component(src);
        let out = RelayStation::chain(&mut sys, "link", a, 4, &violations);
        let sink = TokenSink::new("sink", out).with_stalls(0.4, 23);
        let got = sink.received(0);
        sys.add_component(sink);
        sys.run(400).unwrap();
        assert_eq!(*got.lock().unwrap(), (1..=50).collect::<Vec<u64>>());
        assert_eq!(violations.count(), 0);
    }

    #[test]
    fn source_reports_progress() {
        let mut sys = System::new();
        let ch = LisChannel::new(&mut sys, "c", 8);
        let src = TokenSource::new("src", ch, vec![9, 8]);
        let sent = src.sent(0);
        assert_eq!(src.remaining(0), 2);
        sys.add_component(src);
        sys.add_component(TokenSink::new("sink", ch));
        sys.run(5).unwrap();
        assert_eq!(*sent.lock().unwrap(), vec![9, 8]);
    }

    /// Periodic endpoints are pure functions of the clock: every settle
    /// mode, stepped cycle by cycle or run with jumps over their sleep
    /// spans, must deliver the identical stream.
    #[test]
    fn periodic_stalls_are_identical_across_modes() {
        let run = |mode: SettleMode, jump: bool| {
            let mut sys = System::new();
            sys.set_settle_mode(mode);
            let violations = ViolationCounter::new();
            let a = LisChannel::new(&mut sys, "a", 16);
            let src = TokenSource::new("src", a, 1..=40).with_stall_pattern(
                StallPattern::Periodic {
                    on: 3,
                    period: 8,
                    phase: 2,
                },
                0,
            );
            sys.add_component(src);
            let out = RelayStation::chain(&mut sys, "link", a, 3, &violations);
            let sink = TokenSink::new("sink", out).with_stall_pattern(
                StallPattern::Periodic {
                    on: 2,
                    period: 16,
                    phase: 0,
                },
                0,
            );
            let got = sink.received(0);
            sys.add_component(sink);
            if jump {
                sys.run(700).unwrap();
            } else {
                for _ in 0..700 {
                    sys.step().unwrap();
                }
            }
            sys.settle().unwrap();
            assert_eq!(violations.count(), 0);
            let stream = got.lock().unwrap().clone();
            (stream, sys.signal_values(), sys.cycle())
        };
        let reference = run(SettleMode::FullSweep, false);
        assert_eq!(reference.0, (1..=40).collect::<Vec<u64>>());
        assert_eq!(run(SettleMode::FastForward, false), reference);
        assert_eq!(run(SettleMode::FastForward, true), reference);
    }

    /// A fully periodic pipeline actually exercises the event wheel:
    /// the kernel must report jumped cycles, not just match bit-exactly.
    #[test]
    fn periodic_pipeline_fast_forwards() {
        let mut sys = System::new();
        let violations = ViolationCounter::new();
        let a = LisChannel::new(&mut sys, "a", 16);
        let src = TokenSource::new("src", a, 1..=10);
        sys.add_component(src);
        let out = RelayStation::chain(&mut sys, "link", a, 2, &violations);
        let sink = TokenSink::new("sink", out).with_stall_pattern(
            StallPattern::Periodic {
                on: 2,
                period: 64,
                phase: 0,
            },
            0,
        );
        let got = sink.received(0);
        sys.add_component(sink);
        sys.run(400).unwrap();
        assert_eq!(*got.lock().unwrap(), (1..=10).collect::<Vec<u64>>());
        assert_eq!(violations.count(), 0);
        let stats = sys.scheduler_stats();
        assert!(
            stats.cycles_fast_forwarded > 200,
            "a 2/64 duty-cycle sink should leave most cycles dead, got {}",
            stats.cycles_fast_forwarded
        );
    }
}
