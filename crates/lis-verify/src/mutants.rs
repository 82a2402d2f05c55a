//! Deliberately broken protocol components — the mutation-validation
//! corpus.
//!
//! Each mutant is a minimal, plausible implementation slip of the relay
//! station or the SP's synchronization policy. None of them self-report:
//! a mutant misbehaves *silently*, exactly like a real bug would, and it
//! is the model checker's invariants (sequencing, conservation, deadlock
//! freedom) that must expose it within the search depth. A mutant the
//! checker cannot catch would mean the verification harness is blind to
//! that fault class.

use lis_proto::{Lanes, LisChannel};
use lis_schedule::IoSchedule;
use lis_sim::{Activity, Component, Ports, SignalView};
use lis_wrappers::{Decision, SyncPolicy};

/// Which seeded bug a [`MutantRelay`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayBug {
    /// Back-pressure is announced one cycle late: under a double stall
    /// the upstream producer legally sends into a full relay and the
    /// token is silently dropped (the classic off-by-one in the stop
    /// register path).
    DropOnDoubleStall,
    /// After back-pressure releases with the relay drained, the last
    /// forwarded token is re-emitted once (a stale through-register
    /// marked valid again on restart).
    DuplicateOnRestart,
    /// `stop` latches: once the overflow slot has been used the relay
    /// asserts back-pressure forever, wedging the upstream pipeline
    /// (a set-dominant latch where a flip-flop was intended).
    StuckStop,
}

impl RelayBug {
    /// Stable short name, used in counterexample files and reports.
    pub fn name(self) -> &'static str {
        match self {
            RelayBug::DropOnDoubleStall => "drop-on-double-stall",
            RelayBug::DuplicateOnRestart => "duplicate-on-restart",
            RelayBug::StuckStop => "stuck-stop",
        }
    }
}

/// A relay station with one seeded [`RelayBug`]. Outside the bug's
/// trigger window it behaves exactly like the correct
/// [`lis_proto::RelayStation`]: two buffer places, registered stop.
#[derive(Debug)]
pub struct MutantRelay {
    name: String,
    upstream: LisChannel,
    downstream: LisChannel,
    bug: RelayBug,
    main: Option<u64>,
    aux: Option<u64>,
    /// Registered stop actually *announced* upstream this cycle.
    stop_up: bool,
    /// One-cycle-delayed stop pipeline stage (`DropOnDoubleStall`).
    stop_pending: bool,
    /// Whether stop has ever been asserted (`StuckStop`).
    stop_latched: bool,
    /// Last token forwarded downstream and whether the previous cycle
    /// was stalled (`DuplicateOnRestart`).
    last_sent: Option<u64>,
    was_stalled: bool,
}

impl MutantRelay {
    /// Creates the mutant relay forwarding `upstream` to `downstream`.
    pub fn new(
        name: impl Into<String>,
        upstream: LisChannel,
        downstream: LisChannel,
        bug: RelayBug,
    ) -> Self {
        assert_eq!(upstream.width, downstream.width, "relay channel widths");
        MutantRelay {
            name: name.into(),
            upstream,
            downstream,
            bug,
            main: None,
            aux: None,
            stop_up: false,
            stop_pending: false,
            stop_latched: false,
            last_sent: None,
            was_stalled: false,
        }
    }
}

impl Component for MutantRelay {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.downstream
            .producer_ports()
            .merge(self.upstream.consumer_ports())
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let tok = match self.main {
            Some(v) => lis_proto::Token::Data(v),
            None => lis_proto::Token::Void,
        };
        self.downstream.write_token(sigs, tok);
        self.upstream.write_stop(sigs, self.stop_up);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let stalled = self.downstream.read_stop(sigs);
        // The upstream producer reacted to what we *announced*
        // (`stop_up`), so that is also what gates absorption.
        let incoming = if self.stop_up {
            None
        } else {
            self.upstream.read_token(sigs).data()
        };

        // 1. Downstream consumes the through register unless stalled.
        if !stalled {
            if let Some(v) = self.main.take() {
                self.last_sent = Some(v);
            }
        }
        // 2. The overflow slot backfills.
        if self.main.is_none() {
            if let Some(v) = self.aux.take() {
                self.main = Some(v);
            }
        }
        // 2b. DuplicateOnRestart: back-pressure just released with the
        // relay drained — the stale through register springs back to
        // life with the previous token.
        if self.bug == RelayBug::DuplicateOnRestart
            && self.was_stalled
            && !stalled
            && self.main.is_none()
            && self.aux.is_none()
        {
            if let Some(v) = self.last_sent.take() {
                self.main = Some(v);
            }
        }
        // 3. Absorb the incoming token; with both places full it is
        //    silently dropped (only the late-stop bug can get here).
        if let Some(v) = incoming {
            if self.main.is_none() {
                self.main = Some(v);
            } else if self.aux.is_none() {
                self.aux = Some(v);
            }
            // else: dropped on the floor — no counter, no trace.
        }
        // 4. Announce back-pressure.
        let stop_now = self.aux.is_some();
        self.stop_up = match self.bug {
            // Correct timing: announce the same cycle aux fills.
            RelayBug::DuplicateOnRestart => stop_now,
            // One pipeline stage too many in the stop path.
            RelayBug::DropOnDoubleStall => {
                let announced = self.stop_pending;
                self.stop_pending = stop_now;
                announced
            }
            // Set-dominant latch.
            RelayBug::StuckStop => {
                self.stop_latched |= stop_now;
                self.stop_latched
            }
        };
        self.was_stalled = stalled;
        Activity::Active
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.main.is_some() as u64);
        out.push(self.main.unwrap_or(0));
        out.push(self.aux.is_some() as u64);
        out.push(self.aux.unwrap_or(0));
        out.push(
            self.stop_up as u64
                | (self.stop_pending as u64) << 1
                | (self.stop_latched as u64) << 2
                | (self.was_stalled as u64) << 3
                | (self.last_sent.is_some() as u64) << 4,
        );
        out.push(self.last_sent.unwrap_or(0));
    }

    fn load_state(&mut self, data: &[u64]) {
        self.main = (data[0] != 0).then_some(data[1]);
        self.aux = (data[2] != 0).then_some(data[3]);
        self.stop_up = data[4] & 1 != 0;
        self.stop_pending = data[4] & 2 != 0;
        self.stop_latched = data[4] & 4 != 0;
        self.was_stalled = data[4] & 8 != 0;
        self.last_sent = (data[4] & 16 != 0).then_some(data[5]);
    }
}

/// The SP-policy mutant: fires on every cycle of the schedule without
/// sensing port readiness — the synchronization logic optimized away.
/// The wrapper records pop-empty/push-full faults the moment the
/// environment is slower than the schedule.
#[derive(Debug)]
pub struct EagerPolicy {
    schedule: IoSchedule,
    step: usize,
}

impl EagerPolicy {
    /// Creates the mutant policy for `schedule`.
    pub fn new(schedule: IoSchedule) -> Self {
        EagerPolicy { schedule, step: 0 }
    }
}

impl SyncPolicy for EagerPolicy {
    fn decide(&self, _not_empty: &[bool], _not_full: &[bool]) -> Decision {
        let io = self.schedule.at(self.step);
        Decision {
            fire: true,
            reads: io.reads,
            writes: io.writes,
        }
    }

    fn commit(&mut self, fired: bool) -> bool {
        if fired {
            self.step = (self.step + 1) % self.schedule.period();
        }
        fired
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn model_name(&self) -> &'static str {
        "eager-mutant"
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.step as u64);
    }

    fn load_state(&mut self, data: &[u64]) {
        self.step = data[0] as usize;
    }
}
