//! The two-phase synchronous simulation kernel.
//!
//! A [`System`] owns signals and components. Every clock cycle has two
//! phases:
//!
//! 1. **settle** — components' [`Component::eval`] run until no signal
//!    changes (a combinational fixpoint; LIS `stop` back-pressure wires
//!    legitimately ripple upstream through several shells in one cycle);
//! 2. **tick** — every component samples the settled signals and commits
//!    its sequential state.
//!
//! Components declare their evaluation-phase read/write signal sets via
//! [`Component::ports`]. From those declarations the kernel seals a
//! dependency-aware [`crate::sched`] scheduler: signal→reader edges,
//! combinational SCCs condensed at build time, and groups ordered by
//! dependency level so one sequential pass reaches the fixpoint. On top
//! of that schedule runs the activity kernel
//! ([`SettleMode::FastForward`], the default): it skips quiescent
//! components and jumps the clock over dead spans. Results match the
//! blind full-sweep loop, which is kept as [`SettleMode::FullSweep`]
//! for reference and differential testing.
//!
//! Non-convergence of the settle (a combinational cycle, e.g. a `stop`
//! loop without a relay station) is reported as
//! [`SimError::NoConvergence`] naming the components of the offending
//! SCC rather than silently producing garbage.

use crate::sched::{ActivityState, Scheduler, SchedulerStats};
use crate::signal::{Signal, SignalId, SignalView};
use std::fmt;

/// What a component's [`Component::tick`] did with its cycle — the
/// cross-cycle quiescence report driving the activity kernel
/// ([`SettleMode::FastForward`]).
///
/// Returning [`Activity::Quiescent`] is a promise: *re-running this tick
/// with the same observed signal values would change nothing* — no
/// internal state, no signal-visible behaviour next cycle, no protocol
/// side effects. The kernel then skips both the tick and the
/// re-evaluation of the component until one of its declared signals
/// changes. Purely diagnostic counters (utilization statistics) are
/// exempt from the promise: they only advance on *executed* ticks.
///
/// A component may also declare a *next event time* by returning
/// [`Activity::Sleep`]: nothing about it will change for the next `n`
/// cycles, but it must run again at `cycle + n` even if no observed
/// signal changes (a scheduled stall pattern ending, a timed stimulus).
/// The declarations feed the kernel's event wheel: when every component
/// is asleep or quiescent and no signal is pending, [`System::run`] (or
/// an explicit [`System::fast_forward`]) jumps the clock straight to the
/// earliest declared wake-up instead of visiting the dead cycles one by
/// one.
///
/// When in doubt, return [`Activity::Active`] — it is always correct,
/// merely slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activity {
    /// State changed (or might have): evaluate and tick again next cycle.
    #[default]
    Active,
    /// Nothing will change for the next `n` cycles: skip this component
    /// until cycle `now + n` — or earlier, if an observed signal changes
    /// first (the component must tolerate early wake-ups). `Sleep(0)`
    /// and `Sleep(1)` are equivalent to [`Activity::Active`].
    Sleep(u64),
    /// Nothing changed: skip this component until an observed signal
    /// does.
    Quiescent,
}

impl Activity {
    /// `Active` iff `changed` — the idiom for ticks that track their own
    /// state mutations with a boolean.
    pub fn from_changed(changed: bool) -> Self {
        if changed {
            Activity::Active
        } else {
            Activity::Quiescent
        }
    }

    /// Whether this component must run again next cycle unconditionally
    /// ([`Activity::Active`], or a sleep so short it means the same).
    pub fn is_active(self) -> bool {
        matches!(self, Activity::Active | Activity::Sleep(0 | 1))
    }

    /// The component's next unconditional run, as an offset from the
    /// current cycle: 1 for [`Activity::Active`], `n` (at least 1) for
    /// [`Activity::Sleep`], and `u64::MAX` — never, until an observed
    /// signal changes — for [`Activity::Quiescent`].
    pub(crate) fn wake_offset(self) -> u64 {
        match self {
            Activity::Active => 1,
            Activity::Sleep(n) => n.max(1),
            Activity::Quiescent => u64::MAX,
        }
    }
}

impl From<bool> for Activity {
    fn from(changed: bool) -> Self {
        Activity::from_changed(changed)
    }
}

impl From<()> for Activity {
    /// A `()`-returning tick closure is conservatively [`Activity::Active`].
    fn from((): ()) -> Self {
        Activity::Active
    }
}

/// The declared interface of a component: every signal its
/// [`Component::eval`] may read and write, plus the extra signals its
/// [`Component::tick`] samples at the clock edge.
///
/// Declarations are checked at runtime — an undeclared access during a
/// scheduled settle (or an activity-driven tick) panics with the
/// component and signal names. Writes imply read permission (a component
/// may read back its own outputs), and the tick phase may read
/// everything `eval` may touch plus the `tick_reads` set.
#[derive(Debug, Clone, Default)]
pub struct Ports {
    /// Signals `eval` may read.
    pub reads: Vec<SignalId>,
    /// Signals `eval` may write.
    pub writes: Vec<SignalId>,
    /// Signals `tick` samples *in addition to* `reads`/`writes` (the
    /// registered faces of the LIS protocol: a producer samples `stop`,
    /// a consumer samples `data`/`void` at the clock edge). These drive
    /// the activity kernel's tick wake-up — a quiescent component is
    /// re-ticked when any of them changes.
    pub tick_reads: Vec<SignalId>,
}

impl Ports {
    /// Declares explicit read and write sets.
    pub fn new(
        reads: impl IntoIterator<Item = SignalId>,
        writes: impl IntoIterator<Item = SignalId>,
    ) -> Self {
        Ports {
            reads: reads.into_iter().collect(),
            writes: writes.into_iter().collect(),
            tick_reads: Vec::new(),
        }
    }

    /// An empty interface (a component that only acts in `tick`).
    pub fn none() -> Self {
        Ports::default()
    }

    /// Declares a write-only interface.
    pub fn writes_only(writes: impl IntoIterator<Item = SignalId>) -> Self {
        Ports::new([], writes)
    }

    /// Declares a read-only interface.
    pub fn reads_only(reads: impl IntoIterator<Item = SignalId>) -> Self {
        Ports::new(reads, [])
    }

    /// Adds a read signal.
    #[must_use]
    pub fn read(mut self, id: SignalId) -> Self {
        self.reads.push(id);
        self
    }

    /// Adds a write signal.
    #[must_use]
    pub fn write(mut self, id: SignalId) -> Self {
        self.writes.push(id);
        self
    }

    /// Adds a tick-phase read signal.
    #[must_use]
    pub fn tick_read(mut self, id: SignalId) -> Self {
        self.tick_reads.push(id);
        self
    }

    /// Concatenates two interfaces (e.g. one per channel endpoint).
    #[must_use]
    pub fn merge(mut self, other: Ports) -> Self {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.tick_reads.extend(other.tick_reads);
        self
    }
}

/// A synchronous hardware component.
///
/// Implementations hold their signal ids (obtained from
/// [`System::add_signal`]) and internal registers. Components must be
/// [`Send`]: whole systems move to worker threads (fleet batches, model
/// checker twins), so shared handles inside a component should use
/// `Arc` +&nbsp;atomics/`Mutex`, not `Rc`/`RefCell`.
pub trait Component: Send {
    /// Instance name, for diagnostics and traces.
    fn name(&self) -> &str;

    /// The component's declared signal sets, sampled once at
    /// [`System::add_component`] time. `eval` must stay within
    /// `reads`/`writes`; `tick` must stay within
    /// `reads ∪ writes ∪ tick_reads` (both checked at runtime in
    /// scheduled modes).
    fn ports(&self) -> Ports;

    /// Combinational evaluation: compute output signals from input
    /// signals and internal (registered) state. May be invoked several
    /// times per cycle; must be idempotent for fixed inputs, and with
    /// unchanged inputs *and* state it must rewrite the same values (the
    /// activity kernel skips it entirely in that case).
    fn eval(&mut self, sigs: &mut SignalView<'_>);

    /// Clock edge: sample the settled signals and update internal state.
    /// Must not write signals. Returns whether anything changed — see
    /// [`Activity`]; returning [`Activity::Active`] is always safe.
    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity;

    /// Appends the component's architectural state as plain words, for
    /// [`System::checkpoint`]. Stateless components keep the empty
    /// default; stateful ones must override both this and
    /// [`Component::load_state`] with matching encodings so a restored
    /// run continues bit-identically. Purely diagnostic counters may be
    /// included for fidelity but are not covered by the bit-identity
    /// contract (see [`Activity::Quiescent`]).
    fn save_state(&self, out: &mut Vec<u64>) {
        let _ = out;
    }

    /// Restores state captured by [`Component::save_state`]. The slice
    /// is exactly what `save_state` produced for this component.
    fn load_state(&mut self, data: &[u64]) {
        let _ = data;
    }

    /// Appends the architectural state of lanes `first..first +
    /// outs.len()` of a lane-batched component (a packed engine running
    /// up to [`crate::LANES`] scenarios in bit-planes): `outs[i]` gains
    /// lane `first + i`'s blob. A scalar component is one-lane by
    /// definition: the default delegates to [`Component::save_state`]
    /// for lane 0 and panics when asked for any other lane while
    /// holding state. Packed components override this together with
    /// [`Component::load_lanes_state`] so lanes can be extracted,
    /// hashed and re-injected independently of their neighbours — the
    /// seam the bounded model checker uses to expand 64 adversary
    /// branches of a search frontier per packed step. Overrides convert
    /// whole lane ranges at once ([`crate::save_plane_lanes`]) rather
    /// than walking bits per lane.
    fn save_lanes_state(&self, first: usize, outs: &mut [Vec<u64>]) {
        let mut full = Vec::new();
        self.save_state(&mut full);
        for (lane, out) in (first..).zip(outs) {
            assert!(
                lane == 0 || full.is_empty(),
                "component {} is scalar (stateful, no per-lane encoding); asked for lane {}",
                self.name(),
                lane
            );
            out.extend_from_slice(&full);
        }
    }

    /// Restores lanes `first..first + blobs.len()` from blobs captured
    /// by [`Component::save_lanes_state`] (`blobs[i]` is lane
    /// `first + i`'s); other lanes are untouched. The default mirrors
    /// `save_lanes_state`: lane 0 delegates to
    /// [`Component::load_state`], any other lane must be stateless.
    fn load_lanes_state(&mut self, first: usize, blobs: &[&[u64]]) {
        for (lane, data) in (first..).zip(blobs) {
            assert!(
                lane == 0 || data.is_empty(),
                "component {} is scalar (stateful, no per-lane encoding); asked for lane {}",
                self.name(),
                lane
            );
            self.load_state(data);
        }
    }
}

/// Errors produced by the simulation kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The combinational settle loop did not reach a fixpoint — a
    /// combinational cycle between components.
    NoConvergence {
        /// The cycle index at which the failure occurred.
        cycle: u64,
        /// Number of sweeps (full-sweep mode) or worklist rounds of the
        /// offending SCC (activity kernel) attempted.
        sweeps: usize,
        /// Names of the components forming the unconverged combinational
        /// SCC (empty in full-sweep mode, which cannot localize it).
        components: Vec<String>,
    },
    /// A netlist executor was asked for a port the module does not have.
    UnknownPort {
        /// Name of the module being simulated.
        module: String,
        /// The requested port name.
        port: String,
        /// Whether an output port was requested (an input otherwise).
        output: bool,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoConvergence {
                cycle,
                sweeps,
                components,
            } => {
                write!(
                    f,
                    "combinational settle did not converge at cycle {cycle} after {sweeps} sweeps"
                )?;
                if components.is_empty() {
                    write!(f, " (combinational loop between components?)")
                } else {
                    const SHOWN: usize = 8;
                    let head: Vec<&str> =
                        components.iter().take(SHOWN).map(String::as_str).collect();
                    let ellipsis = if components.len() > SHOWN {
                        ", …"
                    } else {
                        ""
                    };
                    write!(
                        f,
                        ": combinational loop through [{}{}]",
                        head.join(", "),
                        ellipsis
                    )
                }
            }
            SimError::UnknownPort {
                module,
                port,
                output,
            } => write!(
                f,
                "module {module} has no {} port named {port}",
                if *output { "output" } else { "input" }
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// How [`System::settle`] (and [`System::step`]'s tick phase) reach the
/// cycle's fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleMode {
    /// The activity kernel with the event wheel (default). The scheduler
    /// keeps a persistent cross-cycle dirty set — seeded only by
    /// components whose declared inputs changed during the last settle
    /// (tracked with per-settle epoch stamps on the dense signal store,
    /// so seeding is O(writes), not O(signals)) or whose declared
    /// wake-up time ([`Activity`]) has come — and skips quiescent groups
    /// (often whole levels) instead of re-evaluating them. The tick
    /// phase runs only pending/active components, in index order. When a
    /// cycle ends with nothing dirty, nothing pending and every
    /// component asleep or quiescent, [`System::run`] (or an explicit
    /// [`System::fast_forward`]) jumps the clock straight to the
    /// earliest declared wake-up ([`Activity::Sleep`]) instead of
    /// visiting the dead cycles; a caller that wants every cycle
    /// visited steps with [`System::step`] alone. Signal values, streams
    /// and executed work are bit-identical either way; only the
    /// per-visited-cycle *skip* diagnostics (and wall clock) differ.
    #[default]
    FastForward,
    /// The reference loop: sweep every component until no signal
    /// changes, then tick every component. Ignores declared ports and
    /// keeps no activity counters. Kept as the reference semantics for
    /// differential tests and as the bounded model checker's settle.
    FullSweep,
}

/// Extra sweeps the full-sweep reference allows beyond the component
/// count (the activity kernel derives its bounds per SCC instead).
const FULL_SWEEP_MARGIN: usize = 8;

/// A synchronous system: signal arena plus component list.
///
/// # Examples
///
/// ```
/// use lis_sim::{FnComponent, Ports, System};
///
/// # fn main() -> Result<(), lis_sim::SimError> {
/// let mut sys = System::new();
/// let a = sys.add_signal("a", 8);
/// let b = sys.add_signal("b", 8);
/// // A combinational doubler: b = 2*a.
/// sys.add_component(FnComponent::new(
///     "doubler",
///     Ports::new([a], [b]),
///     move |sigs| {
///         let v = sigs.get(a);
///         sigs.set(b, v * 2);
///     },
///     |_| {},
/// ));
/// sys.poke(a, 21);
/// sys.step()?;
/// assert_eq!(sys.peek(b), 42);
/// # Ok(())
/// # }
/// ```
pub struct System {
    signals: Vec<Signal>,
    components: Vec<Box<dyn Component>>,
    /// Declared interfaces, captured at registration.
    ports: Vec<Ports>,
    cycle: u64,
    /// Whether the current signal values are a settled fixpoint (skips
    /// redundant settles inside [`System::step`]).
    settled: bool,
    mode: SettleMode,
    sched: Option<Scheduler>,
    /// Persistent cross-cycle dirty/quiescence state
    /// ([`SettleMode::FastForward`]); rebuilt all-dirty with the
    /// scheduler.
    activity: Option<ActivityState>,
    /// Signals poked since the last activity settle (drained into the
    /// dirty seed; not recorded under [`SettleMode::FullSweep`]).
    poked: Vec<u32>,
    /// Changed-signal accumulator feeding the skip-aware tracing hook
    /// ([`System::trace_changes`]); armed lazily by the first drain.
    trace_log: Option<TraceLog>,
}

/// Deduplicating accumulator of signals whose value changed since a
/// [`crate::Trace`] last drained it — fed from the activity settle's
/// per-epoch change list so tracing can sample only what moved.
struct TraceLog {
    /// Changed signal ids since the last drain, deduplicated.
    ids: Vec<u32>,
    /// Membership bitmap mirroring `ids`, indexed by signal id.
    seen: Vec<bool>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("signals", &self.signals.len())
            .field("components", &self.components.len())
            .field("cycle", &self.cycle)
            .field("mode", &self.mode)
            .finish()
    }
}

impl Default for System {
    fn default() -> Self {
        Self::new()
    }
}

impl System {
    /// Creates an empty system.
    pub fn new() -> Self {
        System {
            signals: Vec::new(),
            components: Vec::new(),
            ports: Vec::new(),
            cycle: 0,
            settled: false,
            mode: SettleMode::default(),
            sched: None,
            activity: None,
            poked: Vec::new(),
            trace_log: None,
        }
    }

    /// Sets how the settle fixpoint is computed (default:
    /// [`SettleMode::FastForward`]).
    pub fn set_settle_mode(&mut self, mode: SettleMode) {
        if mode != self.mode {
            self.mode = mode;
            // Cross-cycle quiescence bookkeeping is only maintained by
            // the activity kernel; a mode switch restarts it all-dirty.
            self.activity = None;
            self.poked.clear();
            self.trace_log = None;
        }
        self.settled = false;
    }

    /// The configured [`SettleMode`].
    pub fn settle_mode(&self) -> SettleMode {
        self.mode
    }

    /// Declares a signal of `width` bits (1..=64) initialized to 0.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn add_signal(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        assert!((1..=64).contains(&width), "signal width must be in 1..=64");
        let id = SignalId(u32::try_from(self.signals.len()).expect("too many signals"));
        self.signals.push(Signal {
            name: name.into(),
            width,
            value: 0,
        });
        self.sched = None;
        self.activity = None;
        self.poked.clear();
        self.trace_log = None;
        self.settled = false;
        id
    }

    /// Adds a component, capturing its declared [`Component::ports`].
    /// Insertion order is preserved wherever evaluation order matters
    /// (components sharing written signals, SCC worklists).
    pub fn add_component(&mut self, component: impl Component + 'static) {
        self.ports.push(component.ports());
        self.components.push(Box::new(component));
        self.sched = None;
        self.activity = None;
        self.poked.clear();
        self.trace_log = None;
        self.settled = false;
    }

    /// Number of elapsed clock cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// One-step cone of influence of component `comp`: the indices of
    /// every *other* component whose declared [`Ports`] observe a
    /// signal `comp` writes — through `eval` reads or clock-edge
    /// `tick_reads`. This is exactly the fan-out the scheduler seals
    /// into its dependency graph, so anything outside the returned set
    /// provably cannot change behaviour within a single settle/tick
    /// cycle in response to `comp`. Bounded model checking uses it to
    /// validate partial-order-reduction guards: an adversary edge whose
    /// one-step cone is a single component is inert whenever that
    /// component's registered state masks the stimulus.
    ///
    /// Returned indices are sorted ascending.
    pub fn influence_cone(&self, comp: usize) -> Vec<usize> {
        let writes = &self.ports[comp].writes;
        self.ports
            .iter()
            .enumerate()
            .filter(|&(i, p)| {
                i != comp
                    && p.reads
                        .iter()
                        .chain(&p.tick_reads)
                        .any(|s| writes.contains(s))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Signal metadata (name, width).
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Reads a signal value directly (outside component evaluation).
    pub fn peek(&self, id: SignalId) -> u64 {
        self.signals[id.index()].value
    }

    /// Reads bit 0 of a signal.
    pub fn peek_bool(&self, id: SignalId) -> bool {
        self.peek(id) & 1 == 1
    }

    /// Snapshot of every signal value, in id order (differential
    /// testing).
    pub fn signal_values(&self) -> Vec<u64> {
        self.signals.iter().map(|s| s.value).collect()
    }

    /// Forces a signal value (used for top-level stimuli).
    pub fn poke(&mut self, id: SignalId, value: u64) {
        let mask = self.signals[id.index()].mask();
        let masked = value & mask;
        if self.signals[id.index()].value != masked {
            self.signals[id.index()].value = masked;
            self.settled = false;
            if self.mode == SettleMode::FastForward {
                // Seed the next activity settle: readers, co-writers and
                // tick-observers of a poked signal must wake up.
                self.poked.push(id.0);
            }
        }
    }

    /// Forces a boolean signal value.
    pub fn poke_bool(&mut self, id: SignalId, value: bool) {
        self.poke(id, u64::from(value));
    }

    /// Statistics of the sealed scheduler (builds it if needed):
    /// structural group/level counts, SCC census, level width, plus —
    /// under [`SettleMode::FastForward`] — the cumulative
    /// skip/eval/tick/jump counters of the run so far.
    pub fn scheduler_stats(&mut self) -> SchedulerStats {
        self.seal();
        let mut stats = self.sched.as_ref().expect("sealed").stats();
        if let Some(state) = &self.activity {
            state.fill_counters(&mut stats);
        }
        stats
    }

    fn seal(&mut self) {
        if self.sched.is_none() {
            self.sched = Some(Scheduler::build(
                &self.components,
                &self.ports,
                self.signals.len(),
            ));
        }
        if self.mode == SettleMode::FastForward && self.activity.is_none() {
            self.activity = Some(
                self.sched
                    .as_ref()
                    .expect("sealed")
                    .new_activity_state(self.signals.len()),
            );
        }
    }

    /// Runs component evaluation to a combinational fixpoint (a no-op if
    /// the system is already settled).
    ///
    /// # Errors
    ///
    /// [`SimError::NoConvergence`] if a combinational SCC keeps changing
    /// signals past its iteration bound.
    pub fn settle(&mut self) -> Result<(), SimError> {
        if self.settled {
            return Ok(());
        }
        match self.mode {
            SettleMode::FullSweep => self.settle_full_sweep()?,
            SettleMode::FastForward => {
                self.seal();
                self.sched.as_ref().expect("sealed").settle_activity(
                    &mut self.signals,
                    &mut self.components,
                    self.activity.as_mut().expect("sealed"),
                    &mut self.poked,
                    self.cycle,
                )?;
                // Feed the skip-aware tracing hook from this settle's
                // change epoch (only while a trace has armed the log).
                if let Some(log) = &mut self.trace_log {
                    let state = self.activity.as_ref().expect("sealed");
                    for &s in state.changed_signals() {
                        if !log.seen[s as usize] {
                            log.seen[s as usize] = true;
                            log.ids.push(s);
                        }
                    }
                }
            }
        }
        self.settled = true;
        Ok(())
    }

    /// Drains the signals whose value changed since the last drain — the
    /// skip-aware tracing hook.
    ///
    /// Returns `None` when the kernel cannot vouch for completeness and
    /// the caller must fall back to scanning every watched signal: under
    /// [`SettleMode::FullSweep`] (which tracks no change epochs), and on
    /// the first call after (re)arming — construction, a structural
    /// change, or a mode switch reset the log, so intervening changes
    /// were not recorded. After a `None` the log is armed and subsequent
    /// calls return exactly the signals that changed in between.
    /// Single-consumer: two traces draining one system would steal each
    /// other's changes.
    pub(crate) fn trace_changes(&mut self) -> Option<Vec<u32>> {
        if self.mode == SettleMode::FullSweep {
            self.trace_log = None;
            return None;
        }
        match &mut self.trace_log {
            Some(log) => {
                let ids = std::mem::take(&mut log.ids);
                for &s in &ids {
                    log.seen[s as usize] = false;
                }
                Some(ids)
            }
            None => {
                self.trace_log = Some(TraceLog {
                    ids: Vec::new(),
                    seen: vec![false; self.signals.len()],
                });
                None
            }
        }
    }

    /// The reference settle: blindly re-evaluate every component
    /// until no signal changes, bounded by `components + margin` sweeps.
    /// Ignores declared ports entirely.
    fn settle_full_sweep(&mut self) -> Result<(), SimError> {
        let max_sweeps = self.components.len() + FULL_SWEEP_MARGIN;
        for _ in 0..max_sweeps {
            let mut view = SignalView::unguarded(&mut self.signals, self.cycle);
            for comp in &mut self.components {
                comp.eval(&mut view);
            }
            if !view.changed {
                return Ok(());
            }
        }
        Err(SimError::NoConvergence {
            cycle: self.cycle,
            sweeps: max_sweeps,
            components: Vec::new(),
        })
    }

    /// One full clock cycle: settle, then commit sequential state.
    ///
    /// Under [`SettleMode::FastForward`] only pending/active components
    /// are ticked, in index order, and their reported [`Activity`]
    /// seeds the next cycle's dirty set. The
    /// [`SettleMode::FullSweep`] reference ticks every component
    /// serially. Either way exactly one cycle is visited: stepping
    /// without [`System::fast_forward`] is the per-cycle loop.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::NoConvergence`] from [`System::settle`].
    pub fn step(&mut self) -> Result<(), SimError> {
        self.settle()?;
        match self.mode {
            SettleMode::FastForward => {
                self.sched.as_ref().expect("sealed").tick_activity(
                    &mut self.signals,
                    &mut self.components,
                    self.activity.as_mut().expect("sealed"),
                    self.cycle,
                );
            }
            SettleMode::FullSweep => {
                let view = SignalView::unguarded(&mut self.signals, self.cycle);
                for comp in &mut self.components {
                    comp.tick(&view);
                }
            }
        }
        self.cycle += 1;
        // Ticks changed registered state; outputs must re-settle.
        self.settled = false;
        Ok(())
    }

    /// Jumps the clock over provably dead cycles: when no component is
    /// dirty, no tick is pending, no poke is unconsumed, and every
    /// component's declared wake-up lies in the future, the cycle
    /// counter advances directly to the earliest wake-up (clamped to
    /// `bound`). Returns the number of cycles skipped — 0 under
    /// [`SettleMode::FullSweep`], or whenever work is due at the
    /// current cycle.
    ///
    /// [`System::run`]/[`System::run_until`] call this after every step;
    /// drivers with their own step loops (tracing, predicates) should do
    /// the same to benefit from the event wheel.
    pub fn fast_forward(&mut self, bound: u64) -> u64 {
        if self.mode != SettleMode::FastForward || bound <= self.cycle || !self.poked.is_empty() {
            return 0;
        }
        let Some(state) = &mut self.activity else {
            return 0;
        };
        let Some(next) = state.next_event(self.cycle) else {
            return 0;
        };
        let target = next.min(bound);
        let skipped = target - self.cycle;
        state.note_fast_forward(skipped);
        self.cycle = target;
        // The landing cycle must settle: its wake scan marks the woken
        // components dirty.
        self.settled = false;
        skipped
    }

    /// Runs `n` clock cycles (under [`SettleMode::FastForward`], visiting
    /// only the live ones — the cycle counter still advances by exactly
    /// `n`).
    ///
    /// # Errors
    ///
    /// Stops at the first [`SimError`].
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        let target = self.cycle.saturating_add(n);
        while self.cycle < target {
            self.step()?;
            self.fast_forward(target);
        }
        Ok(())
    }

    /// Captures the system's architectural state — cycle counter,
    /// signal values, and every component's [`Component::save_state`]
    /// blob — as a serde-serializable [`crate::SystemCheckpoint`].
    ///
    /// Capture at a cycle boundary (after [`System::step`] /
    /// [`System::run`], not mid-settle) so the snapshot is a state the
    /// hardware could actually be in.
    pub fn checkpoint(&self) -> crate::SystemCheckpoint {
        let component_states = self
            .components
            .iter()
            .map(|c| {
                let mut blob = Vec::new();
                c.save_state(&mut blob);
                blob
            })
            .collect();
        crate::SystemCheckpoint {
            cycle: self.cycle,
            signal_values: self.signals.iter().map(|s| s.value).collect(),
            component_states,
        }
    }

    /// Restores state captured by [`System::checkpoint`] into this
    /// system, which must have been built identically (same signals and
    /// components in the same order).
    ///
    /// Scheduler activity state restarts all-dirty: every component is
    /// re-evaluated and re-ticked at the landing cycle, which the
    /// quiescence promise makes behaviour-neutral — signal values,
    /// streams and the cycle counter of the resumed run are
    /// bit-identical to an uninterrupted one, while purely diagnostic
    /// skip/tick counters may differ.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's signal or component census does not
    /// match this system.
    pub fn restore(&mut self, checkpoint: &crate::SystemCheckpoint) {
        assert_eq!(
            checkpoint.signal_values.len(),
            self.signals.len(),
            "checkpoint restore: signal count mismatch"
        );
        assert_eq!(
            checkpoint.component_states.len(),
            self.components.len(),
            "checkpoint restore: component count mismatch"
        );
        for (signal, &value) in self.signals.iter_mut().zip(&checkpoint.signal_values) {
            signal.value = value;
        }
        for (comp, blob) in self.components.iter_mut().zip(&checkpoint.component_states) {
            comp.load_state(blob);
        }
        self.cycle = checkpoint.cycle;
        // Restart cross-cycle bookkeeping all-dirty; the next settle
        // re-evaluates everything from the restored state.
        self.activity = None;
        self.poked.clear();
        self.trace_log = None;
        self.settled = false;
    }

    /// Captures the architectural state of lanes `first..first +
    /// outs.len()`, appending lane `first + i`'s snapshot to `outs[i]`:
    /// for each component in insertion order, a length prefix followed
    /// by its [`Component::save_lanes_state`] blob. Signal values are
    /// deliberately excluded — at a cycle boundary every settled signal
    /// is a function of component state, recomputed by the next settle
    /// — so the vector is a canonical per-lane state for hashing and
    /// deduplication (see [`crate::hash_words128`]). Each component
    /// converts the whole lane range in one call, so a packed engine
    /// pays one bit transpose per 64 flip-flop planes for all lanes.
    ///
    /// Capture at a cycle boundary, as with [`System::checkpoint`].
    pub fn save_lanes(&self, first: usize, outs: &mut [Vec<u64>]) {
        let mut starts = vec![0usize; outs.len()];
        for comp in &self.components {
            for (out, start) in outs.iter_mut().zip(&mut starts) {
                *start = out.len();
                out.push(0);
            }
            comp.save_lanes_state(first, outs);
            for (out, &start) in outs.iter_mut().zip(&starts) {
                out[start] = (out.len() - start - 1) as u64;
            }
        }
    }

    /// One lane's snapshot: [`System::save_lanes`] over a single lane.
    pub fn save_lane(&self, lane: usize) -> Vec<u64> {
        let mut out = [Vec::new()];
        self.save_lanes(lane, &mut out);
        let [words] = out;
        words
    }

    /// Restores lanes `first..first + lanes.len()` from snapshots
    /// captured by [`System::save_lanes`] on an identically built
    /// system (`lanes[i]` is lane `first + i`'s); all other lanes keep
    /// their state. As with [`System::restore`], scheduler activity
    /// restarts all-dirty and the system must re-settle before signals
    /// are observed.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot does not split exactly into one blob per
    /// component.
    pub fn load_lanes(&mut self, first: usize, lanes: &[&[u64]]) {
        let mut at = vec![0usize; lanes.len()];
        let mut blobs: Vec<&[u64]> = Vec::with_capacity(lanes.len());
        for comp in self.components.iter_mut() {
            blobs.clear();
            for (words, at) in lanes.iter().zip(&mut at) {
                let len = words[*at] as usize;
                blobs.push(&words[*at + 1..*at + 1 + len]);
                *at += 1 + len;
            }
            comp.load_lanes_state(first, &blobs);
        }
        for (words, &at) in lanes.iter().zip(&at) {
            assert_eq!(at, words.len(), "lane state words: trailing garbage");
        }
        self.activity = None;
        self.poked.clear();
        self.settled = false;
    }

    /// Restores one lane: [`System::load_lanes`] over a single lane.
    pub fn load_lane(&mut self, lane: usize, words: &[u64]) {
        self.load_lanes(lane, &[words]);
    }

    /// Runs until `predicate` returns true (checked after each settled
    /// cycle) or `max_cycles` elapse. Returns whether the predicate fired.
    ///
    /// Under [`SettleMode::FastForward`] the predicate is only consulted
    /// at *visited* cycles; fast-forwarded spans are by construction free
    /// of signal changes, so a predicate over signal values cannot flip
    /// inside one.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from stepping.
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut predicate: impl FnMut(&System) -> bool,
    ) -> Result<bool, SimError> {
        let target = self.cycle.saturating_add(max_cycles);
        while self.cycle < target {
            self.step()?;
            if predicate(self) {
                return Ok(true);
            }
            self.fast_forward(target);
        }
        Ok(false)
    }
}

/// Adapter turning a pair of closures into a [`Component`] — convenient
/// for sources, sinks and test scaffolding.
///
/// The tick closure may return `()` (conservatively treated as
/// [`Activity::Active`]), a `bool` change flag, or an [`Activity`]
/// directly — anything implementing `Into<Activity>`.
pub struct FnComponent<E, T, R = ()> {
    name: String,
    ports: Ports,
    eval_fn: E,
    tick_fn: T,
    _tick_result: std::marker::PhantomData<fn() -> R>,
}

impl<E, T, R> fmt::Debug for FnComponent<E, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnComponent")
            .field("name", &self.name)
            .finish()
    }
}

impl<E, T, R> FnComponent<E, T, R>
where
    E: FnMut(&mut SignalView<'_>) + Send,
    T: FnMut(&SignalView<'_>) -> R + Send,
    R: Into<Activity>,
{
    /// Wraps `eval` and `tick` closures as a component with the given
    /// declared interface.
    pub fn new(name: impl Into<String>, ports: Ports, eval_fn: E, tick_fn: T) -> Self {
        FnComponent {
            name: name.into(),
            ports,
            eval_fn,
            tick_fn,
            _tick_result: std::marker::PhantomData,
        }
    }
}

impl<E, T, R> Component for FnComponent<E, T, R>
where
    E: FnMut(&mut SignalView<'_>) + Send,
    T: FnMut(&SignalView<'_>) -> R + Send,
    R: Into<Activity>,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        self.ports.clone()
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        (self.eval_fn)(sigs);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        (self.tick_fn)(sigs).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A registered incrementer: q' = q + 1, output = q.
    struct Counter {
        out: SignalId,
        state: u64,
    }

    impl Component for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn ports(&self) -> Ports {
            Ports::writes_only([self.out])
        }
        fn eval(&mut self, sigs: &mut SignalView<'_>) {
            sigs.set(self.out, self.state);
        }
        fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
            self.state += 1;
            Activity::Active
        }
    }

    #[test]
    fn counter_advances_once_per_step() {
        let mut sys = System::new();
        let out = sys.add_signal("count", 16);
        sys.add_component(Counter { out, state: 0 });
        sys.step().unwrap();
        assert_eq!(sys.peek(out), 0); // output shows pre-edge state
        sys.step().unwrap();
        sys.settle().unwrap();
        assert_eq!(sys.peek(out), 2);
        assert_eq!(sys.cycle(), 2);
    }

    #[test]
    fn settle_propagates_through_component_chains_out_of_order() {
        // c = b+1 added BEFORE b = a+1: requires dependency ordering.
        let mut sys = System::new();
        let a = sys.add_signal("a", 8);
        let b = sys.add_signal("b", 8);
        let c = sys.add_signal("c", 8);
        sys.add_component(FnComponent::new(
            "second",
            Ports::new([b], [c]),
            move |s: &mut SignalView<'_>| {
                let v = s.get(b);
                s.set(c, v + 1);
            },
            |_| {},
        ));
        sys.add_component(FnComponent::new(
            "first",
            Ports::new([a], [b]),
            move |s: &mut SignalView<'_>| {
                let v = s.get(a);
                s.set(b, v + 1);
            },
            |_| {},
        ));
        sys.poke(a, 10);
        sys.settle().unwrap();
        assert_eq!(sys.peek(c), 12);
        let stats = sys.scheduler_stats();
        assert_eq!(stats.groups, 2);
        assert_eq!(stats.levels, 2, "chain must levelize");
        assert_eq!(stats.cyclic_groups, 0);
    }

    #[test]
    fn combinational_loop_is_detected_and_named() {
        let mut sys = System::new();
        let x = sys.add_signal("x", 8);
        // x = x + 1 combinationally: never settles.
        sys.add_component(FnComponent::new(
            "osc",
            Ports::new([x], [x]),
            move |s: &mut SignalView<'_>| {
                let v = s.get(x);
                s.set(x, v.wrapping_add(1));
            },
            |_| {},
        ));
        let err = sys.settle().unwrap_err();
        assert!(matches!(err, SimError::NoConvergence { .. }));
        let msg = err.to_string();
        assert!(msg.contains("did not converge"), "{msg}");
        assert!(msg.contains("osc"), "must name the component: {msg}");
    }

    #[test]
    fn two_component_stop_loop_names_both_members() {
        // A combinational back-pressure cycle: each side inverts the
        // other's wire — the system oscillates forever.
        let mut sys = System::new();
        let sa = sys.add_signal("stop_a", 1);
        let sb = sys.add_signal("stop_b", 1);
        sys.add_component(FnComponent::new(
            "shell_a",
            Ports::new([sb], [sa]),
            move |s: &mut SignalView<'_>| {
                let v = s.get_bool(sb);
                s.set_bool(sa, !v);
            },
            |_| {},
        ));
        sys.add_component(FnComponent::new(
            "shell_b",
            Ports::new([sa], [sb]),
            move |s: &mut SignalView<'_>| {
                let v = s.get_bool(sa);
                s.set_bool(sb, v);
            },
            |_| {},
        ));
        let err = sys.settle().unwrap_err();
        match &err {
            SimError::NoConvergence { components, .. } => {
                assert_eq!(components, &["shell_a", "shell_b"]);
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(err.to_string().contains("shell_a, shell_b"));
    }

    #[test]
    fn full_sweep_mode_still_detects_loops() {
        let mut sys = System::new();
        sys.set_settle_mode(SettleMode::FullSweep);
        let x = sys.add_signal("x", 8);
        sys.add_component(FnComponent::new(
            "osc",
            Ports::new([x], [x]),
            move |s: &mut SignalView<'_>| {
                let v = s.get(x);
                s.set(x, v.wrapping_add(1));
            },
            |_| {},
        ));
        let err = sys.settle().unwrap_err();
        assert!(matches!(
            err,
            SimError::NoConvergence { ref components, .. } if components.is_empty()
        ));
    }

    #[test]
    fn undeclared_write_is_rejected() {
        let mut sys = System::new();
        let a = sys.add_signal("a", 8);
        let b = sys.add_signal("b", 8);
        sys.add_component(FnComponent::new(
            "sneaky",
            Ports::writes_only([a]),
            move |s: &mut SignalView<'_>| {
                s.set(a, 1);
                s.set(b, 2); // not declared!
            },
            |_| {},
        ));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.settle()));
        let msg = *panic
            .expect_err("must panic")
            .downcast::<String>()
            .expect("string payload");
        assert!(msg.contains("sneaky"), "{msg}");
        assert!(msg.contains("undeclared"), "{msg}");
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut sys = System::new();
        let out = sys.add_signal("count", 16);
        sys.add_component(Counter { out, state: 0 });
        let hit = sys.run_until(100, |s| s.peek(out) == 5).unwrap();
        assert!(hit);
        assert!(sys.cycle() <= 7);
    }

    #[test]
    fn run_until_gives_up_after_budget() {
        let mut sys = System::new();
        let out = sys.add_signal("count", 4);
        sys.add_component(Counter { out, state: 0 });
        let hit = sys.run_until(3, |s| s.peek(out) == 100).unwrap();
        assert!(!hit);
        assert_eq!(sys.cycle(), 3);
    }

    #[test]
    fn tick_sees_settled_values() {
        let mut sys = System::new();
        let a = sys.add_signal("a", 8);
        let sampled = Arc::new(AtomicU64::new(0));
        let sampled2 = Arc::clone(&sampled);
        sys.add_component(FnComponent::new(
            "sampler",
            Ports::none().tick_read(a),
            |_: &mut SignalView<'_>| {},
            move |s: &SignalView<'_>| {
                sampled2.store(s.get(a), Ordering::Relaxed);
            },
        ));
        sys.poke(a, 33);
        sys.step().unwrap();
        assert_eq!(sampled.load(Ordering::Relaxed), 33);
    }

    #[test]
    fn disagreeing_multi_writers_report_their_merged_group() {
        // Two components persistently write different values to one
        // signal. The full sweep would re-evaluate them forever and
        // report non-convergence; the scheduler must merge them into
        // one group and do the same, naming both.
        let mut sys = System::new();
        let s = sys.add_signal("s", 8);
        sys.add_component(FnComponent::new(
            "w1",
            Ports::writes_only([s]),
            move |v: &mut SignalView<'_>| v.set(s, 1),
            |_| {},
        ));
        sys.add_component(FnComponent::new(
            "w2",
            Ports::writes_only([s]),
            move |v: &mut SignalView<'_>| v.set(s, 2),
            |_| {},
        ));
        // Writers disagree: the full sweep would never converge, and the
        // scheduler must likewise report the merged group.
        let err = sys.settle().unwrap_err();
        match err {
            SimError::NoConvergence { components, .. } => {
                assert_eq!(components, vec!["w1".to_owned(), "w2".to_owned()]);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    /// A timed stimulus: bumps its output every `period` cycles and
    /// sleeps in between — the event wheel's bread and butter.
    struct Pulser {
        out: SignalId,
        period: u64,
        state: u64,
    }

    impl Component for Pulser {
        fn name(&self) -> &str {
            "pulser"
        }
        fn ports(&self) -> Ports {
            Ports::writes_only([self.out])
        }
        fn eval(&mut self, sigs: &mut SignalView<'_>) {
            sigs.set(self.out, self.state);
        }
        fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
            if sigs.cycle().is_multiple_of(self.period) {
                self.state += 1;
            }
            Activity::Sleep(self.period - sigs.cycle() % self.period)
        }
    }

    /// `run` (which jumps dead spans) against the activity-driven
    /// per-cycle loop of the same kernel: `step` alone, every cycle
    /// visited.
    #[test]
    fn fast_forward_matches_activity_driven_bit_exactly() {
        let build = |jump: bool| {
            let mut sys = System::new();
            let p = sys.add_signal("pulse", 16);
            let dbl = sys.add_signal("double", 16);
            sys.add_component(Pulser {
                out: p,
                period: 9,
                state: 0,
            });
            sys.add_component(FnComponent::new(
                "doubler",
                Ports::new([p], [dbl]),
                move |s: &mut SignalView<'_>| {
                    let v = s.get(p);
                    s.set(dbl, v * 2);
                },
                |_| Activity::Quiescent,
            ));
            if jump {
                sys.run(100).unwrap();
            } else {
                for _ in 0..100 {
                    sys.step().unwrap();
                }
            }
            sys.settle().unwrap();
            (sys.signal_values(), sys.cycle(), sys.scheduler_stats())
        };
        let (vals_ad, cycle_ad, stats_ad) = build(false);
        let (vals_ff, cycle_ff, stats_ff) = build(true);
        assert_eq!(vals_ff, vals_ad);
        assert_eq!(cycle_ff, cycle_ad);
        // Executed work is identical; only cycles *visited* differ.
        assert_eq!(stats_ff.groups_evaluated, stats_ad.groups_evaluated);
        assert_eq!(stats_ff.components_ticked, stats_ad.components_ticked);
        assert_eq!(stats_ad.cycles_fast_forwarded, 0);
        assert!(
            stats_ff.cycles_fast_forwarded > 80,
            "a period-9 pulser leaves ~8 of 9 cycles dead, got {}",
            stats_ff.cycles_fast_forwarded
        );
    }

    #[test]
    fn fast_forward_jumps_to_bound_when_everything_is_quiescent() {
        let mut sys = System::new();
        let a = sys.add_signal("a", 8);
        let b = sys.add_signal("b", 8);
        sys.add_component(FnComponent::new(
            "buf",
            Ports::new([a], [b]),
            move |s: &mut SignalView<'_>| {
                let v = s.get(a);
                s.set(b, v);
            },
            |_| Activity::Quiescent,
        ));
        sys.poke(a, 5);
        sys.run(1_000_000).unwrap();
        assert_eq!(sys.cycle(), 1_000_000);
        assert_eq!(sys.peek(b), 5);
        let stats = sys.scheduler_stats();
        assert!(stats.cycles_fast_forwarded >= 1_000_000 - 2);
        // A poke wakes the system back up mid-run.
        sys.poke(a, 9);
        sys.run(10).unwrap();
        sys.settle().unwrap();
        assert_eq!(sys.peek(b), 9);
        assert_eq!(sys.cycle(), 1_000_010);
    }

    #[test]
    fn fast_forward_is_inert_while_work_is_pending() {
        let mut sys = System::new();
        let out = sys.add_signal("count", 16);
        sys.add_component(Counter { out, state: 0 });
        // An always-active component never lets the clock jump.
        sys.run(50).unwrap();
        sys.settle().unwrap();
        assert_eq!(sys.peek(out), 50);
        let stats = sys.scheduler_stats();
        assert_eq!(stats.cycles_fast_forwarded, 0);
        assert_eq!(sys.fast_forward(sys.cycle() + 100), 0);
    }

    /// A [`Counter`] that checkpoints its register.
    struct SavedCounter {
        out: SignalId,
        state: u64,
    }

    impl Component for SavedCounter {
        fn name(&self) -> &str {
            "saved_counter"
        }
        fn ports(&self) -> Ports {
            Ports::writes_only([self.out])
        }
        fn eval(&mut self, sigs: &mut SignalView<'_>) {
            sigs.set(self.out, self.state);
        }
        fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
            self.state = self.state.wrapping_mul(3).wrapping_add(1);
            Activity::Active
        }
        fn save_state(&self, out: &mut Vec<u64>) {
            out.push(self.state);
        }
        fn load_state(&mut self, data: &[u64]) {
            self.state = data[0];
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let build = || {
            let mut sys = System::new();
            let out = sys.add_signal("count", 16);
            sys.add_component(SavedCounter { out, state: 1 });
            sys
        };
        // Uninterrupted reference run.
        let mut reference = build();
        reference.run(40).unwrap();
        reference.settle().unwrap();

        // Snapshot mid-run, restore into a *fresh* system, resume.
        let mut first = build();
        first.run(17).unwrap();
        let ck = first.checkpoint();
        assert_eq!(ck.cycle, 17);
        let mut resumed = build();
        resumed.restore(&ck);
        resumed.run(23).unwrap();
        resumed.settle().unwrap();

        assert_eq!(resumed.cycle(), reference.cycle());
        assert_eq!(resumed.signal_values(), reference.signal_values());
    }

    #[test]
    fn save_lane_round_trips_scalar_components_as_lane_zero() {
        let build = || {
            let mut sys = System::new();
            let out = sys.add_signal("count", 16);
            sys.add_component(SavedCounter { out, state: 1 });
            (sys, out)
        };
        let (mut reference, ref_out) = build();
        reference.run(9).unwrap();
        let lane = reference.save_lane(0);
        // A state hash over the lane words is stable per state.
        assert_eq!(crate::hash_words128(&lane), crate::hash_words128(&lane));
        let (mut resumed, out) = build();
        resumed.load_lane(0, &lane);
        resumed.run(5).unwrap();
        resumed.settle().unwrap();
        reference.run(5).unwrap();
        reference.settle().unwrap();
        assert_eq!(resumed.peek(out), reference.peek(ref_out));
    }

    #[test]
    #[should_panic(expected = "no per-lane encoding")]
    fn save_lane_rejects_nonzero_lanes_of_stateful_scalar_components() {
        let mut sys = System::new();
        let out = sys.add_signal("count", 16);
        sys.add_component(SavedCounter { out, state: 0 });
        let _ = sys.save_lane(1);
    }

    #[test]
    fn influence_cone_follows_declared_ports() {
        let mut sys = System::new();
        let a = sys.add_signal("a", 8);
        let b = sys.add_signal("b", 8);
        // 0: writes a. 1: reads a in eval, writes b. 2: samples a at the
        // clock edge only. 3: reads b (downstream of 1, not of 0 within
        // one step).
        sys.add_component(FnComponent::new(
            "w",
            Ports::writes_only([a]),
            |_: &mut SignalView<'_>| {},
            |_: &SignalView<'_>| {},
        ));
        sys.add_component(FnComponent::new(
            "r",
            Ports::new([a], [b]),
            |_: &mut SignalView<'_>| {},
            |_: &SignalView<'_>| {},
        ));
        sys.add_component(FnComponent::new(
            "t",
            Ports::none().tick_read(a),
            |_: &mut SignalView<'_>| {},
            |_: &SignalView<'_>| {},
        ));
        sys.add_component(FnComponent::new(
            "d",
            Ports::reads_only([b]),
            |_: &mut SignalView<'_>| {},
            |_: &SignalView<'_>| {},
        ));
        assert_eq!(sys.influence_cone(0), vec![1, 2]);
        assert_eq!(sys.influence_cone(1), vec![3]);
        assert_eq!(sys.influence_cone(3), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "component count mismatch")]
    fn restore_rejects_mismatched_shape() {
        let mut sys = System::new();
        let out = sys.add_signal("count", 16);
        sys.add_component(SavedCounter { out, state: 0 });
        let mut ck = sys.checkpoint();
        ck.component_states.push(Vec::new());
        sys.restore(&ck);
    }
}
