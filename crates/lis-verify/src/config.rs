//! Closed wrapper configurations: SP shell + relay stations + an
//! adversary on every open edge, assembled for bounded exploration.
//!
//! A [`ClosedConfig`] owns a [`System`] whose only free inputs are the
//! per-edge stall masks of its adversaries. The *correct*
//! configurations run the gate-level SP shell 64 adversary branches at
//! a time through the packed netlist engine
//! ([`wrap_pearls_packed_full_netlist`]); the *mutant* configurations
//! run the behavioural wrapper single-lane with one seeded bug
//! ([`crate::mutants`]). Both expose the same interface to the
//! explorer: load/save per-lane state, set stall masks, step, and read
//! back the invariant probes (violation counters, the KPN ledger, the
//! void/data signal planes, delivered-token progress).

use crate::join::JoinPearl;
use crate::mutants::{EagerPolicy, MutantRelay, RelayBug};
use crate::reduce::{BranchSwap, EdgeGuard, ReductionPlan};
use lis_proto::{Lanes, Pearl, RelayStation, SeqSink, SeqSource, StallControl, ViolationCounter};
use lis_schedule::IoSchedule;
use lis_sim::{SettleMode, SignalId, System, LANES};
use lis_wrappers::{
    wrap_pearl, wrap_pearls_packed_full_netlist, SpPolicy, SyncPolicy, WrapperKind,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sequence-number modulus of every adversary stream. Must exceed any
/// configuration's token capacity so the conservation ledger
/// distinguishes "full pipeline" from "token duplicated" (a duplicate
/// makes the in-flight count wrap to near the modulus).
pub const MODULUS: u64 = 64;

/// The seeded fault a mutant configuration carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// A [`MutantRelay`] with the given bug: the drop-on-double-stall
    /// bug replaces the input relay, the others sit on the SP's output
    /// edge (closest to the adversary sink, so the trigger window is
    /// shallow).
    Relay(RelayBug),
    /// The [`EagerPolicy`] SP mutant: fires without sensing ports.
    Eager,
}

impl Mutant {
    /// Stable short name, used in config names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::Relay(bug) => bug.name(),
            Mutant::Eager => "eager-sp",
        }
    }
}

/// One adversary-controlled edge: a named stall mask (bit *k* stalls
/// lane *k* for the next cycle).
struct Edge {
    name: String,
    mask: Arc<AtomicU64>,
}

/// One source→sink stream for the conservation ledger: component
/// indices of the adversary endpoints (their sequence counter is the
/// first word of their per-lane state blob) and the stream's physical
/// token capacity.
struct Stream {
    source: usize,
    sink: usize,
    capacity: u64,
}

/// A channel watched by the signalling-legality probe: its void wire,
/// its payload signals and how a payload word maps to lanes.
struct Probe {
    void: SignalId,
    data: Vec<SignalId>,
    word_lanes: fn(u64) -> u64,
}

impl Probe {
    fn of<C: Lanes>(channel: &C) -> Self {
        Probe {
            void: channel.void_signal(),
            data: channel.data_signals().to_vec(),
            word_lanes: C::word_lanes,
        }
    }
}

/// A closed configuration ready for bounded exploration.
pub struct ClosedConfig {
    name: String,
    lanes: usize,
    system: System,
    edges: Vec<Edge>,
    lane_violations: Vec<ViolationCounter>,
    /// The adversary sink's monotone delivered-token counter per lane.
    delivered: Arc<[AtomicU64]>,
    streams: Vec<Stream>,
    probes: Vec<Probe>,
    initial: Vec<u64>,
    free_run_horizon: u64,
    plan: ReductionPlan,
}

impl ClosedConfig {
    /// The configuration's name (matches the replay registry of
    /// [`crate::counterexample::replay_on_soc`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of adversary branches one step expands (64 packed, 1
    /// scalar).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of adversary-controlled edges (branching factor is
    /// `2^edge_count`).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge names, in stall-mask bit order.
    pub fn edge_names(&self) -> Vec<String> {
        self.edges.iter().map(|e| e.name.clone()).collect()
    }

    /// The power-up state, loadable into any lane.
    pub fn initial_state(&self) -> Vec<u64> {
        self.initial.clone()
    }

    /// Free-run cycles after which a state with no sink delivery is
    /// declared deadlocked.
    pub fn free_run_horizon(&self) -> u64 {
        self.free_run_horizon
    }

    /// The configuration's reduction plan — per-edge partial-order
    /// guards and the symmetry generator, both attached (and validated
    /// against the port graph) at build time. Cloned by the explorer
    /// into every parallel worker.
    pub fn reduction_plan(&self) -> ReductionPlan {
        self.plan.clone()
    }

    /// Injects `lanes[i]` (each a [`Self::save_lanes`] result) into
    /// lane `first + i`, the whole range in one pass.
    pub fn load_lanes(&mut self, first: usize, lanes: &[&[u64]]) {
        self.system.load_lanes(first, lanes);
    }

    /// Appends the dense state of lane `first + i` to `outs[i]`, the
    /// whole range in one pass.
    pub fn save_lanes(&self, first: usize, outs: &mut [Vec<u64>]) {
        self.system.save_lanes(first, outs);
    }

    /// Injects `words` (a [`Self::save`] result) into lane `lane`.
    pub fn load(&mut self, lane: usize, words: &[u64]) {
        self.system.load_lane(lane, words);
    }

    /// Extracts lane `lane`'s dense state.
    pub fn save(&self, lane: usize) -> Vec<u64> {
        self.system.save_lane(lane)
    }

    /// Sets edge `edge`'s stall mask for the coming cycle.
    pub fn set_stall(&self, edge: usize, mask: u64) {
        self.edges[edge].mask.store(mask, Ordering::Relaxed);
    }

    /// Settles combinational signals (then inspect
    /// [`Self::signal_bad_mask`] before ticking).
    pub fn settle(&mut self) {
        self.system.settle().expect("closed config must converge");
    }

    /// Advances one clock cycle (settle is a no-op if already settled).
    pub fn step(&mut self) {
        self.system.step().expect("closed config must converge");
    }

    /// Lanes whose settled signals violate `void => data == 0` on any
    /// probed channel (bit *k* = lane *k*).
    pub fn signal_bad_mask(&self) -> u64 {
        let mut bad = 0u64;
        for probe in &self.probes {
            let void = self.system.peek(probe.void);
            for &word in &probe.data {
                bad |= void & (probe.word_lanes)(self.system.peek(word));
            }
        }
        bad
    }

    /// Cumulative component-recorded faults of lane `lane` (relay
    /// overflow, wrapper pop-empty/push-full, sink order faults, join
    /// mismatches — all share the lane's counter).
    pub fn violations(&self, lane: usize) -> u64 {
        self.lane_violations[lane].count()
    }

    /// Cumulative informative deliveries at the adversary sink of lane
    /// `lane` — the monotone progress signal.
    pub fn delivered(&self, lane: usize) -> u64 {
        self.delivered[lane].load(Ordering::Relaxed)
    }

    /// Per-stream `(source seq, sink expect)` pairs extracted from a
    /// saved lane state — the KPN ledger's raw inputs.
    pub fn stream_state(&self, words: &[u64]) -> Vec<(u64, u64)> {
        self.streams
            .iter()
            .map(|s| {
                (
                    component_first_word(words, s.source),
                    component_first_word(words, s.sink),
                )
            })
            .collect()
    }

    /// Checks the conservation ledger on a saved lane state: for every
    /// stream, `(seq - expect) mod MODULUS` tokens are in flight, and
    /// that can never exceed the stream's physical capacity. Returns a
    /// description of the first violated stream.
    pub fn ledger_violation(&self, words: &[u64]) -> Option<String> {
        for (i, s) in self.streams.iter().enumerate() {
            let seq = component_first_word(words, s.source);
            let expect = component_first_word(words, s.sink);
            let in_flight = (seq + MODULUS - expect) % MODULUS;
            if in_flight > s.capacity {
                return Some(format!(
                    "stream {i}: {in_flight} tokens in flight exceeds capacity {} \
                     (source seq {seq}, sink expect {expect} mod {MODULUS})",
                    s.capacity
                ));
            }
        }
        None
    }
}

/// First word of component `comp_idx`'s blob in a length-prefixed lane
/// state (see [`System::save_lane`]).
fn component_first_word(words: &[u64], comp_idx: usize) -> u64 {
    let mut at = 0usize;
    for i in 0.. {
        let len = words[at] as usize;
        if i == comp_idx {
            assert!(len >= 1, "component {comp_idx} saved no state");
            return words[at + 1];
        }
        at += 1 + len;
    }
    unreachable!()
}

/// Token capacity of a path with `relays` relay stations: 2 places per
/// relay, 2 per wrapper port queue (in and out), the pearl itself and
/// its output register, plus 2 slack for the in-transit settle cycle.
fn path_capacity(relays: usize) -> u64 {
    2 * relays as u64 + 8
}

fn fresh_counters(n: usize) -> Vec<ViolationCounter> {
    (0..n).map(|_| ViolationCounter::new()).collect()
}

/// Validates one POR guard against the sealed port graph: the
/// adversary component's one-step cone of influence must be exactly the
/// guarded component. If any third component could observe the stall
/// choice, the inertness proof would not cover it, so the builder
/// panics rather than attach an unsound guard. Must run on the fully
/// assembled system (later components could add readers).
fn validated_guard(system: &System, adversary: usize, guard: EdgeGuard) -> EdgeGuard {
    if let Some(watched) = guard.watched_component() {
        let cone = system.influence_cone(adversary);
        assert_eq!(
            cone,
            vec![watched],
            "POR guard unsound: adversary component {adversary}'s cone of influence \
             must be exactly the watched component {watched}"
        );
    }
    guard
}

fn checker_system() -> System {
    let mut system = System::new();
    // Reference-grade settle: state injection marks everything dirty,
    // and these systems are small enough that blind sweeps win over
    // rebuilding scheduler activity state every step.
    system.set_settle_mode(SettleMode::FullSweep);
    system
}

/// The shape of a registered closed configuration: one adversary
/// source per branch, each decoupled by its branch's relay stations
/// from one input of the SP-wrapped join pearl, and one adversary sink
/// behind the wrapper's output.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// Registry name.
    pub(crate) name: &'static str,
    /// Relay stations on each source branch (at least one each).
    pub(crate) branches: &'static [usize],
    /// Correct relay stations between the wrapper and the sink.
    pub(crate) relays_after: usize,
    /// The seeded bug, if any (behavioural configurations only).
    pub(crate) mutant: Option<Mutant>,
    /// The gate-level SP shell, 64 adversary branches per step
    /// (`true`), or the behavioural wrapper on one lane.
    pub(crate) packed: bool,
}

const fn shape(
    name: &'static str,
    branches: &'static [usize],
    relays_after: usize,
    mutant: Option<Mutant>,
    packed: bool,
) -> Shape {
    Shape {
        name,
        branches,
        relays_after,
        mutant,
        packed,
    }
}

/// Every registered configuration, by name. The packed join `spj`
/// skews its branches (1 and 2 stations — the latency skew the join
/// must absorb); `spj-sym`'s two identical branches carry a branch-swap
/// symmetry.
#[rustfmt::skip]
const SHAPES: &[Shape] = &[
    //    name          branches  after  mutant                                             packed
    shape("sp1",        &[1],     0,     None,                                              true),
    shape("sp2",        &[1],     1,     None,                                              true),
    shape("spj",        &[1, 2],  0,     None,                                              true),
    shape("spj-sym",    &[1, 1],  0,     None,                                              false),
    shape("sp1-scalar", &[1],     0,     None,                                              false),
    shape("sp2-scalar", &[1],     1,     None,                                              false),
    shape("mut-drop",   &[1],     0,     Some(Mutant::Relay(RelayBug::DropOnDoubleStall)),  false),
    shape("mut-dup",    &[1],     0,     Some(Mutant::Relay(RelayBug::DuplicateOnRestart)), false),
    shape("mut-stuck",  &[1],     0,     Some(Mutant::Relay(RelayBug::StuckStop)),          false),
    shape("mut-eager",  &[1],     0,     Some(Mutant::Eager),                               false),
];

impl Shape {
    /// The registered shape named `name`.
    pub(crate) fn named(name: &str) -> Option<Shape> {
        SHAPES.iter().find(|s| s.name == name).copied()
    }

    /// The stall edge of source branch `branch`: `src` when there is
    /// one branch, `src0`, `src1`, … otherwise.
    fn source_edge(&self, branch: usize) -> String {
        if self.branches.len() == 1 {
            "src".into()
        } else {
            format!("src{branch}")
        }
    }

    /// The relay bug that replaces branch 0's first relay station. The
    /// drop-on-double-stall bug needs back-to-back sends into the
    /// relay, which only the every-cycle adversary source produces (the
    /// SP's output is throttled to one token per period).
    pub(crate) fn input_mutant(&self) -> Option<RelayBug> {
        match self.mutant {
            Some(Mutant::Relay(bug @ RelayBug::DropOnDoubleStall)) => Some(bug),
            _ => None,
        }
    }

    /// The relay bug that sits on the output edge, after the correct
    /// relay stations, next to the sink (so the trigger window is
    /// shallow).
    pub(crate) fn output_mutant(&self) -> Option<RelayBug> {
        match self.mutant {
            Some(Mutant::Relay(bug)) if self.input_mutant().is_none() => Some(bug),
            _ => None,
        }
    }

    /// The wrapper's synchronization policy: the SP of `schedule`, or
    /// the [`EagerPolicy`] mutant.
    pub(crate) fn policy(&self, schedule: &IoSchedule) -> Box<dyn SyncPolicy> {
        match self.mutant {
            Some(Mutant::Eager) => Box::new(EagerPolicy::new(schedule.clone())),
            _ => Box::new(SpPolicy::from_schedule(schedule)),
        }
    }

    /// Relay stations between the wrapper and the sink, mutant
    /// included.
    fn stations_after(&self) -> usize {
        self.relays_after + usize::from(self.output_mutant().is_some())
    }
}

/// A closed configuration under construction: the system plus what the
/// builders record on the way from the sources to the sink.
struct Assembly {
    system: System,
    edges: Vec<Edge>,
    /// Each adversary's component index and its POR guard, validated
    /// once the system is complete.
    guards: Vec<(usize, EdgeGuard)>,
    /// Each source's component index and its branch's relay count.
    sources: Vec<(usize, usize)>,
    probes: Vec<Probe>,
}

impl Assembly {
    fn new(shape: &Shape) -> Self {
        assert!(
            shape.branches.iter().all(|&relays| relays >= 1),
            "{}: every source must be decoupled by a relay",
            shape.name
        );
        Assembly {
            system: checker_system(),
            edges: Vec::new(),
            guards: Vec::new(),
            sources: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Allocates a 32-bit channel watched by the signalling probe.
    fn channel<C: Lanes>(&mut self, name: &str) -> C {
        let channel = C::alloc(&mut self.system, name, 32);
        self.probes.push(Probe::of(&channel));
        channel
    }

    /// Adds an adversary-controlled edge; returns its stall control.
    fn edge(&mut self, name: &str) -> StallControl {
        let mask = Arc::new(AtomicU64::new(0));
        self.edges.push(Edge {
            name: name.into(),
            mask: Arc::clone(&mask),
        });
        StallControl::External(mask)
    }

    /// Validates every guard against the complete system and closes the
    /// configuration. The branch swap must fix the power-up state, so
    /// that the canonical orbit of the initial state is itself.
    fn close(
        self,
        shape: &Shape,
        lane_violations: Vec<ViolationCounter>,
        sink: usize,
        delivered: Arc<[AtomicU64]>,
        symmetry: Option<BranchSwap>,
    ) -> ClosedConfig {
        let guards = self
            .guards
            .into_iter()
            .map(|(adversary, guard)| validated_guard(&self.system, adversary, guard))
            .collect();
        let initial = self.system.save_lane(0);
        if let Some(swap) = &symmetry {
            assert_eq!(
                swap.mirror(&initial),
                initial,
                "the power-up state must be a fixed point of the branch swap"
            );
        }
        let streams = self
            .sources
            .into_iter()
            .map(|(source, relays)| Stream {
                source,
                sink,
                capacity: path_capacity(relays + shape.stations_after()),
            })
            .collect();
        ClosedConfig {
            name: shape.name.to_string(),
            lanes: lane_violations.len(),
            system: self.system,
            edges: self.edges,
            lane_violations,
            delivered,
            streams,
            probes: self.probes,
            initial,
            free_run_horizon: 64,
            plan: ReductionPlan { guards, symmetry },
        }
    }
}

/// What a configuration's wrapper contributes to its assembly.
struct Wrapped<C> {
    /// The wrapper's input channels, one per source branch.
    ins: Vec<C>,
    /// The wrapper's output channels; the sink hangs off the first.
    outs: Vec<C>,
    /// One violation counter per lane.
    violations: Vec<ViolationCounter>,
    /// The sink edge's guard when no relay station follows the
    /// wrapper.
    out_guard: EdgeGuard,
    /// The component index of a behavioural wrapper, whose per-port
    /// state the branch swap splices; `None` for the gate-level shell.
    behavioural: Option<usize>,
}

/// Closes `shape` around the wrapper already in `a`: each source → its
/// branch's relay stations → its wrapper input, and the first wrapper
/// output → `relays_after` relay stations → (the output mutant) → the
/// sink. `mutant` places the seeded relay bug wherever the shape calls
/// for one.
///
/// Two identical branches around a behavioural wrapper and no mutant
/// make the branches structurally interchangeable (same relay depth,
/// same stream capacity, and a join schedule that reads both ports in
/// the same step), so the configuration carries a [`BranchSwap`]
/// symmetry folding mirror-image states into one orbit representative.
fn assemble<C: Lanes>(
    shape: &Shape,
    mut a: Assembly,
    w: Wrapped<C>,
    mutant: impl Fn(&mut System, RelayBug, C, C),
) -> ClosedConfig {
    a.probes.extend(w.ins.iter().chain(&w.outs).map(Probe::of));
    // Each branch's components in order: the source, then its relays.
    let mut branch_comps = Vec::new();
    for (branch, (&relays, wrapper_in)) in shape.branches.iter().zip(&w.ins).enumerate() {
        let edge = shape.source_edge(branch);
        let mut cur: C = a.channel(&format!("adv_{edge}"));
        let source = a.system.component_count();
        let stall = a.edge(&edge);
        a.system
            .add_component(SeqSource::new(edge, cur.clone(), stall, MODULUS));
        let mut comps = vec![source];
        for i in 0..relays {
            let next = if i + 1 == relays {
                wrapper_in.clone()
            } else {
                a.channel(&format!("seg{branch}_{i}"))
            };
            comps.push(a.system.component_count());
            match shape.input_mutant() {
                Some(bug) if branch == 0 && i == 0 => {
                    mutant(&mut a.system, bug, cur, next.clone());
                }
                _ => a.system.add_component(RelayStation::new(
                    format!("rb{branch}_{i}"),
                    cur,
                    next.clone(),
                    &w.violations,
                )),
            }
            cur = next;
        }
        // The source edge's inertness proof rests on the *correct*
        // relay's registered protocol, the sink edge's on either a
        // correct output relay or the behavioural wrapper's output
        // queue. Any edge feeding a mutant component gets no guard: a
        // bug invalidates the proof, and the mutants exist precisely to
        // be caught.
        let guard = if branch == 0 && shape.input_mutant().is_some() {
            EdgeGuard::None
        } else {
            EdgeGuard::RelayStopUp { comp: comps[1] }
        };
        a.guards.push((source, guard));
        a.sources.push((source, relays));
        branch_comps.push(comps);
    }

    let mut sink_guard = w.out_guard;
    let mut cur = w.outs[0].clone();
    for i in 0..shape.relays_after {
        let next: C = a.channel(&format!("seg_out{i}"));
        let comp = a.system.component_count();
        sink_guard = EdgeGuard::RelayMainEmpty { comp };
        a.system.add_component(RelayStation::new(
            format!("ra{i}"),
            cur,
            next.clone(),
            &w.violations,
        ));
        cur = next;
    }
    if let Some(bug) = shape.output_mutant() {
        let next: C = a.channel("adv_out");
        mutant(&mut a.system, bug, cur, next.clone());
        sink_guard = EdgeGuard::None;
        cur = next;
    }
    let sink = a.system.component_count();
    let stall = a.edge("sink");
    let snk = SeqSink::new("snk", cur, stall, MODULUS, &w.violations);
    let delivered = snk.delivered();
    a.system.add_component(snk);
    a.guards.push((sink, sink_guard));

    let symmetry = match (shape.branches, w.behavioural) {
        ([x, y], Some(wrapper)) if x == y && shape.mutant.is_none() => Some(BranchSwap {
            comp_swaps: branch_comps[0]
                .iter()
                .copied()
                .zip(branch_comps[1].iter().copied())
                .collect(),
            wrapper,
            n_in: shape.branches.len(),
            n_out: 1,
            ports: (0, 1),
        }),
        _ => None,
    };
    a.close(shape, w.violations, sink, delivered, symmetry)
}

/// Builds the packed gate-level configuration of `shape`, 64 adversary
/// branches per step, around the SP shell of the join pearl.
fn packed_config(shape: &Shape) -> ClosedConfig {
    assert!(shape.mutant.is_none(), "mutants run behavioural");
    let mut a = Assembly::new(shape);
    let violations = fresh_counters(LANES);
    let n_in = shape.branches.len();
    let pearls: Vec<Box<dyn Pearl>> = (0..LANES)
        .map(|k| Box::new(JoinPearl::new("join", n_in, 1, &violations[k])) as Box<dyn Pearl>)
        .collect();
    let controller = WrapperKind::Sp
        .generate_netlist(pearls[0].schedule())
        .expect("SP controller for the join schedule");
    let (ins, outs) = wrap_pearls_packed_full_netlist(&mut a.system, "sp", pearls, controller);
    let wrapped = Wrapped {
        ins,
        outs,
        violations,
        // With no relay after the shell the sink talks straight to the
        // gate-level wrapper, whose netlist state we do not inspect: no
        // inertness proof.
        out_guard: EdgeGuard::None,
        behavioural: None,
    };
    assemble(shape, a, wrapped, |_, _, _, _| {
        unreachable!("mutants run behavioural")
    })
}

/// Builds the behavioural configuration of `shape`, one lane, around the
/// behavioural wrapper of the join pearl. With no mutant this is the
/// cycle-exact twin the counterexample-replay SoCs and the
/// BMC-vs-simulator cross-check are built on; with one it carries
/// exactly one seeded bug.
fn scalar_config(shape: &Shape) -> ClosedConfig {
    let mut a = Assembly::new(shape);
    let violations = ViolationCounter::new();
    let n_in = shape.branches.len();
    let pearl = JoinPearl::new("join", n_in, 1, &violations);
    let policy = shape.policy(pearl.schedule());
    let wrapper = a.system.component_count();
    let (ins, outs, _stats) = wrap_pearl(&mut a.system, "sp", Box::new(pearl), policy, &violations);
    let wrapped = Wrapped {
        ins,
        outs,
        violations: vec![violations],
        out_guard: EdgeGuard::WrapperOutEmpty {
            comp: wrapper,
            n_in,
        },
        behavioural: Some(wrapper),
    };
    assemble(shape, a, wrapped, |system, bug, up, down| {
        system.add_component(MutantRelay::new("mut", up, down, bug));
    })
}

/// Names of the correct configurations the checker must prove clean.
pub const CORRECT_CONFIGS: &[&str] = &["sp1", "sp2", "spj", "spj-sym", "sp1-scalar", "sp2-scalar"];

/// Names of the seeded-mutant configurations the checker must catch.
pub const MUTANT_CONFIGS: &[&str] = &["mut-drop", "mut-dup", "mut-stuck", "mut-eager"];

/// Builds a configuration by registry name (the name a
/// [`crate::Counterexample`] carries), or `None` if unknown.
///
/// * `sp1` / `sp2` — packed gate-level SP with 1 / 2 relay stations.
/// * `spj` — packed gate-level SP joining two branches of skewed relay
///   depth (1 and 2).
/// * `spj-sym` — behavioural join with two *identical* branches and a
///   branch-swap symmetry.
/// * `sp1-scalar` / `sp2-scalar` — behavioural single-lane twins.
/// * `mut-drop` / `mut-dup` / `mut-stuck` — a [`MutantRelay`] with the
///   corresponding [`RelayBug`]: the drop bug replaces the input relay,
///   the others sit on the SP's output edge.
/// * `mut-eager` — the correct topology with the [`EagerPolicy`] SP.
pub fn build_config(name: &str) -> Option<ClosedConfig> {
    let shape = Shape::named(name)?;
    Some(if shape.packed {
        packed_config(&shape)
    } else {
        scalar_config(&shape)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::rand::rngs::StdRng;
    use proptest::rand::{RngExt, SeedableRng};

    /// Steps `cfg` through `cycles` cycles of random per-lane stall
    /// choices, so its lanes drift apart.
    fn scramble(cfg: &mut ClosedConfig, rng: &mut StdRng, cycles: usize) {
        for _ in 0..cycles {
            for e in 0..cfg.edge_count() {
                cfg.set_stall(e, rng.random());
            }
            cfg.step();
        }
    }

    fn save_all(cfg: &ClosedConfig) -> Vec<Vec<u64>> {
        let mut lanes = vec![Vec::new(); cfg.lanes()];
        cfg.save_lanes(0, &mut lanes);
        lanes
    }

    proptest! {
        /// Lane-range snapshots on the packed configurations: random
        /// blobs loaded into a random lane range come back bit-exactly,
        /// lanes outside the range keep their state, and a one-lane
        /// save is that lane's element of a 64-lane save.
        #[test]
        fn packed_lane_ranges_round_trip(
            spj in any::<bool>(),
            seed in any::<u64>(),
            (first, count) in (0..LANES).prop_flat_map(|first| (Just(first), 1..=LANES - first)),
        ) {
            let name = if spj { "spj" } else { "sp1" };
            let mut rng = StdRng::seed_from_u64(seed);
            // Random blobs: diverged lane states whose flip-flop words
            // are then overwritten with random bits. The packed shell is
            // component 0, so its blob starts at word 1 with the
            // flip-flop words; its full-state blob holds their count at
            // word 1.
            let mut donor = build_config(name).expect("registered config");
            scramble(&mut donor, &mut rng, 16);
            let dffs = donor.system.checkpoint().component_states[0][1] as usize;
            let mut blobs = save_all(&donor);
            for blob in &mut blobs {
                for (w, word) in blob[1..1 + dffs.div_ceil(64)].iter_mut().enumerate() {
                    let bits = dffs - 64 * w;
                    *word = rng.random::<u64>() & if bits >= 64 { !0 } else { (1 << bits) - 1 };
                }
            }
            let mut cfg = build_config(name).expect("registered config");
            scramble(&mut cfg, &mut rng, 8);
            // The drawn range, then all 64 lanes, so every case also
            // covers lane 0 and the full-word masks.
            for (first, count) in [(first, count), (0, LANES)] {
                let shift = rng.random_range(0..LANES);
                let picked: Vec<&[u64]> =
                    (0..count).map(|i| &blobs[(i + shift) % LANES][..]).collect();
                let before = save_all(&cfg);
                cfg.load_lanes(first, &picked);
                let after = save_all(&cfg);
                for (lane, (now, was)) in after.iter().zip(&before).enumerate() {
                    if (first..first + count).contains(&lane) {
                        prop_assert_eq!(&now[..], picked[lane - first], "lane {} came back changed", lane);
                    } else {
                        prop_assert_eq!(now, was, "lane {} outside {}..{} moved", lane, first, first + count);
                    }
                    prop_assert_eq!(&cfg.save(lane), now, "one-lane save of lane {}", lane);
                }
            }
        }
    }

    #[test]
    fn registry_covers_every_named_config() {
        let named: Vec<&str> = CORRECT_CONFIGS
            .iter()
            .chain(MUTANT_CONFIGS)
            .copied()
            .collect();
        let shapes: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
        assert_eq!(shapes, named, "one shape per named config, in order");
        for name in named {
            let cfg = build_config(name).expect("registered config builds");
            assert_eq!(cfg.name(), name);
            // Only two identical behavioural branches fold by symmetry.
            assert_eq!(
                cfg.reduction_plan().symmetry.is_some(),
                name == "spj-sym",
                "{name}"
            );
        }
        assert!(build_config("nope").is_none());
    }

    #[test]
    fn scalar_config_streams_cleanly_when_unstalled() {
        let mut cfg = build_config("sp1-scalar").expect("registered config");
        assert_eq!(cfg.lanes(), 1);
        let init = cfg.initial_state();
        cfg.load(0, &init);
        for _ in 0..40 {
            cfg.settle();
            assert_eq!(cfg.signal_bad_mask() & 1, 0);
            cfg.step();
            let words = cfg.save(0);
            assert_eq!(cfg.ledger_violation(&words), None);
        }
        assert_eq!(cfg.violations(0), 0);
        assert!(cfg.delivered(0) > 5, "tokens must flow end to end");
    }

    #[test]
    fn packed_config_streams_cleanly_on_every_lane() {
        let mut cfg = build_config("sp1").expect("registered config");
        assert_eq!(cfg.lanes(), 64);
        for _ in 0..40 {
            cfg.settle();
            assert_eq!(cfg.signal_bad_mask(), 0);
            cfg.step();
        }
        for lane in 0..64 {
            assert_eq!(cfg.violations(lane), 0, "lane {lane}");
            assert!(cfg.delivered(lane) > 5, "lane {lane} must progress");
            let words = cfg.save(lane);
            assert_eq!(cfg.ledger_violation(&words), None, "lane {lane}");
        }
    }

    #[test]
    fn stall_masks_hold_individual_lanes() {
        let mut cfg = build_config("sp1").expect("registered config");
        // Lane 0's source is stalled forever; lane 1 runs free.
        cfg.set_stall(0, 0b01);
        for _ in 0..30 {
            cfg.step();
        }
        assert_eq!(cfg.delivered(0), 0, "stalled source never feeds the sink");
        assert!(cfg.delivered(1) > 3);
        let w0 = cfg.save(0);
        assert_eq!(cfg.stream_state(&w0)[0], (0, 0), "lane 0 never moved");
    }

    #[test]
    fn ledger_flags_impossible_in_flight_counts() {
        let cfg = build_config("sp1-scalar").expect("registered config");
        let mut words = cfg.initial_state();
        // Forge a sink that claims more deliveries than sends: the
        // in-flight count wraps to MODULUS - 3 > capacity.
        let streams = cfg.stream_state(&words);
        assert_eq!(streams[0], (0, 0));
        // Patch the sink expect in place (first word of its blob).
        let sink_word = patch_component_first_word(&mut words, cfg.streams[0].sink, 3);
        assert!(sink_word, "sink blob located");
        assert!(cfg
            .ledger_violation(&words)
            .expect("forged state must violate conservation")
            .contains("in flight"));
    }

    fn patch_component_first_word(words: &mut [u64], comp_idx: usize, value: u64) -> bool {
        let mut at = 0usize;
        for i in 0.. {
            let len = words[at] as usize;
            if i == comp_idx {
                words[at + 1] = value;
                return true;
            }
            at += 1 + len;
            if at >= words.len() {
                return false;
            }
        }
        false
    }
}
