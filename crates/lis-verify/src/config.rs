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
use lis_proto::{
    LisChannel, PackedLisChannel, PackedRelayStation, PackedSeqSink, PackedSeqSource, Pearl,
    RelayStation, SeqSink, SeqSource, StallControl, ViolationCounter,
};
use lis_sim::{SettleMode, System, LANES};
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
    /// A [`MutantRelay`] with the given bug, placed on the SP's output
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

/// A channel watched by the signalling-legality probe.
enum Probe {
    Scalar(LisChannel),
    Packed(PackedLisChannel),
}

/// Monotone delivered-token counters of the adversary sink.
enum Delivered {
    Scalar(Arc<AtomicU64>),
    Packed(Arc<Vec<AtomicU64>>),
}

/// A closed configuration ready for bounded exploration.
pub struct ClosedConfig {
    name: String,
    lanes: usize,
    system: System,
    edges: Vec<Edge>,
    lane_violations: Vec<ViolationCounter>,
    delivered: Delivered,
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
            match probe {
                Probe::Scalar(ch) => {
                    if self.system.peek_bool(ch.void) && self.system.peek(ch.data) != 0 {
                        bad |= 1;
                    }
                }
                Probe::Packed(ch) => {
                    let void = self.system.peek(ch.void);
                    for &plane in &ch.data {
                        bad |= void & self.system.peek(plane);
                    }
                }
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
        match &self.delivered {
            Delivered::Scalar(d) => d.load(Ordering::Relaxed),
            Delivered::Packed(d) => d[lane].load(Ordering::Relaxed),
        }
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

/// Builds the packed gate-level configuration `name`: adversary source
/// → `relays_before` relay stations → SP-wrapped identity pearl →
/// `relays_after` relay stations → adversary sink, 64 lanes wide.
pub fn packed_sp(name: &str, relays_before: usize, relays_after: usize) -> ClosedConfig {
    assert!(relays_before >= 1, "source must be decoupled by a relay");
    let mut system = checker_system();
    let lane_violations = fresh_counters(LANES);
    let pearls: Vec<Box<dyn Pearl>> = (0..LANES)
        .map(|k| Box::new(JoinPearl::new("join", 1, 1, &lane_violations[k])) as Box<dyn Pearl>)
        .collect();
    let schedule = pearls[0].schedule().clone();
    let controller = WrapperKind::Sp
        .generate_netlist(&schedule)
        .expect("SP controller for the join schedule");
    let (ins, outs) = wrap_pearls_packed_full_netlist(&mut system, "sp", pearls, controller);

    let mut probes = vec![
        Probe::Packed(ins[0].clone()),
        Probe::Packed(outs[0].clone()),
    ];
    let src_ch = PackedLisChannel::new(&mut system, "adv_src", 32);
    probes.push(Probe::Packed(src_ch.clone()));
    let src_stall = Arc::new(AtomicU64::new(0));
    let source = system.component_count();
    system.add_component(PackedSeqSource::new(
        "src",
        src_ch.clone(),
        StallControl::External(Arc::clone(&src_stall)),
        MODULUS,
        u64::MAX,
    ));
    let mut cur = src_ch;
    let first_relay = system.component_count();
    for i in 0..relays_before {
        let next = if i + 1 == relays_before {
            ins[0].clone()
        } else {
            let ch = PackedLisChannel::new(&mut system, &format!("seg_in{i}"), 32);
            probes.push(Probe::Packed(ch.clone()));
            ch
        };
        system.add_component(PackedRelayStation::new(
            format!("rb{i}"),
            cur,
            next.clone(),
            lane_violations.clone(),
        ));
        cur = next;
    }
    let mut cur = outs[0].clone();
    let mut last_after_relay = None;
    for i in 0..relays_after {
        let next = PackedLisChannel::new(&mut system, &format!("seg_out{i}"), 32);
        probes.push(Probe::Packed(next.clone()));
        last_after_relay = Some(system.component_count());
        system.add_component(PackedRelayStation::new(
            format!("ra{i}"),
            cur,
            next.clone(),
            lane_violations.clone(),
        ));
        cur = next;
    }
    let sink_stall = Arc::new(AtomicU64::new(0));
    let sink = system.component_count();
    let snk = PackedSeqSink::new(
        "snk",
        cur,
        StallControl::External(Arc::clone(&sink_stall)),
        MODULUS,
        u64::MAX,
        &lane_violations,
    );
    let delivered = snk.delivered();
    system.add_component(snk);

    let relays = relays_before + relays_after;
    let guards = vec![
        validated_guard(
            &system,
            source,
            EdgeGuard::PackedRelayStopUp { comp: first_relay },
        ),
        match last_after_relay {
            Some(comp) => validated_guard(&system, sink, EdgeGuard::PackedRelayMainEmpty { comp }),
            // With no relay after the shell the sink talks straight to
            // the gate-level wrapper, whose netlist state we do not
            // inspect: no inertness proof.
            None => EdgeGuard::None,
        },
    ];
    let initial = system.save_lane(0);
    ClosedConfig {
        name: name.to_string(),
        lanes: LANES,
        system,
        edges: vec![
            Edge {
                name: "src".into(),
                mask: src_stall,
            },
            Edge {
                name: "sink".into(),
                mask: sink_stall,
            },
        ],
        lane_violations,
        delivered: Delivered::Packed(delivered),
        streams: vec![Stream {
            source,
            sink,
            capacity: path_capacity(relays),
        }],
        probes,
        initial,
        free_run_horizon: 64,
        plan: ReductionPlan {
            guards,
            symmetry: None,
        },
    }
}

/// Builds the packed join configuration: two adversary sources feeding
/// a 2-input SP-wrapped join pearl through relay chains of *different*
/// depth (1 and 2 stations — the latency skew the join must absorb),
/// one adversary sink. Three controlled edges, branching factor 8.
pub fn packed_spj(name: &str) -> ClosedConfig {
    let mut system = checker_system();
    let lane_violations = fresh_counters(LANES);
    let pearls: Vec<Box<dyn Pearl>> = (0..LANES)
        .map(|k| Box::new(JoinPearl::new("join", 2, 1, &lane_violations[k])) as Box<dyn Pearl>)
        .collect();
    let schedule = pearls[0].schedule().clone();
    let controller = WrapperKind::Sp
        .generate_netlist(&schedule)
        .expect("SP controller for the join schedule");
    let (ins, outs) = wrap_pearls_packed_full_netlist(&mut system, "spj", pearls, controller);

    let mut probes = vec![Probe::Packed(outs[0].clone())];
    let mut edges = Vec::new();
    let mut guard_specs = Vec::new();
    let mut streams = Vec::new();
    for (branch, relays) in [1usize, 2].into_iter().enumerate() {
        let src_ch = PackedLisChannel::new(&mut system, &format!("adv_src{branch}"), 32);
        probes.push(Probe::Packed(src_ch.clone()));
        probes.push(Probe::Packed(ins[branch].clone()));
        let stall = Arc::new(AtomicU64::new(0));
        let source = system.component_count();
        system.add_component(PackedSeqSource::new(
            format!("src{branch}"),
            src_ch.clone(),
            StallControl::External(Arc::clone(&stall)),
            MODULUS,
            u64::MAX,
        ));
        edges.push(Edge {
            name: format!("src{branch}"),
            mask: stall,
        });
        let first_relay = system.component_count();
        guard_specs.push((source, EdgeGuard::PackedRelayStopUp { comp: first_relay }));
        let mut cur = src_ch;
        for i in 0..relays {
            let next = if i + 1 == relays {
                ins[branch].clone()
            } else {
                let ch = PackedLisChannel::new(&mut system, &format!("seg{branch}_{i}"), 32);
                probes.push(Probe::Packed(ch.clone()));
                ch
            };
            system.add_component(PackedRelayStation::new(
                format!("rb{branch}_{i}"),
                cur,
                next.clone(),
                lane_violations.clone(),
            ));
            cur = next;
        }
        streams.push((source, relays));
    }
    let sink_stall = Arc::new(AtomicU64::new(0));
    let sink = system.component_count();
    let snk = PackedSeqSink::new(
        "snk",
        outs[0].clone(),
        StallControl::External(Arc::clone(&sink_stall)),
        MODULUS,
        u64::MAX,
        &lane_violations,
    );
    let delivered = snk.delivered();
    system.add_component(snk);
    edges.push(Edge {
        name: "sink".into(),
        mask: sink_stall,
    });
    // The sink talks straight to the gate-level wrapper shell: no
    // inertness proof for its edge.
    guard_specs.push((sink, EdgeGuard::None));

    let guards = guard_specs
        .into_iter()
        .map(|(adversary, guard)| validated_guard(&system, adversary, guard))
        .collect();
    let initial = system.save_lane(0);
    ClosedConfig {
        name: name.to_string(),
        lanes: LANES,
        system,
        edges,
        lane_violations,
        delivered: Delivered::Packed(delivered),
        streams: streams
            .into_iter()
            .map(|(source, relays)| Stream {
                source,
                sink,
                capacity: path_capacity(relays),
            })
            .collect(),
        probes,
        initial,
        free_run_horizon: 64,
        plan: ReductionPlan {
            guards,
            symmetry: None,
        },
    }
}

/// Builds a scalar behavioural configuration: adversary source → one
/// relay station → behavioural SP wrapper around the identity pearl →
/// (optional mutant relay) → adversary sink, one lane. With
/// `mutant: None` this is the cycle-exact twin the
/// counterexample-replay SoCs and the BMC-vs-simulator cross-check are
/// built on; with a [`Mutant`] it carries exactly one seeded bug.
pub fn scalar_sp(name: &str, relays_after: usize, mutant: Option<Mutant>) -> ClosedConfig {
    let mut system = checker_system();
    let violations = ViolationCounter::new();
    let pearl = JoinPearl::new("join", 1, 1, &violations);
    let schedule = pearl.schedule().clone();
    let policy: Box<dyn SyncPolicy> = match mutant {
        Some(Mutant::Eager) => Box::new(EagerPolicy::new(schedule)),
        _ => Box::new(SpPolicy::from_schedule(&schedule)),
    };
    let wrapper = system.component_count();
    let (ins, outs, _stats) = wrap_pearl(&mut system, "sp", Box::new(pearl), policy, &violations);

    let mut probes = vec![Probe::Scalar(ins[0]), Probe::Scalar(outs[0])];
    let src_ch = LisChannel::new(&mut system, "adv_src", 32);
    probes.push(Probe::Scalar(src_ch));
    let src_stall = Arc::new(AtomicU64::new(0));
    let source = system.component_count();
    system.add_component(SeqSource::new(
        "src",
        src_ch,
        StallControl::External(Arc::clone(&src_stall)),
        MODULUS,
    ));
    // The drop-on-double-stall bug needs back-to-back sends into the
    // relay, which only the every-cycle adversary source produces (the
    // SP's output is throttled to one token per period): that mutant
    // replaces the input relay, the others sit on the output edge.
    let mutant_before = matches!(mutant, Some(Mutant::Relay(RelayBug::DropOnDoubleStall)));
    let in_relay = system.component_count();
    if mutant_before {
        system.add_component(MutantRelay::new(
            "mut",
            src_ch,
            ins[0],
            RelayBug::DropOnDoubleStall,
        ));
    } else {
        system.add_component(RelayStation::new("rb0", src_ch, ins[0], violations.clone()));
    }

    let mut cur = outs[0];
    let mut relays = 1;
    let mut last_after_relay = None;
    let mutant_after = matches!((mutant, mutant_before), (Some(Mutant::Relay(_)), false));
    if let (Some(Mutant::Relay(bug)), false) = (mutant, mutant_before) {
        let ch = LisChannel::new(&mut system, "adv_out", 32);
        probes.push(Probe::Scalar(ch));
        system.add_component(MutantRelay::new("mut", cur, ch, bug));
        cur = ch;
        relays += 1;
    } else {
        for i in 0..relays_after {
            let ch = LisChannel::new(&mut system, &format!("seg_out{i}"), 32);
            probes.push(Probe::Scalar(ch));
            last_after_relay = Some(system.component_count());
            system.add_component(RelayStation::new(
                format!("ra{i}"),
                cur,
                ch,
                violations.clone(),
            ));
            cur = ch;
            relays += 1;
        }
    }
    let sink_stall = Arc::new(AtomicU64::new(0));
    let sink = system.component_count();
    let snk = SeqSink::new(
        "snk",
        cur,
        StallControl::External(Arc::clone(&sink_stall)),
        MODULUS,
        &violations,
    );
    let delivered = snk.delivered();
    system.add_component(snk);

    // The source edge's inertness proof rests on the *correct* relay's
    // registered protocol, the sink edge's on either a correct output
    // relay or the behavioural wrapper's output queue. Any edge feeding
    // a mutant component gets no guard: a bug invalidates the proof,
    // and the mutants exist precisely to be caught.
    let guards = vec![
        if mutant_before {
            EdgeGuard::None
        } else {
            validated_guard(
                &system,
                source,
                EdgeGuard::ScalarRelayStopUp { comp: in_relay },
            )
        },
        if mutant_after {
            EdgeGuard::None
        } else if let Some(comp) = last_after_relay {
            validated_guard(&system, sink, EdgeGuard::ScalarRelayMainEmpty { comp })
        } else {
            validated_guard(
                &system,
                sink,
                EdgeGuard::WrapperOutEmpty {
                    comp: wrapper,
                    n_in: 1,
                },
            )
        },
    ];
    let initial = system.save_lane(0);
    ClosedConfig {
        name: name.to_string(),
        lanes: 1,
        system,
        edges: vec![
            Edge {
                name: "src".into(),
                mask: src_stall,
            },
            Edge {
                name: "sink".into(),
                mask: sink_stall,
            },
        ],
        lane_violations: vec![violations],
        delivered: Delivered::Scalar(delivered),
        streams: vec![Stream {
            source,
            sink,
            capacity: path_capacity(relays),
        }],
        probes,
        initial,
        free_run_horizon: 64,
        plan: ReductionPlan {
            guards,
            symmetry: None,
        },
    }
}

/// Builds the symmetric scalar join configuration: two *identical*
/// adversary branches — source → one relay station → the 2-input
/// behavioural SP wrapper around a join pearl — plus one adversary
/// sink. Because the branches are structurally interchangeable (same
/// relay depth, same stream capacity, and a join schedule that reads
/// both ports in the same step), the configuration carries a
/// [`BranchSwap`] symmetry folding mirror-image states into one orbit
/// representative, on top of POR guards on all three edges. The
/// power-up state is asserted to be a fixed point of the swap, so the
/// canonical orbit of the initial state is itself.
pub fn scalar_spj(name: &str) -> ClosedConfig {
    let mut system = checker_system();
    let violations = ViolationCounter::new();
    let wrapper = system.component_count();
    let pearl = JoinPearl::new("join", 2, 1, &violations);
    let schedule = pearl.schedule().clone();
    let (ins, outs, _stats) = wrap_pearl(
        &mut system,
        "spj",
        Box::new(pearl),
        Box::new(SpPolicy::from_schedule(&schedule)),
        &violations,
    );

    let mut probes = vec![
        Probe::Scalar(ins[0]),
        Probe::Scalar(ins[1]),
        Probe::Scalar(outs[0]),
    ];
    let mut edges = Vec::new();
    let mut guard_specs = Vec::new();
    let mut branch_comps = Vec::new();
    let mut streams = Vec::new();
    for (branch, &wrapper_in) in ins.iter().enumerate().take(2) {
        let src_ch = LisChannel::new(&mut system, &format!("adv_src{branch}"), 32);
        probes.push(Probe::Scalar(src_ch));
        let stall = Arc::new(AtomicU64::new(0));
        let source = system.component_count();
        system.add_component(SeqSource::new(
            format!("src{branch}"),
            src_ch,
            StallControl::External(Arc::clone(&stall)),
            MODULUS,
        ));
        let relay = system.component_count();
        system.add_component(RelayStation::new(
            format!("rb{branch}"),
            src_ch,
            wrapper_in,
            violations.clone(),
        ));
        edges.push(Edge {
            name: format!("src{branch}"),
            mask: stall,
        });
        guard_specs.push((source, EdgeGuard::ScalarRelayStopUp { comp: relay }));
        branch_comps.push((source, relay));
        streams.push(Stream {
            source,
            sink: usize::MAX, // patched below once the sink exists
            capacity: path_capacity(1),
        });
    }
    let sink_stall = Arc::new(AtomicU64::new(0));
    let sink = system.component_count();
    let snk = SeqSink::new(
        "snk",
        outs[0],
        StallControl::External(Arc::clone(&sink_stall)),
        MODULUS,
        &violations,
    );
    let delivered = snk.delivered();
    system.add_component(snk);
    edges.push(Edge {
        name: "sink".into(),
        mask: sink_stall,
    });
    guard_specs.push((
        sink,
        EdgeGuard::WrapperOutEmpty {
            comp: wrapper,
            n_in: 2,
        },
    ));
    for s in &mut streams {
        s.sink = sink;
    }

    let guards = guard_specs
        .into_iter()
        .map(|(adversary, guard)| validated_guard(&system, adversary, guard))
        .collect();
    let symmetry = BranchSwap {
        comp_swaps: vec![
            (branch_comps[0].0, branch_comps[1].0),
            (branch_comps[0].1, branch_comps[1].1),
        ],
        wrapper,
        n_in: 2,
        n_out: 1,
        ports: (0, 1),
    };
    let initial = system.save_lane(0);
    assert_eq!(
        symmetry.mirror(&initial),
        initial,
        "the power-up state must be a fixed point of the branch swap"
    );
    ClosedConfig {
        name: name.to_string(),
        lanes: 1,
        system,
        edges,
        lane_violations: vec![violations],
        delivered: Delivered::Scalar(delivered),
        streams,
        probes,
        initial,
        free_run_horizon: 64,
        plan: ReductionPlan {
            guards,
            symmetry: Some(symmetry),
        },
    }
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
///   branch-swap symmetry ([`scalar_spj`]).
/// * `sp1-scalar` / `sp2-scalar` — behavioural single-lane twins.
/// * `mut-drop` / `mut-dup` / `mut-stuck` — a [`MutantRelay`] on the
///   SP's output edge with the corresponding [`RelayBug`].
/// * `mut-eager` — the correct topology with the [`EagerPolicy`] SP.
pub fn build_config(name: &str) -> Option<ClosedConfig> {
    Some(match name {
        "sp1" => packed_sp("sp1", 1, 0),
        "sp2" => packed_sp("sp2", 1, 1),
        "spj" => packed_spj("spj"),
        "spj-sym" => scalar_spj("spj-sym"),
        "sp1-scalar" => scalar_sp("sp1-scalar", 0, None),
        "sp2-scalar" => scalar_sp("sp2-scalar", 1, None),
        "mut-drop" => scalar_sp(
            "mut-drop",
            0,
            Some(Mutant::Relay(RelayBug::DropOnDoubleStall)),
        ),
        "mut-dup" => scalar_sp(
            "mut-dup",
            0,
            Some(Mutant::Relay(RelayBug::DuplicateOnRestart)),
        ),
        "mut-stuck" => scalar_sp("mut-stuck", 0, Some(Mutant::Relay(RelayBug::StuckStop))),
        "mut-eager" => scalar_sp("mut-eager", 0, Some(Mutant::Eager)),
        _ => return None,
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
        for name in CORRECT_CONFIGS.iter().chain(MUTANT_CONFIGS) {
            let cfg = build_config(name).expect("registered config builds");
            assert_eq!(cfg.name(), *name);
        }
        assert!(build_config("nope").is_none());
    }

    #[test]
    fn scalar_config_streams_cleanly_when_unstalled() {
        let mut cfg = scalar_sp("sp1-scalar", 0, None);
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
        let mut cfg = packed_sp("sp1", 1, 0);
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
        let mut cfg = packed_sp("sp1", 1, 0);
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
        let cfg = scalar_sp("sp1-scalar", 0, None);
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
