//! Property tests pinning the activity kernel to the full-sweep
//! reference settle, cycle for cycle over every signal.
//!
//! Random component networks — mixing-function DAGs in shuffled
//! insertion order, self-latching components (combinational self-loops
//! with a stable fixpoint), contracting two-component cycles, and
//! saturating components that *go quiescent* mid-run, and periodic
//! pulse generators that *sleep* between scheduled events — are stepped
//! under random per-cycle stimulus once per engine: the
//! [`SettleMode::FullSweep`] reference and the activity kernel
//! ([`SettleMode::FastForward`]), stepped cycle by cycle and jumping
//! dead spans. Every signal must match after every
//! cycle — for the jumping run, after every *visited* cycle (jump
//! boundary), with the stepped systems walked to the same cycle number
//! before comparing.

use lis_sim::{Activity, Component, Ports, SettleMode, SignalId, SignalView, System};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A deterministic mixing component: every written signal is a hash of
/// the declared reads and the internal register; `tick` folds one read
/// into the register. Pure for fixed inputs, so eval is idempotent.
#[derive(Clone)]
struct MixComp {
    name: String,
    reads: Vec<SignalId>,
    writes: Vec<SignalId>,
    salt: u64,
    reg: u64,
}

fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = h.rotate_left(23).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h
}

impl Component for MixComp {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new(self.reads.clone(), self.writes.clone())
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let mut h = mix(self.salt, self.reg);
        for &r in &self.reads {
            h = mix(h, sigs.get(r));
        }
        for (i, &w) in self.writes.iter().enumerate() {
            sigs.set(w, mix(h, i as u64));
        }
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let sampled = self.reads.first().map_or(0, |&r| sigs.get(r));
        let next = mix(self.reg, sampled);
        let changed = next != self.reg;
        self.reg = next;
        Activity::from_changed(changed)
    }
}

/// A self-latching component: bits selected by `mask` hold their own
/// previous value (a combinational self-loop with a stable fixpoint),
/// the rest follow the input. Converges in one extra evaluation.
#[derive(Clone)]
struct LatchComp {
    name: String,
    input: SignalId,
    out: SignalId,
    mask: u64,
}

impl Component for LatchComp {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.input, self.out], [self.out])
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let own = sigs.get(self.out);
        let x = sigs.get(self.input);
        sigs.set(self.out, (own & self.mask) | (x & !self.mask));
    }

    fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
        Activity::Quiescent
    }
}

/// One half of a contracting two-component combinational cycle:
/// `out = peer & mask`. With the same mask on both halves the pair
/// reaches its fixpoint within two worklist rounds.
#[derive(Clone)]
struct AndComp {
    name: String,
    peer: SignalId,
    out: SignalId,
    mask: u64,
}

impl Component for AndComp {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.peer], [self.out])
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        let v = sigs.get(self.peer);
        sigs.set(self.out, v & self.mask);
    }

    fn tick(&mut self, _sigs: &SignalView<'_>) -> Activity {
        Activity::Quiescent
    }
}

/// A saturating accumulator: `reg' = min(reg | input, cap-pattern)`.
/// Once the register saturates it honestly reports quiescence — the
/// component the activity-driven kernel should stop simulating until
/// its input signal changes again.
#[derive(Clone)]
struct SaturComp {
    name: String,
    input: SignalId,
    out: SignalId,
    cap: u64,
    reg: u64,
}

impl Component for SaturComp {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.input], [self.out])
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        sigs.set(self.out, self.reg);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        let next = (self.reg | sigs.get(self.input)) & self.cap;
        let changed = next != self.reg;
        self.reg = next;
        Activity::from_changed(changed)
    }
}

/// A scheduled pulse generator: every `period` cycles it folds its salt
/// into a register and publishes it; in between it has nothing to do and
/// says so with [`Activity::Sleep`] — the component the event wheel
/// exists for. Phase is derived from the view's cycle counter, never
/// from counted invocations, so skipped cycles cannot desynchronize it.
#[derive(Clone)]
struct PulseComp {
    name: String,
    out: SignalId,
    period: u64,
    salt: u64,
    reg: u64,
}

impl Component for PulseComp {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }

    fn eval(&mut self, sigs: &mut SignalView<'_>) {
        sigs.set(self.out, self.reg);
    }

    fn tick(&mut self, sigs: &SignalView<'_>) -> Activity {
        if sigs.cycle() % self.period == 0 {
            self.reg = mix(self.reg, self.salt);
            // The register changed: stay awake one cycle so the next
            // eval publishes it.
            Activity::Active
        } else {
            Activity::Sleep(self.period - sigs.cycle() % self.period)
        }
    }
}

/// The full network spec, buildable any number of times.
struct Net {
    n_inputs: usize,
    pulsers: Vec<(u64, u64)>,                   // period, salt
    mixers: Vec<(Vec<usize>, Vec<usize>, u64)>, // read idxs, write idxs, salt
    latches: Vec<(usize, u64)>,                 // input idx, mask
    and_pairs: Vec<(u64,)>,                     // shared mask
    saturs: Vec<(usize, u64)>,                  // input idx, cap mask
    insertion: Vec<usize>,                      // shuffled component order
    total_signals: usize,
}

/// Generates a random network: input signals, sleeping pulse generators
/// (whose outputs join the readable pool), a rank-ordered mixer DAG
/// (reads only come from lower ranks, every signal has one writer),
/// plus latches, contracting cycle pairs and saturating accumulators,
/// in shuffled insertion order.
fn random_net(
    seed: u64,
    n_inputs: usize,
    n_mixers: usize,
    n_latches: usize,
    n_pairs: usize,
    n_saturs: usize,
    n_pulsers: usize,
) -> Net {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut below = move |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
    let mut readable: Vec<usize> = (0..n_inputs).collect();
    let mut next_signal = n_inputs;
    let pulsers: Vec<(u64, u64)> = (0..n_pulsers)
        .map(|_| {
            readable.push(next_signal);
            next_signal += 1;
            // Periods >= 3 leave real sleep spans between events.
            (3 + below(9) as u64, below(usize::MAX) as u64)
        })
        .collect();
    let mut mixers = Vec::new();
    for _ in 0..n_mixers {
        let n_reads = 1 + below(3.min(readable.len()));
        let reads: Vec<usize> = (0..n_reads)
            .map(|_| readable[below(readable.len())])
            .collect();
        let n_writes = 1 + below(2);
        let writes: Vec<usize> = (0..n_writes)
            .map(|_| {
                let s = next_signal;
                next_signal += 1;
                s
            })
            .collect();
        readable.extend(writes.iter().copied());
        mixers.push((reads, writes, below(usize::MAX) as u64));
    }
    let latches: Vec<(usize, u64)> = (0..n_latches)
        .map(|_| {
            let input = readable[below(readable.len())];
            next_signal += 1;
            (input, below(usize::MAX) as u64)
        })
        .collect();
    let and_pairs: Vec<(u64,)> = (0..n_pairs)
        .map(|_| {
            next_signal += 2;
            (below(usize::MAX) as u64,)
        })
        .collect();
    let saturs: Vec<(usize, u64)> = (0..n_saturs)
        .map(|_| {
            let input = readable[below(readable.len())];
            next_signal += 1;
            // Narrow caps saturate quickly: the component goes genuinely
            // quiescent within a few cycles.
            (input, below(usize::MAX) as u64 & 0xFF)
        })
        .collect();
    // Shuffled insertion order over all components.
    let n_comps = n_mixers + n_latches + 2 * n_pairs + n_saturs + n_pulsers;
    let mut insertion: Vec<usize> = (0..n_comps).collect();
    for i in (1..insertion.len()).rev() {
        insertion.swap(i, below(i + 1));
    }
    Net {
        n_inputs,
        pulsers,
        mixers,
        latches,
        and_pairs,
        saturs,
        insertion,
        total_signals: next_signal,
    }
}

/// Instantiates the network in one `System`, honoring the shuffled
/// insertion order. Returns the input signal ids.
fn build(net: &Net, mode: SettleMode) -> (System, Vec<SignalId>) {
    let mut sys = System::new();
    sys.set_settle_mode(mode);
    let ids: Vec<SignalId> = (0..net.total_signals)
        .map(|i| sys.add_signal(format!("s{i}"), 64))
        .collect();
    let inputs: Vec<SignalId> = ids[..net.n_inputs].to_vec();

    // Signal layout: inputs, then one output per pulser, then mixer
    // writes (allocated in spec order), then one output per latch, then
    // two per pair, then one per saturator.
    let mut latch_base = net.n_inputs + net.pulsers.len();
    for (_, writes, _) in &net.mixers {
        latch_base += writes.len();
    }
    let pair_base = latch_base + net.latches.len();
    let satur_base = pair_base + 2 * net.and_pairs.len();

    enum Built {
        M(MixComp),
        L(LatchComp),
        A(AndComp),
        S(SaturComp),
        P(PulseComp),
    }
    let mut comps: Vec<Built> = Vec::new();
    for (k, (period, salt)) in net.pulsers.iter().enumerate() {
        comps.push(Built::P(PulseComp {
            name: format!("pulse{k}"),
            out: ids[net.n_inputs + k],
            period: *period,
            salt: *salt,
            reg: 0,
        }));
    }
    for (k, (reads, writes, salt)) in net.mixers.iter().enumerate() {
        comps.push(Built::M(MixComp {
            name: format!("mix{k}"),
            reads: reads.iter().map(|&i| ids[i]).collect(),
            writes: writes.iter().map(|&i| ids[i]).collect(),
            salt: *salt,
            reg: 0,
        }));
    }
    for (k, (input, mask)) in net.latches.iter().enumerate() {
        comps.push(Built::L(LatchComp {
            name: format!("latch{k}"),
            input: ids[*input],
            out: ids[latch_base + k],
            mask: *mask,
        }));
    }
    for (k, (mask,)) in net.and_pairs.iter().enumerate() {
        let a = ids[pair_base + 2 * k];
        let b = ids[pair_base + 2 * k + 1];
        comps.push(Built::A(AndComp {
            name: format!("pair{k}a"),
            peer: b,
            out: a,
            mask: *mask,
        }));
        comps.push(Built::A(AndComp {
            name: format!("pair{k}b"),
            peer: a,
            out: b,
            mask: *mask,
        }));
    }
    for (k, (input, cap)) in net.saturs.iter().enumerate() {
        comps.push(Built::S(SaturComp {
            name: format!("satur{k}"),
            input: ids[*input],
            out: ids[satur_base + k],
            cap: *cap,
            reg: 0,
        }));
    }
    let mut slots: Vec<Option<Built>> = comps.into_iter().map(Some).collect();
    for &i in &net.insertion {
        match slots[i].take().expect("each component inserted once") {
            Built::M(c) => sys.add_component(c),
            Built::L(c) => sys.add_component(c),
            Built::A(c) => sys.add_component(c),
            Built::S(c) => sys.add_component(c),
            Built::P(c) => sys.add_component(c),
        }
    }
    (sys, inputs)
}

proptest! {
    /// The activity kernel — persistent dirty set, skipped groups,
    /// selective ticks — matches the full sweep on every signal after
    /// every cycle, including networks with components that genuinely
    /// quiesce mid-run.
    #[test]
    fn fast_forward_matches_full_sweep(
        seed in any::<u64>(),
        n_inputs in 1usize..4,
        n_mixers in 1usize..14,
        n_latches in 0usize..3,
        n_pairs in 0usize..3,
        n_saturs in 0usize..4,
        n_pulsers in 0usize..3,
        cycles in 1usize..14,
    ) {
        let net = random_net(seed, n_inputs, n_mixers, n_latches, n_pairs, n_saturs, n_pulsers);
        let (mut full, full_in) = build(&net, SettleMode::FullSweep);
        let (mut activity, act_in) = build(&net, SettleMode::FastForward);
        let mut stim = StdRng::seed_from_u64(seed ^ 0xAC71_77E5);
        for cycle in 0..cycles {
            // Hold inputs constant on some cycles so quiescence actually
            // kicks in (fresh randoms would re-dirty everything).
            let hold = cycle % 3 == 2;
            for (&a, &b) in full_in.iter().zip(&act_in) {
                if !hold {
                    let v = stim.next_u64();
                    full.poke(a, v);
                    activity.poke(b, v);
                }
            }
            full.step().unwrap();
            activity.step().unwrap();
            // settle() after step so peeked values are the cycle's
            // settled outputs in both systems.
            full.settle().unwrap();
            activity.settle().unwrap();
            prop_assert_eq!(
                full.signal_values(),
                activity.signal_values(),
                "activity vs full-sweep divergence at cycle {}", cycle
            );
        }
    }

    /// `run`'s jumps match both the full sweep and a `step()`-only loop
    /// of the same kernel at every cycle the jumping run *visits* —
    /// after each step-or-jump the stepped systems are walked to the
    /// same cycle number and every signal compared. Nets mix sleeping
    /// pulse generators (real next-event declarations), saturating
    /// components and stateless combinational logic, with stimulus held
    /// between phases so whole-system quiescence actually occurs. At
    /// the end the executed-work counters must agree exactly: the
    /// jumping run evaluates the same groups and ticks the same
    /// components as the stepped one, it just never visits the dead
    /// cycles in between.
    #[test]
    fn fast_forward_matches_at_every_jump_boundary(
        seed in any::<u64>(),
        n_inputs in 1usize..3,
        n_latches in 0usize..3,
        n_pairs in 0usize..2,
        n_saturs in 0usize..4,
        n_pulsers in 1usize..4,
        phases in 2usize..5,
        span in 8u64..30,
    ) {
        let net = random_net(seed, n_inputs, 0, n_latches, n_pairs, n_saturs, n_pulsers);
        let (mut full, full_in) = build(&net, SettleMode::FullSweep);
        let (mut stepped, step_in) = build(&net, SettleMode::FastForward);
        let (mut ff, ff_in) = build(&net, SettleMode::FastForward);
        let mut stim = StdRng::seed_from_u64(seed ^ 0x00FA_57F0);
        for _ in 0..phases {
            for ((&a, &b), &c) in full_in.iter().zip(&step_in).zip(&ff_in) {
                let v = stim.next_u64();
                full.poke(a, v);
                stepped.poke(b, v);
                ff.poke(c, v);
            }
            let target = ff.cycle() + span;
            while ff.cycle() < target {
                ff.step().unwrap();
                ff.fast_forward(target);
                // Walk the reference systems to the cycle fast-forward
                // landed on; the skipped cycles must be no-ops for them.
                while full.cycle() < ff.cycle() {
                    full.step().unwrap();
                }
                while stepped.cycle() < ff.cycle() {
                    stepped.step().unwrap();
                }
                full.settle().unwrap();
                stepped.settle().unwrap();
                ff.settle().unwrap();
                prop_assert_eq!(
                    full.signal_values(),
                    ff.signal_values(),
                    "fast-forward vs full-sweep divergence at cycle {}",
                    ff.cycle()
                );
                prop_assert_eq!(
                    stepped.signal_values(),
                    ff.signal_values(),
                    "fast-forward vs stepped divergence at cycle {}",
                    ff.cycle()
                );
            }
        }
        let st = stepped.scheduler_stats();
        let fs = ff.scheduler_stats();
        prop_assert_eq!(
            (st.groups_evaluated, st.components_ticked),
            (fs.groups_evaluated, fs.components_ticked),
            "jumping must execute exactly the stepped kernel's work"
        );
        prop_assert_eq!(st.cycles_fast_forwarded, 0, "step() alone never jumps");
    }
}

/// Deterministic skip regression: once a saturating chain has settled
/// into quiescence under constant stimulus, the activity kernel must
/// actually skip — groups in the settle and components in the tick —
/// on every cycle it visits (`step()` alone visits every cycle).
#[test]
fn quiescent_chain_is_skipped_not_recomputed() {
    let mut sys = System::new();
    let input = sys.add_signal("in", 64);
    let mut prev = input;
    for k in 0..6 {
        let out = sys.add_signal(format!("s{k}"), 64);
        sys.add_component(SaturComp {
            name: format!("satur{k}"),
            input: prev,
            out,
            cap: 0xFF,
            reg: 0,
        });
        prev = out;
    }
    sys.poke(input, 0xAB);
    // Warm up until the chain saturates, then step quiescent cycles.
    for _ in 0..10 {
        sys.step().unwrap();
    }
    let warm = sys.scheduler_stats();
    for _ in 0..10 {
        sys.step().unwrap();
    }
    let done = sys.scheduler_stats();
    let evaluated = done.groups_evaluated - warm.groups_evaluated;
    let skipped = done.groups_skipped - warm.groups_skipped;
    let ticked = done.components_ticked - warm.components_ticked;
    let quiescent = done.components_quiescent - warm.components_quiescent;
    assert_eq!(evaluated, 0, "saturated chain must not re-evaluate");
    assert_eq!(ticked, 0, "saturated chain must not re-tick");
    assert!(skipped > 0, "{done:?}");
    assert_eq!(quiescent, 60, "6 components x 10 cycles all quiescent");
    // And the values are still the settled fixpoint.
    assert_eq!(sys.peek(prev), 0xAB);
}
