//! The bounded reachability explorer.
//!
//! From a [`ClosedConfig`]'s power-up state, the explorer walks the
//! tree of adversary decisions breadth-first: each cycle every
//! controlled edge independently stalls or flows, so a state has
//! `2^edges` successors. Three mechanisms keep the walk tractable:
//!
//! * **Deduplication** — states are fingerprinted by a 128-bit hash of
//!   their dense lane snapshot ([`lis_sim::hash_words128`]), which
//!   collapses the exponential decision tree into the reachable state
//!   graph. On a packed configuration the 64 SIMD lanes of the
//!   underlying engine expand 64 pending `(state, choice)` jobs per
//!   settle/tick pass.
//! * **Reduction** — the configuration's [`ReductionPlan`] prunes
//!   stall choices that are provably inert in the current state
//!   (census-preserving partial-order reduction) and hashes the
//!   canonical orbit representative under the configuration's branch
//!   symmetry, if it has one ([`crate::reduce`]).
//! * **Parallel frontier expansion** — [`explore_pool`] shards each
//!   BFS level across configuration *twins*, each owned by one
//!   [`map_with`] worker (the first on the caller's thread). Jobs are
//!   batched exactly as in the single-threaded walk and merged
//!   single-threaded in job order, so census, verdicts, and
//!   counterexamples are bit-identical at any twin count.
//!
//! Every transition is checked against three safety invariants —
//! sequencing (the sink's order counter), conservation (the KPN ledger
//! `(source seq − sink expect) mod 64 ≤ capacity`), signalling
//! legality (`void ⇒ data == 0` on every probed channel at the settled
//! cycle) — and every *new* state against one liveness invariant:
//! some stall-free continuation must deliver a token within the
//! config's free-run horizon (deadlock freedom). A violation becomes a
//! [`Counterexample`], greedily minimized by clearing stall bits that
//! are not needed to reproduce it.

use crate::config::ClosedConfig;
use crate::counterexample::Counterexample;
use crate::reduce::ReductionPlan;
use lis_sim::map_with;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Cap on fully recorded counterexamples per report (the total count
/// keeps counting past it — a mutant config can violate on a large
/// fraction of its transitions).
const MAX_RECORDED: usize = 8;

/// Explorer knobs.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Adversary-decision depth bound (cycles from reset).
    pub depth: u32,
    /// Stop at the first violation instead of completing the depth
    /// (the mutant-catching mode).
    pub stop_at_first_violation: bool,
    /// Hard cap on discovered states; exploration is marked truncated
    /// beyond it.
    pub max_states: u64,
    /// Greedily minimize recorded counterexamples.
    pub minimize: bool,
    /// Apply the configuration's partial-order guards (census- and
    /// counterexample-preserving; off = unreduced reference mode).
    pub por: bool,
    /// Fold states through the configuration's branch symmetry before
    /// dedup (verdict-preserving; off = unreduced reference mode).
    pub symmetry: bool,
    /// Memory guard: cap, in 64-bit words, on the retained exploration
    /// arena (frontier, liveness queue, dedup set, back-pointers). An
    /// exploration that outgrows it panics loudly with the depth
    /// reached instead of getting OOM-killed. Default 2^28 words
    /// (2 GiB).
    pub max_retained_words: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            depth: 12,
            stop_at_first_violation: false,
            max_states: 2_000_000,
            minimize: true,
            por: true,
            symmetry: true,
            max_retained_words: 1 << 28,
        }
    }
}

/// What a bounded exploration saw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreReport {
    /// Configuration name.
    pub config: String,
    /// Depth bound the run used.
    pub depth: u32,
    /// Controlled edges, stall-mask bit order.
    pub edges: Vec<String>,
    /// Unique states discovered (including the initial state).
    pub states: u64,
    /// Transitions executed (`state × choice` expansions).
    pub transitions: u64,
    /// Transitions that landed on an already-known state.
    pub dedup_hits: u64,
    /// Transitions skipped because a partial-order guard proved the
    /// stall choice inert. For a clean run, the unreduced walk of the
    /// same census executes exactly `transitions + por_pruned`
    /// transitions.
    pub por_pruned: u64,
    /// Executed transitions whose successor was folded through the
    /// branch symmetry to its mirror-image orbit representative.
    pub sym_folds: u64,
    /// States liveness-checked against the free-run horizon.
    pub deadlock_checks: u64,
    /// Total violating transitions/states observed.
    pub total_violations: u64,
    /// Whether the state cap truncated the search.
    pub truncated: bool,
    /// Recorded (and optionally minimized) counterexamples, capped at
    /// `MAX_RECORDED` (the total count keeps counting past the cap).
    pub counterexamples: Vec<Counterexample>,
}

/// Back-pointer record: how state `i` was first reached.
struct Rec {
    parent: u32,
    choice: u8,
}

/// One executed `(state, choice)` expansion, as handed back by a
/// worker for the deterministic merge.
struct JobOut {
    parent: u32,
    choice: u8,
    fault: Option<(&'static str, String)>,
    words: Vec<u64>,
    key: u128,
    folded: bool,
}

/// Reconstructs the root→`id` choice schedule from the back-pointers.
fn schedule_to(recs: &[Rec], mut id: u32) -> Vec<u64> {
    let mut rev = Vec::new();
    while id != 0 {
        rev.push(u64::from(recs[id as usize].choice));
        id = recs[id as usize].parent;
    }
    rev.reverse();
    rev
}

/// Lanes `chunk_len..lanes` as a stall mask (idle lanes of a partially
/// filled batch are frozen by stalling every edge).
fn idle_mask(chunk_len: usize) -> u64 {
    if chunk_len >= 64 {
        0
    } else {
        !0u64 << chunk_len
    }
}

/// Runs the bounded exploration of `cfg` single-threaded (one worker
/// driving the one system). Equivalent to [`explore_pool`] on a
/// one-element slice — and bit-identical to it at any twin count.
pub fn explore(cfg: &mut ClosedConfig, opts: &ExploreOptions) -> ExploreReport {
    explore_pool(std::slice::from_mut(cfg), opts)
}

/// Executes one batch of up to `lanes` `(frontier index, choice)` jobs
/// on a worker's configuration twin, returning per-job outcomes for
/// the merge. Lanes beyond the batch are frozen by stalling every
/// edge; each loaded lane's outcome depends only on its own state and
/// choice, which is what makes the parallel walk deterministic.
fn run_batch(
    cfg: &mut ClosedConfig,
    frontier: &[(u32, Vec<u64>)],
    chunk: &[(usize, u8)],
    n_edges: usize,
    plan: &ReductionPlan,
) -> Vec<JobOut> {
    let parents: Vec<&[u64]> = chunk.iter().map(|&(fi, _)| &frontier[fi].1[..]).collect();
    cfg.load_lanes(0, &parents);
    let idle = idle_mask(chunk.len());
    for e in 0..n_edges {
        let mut mask = idle;
        for (k, &(_, choice)) in chunk.iter().enumerate() {
            if choice >> e & 1 == 1 {
                mask |= 1 << k;
            }
        }
        cfg.set_stall(e, mask);
    }
    let before: Vec<u64> = (0..chunk.len()).map(|k| cfg.violations(k)).collect();
    cfg.settle();
    let bad_signals = cfg.signal_bad_mask();
    cfg.step();
    // A successor is about as long as its parent: reserving the
    // chunk's longest parent spares every snapshot its regrowth.
    let words = parents.iter().map(|p| p.len()).max().unwrap_or(0);
    let mut successors: Vec<Vec<u64>> = (0..chunk.len())
        .map(|_| Vec::with_capacity(words))
        .collect();
    cfg.save_lanes(0, &mut successors);
    chunk
        .iter()
        .zip(successors)
        .enumerate()
        .map(|(k, (&(fi, choice), words))| {
            let fault: Option<(&'static str, String)> = if bad_signals >> k & 1 == 1 {
                Some((
                    "signalling",
                    "a void channel carried non-zero data at the settled cycle".into(),
                ))
            } else if cfg.violations(k) > before[k] {
                Some((
                    "sequencing",
                    format!(
                        "{} component-checked fault(s) in one transition \
                         (sink order, relay overflow, or wrapper fault)",
                        cfg.violations(k) - before[k]
                    ),
                ))
            } else {
                cfg.ledger_violation(&words).map(|d| ("conservation", d))
            };
            let (key, folded) = if fault.is_none() {
                plan.canonical_key(&words)
            } else {
                (0, false)
            };
            JobOut {
                parent: frontier[fi].0,
                choice,
                fault,
                words,
                key,
                folded,
            }
        })
        .collect()
}

/// Runs the bounded exploration of `cfgs[0]`, sharding each BFS level
/// across all the configuration twins in `cfgs` (which must be
/// independently built copies of the *same* configuration), each twin
/// owned by one [`map_with`] worker. One twin runs entirely on the
/// caller's thread.
///
/// Jobs are batched into lane-sized chunks exactly as in the
/// single-threaded walk, executed speculatively across the twins, and
/// merged single-threaded in job order — so the report (census,
/// verdicts, counterexamples, every counter except nothing) is
/// bit-identical whatever `cfgs.len()` is.
///
/// # Panics
///
/// Panics when the twins disagree on the configuration, or when the
/// retained arena outgrows [`ExploreOptions::max_retained_words`]
/// (the memory guard).
pub fn explore_pool(cfgs: &mut [ClosedConfig], opts: &ExploreOptions) -> ExploreReport {
    assert!(!cfgs.is_empty(), "need at least one configuration twin");
    let n_edges = cfgs[0].edge_count();
    let branch: u32 = 1 << n_edges;
    let lanes = cfgs[0].lanes();
    let horizon = cfgs[0].free_run_horizon();
    let initial = cfgs[0].initial_state();
    let plan = ReductionPlan::of(&cfgs[0], opts.por, opts.symmetry);
    assert!(
        plan.guards.is_empty() || plan.guards.len() == n_edges,
        "one POR guard per edge"
    );
    for cfg in cfgs.iter().skip(1) {
        assert_eq!(
            cfg.name(),
            cfgs[0].name(),
            "twins must build the same configuration"
        );
        assert_eq!(cfg.initial_state(), initial, "twins must power up alike");
    }

    let mut seen: HashSet<u128> = HashSet::new();
    seen.insert(plan.canonical_key(&initial).0);
    let mut recs: Vec<Rec> = vec![Rec {
        parent: u32::MAX,
        choice: 0,
    }];
    let mut report = ExploreReport {
        config: cfgs[0].name().to_string(),
        depth: opts.depth,
        edges: cfgs[0].edge_names(),
        states: 1,
        transitions: 0,
        dedup_hits: 0,
        por_pruned: 0,
        sym_folds: 0,
        deadlock_checks: 0,
        total_violations: 0,
        truncated: false,
        counterexamples: Vec::new(),
    };

    let mut frontier: Vec<(u32, Vec<u64>)> = vec![(0, initial.clone())];
    // States awaiting the liveness check (drained level by level; the
    // check clobbers lanes, so it must not interleave with expansion).
    let mut pending: Vec<(u32, Vec<u64>)> = vec![(0, initial)];
    let mut stop = false;

    check_deadlocks(
        cfgs,
        lanes,
        n_edges,
        horizon,
        &mut pending,
        &recs,
        &mut report,
        opts,
        &mut stop,
    );

    for depth in 0..opts.depth {
        if stop || frontier.is_empty() {
            break;
        }
        let mut next: Vec<(u32, Vec<u64>)> = Vec::new();
        // Partial-order reduction: expand one representative per
        // commuting class — the choice with every inert bit at
        // "flow". The representative is numerically smallest in its
        // class, so it is also the first member job order would
        // reach: first-discovery back-pointers are unchanged.
        let mut jobs: Vec<(usize, u8)> = Vec::new();
        for (fi, (_, words)) in frontier.iter().enumerate() {
            let inert = plan.inert_mask(words);
            if inert == 0 {
                jobs.extend((0..branch).map(|c| (fi, c as u8)));
            } else {
                let kept = branch >> inert.count_ones();
                report.por_pruned += u64::from(branch - kept);
                jobs.extend(
                    (0..branch)
                        .filter(|&c| u64::from(c) & inert == 0)
                        .map(|c| (fi, c as u8)),
                );
            }
        }
        let chunks: Vec<&[(usize, u8)]> = jobs.chunks(lanes).collect();
        'level: for superchunk in chunks.chunks(cfgs.len() * 8) {
            // Each batch's outcome depends only on its own jobs, not
            // on which twin ran it.
            let batches = map_with(cfgs, superchunk.to_vec(), |cfg, chunk| {
                run_batch(cfg, &frontier, chunk, n_edges, &plan)
            });
            for batch in batches {
                for out in batch {
                    report.transitions += 1;
                    if let Some((kind, detail)) = out.fault {
                        report.total_violations += 1;
                        if report.counterexamples.len() < MAX_RECORDED {
                            let mut schedule = schedule_to(&recs, out.parent);
                            schedule.push(u64::from(out.choice));
                            report.counterexamples.push(Counterexample {
                                config: report.config.clone(),
                                kind: kind.to_string(),
                                edges: report.edges.clone(),
                                schedule,
                                free_run: 0,
                                detail,
                            });
                        }
                        if opts.stop_at_first_violation {
                            stop = true;
                            break 'level;
                        }
                        continue; // violating states are not expanded
                    }
                    if out.folded {
                        report.sym_folds += 1;
                    }
                    if seen.insert(out.key) {
                        let id = recs.len() as u32;
                        recs.push(Rec {
                            parent: out.parent,
                            choice: out.choice,
                        });
                        report.states += 1;
                        next.push((id, out.words.clone()));
                        pending.push((id, out.words));
                        if report.states >= opts.max_states {
                            report.truncated = true;
                            stop = true;
                            break 'level;
                        }
                    } else {
                        report.dedup_hits += 1;
                    }
                }
            }
        }
        // Memory guard: every word the exploration retains — the
        // next frontier, the liveness queue, the dedup fingerprints
        // (two words each), and the back-pointer arena.
        let retained: usize = next.iter().map(|(_, w)| w.len()).sum::<usize>()
            + pending.iter().map(|(_, w)| w.len()).sum::<usize>()
            + 2 * seen.len()
            + recs.len();
        assert!(
            retained <= opts.max_retained_words,
            "memory guard: {retained} retained words exceed the {}-word cap \
             after depth {} with {} states discovered — raise \
             max_retained_words or lower the depth bound",
            opts.max_retained_words,
            depth + 1,
            report.states,
        );
        check_deadlocks(
            cfgs,
            lanes,
            n_edges,
            horizon,
            &mut pending,
            &recs,
            &mut report,
            opts,
            &mut stop,
        );
        frontier = next;
    }

    if opts.minimize {
        let mut minimized = std::mem::take(&mut report.counterexamples);
        for cx in &mut minimized {
            minimize(&mut cfgs[0], cx);
        }
        report.counterexamples = minimized;
    }
    report
}

/// Liveness-checks every state in `pending`: with every edge stall-free
/// for the config's horizon, each lane's sink must deliver at least one
/// token. A lane that stays silent is a deadlocked state. Chunks run
/// speculatively across the twins; deadlock verdicts merge in chunk
/// order, so the records match the single-threaded walk exactly.
#[allow(clippy::too_many_arguments)]
fn check_deadlocks(
    cfgs: &mut [ClosedConfig],
    lanes: usize,
    n_edges: usize,
    horizon: u64,
    pending: &mut Vec<(u32, Vec<u64>)>,
    recs: &[Rec],
    report: &mut ExploreReport,
    opts: &ExploreOptions,
    stop: &mut bool,
) {
    if *stop || pending.is_empty() {
        pending.clear();
        return;
    }
    let free_run = |cfg: &mut ClosedConfig, chunk: &[(u32, Vec<u64>)]| -> u64 {
        let states: Vec<&[u64]> = chunk.iter().map(|(_, words)| &words[..]).collect();
        cfg.load_lanes(0, &states);
        let idle = idle_mask(chunk.len());
        for e in 0..n_edges {
            cfg.set_stall(e, idle);
        }
        let before: Vec<u64> = (0..chunk.len()).map(|k| cfg.delivered(k)).collect();
        let mut waiting: u64 = if chunk.len() >= 64 {
            !0
        } else {
            (1u64 << chunk.len()) - 1
        };
        for _ in 0..horizon {
            cfg.step();
            for (k, &base) in before.iter().enumerate() {
                if waiting >> k & 1 == 1 && cfg.delivered(k) > base {
                    waiting &= !(1 << k);
                }
            }
            if waiting == 0 {
                break;
            }
        }
        waiting
    };
    let waitings = map_with(cfgs, pending.chunks(lanes).collect(), free_run);
    for (chunk, waiting) in pending.chunks(lanes).zip(waitings) {
        if *stop {
            break;
        }
        report.deadlock_checks += chunk.len() as u64;
        for (k, &(id, _)) in chunk.iter().enumerate() {
            if waiting >> k & 1 == 1 {
                report.total_violations += 1;
                if report.counterexamples.len() < MAX_RECORDED {
                    report.counterexamples.push(Counterexample {
                        config: report.config.clone(),
                        kind: "deadlock".to_string(),
                        edges: report.edges.clone(),
                        schedule: schedule_to(recs, id),
                        free_run: horizon,
                        detail: format!("no token delivered within {horizon} stall-free cycles"),
                    });
                }
                if opts.stop_at_first_violation {
                    *stop = true;
                }
            }
        }
    }
    pending.clear();
}

/// Replays `schedule` (then `free_run` stall-free cycles) single-lane
/// on the checker configuration, returning the first violated invariant
/// as `(kind, detail)`.
///
/// Lane 0 carries the replay; on a packed configuration every other
/// lane is frozen by stalling all its edges, and only lane 0's deltas
/// are inspected.
pub fn replay_on_checker(
    cfg: &mut ClosedConfig,
    schedule: &[u64],
    free_run: u64,
) -> Option<(String, String)> {
    let initial = cfg.initial_state();
    cfg.load(0, &initial);
    let others = !1u64;
    for (cycle, &mask) in schedule.iter().enumerate() {
        for e in 0..cfg.edge_count() {
            cfg.set_stall(e, (mask >> e & 1) | others);
        }
        let before = cfg.violations(0);
        cfg.settle();
        let bad = cfg.signal_bad_mask() & 1 != 0;
        cfg.step();
        if bad {
            return Some((
                "signalling".into(),
                format!("void channel carried data at cycle {cycle}"),
            ));
        }
        if cfg.violations(0) > before {
            return Some((
                "sequencing".into(),
                format!("component-checked fault at cycle {cycle}"),
            ));
        }
        let words = cfg.save(0);
        if let Some(detail) = cfg.ledger_violation(&words) {
            return Some(("conservation".into(), detail));
        }
    }
    if free_run > 0 {
        for e in 0..cfg.edge_count() {
            cfg.set_stall(e, others);
        }
        let before = cfg.delivered(0);
        for _ in 0..free_run {
            cfg.step();
            if cfg.delivered(0) > before {
                return None;
            }
        }
        return Some((
            "deadlock".into(),
            format!("no token delivered within {free_run} stall-free cycles"),
        ));
    }
    None
}

/// Greedy counterexample minimization: clears each stall bit in turn
/// and keeps the clearing whenever the same kind of violation still
/// reproduces; then trims trailing stall-free cycles (deadlock
/// schedules only — an invariant violation always fires on the final
/// transition).
fn minimize(cfg: &mut ClosedConfig, cx: &mut Counterexample) {
    let reproduces = |cfg: &mut ClosedConfig, sched: &[u64]| {
        replay_on_checker(cfg, sched, cx.free_run).is_some_and(|(kind, _)| kind == cx.kind)
    };
    if !reproduces(cfg, &cx.schedule) {
        // A counterexample this function cannot reproduce single-lane is
        // left untouched rather than mangled.
        return;
    }
    let mut sched = cx.schedule.clone();
    for cycle in 0..sched.len() {
        for e in 0..cx.edges.len() {
            let bit = 1u64 << e;
            if sched[cycle] & bit != 0 {
                sched[cycle] &= !bit;
                if !reproduces(cfg, &sched) {
                    sched[cycle] |= bit;
                }
            }
        }
    }
    while sched.last() == Some(&0) {
        let popped = sched.pop().unwrap();
        if !reproduces(cfg, &sched) {
            sched.push(popped);
            break;
        }
    }
    cx.schedule = sched;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{scalar_sp, scalar_spj};

    #[test]
    fn scalar_exploration_of_the_correct_wrapper_is_clean() {
        let mut cfg = scalar_sp("sp1-scalar", 0, None);
        let report = explore(
            &mut cfg,
            &ExploreOptions {
                depth: 6,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(report.total_violations, 0, "{:#?}", report.counterexamples);
        assert!(report.states > 20, "six levels must fan out: {report:?}");
        assert_eq!(
            report.transitions,
            report.dedup_hits + report.states - 1,
            "every transition either discovers or rediscovers"
        );
        assert!(!report.truncated);
    }

    #[test]
    fn exploration_is_deterministic() {
        let opts = ExploreOptions {
            depth: 5,
            ..ExploreOptions::default()
        };
        let a = explore(&mut scalar_sp("sp1-scalar", 0, None), &opts);
        let b = explore(&mut scalar_sp("sp1-scalar", 0, None), &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_twins_report_bit_identically() {
        let opts = ExploreOptions {
            depth: 5,
            ..ExploreOptions::default()
        };
        let single = explore(&mut scalar_sp("sp1-scalar", 0, None), &opts);
        let mut twins: Vec<_> = (0..3).map(|_| scalar_sp("sp1-scalar", 0, None)).collect();
        let pooled = explore_pool(&mut twins, &opts);
        assert_eq!(single, pooled);
    }

    #[test]
    fn partial_order_reduction_preserves_the_census() {
        let reduced = explore(
            &mut scalar_sp("sp1-scalar", 0, None),
            &ExploreOptions {
                depth: 6,
                ..ExploreOptions::default()
            },
        );
        let unreduced = explore(
            &mut scalar_sp("sp1-scalar", 0, None),
            &ExploreOptions {
                depth: 6,
                por: false,
                symmetry: false,
                ..ExploreOptions::default()
            },
        );
        assert!(reduced.por_pruned > 0, "guards must fire: {reduced:?}");
        assert_eq!(reduced.states, unreduced.states, "census is preserved");
        assert_eq!(reduced.deadlock_checks, unreduced.deadlock_checks);
        assert_eq!(
            reduced.transitions + reduced.por_pruned,
            unreduced.transitions,
            "pruning accounts for every skipped transition"
        );
    }

    #[test]
    fn symmetry_folds_mirror_states() {
        let report = explore(
            &mut scalar_spj("spj-sym"),
            &ExploreOptions {
                depth: 4,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(report.total_violations, 0, "{:#?}", report.counterexamples);
        assert!(report.sym_folds > 0, "mirror states must fold: {report:?}");
    }

    #[test]
    #[should_panic(expected = "memory guard")]
    fn memory_guard_fails_loudly_with_the_depth_reached() {
        let mut cfg = scalar_sp("sp1-scalar", 0, None);
        explore(
            &mut cfg,
            &ExploreOptions {
                depth: 4,
                max_retained_words: 64,
                ..ExploreOptions::default()
            },
        );
    }

    #[test]
    fn replay_on_checker_matches_exploration_verdict() {
        let mut cfg = scalar_sp("sp1-scalar", 0, None);
        // An arbitrary clean schedule replays clean...
        assert_eq!(replay_on_checker(&mut cfg, &[1, 3, 2, 0, 3], 0), None);
        // ...and the free-run probe sees progress (no deadlock).
        assert_eq!(replay_on_checker(&mut cfg, &[3, 3, 3], 64), None);
    }
}
