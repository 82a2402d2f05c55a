//! State-space reductions for the bounded explorer: partial-order
//! reduction over provably inert stall choices, and symmetry reduction
//! over interchangeable source branches.
//!
//! Both reductions operate on the dense lane-state blobs produced by
//! [`lis_sim::System::save_lane`] — a length-prefixed component-blob
//! list — and are *plans*: plain data a [`crate::ClosedConfig`] builder
//! attaches at construction time, cheap to clone into every parallel
//! exploration worker, and evaluated without touching the simulated
//! system.
//!
//! # Partial-order reduction (inert-stall pruning)
//!
//! In the synchronous closed configurations every adversary edge acts
//! every cycle, so the classical interleaving notion of commutation
//! does not apply directly. What does apply is a stronger, per-state
//! form: a stall choice on edge *e* is **inert** in state *s* when the
//! two successor states (stall vs. flow on *e*, everything else fixed)
//! are provably identical *and* observe identical invariant probes.
//! Then the `2^k` choices that differ only in inert bits form one
//! commuting class — all `k`-bit interleavings of the inert decisions
//! lead to the same place — and the explorer expands exactly one
//! representative (inert bits held at "flow"). Unlike classical POR
//! this pruning is census-preserving: the reachable state set, the
//! verdicts, and every counterexample are bit-identical to the
//! unreduced exploration; only `transitions`/`dedup_hits` shrink.
//!
//! Each [`EdgeGuard`] encodes one such proof, justified by the
//! component's registered-protocol semantics and validated at build
//! time against the one-step cone of influence the scheduler seals
//! ([`lis_sim::System::influence_cone`]): the guard is only sound if
//! the adversary's writes are observed by exactly the guarded
//! component.
//!
//! # Symmetry reduction
//!
//! A configuration with two structurally identical source branches
//! (same adversary, same relay depth, same stream capacity, feeding a
//! join pearl that reads both ports in the same schedule step) admits
//! an involution *g* on lane states: swap the branch-local component
//! blobs and the wrapper's per-port sub-state ([`BranchSwap`]). The
//! explorer hashes the lexicographic minimum of `{s, g(s)}` — the
//! canonical orbit representative — so mirror-image states collapse,
//! while the frontier keeps *concrete* states: counterexample
//! schedules replay unchanged, with no relabeling pass.

use crate::config::ClosedConfig;
use lis_sim::hash_words128;
use lis_wrappers::swap_patient_inputs;

/// A per-edge partial-order-reduction guard: the registered condition
/// under which the edge's stall choice provably cannot affect the
/// coming transition. Word offsets below index into the guarded
/// component's lane blob (`save_lanes_state`).
///
/// A relay station's lane blob is `[flags, main, aux]` at every lane
/// width, with the main-register, aux-register and stop flags in bits
/// 0, 1 and 2 of `flags`.
#[derive(Debug, Clone)]
pub enum EdgeGuard {
    /// No inertness proof for this edge.
    None,
    /// Source edge whose only one-step reader is the correct relay
    /// station at component `comp`. While the relay's registered stop
    /// (flag bit 2) is raised, the relay ignores the upstream token and
    /// the source — which samples the registered stop — holds its
    /// sequence either way; stalled sources present void with zeroed
    /// data, so the signalling probe is clean in both branches.
    RelayStopUp {
        /// Component index of the relay station.
        comp: usize,
    },
    /// Sink edge fed by the correct relay station at `comp`. While the
    /// relay's main register is empty (flag bit 0 clear) it presents
    /// void, so the sink can neither consume nor misorder, and the
    /// relay's own step ignores the stall when there is nothing to pop.
    RelayMainEmpty {
        /// Component index of the relay station.
        comp: usize,
    },
    /// Sink edge fed by the behavioural wrapper at `comp`. While the
    /// wrapper's first output queue is empty it presents `Void`, the
    /// queue-pop step is a no-op regardless of the sink's stop, and
    /// pearl firing and input delivery never read the output stop.
    WrapperOutEmpty {
        /// Component index of the [`lis_wrappers::PatientProcess`].
        comp: usize,
        /// The wrapper's input-port count (needed to locate the first
        /// output queue in its variable-length blob).
        n_in: usize,
    },
}

impl EdgeGuard {
    /// The component whose registered state the guard inspects, or
    /// `None` for [`EdgeGuard::None`].
    pub fn watched_component(&self) -> Option<usize> {
        match *self {
            EdgeGuard::None => None,
            EdgeGuard::RelayStopUp { comp }
            | EdgeGuard::RelayMainEmpty { comp }
            | EdgeGuard::WrapperOutEmpty { comp, .. } => Some(comp),
        }
    }

    /// Whether the guard holds (the edge is inert) in the lane state
    /// `words`, given the pre-computed component blob offsets.
    fn holds(&self, words: &[u64], offsets: &[usize]) -> bool {
        // A component's blob starts one word past its length prefix.
        let blob = |comp: usize| &words[offsets[comp] + 1..];
        match *self {
            EdgeGuard::None => false,
            EdgeGuard::RelayStopUp { comp } => blob(comp)[0] & 0b100 != 0,
            EdgeGuard::RelayMainEmpty { comp } => blob(comp)[0] & 0b001 == 0,
            EdgeGuard::WrapperOutEmpty { comp, n_in } => {
                // Wrapper blob: sched_step, then n_in length-prefixed
                // input queues, then the first output queue's length.
                let b = blob(comp);
                let mut at = 1usize;
                for _ in 0..n_in {
                    at += 1 + b[at] as usize;
                }
                b[at] == 0
            }
        }
    }
}

/// The symmetry generator of a configuration with two interchangeable
/// source branches: an involution on saved lane states built from
/// whole-blob component swaps plus a port-level splice of the shared
/// wrapper ([`swap_patient_inputs`]) and its join pearl's held values.
#[derive(Debug, Clone)]
pub struct BranchSwap {
    /// Component index pairs whose blobs swap wholesale (the two
    /// adversary sources, the two relay stations, pairwise).
    pub comp_swaps: Vec<(usize, usize)>,
    /// Component index of the behavioural wrapper whose input ports
    /// swap.
    pub wrapper: usize,
    /// The wrapper's input-port count.
    pub n_in: usize,
    /// The wrapper's output-port count.
    pub n_out: usize,
    /// The two input ports that exchange roles.
    pub ports: (usize, usize),
}

impl BranchSwap {
    /// Applies the involution to a saved lane state (computing the
    /// component offsets itself), returning the mirrored state.
    pub fn mirror(&self, words: &[u64]) -> Vec<u64> {
        self.apply(words, &component_offsets(words))
    }

    /// Applies the involution given pre-computed component offsets.
    fn apply(&self, words: &[u64], offsets: &[usize]) -> Vec<u64> {
        let n_comps = offsets.len();
        let end = |c: usize| {
            if c + 1 < n_comps {
                offsets[c + 1]
            } else {
                words.len()
            }
        };
        let mut target: Vec<usize> = (0..n_comps).collect();
        for &(i, j) in &self.comp_swaps {
            target.swap(i, j);
        }
        let mut out = Vec::with_capacity(words.len());
        for c in 0..n_comps {
            let src = target[c];
            if c == self.wrapper {
                let (a, b) = self.ports;
                let blob = &words[offsets[c] + 1..end(c)];
                let spliced = swap_patient_inputs(blob, self.n_in, self.n_out, a, b, |pearl| {
                    // JoinPearl blob: [step, n_held, held...]; the held
                    // values are per-input-port and follow the swap.
                    pearl.swap(2 + a, 2 + b);
                });
                out.push(spliced.len() as u64);
                out.extend_from_slice(&spliced);
            } else {
                out.extend_from_slice(&words[offsets[src]..end(src)]);
            }
        }
        out
    }
}

/// The reduction plan of a closed configuration: everything the
/// explorer needs to prune and canonicalize, detached from the
/// simulated system so parallel workers and the merge thread can share
/// it freely.
#[derive(Debug, Clone, Default)]
pub struct ReductionPlan {
    /// One guard per adversary edge, in stall-mask bit order (empty
    /// when the configuration declares no POR guards).
    pub guards: Vec<EdgeGuard>,
    /// The symmetry generator, if the configuration has one.
    pub symmetry: Option<BranchSwap>,
}

impl ReductionPlan {
    /// Extracts the reduction plan of `cfg`, with either reduction
    /// switched off on request (the unreduced-reference mode of the
    /// equivalence tests).
    pub fn of(cfg: &ClosedConfig, por: bool, symmetry: bool) -> ReductionPlan {
        let mut plan = cfg.reduction_plan();
        if !por {
            plan.guards.clear();
        }
        if !symmetry {
            plan.symmetry = None;
        }
        plan
    }

    /// The stall-mask bit set of edges provably inert in `words`: bit
    /// *e* is set when edge *e*'s guard holds, i.e. both of its stall
    /// choices lead to the identical successor. The explorer expands
    /// only choices whose inert bits are all zero.
    pub fn inert_mask(&self, words: &[u64]) -> u64 {
        if self.guards.iter().all(|g| matches!(g, EdgeGuard::None)) {
            return 0;
        }
        let offsets = component_offsets(words);
        let mut mask = 0u64;
        for (e, guard) in self.guards.iter().enumerate() {
            if guard.holds(words, &offsets) {
                mask |= 1 << e;
            }
        }
        mask
    }

    /// The dedup fingerprint of `words` under the plan's symmetry: the
    /// 128-bit hash of the lexicographically smaller of the state and
    /// its mirror (exact orbit canonicalization for a single
    /// involution). The second component reports whether the mirror
    /// won, i.e. the state was *not* its own canonical representative.
    pub fn canonical_key(&self, words: &[u64]) -> (u128, bool) {
        match &self.symmetry {
            None => (hash_words128(words), false),
            Some(sym) => {
                let offsets = component_offsets(words);
                let mirror = sym.apply(words, &offsets);
                if mirror.as_slice() < words {
                    (hash_words128(&mirror), true)
                } else {
                    (hash_words128(words), false)
                }
            }
        }
    }
}

/// Start offset (of the length prefix) of every component blob in a
/// length-prefixed lane state (see [`lis_sim::System::save_lane`]).
fn component_offsets(words: &[u64]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0usize;
    while at < words.len() {
        offsets.push(at);
        at += 1 + words[at] as usize;
    }
    assert_eq!(at, words.len(), "malformed length-prefixed lane state");
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_proto::{Lanes, LisChannel, PackedLisChannel, RelayStation, ViolationCounter};
    use lis_sim::System;

    #[test]
    fn component_offsets_walk_length_prefixes() {
        // Blobs: [2: a b] [0:] [1: c]
        let words = [2, 10, 11, 0, 1, 12];
        assert_eq!(component_offsets(&words), vec![0, 3, 4]);
    }

    /// The relay guards read the one lane blob `[flags, main, aux]` a
    /// relay station saves at either width: driven from empty to a held
    /// main register to a full station with stop raised.
    #[test]
    fn relay_guards_read_the_lane_blob_at_both_widths() {
        fn check<C: Lanes>() {
            let mut sys = System::new();
            let up = C::alloc(&mut sys, "up", 8);
            let down = C::alloc(&mut sys, "down", 8);
            let violations = ViolationCounter::new();
            sys.add_component(RelayStation::new(
                "rs",
                up.clone(),
                down.clone(),
                &violations,
            ));
            let plan = ReductionPlan {
                guards: vec![
                    EdgeGuard::RelayStopUp { comp: 0 },
                    EdgeGuard::RelayMainEmpty { comp: 0 },
                ],
                symmetry: None,
            };
            // Lane 0 offers token 7 every cycle to a stalled consumer.
            let mut token = up.register();
            C::deposit(&mut token, 0, 7);
            for (&sig, &word) in up.data_signals().iter().zip(token.as_ref()) {
                sys.poke(sig, word);
            }
            sys.poke(up.void_signal(), !1);
            sys.poke(down.stop_signal(), !0);
            let mut blobs = vec![sys.save_lane(0)];
            for _ in 0..2 {
                sys.step().unwrap();
                blobs.push(sys.save_lane(0));
            }
            assert_eq!(
                blobs,
                [vec![3, 0, 0, 0], vec![3, 0b001, 7, 0], vec![3, 0b111, 7, 7]]
            );
            let inert: Vec<u64> = blobs.iter().map(|b| plan.inert_mask(b)).collect();
            assert_eq!(inert, [0b10, 0b00, 0b01]);
            assert_eq!(violations.count(), 0);
        }
        check::<LisChannel>();
        check::<PackedLisChannel>();
    }

    #[test]
    fn canonical_key_folds_mirrors_and_fixes_palindromes() {
        // Two single-word components that swap; no wrapper involved —
        // point the wrapper at a third, empty-swap component.
        let sym = BranchSwap {
            comp_swaps: vec![(0, 1)],
            wrapper: 2,
            n_in: 1,
            n_out: 1,
            ports: (0, 0),
        };
        // Wrapper blob for n_in=1/n_out=1: step, in_q len, out_q len,
        // stop, policy len, pearl [step, n_held, held0].
        let wrapper = [7u64, 0, 0, 0, 0, 0, 1, 9];
        let mk = |a: u64, b: u64| {
            let mut v = vec![1, a, 1, b, wrapper.len() as u64];
            v.extend_from_slice(&wrapper);
            v
        };
        let plan = ReductionPlan {
            guards: Vec::new(),
            symmetry: Some(sym),
        };
        let (k_ab, ab_folded) = plan.canonical_key(&mk(3, 5));
        let (k_ba, ba_folded) = plan.canonical_key(&mk(5, 3));
        assert_eq!(k_ab, k_ba, "mirror states share one canonical key");
        assert_ne!(ab_folded, ba_folded, "exactly one of the pair folds");
        let (_, fixed) = plan.canonical_key(&mk(4, 4));
        assert!(!fixed, "a palindrome is its own representative");
    }
}
