//! Checkpoint/restore of a [`crate::System`]'s architectural state.
//!
//! A [`SystemCheckpoint`] is a plain serde-serializable snapshot: the
//! cycle counter, every signal value, and one opaque word blob per
//! component (produced by [`crate::Component::save_state`]). Long
//! fleet runs snapshot themselves through the vendored serde, survive a
//! process restart, and resume bit-identically — the contract
//! [`crate::System::restore`] documents.

use serde::{Deserialize, Serialize};

/// A serializable snapshot of a [`crate::System`], captured by
/// [`crate::System::checkpoint`].
///
/// The snapshot covers *architectural* state only: signal values, the
/// cycle counter, and each component's [`crate::Component::save_state`]
/// blob. Scheduler bookkeeping (dirty sets, wake wheels, skip counters)
/// is deliberately excluded — a restore restarts it all-dirty, which
/// the quiescence promise makes harmless: re-running a quiescent tick
/// on unchanged signals changes nothing but diagnostic counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemCheckpoint {
    /// Elapsed clock cycles at capture time.
    pub cycle: u64,
    /// Every signal value, in id order.
    pub signal_values: Vec<u64>,
    /// One opaque state blob per component, in insertion order (empty
    /// for stateless components).
    pub component_states: Vec<Vec<u64>>,
}

impl SystemCheckpoint {
    /// Total words of component state carried (diagnostics).
    pub fn state_words(&self) -> usize {
        self.component_states.iter().map(Vec::len).sum()
    }
}

/// Order-dependent 128-bit hash of a word slice — the state fingerprint
/// used to deduplicate reached states in bounded exploration (see
/// [`crate::System::save_lanes`]). A 64-bit fingerprint would not do:
/// at bounded-model-checking state counts (10⁵–10⁷ states per
/// exploration) its birthday-collision odds are no longer negligible,
/// and a collision silently *prunes* a reachable state. Two
/// independently-keyed splitmix64 chains run side by side: the low half
/// starts from one key and absorbs each word as is, the high half
/// starts from a different key and absorbs each word under a rotation
/// and a distinct tweak constant, so the halves do not cancel jointly.
/// One finalization per word per half: fast, well-mixed, and
/// deterministic across runs and platforms, so hashed frontiers
/// reproduce bit-identically in CI.
pub fn hash_words128(words: &[u64]) -> u128 {
    let mut lo = 0x9e37_79b9_7f4a_7c15_u64 ^ (words.len() as u64);
    let mut hi = 0x6c62_272e_07bb_0142_u64 ^ (words.len() as u64).wrapping_mul(0x100_0000_01b3);
    for &w in words {
        lo = splitmix64(lo ^ w);
        hi = splitmix64(hi ^ w.rotate_left(32) ^ 0xa076_1d64_78bd_642f);
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

/// The splitmix64 step function (public-domain constants).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::hash_words128;

    #[test]
    fn hash_words128_separates_similar_states() {
        let a = hash_words128(&[0, 0, 0]);
        let b = hash_words128(&[0, 0, 1]);
        let c = hash_words128(&[0, 1, 0]);
        let d = hash_words128(&[0, 0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c, "position must matter, not just the multiset");
        assert_ne!(a, d, "length must matter");
        // Deterministic across calls (and, by construction, runs).
        assert_eq!(a, hash_words128(&[0, 0, 0]));
    }

    #[test]
    fn hash_halves_are_independently_keyed() {
        // The halves must not be a deterministic function of each
        // other: states that collide in one half must still separate
        // in the other. Check that the high half is not the low half
        // under any fixed xor (a quick proxy using a few samples).
        let samples: Vec<(u64, u64)> = (0..16u64)
            .map(|i| {
                let h = hash_words128(&[i, i.wrapping_mul(3), 7]);
                ((h >> 64) as u64, h as u64)
            })
            .collect();
        let xor0 = samples[0].0 ^ samples[0].1;
        assert!(
            samples.iter().any(|&(hi, lo)| hi ^ lo != xor0),
            "high half must not be a fixed xor of the low half"
        );
    }
}
