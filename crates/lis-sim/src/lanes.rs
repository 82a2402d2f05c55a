//! Lane-batched snapshots: moving state between bit-planes and
//! per-lane words, 64 lanes at a time.
//!
//! A packed engine keeps every bit of architectural state as a
//! *plane*: one `u64` whose bit `k` is that bit of lane `k`. A lane
//! snapshot ([`crate::System::save_lanes`]) wants the opposite layout,
//! one lane's bits side by side, 64 planes per word. Planes
//! `64w..64w + 64` form a 64×64 bit matrix whose transpose holds word
//! `w` of every lane's snapshot, so [`transpose64`] converts a whole
//! block for all 64 lanes in a few hundred word operations instead of
//! one shift-and-mask per plane per lane.

use crate::LANES;

/// Transposes a 64×64 bit matrix in place: bit `c` of `m[r]` moves to
/// bit `r` of `m[c]`.
///
/// The classic recursive block swap: at block size `j` (32 down to 1),
/// the top-right and bottom-left `j×j` quarters of every `2j×2j` block
/// trade places, one masked xor-swap per row pair.
pub fn transpose64(m: &mut [u64; 64]) {
    // Low `j` columns of every `2j`-column block.
    const MASKS: [(usize, u64); 6] = [
        (32, 0x0000_0000_FFFF_FFFF),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
        (2, 0x3333_3333_3333_3333),
        (1, 0x5555_5555_5555_5555),
    ];
    for (j, mask) in MASKS {
        // Split borrows keep the row loop free of bounds checks, so it
        // vectorizes.
        for block in m.chunks_exact_mut(2 * j) {
            let (top, bottom) = block.split_at_mut(j);
            for (a, b) in top.iter_mut().zip(bottom) {
                let t = ((*a >> j) ^ *b) & mask;
                *b ^= t;
                *a ^= t << j;
            }
        }
    }
}

fn check_lanes(first: usize, count: usize) {
    assert!(
        first + count <= LANES,
        "lanes {first}..{} exceed the {LANES} lanes of a packed engine",
        first + count
    );
}

/// Bits `first..first + count` set.
fn lane_mask(first: usize, count: usize) -> u64 {
    check_lanes(first, count);
    if count == LANES {
        u64::MAX
    } else {
        ((1u64 << count) - 1) << first
    }
}

/// Appends lanes `first..first + outs.len()` of the bit-plane array
/// `planes` to their snapshots: `outs[i]` gains
/// `planes.len().div_ceil(64)` words, bit `p % 64` of word `p / 64`
/// being bit `first + i` of `planes[p]`.
///
/// # Panics
///
/// Panics if the lane range exceeds [`LANES`].
pub fn save_plane_lanes(planes: &[u64], first: usize, outs: &mut [Vec<u64>]) {
    check_lanes(first, outs.len());
    let mut m = [0u64; 64];
    for block in planes.chunks(64) {
        m[..block.len()].copy_from_slice(block);
        m[block.len()..].fill(0);
        transpose64(&mut m);
        for (out, &word) in outs.iter_mut().zip(&m[first..]) {
            out.push(word);
        }
    }
}

/// Overwrites lanes `first..first + lanes.len()` of `planes` from
/// snapshot words in the [`save_plane_lanes`] layout, read from
/// `lanes[i][at..]` for lane `first + i`. Every other lane keeps its
/// bits, and snapshot bits beyond the last plane are ignored.
///
/// # Panics
///
/// Panics if the lane range exceeds [`LANES`] or a snapshot is too
/// short.
pub fn load_plane_lanes(planes: &mut [u64], first: usize, lanes: &[&[u64]], at: usize) {
    let keep = !lane_mask(first, lanes.len());
    let mut m = [0u64; 64];
    for (w, block) in planes.chunks_mut(64).enumerate() {
        m.fill(0);
        for (row, words) in m[first..].iter_mut().zip(lanes) {
            *row = words[at + w];
        }
        transpose64(&mut m);
        for (plane, &bits) in block.iter_mut().zip(&m) {
            *plane = (*plane & keep) | bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_matrix(rng: &mut StdRng) -> [u64; 64] {
        std::array::from_fn(|_| rng.random::<u64>())
    }

    #[test]
    fn transpose64_is_an_involution() {
        let mut rng = StdRng::seed_from_u64(0x7A45);
        for _ in 0..32 {
            let m = random_matrix(&mut rng);
            let mut t = m;
            transpose64(&mut t);
            assert_ne!(t, m, "a random matrix is not symmetric");
            transpose64(&mut t);
            assert_eq!(t, m);
        }
    }

    #[test]
    fn transpose64_matches_a_naive_per_bit_transpose() {
        let mut rng = StdRng::seed_from_u64(0x6464);
        for _ in 0..32 {
            let m = random_matrix(&mut rng);
            let mut naive = [0u64; 64];
            for (r, &row) in m.iter().enumerate() {
                for (c, col) in naive.iter_mut().enumerate() {
                    *col |= (row >> c & 1) << r;
                }
            }
            let mut fast = m;
            transpose64(&mut fast);
            assert_eq!(fast, naive);
        }
    }

    #[test]
    fn plane_lanes_round_trip_and_spare_other_lanes() {
        let mut rng = StdRng::seed_from_u64(0xB10B);
        // 70 planes: one full block and a ragged one.
        let planes: Vec<u64> = (0..70).map(|_| rng.random::<u64>()).collect();
        let mut outs = vec![Vec::new(); 5];
        save_plane_lanes(&planes, 9, &mut outs);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.len(), 2);
            for (p, &plane) in planes.iter().enumerate() {
                assert_eq!(out[p / 64] >> (p % 64) & 1, plane >> (9 + i) & 1);
            }
        }
        // Loading random words into lanes 9..14 changes exactly those
        // lanes; loading the saved words back restores the planes.
        let junk: Vec<Vec<u64>> = (0..5).map(|_| vec![rng.random(), rng.random()]).collect();
        let junk_refs: Vec<&[u64]> = junk.iter().map(Vec::as_slice).collect();
        let mut edited = planes.clone();
        load_plane_lanes(&mut edited, 9, &junk_refs, 0);
        let range = lane_mask(9, 5);
        for (a, b) in planes.iter().zip(&edited) {
            assert_eq!(a & !range, b & !range, "lanes outside 9..14 moved");
        }
        let mut again = vec![Vec::new(); 5];
        save_plane_lanes(&edited, 9, &mut again);
        for (got, want) in again.iter().zip(&junk) {
            // Bits past plane 70 are not state.
            assert_eq!(got[0], want[0]);
            assert_eq!(got[1], want[1] & 0x3F);
        }
        let saved: Vec<&[u64]> = outs.iter().map(Vec::as_slice).collect();
        load_plane_lanes(&mut edited, 9, &saved, 0);
        assert_eq!(edited, planes);
    }
}
