//! Fan-membership kernel: "is any of these candidates in this sorted
//! CSR row?"
//!
//! This is the stateless form of the paper's in-network test — a vote
//! is *in-network* iff the voter is a fan of any prior voter — asked
//! of a voter's friend row and a candidate list. Two strategies, each
//! with a caller: [`is_fan_of_any`] (per-candidate binary search, no
//! scratch) behind [`SocialGraph::is_fan_of_any`], and [`bitset_probe`]
//! (one pass over the row against a candidate bitset). Both return the
//! same boolean for the same inputs.
//!
//! Callers pass chronological voter lists or prefixes, which are
//! unsorted in general, so sorted-merge strategies (two-pointer,
//! galloping) would fire only on the rare short prefix that happens to
//! be sorted; see DESIGN.md §16.1.
//!
//! [`SocialGraph::is_fan_of_any`]: crate::SocialGraph::is_fan_of_any

// Hot path: both probes are allocation-free once the scratch is warm
// (crates/core/tests/hot_path_alloc.rs).

use crate::bitset::FanBitset;
use crate::id::UserId;

/// Per-candidate binary search over the sorted row: O(c·log d). Needs
/// no precondition on `candidates` and no scratch.
#[inline]
pub fn is_fan_of_any(friends: &[UserId], candidates: &[UserId]) -> bool {
    candidates
        .iter()
        .any(|&c| friends.binary_search(&c).is_ok())
}

/// Bitset probe: splat the candidates into `scratch` (O(c) inserts
/// into a word-packed set), then scan the row testing bits (O(d), one
/// L1/L2-resident probe each). `scratch` is cleared on entry and grown
/// to cover every candidate id, and its contents afterwards are
/// exactly the candidate set.
pub fn bitset_probe(friends: &[UserId], candidates: &[UserId], scratch: &mut FanBitset) -> bool {
    scratch.clear();
    if let Some(max) = candidates.iter().max() {
        scratch.ensure_capacity(max.index() + 1);
    }
    for &c in candidates {
        scratch.insert(c);
    }
    friends.iter().any(|&f| scratch.contains(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<UserId> {
        xs.iter().map(|&x| UserId(x)).collect()
    }

    /// Reference oracle: linear scan, no preconditions.
    fn oracle(friends: &[UserId], candidates: &[UserId]) -> bool {
        candidates.iter().any(|c| friends.contains(c))
    }

    #[test]
    fn strategies_agree_on_edge_cases() {
        let mut scratch = FanBitset::new(0);
        let cases: Vec<(Vec<UserId>, Vec<UserId>)> = vec![
            (ids(&[]), ids(&[])),
            (ids(&[]), ids(&[1, 2])),
            (ids(&[1, 2]), ids(&[])),
            (ids(&[5]), ids(&[5])),
            (ids(&[5]), ids(&[4])),
            (ids(&[2, 4, 6, 8]), ids(&[8])),
            (ids(&[2, 4, 6, 8]), ids(&[9, 1, 5])), // unsorted candidates
            (ids(&[2, 4, 6, 8]), ids(&[9, 1, 6])),
        ];
        for (friends, candidates) in &cases {
            let want = oracle(friends, candidates);
            assert_eq!(is_fan_of_any(friends, candidates), want);
            assert_eq!(bitset_probe(friends, candidates, &mut scratch), want);
        }
    }

    #[test]
    fn all_strategies_agree_on_random_inputs() {
        // Deterministic xorshift fuzz over sorted and unsorted
        // candidate lists; each strategy must match the oracle.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut scratch = FanBitset::new(0);
        for case in 0..500u32 {
            let d = rnd(200) as usize;
            let c = rnd(100) as usize;
            let mut friends: Vec<UserId> = (0..d).map(|_| UserId(rnd(300) as u32)).collect();
            friends.sort();
            friends.dedup();
            let mut candidates: Vec<UserId> = (0..c).map(|_| UserId(rnd(300) as u32)).collect();
            if case % 2 == 0 {
                candidates.sort();
            }
            let want = oracle(&friends, &candidates);
            assert_eq!(is_fan_of_any(&friends, &candidates), want, "case {case}");
            assert_eq!(
                bitset_probe(&friends, &candidates, &mut scratch),
                want,
                "case {case}"
            );
        }
    }

    #[test]
    fn bitset_probe_resizes_scratch_and_leaves_candidates_behind() {
        let mut scratch = FanBitset::new(1);
        let friends = ids(&[100, 900]);
        let candidates = ids(&[900, 3]);
        assert!(bitset_probe(&friends, &candidates, &mut scratch));
        assert!(scratch.contains(UserId(900)));
        assert!(scratch.contains(UserId(3)));
        // Reuse with a disjoint set: prior contents must not leak.
        assert!(!bitset_probe(&friends, &ids(&[50, 51, 52]), &mut scratch));
        assert!(!scratch.contains(UserId(900)));
    }
}
