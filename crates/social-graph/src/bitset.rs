//! Chunked-bitset membership scratch: the workspace's one reusable
//! user set.
//!
//! [`FanBitset`] answers "is user `u` in the current set?" with O(1)
//! insert/test and an O(1) epoch-bump clear. A `HashSet` per story
//! would allocate and hash; a `u32` stamp per user would be 4 MB of
//! scratch at one million users, which thrashes L2 when the vote-apply
//! hot path probes it at random. The set is packed into one *bit* per
//! user (64-bit words) plus one `u32` epoch per word: 250 KB per
//! million users, so the whole reached-set stays cache-resident
//! through a story sweep. The per-*word* epoch keeps the O(1) clear: a
//! word whose epoch is stale reads as all-zero and is lazily zeroed on
//! first write after a clear.
//!
//! Each word and its epoch live side by side in one 16-byte aligned
//! `Lane`, so a random-id probe — the only access pattern the vote
//! hot path has — costs exactly one cache line. (Split `words[]` /
//! `epochs[]` arrays cost two lines per probe; at ~20 probes per
//! applied vote that was the single largest slice of the incremental
//! sweep's per-vote budget.)
//!
//! `digg-core`'s `IncrementalSweep` (its reached and voted sets) and
//! the [`membership`](crate::membership) kernel's `bitset_probe` run on
//! this type.

use crate::id::UserId;

const WORD_BITS: usize = 64;

/// One 64-user chunk: the membership bits and the epoch that validates
/// them, packed so a probe touches a single cache line. `align(16)`
/// keeps a lane from straddling two lines regardless of where the
/// allocator places the `Vec`.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct Lane {
    /// Bit `u % 64` holds user `u`; meaningful only while `epoch`
    /// matches the set's current epoch.
    word: u64,
    /// Stamp of the clear-generation that last wrote `word`.
    epoch: u32,
}

const EMPTY_LANE: Lane = Lane { word: 0, epoch: 0 };

/// A reusable set of [`UserId`]s stored one bit per user, with O(1)
/// insert, membership test, and clear.
///
/// Membership is "word epoch equals current epoch AND bit set";
/// [`FanBitset::clear`] just increments the epoch, invalidating every
/// word at once. When the epoch wraps around `u32::MAX` both arrays
/// are zeroed once, so the amortised cost stays O(1).
///
/// # Examples
///
/// ```
/// use social_graph::{FanBitset, UserId};
///
/// let mut seen = FanBitset::new(100);
/// assert!(seen.insert(UserId(3)));
/// assert!(!seen.insert(UserId(3))); // already present
/// assert!(seen.contains(UserId(3)));
/// assert_eq!(seen.len(), 1);
/// seen.clear(); // O(1)
/// assert!(!seen.contains(UserId(3)));
/// ```
#[derive(Debug, Clone)]
pub struct FanBitset {
    /// Lane `u / 64` holds user `u` (see [`Lane`]); one epoch stamp
    /// per *word*, not per user — that is the whole point: 0.5 bits of
    /// epoch overhead per user instead of 32.
    lanes: Vec<Lane>,
    epoch: u32,
    len: usize,
    /// Users covered; `lanes` rounds up to whole words, so the precise
    /// capacity is carried separately.
    capacity: usize,
}

impl FanBitset {
    /// A bitset covering users `0..n`, initially empty.
    pub fn new(n: usize) -> FanBitset {
        let words = n.div_ceil(WORD_BITS);
        FanBitset {
            // Epoch 0 would make freshly-zeroed epoch stamps read as
            // "word valid"; the set's own epoch starts at 1.
            lanes: vec![EMPTY_LANE; words],
            epoch: 1,
            len: 0,
            capacity: n,
        }
    }

    /// Number of users this bitset covers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grow the id space to at least `n` users (never shrinks). New
    /// words start stale (epoch 0), so they read as empty.
    pub fn ensure_capacity(&mut self, n: usize) {
        if n > self.capacity {
            let words = n.div_ceil(WORD_BITS);
            self.lanes.resize(words, EMPTY_LANE);
            self.capacity = n;
        }
    }

    /// Number of users currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `u`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the bitset's capacity.
    // digg-lint: hot-path
    #[inline]
    pub fn insert(&mut self, u: UserId) -> bool {
        let i = u.index();
        assert!(i < self.capacity, "user {u:?} beyond bitset capacity");
        let w = i / WORD_BITS;
        let bit = 1u64 << (i % WORD_BITS);
        let lane = &mut self.lanes[w];
        if lane.epoch != self.epoch {
            // First touch of this lane since the last clear: its bits
            // are leftovers from an older epoch.
            lane.epoch = self.epoch;
            lane.word = 0;
        }
        if lane.word & bit != 0 {
            false
        } else {
            lane.word |= bit;
            self.len += 1;
            true
        }
    }

    /// Is `u` in the set? Out-of-capacity ids are simply absent.
    // digg-lint: hot-path
    #[inline]
    pub fn contains(&self, u: UserId) -> bool {
        let i = u.index();
        match self.lanes.get(i / WORD_BITS) {
            Some(lane) => lane.epoch == self.epoch && lane.word & (1u64 << (i % WORD_BITS)) != 0,
            None => false,
        }
    }

    /// Recount the members by popcount over the valid words. Always
    /// equal to [`FanBitset::len`]; exists as the self-check the tests
    /// pin and as the documented use of the word layout (`count_ones`
    /// per 64 users instead of 64 stamp loads).
    pub fn count_ones(&self) -> usize {
        self.lanes
            .iter()
            .filter(|lane| lane.epoch == self.epoch)
            .map(|lane| lane.word.count_ones() as usize)
            .sum()
    }

    /// Empty the set in O(1) (amortised; see type docs for the
    /// wrap-around case).
    pub fn clear(&mut self) {
        self.len = 0;
        if self.epoch == u32::MAX {
            self.lanes.fill(EMPTY_LANE);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_clear() {
        let mut b = FanBitset::new(130);
        assert!(b.is_empty());
        assert!(b.insert(UserId(0)));
        assert!(b.insert(UserId(64)));
        assert!(b.insert(UserId(129)));
        assert!(!b.insert(UserId(0)));
        assert_eq!(b.len(), 3);
        assert_eq!(b.count_ones(), 3);
        assert!(b.contains(UserId(64)));
        assert!(!b.contains(UserId(63)));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert!(!b.contains(UserId(0)));
        assert!(b.insert(UserId(0)));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let b = FanBitset::new(10);
        assert!(!b.contains(UserId(10)));
        assert!(!b.contains(UserId(1_000_000)));
    }

    #[test]
    #[should_panic(expected = "beyond bitset capacity")]
    fn out_of_range_insert_panics() {
        // Capacity 10 rounds up to one 64-bit word; ids in 10..64 must
        // still be rejected, not silently admitted into the slack bits.
        let mut b = FanBitset::new(10);
        b.insert(UserId(10));
    }

    #[test]
    fn ensure_capacity_grows() {
        let mut b = FanBitset::new(1);
        b.insert(UserId(0));
        b.ensure_capacity(200);
        assert_eq!(b.capacity(), 200);
        assert!(b.contains(UserId(0)), "growth preserves members");
        assert!(b.insert(UserId(199)));
        b.ensure_capacity(50); // never shrinks
        assert_eq!(b.capacity(), 200);
    }

    #[test]
    fn stale_words_read_empty_after_clear() {
        let mut b = FanBitset::new(128);
        b.insert(UserId(70));
        b.clear();
        // The word still physically holds the old bit; epoch mismatch
        // must hide it from contains and count_ones alike.
        assert!(!b.contains(UserId(70)));
        assert_eq!(b.count_ones(), 0);
        // Inserting into the sibling word must not resurrect word 1.
        b.insert(UserId(3));
        assert!(!b.contains(UserId(70)));
        // First write into the stale word lazily zeroes it.
        assert!(b.insert(UserId(64)));
        assert!(!b.contains(UserId(70)));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn epoch_wraparound_resets_cleanly() {
        let mut b = FanBitset::new(80);
        b.epoch = u32::MAX - 1;
        for lane in &mut b.lanes {
            lane.epoch = u32::MAX - 1;
        }
        b.insert(UserId(0));
        b.clear(); // epoch -> MAX
        assert!(!b.contains(UserId(0)));
        b.insert(UserId(70));
        b.clear(); // wraps: words and epochs zeroed, epoch back to 1
        assert_eq!(b.epoch, 1);
        assert!(!b.contains(UserId(70)));
        assert!(b.insert(UserId(70)));
        assert!(b.contains(UserId(70)));
    }

    #[test]
    fn agrees_with_btreeset_on_a_random_workload() {
        // Same deterministic op sequence through the bitset and an
        // ordered-set oracle; every observable must match.
        let n = 500usize;
        let mut dense = FanBitset::new(n);
        let mut oracle = std::collections::BTreeSet::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..4_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = UserId::from_index((x % n as u64) as usize);
            if step % 97 == 0 {
                dense.clear();
                oracle.clear();
            } else {
                assert_eq!(dense.insert(u), oracle.insert(u), "step {step}");
            }
            assert_eq!(dense.contains(u), oracle.contains(&u));
            assert_eq!(dense.len(), oracle.len());
        }
        for i in 0..n {
            let u = UserId::from_index(i);
            assert_eq!(dense.contains(u), oracle.contains(&u), "user {i}");
        }
        assert_eq!(dense.count_ones(), oracle.len());
    }
}
