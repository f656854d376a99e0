//! The Friends-interface dedup: which `(fan, story)` pairs were ever
//! offered an exposure.
//!
//! The interface shows a story to a fan once, however many of the
//! fan's friends vote on it, so every vote's fan walk probes this set
//! once per fan who has not voted. Each story owns one dense
//! bitset row of `⌈users/64⌉` words, allocated when the story is
//! admitted, so a probe is one row index and one bit test.
//!
//! The snapshot form is the sorted pair list: a count, then ascending
//! `(user, story)` pairs as two `u32`s each. A counting pass over the
//! rows emits it without sorting.

use crate::story::StoryId;
use digg_snapshot::{ByteReader, ByteWriter, SnapshotError};
use social_graph::UserId;

const WORD_BITS: usize = 64;

/// One bitset row per story over the users `0..users`.
pub(crate) struct ExposureRows {
    users: usize,
    rows: Vec<Box<[u64]>>,
}

impl ExposureRows {
    /// No stories yet, over `users` users.
    pub(crate) fn new(users: usize) -> ExposureRows {
        ExposureRows {
            users,
            rows: Vec::new(),
        }
    }

    /// Allocate the empty row of the next story, whose id is the
    /// number of rows before the call.
    pub(crate) fn push_story(&mut self) {
        let words = self.users.div_ceil(WORD_BITS);
        self.rows.push(vec![0; words].into_boxed_slice());
    }

    /// Mark `(fan, story)` offered; `true` if it was not yet. Panics if
    /// the story has no row or the fan is outside the population, like
    /// slice indexing.
    #[inline]
    pub(crate) fn insert(&mut self, fan: UserId, story: StoryId) -> bool {
        let u = fan.index();
        assert!(u < self.users, "fan {u} outside {} users", self.users);
        let word = &mut self.rows[story.index()][u / WORD_BITS];
        let bit = 1u64 << (u % WORD_BITS);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Append the pair count and the ascending `(user, story)` pairs.
    ///
    /// A counting sort by user: the first pass counts each user's
    /// stories into bucket offsets, the second drops every story id
    /// into its user's bucket. Rows are visited in ascending story
    /// order, so each bucket fills in ascending order too.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        let mut start = vec![0usize; self.users + 1];
        for row in &self.rows {
            for_each_member(row, |u| start[u + 1] += 1);
        }
        for u in 0..self.users {
            start[u + 1] += start[u];
        }
        let total = start[self.users];
        let mut stories = vec![0u32; total];
        let mut next = start.clone();
        for (s, row) in (0..=u32::MAX).zip(&self.rows) {
            for_each_member(row, |u| {
                stories[next[u]] = s;
                next[u] += 1;
            });
        }
        w.put_usize(total);
        for (u, bucket) in (0..=u32::MAX).zip(start.windows(2)) {
            for &s in &stories[bucket[0]..bucket[1]] {
                w.put_u32(u);
                w.put_u32(s);
            }
        }
    }

    /// Read what [`ExposureRows::encode`] wrote, for a sim of `users`
    /// users and `stories` stories. Pairs must be in range and strictly
    /// ascending, so decode followed by encode gives the same bytes.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        users: usize,
        stories: usize,
    ) -> Result<ExposureRows, SnapshotError> {
        let mut set = ExposureRows::new(users);
        for _ in 0..stories {
            set.push_story();
        }
        let n = r.get_usize()?;
        let mut prev = None;
        for _ in 0..n {
            let pair = (r.get_u32()?, r.get_u32()?);
            let (u, s) = pair;
            if u as usize >= users || s as usize >= stories {
                return Err(SnapshotError::Malformed(format!(
                    "scheduled pair (user {u}, story {s}) outside {users} users × {stories} stories"
                )));
            }
            if prev >= Some(pair) {
                return Err(SnapshotError::Malformed(format!(
                    "scheduled pair (user {u}, story {s}) out of order"
                )));
            }
            prev = Some(pair);
            set.insert(UserId(u), StoryId(s));
        }
        Ok(set)
    }
}

/// Call `f` with the index of every set bit of `row`, ascending.
#[inline]
fn for_each_member(row: &[u64], mut f: impl FnMut(usize)) {
    for (i, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(i * WORD_BITS + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn encoded(set: &ExposureRows) -> Vec<u8> {
        let mut w = ByteWriter::new();
        set.encode(&mut w);
        w.into_bytes()
    }

    fn pair_bytes(pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(pairs.len());
        for &(u, s) in pairs {
            w.put_u32(u);
            w.put_u32(s);
        }
        w.into_bytes()
    }

    #[test]
    fn insert_reports_first_offers_only() {
        let mut set = ExposureRows::new(130);
        set.push_story();
        set.push_story();
        assert!(set.insert(UserId(129), StoryId(1)));
        assert!(!set.insert(UserId(129), StoryId(1)));
        assert!(set.insert(UserId(129), StoryId(0)));
        assert!(set.insert(UserId(0), StoryId(1)));
        assert_eq!(
            encoded(&set),
            pair_bytes(&[(0, 1), (129, 0), (129, 1)]),
            "pairs come out user-major, story-minor"
        );
    }

    #[test]
    fn decode_rejects_out_of_range_and_unsorted_pairs() {
        let decode = |pairs: &[(u32, u32)]| {
            let bytes = pair_bytes(pairs);
            ExposureRows::decode(&mut ByteReader::new(&bytes), 10, 3)
        };
        assert!(decode(&[(0, 0), (9, 2)]).is_ok());
        for bad in [
            &[(10, 0)][..],
            &[(0, 3)],
            &[(2, 1), (1, 2)],
            &[(2, 1), (2, 1)],
        ] {
            match decode(bad) {
                Err(SnapshotError::Malformed(_)) => {}
                Err(e) => panic!("{bad:?}: expected Malformed, got {e}"),
                Ok(_) => panic!("{bad:?}: accepted"),
            }
        }
    }

    proptest! {
        /// The counting-pass encoder emits exactly the sorted,
        /// deduplicated pair list, and decode → encode is the identity
        /// on its bytes.
        #[test]
        fn encoder_matches_a_sorted_set_model(
            users in 1usize..200,
            stories in 0usize..12,
            raw in proptest::collection::vec((0usize..10_000, 0usize..10_000), 0..300),
        ) {
            let mut set = ExposureRows::new(users);
            for _ in 0..stories {
                set.push_story();
            }
            let mut model = BTreeSet::new();
            if stories > 0 {
                for (u, s) in raw {
                    let (u, s) = (UserId::from_index(u % users), StoryId::from_index(s % stories));
                    prop_assert_eq!(set.insert(u, s), model.insert((u.0, s.0)));
                }
            }
            let model: Vec<(u32, u32)> = model.into_iter().collect();
            let bytes = encoded(&set);
            prop_assert_eq!(&bytes, &pair_bytes(&model));
            let decoded = ExposureRows::decode(&mut ByteReader::new(&bytes), users, stories)
                .expect("decode");
            prop_assert_eq!(encoded(&decoded), bytes);
        }
    }
}
