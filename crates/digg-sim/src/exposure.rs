//! The Friends-interface dedup: which `(fan, story)` pairs were ever
//! offered an exposure.
//!
//! The interface shows a story to a fan once, however many of the
//! fan's friends vote on it, so every vote's fan walk probes this set
//! once per fan who has not voted. Each story owns one dense
//! bitset row of `⌈users/64⌉` words, allocated when the story is
//! admitted, so a probe is one row index and one bit test.
//!
//! Snapshots do not carry the set. The engine inserts every
//! not-yet-voted fan of the submitter and of each voter, whatever the
//! exposure coin then says, so the rows are a pure function of each
//! story's vote order and the fan graph; [`ExposureRows::rebuild`]
//! replays those inserts on restore.

use crate::story::{Story, StoryId};
use social_graph::{SocialGraph, UserId};

const WORD_BITS: usize = 64;

/// One bitset row per story over the users `0..users`.
#[cfg_attr(test, derive(Debug, PartialEq))]
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

    /// The rows the engine's fan walks leave behind once `stories`
    /// hold their votes: for vote `k` (vote 0 is the submitter's), every
    /// fan of its voter who had not voted within the first `k + 1`
    /// votes. Panics, like [`ExposureRows::insert`], if a voter or fan
    /// is outside the `users` users or the graph.
    pub(crate) fn rebuild(users: usize, stories: &[Story], graph: &SocialGraph) -> ExposureRows {
        let mut set = ExposureRows::new(users);
        for story in stories {
            let id = StoryId::from_index(set.rows.len());
            set.push_story();
            for (k, &actor) in story.votes.users().iter().enumerate() {
                for &fan in graph.fans(actor) {
                    if !story.voted_before(fan, k + 1) {
                        set.insert(fan, id);
                    }
                }
            }
        }
        set
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_offers_only() {
        let mut set = ExposureRows::new(130);
        set.push_story();
        set.push_story();
        assert!(set.insert(UserId(129), StoryId(1)));
        assert!(!set.insert(UserId(129), StoryId(1)));
        assert!(set.insert(UserId(129), StoryId(0)));
        assert!(set.insert(UserId(0), StoryId(1)));
        assert!(!set.insert(UserId(0), StoryId(1)));
    }
}
