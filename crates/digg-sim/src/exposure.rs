//! The Friends-interface dedup: which `(user, story)` pairs are done
//! with — the story's voters and every fan ever offered an exposure.
//!
//! The interface shows a story to a fan once, however many of the
//! fan's friends vote on it, and never to a fan who already voted, so
//! every vote's fan walk tests this set once per fan. Each story owns
//! one dense bitset row of `⌈users/64⌉` words, allocated when the story
//! is admitted, so a test is one row index and one bit test.
//!
//! Snapshots do not carry the set. The engine marks the submitter and
//! every voter, and inserts every fan of each of them whatever the
//! exposure coin then says, so a row is the union, over the story's
//! votes, of the voter and the voter's fans; [`ExposureRows::rebuild`]
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

    /// The rows the engine leaves behind once `stories` hold their
    /// votes: for every vote (vote 0 is the submitter's), the voter and
    /// every fan of the voter. Panics, like [`ExposureRows::insert`], if
    /// a voter or fan is outside the `users` users or the graph.
    pub(crate) fn rebuild(users: usize, stories: &[Story], graph: &SocialGraph) -> ExposureRows {
        let mut set = ExposureRows::new(users);
        for story in stories {
            let id = StoryId::from_index(set.rows.len());
            set.push_story();
            for &actor in story.votes.users() {
                set.insert(actor, id);
                for &fan in graph.fans(actor) {
                    set.insert(fan, id);
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

    /// Mark `(user, story)` done; `true` if it was not yet. Panics if
    /// the story has no row or the user is outside the population, like
    /// slice indexing.
    #[inline]
    pub(crate) fn insert(&mut self, user: UserId, story: StoryId) -> bool {
        let u = user.index();
        assert!(u < self.users, "user {u} outside {} users", self.users);
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
