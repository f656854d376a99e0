//! The front page.
//!
//! Promoted stories are listed newest-promotion first; browsing reads
//! them `SimConfig::page_size` (15) to a page.
//! Unlike the upcoming queue, front-page stories do not expire — they
//! simply sink to deeper pages as newer promotions arrive, which is
//! how attention (and hence vote rate) decays with age in addition to
//! novelty decay.
//!
//! The listing is stored in promotion order, so a promotion is a push
//! and listing position `k` never moves. Browsing reads each position
//! without touching its [`Story`]: an entry carries the story's
//! precomputed vote weight and its promotion minute, and a per-user
//! bitset over positions answers "already voted" without a probe of
//! the story's voter index. Both are pure functions of the listing and
//! the stories, so `Sim::restore` rebuilds them instead of storing them.

use crate::story::{Story, StoryId};
use crate::time::Minute;
use social_graph::UserId;

const WORD_BITS: usize = 64;

/// [`FrontPage::positions`] value of a story that is not listed.
const NOT_LISTED: u32 = u32::MAX;

/// One promoted story, as browsing reads it.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
struct Entry {
    id: StoryId,
    at: Minute,
    /// `frontpage_vote_prob * quality`: a view's vote chance before
    /// novelty decay.
    weight: f64,
}

/// Reverse-promotion-order listing of promoted stories.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub struct FrontPage {
    /// Oldest promotion first: position `k` is the `k`-th promotion.
    entries: Vec<Entry>,
    /// Listing position by story index; [`NOT_LISTED`] past the end
    /// and for unpromoted stories.
    positions: Vec<u32>,
    /// Per user, bit `k` is set once the user has voted on the story at
    /// position `k`. Rows grow on demand; a missing word reads as zero.
    voted: Vec<Vec<u64>>,
}

impl FrontPage {
    /// List `story`, promoted at `at` (must be the newest promotion so
    /// far), with per-view vote weight `weight`, and mark every vote it
    /// holds.
    pub(crate) fn promote(&mut self, story: &Story, at: Minute, weight: f64) {
        debug_assert!(
            self.entries.last().map_or(true, |e| e.at <= at),
            "promotions must arrive in time order"
        );
        let pos = self.entries.len();
        self.entries.push(Entry {
            id: story.id,
            at,
            weight,
        });
        let i = story.id.index();
        if self.positions.len() <= i {
            self.positions.resize(i + 1, NOT_LISTED);
        }
        // Each listed story has its own `u32` id, so every position fits.
        self.positions[i] = u32::try_from(pos).unwrap_or(NOT_LISTED);
        for &user in story.votes.users() {
            self.mark(user, pos);
        }
    }

    /// Record `user`'s vote on `story` if the story is listed.
    #[inline]
    pub(crate) fn record_vote(&mut self, story: StoryId, user: UserId) {
        match self.positions.get(story.index()) {
            Some(&pos) if pos != NOT_LISTED => self.mark(user, pos as usize),
            _ => {}
        }
    }

    fn mark(&mut self, user: UserId, pos: usize) {
        let u = user.index();
        if self.voted.len() <= u {
            self.voted.resize_with(u + 1, Vec::new);
        }
        let row = &mut self.voted[u];
        let w = pos / WORD_BITS;
        if row.len() <= w {
            row.resize(w + 1, 0);
        }
        row[w] |= 1 << (pos % WORD_BITS);
    }

    /// Has `user` voted on the story at listing position `pos`?
    #[inline]
    pub(crate) fn has_voted(&self, user: UserId, pos: usize) -> bool {
        self.voted
            .get(user.index())
            .and_then(|row| row.get(pos / WORD_BITS))
            .is_some_and(|&w| w >> (pos % WORD_BITS) & 1 == 1)
    }

    /// The story at listing position `pos`, its promotion minute and
    /// its per-view vote weight. Panics past the end, like slice
    /// indexing.
    #[inline]
    pub(crate) fn entry(&self, pos: usize) -> (StoryId, Minute, f64) {
        let e = self.entries[pos];
        (e.id, e.at, e.weight)
    }

    /// Total promoted stories.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The most recently promoted `k` stories (the scraper's "roughly
    /// 200 of the most recently promoted stories").
    pub fn most_recent(&self, k: usize) -> Vec<StoryId> {
        self.entries.iter().rev().take(k).map(|e| e.id).collect()
    }

    /// All promoted stories with promotion times, newest first.
    pub fn all(&self) -> Vec<(StoryId, Minute)> {
        self.entries.iter().rev().map(|e| (e.id, e.at)).collect()
    }

    /// Snapshot support: the listing in promotion order, oldest first.
    pub(crate) fn snapshot_entries(&self) -> impl ExactSizeIterator<Item = (StoryId, Minute)> + '_ {
        self.entries.iter().map(|e| (e.id, e.at))
    }

    /// Snapshot support: rebuild a front page from captured entries in
    /// promotion order, recomputing each entry's weight and every vote
    /// mark from `stories`. `frontpage_vote_prob` comes from the
    /// restored configuration rather than the snapshot. The caller
    /// checks that each entry names a distinct story promoted at the
    /// entry's minute, in time order.
    pub(crate) fn from_snapshot(
        frontpage_vote_prob: f64,
        entries: &[(StoryId, Minute)],
        stories: &[Story],
    ) -> FrontPage {
        let mut fp = FrontPage::default();
        for &(id, at) in entries {
            let story = &stories[id.index()];
            fp.promote(story, at, frontpage_vote_prob * story.quality);
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::story::VoteChannel;

    fn story(id: u32, voters: &[u32]) -> Story {
        let mut s = Story::new(StoryId(id), UserId(voters[0]), Minute(0), 0.5);
        for &u in &voters[1..] {
            s.add_vote(UserId(u), Minute(1), VoteChannel::External);
        }
        s
    }

    #[test]
    fn promotion_order() {
        let mut fp = FrontPage::default();
        for (id, t) in [(4, 10), (9, 20), (2, 30)] {
            fp.promote(&story(id, &[0]), Minute(t), 0.1);
        }
        assert_eq!(
            fp.all(),
            vec![
                (StoryId(2), Minute(30)),
                (StoryId(9), Minute(20)),
                (StoryId(4), Minute(10))
            ]
        );
        assert_eq!(fp.entry(0), (StoryId(4), Minute(10), 0.1));
        assert_eq!(fp.len(), 3);
    }

    #[test]
    fn most_recent_truncates() {
        let mut fp = FrontPage::default();
        for i in 0..5 {
            fp.promote(&story(i, &[0]), Minute(u64::from(i)), 0.1);
        }
        assert_eq!(fp.most_recent(2), vec![StoryId(4), StoryId(3)]);
        assert_eq!(fp.most_recent(100).len(), 5);
    }

    #[test]
    fn vote_marks_follow_the_listing() {
        let mut fp = FrontPage::default();
        fp.promote(&story(3, &[1, 70]), Minute(5), 0.1);
        fp.promote(&story(0, &[2]), Minute(6), 0.1);
        assert!(fp.has_voted(UserId(1), 0) && fp.has_voted(UserId(70), 0));
        assert!(!fp.has_voted(UserId(2), 0) && fp.has_voted(UserId(2), 1));
        fp.record_vote(StoryId(0), UserId(70));
        fp.record_vote(StoryId(1), UserId(9)); // unlisted: no mark
        fp.record_vote(StoryId(8), UserId(9)); // beyond every listed id
        assert!(fp.has_voted(UserId(70), 1));
        assert!((0..2).all(|pos| !fp.has_voted(UserId(9), pos)));
        assert!(!fp.has_voted(UserId(1000), 0));
    }

    #[test]
    fn empty_page_is_empty() {
        let fp = FrontPage::default();
        assert!(fp.all().is_empty());
        assert_eq!(fp.len(), 0);
    }
}
