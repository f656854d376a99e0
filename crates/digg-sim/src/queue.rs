//! The upcoming-stories queue.
//!
//! Paper §3: "Each new story goes to the upcoming stories queue. The
//! new submissions … are displayed in reverse chronological order, 15
//! to the page, with the most recent story at the top." Stories leave
//! the queue either by promotion or by expiring after the queue
//! lifetime (24 h on Digg); the engine schedules both and calls
//! `UpcomingQueue::remove`.

use crate::story::StoryId;
use crate::time::Minute;
use std::collections::VecDeque;

/// Reverse-chronological listing of unpromoted stories.
#[derive(Debug, Clone, Default)]
pub struct UpcomingQueue {
    /// Newest first.
    entries: VecDeque<(StoryId, Minute)>,
    page_size: usize,
}

impl UpcomingQueue {
    /// Create a queue with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size == 0`.
    pub(crate) fn new(page_size: usize) -> UpcomingQueue {
        assert!(page_size > 0, "page size must be positive");
        UpcomingQueue {
            entries: VecDeque::new(),
            page_size,
        }
    }

    /// Number of stories currently listed.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Push a newly submitted story (must be the newest so far).
    pub(crate) fn push(&mut self, id: StoryId, at: Minute) {
        debug_assert!(
            self.entries.front().map(|&(_, t)| t <= at).unwrap_or(true),
            "stories must be pushed in submission order"
        );
        self.entries.push_front((id, at));
    }

    /// Remove a story (on promotion). Returns whether it was present.
    pub(crate) fn remove(&mut self, id: StoryId) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(s, _)| s == id) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// The story in slot `i`, newest first. Panics past the end, like
    /// indexing; `i / page_size` is the slot's page.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> StoryId {
        self.entries[i].0
    }

    /// Number of (possibly partial) pages.
    pub(crate) fn page_count(&self) -> usize {
        self.entries.len().div_ceil(self.page_size)
    }

    /// All listed stories, newest first.
    pub fn all(&self) -> Vec<StoryId> {
        self.entries.iter().map(|&(id, _)| id).collect()
    }

    /// Snapshot support: the listing entries with submission times,
    /// newest first.
    pub(crate) fn snapshot_entries(&self) -> impl Iterator<Item = (StoryId, Minute)> + '_ {
        self.entries.iter().copied()
    }

    /// Snapshot support: rebuild a queue from captured entries (newest
    /// first); `page_size` comes from the restored configuration rather
    /// than the snapshot.
    pub(crate) fn from_snapshot(
        page_size: usize,
        entries: Vec<(StoryId, Minute)>,
    ) -> UpcomingQueue {
        let mut q = UpcomingQueue::new(page_size);
        q.entries = entries.into();
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newest_first_and_paging() {
        let mut q = UpcomingQueue::new(2);
        q.push(StoryId(0), Minute(1));
        q.push(StoryId(1), Minute(2));
        q.push(StoryId(2), Minute(3));
        assert_eq!(q.all(), vec![StoryId(2), StoryId(1), StoryId(0)]);
        assert_eq!((q.get(0), q.get(2)), (StoryId(2), StoryId(0)));
        assert_eq!(q.page_count(), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn remove_on_promotion() {
        let mut q = UpcomingQueue::new(15);
        q.push(StoryId(0), Minute(1));
        q.push(StoryId(1), Minute(2));
        assert!(q.remove(StoryId(0)));
        assert!(!q.remove(StoryId(0)));
        assert_eq!(q.all(), vec![StoryId(1)]);
    }
}
