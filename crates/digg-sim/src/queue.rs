//! The upcoming-stories queue.
//!
//! Paper §3: "Each new story goes to the upcoming stories queue. The
//! new submissions … are displayed in reverse chronological order, 15
//! to the page, with the most recent story at the top." Stories leave
//! the queue either by promotion or by expiring after the queue
//! lifetime (24 h on Digg); the engine schedules both and calls
//! [`UpcomingQueue::remove`].

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
    pub fn new(page_size: usize) -> UpcomingQueue {
        assert!(page_size > 0, "page size must be positive");
        UpcomingQueue {
            entries: VecDeque::new(),
            page_size,
        }
    }

    /// Number of stories currently listed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Push a newly submitted story (must be the newest so far).
    pub fn push(&mut self, id: StoryId, at: Minute) {
        debug_assert!(
            self.entries.front().map(|&(_, t)| t <= at).unwrap_or(true),
            "stories must be pushed in submission order"
        );
        self.entries.push_front((id, at));
    }

    /// Remove a story (on promotion). Returns whether it was present.
    pub fn remove(&mut self, id: StoryId) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(s, _)| s == id) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Stories on page `p` (0-based), newest first.
    pub fn page(&self, p: usize) -> Vec<StoryId> {
        self.entries
            .iter()
            .skip(p * self.page_size)
            .take(self.page_size)
            .map(|&(id, _)| id)
            .collect()
    }

    /// Number of (possibly partial) pages.
    pub fn page_count(&self) -> usize {
        self.entries.len().div_ceil(self.page_size)
    }

    /// All listed stories, newest first.
    pub fn all(&self) -> Vec<StoryId> {
        self.entries.iter().map(|&(id, _)| id).collect()
    }

    /// Is the story currently listed?
    pub fn contains(&self, id: StoryId) -> bool {
        self.entries.iter().any(|&(s, _)| s == id)
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
        assert_eq!(q.page(0), vec![StoryId(2), StoryId(1)]);
        assert_eq!(q.page(1), vec![StoryId(0)]);
        assert_eq!(q.page(2), Vec::<StoryId>::new());
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
        assert!(!q.contains(StoryId(0)));
        assert!(q.contains(StoryId(1)));
    }
}
