//! The upcoming-stories queue.
//!
//! Paper §3: "Each new story goes to the upcoming stories queue. The
//! new submissions … are displayed in reverse chronological order, 15
//! to the page, with the most recent story at the top." Stories leave
//! the queue either by promotion or by expiring after the queue
//! lifetime (24 h on Digg); the engine schedules both and calls
//! `UpcomingQueue::remove`.
//!
//! The listing is a function of the stories: every story whose status
//! is `Upcoming`, highest id first. Ids follow submission order, and
//! promotion and expiry each change a story's status and remove it in
//! the same step, so `push`/`remove` maintain exactly what
//! `UpcomingQueue::rebuild` computes, and a checkpoint does not carry
//! it.

use crate::story::{Story, StoryId};
use std::collections::VecDeque;

/// Reverse-chronological listing of unpromoted stories.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub struct UpcomingQueue {
    /// Newest first.
    entries: VecDeque<StoryId>,
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

    /// The listing of `stories` (indexed by id): every upcoming story,
    /// newest first. `page_size` comes from the configuration.
    pub(crate) fn rebuild(page_size: usize, stories: &[Story]) -> UpcomingQueue {
        let mut q = UpcomingQueue::new(page_size);
        q.entries = (0..stories.len())
            .rev()
            .filter(|&i| stories[i].is_upcoming())
            .map(StoryId::from_index)
            .collect();
        q
    }

    /// Number of stories currently listed.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Push a newly submitted story (must be the newest so far).
    pub(crate) fn push(&mut self, id: StoryId) {
        debug_assert!(
            self.entries.front().map_or(true, |&s| s < id),
            "stories must be pushed in submission order"
        );
        self.entries.push_front(id);
    }

    /// Remove a story (on promotion). Returns whether it was present.
    pub(crate) fn remove(&mut self, id: StoryId) -> bool {
        if let Some(pos) = self.entries.iter().position(|&s| s == id) {
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
        self.entries[i]
    }

    /// Number of (possibly partial) pages.
    pub(crate) fn page_count(&self) -> usize {
        self.entries.len().div_ceil(self.page_size)
    }

    /// All listed stories, newest first.
    pub fn all(&self) -> Vec<StoryId> {
        self.entries.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newest_first_and_paging() {
        let mut q = UpcomingQueue::new(2);
        q.push(StoryId(0));
        q.push(StoryId(1));
        q.push(StoryId(2));
        assert_eq!(q.all(), vec![StoryId(2), StoryId(1), StoryId(0)]);
        assert_eq!((q.get(0), q.get(2)), (StoryId(2), StoryId(0)));
        assert_eq!(q.page_count(), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn remove_on_promotion() {
        let mut q = UpcomingQueue::new(15);
        q.push(StoryId(0));
        q.push(StoryId(1));
        assert!(q.remove(StoryId(0)));
        assert!(!q.remove(StoryId(0)));
        assert_eq!(q.all(), vec![StoryId(1)]);
    }
}
