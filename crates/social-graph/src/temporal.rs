//! Dated fan links and as-of-date snapshot reconstruction.
//!
//! Paper §3.2: the authors scraped fan lists in February 2008, long
//! after the June 2006 story data. Digg listed fan links in reverse
//! chronological order without creation dates, but *did* give each
//! fan's join date; the authors reconstructed the June-2006 network by
//! "eliminating fans who joined Digg after June 30, 2006".
//!
//! [`TemporalFanList`] models exactly that artifact: a per-user list of
//! `(fan, fan_join_date)` pairs in reverse chronological *link* order,
//! with a [`snapshot`](TemporalFanList::snapshot) operation that
//! filters by join date. The reconstruction is *approximate* in the
//! same way the paper's is — a fan who joined before the cutoff but
//! linked after it is (incorrectly, unavoidably) retained — and a test
//! below documents that bias.

use crate::builder::GraphBuilder;
use crate::graph::SocialGraph;
use crate::id::UserId;
use serde::{Deserialize, Serialize};

/// A day index (days since an arbitrary epoch). The reproduction only
/// compares dates, so the epoch never matters.
pub type Day = u32;

/// One fan link as scraped: who the fan is, when the fan joined the
/// site, and when the link was actually created (hidden from the
/// scraper; retained here so tests can measure reconstruction error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FanLink {
    /// The watching user.
    pub fan: UserId,
    /// The day the fan joined the site (visible to the scraper).
    pub fan_joined: Day,
    /// The day the watch link was created (NOT visible to the
    /// scraper; ground truth for evaluating the reconstruction).
    pub link_created: Day,
}

/// Scraped fan lists for a population, as of some scrape date.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TemporalFanList {
    /// `lists[b]` = fan links of user `b`, most recent link first
    /// (reverse chronological, as Digg displayed them).
    lists: Vec<Vec<FanLink>>,
}

impl TemporalFanList {
    /// Empty lists for `n` users.
    pub fn new(n: usize) -> TemporalFanList {
        TemporalFanList {
            lists: vec![Vec::new(); n],
        }
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.lists.len()
    }

    /// Record a link: `fan` (who joined on `fan_joined`) started
    /// watching `watched` on `link_created`. Links may be added in any
    /// order; lists are kept reverse-chronological.
    pub fn add_link(&mut self, watched: UserId, fan: UserId, fan_joined: Day, link_created: Day) {
        let list = &mut self.lists[watched.index()];
        let link = FanLink {
            fan,
            fan_joined,
            link_created,
        };
        // Insert keeping descending link_created order.
        let pos = list.partition_point(|l| l.link_created >= link_created);
        list.insert(pos, link);
    }

    /// The paper's reconstruction: keep only fans who *joined* on or
    /// before `cutoff`, and build the watch graph from them.
    ///
    /// This over-counts links created after the cutoff by users who
    /// joined before it; [`snapshot_exact`](Self::snapshot_exact) gives
    /// the unobservable ground truth for comparison.
    pub fn snapshot(&self, cutoff: Day) -> SocialGraph {
        let mut b = GraphBuilder::new(self.user_count());
        for (w, list) in self.lists.iter().enumerate() {
            for l in list {
                if l.fan_joined <= cutoff {
                    b.add_watch(l.fan, UserId::from_index(w));
                }
            }
        }
        b.build()
    }

    /// Ground-truth snapshot using the (unscrapable) link creation
    /// dates.
    pub fn snapshot_exact(&self, cutoff: Day) -> SocialGraph {
        let mut b = GraphBuilder::new(self.user_count());
        for (w, list) in self.lists.iter().enumerate() {
            for l in list {
                if l.link_created <= cutoff {
                    b.add_watch(l.fan, UserId::from_index(w));
                }
            }
        }
        b.build()
    }

    /// Number of links the join-date reconstruction keeps that the
    /// exact snapshot would drop (the paper's unavoidable
    /// reconstruction bias), at the given cutoff.
    pub fn reconstruction_excess(&self, cutoff: Day) -> usize {
        self.lists
            .iter()
            .flat_map(|list| list.iter())
            .filter(|l| l.fan_joined <= cutoff && l.link_created > cutoff)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_filters_by_join_date() {
        let mut t = TemporalFanList::new(3);
        // Fan 1 joined day 5, linked day 50: kept at cutoff 20.
        t.add_link(UserId(0), UserId(1), 5, 50);
        // Fan 2 joined day 30: dropped at cutoff 20.
        t.add_link(UserId(0), UserId(2), 30, 40);
        let g = t.snapshot(20);
        assert!(g.watches(UserId(1), UserId(0)));
        assert!(!g.watches(UserId(2), UserId(0)));
    }

    #[test]
    fn exact_snapshot_uses_link_dates() {
        let mut t = TemporalFanList::new(3);
        t.add_link(UserId(0), UserId(1), 5, 50);
        t.add_link(UserId(0), UserId(2), 30, 40);
        let g = t.snapshot_exact(45);
        assert!(!g.watches(UserId(1), UserId(0))); // linked day 50 > 45
        assert!(g.watches(UserId(2), UserId(0))); // linked day 40 <= 45
    }

    #[test]
    fn reconstruction_bias_is_measurable() {
        let mut t = TemporalFanList::new(2);
        // Joined before cutoff, linked after: the one kind of error.
        t.add_link(UserId(0), UserId(1), 1, 100);
        assert_eq!(t.reconstruction_excess(50), 1);
        assert_eq!(t.reconstruction_excess(150), 0);
        // The reconstructed graph at cutoff 50 contains the spurious
        // edge, the exact one does not.
        assert_eq!(t.snapshot(50).edge_count(), 1);
        assert_eq!(t.snapshot_exact(50).edge_count(), 0);
    }

    #[test]
    fn snapshot_never_invents_users() {
        let t = TemporalFanList::new(4);
        let g = t.snapshot(10);
        assert_eq!(g.user_count(), 4);
        assert_eq!(g.edge_count(), 0);
    }
}
