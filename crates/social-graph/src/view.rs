//! Read-only access abstraction over friend/fan adjacency.
//!
//! The analytics engines (`digg-core`'s incremental sweep, the batch
//! sweeper, the parallel sweep map) only ever *read* CSR rows. This
//! trait names exactly that capability so those engines can run
//! unchanged over either backing store:
//!
//! * [`SocialGraph`](crate::SocialGraph) — the in-memory CSR built by
//!   `GraphBuilder`;
//! * [`GraphMap`](crate::GraphMap) — the mmap-backed on-disk CSR
//!   snapshot, serving graphs larger than RAM with O(1) load.
//!
//! Both implementations expose the same sorted, duplicate-free rows,
//! so any algorithm generic over `FanView` is bit-identical across
//! backings by construction — the cross-check `digg-bench`'s
//! `tests/scale_paths.rs` enforces at 50,000 users.

use crate::id::UserId;
use crate::membership;

/// Read-only friend/fan adjacency: contiguous sorted CSR rows per
/// user, Digg watch semantics (`a` watches `b` ⇔ `a` is a fan of
/// `b`; see the crate docs).
///
/// Implementors guarantee each row is sorted ascending and
/// duplicate-free, and that `friends`/`fans` are transposes of one
/// another — the invariants `SocialGraph`'s builder establishes and
/// `GraphMap::open` verifies.
pub trait FanView {
    /// Number of users (the id space is `0..user_count`).
    fn user_count(&self) -> usize;

    /// Number of watch edges.
    fn edge_count(&self) -> usize;

    /// Users that `a` watches (its friends), sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range (ids come from this graph).
    fn friends(&self, a: UserId) -> &[UserId];

    /// Users watching `b` (its fans), sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    fn fans(&self, b: UserId) -> &[UserId];

    /// Out-degree: how many users `a` watches.
    #[inline]
    fn friend_count(&self, a: UserId) -> usize {
        self.friends(a).len()
    }

    /// In-degree: how many fans `b` has (the paper's `fans1` when `b`
    /// is a story's submitter).
    #[inline]
    fn fan_count(&self, b: UserId) -> usize {
        self.fans(b).len()
    }

    /// Is `a` a fan of *any* of the given users? The cascade
    /// membership test, by binary search over `friends(a)`
    /// ([`membership::is_fan_of_any`]).
    #[inline]
    fn is_fan_of_any(&self, a: UserId, candidates: &[UserId]) -> bool {
        membership::is_fan_of_any(self.friends(a), candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn social_graph_implements_the_view() {
        let mut b = GraphBuilder::new(4);
        b.add_watch(UserId(1), UserId(0));
        b.add_watch(UserId(2), UserId(0));
        b.add_watch(UserId(1), UserId(3));
        let g = b.build();

        fn fans1<G: FanView>(g: &G, submitter: UserId) -> usize {
            g.fan_count(submitter)
        }
        assert_eq!(fans1(&g, UserId(0)), 2);
        assert_eq!(FanView::user_count(&g), 4);
        assert_eq!(FanView::edge_count(&g), 3);
        assert_eq!(FanView::friends(&g, UserId(1)), &[UserId(0), UserId(3)]);
        assert_eq!(FanView::fans(&g, UserId(0)), &[UserId(1), UserId(2)]);
        assert!(FanView::is_fan_of_any(&g, UserId(1), &[UserId(3)]));
        assert!(!FanView::is_fan_of_any(&g, UserId(2), &[UserId(3)]));
    }
}
