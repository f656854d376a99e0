//! The immutable directed social graph.

use crate::id::UserId;
use crate::membership;
use crate::view::FanView;
use serde::{Deserialize, Serialize};

/// An immutable directed graph over users `0..user_count`, stored in
/// compressed sparse row (CSR) form in both directions.
///
/// Terminology follows the paper: a *watch edge* `a -> b` means user
/// `a` watches (is a fan of) user `b`; `b` is then one of `a`'s
/// *friends* and `a` one of `b`'s *fans*.
///
/// Each direction is one flat `targets` array indexed by an `offsets`
/// array of length `user_count + 1`: user `u`'s neighbours are
/// `targets[offsets[u] .. offsets[u + 1]]`, sorted ascending. Compared
/// to the earlier `Vec<Vec<UserId>>` layout this removes one pointer
/// chase per adjacency access and keeps whole fan lists contiguous,
/// which is what the story-sweep engine in `digg-core` streams over.
///
/// Construction goes through [`GraphBuilder`](crate::GraphBuilder),
/// which deduplicates edges and drops self-loops; the invariants relied
/// on here (sorted, duplicate-free neighbour lists, symmetric
/// friends/fans views) are established there.
///
/// # Examples
///
/// ```
/// use social_graph::{GraphBuilder, UserId};
///
/// let mut b = GraphBuilder::new(2);
/// b.add_watch(UserId(0), UserId(1)); // 0 watches 1
/// let g = b.build();
/// assert_eq!(g.friends(UserId(0)), &[UserId(1)]);
/// assert_eq!(g.fans(UserId(1)), &[UserId(0)]);
/// assert_eq!(g.fan_count(UserId(1)), 1); // the paper's fans1
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SocialGraph {
    /// CSR row starts for the friends view; length `user_count + 1`.
    friend_offsets: Vec<u32>,
    /// Concatenated sorted friend lists (users each row watches).
    friend_targets: Vec<UserId>,
    /// CSR row starts for the fans view; length `user_count + 1`.
    fan_offsets: Vec<u32>,
    /// Concatenated sorted fan lists (users watching each row).
    fan_targets: Vec<UserId>,
}

impl SocialGraph {
    /// Internal constructor used by the builder. Both views must be
    /// mutually consistent, with each row sorted and duplicate-free,
    /// and `*_offsets` must be monotone with
    /// `len == fan_offsets.len()` and final entry `targets.len()`.
    pub(crate) fn from_csr(
        friend_offsets: Vec<u32>,
        friend_targets: Vec<UserId>,
        fan_offsets: Vec<u32>,
        fan_targets: Vec<UserId>,
    ) -> SocialGraph {
        debug_assert_eq!(friend_offsets.len(), fan_offsets.len());
        // digg-lint: allow(no-truncating-cast) — debug assertion on already-built u32 CSR offsets; builders reject overflow
        debug_assert_eq!(friend_offsets.last(), Some(&(friend_targets.len() as u32)));
        // digg-lint: allow(no-truncating-cast) — debug assertion on already-built u32 CSR offsets; builders reject overflow
        debug_assert_eq!(fan_offsets.last(), Some(&(fan_targets.len() as u32)));
        debug_assert_eq!(friend_targets.len(), fan_targets.len());
        SocialGraph {
            friend_offsets,
            friend_targets,
            fan_offsets,
            fan_targets,
        }
    }

    /// A graph with `n` users and no edges.
    pub fn empty(n: usize) -> SocialGraph {
        SocialGraph {
            friend_offsets: vec![0; n + 1],
            friend_targets: Vec::new(),
            fan_offsets: vec![0; n + 1],
            fan_targets: Vec::new(),
        }
    }

    /// Number of users (nodes).
    pub fn user_count(&self) -> usize {
        self.friend_offsets.len() - 1
    }

    /// Number of watch edges.
    pub fn edge_count(&self) -> usize {
        self.friend_targets.len()
    }

    #[inline]
    fn row<'a>(offsets: &[u32], targets: &'a [UserId], u: usize) -> &'a [UserId] {
        &targets[offsets[u] as usize..offsets[u + 1] as usize]
    }

    /// Users that `a` watches, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range (ids come from this graph).
    #[inline]
    pub fn friends(&self, a: UserId) -> &[UserId] {
        Self::row(&self.friend_offsets, &self.friend_targets, a.index())
    }

    /// Users watching `b` (its fans), sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[inline]
    pub fn fans(&self, b: UserId) -> &[UserId] {
        Self::row(&self.fan_offsets, &self.fan_targets, b.index())
    }

    /// Out-degree: how many users `a` watches.
    #[inline]
    pub fn friend_count(&self, a: UserId) -> usize {
        let i = a.index();
        (self.friend_offsets[i + 1] - self.friend_offsets[i]) as usize
    }

    /// In-degree: how many fans `b` has. This is the quantity the
    /// paper calls `fans1` when `b` is a story's submitter.
    #[inline]
    pub fn fan_count(&self, b: UserId) -> usize {
        let i = b.index();
        (self.fan_offsets[i + 1] - self.fan_offsets[i]) as usize
    }

    /// Does `a` watch `b`? (Is `a` a fan of `b`?)
    pub fn watches(&self, a: UserId, b: UserId) -> bool {
        self.friends(a).binary_search(&b).is_ok()
    }

    /// Is `a` a fan of *any* of the given users? This is the cascade
    /// membership test: a vote is "in-network" iff the voter is a fan
    /// of any prior voter. `O(|candidates| log d)` binary searches
    /// over `friends(a)` ([`membership::is_fan_of_any`]).
    pub fn is_fan_of_any(&self, a: UserId, candidates: &[UserId]) -> bool {
        membership::is_fan_of_any(self.friends(a), candidates)
    }

    /// Iterate all watch edges `(fan, watched)` in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (UserId, UserId)> + '_ {
        (0..self.user_count()).flat_map(move |a| {
            self.friends(UserId::from_index(a))
                .iter()
                .map(move |&b| (UserId::from_index(a), b))
        })
    }

    /// Iterate all user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> {
        (0..self.user_count()).map(UserId::from_index)
    }

    /// Users sorted by descending fan count — the "top users" ranking
    /// used throughout the paper (rank 1 = most fans). Ties are broken
    /// by ascending id for determinism.
    pub fn users_by_fans_desc(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self.users().collect();
        ids.sort_by_key(|&u| (std::cmp::Reverse(self.fan_count(u)), u));
        ids
    }

    /// The subgraph induced by `members`: same user-id space, keeping
    /// only watch edges with *both* endpoints in the set. This is the
    /// shape of the paper's first network artifact — the snapshot of
    /// the top-1020 users' friends and fans among themselves.
    ///
    /// Filters the CSR rows of both views directly (a count pass to
    /// size offsets, then a scatter), `O(V + E)` with no sort: the
    /// source rows are already sorted, and dropping targets preserves
    /// that order, so rebuilding through a `GraphBuilder` (and its
    /// `O(E log E)` sort) would only re-derive what the views already
    /// encode.
    pub fn induced_subgraph(&self, members: &[UserId]) -> SocialGraph {
        let mut in_set = vec![false; self.user_count()];
        for &m in members {
            in_set[m.index()] = true;
        }
        let filter_view = |offsets: &[u32], targets: &[UserId]| {
            let n = offsets.len() - 1;
            let mut new_offsets = vec![0u32; n + 1];
            for u in 0..n {
                let kept = if in_set[u] {
                    Self::row(offsets, targets, u)
                        .iter()
                        .filter(|t| in_set[t.index()])
                        // digg-lint: allow(no-truncating-cast) — a row's neighbour count is bounded by the u32 node count
                        .count() as u32
                } else {
                    0
                };
                new_offsets[u + 1] = new_offsets[u] + kept;
            }
            let mut new_targets = Vec::with_capacity(new_offsets[n] as usize);
            for u in 0..n {
                if in_set[u] {
                    new_targets.extend(
                        Self::row(offsets, targets, u)
                            .iter()
                            .filter(|t| in_set[t.index()]),
                    );
                }
            }
            (new_offsets, new_targets)
        };
        let (friend_offsets, friend_targets) =
            filter_view(&self.friend_offsets, &self.friend_targets);
        let (fan_offsets, fan_targets) = filter_view(&self.fan_offsets, &self.fan_targets);
        SocialGraph::from_csr(friend_offsets, friend_targets, fan_offsets, fan_targets)
    }
}

impl FanView for SocialGraph {
    #[inline]
    fn user_count(&self) -> usize {
        SocialGraph::user_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        SocialGraph::edge_count(self)
    }

    #[inline]
    fn friends(&self, a: UserId) -> &[UserId] {
        SocialGraph::friends(self, a)
    }

    #[inline]
    fn fans(&self, b: UserId) -> &[UserId] {
        SocialGraph::fans(self, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> SocialGraph {
        // 0 watches 1, 1 watches 2, 2 watches 0.
        let mut b = GraphBuilder::new(3);
        b.add_watch(UserId(0), UserId(1));
        b.add_watch(UserId(1), UserId(2));
        b.add_watch(UserId(2), UserId(0));
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = SocialGraph::empty(4);
        assert_eq!(g.user_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert!(g.friends(UserId(0)).is_empty());
        assert!(g.fans(UserId(3)).is_empty());
    }

    #[test]
    fn friends_and_fans_are_dual() {
        let g = triangle();
        assert_eq!(g.friends(UserId(0)), &[UserId(1)]);
        assert_eq!(g.fans(UserId(1)), &[UserId(0)]);
        assert_eq!(g.fan_count(UserId(0)), 1);
        assert_eq!(g.friend_count(UserId(0)), 1);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn watches_query() {
        let g = triangle();
        assert!(g.watches(UserId(0), UserId(1)));
        assert!(!g.watches(UserId(1), UserId(0)));
    }

    #[test]
    fn fan_of_any() {
        let g = triangle();
        assert!(g.is_fan_of_any(UserId(0), &[UserId(2), UserId(1)]));
        assert!(!g.is_fan_of_any(UserId(0), &[UserId(2)]));
        assert!(!g.is_fan_of_any(UserId(0), &[]));
    }

    #[test]
    fn edges_iterates_all() {
        let g = triangle();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(
            es,
            vec![
                (UserId(0), UserId(1)),
                (UserId(1), UserId(2)),
                (UserId(2), UserId(0)),
            ]
        );
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle();
        // Members {0, 1}: only the 0 -> 1 edge survives.
        let sub = g.induced_subgraph(&[UserId(0), UserId(1)]);
        assert_eq!(sub.user_count(), 3); // id space preserved
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.watches(UserId(0), UserId(1)));
        assert!(!sub.watches(UserId(1), UserId(2)));
        // Full membership reproduces the graph; empty gives no edges.
        assert_eq!(g.induced_subgraph(&[UserId(0), UserId(1), UserId(2)]), g);
        assert_eq!(g.induced_subgraph(&[]).edge_count(), 0);
    }

    #[test]
    fn top_user_ranking() {
        let mut b = GraphBuilder::new(4);
        // User 2 gets two fans, user 0 one fan.
        b.add_watch(UserId(1), UserId(2));
        b.add_watch(UserId(3), UserId(2));
        b.add_watch(UserId(2), UserId(0));
        let g = b.build();
        let ranked = g.users_by_fans_desc();
        assert_eq!(ranked[0], UserId(2));
        assert_eq!(ranked[1], UserId(0));
        // Remaining tie (zero fans) broken by id.
        assert_eq!(&ranked[2..], &[UserId(1), UserId(3)]);
    }
}
