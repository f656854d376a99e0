//! The immutable directed social graph.

use crate::id::UserId;
use crate::membership;
use crate::view::FanView;
use serde::{DeError, Deserialize, Serialize, Value};

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
/// friends/fans views) are established there. Deserializing checks
/// that the arrays form valid CSR views (offsets in bounds, targets in
/// range), so a malformed graph read from a file is an error, not a
/// later panic.
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
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

/// The serialized form of [`SocialGraph`]: the same four arrays,
/// read unchecked and then validated into a graph.
#[derive(Deserialize)]
struct CsrArrays {
    friend_offsets: Vec<u32>,
    friend_targets: Vec<UserId>,
    fan_offsets: Vec<u32>,
    fan_targets: Vec<UserId>,
}

impl Deserialize for SocialGraph {
    fn from_value(value: &Value) -> Result<SocialGraph, DeError> {
        let raw = CsrArrays::from_value(value)?;
        let n = raw
            .friend_offsets
            .len()
            .checked_sub(1)
            .ok_or_else(|| DeError::custom("social graph: friend offsets are empty"))?;
        if raw.friend_targets.len() != raw.fan_targets.len() {
            return Err(DeError::custom(
                "social graph: friend and fan views hold different edge counts",
            ));
        }
        for (what, offsets, targets) in [
            ("friend", &raw.friend_offsets, &raw.friend_targets),
            ("fan", &raw.fan_offsets, &raw.fan_targets),
        ] {
            check_csr_view(offsets, targets, n)
                .map_err(|why| DeError::custom(format!("social graph: {what} {why}")))?;
        }
        Ok(SocialGraph {
            friend_offsets: raw.friend_offsets,
            friend_targets: raw.friend_targets,
            fan_offsets: raw.fan_offsets,
            fan_targets: raw.fan_targets,
        })
    }
}

/// Check that `offsets` and `targets` form one CSR view over
/// `user_count` users: `user_count + 1` offsets that start at 0, never
/// decrease and close at `targets.len()`, and every target below
/// `user_count`. These are the conditions under which every row slice
/// is in bounds and every neighbour is a valid id. On failure, returns
/// which condition broke, worded to follow the view's name.
pub(crate) fn check_csr_view<O: Copy + Into<u64>>(
    offsets: &[O],
    targets: &[UserId],
    user_count: usize,
) -> Result<(), &'static str> {
    if offsets.len().checked_sub(1) != Some(user_count) {
        return Err("offsets do not hold one entry per user plus one");
    }
    if offsets.first().map(|&o| o.into()) != Some(0) {
        return Err("offsets do not start at 0");
    }
    if offsets.last().map(|&o| o.into()) != Some(targets.len() as u64) {
        return Err("offsets do not close at the edge count");
    }
    if offsets.windows(2).any(|w| w[0].into() > w[1].into()) {
        return Err("offsets are not monotone");
    }
    if targets.iter().any(|t| t.index() >= user_count) {
        return Err("targets reference users beyond the user count");
    }
    Ok(())
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
    fn deserialize_rejects_malformed_csr_and_roundtrips_valid_graphs() {
        let g = triangle();
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(serde_json::from_str::<SocialGraph>(&json).unwrap(), g);
        let empty = serde_json::to_string(&SocialGraph::empty(0)).unwrap();
        assert_eq!(
            serde_json::from_str::<SocialGraph>(&empty).unwrap(),
            SocialGraph::empty(0)
        );

        // Each forged field, over the valid triangle's other fields.
        let valid = [
            ("friend_offsets", "[0,1,2,3]"),
            ("friend_targets", "[1,2,0]"),
            ("fan_offsets", "[0,1,2,3]"),
            ("fan_targets", "[2,0,1]"),
        ];
        let forged = [
            ("friend_offsets", "[]"),        // no users, not even n + 1 = 1
            ("friend_offsets", "[0,1,2]"),   // shorter than the fan view's
            ("friend_offsets", "[1,1,2,3]"), // does not start at 0
            ("friend_offsets", "[0,2,1,3]"), // not monotone
            ("friend_offsets", "[0,1,2,2]"), // does not close at 3
            ("friend_targets", "[1,2,7]"),   // target beyond the users
            ("friend_targets", "[1,2]"),     // edge counts differ
            ("fan_offsets", "[0,5,1,1]"),    // row end past the targets
            ("fan_offsets", "[0,1,2,3,3]"),  // one offset too many
            ("fan_targets", "[2,0,3]"),      // target beyond the users
        ];
        // The dataset file that used to load and then panic in `fans`.
        let forged_dataset_graph = r#"{"friend_offsets":[0,1,1,1],"friend_targets":[7],"fan_offsets":[0,5,1,1],"fan_targets":[0]}"#;
        assert!(serde_json::from_str::<SocialGraph>(forged_dataset_graph).is_err());
        // Two views that are each valid but hold different edge counts.
        let edgeless_fans = r#"{"friend_offsets":[0,1,2,3],"friend_targets":[1,2,0],"fan_offsets":[0,0,0,0],"fan_targets":[]}"#;
        assert!(serde_json::from_str::<SocialGraph>(edgeless_fans).is_err());
        for (field, bad) in forged {
            let body: Vec<String> = valid
                .iter()
                .map(|&(f, v)| format!("\"{f}\":{}", if f == field { bad } else { v }))
                .collect();
            let json = format!("{{{}}}", body.join(","));
            assert!(
                serde_json::from_str::<SocialGraph>(&json).is_err(),
                "{field} = {bad} was accepted"
            );
        }
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
