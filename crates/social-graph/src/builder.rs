//! Incremental graph construction.

use crate::graph::SocialGraph;
use crate::id::UserId;
use std::borrow::Cow;
use std::fmt;

/// The deduplicated edge count exceeded the `u32` CSR offset space.
///
/// The CSR views index their target arrays with `u32` offsets, so a
/// graph can hold at most `u32::MAX` (~4.29 billion) edges. The error
/// carries the offending count so a failed multi-billion-edge run is
/// diagnosable instead of dying on a bare assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CsrCapacityError {
    /// The deduplicated edge count that did not fit.
    pub edges: usize,
}

impl fmt::Display for CsrCapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph has {} deduplicated edges, exceeding the u32 CSR offset limit of {}",
            self.edges,
            u32::MAX
        )
    }
}

impl std::error::Error for CsrCapacityError {}

/// Fail with a [`CsrCapacityError`] when `m` edges cannot be indexed
/// by `u32` CSR offsets.
pub(crate) fn check_csr_capacity(m: usize) -> Result<(), CsrCapacityError> {
    if m <= u32::MAX as usize {
        Ok(())
    } else {
        Err(CsrCapacityError { edges: m })
    }
}

/// Collects watch edges and produces an immutable [`SocialGraph`].
///
/// The edge list is owned ([`GraphBuilder::new`]) or borrows the
/// caller's ([`GraphBuilder::from_edges`]); the build reads it in
/// place, and [`GraphBuilder::add_watch`] on a borrowed builder copies
/// it first. The build enforces the graph invariants:
///
/// * self-loops are dropped (you cannot be your own fan on Digg);
/// * duplicate edges are deduplicated;
/// * out-of-range endpoints grow the user set (adding edge `(7, 9)` to
///   a 3-user builder yields a 10-user graph) — convenient when
///   replaying scraped edge lists whose id space is discovered on the
///   fly. A self-loop grows nothing.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder<'a> {
    n: usize,
    edges: Cow<'a, [(UserId, UserId)]>,
}

impl<'a> GraphBuilder<'a> {
    /// Builder for a graph with at least `n` users.
    pub fn new(n: usize) -> GraphBuilder<'a> {
        GraphBuilder {
            n,
            edges: Cow::Owned(Vec::new()),
        }
    }

    /// Builder for a graph with at least `n` users over the raw
    /// `(fan, watched)` list `edges`, borrowed rather than copied: it
    /// may hold duplicates and self-loops, which the build resolves
    /// as for [`GraphBuilder::add_watch`].
    pub fn from_edges(n: usize, edges: &'a [(UserId, UserId)]) -> GraphBuilder<'a> {
        GraphBuilder {
            n,
            edges: Cow::Borrowed(edges),
        }
    }

    /// Record that `fan` watches `watched` (i.e. `watched` is a friend
    /// of `fan`, and `fan` is a fan of `watched`). Self-loops are
    /// ignored by the build.
    pub fn add_watch(&mut self, fan: UserId, watched: UserId) {
        self.edges.to_mut().push((fan, watched));
    }

    /// Record a batch of watch edges, as [`GraphBuilder::add_watch`]
    /// per pair.
    pub fn extend_watches(&mut self, edges: impl IntoIterator<Item = (UserId, UserId)>) {
        self.edges.to_mut().extend(edges);
    }

    /// Finalise into an immutable CSR graph on the current thread:
    /// [`GraphBuilder::build_parallel`] at one thread.
    ///
    /// # Panics
    ///
    /// As [`GraphBuilder::build_parallel`].
    pub fn build(self) -> SocialGraph {
        self.build_parallel(1)
    }

    /// Finalise into an immutable CSR graph with `threads` row-range
    /// tasks (see the `par_build` module docs): each counts a chunk of
    /// the edge list, scatters its own rows' edges, then sorts and
    /// deduplicates them in place and counts their fans. Rows
    /// come out sorted and duplicate-free, so the result is
    /// **bit-identical** at any `threads`; edge lists under 8,192
    /// edges use one range.
    ///
    /// # Panics
    ///
    /// Panics with the offending edge count when the deduplicated edge
    /// count exceeds the `u32` CSR offset space.
    #[expect(
        clippy::panic,
        reason = "documented panicking convenience over the typed capacity error (\"# Panics\" above)"
    )]
    pub fn build_parallel(self, threads: usize) -> SocialGraph {
        crate::par_build::build(self.n, self.edges, threads).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_watch(UserId(0), UserId(1));
        b.add_watch(UserId(0), UserId(1)); // duplicate
        b.add_watch(UserId(1), UserId(1)); // self loop
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.friends(UserId(0)), &[UserId(1)]);
        assert!(g.friends(UserId(1)).is_empty());
    }

    #[test]
    fn grows_user_space() {
        let mut b = GraphBuilder::new(0);
        b.add_watch(UserId(5), UserId(2));
        let g = b.build();
        assert_eq!(g.user_count(), 6);
        assert!(g.watches(UserId(5), UserId(2)));
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_watch(UserId(0), UserId(4));
        b.add_watch(UserId(0), UserId(2));
        b.add_watch(UserId(0), UserId(3));
        b.add_watch(UserId(3), UserId(0));
        b.add_watch(UserId(1), UserId(0));
        let g = b.build();
        assert_eq!(g.friends(UserId(0)), &[UserId(2), UserId(3), UserId(4)]);
        assert_eq!(g.fans(UserId(0)), &[UserId(1), UserId(3)]);
    }

    #[test]
    fn extend_watches_applies_add_watch_semantics() {
        let mut b = GraphBuilder::new(0);
        b.extend_watches([
            (UserId(0), UserId(1)),
            (UserId(2), UserId(2)),
            (UserId(4), UserId(0)),
        ]);
        let g = b.build();
        assert_eq!(g.user_count(), 5);
        assert_eq!(g.edge_count(), 2); // self-loop dropped
    }

    #[test]
    fn capacity_error_reports_the_edge_count() {
        assert_eq!(check_csr_capacity(17), Ok(()));
        assert_eq!(check_csr_capacity(u32::MAX as usize), Ok(()));
        let too_many = u32::MAX as usize + 9;
        let err = check_csr_capacity(too_many).unwrap_err();
        assert_eq!(err.edges, too_many);
        let msg = err.to_string();
        assert!(msg.contains(&too_many.to_string()), "message was {msg:?}");
        assert!(msg.contains("u32 CSR offset limit"), "message was {msg:?}");
    }
}
