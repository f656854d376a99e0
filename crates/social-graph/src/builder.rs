//! Incremental graph construction.

use crate::graph::SocialGraph;
use crate::id::UserId;
use std::fmt;

/// The deduplicated edge count exceeded the `u32` CSR offset space.
///
/// The CSR views index their target arrays with `u32` offsets, so a
/// graph can hold at most `u32::MAX` (~4.29 billion) edges. The error
/// carries the offending count so a failed multi-billion-edge run is
/// diagnosable instead of dying on a bare assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrCapacityError {
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
/// by `u32` CSR offsets. Shared by the serial and sharded builds.
pub(crate) fn check_csr_capacity(m: usize) -> Result<(), CsrCapacityError> {
    if m <= u32::MAX as usize {
        Ok(())
    } else {
        Err(CsrCapacityError { edges: m })
    }
}

/// Collects watch edges and produces an immutable [`SocialGraph`].
///
/// The builder enforces the graph invariants:
///
/// * self-loops are dropped (you cannot be your own fan on Digg);
/// * duplicate edges are deduplicated;
/// * out-of-range endpoints grow the user set (adding edge `(7, 9)` to
///   a 3-user builder yields a 10-user graph) — convenient when
///   replaying scraped edge lists whose id space is discovered on the
///   fly.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(UserId, UserId)>,
}

impl GraphBuilder {
    /// Builder for a graph with at least `n` users.
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Record that `fan` watches `watched` (i.e. `watched` is a friend
    /// of `fan`, and `fan` is a fan of `watched`). Self-loops are
    /// silently ignored.
    pub fn add_watch(&mut self, fan: UserId, watched: UserId) {
        if fan == watched {
            return;
        }
        self.n = self.n.max(fan.index() + 1).max(watched.index() + 1);
        self.edges.push((fan, watched));
    }

    /// Number of users the built graph will have.
    pub fn user_count(&self) -> usize {
        self.n
    }

    /// Record a batch of watch edges ([`GraphBuilder::add_watch`] per
    /// pair — self-loops dropped, id space grown as needed).
    pub fn extend_watches(&mut self, edges: impl IntoIterator<Item = (UserId, UserId)>) {
        for (fan, watched) in edges {
            self.add_watch(fan, watched);
        }
    }

    /// Finalise into an immutable CSR graph on the current thread.
    ///
    /// # Panics
    ///
    /// Panics with the offending edge count when the deduplicated edge
    /// count exceeds the `u32` CSR offset space (see
    /// [`GraphBuilder::try_build`] for the fallible form).
    pub fn build(self) -> SocialGraph {
        // digg-lint: allow(no-lib-unwrap) — documented panicking convenience over try_build ("# Panics" above)
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible serial build: `Err` instead of panicking when the edge
    /// count exceeds the `u32` CSR offset space.
    pub fn try_build(self) -> Result<SocialGraph, CsrCapacityError> {
        crate::par_build::serial(self.n, self.edges)
    }

    /// Finalise with the sharded parallel pipeline (see the
    /// `par_build` module docs): per-source-row-range local
    /// sort + dedup, parallel histogram → prefix-summed offsets, and a
    /// parallel scatter into both CSR views. The result is
    /// **bit-identical** to [`GraphBuilder::build`] at any `threads`;
    /// small edge lists fall back to the serial path.
    ///
    /// # Panics
    ///
    /// Panics with the offending edge count when the deduplicated edge
    /// count exceeds the `u32` CSR offset space.
    pub fn build_parallel(self, threads: usize) -> SocialGraph {
        self.try_build_parallel(threads)
            // digg-lint: allow(no-lib-unwrap) — documented panicking convenience over try_build_parallel ("# Panics" above)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`GraphBuilder::build_parallel`].
    pub fn try_build_parallel(self, threads: usize) -> Result<SocialGraph, CsrCapacityError> {
        crate::par_build::build_parallel(self.n, self.edges, threads)
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
        assert_eq!(b.user_count(), 6);
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
    fn parallel_build_matches_serial() {
        let mut b = GraphBuilder::new(0);
        for i in 0..50u32 {
            b.add_watch(UserId(i % 10), UserId((i * 3) % 17));
            b.add_watch(UserId((i * 7) % 13), UserId(i % 10));
        }
        let serial = b.clone().build();
        for threads in [1, 2, 8] {
            assert_eq!(b.clone().build_parallel(threads), serial);
        }
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
