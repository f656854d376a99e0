//! Graph observation model: partial edge observation.
//!
//! The paper's network was *observed*, not given: a crawl outward from
//! the Top Users list plus fan lists of every voter encountered. This
//! module models such partial observation so analyses can be tested
//! for robustness against it (ablation ABL5): [`subsample_edges`]
//! keeps each watch edge independently with probability `p` (missed
//! fan-list pages, deleted accounts, rate-limited requests).

use crate::builder::GraphBuilder;
use crate::graph::SocialGraph;
use rand::Rng;

/// Independently keep each watch edge with probability `p` — a model
/// of incomplete fan-list scraping.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn subsample_edges<R: Rng + ?Sized>(rng: &mut R, graph: &SocialGraph, p: f64) -> SocialGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(graph.user_count());
    for (a, c) in graph.edges() {
        if rng.random::<f64>() < p {
            b.add_watch(a, c);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::UserId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// fans: 0 <- {1, 2}; 1 <- {3}; 3 <- {4}.
    fn graph() -> SocialGraph {
        let mut b = GraphBuilder::new(5);
        b.add_watch(UserId(1), UserId(0));
        b.add_watch(UserId(2), UserId(0));
        b.add_watch(UserId(3), UserId(1));
        b.add_watch(UserId(4), UserId(3));
        b.build()
    }

    #[test]
    fn subsample_extremes() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(subsample_edges(&mut rng, &g, 1.0), g);
        assert_eq!(subsample_edges(&mut rng, &g, 0.0).edge_count(), 0);
    }

    #[test]
    fn subsample_rate_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = GraphBuilder::new(200);
        for a in 0..199u32 {
            for c in (a + 1)..200 {
                b.add_watch(UserId(a), UserId(c));
            }
        }
        let g = b.build();
        let s = subsample_edges(&mut rng, &g, 0.3);
        let frac = s.edge_count() as f64 / g.edge_count() as f64;
        assert!((frac - 0.3).abs() < 0.02, "kept {frac}");
        // Subsampled edges are a subset.
        for (a, c) in s.edges() {
            assert!(g.watches(a, c));
        }
    }
}
