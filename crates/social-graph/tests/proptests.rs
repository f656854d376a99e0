//! Property-based tests for the social-graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use social_graph::generators;
use social_graph::metrics;
use social_graph::{GraphBuilder, SocialGraph, UserId};

/// Arbitrary edge lists over a small id space.
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..40, 0u32..40), 0..300)
}

fn build(edges: &[(u32, u32)]) -> SocialGraph {
    let mut b = GraphBuilder::new(0);
    for &(a, c) in edges {
        b.add_watch(UserId(a), UserId(c));
    }
    b.build()
}

proptest! {
    #[test]
    fn friends_and_fans_are_inverse_views(edges in edges_strategy()) {
        let g = build(&edges);
        // Every friend edge appears as a fan edge and vice versa.
        for a in g.users() {
            for &b in g.friends(a) {
                prop_assert!(g.fans(b).contains(&a));
            }
            for &f in g.fans(a) {
                prop_assert!(g.friends(f).contains(&a));
            }
        }
    }

    #[test]
    fn edge_count_matches_adjacency_totals(edges in edges_strategy()) {
        let g = build(&edges);
        let via_friends: usize = g.users().map(|u| g.friend_count(u)).sum();
        let via_fans: usize = g.users().map(|u| g.fan_count(u)).sum();
        prop_assert_eq!(via_friends, g.edge_count());
        prop_assert_eq!(via_fans, g.edge_count());
    }

    #[test]
    fn no_self_loops_survive(edges in edges_strategy()) {
        let g = build(&edges);
        for u in g.users() {
            prop_assert!(!g.watches(u, u));
        }
    }

    #[test]
    fn watches_agrees_with_adjacency(edges in edges_strategy()) {
        let g = build(&edges);
        for (a, b) in g.edges() {
            prop_assert!(g.watches(a, b));
        }
    }

    #[test]
    fn reciprocity_and_density_in_unit_interval(edges in edges_strategy()) {
        let g = build(&edges);
        let r = metrics::reciprocity(&g);
        prop_assert!((0.0..=1.0).contains(&r));
        let d = metrics::density(&g);
        prop_assert!((0.0..=1.0).contains(&d));
        let c = metrics::average_clustering(&g);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
    }

    #[test]
    fn ranking_is_sorted_by_fans(edges in edges_strategy()) {
        let g = build(&edges);
        let ranked = g.users_by_fans_desc();
        prop_assert_eq!(ranked.len(), g.user_count());
        for w in ranked.windows(2) {
            prop_assert!(g.fan_count(w[0]) >= g.fan_count(w[1]));
        }
    }

    #[test]
    fn er_density_tracks_p(seed in any::<u64>(), p in 0.0..0.2f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(&mut rng, 120, p);
        let d = metrics::density(&g);
        // Loose statistical bound: density within 5 sigma of p.
        let sigma = (p * (1.0 - p) / (120.0 * 119.0)).sqrt();
        prop_assert!((d - p).abs() < 5.0 * sigma + 0.01, "density {d} vs p {p}");
    }
}
