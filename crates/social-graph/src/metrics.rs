//! Structural graph metrics: density, reciprocity, clustering,
//! degree assortativity and mean degree, the shape measures of Zhu
//! 2009's Digg network study.

use crate::graph::SocialGraph;
use crate::id::UserId;

/// Edge density: edges / (n * (n - 1)). 0 for graphs with < 2 users.
pub fn density(g: &SocialGraph) -> f64 {
    let n = g.user_count();
    if n < 2 {
        return 0.0;
    }
    g.edge_count() as f64 / (n as f64 * (n as f64 - 1.0))
}

/// Reciprocity: fraction of watch edges whose reverse edge also
/// exists. Digg friendships are asymmetric, but mutual watching is
/// common among the top users; the simulator reproduces a tunable
/// reciprocity. Returns 0 for an edgeless graph.
pub fn reciprocity(g: &SocialGraph) -> f64 {
    let m = g.edge_count();
    if m == 0 {
        return 0.0;
    }
    let mutual = g.edges().filter(|&(a, b)| g.watches(b, a)).count();
    mutual as f64 / m as f64
}

/// Local clustering coefficient of `u` on the undirected projection:
/// fraction of pairs of neighbours that are themselves connected (in
/// either direction). Users with fewer than two neighbours score 0.
pub fn local_clustering(g: &SocialGraph, u: UserId) -> f64 {
    let mut nbrs: Vec<UserId> = g.friends(u).iter().chain(g.fans(u)).copied().collect();
    nbrs.sort_unstable();
    nbrs.dedup();
    let k = nbrs.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            if g.watches(nbrs[i], nbrs[j]) || g.watches(nbrs[j], nbrs[i]) {
                links += 1;
            }
        }
    }
    links as f64 * 2.0 / (k as f64 * (k as f64 - 1.0))
}

/// Mean local clustering over all users (0 for the empty graph).
pub fn average_clustering(g: &SocialGraph) -> f64 {
    let n = g.user_count();
    if n == 0 {
        return 0.0;
    }
    g.users().map(|u| local_clustering(g, u)).sum::<f64>() / n as f64
}

/// Degree assortativity (Pearson correlation of total degrees across
/// edge endpoints, on the undirected projection). Positive values mean
/// well-connected users preferentially watch each other — the
/// "top users form a core" structure the paper's scatter hints at.
/// Returns `None` for graphs with fewer than 2 edges or degenerate
/// degree variance.
pub fn degree_assortativity(g: &SocialGraph) -> Option<f64> {
    if g.edge_count() < 2 {
        return None;
    }
    let deg = |u: UserId| (g.fan_count(u) + g.friend_count(u)) as f64;
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (a, b) in g.edges() {
        // Undirected projection: count each edge in both orientations
        // so the correlation is symmetric.
        xs.push(deg(a));
        ys.push(deg(b));
        xs.push(deg(b));
        ys.push(deg(a));
    }
    digg_stats::correlation::pearson(&xs, &ys)
}

/// Mean degree of the undirected projection (= 2m/n treating each
/// directed edge once). 0 for the empty graph.
pub fn mean_degree(g: &SocialGraph) -> f64 {
    let n = g.user_count();
    if n == 0 {
        return 0.0;
    }
    2.0 * g.edge_count() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> SocialGraph {
        // 0 <-> 1 mutual; 2 watches 0 and 1; 3 isolated.
        let mut b = GraphBuilder::new(4);
        b.add_watch(UserId(0), UserId(1));
        b.add_watch(UserId(1), UserId(0));
        b.add_watch(UserId(2), UserId(0));
        b.add_watch(UserId(2), UserId(1));
        b.build()
    }

    #[test]
    fn density_and_mean_degree() {
        let g = sample();
        assert!((density(&g) - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(mean_degree(&g), 2.0);
        assert_eq!(density(&SocialGraph::empty(1)), 0.0);
        assert_eq!(mean_degree(&SocialGraph::empty(0)), 0.0);
    }

    #[test]
    fn reciprocity_counts_mutual_pairs() {
        let g = sample();
        // Edges: 0->1, 1->0 (mutual), 2->0, 2->1. Mutual edges: 2 of 4.
        assert!((reciprocity(&g) - 0.5).abs() < 1e-12);
        assert_eq!(reciprocity(&SocialGraph::empty(3)), 0.0);
    }

    #[test]
    fn assortativity_signs() {
        // Star graph: hub connected to leaves -> disassortative.
        let mut b = GraphBuilder::new(6);
        for leaf in 1..6 {
            b.add_watch(UserId(leaf), UserId(0));
        }
        let star = b.build();
        let r = degree_assortativity(&star).unwrap();
        assert!(r < 0.0, "star should be disassortative, got {r}");

        // Two disjoint cliques of different sizes -> assortative
        // (high-degree nodes link to high-degree nodes).
        let mut b = GraphBuilder::new(7);
        for a in 0..4u32 {
            for c in 0..4u32 {
                if a != c {
                    b.add_watch(UserId(a), UserId(c));
                }
            }
        }
        b.add_watch(UserId(4), UserId(5));
        b.add_watch(UserId(5), UserId(6));
        let cliques = b.build();
        let r = degree_assortativity(&cliques).unwrap();
        assert!(r > 0.0, "cliques should be assortative, got {r}");

        // Degenerate graphs return None.
        assert!(degree_assortativity(&SocialGraph::empty(3)).is_none());
    }

    #[test]
    fn clustering_of_triangle_closure() {
        let g = sample();
        // User 2's neighbours {0, 1} are connected -> clustering 1.
        assert_eq!(local_clustering(&g, UserId(2)), 1.0);
        // User 3 has no neighbours.
        assert_eq!(local_clustering(&g, UserId(3)), 0.0);
        let avg = average_clustering(&g);
        assert!(avg > 0.0 && avg <= 1.0);
    }
}
