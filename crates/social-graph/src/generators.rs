//! Random graph generators.
//!
//! Four families, each motivated by the paper:
//!
//! * [`erdos_renyi`] — the homogeneous baseline the future-work section
//!   contrasts against (epidemic thresholds on ER vs scale-free).
//! * [`preferential_attachment`] — directed PA in which newcomers
//!   watch existing users proportionally to fan count; produces the
//!   heavy-tailed fan distribution observed on Digg (top users have
//!   most fans).
//! * [`configuration_model`] — wire a prescribed out-degree sequence to
//!   targets drawn from a prescribed attractiveness; used to build
//!   populations whose fan counts match a chosen power law exactly.
//! * [`modular`] — planted community structure (dense inside blocks,
//!   sparse across), the substrate for the cascades-in-modular-networks
//!   experiments (ref \[5\] of the paper).
//!
//! All generators are deterministic given the `Rng` state.

use crate::builder::GraphBuilder;
use crate::graph::SocialGraph;
use crate::id::UserId;
use digg_stats::sampling::AliasTable;
use rand::Rng;

/// Directed Erdős–Rényi `G(n, p)`: each ordered pair gets a watch edge
/// independently with probability `p`.
///
/// Uses geometric skipping, so cost is proportional to the number of
/// edges rather than `n^2`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> SocialGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    if n == 0 || p == 0.0 {
        return b.build();
    }
    let total = (n as u128) * (n as u128); // ordered pairs incl. diagonal
    if p >= 1.0 {
        for a in 0..n {
            for c in 0..n {
                if a != c {
                    b.add_watch(UserId::from_index(a), UserId::from_index(c));
                }
            }
        }
        return b.build();
    }
    // Skip-sampling over the flattened pair index; self-pairs are
    // dropped by the builder.
    let lq = (1.0 - p).ln();
    let mut idx: u128 = 0;
    loop {
        let u: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
        let skip = (u.ln() / lq).floor() as u128;
        idx = idx.saturating_add(skip).saturating_add(1);
        if idx > total {
            break;
        }
        let flat = (idx - 1) as u64;
        let a = (flat / n as u64) as usize;
        let c = (flat % n as u64) as usize;
        b.add_watch(UserId::from_index(a), UserId::from_index(c));
    }
    b.build()
}

/// Directed preferential attachment. Users arrive one at a time; each
/// new user creates `m` watch edges to existing users chosen with
/// probability proportional to `fan_count + smoothing`. The first
/// `m + 1` users form a seed clique of mutual watches.
///
/// The resulting *fan* (in-degree) distribution is a power law with
/// exponent `≈ 2 + smoothing / m`; `smoothing = 1` gives the classic
/// `α ≈ 2 + 1/m` directed Barabási–Albert tail.
///
/// # Panics
///
/// Panics if `m == 0` or `smoothing < 0`.
pub fn preferential_attachment<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    m: usize,
    smoothing: f64,
) -> SocialGraph {
    assert!(m > 0, "each newcomer must create at least one edge");
    assert!(smoothing >= 0.0, "smoothing must be non-negative");
    let mut b = GraphBuilder::new(n);
    let seed = (m + 1).min(n);
    let mut fans = vec![0u64; n];
    for a in 0..seed {
        for (c, fan_count) in fans.iter_mut().enumerate().take(seed) {
            if a != c {
                b.add_watch(UserId::from_index(a), UserId::from_index(c));
                *fan_count += 1;
            }
        }
    }
    for newcomer in seed..n {
        // Weighted sampling without replacement among 0..newcomer via
        // repeated draws; collisions are re-drawn (cheap: m is small).
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        let total_w: f64 = fans[..newcomer].iter().map(|&f| f as f64 + smoothing).sum();
        let mut guard = 0usize;
        while targets.len() < m.min(newcomer) && guard < 10_000 {
            guard += 1;
            let mut x = rng.random::<f64>() * total_w;
            let mut pick = newcomer - 1;
            for (i, &f) in fans[..newcomer].iter().enumerate() {
                let w = f as f64 + smoothing;
                if x < w {
                    pick = i;
                    break;
                }
                x -= w;
            }
            if !targets.contains(&pick) {
                targets.push(pick);
            }
        }
        for &t in &targets {
            b.add_watch(UserId::from_index(newcomer), UserId::from_index(t));
            fans[t] += 1;
        }
    }
    b.build()
}

/// Configuration-style model: user `a` creates `out_degrees[a]` watch
/// edges toward targets drawn proportionally to `attractiveness`
/// (without replacement per source; self-loops and duplicates are
/// dropped, so realised degrees can fall slightly short — standard for
/// simple-graph configuration models).
///
/// # Panics
///
/// Panics if lengths differ, or any attractiveness is negative or
/// non-finite.
pub fn configuration_model<R: Rng + ?Sized>(
    rng: &mut R,
    out_degrees: &[usize],
    attractiveness: &[f64],
) -> SocialGraph {
    assert_eq!(
        out_degrees.len(),
        attractiveness.len(),
        "degree and attractiveness sequences must align"
    );
    let n = out_degrees.len();
    let mut b = GraphBuilder::new(n);
    let Some(table) = AliasTable::new(attractiveness) else {
        return b.build(); // all-zero attractiveness: no edges possible
    };
    for (a, &d) in out_degrees.iter().enumerate() {
        let mut chosen: Vec<usize> = Vec::with_capacity(d);
        // Cap attempts so pathological inputs (e.g. single positive
        // weight) terminate; realised degree may be lower.
        let mut attempts = 0usize;
        while chosen.len() < d && attempts < 50 * (d + 1) {
            attempts += 1;
            let t = table.sample(rng);
            if t != a && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for t in chosen {
            b.add_watch(UserId::from_index(a), UserId::from_index(t));
        }
    }
    b.build()
}

/// Planted-partition ("modular") directed graph: `communities` blocks
/// of equal size; an ordered pair inside a block gets an edge with
/// probability `p_in`, across blocks with `p_out`.
///
/// # Panics
///
/// Panics if `communities == 0` or probabilities are outside `[0, 1]`.
pub fn modular<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    communities: usize,
    p_in: f64,
    p_out: f64,
) -> SocialGraph {
    assert!(communities > 0, "need at least one community");
    assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
    let mut b = GraphBuilder::new(n);
    for a in 0..n {
        for c in 0..n {
            if a == c {
                continue;
            }
            let same = community_of(a, n, communities) == community_of(c, n, communities);
            let p = if same { p_in } else { p_out };
            if rng.random::<f64>() < p {
                b.add_watch(UserId::from_index(a), UserId::from_index(c));
            }
        }
    }
    b.build()
}

/// Community index of user `a` under the equal-block layout used by
/// [`modular`].
pub fn community_of(a: usize, n: usize, communities: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let size = n.div_ceil(communities);
    (a / size).min(communities - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2006)
    }

    #[test]
    fn er_edge_count_matches_expectation() {
        let mut r = rng();
        let g = erdos_renyi(&mut r, 500, 0.01);
        let expected = 500.0 * 499.0 * 0.01;
        let m = g.edge_count() as f64;
        assert!(
            (m - expected).abs() < 4.0 * expected.sqrt() + 50.0,
            "edges {m} vs expected {expected}"
        );
    }

    #[test]
    fn er_degenerate_params() {
        let mut r = rng();
        assert_eq!(erdos_renyi(&mut r, 0, 0.5).user_count(), 0);
        assert_eq!(erdos_renyi(&mut r, 10, 0.0).edge_count(), 0);
        let full = erdos_renyi(&mut r, 5, 1.0);
        assert_eq!(full.edge_count(), 20);
    }

    #[test]
    fn pa_produces_heavy_tail() {
        let mut r = rng();
        let g = preferential_attachment(&mut r, 3000, 3, 1.0);
        let fans = metrics::fan_counts(&g);
        let max = *fans.iter().max().unwrap();
        let mean = fans.iter().sum::<u64>() as f64 / fans.len() as f64;
        // Hubs should dwarf the mean.
        assert!(
            max as f64 > 8.0 * mean,
            "max fan count {max} vs mean {mean}"
        );
        // MLE exponent should land near 2 + 1/m ≈ 2.33.
        let fit = digg_stats::fit::fit_alpha(&fans, 5).expect("tail exists");
        assert!(
            (1.8..3.2).contains(&fit.alpha),
            "alpha {} outside plausible band",
            fit.alpha
        );
    }

    #[test]
    fn pa_every_newcomer_watches_m_users() {
        let mut r = rng();
        let m = 2;
        let g = preferential_attachment(&mut r, 200, m, 1.0);
        for u in 3..200 {
            assert_eq!(
                g.friend_count(UserId::from_index(u)),
                m,
                "user {u} should watch exactly {m} users"
            );
        }
    }

    #[test]
    fn pa_seed_clique_is_mutual() {
        let mut r = rng();
        let g = preferential_attachment(&mut r, 50, 2, 1.0);
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert!(g.watches(UserId(a), UserId(b)));
                }
            }
        }
    }

    #[test]
    fn configuration_model_respects_out_degrees() {
        let mut r = rng();
        let degs = vec![3usize; 100];
        let attr = vec![1.0; 100];
        let g = configuration_model(&mut r, &degs, &attr);
        for u in g.users() {
            assert_eq!(g.friend_count(u), 3);
        }
    }

    #[test]
    fn configuration_model_zero_attractiveness() {
        let mut r = rng();
        let g = configuration_model(&mut r, &[2, 2], &[0.0, 0.0]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn configuration_model_skewed_targets() {
        let mut r = rng();
        let n = 200;
        let degs = vec![5usize; n];
        let mut attr = vec![1.0; n];
        attr[0] = 500.0; // user 0 hoards fans
        let g = configuration_model(&mut r, &degs, &attr);
        let f0 = g.fan_count(UserId(0));
        let avg: f64 = (1..n)
            .map(|i| g.fan_count(UserId::from_index(i)))
            .sum::<usize>() as f64
            / (n - 1) as f64;
        assert!(f0 as f64 > 10.0 * avg, "hub fans {f0} vs avg {avg}");
    }

    #[test]
    fn modular_graph_prefers_in_block_edges() {
        let mut r = rng();
        let n = 120;
        let k = 4;
        let g = modular(&mut r, n, k, 0.2, 0.005);
        let mut inside = 0usize;
        let mut across = 0usize;
        for (a, b) in g.edges() {
            if community_of(a.index(), n, k) == community_of(b.index(), n, k) {
                inside += 1;
            } else {
                across += 1;
            }
        }
        assert!(inside > across, "inside {inside} across {across}");
    }

    #[test]
    fn community_layout_is_balanced() {
        assert_eq!(community_of(0, 100, 4), 0);
        assert_eq!(community_of(99, 100, 4), 3);
        assert_eq!(community_of(0, 0, 4), 0);
        // Non-divisible sizes still map everyone to a valid block.
        for a in 0..10 {
            assert!(community_of(a, 10, 3) < 3);
        }
    }
}
