//! Random graph generators.
//!
//! Two families, each motivated by the paper:
//!
//! * [`erdos_renyi`] — the homogeneous baseline the future-work section
//!   contrasts against (ABL4 runs the simulator on it).
//! * [`configuration_model`] — wire a prescribed out-degree sequence to
//!   targets drawn from a prescribed attractiveness; used to build
//!   populations whose fan counts match a chosen power law exactly.
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
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the skip saturates by design (the add below saturates too)"
        )]
        let skip = (u.ln() / lq).floor() as u128;
        idx = idx.saturating_add(skip).saturating_add(1);
        if idx > total {
            break;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "idx - 1 < total = n * n, and n <= 2^32 (UserId is a u32), so it fits in u64"
        )]
        let flat = (idx - 1) as u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a pair index below n * n splits into two indices below n"
        )]
        let (a, c) = ((flat / n as u64) as usize, (flat % n as u64) as usize);
        b.add_watch(UserId::from_index(a), UserId::from_index(c));
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
