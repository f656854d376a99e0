//! Threshold ("complex contagion") cascades on modular networks
//! (paper ref \[5\]: Galstyan & Cohen, *Cascading dynamics in modular
//! networks*).
//!
//! Each node activates, irreversibly, once at least a fraction `phi`
//! of its in-neighbours (the users it watches — its information
//! sources) are active. Unlike SIR, activation requires *reinforced*
//! exposure, so community structure matters: a cascade saturates its
//! home community quickly and then either stalls at the boundary or
//! breaks out after a delay — the transient the paper's future-work
//! section points at.

use social_graph::{SocialGraph, UserId};

/// Result of one threshold-cascade run.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeOutcome {
    /// Activation step per node (`None` = never activated; seeds are
    /// step 0).
    pub activated_at: Vec<Option<u32>>,
    /// Active-node count after each step.
    pub growth: Vec<usize>,
}

impl CascadeOutcome {
    /// First step at which any node in `members` activated (`None` =
    /// the set was never invaded).
    pub fn invasion_time(&self, members: &[UserId]) -> Option<u32> {
        members
            .iter()
            .filter_map(|&u| self.activated_at[u.index()])
            .min()
    }

    /// Fraction of `members` active at the end.
    pub fn saturation(&self, members: &[UserId]) -> f64 {
        if members.is_empty() {
            return 0.0;
        }
        members
            .iter()
            .filter(|&&u| self.activated_at[u.index()].is_some())
            .count() as f64
            / members.len() as f64
    }
}

/// Run the deterministic threshold cascade to quiescence (or
/// `max_steps`). A node with no watched users never self-activates.
///
/// # Panics
///
/// Panics if `phi` is outside `[0, 1]`.
pub fn run(graph: &SocialGraph, seeds: &[UserId], phi: f64, max_steps: usize) -> CascadeOutcome {
    assert!((0.0..=1.0).contains(&phi), "phi must be a fraction");
    let n = graph.user_count();
    let mut activated_at: Vec<Option<u32>> = vec![None; n];
    for &s in seeds {
        activated_at[s.index()] = Some(0);
    }
    let mut growth = Vec::new();
    let mut step = 0u32;
    loop {
        if step as usize >= max_steps {
            break;
        }
        step += 1;
        let mut newly: Vec<usize> = Vec::new();
        for u in 0..n {
            if activated_at[u].is_some() {
                continue;
            }
            let sources = graph.friends(UserId::from_index(u));
            if sources.is_empty() {
                continue;
            }
            let active = sources
                .iter()
                .filter(|s| activated_at[s.index()].is_some())
                .count();
            if active as f64 / sources.len() as f64 >= phi {
                newly.push(u);
            }
        }
        if newly.is_empty() {
            break;
        }
        for u in newly {
            activated_at[u] = Some(step);
        }
        growth.push(activated_at.iter().filter(|a| a.is_some()).count());
    }
    CascadeOutcome {
        activated_at,
        growth,
    }
}

/// Community membership lists under the equal-block layout of
/// [`social_graph::generators::modular`].
pub fn block_members(n: usize, communities: usize) -> Vec<Vec<UserId>> {
    let mut out = vec![Vec::new(); communities];
    for u in 0..n {
        let c = social_graph::generators::community_of(u, n, communities);
        out[c].push(UserId::from_index(u));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use social_graph::generators::modular;
    use social_graph::GraphBuilder;

    #[test]
    fn seeds_activate_everything_on_a_line_with_low_phi() {
        // 1 watches 0, 2 watches 1, ... so activation flows along ids.
        let mut b = GraphBuilder::new(5);
        for i in 1..5u32 {
            b.add_watch(UserId(i), UserId(i - 1));
        }
        let g = b.build();
        let out = run(&g, &[UserId(0)], 0.5, 100);
        assert_eq!(out.activated_at.iter().flatten().count(), 5);
        // One per step.
        assert_eq!(out.activated_at[4], Some(4));
        assert_eq!(out.growth, vec![2, 3, 4, 5]);
    }

    #[test]
    fn high_phi_blocks_multi_source_nodes() {
        // Node 3 watches 0, 1, 2; with phi = 1 it needs all three.
        let mut b = GraphBuilder::new(4);
        for s in 0..3u32 {
            b.add_watch(UserId(3), UserId(s));
        }
        let g = b.build();
        let partial = run(&g, &[UserId(0)], 1.0, 10);
        assert_eq!(partial.activated_at.iter().flatten().count(), 1);
        let full = run(&g, &[UserId(0), UserId(1), UserId(2)], 1.0, 10);
        assert_eq!(full.activated_at.iter().flatten().count(), 4);
        assert_eq!(full.activated_at[3], Some(1));
    }

    #[test]
    fn modular_network_delays_cross_community_invasion() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 120;
        let k = 2;
        let g = modular(&mut rng, n, k, 0.25, 0.01);
        let blocks = block_members(n, k);
        // Seed a clump inside community 0.
        let seeds: Vec<UserId> = blocks[0][..8].to_vec();
        let out = run(&g, &seeds, 0.25, 200);
        let sat_home = out.saturation(&blocks[0]);
        assert!(sat_home > 0.8, "home saturation {sat_home}");
        // If the cascade ever reaches community 1, it does so strictly
        // later than it reached community 0.
        if let Some(t1) = out.invasion_time(&blocks[1]) {
            let t0 = out.invasion_time(&blocks[0]).unwrap();
            assert!(t1 > t0, "t1={t1} t0={t0}");
        }
    }

    #[test]
    fn sourceless_nodes_never_activate() {
        let g = GraphBuilder::new(3).build(); // no edges at all
        let out = run(&g, &[UserId(0)], 0.1, 10);
        assert_eq!(out.activated_at.iter().flatten().count(), 1);
        assert_eq!(out.activated_at[1], None);
    }

    #[test]
    fn block_members_partition_users() {
        let blocks = block_members(10, 3);
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(blocks.len(), 3);
    }
}
