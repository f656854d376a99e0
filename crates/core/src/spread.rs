//! Two-mechanism spread diagnostics (paper §5.1).
//!
//! "There are two mechanisms for the spread of interest in a story on
//! Digg: interest-based and network-based. A highly interesting story
//! will spread from many independent seed sites … A story that is
//! interesting to a narrow community, however, will spread within that
//! community only."
//!
//! This module quantifies, for one story's voter list, how much of its
//! spread looks network-based: the in-network fraction over time, run
//! lengths of consecutive in-network votes (community bursts), and a
//! summary classification.

use crate::incremental::IncrementalSweep;
use serde::{Deserialize, Serialize};
use social_graph::{SocialGraph, UserId};

/// Which mechanism dominated a story's early spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpreadMode {
    /// Most early votes arrived from outside the voters' fan network —
    /// independent discovery (predicts broad interest).
    InterestDriven,
    /// Most early votes arrived through the fan network (predicts a
    /// narrow community audience).
    NetworkDriven,
    /// Neither mechanism clearly dominates.
    Mixed,
}

/// Per-story spread profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpreadProfile {
    /// Post-submitter votes analysed.
    pub votes: usize,
    /// In-network votes among them.
    pub in_network: usize,
    /// Longest run of consecutive in-network votes (a community
    /// burst).
    pub longest_network_run: usize,
    /// Number of out-of-network votes, i.e. independent seeds.
    pub independent_seeds: usize,
}

impl SpreadProfile {
    /// In-network fraction (0 for voteless stories).
    pub fn network_fraction(&self) -> f64 {
        if self.votes == 0 {
            return 0.0;
        }
        self.in_network as f64 / self.votes as f64
    }

    /// Classify with the given dominance margin (e.g. 0.6 means a
    /// mechanism must supply more than 60% of early votes to claim the
    /// story).
    pub fn mode(&self, margin: f64) -> SpreadMode {
        let f = self.network_fraction();
        if f > margin {
            SpreadMode::NetworkDriven
        } else if f < 1.0 - margin {
            SpreadMode::InterestDriven
        } else {
            SpreadMode::Mixed
        }
    }
}

/// Profile the first `window` post-submitter votes (fewer if the
/// story is shorter).
pub fn profile(graph: &SocialGraph, voters: &[UserId], window: usize) -> SpreadProfile {
    let mut sweep = IncrementalSweep::new(graph);
    let flags = sweep.sweep_story(graph, voters).flags();
    let flags = &flags[..window.min(flags.len())];
    let in_network = flags.iter().filter(|&&f| f).count();
    let mut longest = 0usize;
    let mut run = 0usize;
    for &f in flags {
        if f {
            run += 1;
            longest = longest.max(run);
        } else {
            run = 0;
        }
    }
    SpreadProfile {
        votes: flags.len(),
        in_network,
        longest_network_run: longest,
        independent_seeds: flags.len() - in_network,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use social_graph::GraphBuilder;

    fn graph() -> SocialGraph {
        let mut b = GraphBuilder::new(10);
        for f in 1..=4 {
            b.add_watch(UserId(f), UserId(0));
        }
        b.build()
    }

    #[test]
    fn profile_counts_runs_and_seeds() {
        let g = graph();
        // Votes: fan, fan, outsider, fan, outsider.
        let voters = [
            UserId(0),
            UserId(1),
            UserId(2),
            UserId(7),
            UserId(3),
            UserId(8),
        ];
        let p = profile(&g, &voters, 10);
        assert_eq!(p.votes, 5);
        assert_eq!(p.in_network, 3);
        assert_eq!(p.longest_network_run, 2);
        assert_eq!(p.independent_seeds, 2);
        assert!((p.network_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn window_truncates() {
        let g = graph();
        let voters = [UserId(0), UserId(1), UserId(2), UserId(7)];
        let p = profile(&g, &voters, 2);
        assert_eq!(p.votes, 2);
        assert_eq!(p.in_network, 2);
    }

    #[test]
    fn classification_margins() {
        let p = SpreadProfile {
            votes: 10,
            in_network: 8,
            longest_network_run: 5,
            independent_seeds: 2,
        };
        assert_eq!(p.mode(0.6), SpreadMode::NetworkDriven);
        let p2 = SpreadProfile {
            votes: 10,
            in_network: 1,
            longest_network_run: 1,
            independent_seeds: 9,
        };
        assert_eq!(p2.mode(0.6), SpreadMode::InterestDriven);
        let p3 = SpreadProfile {
            votes: 10,
            in_network: 5,
            longest_network_run: 2,
            independent_seeds: 5,
        };
        assert_eq!(p3.mode(0.6), SpreadMode::Mixed);
    }

    #[test]
    fn empty_story_profiles_cleanly() {
        let g = graph();
        let p = profile(&g, &[UserId(0)], 10);
        assert_eq!(p.votes, 0);
        assert_eq!(p.network_fraction(), 0.0);
        assert_eq!(p.mode(0.6), SpreadMode::InterestDriven);
    }
}
