//! Promotion rules.
//!
//! Digg's real algorithm was secret and changed regularly (§3); the
//! paper pins down one hard observable — "we did not see any
//! front-page stories with fewer than 43 votes, nor … any stories in
//! the upcoming queue with more than 42 votes" — and discusses the
//! September 2006 change that added "unique digging diversity of the
//! individuals digging the story". `PromoterKind::should_promote`
//! implements both as one `match`:
//!
//! * `Threshold` — promote when the raw vote count reaches the
//!   threshold (43) while the story is still queue-eligible;
//! * `Diversity` — weight each vote by whether it came from inside the
//!   network of prior voters (in-network votes count less), the
//!   post-controversy variant. Used by ablation ABL2.
//!
//! Both decisions are functions of the story and the graph alone. The
//! per-story `PromoterState` only saves the diversity rule from
//! refolding votes it has already seen, so a checkpoint does not carry
//! it: `Sim::restore` starts every story at an empty fold.

use crate::config::PromoterKind;
use crate::story::Story;
use social_graph::SocialGraph;

/// Per-story fold of the diversity rule: the weighted sum over the
/// vote prefix already seen, so a re-check after new votes costs
/// O(new votes), not O(all votes). Owned by the engine, one per story;
/// the threshold rule leaves it untouched.
///
/// Folding a vote list in any number of installments makes the same
/// additions in the same order as folding it from an empty state, so
/// the sum is the same f64 either way.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PromoterState {
    /// Diversity-weighted vote sum over the applied prefix.
    pub(crate) weighted: f64,
    /// Votes folded so far (prefix length).
    pub(crate) applied: usize,
}

impl PromoterState {
    /// Fold the votes not seen yet, where the `k`-th vote counts
    /// `in_network_weight` if the voter is a fan of any earlier voter
    /// (the submitter included), else 1; the submitter's implicit vote
    /// counts 1. Returns the weighted sum over the story's full current
    /// vote list.
    ///
    /// O(Σ friend-degree of the *new* voters): vote `k` is in-network
    /// iff one of the voter's friends voted at a position `< k`, a probe
    /// of the voter's friend row against the story's position index.
    fn fold(&mut self, story: &Story, graph: &SocialGraph, in_network_weight: f64) -> f64 {
        // Column scan: the fold touches only voter ids, so walk the
        // dense user column instead of materialising rows.
        let users = story.votes.users();
        while self.applied < users.len() {
            let k = self.applied;
            // `voted_before` is position-aware, so catching up on a
            // story that grew by several votes still classifies vote
            // k against exactly the k-prefix.
            let in_network = k > 0
                && graph
                    .friends(users[k])
                    .iter()
                    .any(|&f| story.voted_before(f, k));
            self.weighted += if in_network {
                in_network_weight
            } else {
                1.0 // submitter or out-of-network voter
            };
            self.applied += 1;
        }
        self.weighted
    }
}

impl PromoterKind {
    /// Whether `story` should move to the front page now. `graph` is
    /// the watch graph at decision time (Digg's algorithm had access to
    /// the live network); `fold` is the story's running diversity sum,
    /// which the threshold rule ignores.
    pub(crate) fn should_promote(
        &self,
        fold: &mut PromoterState,
        story: &Story,
        graph: &SocialGraph,
    ) -> bool {
        match *self {
            PromoterKind::Threshold { min_votes } => story.vote_count() >= min_votes,
            PromoterKind::Diversity {
                min_weighted,
                in_network_weight,
            } => fold.fold(story, graph, in_network_weight) >= min_weighted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::story::{StoryId, VoteChannel};
    use crate::time::Minute;
    use social_graph::{GraphBuilder, UserId};

    fn fan_graph() -> SocialGraph {
        // Users 1 and 2 are fans of user 0; user 3 is unconnected.
        let mut b = GraphBuilder::new(4);
        b.add_watch(UserId(1), UserId(0));
        b.add_watch(UserId(2), UserId(0));
        b.build()
    }

    fn story_with_votes(voters: &[u32]) -> Story {
        let mut s = Story::new(StoryId(0), UserId(0), Minute(0), 0.5);
        for (i, &v) in voters.iter().enumerate() {
            s.add_vote(UserId(v), Minute(i as u64 + 1), VoteChannel::External);
        }
        s
    }

    /// The diversity sum of a whole story, folded from empty.
    fn weighted_votes(in_network_weight: f64, story: &Story, graph: &SocialGraph) -> f64 {
        PromoterState::default().fold(story, graph, in_network_weight)
    }

    fn promotes(kind: PromoterKind, story: &Story, graph: &SocialGraph) -> bool {
        kind.should_promote(&mut PromoterState::default(), story, graph)
    }

    #[test]
    fn threshold_counts_raw_votes() {
        let g = fan_graph();
        let p = PromoterKind::Threshold { min_votes: 3 };
        assert!(promotes(p, &story_with_votes(&[1, 2]), &g));
        assert!(!promotes(p, &story_with_votes(&[1]), &g));
    }

    #[test]
    fn diversity_discounts_in_network_votes() {
        let g = fan_graph();
        let d = PromoterKind::Diversity {
            min_weighted: 3.0,
            in_network_weight: 0.25,
        };
        // Votes by fans 1 and 2 (both in-network): 1 + 0.25 + 0.25.
        let s = story_with_votes(&[1, 2]);
        assert!((weighted_votes(0.25, &s, &g) - 1.5).abs() < 1e-12);
        assert!(!promotes(d, &s, &g));
        // An unconnected voter counts fully: + 1.0 -> 2.5, still short.
        let s = story_with_votes(&[1, 2, 3]);
        assert!((weighted_votes(0.25, &s, &g) - 2.5).abs() < 1e-12);
        assert!(!promotes(d, &s, &g));
    }

    #[test]
    fn diversity_equals_threshold_when_weight_is_one() {
        let g = fan_graph();
        let d = PromoterKind::Diversity {
            min_weighted: 3.0,
            in_network_weight: 1.0,
        };
        let s = story_with_votes(&[1, 2]);
        assert_eq!(weighted_votes(1.0, &s, &g), 3.0);
        assert!(promotes(d, &s, &g));
    }

    #[test]
    fn weighted_votes_bit_identical_to_prior_list_scan() {
        // The pre-refactor definition: clone the prior-voter list per
        // vote and ask is_fan_of_any. The friends-row probe must
        // reproduce its f64 output bit for bit.
        let reference = |w: f64, story: &Story, graph: &SocialGraph| -> f64 {
            let mut sum = 0.0;
            for (k, v) in story.votes.iter().enumerate() {
                if k == 0 {
                    sum += 1.0;
                    continue;
                }
                let prior: Vec<_> = story.votes.users()[..k].to_vec();
                sum += if graph.is_fan_of_any(v.user, &prior) {
                    w
                } else {
                    1.0
                };
            }
            sum
        };
        // A denser graph than fan_graph: chains as well as the hub.
        let mut b = GraphBuilder::new(8);
        b.add_watch(UserId(1), UserId(0));
        b.add_watch(UserId(2), UserId(0));
        b.add_watch(UserId(3), UserId(2));
        b.add_watch(UserId(5), UserId(4));
        b.add_watch(UserId(6), UserId(5));
        let g = b.build();
        for voters in [
            vec![],
            vec![1u32],
            vec![3, 2, 1],
            vec![4, 5, 6, 1, 2, 3, 7],
            vec![7, 6, 5, 4, 3, 2, 1],
        ] {
            let s = story_with_votes(&voters);
            assert_eq!(
                weighted_votes(0.3, &s, &g).to_bits(),
                reference(0.3, &s, &g).to_bits(),
                "voters {voters:?}"
            );
        }
    }

    #[test]
    fn incremental_state_matches_batch_at_every_prefix() {
        let g = fan_graph();
        let d = PromoterKind::Diversity {
            min_weighted: 2.5,
            in_network_weight: 0.25,
        };
        let mut s = Story::new(StoryId(0), UserId(0), Minute(0), 0.5);
        let mut state = PromoterState::default();
        // Check after every vote: the running fold's decision and sum
        // must equal a fold of the same story from empty.
        for (i, &v) in [1u32, 2, 3].iter().enumerate() {
            s.add_vote(UserId(v), Minute(i as u64 + 1), VoteChannel::External);
            let incr = d.should_promote(&mut state, &s, &g);
            assert_eq!(incr, promotes(d, &s, &g), "after vote {v}");
            assert_eq!(state.applied, s.votes.len());
            assert_eq!(
                state.weighted.to_bits(),
                weighted_votes(0.25, &s, &g).to_bits()
            );
        }
    }

    #[test]
    fn incremental_state_catches_up_over_multi_vote_gaps() {
        let g = fan_graph();
        let d = PromoterKind::Diversity {
            min_weighted: 99.0,
            in_network_weight: 0.25,
        };
        // Apply all votes first, then fold once: the catch-up fold
        // must classify each vote against its own prefix, not the
        // final voter set.
        let s = story_with_votes(&[3, 1, 2]);
        let mut state = PromoterState::default();
        d.should_promote(&mut state, &s, &g);
        // 0 submits (1.0); 3 is nobody's fan (1.0); 1 and 2 are fans
        // of 0 (0.25 each): in-network despite 3 voting between.
        assert!((state.weighted - 2.5).abs() < 1e-12);
        // A fold split into installments lands on the same bits.
        let mut split = PromoterState::default();
        let mut part = story_with_votes(&[3]);
        d.should_promote(&mut split, &part, &g);
        part.add_vote(UserId(1), Minute(2), VoteChannel::External);
        part.add_vote(UserId(2), Minute(3), VoteChannel::External);
        d.should_promote(&mut split, &part, &g);
        assert_eq!(split, state);
        assert_eq!(
            state.weighted.to_bits(),
            weighted_votes(0.25, &s, &g).to_bits()
        );
    }
}
