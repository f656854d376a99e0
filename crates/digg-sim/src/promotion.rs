//! Promotion algorithms.
//!
//! Digg's real algorithm was secret and changed regularly (§3); the
//! paper pins down one hard observable — "we did not see any
//! front-page stories with fewer than 43 votes, nor … any stories in
//! the upcoming queue with more than 42 votes" — and discusses the
//! September 2006 change that added "unique digging diversity of the
//! individuals digging the story". We implement both:
//!
//! * `ThresholdPromoter` — promote when the raw vote count reaches
//!   the threshold (43) while the story is still queue-eligible;
//! * `DiversityPromoter` — weight each vote by whether it came from
//!   inside the network of prior voters (in-network votes count less),
//!   the post-controversy variant. Used by ablation ABL2.

use crate::story::Story;
use crate::time::Minute;
use digg_snapshot::{ByteReader, ByteWriter, Codec, SnapshotError};
use social_graph::SocialGraph;

/// Per-story incremental promoter state: what a rule has folded from
/// the vote prefix it has already seen, so a re-check after new votes
/// costs O(new votes), not O(all votes).
///
/// Owned by the engine (one per story), handed back to the promoter on
/// each [`Promoter::should_promote_with`] call. Rules that need no
/// state use [`PromoterState::Stateless`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PromoterState {
    /// The rule recomputes from story counts; nothing to fold.
    Stateless,
    /// Running state of [`DiversityPromoter`].
    Diversity {
        /// Diversity-weighted vote sum over the applied prefix.
        weighted: f64,
        /// Votes folded so far (prefix length).
        applied: usize,
    },
}

/// Checkpoint encoding. The `weighted` f64 is stored as its exact bit
/// pattern: a restored diversity fold continues from the identical
/// partial sum, which is what keeps resumed promotion decisions
/// bit-identical to an uninterrupted run.
impl Codec for PromoterState {
    fn encode(&self, out: &mut ByteWriter) {
        match *self {
            PromoterState::Stateless => out.put_u8(0),
            PromoterState::Diversity { weighted, applied } => {
                out.put_u8(1);
                out.put_f64(weighted);
                out.put_usize(applied);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<PromoterState, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(PromoterState::Stateless),
            1 => Ok(PromoterState::Diversity {
                weighted: r.get_f64()?,
                applied: r.get_usize()?,
            }),
            t => Err(SnapshotError::Malformed(format!("promoter state tag {t}"))),
        }
    }
}

/// Decides whether an upcoming story should be promoted right now.
///
/// `Send + Sync` so a finished [`Sim`](crate::Sim) can be shared
/// across threads (e.g. a `OnceLock` in the bench harness);
/// promoters are stateless decision rules — per-story *incremental*
/// state lives in a caller-owned [`PromoterState`].
pub(crate) trait Promoter: Send + Sync {
    /// Returns `true` when `story` should move to the front page.
    /// `graph` is the watch graph at decision time (Digg's algorithm
    /// had access to the live network).
    fn should_promote(&self, story: &Story, graph: &SocialGraph, now: Minute) -> bool;

    /// Fresh per-story state for the incremental
    /// [`should_promote_with`](Promoter::should_promote_with) path.
    fn new_state(&self) -> PromoterState {
        PromoterState::Stateless
    }

    /// Incremental promotion check: fold only the votes `state` has
    /// not seen yet, then decide. Must return exactly what
    /// [`should_promote`](Promoter::should_promote) returns on the
    /// same story — stateless rules simply delegate. The
    /// batch-vs-incremental reference tests in this module
    /// (`incremental_state_matches_batch_at_every_prefix`,
    /// `incremental_state_catches_up_over_multi_vote_gaps`) hold the
    /// two answers against each other.
    fn should_promote_with(
        &self,
        _state: &mut PromoterState,
        story: &Story,
        graph: &SocialGraph,
        now: Minute,
    ) -> bool {
        self.should_promote(story, graph, now)
    }
}

/// Promote at a raw vote-count threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ThresholdPromoter {
    /// Votes required (43 reproduces the paper's boundary).
    pub min_votes: usize,
}

impl Promoter for ThresholdPromoter {
    fn should_promote(&self, story: &Story, _graph: &SocialGraph, _now: Minute) -> bool {
        story.vote_count() >= self.min_votes
    }
}

/// Promote at a *diversity-weighted* vote threshold: the `k`-th vote
/// counts `in_network_weight` (< 1) if the voter was a fan of any
/// earlier voter (or the submitter), else 1. The submitter's implicit
/// vote counts 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DiversityPromoter {
    /// Required weighted sum.
    pub min_weighted: f64,
    /// Weight of an in-network vote, in `[0, 1]`.
    pub in_network_weight: f64,
}

impl DiversityPromoter {
    /// The weighted vote sum for a story under this rule.
    ///
    /// Single pass: vote `k` is in-network iff one of the voter's
    /// friends voted at a position `< k` — a probe of the voter's
    /// friend row against the story's position index, replacing the
    /// per-vote clone of the growing prior-voter list (O(votes²)
    /// allocation) the rule used to make. The addition order is the
    /// vote order either way, so the f64 sum is bit-identical.
    pub(crate) fn weighted_votes(&self, story: &Story, graph: &SocialGraph) -> f64 {
        let mut state = PromoterState::Diversity {
            weighted: 0.0,
            applied: 0,
        };
        self.fold_new_votes(&mut state, story, graph)
    }

    /// Fold the votes `state` has not seen yet; returns the weighted
    /// sum over the story's full current vote list. O(Σ friend-degree
    /// of the *new* voters); the partial sums pass through exactly the
    /// additions a from-scratch [`weighted_votes`](Self::weighted_votes)
    /// performs, so folding in any number of installments yields the
    /// identical f64.
    fn fold_new_votes(&self, state: &mut PromoterState, story: &Story, graph: &SocialGraph) -> f64 {
        let PromoterState::Diversity { weighted, applied } = state else {
            // A mismatched state (another rule's, or stateless) can't
            // be resumed: fold from scratch.
            let mut fresh = PromoterState::Diversity {
                weighted: 0.0,
                applied: 0,
            };
            return self.fold_new_votes(&mut fresh, story, graph);
        };
        // Column scan: the fold touches only voter ids, so walk the
        // dense user column instead of materialising rows.
        let users = story.votes.users();
        while *applied < users.len() {
            let k = *applied;
            let voter = users[k];
            // `voted_before` is position-aware, so catching up on a
            // story that grew by several votes still classifies vote
            // k against exactly the k-prefix.
            let in_network = k > 0
                && graph
                    .friends(voter)
                    .iter()
                    .any(|&f| story.voted_before(f, k));
            *weighted += if in_network {
                self.in_network_weight
            } else {
                1.0 // submitter or out-of-network voter
            };
            *applied += 1;
        }
        *weighted
    }
}

impl Promoter for DiversityPromoter {
    fn should_promote(&self, story: &Story, graph: &SocialGraph, _now: Minute) -> bool {
        self.weighted_votes(story, graph) >= self.min_weighted
    }

    fn new_state(&self) -> PromoterState {
        PromoterState::Diversity {
            weighted: 0.0,
            applied: 0,
        }
    }

    fn should_promote_with(
        &self,
        state: &mut PromoterState,
        story: &Story,
        graph: &SocialGraph,
        _now: Minute,
    ) -> bool {
        self.fold_new_votes(state, story, graph) >= self.min_weighted
    }
}

/// Construct the promoter described by a
/// [`PromoterKind`](crate::config::PromoterKind).
pub(crate) fn from_kind(kind: crate::config::PromoterKind) -> Box<dyn Promoter> {
    match kind {
        crate::config::PromoterKind::Threshold { min_votes } => {
            Box::new(ThresholdPromoter { min_votes })
        }
        crate::config::PromoterKind::Diversity {
            min_weighted,
            in_network_weight,
        } => Box::new(DiversityPromoter {
            min_weighted,
            in_network_weight,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::story::{StoryId, VoteChannel};
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

    #[test]
    fn threshold_counts_raw_votes() {
        let g = fan_graph();
        let p = ThresholdPromoter { min_votes: 3 };
        let s = story_with_votes(&[1, 2]);
        assert!(p.should_promote(&s, &g, Minute(10)));
        let s = story_with_votes(&[1]);
        assert!(!p.should_promote(&s, &g, Minute(10)));
    }

    #[test]
    fn diversity_discounts_in_network_votes() {
        let g = fan_graph();
        let d = DiversityPromoter {
            min_weighted: 3.0,
            in_network_weight: 0.25,
        };
        // Votes by fans 1 and 2 (both in-network): 1 + 0.25 + 0.25.
        let s = story_with_votes(&[1, 2]);
        assert!((d.weighted_votes(&s, &g) - 1.5).abs() < 1e-12);
        assert!(!d.should_promote(&s, &g, Minute(10)));
        // An unconnected voter counts fully: + 1.0 -> 2.5, still short.
        let s = story_with_votes(&[1, 2, 3]);
        assert!((d.weighted_votes(&s, &g) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn diversity_equals_threshold_when_weight_is_one() {
        let g = fan_graph();
        let d = DiversityPromoter {
            min_weighted: 3.0,
            in_network_weight: 1.0,
        };
        let s = story_with_votes(&[1, 2]);
        assert_eq!(d.weighted_votes(&s, &g), 3.0);
        assert!(d.should_promote(&s, &g, Minute(5)));
    }

    #[test]
    fn weighted_votes_bit_identical_to_prior_list_scan() {
        // The pre-refactor definition: clone the prior-voter list per
        // vote and ask is_fan_of_any. The friends-row probe must
        // reproduce its f64 output bit for bit.
        let reference = |d: &DiversityPromoter, story: &Story, graph: &SocialGraph| -> f64 {
            let mut sum = 0.0;
            for (k, v) in story.votes.iter().enumerate() {
                if k == 0 {
                    sum += 1.0;
                    continue;
                }
                let prior: Vec<_> = story.votes.users()[..k].to_vec();
                sum += if graph.is_fan_of_any(v.user, &prior) {
                    d.in_network_weight
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
        let d = DiversityPromoter {
            min_weighted: 10.0,
            in_network_weight: 0.3,
        };
        for voters in [
            vec![],
            vec![1u32],
            vec![3, 2, 1],
            vec![4, 5, 6, 1, 2, 3, 7],
            vec![7, 6, 5, 4, 3, 2, 1],
        ] {
            let s = story_with_votes(&voters);
            assert_eq!(
                d.weighted_votes(&s, &g).to_bits(),
                reference(&d, &s, &g).to_bits(),
                "voters {voters:?}"
            );
        }
    }

    #[test]
    fn incremental_state_matches_batch_at_every_prefix() {
        let g = fan_graph();
        let d = DiversityPromoter {
            min_weighted: 2.5,
            in_network_weight: 0.25,
        };
        let mut s = Story::new(StoryId(0), UserId(0), Minute(0), 0.5);
        let mut state = d.new_state();
        // Check after every vote: the folded decision and running sum
        // must equal a fresh batch recompute of the same story.
        for (i, &v) in [1u32, 2, 3].iter().enumerate() {
            s.add_vote(UserId(v), Minute(i as u64 + 1), VoteChannel::External);
            let incr = d.should_promote_with(&mut state, &s, &g, Minute(10));
            assert_eq!(incr, d.should_promote(&s, &g, Minute(10)), "after vote {v}");
            let PromoterState::Diversity { weighted, applied } = state else {
                panic!("diversity state expected");
            };
            assert_eq!(applied, s.votes.len());
            assert_eq!(weighted.to_bits(), d.weighted_votes(&s, &g).to_bits());
        }
    }

    #[test]
    fn incremental_state_catches_up_over_multi_vote_gaps() {
        let g = fan_graph();
        let d = DiversityPromoter {
            min_weighted: 99.0,
            in_network_weight: 0.25,
        };
        // Apply all votes first, then fold once: the catch-up fold
        // must classify each vote against its own prefix, not the
        // final voter set.
        let s = story_with_votes(&[3, 1, 2]);
        let mut state = d.new_state();
        d.should_promote_with(&mut state, &s, &g, Minute(10));
        let PromoterState::Diversity { weighted, .. } = state else {
            panic!("diversity state expected");
        };
        // 0 submits (1.0); 3 is nobody's fan (1.0); 1 and 2 are fans
        // of 0 (0.25 each): in-network despite 3 voting between.
        assert!((weighted - 2.5).abs() < 1e-12);
        assert_eq!(weighted.to_bits(), d.weighted_votes(&s, &g).to_bits());
    }

    #[test]
    fn stateless_rules_delegate_to_batch() {
        let g = fan_graph();
        let p = ThresholdPromoter { min_votes: 3 };
        assert_eq!(p.new_state(), PromoterState::Stateless);
        let s = story_with_votes(&[1, 2]);
        let mut state = p.new_state();
        assert!(p.should_promote_with(&mut state, &s, &g, Minute(10)));
        assert_eq!(state, PromoterState::Stateless);
        // A diversity fold handed the wrong state falls back cleanly.
        let d = DiversityPromoter {
            min_weighted: 3.0,
            in_network_weight: 1.0,
        };
        let mut wrong = PromoterState::Stateless;
        assert!(d.should_promote_with(&mut wrong, &s, &g, Minute(10)));
    }

    #[test]
    fn from_kind_dispatch() {
        // Submitter plus one in-network fan: two raw votes, 1.5 weighted.
        let g = fan_graph();
        let s = story_with_votes(&[1]);
        let p = from_kind(crate::config::PromoterKind::Threshold { min_votes: 2 });
        assert!(p.should_promote(&s, &g, Minute(10)));
        let p = from_kind(crate::config::PromoterKind::Diversity {
            min_weighted: 2.0,
            in_network_weight: 0.5,
        });
        assert!(!p.should_promote(&s, &g, Minute(10)));
    }
}
