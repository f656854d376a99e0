//! Property tests for the incremental vote-apply state machine: after
//! applying the first `k` votes, [`IncrementalSweep`] must hold exactly
//! the state a fresh batch sweep over the `k`-prefix computes —
//! counters, features and verdict — on arbitrary graphs and voter
//! orders, at 1, 2 and 8 worker threads.

use digg_core::features::StoryFeatures;
use digg_core::predictor::fig5_predictor;
use digg_core::IncrementalSweep;
use digg_data::{SampleSource, StoryRecord};
use proptest::prelude::*;
use social_graph::{GraphBuilder, SocialGraph, UserId};
use std::collections::HashSet;

const N: u32 = 24;

fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    prop::collection::vec((0u32..N, 0u32..N), 0..150).prop_map(|edges| {
        let mut b = GraphBuilder::new(N as usize);
        for (a, c) in edges {
            b.add_watch(UserId(a), UserId(c));
        }
        b.build()
    })
}

/// Distinct voter lists (submitter first).
fn voters_strategy() -> impl Strategy<Value = Vec<UserId>> {
    prop::collection::vec(0u32..N, 1..20).prop_map(|raw| {
        let mut seen = HashSet::new();
        raw.into_iter()
            .filter(|u| seen.insert(*u))
            .map(UserId)
            .collect()
    })
}

fn record_for(voters: &[UserId]) -> StoryRecord {
    StoryRecord {
        story: digg_sim::StoryId(0),
        submitter: voters[0],
        submitted_at: digg_sim::Minute(0),
        voters: voters.to_vec(),
        source: SampleSource::FrontPage,
        final_votes: None,
    }
}

/// Features of the `k`-prefix via the batch path: truncate the record
/// and extract from scratch.
fn batch_features(g: &SocialGraph, voters: &[UserId], k: usize) -> Option<StoryFeatures> {
    let mut r = record_for(voters);
    r.voters.truncate(k);
    StoryFeatures::extract(&r, g)
}

proptest! {
    /// The tentpole contract: one pass of `apply_vote`, checkpointed
    /// at every prefix, reproduces a from-scratch batch sweep of that
    /// prefix — same flags/cascade/influence vectors, same features,
    /// same verdict.
    #[test]
    fn incremental_state_equals_batch_sweep_at_every_prefix(
        g in graph_strategy(),
        voters in voters_strategy(),
    ) {
        let predictor = fig5_predictor();
        let mut incr = IncrementalSweep::new(&g);
        incr.begin(&g);
        let mut batch = IncrementalSweep::new(&g);
        for k in 1..=voters.len() {
            incr.apply_vote(&g, voters[k - 1]);
            prop_assert_eq!(incr.votes_applied(), k);
            let reference = batch.sweep_story(&g, &voters[..k]);
            prop_assert_eq!(incr.flags(), reference.flags(), "flags at k={}", k);
            prop_assert_eq!(incr.cascade(), reference.cascade(), "cascade at k={}", k);
            prop_assert_eq!(
                incr.influence(),
                reference.influence(),
                "influence at k={}",
                k
            );
            let expected = batch_features(&g, &voters, k);
            prop_assert_eq!(incr.features(), expected.clone(), "features at k={}", k);
            prop_assert_eq!(
                incr.verdict(&predictor),
                expected.map(|f| predictor.predict_features(&f)),
                "verdict at k={}",
                k
            );
        }
    }

    /// `begin` fully erases one story's state before the next: a sweep
    /// over story B after story A equals a sweep over B alone.
    #[test]
    fn begin_isolates_consecutive_stories(
        g in graph_strategy(),
        a in voters_strategy(),
        b in voters_strategy(),
    ) {
        let mut reused = IncrementalSweep::new(&g);
        reused.begin(&g);
        for &v in &a {
            reused.apply_vote(&g, v);
        }
        reused.begin(&g);
        for &v in &b {
            reused.apply_vote(&g, v);
        }
        let mut fresh = IncrementalSweep::new(&g);
        fresh.begin(&g);
        for &v in &b {
            fresh.apply_vote(&g, v);
        }
        prop_assert_eq!(reused.flags(), fresh.flags());
        prop_assert_eq!(reused.cascade(), fresh.cascade());
        prop_assert_eq!(reused.influence(), fresh.influence());
        prop_assert_eq!(reused.features(), fresh.features());
    }

    /// Feature extraction fanned out over many stories is thread-count
    /// invariant. (Per-prefix exactness is the first property above.)
    #[test]
    fn story_features_are_thread_invariant(
        g in graph_strategy(),
        stories in prop::collection::vec(voters_strategy(), 1..8),
    ) {
        let records: Vec<StoryRecord> = stories.iter().map(|v| record_for(v)).collect();
        let run = |threads: usize| {
            digg_core::sweep_map(&g, &records, threads, |sw, r: &StoryRecord| {
                StoryFeatures::extract_with(sw, r, &g).map(|f| f.values())
            })
        };
        let serial = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(run(threads), serial.clone(), "threads={}", threads);
        }
    }
}
