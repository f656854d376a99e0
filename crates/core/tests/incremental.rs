//! Property tests for the incremental vote-apply state machine: after
//! applying the first `k` votes, [`IncrementalSweep`] must hold exactly
//! the state a fresh batch sweep over the `k`-prefix computes —
//! counters, features and verdict — on arbitrary graphs and voter
//! orders.

use digg_core::predictor::fig5_predictor;
use digg_core::{IncrementalSweep, StoryTable};
use digg_data::{DiggDataset, SampleSource, StoryRecord};
use proptest::prelude::*;
use social_graph::{GraphBuilder, SocialGraph, UserId};
use std::collections::BTreeSet;

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
        let mut seen = BTreeSet::new();
        raw.into_iter()
            .filter(|u| seen.insert(*u))
            .map(UserId)
            .collect()
    })
}

/// The story table of one front-page record per prefix of `voters`:
/// row `k − 1` holds the batch path's view of the `k`-prefix.
fn prefix_table(g: &SocialGraph, voters: &[UserId]) -> StoryTable {
    let front_page = (1..=voters.len())
        .map(|k| StoryRecord {
            story: digg_sim::StoryId(0),
            submitter: voters[0],
            submitted_at: digg_sim::Minute(0),
            voters: voters[..k].to_vec(),
            source: SampleSource::FrontPage,
            final_votes: None,
        })
        .collect();
    let ds = DiggDataset {
        scraped_at: digg_sim::Minute(0),
        front_page,
        upcoming: vec![],
        network: g.clone(),
        top_users: vec![],
    };
    StoryTable::build(&ds, 1)
}

proptest! {
    /// The tentpole contract: one vote per `apply_votes` call, checkpointed
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
        let table = prefix_table(&g, &voters);
        for k in 1..=voters.len() {
            incr.apply_votes(&g, &voters[k - 1..k], |_, _| {});
            let reference = batch.sweep_story(&g, &voters[..k]);
            prop_assert_eq!(incr.flags(), reference.flags(), "flags at k={}", k);
            prop_assert_eq!(incr.cascade(), reference.cascade(), "cascade at k={}", k);
            prop_assert_eq!(
                incr.influence(),
                reference.influence(),
                "influence at k={}",
                k
            );
            let expected = table.front_page[k - 1].features();
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
        reused.apply_votes(&g, &a, |_, _| {});
        reused.begin(&g);
        reused.apply_votes(&g, &b, |_, _| {});
        let mut fresh = IncrementalSweep::new(&g);
        fresh.begin(&g);
        fresh.apply_votes(&g, &b, |_, _| {});
        prop_assert_eq!(reused.flags(), fresh.flags());
        prop_assert_eq!(reused.cascade(), fresh.cascade());
        prop_assert_eq!(reused.influence(), fresh.influence());
        prop_assert_eq!(reused.features(), fresh.features());
    }
}
