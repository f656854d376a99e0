//! Property-based tests for the cascade/influence analysis: the sweep
//! engine and the story table must agree with brute-force reference
//! versions on arbitrary graphs and voter lists, and the table must not
//! depend on how users are numbered.

use digg_core::experiments::fig3::{Fig3aResult, Fig3bResult};
use digg_core::experiments::fig4::Fig4Result;
use digg_core::features::{StoryFeatures, INTERESTINGNESS_THRESHOLD};
use digg_core::incremental::{IncrementalSweep, VoteApplied};
use digg_core::predictor::{fig5_predictor, InterestingnessPredictor};
use digg_core::table::{StoryTable, DEPTH};
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

/// Brute-force in-network flag: is voter k a fan of any prior voter?
fn brute_in_network(g: &SocialGraph, voters: &[UserId]) -> Vec<bool> {
    (1..voters.len())
        .map(|k| {
            voters[..k]
                .iter()
                .any(|&prior| g.fans(prior).contains(&voters[k]))
        })
        .collect()
}

/// Brute-force influence: users (not yet voters) who are fans of any
/// of the first k voters.
fn brute_influence(g: &SocialGraph, voters: &[UserId], k: usize) -> usize {
    let k = k.min(voters.len());
    let voted: BTreeSet<UserId> = voters[..k].iter().copied().collect();
    let mut audience = BTreeSet::new();
    for u in g.users() {
        if voted.contains(&u) {
            continue;
        }
        if voters[..k].iter().any(|&v| g.watches(u, v)) {
            audience.insert(u);
        }
    }
    audience.len()
}

/// Users in the long-story graph: sparse enough that a 300-voter list
/// repeats voters and mixes in- and out-of-network votes.
const LONG_N: u32 = 400;

/// `sweep_story` applies votes in blocks of 64 after a gather pass
/// over each block; these story lengths straddle the block edges
/// (block − 1, block, block + 1 and 3·block + 7).
const BLOCK_EDGES: [usize; 4] = [63, 64, 65, 199];

fn long_graph_strategy() -> impl Strategy<Value = SocialGraph> {
    prop::collection::vec((0u32..LONG_N, 0u32..LONG_N), 0..3_000).prop_map(|edges| {
        let mut b = GraphBuilder::new(LONG_N as usize);
        for (a, c) in edges {
            b.add_watch(UserId(a), UserId(c));
        }
        b.build()
    })
}

/// Voter lists of 0–300 entries, repeats kept.
fn long_voters_strategy() -> impl Strategy<Value = Vec<UserId>> {
    prop::collection::vec((0u32..LONG_N).prop_map(UserId), 0..=300)
}

/// The three output columns of `begin` + one `apply_votes` call per
/// voter, each gathering only its own fan row.
fn per_vote_walk(g: &SocialGraph, voters: &[UserId]) -> (Vec<bool>, Vec<u32>, Vec<u32>) {
    let mut incr = IncrementalSweep::new(g);
    incr.begin(g);
    for v in voters {
        incr.apply_votes(g, std::slice::from_ref(v), |_, _| {});
    }
    (
        incr.flags().to_vec(),
        incr.cascade().to_vec(),
        incr.influence().to_vec(),
    )
}

/// What a live reader sees after one vote: the vote's report, the
/// three output columns, the features and the Fig. 5 verdict.
type PrefixState = (
    VoteApplied,
    (Vec<bool>, Vec<u32>, Vec<u32>),
    Option<StoryFeatures>,
    Option<bool>,
);

fn prefix_state(
    s: &IncrementalSweep,
    applied: VoteApplied,
    p: &InterestingnessPredictor,
) -> PrefixState {
    (
        applied,
        (
            s.flags().to_vec(),
            s.cascade().to_vec(),
            s.influence().to_vec(),
        ),
        s.features(),
        s.verdict(p),
    )
}

/// A dataset over `g` whose front page and upcoming queue both hold
/// one record per `(voters, final count)` story.
fn dataset(g: &SocialGraph, stories: &[(Vec<UserId>, u32)]) -> DiggDataset {
    let records: Vec<StoryRecord> = stories
        .iter()
        .enumerate()
        .map(|(i, (voters, fin))| StoryRecord {
            story: digg_sim::StoryId(i as u32),
            submitter: voters[0],
            submitted_at: digg_sim::Minute(0),
            voters: voters.clone(),
            source: SampleSource::FrontPage,
            final_votes: Some(*fin),
        })
        .collect();
    DiggDataset {
        scraped_at: digg_sim::Minute(0),
        front_page: records.clone(),
        upcoming: records,
        network: g.clone(),
        top_users: vec![],
    }
}

/// Stories of 1–300 voters (repeats kept; the submitter first), each
/// with a final count on either side of the interestingness threshold.
fn stories_strategy() -> impl Strategy<Value = Vec<(Vec<UserId>, u32)>> {
    let voters = prop::collection::vec((0u32..LONG_N).prop_map(UserId), 1..=300);
    prop::collection::vec((voters, 0u32..1500), 1..5)
}

/// Cut points on the block edges that a micro-batched feed may split
/// at; bit `i` of a mask selects `EDGE_CUTS[i]`.
const EDGE_CUTS: [usize; 5] = [63, 64, 65, 128, 129];

proptest! {
    #[test]
    fn micro_batched_feeds_match_the_per_vote_walk_after_every_vote(
        g in long_graph_strategy(),
        voters in long_voters_strategy(),
        random_cuts in prop::collection::vec(0usize..=300, 0..8),
        edge_mask in 0u32..32
    ) {
        let p = fig5_predictor();
        // The reference: `begin`, then one `apply_votes` call per voter.
        let mut walk = IncrementalSweep::new(&g);
        walk.begin(&g);
        let mut want: Vec<PrefixState> = Vec::new();
        for v in &voters {
            walk.apply_votes(&g, std::slice::from_ref(v), |s, applied| {
                want.push(prefix_state(s, applied, &p));
            });
        }
        // The feed: the same voters, split at the cuts, each piece
        // one `apply_votes` call continuing from the last.
        let edge_cuts = EDGE_CUTS
            .iter()
            .enumerate()
            .filter(|&(i, _)| edge_mask & (1 << i) != 0)
            .map(|(_, &c)| c);
        let mut cuts: Vec<usize> = random_cuts.into_iter().chain(edge_cuts).collect();
        cuts.push(voters.len());
        cuts.retain(|&c| c <= voters.len());
        cuts.sort_unstable();
        let mut live = IncrementalSweep::new(&g);
        live.begin(&g);
        let mut seen = Vec::new();
        let mut from = 0;
        for cut in cuts {
            live.apply_votes(&g, &voters[from..cut], |s, applied| {
                seen.push(prefix_state(s, applied, &p));
            });
            from = cut;
        }
        prop_assert_eq!(seen.len(), voters.len());
        for (k, (got, want)) in seen.iter().zip(&want).enumerate() {
            prop_assert_eq!(got, want, "after vote {}", k + 1);
        }
    }

    #[test]
    fn long_sweeps_match_the_per_vote_walk_across_block_edges(
        g in long_graph_strategy(),
        voters in long_voters_strategy()
    ) {
        let mut sweep = IncrementalSweep::new(&g);
        let edges = BLOCK_EDGES.iter().copied().filter(|&n| n <= voters.len());
        for n in edges.chain([voters.len()]) {
            let story = &voters[..n];
            let s = sweep.sweep_story(&g, story);
            let batch = (s.flags().to_vec(), s.cascade().to_vec(), s.influence().to_vec());
            prop_assert_eq!(&batch, &per_vote_walk(&g, story), "length {}", n);
            prop_assert_eq!(batch.0, brute_in_network(&g, story), "length {}", n);
        }
    }

    #[test]
    fn in_network_flags_match_brute_force(g in graph_strategy(), voters in voters_strategy()) {
        let mut sweep = IncrementalSweep::new(&g);
        let fast = sweep.sweep_story(&g, &voters).flags();
        let brute = brute_in_network(&g, &voters);
        prop_assert_eq!(fast, brute.as_slice());
    }

    #[test]
    fn cumulative_cascade_is_monotone_prefix(g in graph_strategy(), voters in voters_strategy()) {
        let mut sweep = IncrementalSweep::new(&g);
        let s = sweep.sweep_story(&g, &voters);
        let cum = s.cascade();
        prop_assert_eq!(cum.len(), voters.len().saturating_sub(1));
        prop_assert!(cum.windows(2).all(|w| w[0] <= w[1] && w[1] <= w[0] + 1));
        if let Some(&last) = cum.last() {
            prop_assert_eq!(last as usize, s.in_network_count_within(usize::MAX));
        }
    }

    #[test]
    fn influence_matches_brute_force(g in graph_strategy(), voters in voters_strategy(), k in 0usize..25) {
        let mut sweep = IncrementalSweep::new(&g);
        // Influence is a prefix property: the full sweep and a sweep of
        // the first k voters agree at k.
        let full = sweep.sweep_story(&g, &voters).influence_after(k);
        prop_assert_eq!(full, brute_influence(&g, &voters, k));
        let prefix = sweep.sweep_story(&g, &voters[..k.min(voters.len())]).influence_after(k);
        prop_assert_eq!(prefix, full);
    }

    #[test]
    fn influence_trajectory_matches_pointwise(g in graph_strategy(), voters in voters_strategy()) {
        let mut sweep = IncrementalSweep::new(&g);
        let traj = sweep.sweep_story(&g, &voters).influence();
        prop_assert_eq!(traj.len(), voters.len());
        for (k, &v) in traj.iter().enumerate() {
            prop_assert_eq!(v as usize, brute_influence(&g, &voters, k + 1), "at k={}", k);
        }
    }

    #[test]
    fn influence_bounded_by_total_fans(g in graph_strategy(), voters in voters_strategy()) {
        let total_fans: usize = voters.iter().map(|&v| g.fan_count(v)).sum();
        let mut sweep = IncrementalSweep::new(&g);
        let inf = sweep.sweep_story(&g, &voters).influence_after(voters.len());
        prop_assert!(inf <= total_fans);
        prop_assert!(inf <= g.user_count());
    }

    #[test]
    fn spread_profile_is_consistent(g in graph_strategy(), voters in voters_strategy(), w in 1usize..15) {
        let p = digg_core::spread::profile(&g, &voters, w);
        prop_assert_eq!(p.in_network + p.independent_seeds, p.votes);
        prop_assert!(p.votes <= w);
        prop_assert!(p.longest_network_run <= p.in_network);
        prop_assert!((0.0..=1.0).contains(&p.network_fraction()));
    }

    #[test]
    fn story_table_matches_brute_force(
        g in long_graph_strategy(),
        stories in stories_strategy()
    ) {
        let ds = dataset(&g, &stories);
        let table = StoryTable::build(&ds, 2);
        for (i, (voters, fin)) in stories.iter().enumerate() {
            let flags = brute_in_network(&g, &voters[..voters.len().min(DEPTH + 1)]);
            let count = |n: usize| flags.iter().take(n).filter(|&&f| f).count();
            let row = &table.front_page[i];
            for n in 1..=DEPTH {
                prop_assert_eq!(row.in_network_within(n), count(n), "story {} window {}", i, n);
            }
            prop_assert_eq!(row.influence_at_submission, brute_influence(&g, voters, 1));
            prop_assert_eq!(row.influence_after_10, brute_influence(&g, voters, 11));
            prop_assert_eq!(row.influence_after_20, brute_influence(&g, voters, 21));
            prop_assert_eq!(row.fans1, g.fan_count(ds.front_page[i].submitter));
            prop_assert_eq!((row.voters, row.final_votes), (voters.len(), Some(*fin)));
            let want = (voters.len() > 10).then(|| StoryFeatures {
                v6: count(6),
                v10: count(10),
                v20: count(20),
                fans1: row.fans1,
                scraped_votes: voters.len(),
            });
            prop_assert_eq!(row.features(), want);
            // Upcoming rows: only stories with the 10-vote window, over
            // their first 20 post-submitter votes.
            match &table.upcoming[i] {
                None => prop_assert!(voters.len() <= 10, "story {} has no upcoming row", i),
                Some(up) => {
                    prop_assert!(voters.len() > 10);
                    for n in 1..=20 {
                        prop_assert_eq!(up.in_network_within(n), count(n), "upcoming {} window {}", i, n);
                    }
                    prop_assert_eq!(up.features(), want);
                }
            }
        }
    }

    #[test]
    fn relabelling_users_leaves_the_table_unchanged(
        g in long_graph_strategy(),
        stories in stories_strategy(),
        keys in prop::collection::vec(any::<u64>(), LONG_N as usize)
    ) {
        // A permutation of the user ids, applied to the graph and to
        // every voter list.
        let mut perm: Vec<u32> = (0..LONG_N).collect();
        perm.sort_by_key(|&u| keys[u as usize]);
        let relabel = |u: UserId| UserId(perm[u.0 as usize]);
        let mut b = GraphBuilder::new(LONG_N as usize);
        for u in g.users() {
            for &f in g.fans(u) {
                b.add_watch(relabel(f), relabel(u));
            }
        }
        let relabelled: Vec<(Vec<UserId>, u32)> = stories
            .iter()
            .map(|(voters, fin)| (voters.iter().map(|&v| relabel(v)).collect(), *fin))
            .collect();
        let table = StoryTable::build(&dataset(&g, &stories), 2);
        let moved = StoryTable::build(&dataset(&b.build(), &relabelled), 2);
        prop_assert_eq!(&moved, &table);
        let json = |t: &StoryTable| {
            (
                serde_json::to_string(&Fig3aResult::from_table(t)).unwrap(),
                serde_json::to_string(&Fig3bResult::from_table(t)).unwrap(),
                serde_json::to_string(&Fig4Result::from_table(t)).unwrap(),
            )
        };
        prop_assert_eq!(json(&moved), json(&table));
        prop_assert_eq!(
            moved.training_set(INTERESTINGNESS_THRESHOLD),
            table.training_set(INTERESTINGNESS_THRESHOLD)
        );
    }

    #[test]
    fn fig5_rule_is_total_and_matches_thresholds(v10 in 0usize..30, fans1 in 0usize..2000) {
        let p = digg_core::predictor::fig5_predictor();
        let f = digg_core::features::StoryFeatures {
            v6: 0,
            v10,
            v20: 0,
            fans1,
            scraped_votes: 11,
        };
        let predicted = p.predict_features(&f);
        // Replicate the published rule directly.
        let expected = if v10 <= 4 {
            true
        } else if v10 > 8 {
            false
        } else {
            fans1 > 85
        };
        prop_assert_eq!(predicted, expected);
    }
}
