//! One story table per dataset: every per-story quantity the paper's
//! analysis reads, from one sweep of each story.
//!
//! Fig. 3, Fig. 4, the training table under [`crate::predictor::fit`],
//! the §5.2 holdout and the feature and window ablations all read where
//! a story's early votes came from: its in-network count within the
//! first `n` votes, its Friends-interface influence at a few
//! checkpoints, and its submitter's fans. [`StoryTable::build`] sweeps
//! each story once, truncated to the widest window any reader needs,
//! and stores those columns; the readers never touch a voter list.

use crate::features::{self, StoryFeatures};
use crate::incremental::sweep_map;
use digg_data::{DiggDataset, StoryRecord};
use digg_ml::{Instance, MlDataset};
use serde::Serialize;

/// Post-submitter votes a front-page row covers: the widest window the
/// window ablation (ABL3) trains on, as Digg itself waited for about
/// 40 votes.
pub const DEPTH: usize = 40;

/// One story's columns.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StoryRow {
    /// Entry `n − 1` is the in-network count within the first `n`
    /// post-submitter votes (the paper's `v_n`), for `n` up to the
    /// row's depth ([`DEPTH`] on the front page, 20 for the upcoming
    /// queue) or the story's own post-submitter votes, whichever is
    /// fewer.
    pub in_network: Vec<u32>,
    /// Influence at submission (after the first voter).
    pub influence_at_submission: usize,
    /// Influence after 10 post-submitter votes (11 voters).
    pub influence_after_10: usize,
    /// Influence after 20 post-submitter votes (21 voters).
    pub influence_after_20: usize,
    /// Fans of the submitter.
    pub fans1: usize,
    /// Scraped voters, submitter included.
    pub voters: usize,
    /// Final vote count, when the augmentation pass saw one.
    pub final_votes: Option<u32>,
}

impl StoryRow {
    /// Whether the story has at least `n` post-submitter votes: the
    /// full window `v_n` needs.
    pub fn has_window(&self, n: usize) -> bool {
        self.voters > n
    }

    /// The paper's `v_n`: in-network votes among the first `n`
    /// post-submitter votes (all of them if the story is shorter).
    /// `n` must not exceed the row's depth.
    pub fn in_network_within(&self, n: usize) -> usize {
        features::in_network_within(&self.in_network, n)
    }

    /// The learner's features. `None` below the paper's minimum
    /// observation window of 10 post-submitter votes.
    pub fn features(&self) -> Option<StoryFeatures> {
        StoryFeatures::of(&self.in_network, self.fans1, self.voters)
    }

    /// Whether the story ended above `threshold` votes; `None` without
    /// a final count.
    pub fn is_interesting(&self, threshold: u32) -> Option<bool> {
        self.final_votes.map(|v| v > threshold)
    }
}

/// A dataset's story table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StoryTable {
    /// One row per front-page story, in sample order.
    pub front_page: Vec<StoryRow>,
    /// One entry per upcoming story, in sample order: a row when the
    /// story has more than 10 voters (the holdout's feature window),
    /// else `None`.
    pub upcoming: Vec<Option<StoryRow>>,
}

impl StoryTable {
    /// Sweep every front-page story over its first [`DEPTH`]
    /// post-submitter votes and every upcoming story with more than 10
    /// voters over its first 20, in one [`sweep_map`] over `threads`
    /// workers. The table is identical at any thread count.
    pub fn build(ds: &DiggDataset, threads: usize) -> StoryTable {
        let g = &ds.network;
        // Each story with the post-submitter votes its row covers. An
        // upcoming row covers the widest feature window (v20), all the
        // holdout scores; a story too short for the features gets none.
        let stories: Vec<(&StoryRecord, Option<usize>)> = ds
            .front_page
            .iter()
            .map(|r| (r, Some(DEPTH)))
            .chain(
                ds.upcoming
                    .iter()
                    .map(|r| (r, (r.voters.len() > 10).then_some(20))),
            )
            .collect();
        let mut rows = sweep_map(g, &stories, threads, |sw, &(r, depth)| {
            // In-network flags and influence look only backwards, so
            // voters past the depth cannot change any column.
            let s = sw.sweep_story(g, &r.voters[..r.voters.len().min(depth? + 1)]);
            Some(StoryRow {
                in_network: s.cascade().to_vec(),
                influence_at_submission: s.influence_after(1),
                influence_after_10: s.influence_after(11),
                influence_after_20: s.influence_after(21),
                fans1: g.fan_count(r.submitter),
                voters: r.voters.len(),
                final_votes: r.final_votes,
            })
        });
        let upcoming = rows.split_off(ds.front_page.len());
        StoryTable {
            front_page: rows.into_iter().flatten().collect(),
            upcoming,
        }
    }

    /// The front-page stories the paper trains on (at least 10
    /// post-submitter votes and a known final count): their features
    /// and whether they ended above `threshold` votes, in sample order.
    pub fn labelled(&self, threshold: u32) -> impl Iterator<Item = (StoryFeatures, bool)> + '_ {
        self.front_page
            .iter()
            .filter_map(move |r| Some((r.features()?, r.is_interesting(threshold)?)))
    }

    /// The paper's training table: one `(v10, fans1)` instance per
    /// [`labelled`](StoryTable::labelled) story.
    pub fn training_set(&self, threshold: u32) -> MlDataset {
        let mut ml = MlDataset::new(StoryFeatures::attribute_names());
        for (f, label) in self.labelled(threshold) {
            ml.push(Instance::new(f.values().to_vec(), label));
        }
        ml
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::INTERESTINGNESS_THRESHOLD;
    use digg_data::SampleSource;
    use digg_sim::{Minute, StoryId};
    use social_graph::{GraphBuilder, UserId};

    fn record(n_voters: usize, fin: Option<u32>) -> StoryRecord {
        StoryRecord {
            story: StoryId(0),
            submitter: UserId(0),
            submitted_at: Minute(0),
            voters: (0..n_voters as u32).map(UserId).collect(),
            source: SampleSource::FrontPage,
            final_votes: fin,
        }
    }

    fn table(front_page: Vec<StoryRecord>, upcoming: Vec<StoryRecord>) -> StoryTable {
        let mut b = GraphBuilder::new(60);
        // Users 1..=5 are fans of 0.
        for f in 1..=5 {
            b.add_watch(UserId(f), UserId(0));
        }
        let ds = DiggDataset {
            scraped_at: Minute(0),
            front_page,
            upcoming,
            network: b.build(),
            top_users: vec![UserId(0)],
        };
        StoryTable::build(&ds, 2)
    }

    #[test]
    fn rows_stop_at_their_depth() {
        let t = table(
            vec![record(60, None), record(11, None), record(10, None)],
            vec![record(60, None), record(10, None)],
        );
        assert_eq!(t.front_page[0].in_network.len(), DEPTH);
        // Voters 1..=5 are fans of submitter 0: in-network.
        let f = t.front_page[1].features().unwrap();
        assert_eq!(
            (f.v6, f.v10, f.v20, f.fans1, f.scraped_votes),
            (5, 5, 5, 5, 11)
        );
        assert_eq!(t.front_page[2].in_network_within(30), 5);
        assert!(t.front_page[2].features().is_none());
        assert_eq!(t.upcoming[0].as_ref().unwrap().in_network.len(), 20);
        assert!(t.upcoming[1].is_none());
    }

    #[test]
    fn training_set_filters_and_labels() {
        let t = table(
            vec![
                record(15, Some(600)), // kept, interesting
                record(15, Some(100)), // kept, not interesting
                record(5, Some(999)),  // too few votes
                record(15, None),      // unaugmented
            ],
            vec![],
        );
        let ds = t.training_set(INTERESTINGNESS_THRESHOLD);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.positives(), 1);
        assert_eq!(ds.attribute_names(), &["v10", "fans1"]);
    }
}
