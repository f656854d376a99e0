//! Early-vote feature extraction (paper §5.2).
//!
//! "Each story had three attributes: number of in-network votes within
//! the first ten votes (v10), number of users watching the submitter
//! (fans1) and a boolean attribute indicating whether the story was
//! interesting … if it received more than 520 votes."

use crate::incremental::IncrementalSweep;
use digg_data::StoryRecord;
use digg_ml::{Instance, MlDataset};
use serde::{Deserialize, Serialize};
use social_graph::{SocialGraph, UserId};

/// The paper's interestingness threshold (final votes must *exceed*
/// this). Chosen in §5.1 footnote 3: the 500-vote knee of Fig. 2(a),
/// raised to 520 to keep two borderline stories unambiguous.
pub const INTERESTINGNESS_THRESHOLD: u32 = 520;

/// Whether the story has at least `n` votes beyond the submitter's —
/// the full observation window the `v_n` features need.
pub fn has_enough_votes(voters: &[UserId], n: usize) -> bool {
    voters.len() > n
}

/// Early-vote features of one story.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoryFeatures {
    /// In-network votes within the first 6 post-submitter votes.
    pub v6: usize,
    /// In-network votes within the first 10 (the tree's main input).
    pub v10: usize,
    /// In-network votes within the first 20.
    pub v20: usize,
    /// Fans of the submitter.
    pub fans1: usize,
    /// Votes visible when the features were computed.
    pub scraped_votes: usize,
}

impl StoryFeatures {
    /// Extract features from a scraped record against the (scraped)
    /// social network. Returns `None` when the story has fewer than
    /// 10 post-submitter votes — the paper's minimum observation
    /// window for `v10`.
    pub fn extract(record: &StoryRecord, graph: &SocialGraph) -> Option<StoryFeatures> {
        StoryFeatures::extract_with(&mut IncrementalSweep::new(graph), record, graph)
    }

    /// [`StoryFeatures::extract`] reusing a caller-owned engine — the
    /// batch path: one voter walk per story, no per-story allocation.
    pub fn extract_with(
        sweeper: &mut IncrementalSweep,
        record: &StoryRecord,
        graph: &SocialGraph,
    ) -> Option<StoryFeatures> {
        if !has_enough_votes(&record.voters, 10) {
            return None;
        }
        // v20 is decided by the first 20 post-submitter votes, so the
        // sweep never needs to walk past voters[..21].
        let sweep = sweeper.sweep_story(graph, &record.voters[..record.voters.len().min(21)]);
        Some(StoryFeatures {
            v6: sweep.in_network_count_within(6),
            v10: sweep.in_network_count_within(10),
            v20: sweep.in_network_count_within(20),
            fans1: graph.fan_count(record.submitter),
            scraped_votes: record.voters.len(),
        })
    }

    /// The learner's attribute vector, aligned with
    /// `StoryFeatures::attribute_names`. A fixed-size array: the
    /// per-vote verdict path calls this once per arrival, so it must
    /// not heap-allocate.
    pub fn values(&self) -> [f64; 2] {
        [self.v10 as f64, self.fans1 as f64]
    }

    /// Attribute names for the paper's model.
    pub(crate) fn attribute_names() -> Vec<&'static str> {
        vec!["v10", "fans1"]
    }
}

/// Assemble the paper's training table from augmented records: one
/// instance per story with at least 10 post-submitter votes and a
/// known final count. Returns the dataset and the indices (into
/// `records`) of the retained stories.
pub fn build_training_set(
    records: &[StoryRecord],
    graph: &SocialGraph,
    threshold: u32,
) -> (MlDataset, Vec<usize>) {
    build_training_set_with(records, graph, threshold, des_core::par::worker_threads())
}

/// [`build_training_set`] with an explicit worker-thread count:
/// feature extraction (the sweep) fans out; table assembly stays in
/// record order, so the dataset is identical at any thread count.
pub fn build_training_set_with(
    records: &[StoryRecord],
    graph: &SocialGraph,
    threshold: u32,
    threads: usize,
) -> (MlDataset, Vec<usize>) {
    let features = crate::incremental::sweep_map(graph, records, threads, |sweeper, r| {
        StoryFeatures::extract_with(sweeper, r, graph)
    });
    let mut ds = MlDataset::new(StoryFeatures::attribute_names());
    let mut kept = Vec::new();
    for (i, (r, f)) in records.iter().zip(features).enumerate() {
        let Some(f) = f else { continue };
        let Some(label) = r.is_interesting(threshold) else {
            continue;
        };
        ds.push(Instance::new(f.values().to_vec(), label));
        kept.push(i);
    }
    (ds, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::SampleSource;
    use digg_sim::{Minute, StoryId};
    use social_graph::GraphBuilder;

    #[test]
    fn enough_votes_excludes_submitter() {
        let voters = [UserId(0), UserId(1), UserId(2)];
        assert!(has_enough_votes(&voters, 2));
        assert!(!has_enough_votes(&voters, 3));
        assert!(!has_enough_votes(&[], 0));
    }

    fn graph() -> SocialGraph {
        let mut b = GraphBuilder::new(30);
        // Users 1..=5 are fans of 0.
        for f in 1..=5 {
            b.add_watch(UserId(f), UserId(0));
        }
        b.build()
    }

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

    #[test]
    fn extraction_requires_ten_votes() {
        let g = graph();
        assert!(StoryFeatures::extract(&record(10, None), &g).is_none());
        assert!(StoryFeatures::extract(&record(11, None), &g).is_some());
    }

    #[test]
    fn window_counts_are_nested() {
        let g = graph();
        let f = StoryFeatures::extract(&record(25, None), &g).unwrap();
        // Voters 1..=5 are fans of submitter 0 -> in-network.
        assert_eq!(f.v6, 5);
        assert_eq!(f.v10, 5);
        assert_eq!(f.v20, 5);
        assert!(f.v6 <= f.v10 && f.v10 <= f.v20);
        assert_eq!(f.fans1, 5);
        assert_eq!(f.scraped_votes, 25);
    }

    #[test]
    fn attribute_vectors_align_with_names() {
        let g = graph();
        let f = StoryFeatures::extract(&record(12, None), &g).unwrap();
        assert_eq!(f.values().len(), StoryFeatures::attribute_names().len());
        assert_eq!(f.values()[0], f.v10 as f64);
        assert_eq!(f.values()[1], f.fans1 as f64);
    }

    #[test]
    fn training_set_filters_and_labels() {
        let g = graph();
        let records = vec![
            record(15, Some(600)), // kept, interesting
            record(15, Some(100)), // kept, not interesting
            record(5, Some(999)),  // too few votes
            record(15, None),      // unaugmented
        ];
        let (ds, kept) = build_training_set(&records, &g, INTERESTINGNESS_THRESHOLD);
        assert_eq!(ds.len(), 2);
        assert_eq!(kept, vec![0, 1]);
        assert_eq!(ds.positives(), 1);
        assert_eq!(ds.attribute_names(), &["v10", "fans1"]);
    }
}
