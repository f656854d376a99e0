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
    /// [`StoryFeatures::attribute_names`]. A fixed-size array: the
    /// per-vote verdict path calls this once per arrival, so it must
    /// not heap-allocate.
    pub fn values(&self) -> [f64; 2] {
        [self.v10 as f64, self.fans1 as f64]
    }

    /// Attribute names for the paper's model.
    pub fn attribute_names() -> Vec<&'static str> {
        vec!["v10", "fans1"]
    }

    /// Extended attribute vector for the feature-ablation bench
    /// (ABL1), aligned with [`StoryFeatures::extended_attribute_names`].
    pub fn extended_values(&self) -> [f64; 4] {
        [
            self.v6 as f64,
            self.v10 as f64,
            self.v20 as f64,
            self.fans1 as f64,
        ]
    }

    /// Names for [`extended_values`](Self::extended_values).
    pub fn extended_attribute_names() -> Vec<&'static str> {
        vec!["v6", "v10", "v20", "fans1"]
    }
}

/// How much of the social network the features actually stand on.
///
/// `v10` and `fans1` are computed over *observed* fans; on a degraded
/// scrape (dropped or partial fan lists) a voter with no observed fans
/// contributes zeros that are indistinguishable from a genuinely
/// unwatched user. This summary makes that ambiguity explicit instead
/// of letting it hide inside the feature values: it counts, over a set
/// of records, how many distinct voters have at least one observed fan.
///
/// [`FanCoverage::fraction`] is total — an empty record set reports
/// full coverage (1.0), never `NaN`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FanCoverage {
    /// Distinct in-range voters across the records.
    pub voters_observed: usize,
    /// Of those, voters with at least one observed fan link.
    pub voters_with_fans: usize,
}

impl FanCoverage {
    /// Measure coverage of `records` against the (scraped) network.
    pub fn compute<'a>(
        records: impl IntoIterator<Item = &'a StoryRecord>,
        graph: &SocialGraph,
    ) -> FanCoverage {
        let mut seen = std::collections::HashSet::new();
        let mut cov = FanCoverage::default();
        for r in records {
            for &v in &r.voters {
                if v.index() < graph.user_count() && seen.insert(v) {
                    cov.voters_observed += 1;
                    if graph.fan_count(v) > 0 {
                        cov.voters_with_fans += 1;
                    }
                }
            }
        }
        cov
    }

    /// Covered fraction in `[0, 1]`; 1.0 when no voters were observed
    /// (nothing is known to be missing), never `NaN`.
    pub fn fraction(&self) -> f64 {
        if self.voters_observed == 0 {
            1.0
        } else {
            self.voters_with_fans as f64 / self.voters_observed as f64
        }
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
    build_training_set_with(
        records,
        graph,
        threshold,
        crate::story_metrics::worker_threads(),
    )
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
    let features = crate::story_metrics::sweep_map(graph, records, threads, |sweeper, r| {
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
        assert_eq!(
            f.extended_values().len(),
            StoryFeatures::extended_attribute_names().len()
        );
        assert_eq!(f.values()[0], f.v10 as f64);
        assert_eq!(f.values()[1], f.fans1 as f64);
    }

    #[test]
    fn fan_coverage_is_total_and_counts_distinct_voters() {
        let g = graph();
        // Voters 0..10: only 1..=5 have fans (they don't — they ARE
        // fans of 0; only user 0 has fans). Voters are 0..10; user 0
        // has 5 fans, users 1..10 have none.
        let records = vec![record(10, None), record(10, None)];
        let cov = FanCoverage::compute(&records, &g);
        assert_eq!(cov.voters_observed, 10);
        assert_eq!(cov.voters_with_fans, 1);
        assert_eq!(cov.fraction(), 0.1);
        // Empty set: full coverage by definition, never NaN.
        let empty = FanCoverage::compute(std::iter::empty(), &g);
        assert_eq!(empty.fraction(), 1.0);
        assert!(empty.fraction().is_finite());
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
