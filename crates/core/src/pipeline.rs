//! The §5.2 train-and-holdout pipeline.
//!
//! Paper procedure:
//!
//! 1. train a C4.5 tree on the (augmented) front-page sample;
//! 2. 10-fold cross-validate on it;
//! 3. build the holdout from the upcoming sample: keep only stories
//!    submitted by top users (rank ≤ 100) that received at least 10
//!    votes (48 stories in the paper);
//! 4. evaluate the tree on the holdout (paper: TP=4 TN=32 FP=11 FN=1);
//! 5. compare precision against Digg itself on the subset Digg
//!    promoted (paper: Digg 5/14 = 0.36 vs classifier 4/7 = 0.57).

use crate::features::{build_training_set, FanCoverage, StoryFeatures};
use crate::incremental::IncrementalSweep;
use crate::predictor::InterestingnessPredictor;
use digg_data::{DiggDataset, StoryRecord};
use digg_ml::c45::C45Params;
use digg_ml::crossval::CrossValResult;
use digg_ml::ConfusionMatrix;
use serde::{Deserialize, Serialize};

/// Pipeline parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// "Interesting" = more than this many final votes (paper: 520).
    pub threshold: u32,
    /// Holdout filter: submitter rank must be ≤ this (paper: 100).
    pub top_user_rank: usize,
    /// Holdout filter: the scraped voter list must be **strictly
    /// longer** than this — i.e. at least `min_votes` votes beyond the
    /// submitter's implicit first vote (paper: 10). A story whose
    /// voter list has exactly `min_votes` entries is excluded.
    pub min_votes: usize,
    /// Tree parameters.
    pub c45: C45Params,
    /// Cross-validation folds (paper: 10).
    pub cv_folds: usize,
    /// Cross-validation fold seed.
    pub cv_seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            threshold: crate::features::INTERESTINGNESS_THRESHOLD,
            top_user_rank: 100,
            min_votes: 10,
            c45: C45Params::default(),
            cv_folds: 10,
            cv_seed: 0x1e12,
        }
    }
}

/// Everything the §5.2 experiment reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Stories used for training (paper: 207).
    pub training_stories: usize,
    /// Cross-validation: correctly classified (paper: 174).
    pub cv_correct: usize,
    /// Cross-validation: misclassified (paper: 33).
    pub cv_errors: usize,
    /// The trained tree, rendered in C4.5 text form (cf. Fig. 5).
    pub tree_text: String,
    /// Holdout size after filtering (paper: 48).
    pub holdout_stories: usize,
    /// Holdout confusion matrix (paper: TP=4 TN=32 FP=11 FN=1).
    pub holdout: ConfusionMatrix,
    /// Stories in the holdout that the platform promoted
    /// (paper: 14).
    pub digg_promoted: usize,
    /// Of those, how many turned out interesting (paper: 5 ⇒
    /// precision 0.36).
    pub digg_promoted_interesting: usize,
    /// Classifier positives among the promoted subset (paper: 7).
    pub classifier_positive_on_promoted: usize,
    /// Of those, how many turned out interesting (paper: 4 ⇒
    /// precision 0.57).
    pub classifier_correct_on_promoted: usize,
}

impl PipelineResult {
    /// Digg's precision on the promoted subset.
    pub fn digg_precision(&self) -> Option<f64> {
        if self.digg_promoted == 0 {
            return None;
        }
        Some(self.digg_promoted_interesting as f64 / self.digg_promoted as f64)
    }

    /// The classifier's precision on the promoted subset.
    pub fn classifier_precision(&self) -> Option<f64> {
        if self.classifier_positive_on_promoted == 0 {
            return None;
        }
        Some(
            self.classifier_correct_on_promoted as f64
                / self.classifier_positive_on_promoted as f64,
        )
    }
}

/// Coverage diagnostics of one pipeline run — how much observed
/// network the training and holdout features stood on, kept separate
/// from [`PipelineResult`] so the paper-shaped payload (and every
/// artifact serialized from it) stays byte-identical when coverage is
/// full.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineCoverage {
    /// Fan coverage over the front-page (training) records.
    pub training: FanCoverage,
    /// Fan coverage over the selected holdout records.
    pub holdout: FanCoverage,
    /// Holdout rows skipped because features could not be extracted
    /// (fewer than 10 post-submitter votes — e.g. a truncated voter
    /// list that still cleared the promotion boundary).
    pub holdout_unextractable: usize,
}

/// A holdout record plus the facts the comparison needs.
struct HoldoutRow<'a> {
    record: &'a StoryRecord,
    promoted_by_digg: bool,
}

/// Select the §5.2 holdout: upcoming stories by top-ranked users with
/// more than `min_votes` scraped voters (submitter included in the
/// list, so this keeps stories with ≥ `min_votes` post-submitter
/// votes). `promoted_after` tells the pipeline which upcoming stories
/// the platform later promoted (from the augmentation pass).
fn select_holdout<'a>(
    ds: &'a DiggDataset,
    cfg: &PipelineConfig,
    promoted_after: &dyn Fn(&StoryRecord) -> bool,
) -> Vec<HoldoutRow<'a>> {
    ds.upcoming
        .iter()
        .filter(|r| r.voters.len() > cfg.min_votes)
        .filter(|r| {
            ds.rank_of(r.submitter)
                .map(|rank| rank <= cfg.top_user_rank)
                .unwrap_or(false)
        })
        .filter(|r| r.final_votes.is_some())
        .map(|record| HoldoutRow {
            record,
            promoted_by_digg: promoted_after(record),
        })
        .collect()
}

/// Run the full §5.2 pipeline.
///
/// `promoted_after(record)` must report whether the platform
/// eventually promoted the story (observable in the paper's Feb-2008
/// pass; in the reproduction it comes from simulator ground truth or
/// from the 43-vote boundary on final counts).
///
/// Returns `None` when the training sample is unusable (no augmented
/// stories with 10+ votes) or the holdout is empty.
pub fn run_pipeline(
    ds: &DiggDataset,
    cfg: &PipelineConfig,
    promoted_after: &dyn Fn(&StoryRecord) -> bool,
) -> Option<PipelineResult> {
    run_pipeline_with_coverage(ds, cfg, promoted_after).map(|(result, _)| result)
}

/// [`run_pipeline`] plus coverage diagnostics: the same
/// [`PipelineResult`] (bit-identical — the coverage measurement never
/// influences training or evaluation) alongside a
/// [`PipelineCoverage`] reporting how much observed network the
/// features stood on. The entry point for degraded datasets: partial
/// fan coverage is accepted and *surfaced*, not silently folded into
/// zero-valued features.
pub fn run_pipeline_with_coverage(
    ds: &DiggDataset,
    cfg: &PipelineConfig,
    promoted_after: &dyn Fn(&StoryRecord) -> bool,
) -> Option<(PipelineResult, PipelineCoverage)> {
    // 1-2. Train + cross-validate on the front-page sample. Fewer
    // than two trainable stories cannot be cross-validated (a 2-fold
    // split would hand C4.5 an empty fold) — report "unusable" instead
    // of panicking; degraded scrapes do reach this.
    let (training, kept) = build_training_set(&ds.front_page, &ds.network, cfg.threshold);
    if kept.len() < 2 {
        return None;
    }
    let cv: CrossValResult = digg_ml::crossval::cross_validate(
        &training,
        &cfg.c45,
        cfg.cv_folds.min(kept.len()).max(2),
        cfg.cv_seed,
    );
    let predictor =
        InterestingnessPredictor::train(&ds.front_page, &ds.network, cfg.threshold, &cfg.c45)?;

    // 3. Holdout.
    let holdout = select_holdout(ds, cfg, promoted_after);
    if holdout.is_empty() {
        return None;
    }

    // 4. Evaluate.
    let mut cm = ConfusionMatrix::default();
    let mut digg_promoted = 0usize;
    let mut digg_promoted_interesting = 0usize;
    let mut clf_pos_on_promoted = 0usize;
    let mut clf_correct_on_promoted = 0usize;
    let mut holdout_unextractable = 0usize;
    let mut sweeper = IncrementalSweep::new(&ds.network);
    for row in &holdout {
        let r = row.record;
        // digg-lint: allow(no-lib-unwrap) — invariant: the holdout was filtered to augmented records three lines up
        let actual = r.is_interesting(cfg.threshold).expect("filtered augmented");
        let Some(f) = StoryFeatures::extract_with(&mut sweeper, r, &ds.network) else {
            holdout_unextractable += 1;
            continue;
        };
        let predicted = predictor.predict_features(&f);
        cm.record(predicted, actual);
        // 5. Promoted-subset comparison.
        if row.promoted_by_digg {
            digg_promoted += 1;
            if actual {
                digg_promoted_interesting += 1;
            }
            if predicted {
                clf_pos_on_promoted += 1;
                if actual {
                    clf_correct_on_promoted += 1;
                }
            }
        }
    }

    let coverage = PipelineCoverage {
        training: FanCoverage::compute(ds.front_page.iter(), &ds.network),
        holdout: FanCoverage::compute(holdout.iter().map(|row| row.record), &ds.network),
        holdout_unextractable,
    };

    Some((
        PipelineResult {
            training_stories: training.len(),
            cv_correct: cv.correct(),
            cv_errors: cv.errors(),
            tree_text: predictor.tree().render(),
            holdout_stories: cm.total(),
            holdout: cm,
            digg_promoted,
            digg_promoted_interesting,
            classifier_positive_on_promoted: clf_pos_on_promoted,
            classifier_correct_on_promoted: clf_correct_on_promoted,
        },
        coverage,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::SampleSource;
    use digg_sim::{Minute, StoryId};
    use social_graph::{GraphBuilder, SocialGraph, UserId};

    /// Build a dataset exhibiting the paper's pattern: top user 0 with
    /// many fans whose stories flop; unconnected users whose stories
    /// soar.
    fn toy_dataset() -> DiggDataset {
        let mut b = GraphBuilder::new(400);
        for f in 1..=20 {
            b.add_watch(UserId(f), UserId(0));
        }
        // Give users 300..310 one fan each so the ranking is defined.
        for (i, u) in (300..310).enumerate() {
            b.add_watch(UserId(200 + i as u32), UserId(u));
        }
        let network: SocialGraph = b.build();
        let top_users = network.users_by_fans_desc();

        let mut front_page = Vec::new();
        let mut story_id = 0u32;
        let mut rec = |submitter: u32, voters: Vec<u32>, fin: u32, source: SampleSource| {
            story_id += 1;
            StoryRecord {
                story: StoryId(story_id),
                submitter: UserId(submitter),
                submitted_at: Minute(story_id as u64),
                voters: voters.into_iter().map(UserId).collect(),
                source,
                final_votes: Some(fin),
            }
        };
        for i in 0..10 {
            // Flops by the top user: fans vote first.
            let mut vs = vec![0];
            vs.extend(1..=10);
            front_page.push(rec(0, vs, 120 + i, SampleSource::FrontPage));
            // Hits by outsiders.
            let mut vs = vec![330 + i];
            vs.extend(100..111);
            front_page.push(rec(330 + i, vs, 1800 + i, SampleSource::FrontPage));
        }
        // Upcoming: submitted by top user 0 (rank 1).
        let mut upcoming = Vec::new();
        // Network-driven, ends uninteresting; was promoted by Digg.
        let mut vs = vec![0];
        vs.extend(1..=12);
        upcoming.push(rec(0, vs, 200, SampleSource::Upcoming));
        // Interest-driven, ends interesting; not promoted.
        let mut vs = vec![0];
        vs.extend(120..132);
        upcoming.push(rec(0, vs, 900, SampleSource::Upcoming));
        DiggDataset {
            scraped_at: Minute(1000),
            front_page,
            upcoming,
            network,
            top_users,
        }
    }

    #[test]
    fn pipeline_reproduces_pattern_end_to_end() {
        let ds = toy_dataset();
        let cfg = PipelineConfig {
            cv_folds: 5,
            ..PipelineConfig::default()
        };
        let result =
            run_pipeline(&ds, &cfg, &|r| r.final_votes.unwrap_or(0) < 500).expect("pipeline runs");
        assert_eq!(result.training_stories, 20);
        // Training data is separable: CV should be near-perfect.
        assert!(result.cv_correct >= 18, "cv_correct {}", result.cv_correct);
        assert_eq!(result.holdout_stories, 2);
        // Network-driven upcoming story predicted boring (TN),
        // interest-driven predicted interesting (TP).
        assert_eq!(result.holdout.tp, 1);
        assert_eq!(result.holdout.tn, 1);
        assert!(result.tree_text.contains("v10"));
    }

    #[test]
    fn promoted_subset_precisions() {
        let ds = toy_dataset();
        let cfg = PipelineConfig {
            cv_folds: 5,
            ..PipelineConfig::default()
        };
        // Mark both holdout stories as promoted by the platform.
        let result = run_pipeline(&ds, &cfg, &|_| true).unwrap();
        assert_eq!(result.digg_promoted, 2);
        assert_eq!(result.digg_promoted_interesting, 1);
        assert_eq!(result.digg_precision(), Some(0.5));
        // Classifier flags only the genuinely interesting one.
        assert_eq!(result.classifier_positive_on_promoted, 1);
        assert_eq!(result.classifier_correct_on_promoted, 1);
        assert_eq!(result.classifier_precision(), Some(1.0));
    }

    #[test]
    fn coverage_variant_returns_identical_result_plus_diagnostics() {
        let ds = toy_dataset();
        let cfg = PipelineConfig {
            cv_folds: 5,
            ..PipelineConfig::default()
        };
        let promoted = |r: &StoryRecord| r.final_votes.unwrap_or(0) < 500;
        let plain = run_pipeline(&ds, &cfg, &promoted).unwrap();
        let (with_cov, coverage) = run_pipeline_with_coverage(&ds, &cfg, &promoted).unwrap();
        // Same payload bit for bit: coverage never influences results.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&with_cov).unwrap()
        );
        assert!(coverage.training.voters_observed > 0);
        assert!((0.0..=1.0).contains(&coverage.training.fraction()));
        assert!((0.0..=1.0).contains(&coverage.holdout.fraction()));
        assert_eq!(coverage.holdout_unextractable, 0);
    }

    #[test]
    fn degraded_network_lowers_reported_coverage() {
        // Strip the entire network: features become all-zero, and the
        // coverage diagnostic must say so instead of leaving the NaN
        // hunt to the caller.
        let mut ds = toy_dataset();
        ds.network = SocialGraph::empty(400);
        let cfg = PipelineConfig {
            cv_folds: 5,
            top_user_rank: usize::MAX, // rank filter needs fan counts
            ..PipelineConfig::default()
        };
        // With no fan links the rank filter can't hold; holdout
        // selection needs rank_of, which uses top_users — keep them.
        let out = run_pipeline_with_coverage(&ds, &cfg, &|_| true);
        if let Some((_, coverage)) = out {
            assert_eq!(coverage.training.voters_with_fans, 0);
            assert_eq!(coverage.training.fraction(), 0.0);
            assert!(coverage.training.fraction().is_finite());
        }
    }

    #[test]
    fn empty_holdout_returns_none() {
        let mut ds = toy_dataset();
        ds.upcoming.clear();
        let cfg = PipelineConfig::default();
        assert!(run_pipeline(&ds, &cfg, &|_| false).is_none());
    }

    #[test]
    fn min_votes_boundary_excludes_exactly_ten_voters() {
        // `min_votes` is a strict bound on the voter-list length: a
        // story whose scraped list has exactly `min_votes` entries
        // (here 10: submitter + 9 votes) is excluded; one with 11
        // entries (10 post-submitter votes) is the smallest kept.
        let mut ds = toy_dataset();
        ds.upcoming.clear();
        let mk = |id: u32, n_voters: u32| {
            let mut vs = vec![0u32];
            vs.extend(1..n_voters);
            StoryRecord {
                story: StoryId(1000 + id),
                submitter: UserId(0),
                submitted_at: Minute(0),
                voters: vs.into_iter().map(UserId).collect(),
                source: SampleSource::Upcoming,
                final_votes: Some(200),
            }
        };
        ds.upcoming.push(mk(0, 10)); // exactly 10 voters: excluded
        ds.upcoming.push(mk(1, 11)); // 11 voters: kept
        let cfg = PipelineConfig {
            cv_folds: 5,
            ..PipelineConfig::default()
        };
        assert_eq!(cfg.min_votes, 10);
        let result = run_pipeline(&ds, &cfg, &|_| false).expect("one holdout story");
        assert_eq!(result.holdout_stories, 1);
    }

    #[test]
    fn rank_filter_excludes_non_top_submitters() {
        let mut ds = toy_dataset();
        // Re-attribute the upcoming stories to an unranked user with
        // zero fans (beyond the rank cutoff).
        for r in &mut ds.upcoming {
            r.submitter = UserId(399);
            r.voters[0] = UserId(399);
        }
        let cfg = PipelineConfig {
            top_user_rank: 5,
            ..PipelineConfig::default()
        };
        assert!(run_pipeline(&ds, &cfg, &|_| false).is_none());
    }
}
