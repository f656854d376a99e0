//! The interestingness predictor (paper §5.2).
//!
//! Two predictors are provided:
//!
//! * [`fit`] — the paper's method, fitted once: one training table
//!   from the front-page sample, one C4.5 tree trained on all of it and
//!   one k-fold cross-validation. Fig. 5 ([`crate::experiments::fig5`])
//!   and the §5.2 holdout ([`crate::pipeline`]) both read a [`Fit`];
//! * `fig5_rule` — the exact tree the paper published in Fig. 5,
//!   as a fixed classifier, so the published model can be evaluated on
//!   synthetic data directly.

use crate::features::StoryFeatures;
use crate::pipeline::PipelineConfig;
use crate::table::StoryTable;
use digg_ml::c45::train;
use digg_ml::crossval::cross_validate;
use digg_ml::tree::{DecisionTree, Node};
use digg_ml::ConfusionMatrix;

/// A trained early-vote interestingness predictor.
///
/// # Examples
///
/// Using the paper's published Fig. 5 rule directly:
///
/// ```
/// use digg_core::predictor::fig5_predictor;
/// use digg_core::features::StoryFeatures;
///
/// let predictor = fig5_predictor();
/// let features = StoryFeatures {
///     v6: 1, v10: 2, v20: 3, fans1: 12, scraped_votes: 15,
/// };
/// // Few early in-network votes: predicted interesting.
/// assert!(predictor.predict_features(&features));
/// ```
#[derive(Debug, Clone)]
pub struct InterestingnessPredictor {
    tree: DecisionTree,
}

impl InterestingnessPredictor {
    /// Predict directly from features.
    pub fn predict_features(&self, features: &StoryFeatures) -> bool {
        self.tree.predict(&features.values())
    }

    /// The underlying tree.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }
}

/// One fit of the paper's model on a dataset's front-page sample.
#[derive(Debug, Clone)]
pub struct Fit {
    /// The tree trained on the whole table (paper: Fig. 5).
    pub predictor: InterestingnessPredictor,
    /// Stories in the training table (paper: 207).
    pub training_stories: usize,
    /// Positive ("interesting") stories among them.
    pub positives: usize,
    /// The k-fold CV matrix pooled over the folds (paper: 174 correct,
    /// 33 errors).
    pub cv: ConfusionMatrix,
}

/// Steps 1–2 of §5.2 on a dataset's story table: read the training
/// table once ([`StoryTable::training_set`]: front-page stories with at
/// least 10 post-submitter votes and a known final count, labelled
/// interesting above `cfg.threshold` final votes), train one C4.5 tree
/// with `cfg.c45` on all of it, and cross-validate with `cfg.cv_folds`
/// stratified folds drawn from `cfg.cv_seed`.
///
/// Returns `None` when fewer than two stories qualify: one story
/// cannot be split into a training and a test fold.
pub fn fit(table: &StoryTable, cfg: &PipelineConfig) -> Option<Fit> {
    let training = table.training_set(cfg.threshold);
    if training.len() < 2 {
        return None;
    }
    let params = &cfg.c45;
    Some(Fit {
        predictor: InterestingnessPredictor {
            tree: train(&training, params),
        },
        training_stories: training.len(),
        positives: training.positives(),
        cv: cross_validate(&training, cfg.cv_folds, cfg.cv_seed, |t, _| {
            train(t, params)
        }),
    })
}

/// The exact decision tree of the paper's Fig. 5:
///
/// ```text
/// v10 <= 4: yes (130/5)
/// v10 > 4
/// |  v10 <= 8
/// |  |  fans1 <= 85: no (29/13)
/// |  |  fans1 > 85: yes (30/8)
/// |  v10 > 8: no (18/0)
/// ```
pub(crate) fn fig5_rule() -> DecisionTree {
    DecisionTree {
        attribute_names: vec!["v10".into(), "fans1".into()],
        root: Node::Split {
            attr: 0,
            threshold: 4.0,
            le: Box::new(Node::Leaf {
                label: true,
                total: 130,
                errors: 5,
            }),
            gt: Box::new(Node::Split {
                attr: 0,
                threshold: 8.0,
                le: Box::new(Node::Split {
                    attr: 1,
                    threshold: 85.0,
                    le: Box::new(Node::Leaf {
                        label: false,
                        total: 29,
                        errors: 13,
                    }),
                    gt: Box::new(Node::Leaf {
                        label: true,
                        total: 30,
                        errors: 8,
                    }),
                }),
                gt: Box::new(Node::Leaf {
                    label: false,
                    total: 18,
                    errors: 0,
                }),
            }),
        },
    }
}

/// Convenience: the Fig. 5 rule as a predictor.
pub fn fig5_predictor() -> InterestingnessPredictor {
    InterestingnessPredictor { tree: fig5_rule() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalSweep;
    use digg_data::{DiggDataset, SampleSource, StoryRecord};
    use digg_sim::{Minute, StoryId};
    use social_graph::{GraphBuilder, SocialGraph, UserId};

    fn graph() -> SocialGraph {
        let mut b = GraphBuilder::new(200);
        // Users 1..=9 are fans of 0 (a well-connected submitter);
        // user 100 has no fans.
        for f in 1..=9 {
            b.add_watch(UserId(f), UserId(0));
        }
        b.build()
    }

    fn record(submitter: u32, voters: Vec<u32>, fin: u32) -> StoryRecord {
        StoryRecord {
            story: StoryId(submitter),
            submitter: UserId(submitter),
            submitted_at: Minute(0),
            voters: voters.into_iter().map(UserId).collect(),
            source: SampleSource::FrontPage,
            final_votes: Some(fin),
        }
    }

    /// Stories by user 0 gather fan votes and flop; stories by user
    /// 100 gather outsider votes and soar.
    fn training_records() -> Vec<StoryRecord> {
        let mut out = Vec::new();
        for i in 0..12 {
            // Network-driven flop: voters 1..=9 are fans.
            let mut vs = vec![0];
            vs.extend(1..=9);
            vs.extend([150 + i, 160 + i]);
            out.push(record(0, vs, 100 + i));
            // Interest-driven hit: all outsiders.
            let mut vs = vec![100];
            vs.extend((110..121).map(|v| v + i));
            out.push(record(100, vs, 2000 + i));
        }
        out
    }

    fn dataset(front_page: Vec<StoryRecord>) -> DiggDataset {
        DiggDataset {
            scraped_at: Minute(0),
            front_page,
            upcoming: vec![],
            network: graph(),
            top_users: vec![UserId(0)],
        }
    }

    fn fit_default(ds: &DiggDataset) -> Option<Fit> {
        let cfg = PipelineConfig {
            cv_folds: 4,
            cv_seed: 9,
            ..PipelineConfig::default()
        };
        fit(&StoryTable::build(ds, 2), &cfg)
    }

    #[test]
    fn fitted_predictor_learns_the_inverse_pattern() {
        let ds = dataset(training_records());
        let f = fit_default(&ds).expect("trainable");
        assert_eq!((f.training_stories, f.positives), (24, 12));
        let p = &f.predictor;
        // A new network-driven story -> not interesting.
        let mut vs = vec![0];
        vs.extend(1..=9);
        vs.extend([190, 191]);
        let flop = record(0, vs, 0);
        let mut sweep = IncrementalSweep::new(&ds.network);
        let mut predict = |r: &StoryRecord| sweep.sweep_story(&ds.network, &r.voters).verdict(p);
        assert_eq!(predict(&flop), Some(false));
        // A new interest-driven story -> interesting.
        let hit = record(100, vec![100, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59], 0);
        assert_eq!(predict(&hit), Some(true));
        // Every story is scored once by the CV; the pattern is
        // separable, so its accuracy is high.
        assert_eq!(f.cv.total(), 24);
        assert!(f.cv.accuracy() > 0.9, "accuracy {}", f.cv.accuracy());
    }

    #[test]
    fn fewer_than_two_trainable_stories_return_none() {
        let records = training_records();
        // One post-submitter vote: never trainable.
        let short = record(0, vec![0, 1], 50);
        let stories =
            |rs: &[StoryRecord]| fit_default(&dataset(rs.to_vec())).map(|f| f.training_stories);
        assert_eq!(stories(std::slice::from_ref(&short)), None);
        assert_eq!(stories(&[records[0].clone(), short]), None);
        assert_eq!(stories(&records[..2]), Some(2));
    }

    #[test]
    fn fig5_rule_semantics() {
        let p = fig5_predictor();
        let f = |v10: usize, fans1: usize| StoryFeatures {
            v6: 0,
            v10,
            v20: 0,
            fans1,
            scraped_votes: 11,
        };
        assert!(p.predict_features(&f(0, 0)));
        assert!(p.predict_features(&f(4, 0)));
        assert!(!p.predict_features(&f(9, 1000)));
        assert!(!p.predict_features(&f(6, 85)));
        assert!(p.predict_features(&f(6, 86)));
        assert_eq!(p.tree().leaf_count(), 4);
    }
}
