//! The interestingness predictor (paper §5.2).
//!
//! Two predictors are provided:
//!
//! * [`InterestingnessPredictor::train`] — a C4.5 tree trained on a
//!   front-page sample, the paper's method;
//! * `fig5_rule` — the exact tree the paper published in Fig. 5,
//!   as a fixed classifier, so the published model can be evaluated on
//!   synthetic data directly.

use crate::features::{build_training_set, StoryFeatures};
use digg_data::StoryRecord;
use digg_ml::c45::{train, C45Params};
use digg_ml::crossval::{cross_validate, CrossValResult};
use digg_ml::tree::{DecisionTree, Node};
use social_graph::SocialGraph;

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
    /// Train on augmented front-page records (the paper's 207-story
    /// table). Returns `None` when no record qualifies (fewer than 10
    /// votes or unaugmented).
    pub fn train(
        records: &[StoryRecord],
        graph: &SocialGraph,
        threshold: u32,
        params: &C45Params,
    ) -> Option<InterestingnessPredictor> {
        let (ds, kept) = build_training_set(records, graph, threshold);
        if kept.is_empty() {
            return None;
        }
        Some(InterestingnessPredictor {
            tree: train(&ds, params),
        })
    }

    /// Wrap an existing tree (e.g. [`fig5_rule`]).
    pub(crate) fn from_tree(tree: DecisionTree) -> InterestingnessPredictor {
        InterestingnessPredictor { tree }
    }

    /// Predict directly from features.
    pub fn predict_features(&self, features: &StoryFeatures) -> bool {
        self.tree.predict(&features.values())
    }

    /// The underlying tree.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Stratified k-fold cross-validation on a record set (the paper's
    /// "10-fold validation … correctly classifies 174 of 207").
    pub(crate) fn cross_validate(
        records: &[StoryRecord],
        graph: &SocialGraph,
        threshold: u32,
        params: &C45Params,
        k: usize,
        seed: u64,
    ) -> Option<CrossValResult> {
        let (ds, kept) = build_training_set(records, graph, threshold);
        if kept.len() < k {
            return None;
        }
        Some(cross_validate(&ds, params, k, seed))
    }
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
    InterestingnessPredictor::from_tree(fig5_rule())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::INTERESTINGNESS_THRESHOLD;
    use digg_data::SampleSource;
    use digg_sim::{Minute, StoryId};
    use social_graph::{GraphBuilder, UserId};

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

    #[test]
    fn trained_predictor_learns_the_inverse_pattern() {
        let g = graph();
        let records = training_records();
        let p = InterestingnessPredictor::train(
            &records,
            &g,
            INTERESTINGNESS_THRESHOLD,
            &C45Params::default(),
        )
        .expect("trainable");
        // A new network-driven story -> not interesting.
        let mut vs = vec![0];
        vs.extend(1..=9);
        vs.extend([190, 191]);
        let flop = record(0, vs, 0);
        let predict =
            |r: &StoryRecord| StoryFeatures::extract(r, &g).map(|f| p.predict_features(&f));
        assert_eq!(predict(&flop), Some(false));
        // A new interest-driven story -> interesting.
        let hit = record(100, vec![100, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59], 0);
        assert_eq!(predict(&hit), Some(true));
    }

    #[test]
    fn untrainable_input_returns_none() {
        let g = graph();
        let short = vec![record(0, vec![0, 1], 50)];
        assert!(InterestingnessPredictor::train(&short, &g, 520, &C45Params::default()).is_none());
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

    #[test]
    fn cross_validation_runs_on_trainable_data() {
        let g = graph();
        let records = training_records();
        let cv = InterestingnessPredictor::cross_validate(
            &records,
            &g,
            INTERESTINGNESS_THRESHOLD,
            &C45Params::default(),
            4,
            9,
        )
        .expect("enough data");
        assert_eq!(cv.pooled.total(), records.len());
        // The pattern is separable, so CV accuracy should be high.
        assert!(cv.accuracy() > 0.9, "accuracy {}", cv.accuracy());
    }
}
