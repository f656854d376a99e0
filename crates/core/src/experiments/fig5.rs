//! Fig. 5 — the C4.5 decision tree and its 10-fold cross-validation.
//!
//! Paper: tree over `(v10, fans1)` trained on 207 front-page stories;
//! 10-fold CV classifies 174 correctly / 33 wrong (84.1%). The
//! published tree splits on `v10 <= 4` at the root. The result is a
//! view of one [`Fit`], the same fit the §5.2 pipeline scores its
//! holdout with.

use crate::pipeline::PipelineConfig;
use crate::predictor::{fit, Fit};
use crate::table::StoryTable;
use des_core::par::worker_threads;
use digg_data::DiggDataset;
use digg_ml::c45::C45Params;
use digg_ml::tree::Node;
use serde::{Deserialize, Serialize};

/// The experiment's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Stories in the training table (paper: 207).
    pub training_stories: usize,
    /// Positive ("interesting") stories among them.
    pub positives: usize,
    /// The learned tree, rendered.
    pub tree_text: String,
    /// The root split attribute name (paper: v10).
    pub root_attribute: Option<String>,
    /// The root split threshold (paper: 4).
    pub root_threshold: Option<f64>,
    /// Leaves in the learned tree (paper: 4).
    pub leaves: usize,
    /// CV correct (paper: 174).
    pub cv_correct: usize,
    /// CV errors (paper: 33).
    pub cv_errors: usize,
}

impl Fig5Result {
    /// The Fig. 5 summary of one fit.
    pub fn from_fit(fit: &Fit) -> Fig5Result {
        let tree = fit.predictor.tree();
        let (root_attribute, root_threshold) = match &tree.root {
            Node::Split {
                attr, threshold, ..
            } => (Some(tree.attribute_names[*attr].clone()), Some(*threshold)),
            Node::Leaf { .. } => (None, None),
        };
        Fig5Result {
            training_stories: fit.training_stories,
            positives: fit.positives,
            tree_text: tree.render(),
            root_attribute,
            root_threshold,
            leaves: tree.leaf_count(),
            cv_correct: fit.cv.correct(),
            cv_errors: fit.cv.errors(),
        }
    }

    /// Pooled CV accuracy (paper: 0.841).
    pub fn cv_accuracy(&self) -> f64 {
        let n = self.cv_correct + self.cv_errors;
        if n == 0 {
            return 0.0;
        }
        self.cv_correct as f64 / n as f64
    }

    /// Render the summary plus the tree.
    pub fn render(&self) -> String {
        format!(
            "Fig 5: C4.5 over (v10, fans1), threshold {} votes\n  training stories: {} ({} interesting)\n  10-fold CV: {} correct / {} errors (accuracy {:.3}; paper 174/33 = 0.841)\n  root split: {} <= {}\n  tree ({} leaves):\n{}",
            crate::features::INTERESTINGNESS_THRESHOLD,
            self.training_stories,
            self.positives,
            self.cv_correct,
            self.cv_errors,
            self.cv_accuracy(),
            self.root_attribute.as_deref().unwrap_or("(leaf)"),
            self.root_threshold
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            self.leaves,
            indent(&self.tree_text, 4),
        )
    }
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines()
        .map(|l| format!("{pad}{l}\n"))
        .collect::<String>()
}

/// Run the experiment on the front-page sample: build the dataset's
/// [`StoryTable`] and make the default §5.2 fit on it ([`fit`], 10
/// folds, threshold
/// [`INTERESTINGNESS_THRESHOLD`](crate::features::INTERESTINGNESS_THRESHOLD))
/// with the tree parameters and CV seed given here.
///
/// Returns `None` when fewer than two stories qualify for training.
pub fn run(ds: &DiggDataset, params: &C45Params, cv_seed: u64) -> Option<Fig5Result> {
    let cfg = PipelineConfig {
        c45: *params,
        cv_seed,
        ..PipelineConfig::default()
    };
    fit(&StoryTable::build(ds, worker_threads()), &cfg).map(|fit| Fig5Result::from_fit(&fit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::{SampleSource, StoryRecord};
    use digg_sim::{Minute, StoryId};
    use social_graph::{GraphBuilder, UserId};

    /// Separable sample: network-heavy early votes -> flop.
    fn ds() -> DiggDataset {
        let mut b = GraphBuilder::new(600);
        for f in 1..=20 {
            b.add_watch(UserId(f), UserId(0));
        }
        let network = b.build();
        let mut front_page = Vec::new();
        for i in 0..15u32 {
            let mut vs = vec![0u32];
            vs.extend(1..=10);
            vs.push(400 + i);
            front_page.push(StoryRecord {
                story: StoryId(i),
                submitter: UserId(0),
                submitted_at: Minute(0),
                voters: vs.into_iter().map(UserId).collect(),
                source: SampleSource::FrontPage,
                final_votes: Some(150 + i),
            });
            let mut vs = vec![0u32];
            vs.extend(300 + 12 * i..300 + 12 * i + 11);
            front_page.push(StoryRecord {
                story: StoryId(100 + i),
                submitter: UserId(0),
                submitted_at: Minute(0),
                voters: vs.into_iter().map(UserId).collect(),
                source: SampleSource::FrontPage,
                final_votes: Some(1500 + i),
            });
        }
        DiggDataset {
            scraped_at: Minute(10),
            front_page,
            upcoming: vec![],
            network,
            top_users: vec![UserId(0)],
        }
    }

    #[test]
    fn learns_v10_root_split() {
        let r = run(&ds(), &C45Params::default(), 5).expect("trainable");
        assert_eq!(r.training_stories, 30);
        assert_eq!(r.positives, 15);
        assert_eq!(r.root_attribute.as_deref(), Some("v10"));
        // Separating threshold lies between 0 and 10 in-network votes.
        let t = r.root_threshold.unwrap();
        assert!((0.0..10.0).contains(&t), "threshold {t}");
        assert!(r.cv_accuracy() > 0.9, "accuracy {}", r.cv_accuracy());
        assert!(r.render().contains("10-fold CV"));
    }

    #[test]
    fn untrainable_returns_none() {
        let mut d = ds();
        d.front_page.clear();
        assert!(run(&d, &C45Params::default(), 5).is_none());
    }

    #[test]
    fn accuracy_handles_zero_division() {
        let r = Fig5Result {
            training_stories: 0,
            positives: 0,
            tree_text: String::new(),
            root_attribute: None,
            root_threshold: None,
            leaves: 1,
            cv_correct: 0,
            cv_errors: 0,
        };
        assert_eq!(r.cv_accuracy(), 0.0);
    }
}
