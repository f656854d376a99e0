//! Bootstrap-aggregated ("bagged") C4.5 ensembles.
//!
//! A modern-reader extension to the paper's single J48 tree: train
//! `n` trees on bootstrap resamples of the training data and predict
//! by majority vote. Variance reduction matters on the paper-sized
//! (~200-story) samples where a single tree's structure is unstable
//! across folds.

use crate::baselines::Classifier;
use crate::c45::{train, C45Params};
use crate::data::{Instance, MlDataset};
use crate::tree::DecisionTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bagged ensemble of C4.5 trees.
#[derive(Debug, Clone)]
pub struct BaggedTrees {
    trees: Vec<DecisionTree>,
}

impl BaggedTrees {
    /// Train `n_trees` trees on bootstrap resamples (each the size of
    /// the original set). Resamples whose labels come out single-class
    /// are still trainable (C4.5 returns a leaf).
    ///
    /// # Panics
    ///
    /// Panics if `n_trees == 0` or the dataset is empty.
    pub fn train(ds: &MlDataset, params: &C45Params, n_trees: usize, seed: u64) -> BaggedTrees {
        assert!(n_trees > 0, "need at least one tree");
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = ds.len();
        let trees = (0..n_trees)
            .map(|_| {
                let mut resample = MlDataset::new(ds.attribute_names().to_vec());
                for _ in 0..n {
                    let inst: &Instance = &ds.instances()[rng.random_range(0..n)];
                    resample.push(inst.clone());
                }
                train(&resample, params)
            })
            .collect();
        BaggedTrees { trees }
    }

    /// Fraction of trees voting positive — a calibrated-ish score in
    /// `[0, 1]`.
    pub(crate) fn score(&self, values: &[f64]) -> f64 {
        let pos = self.trees.iter().filter(|t| t.predict(values)).count();
        pos as f64 / self.trees.len() as f64
    }
}

impl Classifier for BaggedTrees {
    fn predict(&self, values: &[f64]) -> bool {
        self.score(values) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds_from(rows: &[(&[f64], bool)]) -> MlDataset {
        let arity = rows[0].0.len();
        let names: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
        let mut ds = MlDataset::new(names);
        for (vals, label) in rows {
            ds.push(Instance::new(vals.to_vec(), *label));
        }
        ds
    }

    fn separable() -> MlDataset {
        let rows: Vec<(Vec<f64>, bool)> = (0..40)
            .map(|i| {
                let pos = i % 2 == 0;
                (vec![if pos { i as f64 } else { 100.0 + i as f64 }], pos)
            })
            .collect();
        let mut ds = MlDataset::new(vec!["x"]);
        for (v, l) in rows {
            ds.push(Instance::new(v, l));
        }
        ds
    }

    #[test]
    fn ensemble_learns_separable_data() {
        let ds = separable();
        let bag = BaggedTrees::train(&ds, &C45Params::default(), 15, 3);
        assert_eq!(bag.trees.len(), 15);
        assert!(bag.predict(&[5.0]));
        assert!(!bag.predict(&[120.0]));
        assert_eq!(bag.evaluate(&ds).errors(), 0);
    }

    #[test]
    fn score_is_a_vote_fraction() {
        let ds = separable();
        let bag = BaggedTrees::train(&ds, &C45Params::default(), 10, 3);
        let s = bag.score(&[5.0]);
        assert!((0.0..=1.0).contains(&s));
        assert!(s > 0.5);
        assert_eq!(bag.trees.len(), 10);
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = separable();
        let a = BaggedTrees::train(&ds, &C45Params::default(), 5, 7);
        let b = BaggedTrees::train(&ds, &C45Params::default(), 5, 7);
        assert_eq!(a.trees, b.trees);
    }

    #[test]
    fn single_class_resamples_are_tolerated() {
        // Tiny dataset: resamples often end up single-class.
        let ds = ds_from(&[(&[1.0], true), (&[9.0], false)]);
        let bag = BaggedTrees::train(
            &ds,
            &C45Params {
                min_leaf: 1,
                confidence: None,
            },
            25,
            1,
        );
        // Prediction still total.
        let _ = bag.predict(&[1.0]);
        let _ = bag.predict(&[9.0]);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let ds = separable();
        let _ = BaggedTrees::train(&ds, &C45Params::default(), 0, 1);
    }
}
