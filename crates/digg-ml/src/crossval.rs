//! Stratified k-fold cross-validation.
//!
//! The paper: "Results of 10-fold validation indicate that this tree
//! correctly classifies 174 of the examples, and misclassifies 33
//! examples." Weka's default 10-fold CV is stratified; so is ours.
//! [`cross_validate`] is the workspace's one fold loop: the learner
//! comes in as a per-fold fit closure, so the C4.5 tree, the bagged
//! ensemble and the naive-Bayes baseline share the same folds.

use crate::baselines::Classifier;
use crate::data::MlDataset;
use crate::metrics::ConfusionMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Deterministic stratified fold assignment: shuffle positives and
/// negatives separately, then deal them round-robin into `k` folds.
/// Returns a fold id per instance.
pub fn stratified_folds(ds: &MlDataset, k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least two folds");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = Vec::new();
    let mut neg: Vec<usize> = Vec::new();
    for (i, inst) in ds.instances().iter().enumerate() {
        if inst.label {
            pos.push(i);
        } else {
            neg.push(i);
        }
    }
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let mut fold = vec![0usize; ds.len()];
    for (j, &i) in pos.iter().chain(neg.iter()).enumerate() {
        fold[i] = j % k;
    }
    fold
}

/// Stratified k-fold cross-validation: for each fold `f`,
/// `fit(training, f)` trains a classifier on the other folds and the
/// fold's examples are scored against it. Returns the confusion matrix
/// pooled over the folds, so every example is scored exactly once.
///
/// `k` is clamped to `[2, n]`, which leaves every training and test
/// fold non-empty. Fewer than two examples cannot be split and give an
/// empty matrix without calling `fit`.
pub fn cross_validate<C: Classifier>(
    ds: &MlDataset,
    k: usize,
    seed: u64,
    mut fit: impl FnMut(&MlDataset, usize) -> C,
) -> ConfusionMatrix {
    let n = ds.len();
    let mut pooled = ConfusionMatrix::default();
    if n < 2 {
        return pooled;
    }
    let k = k.clamp(2, n);
    let fold = stratified_folds(ds, k, seed);
    for f in 0..k {
        let (test_idx, train_idx): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| fold[i] == f);
        let model = fit(&ds.subset(&train_idx), f);
        pooled.merge(&model.evaluate(&ds.subset(&test_idx)));
    }
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c45::{train, C45Params};
    use crate::data::Instance;

    fn c45_cv(ds: &MlDataset, k: usize, seed: u64) -> ConfusionMatrix {
        cross_validate(ds, k, seed, |t, _| train(t, &C45Params::default()))
    }

    fn separable(n: usize) -> MlDataset {
        let mut ds = MlDataset::new(vec!["x"]);
        for i in 0..n {
            let pos = i % 2 == 0;
            let v = if pos {
                i as f64 / n as f64
            } else {
                10.0 + i as f64 / n as f64
            };
            ds.push(Instance::new(vec![v], pos));
        }
        ds
    }

    #[test]
    fn folds_are_balanced_and_stratified() {
        let ds = separable(100);
        let fold = stratified_folds(&ds, 10, 7);
        let mut counts = [0usize; 10];
        let mut pos_counts = [0usize; 10];
        for (i, &f) in fold.iter().enumerate() {
            counts[f] += 1;
            if ds.instances()[i].label {
                pos_counts[f] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 10));
        assert!(pos_counts.iter().all(|&c| c == 5));
    }

    #[test]
    fn folds_are_deterministic_per_seed() {
        let ds = separable(50);
        assert_eq!(stratified_folds(&ds, 5, 1), stratified_folds(&ds, 5, 1));
        assert_ne!(stratified_folds(&ds, 5, 1), stratified_folds(&ds, 5, 2));
    }

    #[test]
    fn cv_on_separable_data_is_perfect() {
        let ds = separable(100);
        let r = c45_cv(&ds, 10, 3);
        assert_eq!(r.correct(), 100);
        assert_eq!(r.errors(), 0);
        assert_eq!(r.accuracy(), 1.0);
        assert_eq!(r.total(), 100);
    }

    #[test]
    fn cv_counts_every_example_once() {
        let ds = separable(83);
        let r = c45_cv(&ds, 10, 3);
        assert_eq!(r.total(), 83);
    }

    #[test]
    fn k_is_clamped_to_two_through_n() {
        let train_sizes = |n: usize, k: usize| {
            let mut sizes = Vec::new();
            let r = cross_validate(&separable(n), k, 3, |t, f| {
                sizes.push((f, t.len()));
                train(t, &C45Params::default())
            });
            assert_eq!(r.total(), if n < 2 { 0 } else { n });
            sizes
        };
        assert_eq!(
            train_sizes(6, 50),
            (0..6).map(|f| (f, 5)).collect::<Vec<_>>()
        );
        assert_eq!(train_sizes(6, 0), [(0, 3), (1, 3)]);
        // Fewer than two examples cannot be split: `fit` never runs.
        assert!(train_sizes(1, 10).is_empty() && train_sizes(0, 10).is_empty());
    }

    #[test]
    fn noisy_data_yields_imperfect_cv() {
        // Random labels: accuracy should be around chance, definitely
        // not perfect.
        let mut ds = MlDataset::new(vec!["x"]);
        let mut state = 123456789u64;
        for i in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ds.push(Instance::new(vec![i as f64], state & 4 == 0));
        }
        let r = c45_cv(&ds, 10, 3);
        assert!(r.errors() > 0);
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn k_must_be_at_least_two() {
        let ds = separable(10);
        let _ = stratified_folds(&ds, 1, 0);
    }
}
