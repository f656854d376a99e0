//! Property-based tests for the decision-tree learner.

use digg_ml::baselines::{Classifier, MajorityClass};
use digg_ml::c45::{train, C45Params};
use digg_ml::crossval::{cross_validate, stratified_folds};
use digg_ml::data::{Instance, MlDataset};
use digg_ml::prune::pessimistic_errors;
use proptest::prelude::*;

fn dataset_strategy() -> impl Strategy<Value = MlDataset> {
    prop::collection::vec(((0.0..100.0f64, 0.0..100.0f64), any::<bool>()), 4..120).prop_map(
        |rows| {
            let mut ds = MlDataset::new(vec!["a", "b"]);
            for ((x, y), label) in rows {
                ds.push(Instance::new(vec![x, y], label));
            }
            ds
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unpruned_tree_never_loses_to_majority_on_training_data(ds in dataset_strategy()) {
        let tree = train(&ds, &C45Params { min_leaf: 2, confidence: None });
        let tree_acc = tree.evaluate(&ds).accuracy();
        let maj_acc = MajorityClass::fit(&ds).evaluate(&ds).accuracy();
        prop_assert!(tree_acc >= maj_acc - 1e-12);
    }

    #[test]
    fn leaf_counts_partition_training_data(ds in dataset_strategy()) {
        let tree = train(&ds, &C45Params { min_leaf: 2, confidence: None });
        prop_assert_eq!(tree.root.training_total(), ds.len());
        prop_assert!(tree.root.training_errors() <= ds.len());
    }

    #[test]
    fn pruning_never_grows_the_tree(ds in dataset_strategy()) {
        let unpruned = train(&ds, &C45Params { min_leaf: 2, confidence: None });
        let pruned = train(&ds, &C45Params { min_leaf: 2, confidence: Some(0.25) });
        prop_assert!(pruned.leaf_count() <= unpruned.leaf_count());
        prop_assert!(pruned.depth() <= unpruned.depth());
        // Pruning preserves the training partition size.
        prop_assert_eq!(pruned.root.training_total(), ds.len());
    }

    #[test]
    fn prediction_is_total(ds in dataset_strategy(), x in -1e3..1e3f64, y in -1e3..1e3f64) {
        let tree = train(&ds, &C45Params::default());
        // Any finite input gets some prediction without panicking.
        let _ = tree.predict(&[x, y]);
    }

    #[test]
    fn rendering_mentions_every_leaf(ds in dataset_strategy()) {
        let tree = train(&ds, &C45Params::default());
        let rendered = tree.render();
        let leaves = rendered.matches('(').count();
        prop_assert_eq!(leaves, tree.leaf_count());
    }

    #[test]
    fn pessimistic_bound_dominates_observed(errors in 0usize..50, extra in 0usize..100) {
        let total = errors + extra.max(1);
        let e = pessimistic_errors(errors, total, 0.25);
        prop_assert!(e + 1e-9 >= errors as f64);
        prop_assert!(e <= total as f64 + 1e-9);
    }

    #[test]
    fn folds_cover_and_balance(ds in dataset_strategy(), k in 2usize..6, seed in any::<u64>()) {
        let folds = stratified_folds(&ds, k, seed);
        prop_assert_eq!(folds.len(), ds.len());
        prop_assert!(folds.iter().all(|&f| f < k));
        let mut counts = vec![0usize; k];
        for &f in &folds { counts[f] += 1; }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        // Round-robin dealing keeps folds within 2 of each other.
        prop_assert!(max - min <= 2, "unbalanced folds {counts:?}");
    }

    #[test]
    fn cross_validation_sees_each_example_once(ds in dataset_strategy(), seed in any::<u64>()) {
        let cm = cross_validate(&ds, 4, seed, |t, _| train(t, &C45Params::default()));
        prop_assert_eq!(cm.total(), ds.len());
        prop_assert_eq!(cm.correct() + cm.errors(), ds.len());
    }

}
