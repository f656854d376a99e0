//! Baseline classifiers.
//!
//! Two baselines bracket the decision tree:
//!
//! * [`MajorityClass`] — the floor any learner must beat;
//! * [`GaussianNb`] — a probabilistic baseline that ignores feature
//!   interactions.

use crate::data::MlDataset;
use crate::metrics::ConfusionMatrix;

/// A trained binary classifier over attribute vectors.
pub trait Classifier {
    /// Predict the class for one attribute vector.
    fn predict(&self, values: &[f64]) -> bool;

    /// Evaluate against a labelled dataset.
    fn evaluate(&self, ds: &MlDataset) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::default();
        for inst in ds.instances() {
            cm.record(self.predict(&inst.values), inst.label);
        }
        cm
    }
}

/// A boxed classifier, so one fit closure can return either of two
/// learners (naive Bayes with its majority-class fallback).
impl<C: Classifier + ?Sized> Classifier for Box<C> {
    fn predict(&self, values: &[f64]) -> bool {
        (**self).predict(values)
    }
}

impl Classifier for crate::tree::DecisionTree {
    fn predict(&self, values: &[f64]) -> bool {
        crate::tree::DecisionTree::predict(self, values)
    }
}

/// Always predicts the majority class of the training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorityClass {
    /// The class predicted for everything.
    pub label: bool,
}

impl MajorityClass {
    /// Fit on a dataset (ties -> positive).
    pub fn fit(ds: &MlDataset) -> MajorityClass {
        let pos = ds.positives();
        MajorityClass {
            label: pos * 2 >= ds.len(),
        }
    }
}

impl Classifier for MajorityClass {
    fn predict(&self, _values: &[f64]) -> bool {
        self.label
    }
}

/// Gaussian naive Bayes: per class and attribute, fit a normal
/// distribution; predict by maximum posterior with the training class
/// prior. A probabilistic baseline that ignores
/// feature interactions — exactly what a decision tree should beat
/// when thresholds interact (the Fig. 5 fans1-inside-v10-band
/// structure).
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNb {
    /// Log prior of the positive class.
    log_prior_pos: f64,
    /// Log prior of the negative class.
    log_prior_neg: f64,
    /// Per-attribute `(mean, variance)` for the positive class.
    pos: Vec<(f64, f64)>,
    /// Per-attribute `(mean, variance)` for the negative class.
    neg: Vec<(f64, f64)>,
}

impl GaussianNb {
    /// Variance floor guarding against constant attributes.
    const MIN_VAR: f64 = 1e-9;

    /// Fit on a dataset. Returns `None` when either class is empty
    /// (no likelihood can be formed).
    pub fn fit(ds: &MlDataset) -> Option<GaussianNb> {
        let n = ds.len();
        let pos_n = ds.positives();
        let neg_n = n - pos_n;
        if pos_n == 0 || neg_n == 0 {
            return None;
        }
        let arity = ds.attribute_count();
        let fit_class = |label: bool| -> Vec<(f64, f64)> {
            (0..arity)
                .map(|a| {
                    let vals: Vec<f64> = ds
                        .instances()
                        .iter()
                        .filter(|i| i.label == label)
                        .map(|i| i.values[a])
                        .collect();
                    let m = vals.iter().sum::<f64>() / vals.len() as f64;
                    let v = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / vals.len() as f64;
                    (m, v.max(Self::MIN_VAR))
                })
                .collect()
        };
        Some(GaussianNb {
            log_prior_pos: (pos_n as f64 / n as f64).ln(),
            log_prior_neg: (neg_n as f64 / n as f64).ln(),
            pos: fit_class(true),
            neg: fit_class(false),
        })
    }

    fn log_likelihood(params: &[(f64, f64)], values: &[f64]) -> f64 {
        params
            .iter()
            .zip(values)
            .map(|(&(m, v), &x)| {
                -0.5 * ((x - m) * (x - m) / v + v.ln() + (2.0 * std::f64::consts::PI).ln())
            })
            .sum()
    }
}

impl Classifier for GaussianNb {
    fn predict(&self, values: &[f64]) -> bool {
        let lp = self.log_prior_pos + Self::log_likelihood(&self.pos, values);
        let ln = self.log_prior_neg + Self::log_likelihood(&self.neg, values);
        lp >= ln
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Instance;

    fn ds_from(rows: &[(&[f64], bool)]) -> MlDataset {
        let arity = rows[0].0.len();
        let names: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
        let mut ds = MlDataset::new(names);
        for (vals, label) in rows {
            ds.push(Instance::new(vals.to_vec(), *label));
        }
        ds
    }

    #[test]
    fn majority_class_fit() {
        let ds = ds_from(&[(&[0.0], true), (&[1.0], true), (&[2.0], false)]);
        let m = MajorityClass::fit(&ds);
        assert!(m.label);
        let cm = m.evaluate(&ds);
        assert_eq!(cm.correct(), 2);
    }

    #[test]
    fn majority_tie_prefers_positive() {
        let ds = ds_from(&[(&[0.0], true), (&[1.0], false)]);
        assert!(MajorityClass::fit(&ds).label);
    }

    #[test]
    fn gaussian_nb_separates_clean_classes() {
        let ds = ds_from(&[
            (&[1.0, 10.0], true),
            (&[2.0, 12.0], true),
            (&[1.5, 11.0], true),
            (&[8.0, 30.0], false),
            (&[9.0, 32.0], false),
            (&[8.5, 31.0], false),
        ]);
        let nb = GaussianNb::fit(&ds).unwrap();
        assert!(nb.predict(&[1.2, 10.5]));
        assert!(!nb.predict(&[8.8, 31.5]));
        assert_eq!(nb.evaluate(&ds).errors(), 0);
    }

    #[test]
    fn gaussian_nb_uses_priors_for_ambiguous_points() {
        // Identical class-conditional distributions (mean 1, var 1),
        // 3:1 prior for positive: the tie breaks on the prior.
        let ds = ds_from(&[
            (&[0.0], true),
            (&[2.0], true),
            (&[0.0], true),
            (&[2.0], true),
            (&[0.0], true),
            (&[2.0], true),
            (&[0.0], false),
            (&[2.0], false),
        ]);
        let nb = GaussianNb::fit(&ds).unwrap();
        assert!(nb.predict(&[1.0]));
        assert!(nb.predict(&[5.0]));
    }

    #[test]
    fn gaussian_nb_requires_both_classes() {
        let ds = ds_from(&[(&[1.0], true), (&[2.0], true)]);
        assert!(GaussianNb::fit(&ds).is_none());
    }

    #[test]
    fn gaussian_nb_handles_constant_attributes() {
        // Zero variance on attribute 0: the floor keeps it finite.
        let ds = ds_from(&[
            (&[5.0, 1.0], true),
            (&[5.0, 2.0], true),
            (&[5.0, 9.0], false),
            (&[5.0, 10.0], false),
        ]);
        let nb = GaussianNb::fit(&ds).unwrap();
        assert!(nb.predict(&[5.0, 1.5]));
        assert!(!nb.predict(&[5.0, 9.5]));
    }
}
