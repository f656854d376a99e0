//! Confusion-matrix evaluation.
//!
//! §5.2 reports its holdout result as `TP=4, TN=32, FP=11, FN=1`;
//! this module is that bookkeeping.

use serde::{Deserialize, Serialize};

/// Binary confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Predicted positive, actually positive.
    pub tp: usize,
    /// Predicted negative, actually negative.
    pub tn: usize,
    /// Predicted positive, actually negative.
    pub fp: usize,
    /// Predicted negative, actually positive.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Record one `(predicted, actual)` pair.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Merge another matrix into this one (used by cross-validation).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.tn += other.tn;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    /// Total examples.
    pub fn total(&self) -> usize {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// Correctly classified examples (the paper's "174 of 207").
    pub fn correct(&self) -> usize {
        self.tp + self.tn
    }

    /// Misclassified examples (the paper's "33").
    pub fn errors(&self) -> usize {
        self.fp + self.fn_
    }

    /// Accuracy (0 for an empty matrix).
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.correct() as f64 / self.total() as f64
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TP={} TN={} FP={} FN={}",
            self.tp, self.tn, self.fp, self.fn_
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_holdout() -> ConfusionMatrix {
        ConfusionMatrix {
            tp: 4,
            tn: 32,
            fp: 11,
            fn_: 1,
        }
    }

    #[test]
    fn paper_numbers_reproduce() {
        let cm = paper_holdout();
        assert_eq!(cm.total(), 48);
        assert_eq!(cm.correct(), 36);
        assert_eq!(cm.errors(), 12);
        assert!((cm.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn record_routes_all_four_cells() {
        let mut cm = ConfusionMatrix::default();
        cm.record(true, true);
        cm.record(true, false);
        cm.record(false, true);
        cm.record(false, false);
        assert_eq!((cm.tp, cm.fp, cm.fn_, cm.tn), (1, 1, 1, 1));
        assert_eq!(cm.to_string(), "TP=1 TN=1 FP=1 FN=1");
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = paper_holdout();
        a.merge(&paper_holdout());
        assert_eq!(a.total(), 96);
        assert_eq!(a.tp, 8);
    }

    #[test]
    fn empty_matrix_has_zero_accuracy() {
        let cm = ConfusionMatrix::default();
        assert_eq!(cm.accuracy(), 0.0);
    }
}
