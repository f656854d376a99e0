//! Entropy, information gain and gain ratio for binary-class splits.

/// Binary entropy of a `(positives, total)` split, in bits. Zero for
/// empty or pure sets.
pub(crate) fn entropy(pos: usize, total: usize) -> f64 {
    if total == 0 || pos == 0 || pos == total {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    let q = 1.0 - p;
    -(p * p.log2() + q * q.log2())
}

/// Counts describing a candidate binary split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitCounts {
    /// Positives on the `<= threshold` side.
    pub le_pos: usize,
    /// Total on the `<= threshold` side.
    pub le_total: usize,
    /// Positives on the `>` side.
    pub gt_pos: usize,
    /// Total on the `>` side.
    pub gt_total: usize,
}

impl SplitCounts {
    /// Total instances.
    pub(crate) fn total(&self) -> usize {
        self.le_total + self.gt_total
    }

    /// Total positives.
    pub(crate) fn positives(&self) -> usize {
        self.le_pos + self.gt_pos
    }

    /// Information gain of the split relative to the parent entropy.
    pub(crate) fn information_gain(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        let parent = entropy(self.positives(), n);
        let wl = self.le_total as f64 / n as f64;
        let wg = self.gt_total as f64 / n as f64;
        parent - wl * entropy(self.le_pos, self.le_total) - wg * entropy(self.gt_pos, self.gt_total)
    }

    /// Split information (intrinsic value) of the partition sizes.
    pub(crate) fn split_info(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        let mut s = 0.0;
        for part in [self.le_total, self.gt_total] {
            if part > 0 {
                let w = part as f64 / n as f64;
                s -= w * w.log2();
            }
        }
        s
    }

    /// C4.5's gain ratio: information gain normalised by split info.
    /// Returns 0 when the split is degenerate (one empty side).
    pub(crate) fn gain_ratio(&self) -> f64 {
        let si = self.split_info();
        if si <= 0.0 {
            return 0.0;
        }
        self.information_gain() / si
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(0, 0), 0.0);
        assert_eq!(entropy(0, 10), 0.0);
        assert_eq!(entropy(10, 10), 0.0);
        assert!((entropy(5, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_asymmetric() {
        let e = entropy(1, 10);
        assert!(e > 0.0 && e < 1.0);
        assert!((entropy(1, 10) - entropy(9, 10)).abs() < 1e-12);
    }

    #[test]
    fn perfect_split_gains_full_entropy() {
        // 5 pos left, 5 neg right: gain = parent entropy = 1 bit.
        let s = SplitCounts {
            le_pos: 5,
            le_total: 5,
            gt_pos: 0,
            gt_total: 5,
        };
        assert!((s.information_gain() - 1.0).abs() < 1e-12);
        assert!((s.split_info() - 1.0).abs() < 1e-12);
        assert!((s.gain_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn useless_split_has_zero_gain() {
        // Same class mix on both sides.
        let s = SplitCounts {
            le_pos: 2,
            le_total: 4,
            gt_pos: 3,
            gt_total: 6,
        };
        assert!(s.information_gain().abs() < 1e-12);
    }

    #[test]
    fn degenerate_split_has_zero_ratio() {
        let s = SplitCounts {
            le_pos: 5,
            le_total: 10,
            gt_pos: 0,
            gt_total: 0,
        };
        assert_eq!(s.gain_ratio(), 0.0);
        assert_eq!(s.split_info(), 0.0);
    }

    #[test]
    fn unbalanced_split_penalised_by_ratio() {
        // Two splits with equal gain; the more unbalanced one has the
        // higher split_info denominator... actually split_info is
        // *smaller* for unbalanced partitions, so gain ratio favours
        // them when gain is equal. Verify the relationship concretely.
        let balanced = SplitCounts {
            le_pos: 5,
            le_total: 5,
            gt_pos: 0,
            gt_total: 5,
        };
        let unbalanced = SplitCounts {
            le_pos: 1,
            le_total: 1,
            gt_pos: 4,
            gt_total: 9,
        };
        assert!(balanced.split_info() > unbalanced.split_info());
        assert!(balanced.information_gain() > unbalanced.information_gain());
    }

    #[test]
    fn counts_totals() {
        let s = SplitCounts {
            le_pos: 1,
            le_total: 3,
            gt_pos: 2,
            gt_total: 4,
        };
        assert_eq!(s.total(), 7);
        assert_eq!(s.positives(), 3);
    }
}
