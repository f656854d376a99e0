//! Fixed-width histograms and exact integer counts.
//!
//! * Fig. 2(a) and Fig. 3 use fixed-width bins over a linear axis
//!   ([`Histogram`]).
//! * Fig. 2(b) is a log–log plot of per-user activity; the original
//!   figure plots raw `(x, #users with activity x)` points
//!   ([`integer_counts`]).

use std::collections::BTreeMap;

/// A histogram over `[lo, hi)` with equally wide bins.
///
/// # Examples
///
/// ```
/// use digg_stats::histogram::Histogram;
///
/// let h = Histogram::of(0.0, 4000.0, 16, &[120.0, 480.0, 1800.0]);
/// assert_eq!(h.bin_width(), 250.0);
/// assert_eq!(h.series()[0], (125.0, 1)); // 120 in [0, 250)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Observations below `lo`.
    pub underflow: u64,
    /// Observations at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo` — these are programmer
    /// errors in experiment setup, not data conditions.
    pub(crate) fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Convenience: build and fill in one call.
    pub fn of(lo: f64, hi: f64, bins: usize, xs: &[f64]) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Record one observation.
    pub(crate) fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "x is in [lo, hi), so the bin index is in [0, bins] before the clamp below"
            )]
            let mut idx = ((x - self.lo) / w) as usize;
            // Guard against floating-point edge where x is a hair
            // below hi but division rounds up to the bin count.
            if idx >= self.counts.len() {
                idx = self.counts.len() - 1;
            }
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub(crate) fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Count in bin `i`.
    pub(crate) fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All bin counts.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `[lo, hi)` edges of bin `i`.
    pub(crate) fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = self.bin_width();
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }

    /// Centre of bin `i`.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        let (a, b) = self.bin_range(i);
        (a + b) / 2.0
    }

    /// Iterate `(bin_center, count)` pairs — the series a plotting
    /// front-end would consume.
    pub fn series(&self) -> Vec<(f64, u64)> {
        (0..self.bins())
            .map(|i| (self.bin_center(i), self.counts[i]))
            .collect()
    }
}

/// Exact integer frequency table: for each distinct value `x`, how many
/// observations equal `x`. This is precisely the point cloud of
/// Fig. 2(b) ("# users making x submissions/votes").
pub fn integer_counts(xs: &[u64]) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_histogram_places_values() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(0.0);
        h.add(1.9);
        h.add(2.0);
        h.add(9.99);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
    }

    #[test]
    fn linear_histogram_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 1);
        h.add(-0.5);
        h.add(1.0);
        h.add(2.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
    }

    #[test]
    fn linear_histogram_bin_geometry() {
        let h = Histogram::new(0.0, 100.0, 4);
        assert_eq!(h.bin_width(), 25.0);
        assert_eq!(h.bin_range(1), (25.0, 50.0));
        assert_eq!(h.bin_center(0), 12.5);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn integer_counts_tabulates() {
        let m = integer_counts(&[1, 1, 2, 5, 5, 5]);
        assert_eq!(m[&1], 2);
        assert_eq!(m[&2], 1);
        assert_eq!(m[&5], 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn series_lengths_match_bins() {
        let h = Histogram::of(0.0, 4.0, 4, &[0.5, 1.5, 2.5, 3.5]);
        assert_eq!(h.series().len(), 4);
    }
}
