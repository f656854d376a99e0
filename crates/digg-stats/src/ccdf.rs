//! Empirical cumulative distributions.
//!
//! Heavy-tailed claims in the paper ("20% of the stories received
//! fewer than about 500 votes, and twenty percent were very
//! interesting, receiving more than 1500 votes") are statements about
//! the empirical CDF of final vote counts; this module provides that
//! object directly.

/// Empirical distribution of a sample, stored sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample. Returns `None` for empty input or input
    /// containing NaN.
    pub fn new(xs: &[f64]) -> Option<Ecdf> {
        if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Ecdf { sorted })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for a constructed Ecdf).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / n as f64
    }

    /// `P(X > x)` — the complementary CDF plotted on log–log axes for
    /// heavy-tail inspection.
    pub fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Inverse CDF by linear search over order statistics: smallest
    /// sample value `v` with `cdf(v) >= q`. `q` is clamped to `[0,1]`.
    pub fn inverse(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let k = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[k - 1]
    }

    /// The sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_nan_rejected() {
        assert!(Ecdf::new(&[]).is_none());
        assert!(Ecdf::new(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn cdf_step_values() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(9.0), 1.0);
    }

    #[test]
    fn ccdf_complements_cdf() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.ccdf(2.0), 0.5);
        assert_eq!(e.ccdf(4.0), 0.0);
    }

    #[test]
    fn inverse_hits_order_statistics() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.26), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
        assert_eq!(e.inverse(0.0), 10.0);
        assert_eq!(e.inverse(7.0), 40.0); // clamped
    }

    #[test]
    fn len_reports_sample_size() {
        let e = Ecdf::new(&[5.0, 6.0]).unwrap();
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
    }
}
