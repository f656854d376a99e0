//! Descriptive statistics: means, variances, medians and quantiles.
//!
//! All functions take slices and are defined for empty input where a
//! sensible value exists (`None` otherwise); nothing panics on empty
//! data. Quantiles use linear interpolation between order statistics
//! (type-7, the default of most statistical packages), which matters
//! when matching the paper's "median and width of the distribution"
//! plots in Fig. 4.

/// Arithmetic mean. Returns `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`). Returns `None` for empty input.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median (50th percentile). Returns `None` for empty input.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile, `q` in `[0, 1]`.
///
/// Uses the "type 7" definition: the quantile of a sorted sample
/// `x[0..n]` at `q` is `x[h]` with `h = q * (n - 1)` interpolated
/// between the two neighbouring order statistics.
///
/// Returns `None` for empty input or `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// Quantile of an already-sorted slice (ascending). See [`quantile`].
///
/// # Panics
///
/// Panics if `xs` is empty (callers arriving here have already
/// validated the input).
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    let n = xs.len();
    if n == 1 {
        return xs[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        let frac = h - lo as f64;
        xs[lo] + (xs[hi] - xs[lo]) * frac
    }
}

/// Five-point summary plus mean and count, the unit of reporting used
/// throughout the experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarise a sample. Returns `None` for empty input.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count: sorted.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }

    /// Range excluding the single highest and lowest observation — the
    /// "width of the distribution (except for the highest and lowest
    /// values)" whiskers drawn in the paper's Fig. 4. For samples of
    /// size ≤ 2 this degenerates to the median.
    pub fn trimmed_range(xs: &[f64]) -> Option<(f64, f64)> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.len() <= 2 {
            let m = quantile_sorted(&sorted, 0.5);
            return Some((m, m));
        }
        Some((sorted[1], sorted[sorted.len() - 2]))
    }
}

/// Fraction of observations strictly below `threshold`.
pub fn fraction_below(xs: &[f64], threshold: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| x < threshold).count() as f64 / xs.len() as f64
}

/// Fraction of observations strictly above `threshold`.
pub fn fraction_above(xs: &[f64], threshold: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| x > threshold).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[4.0, 4.0, 4.0]), Some(0.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantile_endpoints() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), Some(2.5));
    }

    #[test]
    fn quantile_rejects_out_of_range_q() {
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn trimmed_range_drops_extremes() {
        let r = Summary::trimmed_range(&[100.0, 1.0, 2.0, 3.0, 0.0]).unwrap();
        assert_eq!(r, (1.0, 3.0));
    }

    #[test]
    fn trimmed_range_degenerate_small_samples() {
        assert_eq!(Summary::trimmed_range(&[5.0]), Some((5.0, 5.0)));
        assert_eq!(Summary::trimmed_range(&[2.0, 8.0]), Some((5.0, 5.0)));
        assert_eq!(Summary::trimmed_range(&[]), None);
    }

    #[test]
    fn fractions() {
        let xs = [100.0, 400.0, 600.0, 2000.0];
        assert_eq!(fraction_below(&xs, 500.0), 0.5);
        assert_eq!(fraction_above(&xs, 1500.0), 0.25);
        assert_eq!(fraction_below(&[], 1.0), 0.0);
    }
}
