//! Discrete power-law fitting.
//!
//! The paper's future-work section leans on the power-law degree
//! distributions "observed in many real-world networks"; our generated
//! fan graphs must actually be heavy-tailed for the scale-free versus
//! Erdős–Rényi comparison (ABL4) to mean anything. This module implements the
//! standard continuous-approximation MLE for a discrete power law with
//! cutoff `xmin` (Clauset, Shalizi & Newman 2009, eq. 3.7) plus a
//! Kolmogorov–Smirnov distance for goodness-of-fit.

/// Result of a power-law fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Estimated exponent `alpha` (`P(x) ∝ x^-alpha` for `x >= xmin`).
    pub alpha: f64,
    /// Lower cutoff used for the fit.
    pub xmin: u64,
    /// Number of tail observations (`x >= xmin`).
    pub n_tail: usize,
    /// KS distance between the tail's empirical CDF and the fitted
    /// model.
    pub ks: f64,
}

/// MLE exponent for the tail `x >= xmin` using the continuous
/// approximation `alpha = 1 + n / sum(ln(x / (xmin - 0.5)))`.
///
/// Returns `None` if fewer than two observations lie in the tail.
pub(crate) fn fit_alpha(xs: &[u64], xmin: u64) -> Option<PowerLawFit> {
    if xmin == 0 {
        return None;
    }
    let tail: Vec<u64> = xs.iter().copied().filter(|&x| x >= xmin).collect();
    if tail.len() < 2 {
        return None;
    }
    let denom: f64 = tail
        .iter()
        .map(|&x| (x as f64 / (xmin as f64 - 0.5)).ln())
        .sum();
    if denom <= 0.0 {
        return None;
    }
    let alpha = 1.0 + tail.len() as f64 / denom;
    let ks = ks_distance(&tail, xmin, alpha);
    Some(PowerLawFit {
        alpha,
        xmin,
        n_tail: tail.len(),
        ks,
    })
}

/// Fit over a range of candidate `xmin` values, keeping the cutoff that
/// minimises the KS distance (the Clauset et al. selection rule).
pub fn fit_best_xmin(xs: &[u64], xmin_candidates: &[u64]) -> Option<PowerLawFit> {
    xmin_candidates
        .iter()
        .filter_map(|&m| fit_alpha(xs, m))
        .min_by(|a, b| a.ks.total_cmp(&b.ks))
}

/// KS distance between the empirical tail CDF and the fitted power
/// law with the usual discrete continuity correction,
/// `CDF(x) = 1 - ((x + 0.5) / (xmin - 0.5))^(1 - alpha)`.
fn ks_distance(tail: &[u64], xmin: u64, alpha: f64) -> f64 {
    let mut sorted = tail.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let mut worst: f64 = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let x = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == x {
            j += 1;
        }
        // For a discrete distribution both CDFs are step functions
        // with jumps on the support, so comparing at support points
        // (empirical CDF *at* x vs model CDF at x) is sufficient.
        let emp = j as f64 / n;
        let model = 1.0 - ((x as f64 + 0.5) / (xmin as f64 - 0.5)).powf(1.0 - alpha);
        worst = worst.max((emp - model).abs());
        i = j;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::BoundedPowerLaw;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn too_small_tail_is_none() {
        assert!(fit_alpha(&[5], 1).is_none());
        assert!(fit_alpha(&[1, 1, 1], 10).is_none());
        assert!(fit_alpha(&[1, 2, 3], 0).is_none());
    }

    #[test]
    fn recovers_known_exponent() {
        let mut rng = StdRng::seed_from_u64(99);
        let gen = BoundedPowerLaw::new(1, 100_000, 2.5);
        let xs: Vec<u64> = (0..30_000).map(|_| gen.sample(&mut rng)).collect();
        let fit = fit_alpha(&xs, 5).expect("enough tail");
        assert!(
            (fit.alpha - 2.5).abs() < 0.15,
            "alpha estimate {} too far from 2.5",
            fit.alpha
        );
        assert!(fit.ks < 0.1, "KS {}", fit.ks);
    }

    #[test]
    fn best_xmin_prefers_lower_ks() {
        let mut rng = StdRng::seed_from_u64(123);
        let gen = BoundedPowerLaw::new(1, 10_000, 2.2);
        let xs: Vec<u64> = (0..20_000).map(|_| gen.sample(&mut rng)).collect();
        let best = fit_best_xmin(&xs, &[1, 2, 5, 10, 20]).unwrap();
        for &m in &[1u64, 2, 5, 10, 20] {
            if let Some(f) = fit_alpha(&xs, m) {
                assert!(best.ks <= f.ks + 1e-12);
            }
        }
    }

    #[test]
    fn non_powerlaw_data_has_large_ks() {
        // Uniform data on 50..=60 is not a power law from xmin=1-ish.
        let xs: Vec<u64> = (0..1000).map(|i| 50 + (i % 11) as u64).collect();
        let fit = fit_alpha(&xs, 50).unwrap();
        // Exponent will be huge and KS noticeable; just assert sanity.
        assert!(fit.alpha > 3.0);
        assert!(fit.n_tail == 1000);
    }
}
