//! Samplers for the heavy-tailed distributions the synthetic platform
//! needs, implemented from scratch on top of `rand`'s uniform source.
//!
//! The Digg population is strongly skewed: "While most of the users
//! voted on only one story, some voted on many, and a few on well over
//! a hundred stories" (paper §3.1), and top users have
//! disproportionately many fans (§3.2). We model such quantities with
//! bounded power-law / log-normal samplers. All samplers take an
//! explicit `&mut impl Rng` so experiments are reproducible from a
//! seed.

use rand::Rng;

/// Discrete bounded power law on `xmin..=xmax` with `P(x) ∝ x^-alpha`.
///
/// This is the sampler used for fan counts and per-user activity; the
/// bound keeps the synthetic site finite the way a real scrape is.
#[derive(Debug, Clone)]
pub struct BoundedPowerLaw {
    xmin: u64,
    cdf: Vec<f64>,
}

impl BoundedPowerLaw {
    /// Create the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `xmin == 0` or `xmax < xmin`.
    pub fn new(xmin: u64, xmax: u64, alpha: f64) -> BoundedPowerLaw {
        assert!(xmin > 0, "power law support must be positive");
        assert!(xmax >= xmin, "xmax must be at least xmin");
        let n = (xmax - xmin + 1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for x in xmin..=xmax {
            acc += (x as f64).powf(-alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        BoundedPowerLaw { xmin, cdf }
    }

    /// Draw a value in `xmin..=xmax`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let idx = self.cdf.partition_point(|&c| c < u);
        self.xmin + idx.min(self.cdf.len() - 1) as u64
    }
}

/// Standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to keep ln() finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal sampler: `exp(mu + sigma * N(0,1))`.
///
/// Final vote counts of promoted stories are unimodal and right-skewed
/// (Fig. 2a); the platform's latent story-appeal variable is drawn
/// log-normally, which reproduces that shape after the voting process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal (must be >= 0).
    pub sigma: f64,
}

impl LogNormal {
    /// Create the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or parameters are not finite.
    pub fn new(mu: f64, sigma: f64) -> LogNormal {
        assert!(
            mu.is_finite() && sigma.is_finite(),
            "parameters must be finite"
        );
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    /// Draw a variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Exponential variate with rate `lambda`, by inversion.
///
/// Inter-arrival times of story submissions ("1-2 new submissions
/// every minute") are modelled as a Poisson process, i.e. exponential
/// gaps.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    assert!(lambda > 0.0, "rate must be positive");
    let u: f64 = 1.0 - rng.random::<f64>(); // in (0, 1]
    -u.ln() / lambda
}

/// Continuous Pareto variate with scale `xmin` and shape `alpha`.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, xmin: f64, alpha: f64) -> f64 {
    assert!(
        xmin > 0.0 && alpha > 0.0,
        "Pareto parameters must be positive"
    );
    let u: f64 = 1.0 - rng.random::<f64>(); // in (0, 1]
    xmin * u.powf(-1.0 / alpha)
}

/// Inverse CDF (quantile function) of the standard normal
/// distribution, via the Beasley–Springer–Moro rational approximation
/// (absolute error < 3e-9 over the open unit interval).
///
/// Used by the C4.5 pruning machinery to turn a confidence factor into
/// a z-score. Returns `±INFINITY` at the endpoints and NaN outside
/// `[0, 1]`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 4] = [
        2.50662823884,
        -18.61500062529,
        41.39119773534,
        -25.44106049637,
    ];
    const B: [f64; 4] = [
        -8.47351093090,
        23.08336743743,
        -21.06224101826,
        3.13082909833,
    ];
    const C: [f64; 9] = [
        0.3374754822726147,
        0.9761690190917186,
        0.1607979714918209,
        0.0276438810333863,
        0.0038405729373609,
        0.0003951896511919,
        0.0000321767881768,
        0.0000002888167364,
        0.0000003960315187,
    ];
    let y = p - 0.5;
    if y.abs() < 0.42 {
        let r = y * y;
        let num = y * (((A[3] * r + A[2]) * r + A[1]) * r + A[0]);
        let den = (((B[3] * r + B[2]) * r + B[1]) * r + B[0]) * r + 1.0;
        num / den
    } else {
        let r = if y > 0.0 { 1.0 - p } else { p };
        let s = (-(r.ln())).ln();
        let mut x = C[0];
        let mut sp = 1.0;
        for &c in &C[1..] {
            sp *= s;
            x += c * sp;
        }
        if y < 0.0 {
            -x
        } else {
            x
        }
    }
}

/// Bernoulli draw with probability `p` (clamped to `[0,1]`).
pub fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    rng.random::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn bounded_power_law_support() {
        let p = BoundedPowerLaw::new(1, 100, 2.1);
        let mut r = rng();
        for _ in 0..1000 {
            let x = p.sample(&mut r);
            assert!((1..=100).contains(&x));
        }
    }

    #[test]
    fn bounded_power_law_is_heavy_headed() {
        // Most mass at small values for alpha > 1.
        let p = BoundedPowerLaw::new(1, 1000, 2.0);
        let mut r = rng();
        let n = 50_000;
        let ones = (0..n).filter(|_| p.sample(&mut r) == 1).count();
        // P(1) = 1/zeta-ish, should be > 0.5 for alpha=2 bounded at 1000.
        assert!(ones as f64 / n as f64 > 0.5);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| x * x).sum::<f64>() / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let ln = LogNormal::new(2.0, 0.5);
        let mut r = rng();
        let mut xs: Vec<f64> = (0..50_000).map(|_| ln.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 2.0f64.exp()).abs() / 2.0f64.exp() < 0.05);
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = rng();
        let n = 100_000;
        let m: f64 = (0..n).map(|_| exponential(&mut r, 2.0)).sum::<f64>() / n as f64;
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(pareto(&mut r, 3.0, 1.5) >= 3.0);
        }
    }

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.75) - 0.6744898).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.9999) - 3.7190).abs() < 1e-3);
    }

    #[test]
    fn inverse_normal_cdf_edges() {
        assert_eq!(inverse_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inverse_normal_cdf(1.0), f64::INFINITY);
        assert!(inverse_normal_cdf(-0.1).is_nan());
        assert!(inverse_normal_cdf(1.1).is_nan());
    }

    #[test]
    fn inverse_normal_cdf_is_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..100 {
            let x = inverse_normal_cdf(i as f64 / 100.0);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn coin_extremes() {
        let mut r = rng();
        assert!(!coin(&mut r, 0.0));
        assert!(coin(&mut r, 1.0));
        // Out-of-range p is clamped rather than panicking.
        assert!(coin(&mut r, 7.0));
        assert!(!coin(&mut r, -1.0));
    }
}
