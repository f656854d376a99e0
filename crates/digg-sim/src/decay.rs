//! Attention decay and page-position bias.
//!
//! Two forces slow a story's vote accrual over time, producing the
//! saturating curves of Fig. 1:
//!
//! * **novelty decay** — Wu & Huberman (ref \[24\]) measured interest in
//!   a front-page story decaying with a half-life of about a day; we
//!   use an exponential in age with configurable time constant;
//! * **position decay** — stories sink to deeper pages as newer ones
//!   arrive, and browsers stop paging with fixed probability per page
//!   (geometric attention over pages).

/// Novelty factor in `(0, 1]` for a story of `age` minutes on the
/// front page, with time constant `tau` minutes:
/// `exp(-age / tau)`. `tau = 2076` gives a half-life of one day
/// (`1440 = tau * ln 2`).
pub(crate) fn novelty(age_minutes: u64, tau: f64) -> f64 {
    debug_assert!(tau > 0.0);
    (-(age_minutes as f64) / tau).exp()
}

/// [`novelty`] by whole-minute age for one `tau`. Each entry is
/// computed by `novelty` itself, so a lookup returns exactly its bits;
/// the table grows on demand up to [`NoveltyTable::CACHED_AGES`] ages
/// and older ages fall through to `novelty`.
#[derive(Debug, Clone)]
pub(crate) struct NoveltyTable {
    tau: f64,
    by_age: Vec<f64>,
}

impl NoveltyTable {
    /// 2^16 minutes, about 45 days: longer than any front-page run.
    const CACHED_AGES: usize = 1 << 16;

    pub(crate) fn new(tau: f64) -> NoveltyTable {
        NoveltyTable {
            tau,
            by_age: Vec::new(),
        }
    }

    /// `novelty(age, tau)`.
    #[inline]
    pub(crate) fn get(&mut self, age: u64) -> f64 {
        let i = usize::try_from(age).unwrap_or(usize::MAX);
        if let Some(&v) = self.by_age.get(i) {
            return v;
        }
        if i >= Self::CACHED_AGES {
            return novelty(age, self.tau);
        }
        let (tau, from) = (self.tau, self.by_age.len());
        self.by_age
            .extend((from..=i).map(|a| novelty(a as u64, tau)));
        self.by_age[i]
    }
}

/// Sample how many pages a browser looks at (at least 1) given the
/// per-page stop probability.
pub(crate) fn sample_pages_viewed<R: rand::Rng + ?Sized>(rng: &mut R, stop: f64) -> usize {
    let mut pages = 1;
    // Cap at 50 pages: real users do not read 750 stories.
    while pages < 50 && rng.random::<f64>() >= stop {
        pages += 1;
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn novelty_decays_from_one() {
        assert_eq!(novelty(0, 100.0), 1.0);
        assert!(novelty(100, 100.0) < novelty(50, 100.0));
        assert!((novelty(100, 100.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn half_life_calibration() {
        let tau = 1440.0 / std::f64::consts::LN_2;
        assert!((novelty(1440, tau) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn novelty_table_matches_novelty_bit_for_bit() {
        for tau in [600.0, 2076.0, 1440.0 / std::f64::consts::LN_2] {
            let mut table = NoveltyTable::new(tau);
            // Out of order, so both growth and reuse are exercised.
            for age in (5_000..10_000).chain(0..5_000).chain([1 << 20]) {
                assert_eq!(
                    table.get(age).to_bits(),
                    novelty(age, tau).to_bits(),
                    "age {age}, tau {tau}"
                );
            }
        }
    }

    #[test]
    fn pages_viewed_at_least_one_and_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let p = sample_pages_viewed(&mut rng, 0.5);
            assert!((1..=50).contains(&p));
        }
        // stop=1 means always exactly one page.
        for _ in 0..20 {
            assert_eq!(sample_pages_viewed(&mut rng, 1.0), 1);
        }
    }

    #[test]
    fn pages_viewed_mean_matches_geometric() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| sample_pages_viewed(&mut rng, 0.5) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }
}
