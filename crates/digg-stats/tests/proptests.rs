//! Property-based tests for the statistics substrate.

use digg_stats::binstats::GroupedSummary;
use digg_stats::correlation::{pearson, ranks, spearman};
use digg_stats::descriptive::{mean, median, quantile};
use digg_stats::histogram::{integer_counts, Histogram};
use digg_stats::sampling::AliasTable;
use digg_stats::timeseries::CumulativeSeries;
use proptest::prelude::*;

fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..200)
}

proptest! {
    #[test]
    fn mean_bounded_by_extremes(xs in finite_vec()) {
        let m = mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn quantiles_are_monotone(xs in finite_vec(), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let (a, b) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let va = quantile(&xs, a).unwrap();
        let vb = quantile(&xs, b).unwrap();
        prop_assert!(va <= vb + 1e-9);
    }

    #[test]
    fn median_is_middle_quantile(xs in finite_vec()) {
        prop_assert_eq!(median(&xs), quantile(&xs, 0.5));
    }

    #[test]
    fn histogram_conserves_observations(xs in finite_vec(), bins in 1usize..50) {
        let h = Histogram::of(-1e6, 1e6, bins, &xs);
        let in_range: u64 = h.series().iter().map(|&(_, c)| c).sum();
        prop_assert_eq!((in_range + h.underflow + h.overflow) as usize, xs.len());
    }

    #[test]
    fn integer_counts_conserve(xs in prop::collection::vec(0u64..1000, 0..200)) {
        let m = integer_counts(&xs);
        let total: u64 = m.values().sum();
        prop_assert_eq!(total as usize, xs.len());
    }

    #[test]
    fn ranks_are_permutation_sums(xs in finite_vec()) {
        let r = ranks(&xs);
        let n = xs.len() as f64;
        let total: f64 = r.iter().sum();
        // Sum of mid-ranks always equals n(n+1)/2.
        prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn correlation_in_unit_interval(
        pairs in prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 3..100)
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
        if let Some(r) = spearman(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn alias_table_samples_within_support(
        ws in prop::collection::vec(0.0..100.0f64, 1..50),
        seed in any::<u64>(),
    ) {
        if let Some(t) = AliasTable::new(&ws) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let i = t.sample(&mut rng);
                prop_assert!(i < ws.len());
                prop_assert!(ws[i] > 0.0, "sampled zero-weight category {i}");
            }
        }
    }

    #[test]
    fn cumulative_series_is_monotone(
        times in prop::collection::vec(0.0..1e4f64, 0..200),
        step in 0.5..100.0f64,
    ) {
        let s = CumulativeSeries::from_events(&times, step, 1e4);
        prop_assert!(s.values.windows(2).all(|w| w[0] <= w[1]));
        // The grid's last point may fall short of the horizon; the
        // final value counts exactly the events at or before it.
        let last_t = (s.values.len() - 1) as f64 * step;
        let expect = times.iter().filter(|&&t| t <= last_t).count();
        prop_assert_eq!(s.values.last().copied(), Some(expect as u64));
    }

    #[test]
    fn grouped_summary_rows_cover_all_keys(
        pairs in prop::collection::vec((0u64..20, -1e3..1e3f64), 1..200)
    ) {
        let mut g = GroupedSummary::new();
        for &(k, v) in &pairs {
            g.add(k, v);
        }
        let rows = g.rows();
        let total: usize = rows.iter().map(|r| r.count).sum();
        prop_assert_eq!(total, pairs.len());
        for r in &rows {
            prop_assert!(r.lo <= r.median + 1e-9);
            prop_assert!(r.median <= r.hi + 1e-9);
        }
        // Keys strictly increasing.
        prop_assert!(rows.windows(2).all(|w| w[0].key < w[1].key));
    }
}
