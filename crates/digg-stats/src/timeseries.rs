//! Cumulative time-series helpers for vote-accrual curves (Fig. 1).
//!
//! A story's observable history is a sequence of vote timestamps; the
//! paper plots cumulative votes against minutes since submission, and
//! describes the canonical shape: slow accrual in the upcoming queue, a
//! sharp jump at promotion, then saturation. This module turns event
//! times into those curves.

/// A cumulative count series sampled on a regular grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeSeries {
    /// Grid step (minutes in the paper's units).
    pub step: f64,
    /// `values[i]` = cumulative count at time `i * step`.
    pub values: Vec<u64>,
}

impl CumulativeSeries {
    /// Build from raw event times (need not be sorted), sampling the
    /// cumulative count every `step` up to `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0` or `horizon < 0`.
    pub fn from_events(times: &[f64], step: f64, horizon: f64) -> CumulativeSeries {
        assert!(step > 0.0, "step must be positive");
        assert!(horizon >= 0.0, "horizon must be non-negative");
        let mut sorted: Vec<f64> = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the sample count is the length of the series built here, so it fits in usize"
        )]
        let n = (horizon / step).floor() as usize + 1;
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 * step;
            let k = sorted.partition_point(|&x| x <= t);
            values.push(k as u64);
        }
        CumulativeSeries { step, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> CumulativeSeries {
        // Events at t = 1, 2, 2, 5, 9.
        CumulativeSeries::from_events(&[5.0, 2.0, 1.0, 2.0, 9.0], 1.0, 10.0)
    }

    #[test]
    fn cumulative_counts_are_monotone_and_correct() {
        let s = demo();
        assert_eq!(s.values, vec![0, 1, 3, 3, 3, 4, 4, 4, 4, 5, 5]);
        assert!(s.values.windows(2).all(|w| w[0] <= w[1]));
    }
}
