//! Grouped summaries keyed by an integer.
//!
//! Fig. 4 of the paper plots, for each possible number of in-network
//! votes `k`, "the median and width of the distribution of votes
//! (except for the highest and lowest values)". [`GroupedSummary`]
//! computes exactly that: group a `(key, value)` stream by key and
//! summarise each group with median and trimmed range.

use std::collections::BTreeMap;

use crate::descriptive::{quantile_sorted, trimmed_range};

/// One group's summary in a [`GroupedSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Group key (e.g. number of in-network votes).
    pub key: u64,
    /// Number of observations in the group.
    pub count: usize,
    /// Group median.
    pub median: f64,
    /// Lower end of the trimmed range (second-smallest value; equals
    /// the median for groups of size ≤ 2).
    pub lo: f64,
    /// Upper end of the trimmed range (second-largest value).
    pub hi: f64,
    /// Group mean.
    pub mean: f64,
}

/// Values grouped by integer key, summarised per group.
#[derive(Debug, Clone, Default)]
pub struct GroupedSummary {
    groups: BTreeMap<u64, Vec<f64>>,
}

impl GroupedSummary {
    /// Empty accumulator.
    pub fn new() -> GroupedSummary {
        GroupedSummary::default()
    }

    /// Record one observation.
    pub fn add(&mut self, key: u64, value: f64) {
        self.groups.entry(key).or_default().push(value);
    }

    /// Per-group rows, ordered by key — the Fig. 4 series.
    pub fn rows(&self) -> Vec<GroupRow> {
        self.groups
            .iter()
            .map(|(&key, vals)| {
                let mut sorted = vals.clone();
                sorted.sort_by(f64::total_cmp);
                let median = quantile_sorted(&sorted, 0.5);
                // Non-empty: a group exists only once `add` pushed to it.
                let (lo, hi) = trimmed_range(&sorted);
                let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
                GroupRow {
                    key,
                    count: sorted.len(),
                    median,
                    lo,
                    hi,
                    mean,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped(pairs: &[(u64, f64)]) -> GroupedSummary {
        let mut g = GroupedSummary::new();
        for &(k, v) in pairs {
            g.add(k, v);
        }
        g
    }

    #[test]
    fn rows_are_key_ordered() {
        let g = grouped(&[(3, 1.0), (1, 2.0), (2, 3.0)]);
        let keys: Vec<u64> = g.rows().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn group_statistics() {
        let g = grouped(&[(0, 10.0), (0, 20.0), (0, 30.0), (0, 1000.0), (0, 1.0)]);
        let r = &g.rows()[0];
        assert_eq!(r.count, 5);
        assert_eq!(r.median, 20.0);
        // Trimmed range drops 1.0 and 1000.0.
        assert_eq!(r.lo, 10.0);
        assert_eq!(r.hi, 30.0);
    }

    #[test]
    fn tiny_groups_degenerate_to_median() {
        let g = grouped(&[(5, 7.0)]);
        let r = &g.rows()[0];
        assert_eq!((r.lo, r.hi), (7.0, 7.0));
    }
}
