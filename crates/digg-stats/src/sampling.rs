//! Weighted and streaming sampling utilities.
//!
//! The simulator draws voters proportionally to user activity (alias
//! method, O(1) per draw after O(n) setup) and subsamples stories for
//! Fig. 1 (reservoir sampling).

use rand::Rng;

/// Walker alias method for O(1) sampling from a fixed discrete
/// distribution.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build from non-negative weights. Returns `None` if `weights` is
    /// empty, contains a negative/non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Option<AliasTable> {
        let n = weights.len();
        if n == 0 {
            return None;
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: everything remaining gets probability 1.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Some(AliasTable { prob, alias })
    }

    /// Draw a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.prob.len());
        if rng.random::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Reservoir sampling: a uniform sample without replacement of size at
/// most `k` from an iterator of unknown length (Algorithm R).
pub fn reservoir<T, I, R>(rng: &mut R, iter: I, k: usize) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    R: Rng + ?Sized,
{
    let mut out: Vec<T> = Vec::with_capacity(k);
    if k == 0 {
        return out;
    }
    for (i, item) in iter.into_iter().enumerate() {
        if i < k {
            out.push(item);
        } else {
            let j = rng.random_range(0..=i);
            if j < k {
                out[j] = item;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn alias_rejects_bad_weights() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -1.0]).is_none());
        assert!(AliasTable::new(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn alias_single_category() {
        let t = AliasTable::new(&[3.0]).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(t.sample(&mut r), 0);
        }
    }

    #[test]
    fn alias_zero_weight_never_drawn() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut r), 1);
        }
    }

    #[test]
    fn alias_empirical_frequencies() {
        let t = AliasTable::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut r = rng();
        let n = 200_000;
        let mut c = [0usize; 3];
        for _ in 0..n {
            c[t.sample(&mut r)] += 1;
        }
        let f: Vec<f64> = c.iter().map(|&x| x as f64 / n as f64).collect();
        assert!((f[0] - 0.1).abs() < 0.01);
        assert!((f[1] - 0.2).abs() < 0.01);
        assert!((f[2] - 0.7).abs() < 0.01);
    }

    #[test]
    fn reservoir_small_stream_returns_all() {
        let mut r = rng();
        let mut s = reservoir(&mut r, 0..3, 10);
        s.sort();
        assert_eq!(s, vec![0, 1, 2]);
    }

    #[test]
    fn reservoir_k_zero() {
        let mut r = rng();
        let s: Vec<i32> = reservoir(&mut r, 0..100, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        let mut r = rng();
        let trials = 20_000;
        let mut seen0 = 0;
        for _ in 0..trials {
            let s = reservoir(&mut r, 0..10, 2);
            assert_eq!(s.len(), 2);
            if s.contains(&0) {
                seen0 += 1;
            }
        }
        // P(0 in sample) = 2/10.
        let f = seen0 as f64 / trials as f64;
        assert!((f - 0.2).abs() < 0.02, "frequency {f}");
    }
}
