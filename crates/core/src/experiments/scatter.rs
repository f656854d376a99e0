//! The paper's final (unnumbered) figure: `friends + 1` vs `fans + 1`
//! on log-log axes, for all users and for top users.
//!
//! The visual claims: both quantities are heavy-tailed, correlated,
//! and the top users occupy the upper-right corner (more friends *and*
//! more fans than the population at large).

use des_core::par::{par_map, worker_threads};
use digg_data::DiggDataset;
use digg_stats::correlation::spearman;
use digg_stats::fit::{fit_best_xmin, PowerLawFit};
use serde::{Deserialize, Serialize};
use social_graph::UserId;

/// The figure's data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScatterResult {
    /// `(friends+1, fans+1)` for every user.
    pub all_users: Vec<(f64, f64)>,
    /// Same, restricted to the top-user list.
    pub top_users: Vec<(f64, f64)>,
    /// Rank correlation between friends and fans over all users.
    pub spearman: Option<f64>,
    /// Power-law fit of the fan-count tail.
    pub fan_tail: Option<SerializableFit>,
    /// Median fans+1 of top users vs everyone (dominance check).
    pub top_median_fans: f64,
    /// Median fans+1 over all users.
    pub all_median_fans: f64,
}

/// Serializable clone of [`PowerLawFit`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SerializableFit {
    /// Estimated exponent.
    pub alpha: f64,
    /// Fitted cutoff.
    pub xmin: u64,
    /// Tail size.
    pub n_tail: usize,
    /// KS distance.
    pub ks: f64,
}

impl From<PowerLawFit> for SerializableFit {
    fn from(f: PowerLawFit) -> SerializableFit {
        SerializableFit {
            alpha: f.alpha,
            xmin: f.xmin,
            n_tail: f.n_tail,
            ks: f.ks,
        }
    }
}

/// Run the experiment over the scraped network, marking the first
/// `top_k` ranked users as "top".
pub fn run(ds: &DiggDataset, top_k: usize) -> ScatterResult {
    run_with(ds, top_k, worker_threads())
}

/// [`run`] with an explicit worker-thread count: per-user degree
/// lookups fan out in user-id order, one `(friends + 1, fans + 1)`
/// pair per user (the +1 keeps zero-degree users on log axes).
pub fn run_with(ds: &DiggDataset, top_k: usize, threads: usize) -> ScatterResult {
    let g = &ds.network;
    let ids: Vec<UserId> = g.users().collect();
    let all_users: Vec<(f64, f64)> = par_map(&ids, threads, |&u| {
        (g.friend_count(u) as f64 + 1.0, g.fan_count(u) as f64 + 1.0)
    });
    let fans: Vec<u64> = par_map(&ids, threads, |&u| g.fan_count(u) as u64);
    let top: Vec<(f64, f64)> = ds
        .top_users
        .iter()
        .take(top_k)
        .map(|&u| (g.friend_count(u) as f64 + 1.0, g.fan_count(u) as f64 + 1.0))
        .collect();
    let xs: Vec<f64> = all_users.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = all_users.iter().map(|p| p.1).collect();
    let fan_tail = fit_best_xmin(&fans, &[2, 3, 5, 10, 20]).map(Into::into);
    let median = |v: &[(f64, f64)]| {
        let fans: Vec<f64> = v.iter().map(|p| p.1).collect();
        digg_stats::descriptive::median(&fans).unwrap_or(0.0)
    };
    ScatterResult {
        spearman: spearman(&xs, &ys),
        fan_tail,
        top_median_fans: median(&top),
        all_median_fans: median(&all_users),
        all_users,
        top_users: top,
    }
}

impl ScatterResult {
    /// Top users dominate the fan axis.
    pub fn top_users_dominate(&self) -> bool {
        self.top_median_fans > self.all_median_fans
    }

    /// Render the log-log scatter plus the summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Friends vs fans scatter ({} users, {} top users)\n  spearman(friends, fans) = {}\n  median fans+1: top {:.0} vs all {:.1}\n",
            self.all_users.len(),
            self.top_users.len(),
            self.spearman
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            self.top_median_fans,
            self.all_median_fans,
        );
        if let Some(f) = self.fan_tail {
            out.push_str(&format!(
                "  fan-count tail: alpha {:.2} (xmin {}, n {}, KS {:.3})\n",
                f.alpha, f.xmin, f.n_tail, f.ks
            ));
        }
        out.push_str(&digg_stats::ascii::loglog_scatter(&self.all_users, 64, 18));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_sim::Minute;
    use social_graph::{GraphBuilder, UserId};

    fn ds() -> DiggDataset {
        let mut b = GraphBuilder::new(200);
        // User 0: hub with many fans and friends.
        for f in 1..=50 {
            b.add_watch(UserId(f), UserId(0));
        }
        for w in 51..=90 {
            b.add_watch(UserId(0), UserId(w));
        }
        // A spread of small users.
        for u in 1..40u32 {
            b.add_watch(UserId(u), UserId(u + 1));
        }
        let network = b.build();
        let top_users = network.users_by_fans_desc();
        DiggDataset {
            scraped_at: Minute(0),
            front_page: vec![],
            upcoming: vec![],
            network,
            top_users,
        }
    }

    #[test]
    fn scatter_covers_everyone() {
        let r = run(&ds(), 10);
        assert_eq!(r.all_users.len(), 200);
        assert_eq!(r.top_users.len(), 10);
        // Axes offset by one: minimum is exactly 1.
        assert!(r.all_users.iter().all(|&(f, fa)| f >= 1.0 && fa >= 1.0));
        assert_eq!(r.all_users[0], (41.0, 51.0)); // hub: 40 friends, 50 fans
        assert_eq!(r.all_users[199], (1.0, 1.0)); // isolated user
    }

    #[test]
    fn top_users_sit_high_on_fan_axis() {
        let r = run(&ds(), 10);
        assert!(r.top_users_dominate());
        assert_eq!(r.top_users[0].1, 51.0); // hub: 50 fans + 1
    }

    #[test]
    fn render_smoke() {
        let text = run(&ds(), 5).render();
        assert!(text.contains("Friends vs fans"));
        assert!(text.contains("median fans+1"));
    }
}
