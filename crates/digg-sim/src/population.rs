//! The user population: activity levels, submission propensity, join
//! dates, and the fan graph.
//!
//! Paper §3: "Digg users vary widely in their activity levels… the top
//! 3% of the users were responsible for 35% of the submissions" and
//! §3.2: "The top users… tended to have more friends and fans than
//! other users." We therefore draw a heavy-tailed activity level per
//! user and make both the watch-graph attractiveness (fans) and the
//! out-degree (friends) increase with activity, which reproduces the
//! activity concentration, the friends/fans scatter, and the
//! top-user advantage the paper analyses.

use digg_stats::distributions::{pareto, BoundedPowerLaw};
use rand::Rng;
use serde::{Deserialize, Serialize};
use social_graph::generators::configuration_model;
use social_graph::temporal::{Day, TemporalFanList};
use social_graph::{SocialGraph, UserId};

/// Parameters for population synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of users.
    pub users: usize,
    /// Pareto shape for the activity distribution (smaller = heavier
    /// tail). Calibrated so the top 3% of users hold ≈35% of total
    /// activity, as in §3.
    pub activity_alpha: f64,
    /// Upper clamp on activity. An unbounded Pareto with alpha near 1
    /// concentrates almost all attractiveness in one mega-hub, which
    /// no real site exhibits; the paper's own scatter tops out near
    /// 10^3 fans. The clamp bounds the largest fan counts accordingly.
    pub max_activity: f64,
    /// Exponent linking fan-attractiveness to activity
    /// (`attractiveness ∝ activity^gamma`). gamma > 1 makes top users'
    /// fan advantage super-linear, as the scatter plot suggests.
    pub fans_gamma: f64,
    /// Exponent linking submission propensity to activity
    /// (`submit_weight ∝ activity^submit_exponent`). 1.0 makes the
    /// top-3% submission share track the top-3% activity share, the
    /// paper's §3 statistic.
    pub submit_exponent: f64,
    /// Exponent linking browsing/voting propensity to activity.
    /// Below 1, votes spread across the casual population (the paper:
    /// "most of the users voted on only one story"), keeping hub
    /// users out of most stories' first ten votes.
    pub browse_exponent: f64,
    /// Mean friends (out-degree) per user; individual out-degrees are
    /// power-law distributed and correlated with activity.
    pub mean_friends: f64,
    /// Maximum out-degree.
    pub max_friends: usize,
    /// Day (relative epoch) the simulated scrape treats as "now";
    /// users join uniformly in `[0, join_horizon]`.
    pub join_horizon: Day,
}

impl PopulationConfig {
    /// Small population for unit tests.
    pub fn toy(users: usize) -> PopulationConfig {
        PopulationConfig {
            users,
            activity_alpha: 1.1,
            max_activity: 100.0,
            fans_gamma: 1.3,
            submit_exponent: 1.0,
            browse_exponent: 1.0,
            mean_friends: 6.0,
            max_friends: 100,
            join_horizon: 1000,
        }
    }
}

/// The simulated user base.
#[derive(Debug, Clone)]
pub struct Population {
    /// The watch graph (A watches B = A is a fan of B).
    pub graph: SocialGraph,
    /// Per-user activity level (drives Friends-interface attention;
    /// arbitrary positive scale; only ratios matter).
    pub activity: Vec<f64>,
    /// Per-user browsing-session weight (activity^browse_exponent).
    pub browse_weight: Vec<f64>,
    /// Per-user story-submission weight.
    pub submit_weight: Vec<f64>,
    /// Per-user join day (used by the temporal-snapshot machinery).
    pub join_day: Vec<Day>,
}

impl Population {
    /// Number of users.
    pub fn len(&self) -> usize {
        self.activity.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.activity.is_empty()
    }

    /// Users ranked by descending fan count (the paper's "top users"
    /// list). Rank 1 = `ranking()[0]`.
    pub fn ranking(&self) -> Vec<UserId> {
        self.graph.users_by_fans_desc()
    }

    /// Stable fingerprint of the population, recorded in simulation
    /// snapshots. Populations are deliberately *not* serialized — they
    /// are a pure function of `(PopulationConfig, seed)` and can be
    /// regenerated in milliseconds — but a restore against the wrong
    /// regeneration would silently produce garbage, so [`crate::Sim`]'s
    /// restore path compares this fingerprint instead. It covers the
    /// per-user weights and every fan row of the graph, so a graph of
    /// the same size but different wiring does not match.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut w = digg_snapshot::ByteWriter::new();
        w.put_usize(self.len());
        w.put_usize(self.graph.edge_count());
        for u in self.graph.users() {
            let fans = self.graph.fans(u);
            w.put_usize(fans.len());
            for &f in fans {
                w.put_u32(f.0);
            }
        }
        for &a in &self.activity {
            w.put_f64(a);
        }
        for &b in &self.browse_weight {
            w.put_f64(b);
        }
        for &s in &self.submit_weight {
            w.put_f64(s);
        }
        digg_snapshot::fnv1a64(&w.into_bytes())
    }

    /// Generate a population.
    ///
    /// Steps:
    /// 1. activity ~ Pareto(1, `activity_alpha`);
    /// 2. out-degree (friends) per user ~ bounded power law, then
    ///    reassigned so more active users get larger friend lists;
    /// 3. watch edges wired with the configuration model, targets
    ///    drawn proportionally to `activity^fans_gamma`;
    /// 4. join days uniform on `[0, join_horizon]`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, cfg: &PopulationConfig) -> Population {
        let n = cfg.users;
        assert!(n > 0, "population must be non-empty");
        let activity: Vec<f64> = (0..n)
            .map(|_| pareto(rng, 1.0, cfg.activity_alpha).min(cfg.max_activity))
            .collect();

        // Raw out-degree draws: power law with mean ≈ mean_friends.
        // BoundedPowerLaw(1, max, 2.0) has mean ~ ln(max); rescale by
        // rejection-free scaling: draw then multiply.
        let deg_gen = BoundedPowerLaw::new(1, cfg.max_friends.max(2) as u64, 2.0);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "degree draws are bounded by max_friends, a usize"
        )]
        let mut degs: Vec<usize> = (0..n).map(|_| deg_gen.sample(rng) as usize).collect();
        let mean_raw = degs.iter().sum::<usize>() as f64 / n as f64;
        let scale = cfg.mean_friends / mean_raw.max(1e-9);
        for d in &mut degs {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a rescaled degree, clamped to max_friends, a usize"
            )]
            let rescaled = (((*d as f64) * scale).round() as usize).clamp(0, cfg.max_friends);
            *d = rescaled;
        }

        // Give the big friend lists to the active users: sort degrees
        // descending and assign along the activity ranking.
        let mut by_activity: Vec<usize> = (0..n).collect();
        by_activity.sort_by(|&a, &b| activity[b].total_cmp(&activity[a]));
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let mut out_degrees = vec![0usize; n];
        for (deg, &user) in degs.into_iter().zip(&by_activity) {
            out_degrees[user] = deg;
        }

        let attractiveness: Vec<f64> = activity.iter().map(|a| a.powf(cfg.fans_gamma)).collect();
        let graph = configuration_model(rng, &out_degrees, &attractiveness);

        let submit_weight: Vec<f64> = activity
            .iter()
            .map(|a| a.powf(cfg.submit_exponent))
            .collect();
        let browse_weight: Vec<f64> = activity
            .iter()
            .map(|a| a.powf(cfg.browse_exponent))
            .collect();

        let join_day: Vec<Day> = (0..n)
            .map(|_| rng.random_range(0..=cfg.join_horizon))
            .collect();

        Population {
            graph,
            activity,
            browse_weight,
            submit_weight,
            join_day,
        }
    }

    /// Export the fan graph as a dated fan-link artifact: link
    /// creation dates are synthesised uniformly between the later
    /// join date of the endpoints and `scrape_day`, which is what the
    /// paper's Feb-2008 scrape would have seen.
    pub fn to_temporal<R: Rng + ?Sized>(&self, rng: &mut R, scrape_day: Day) -> TemporalFanList {
        let mut t = TemporalFanList::new(self.len());
        for (fan, watched) in self.graph.edges() {
            let earliest = self.join_day[fan.index()].max(self.join_day[watched.index()]);
            let created = if earliest >= scrape_day {
                scrape_day
            } else {
                rng.random_range(earliest..=scrape_day)
            };
            t.add_link(watched, fan, self.join_day[fan.index()], created);
        }
        t
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Fraction of total activity held by the most active
    /// `top_fraction` of users — the §3 concentration statistic the
    /// generator is calibrated against.
    pub(crate) fn top_activity_share(p: &Population, top_fraction: f64) -> f64 {
        let mut act = p.activity.clone();
        act.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = act.iter().sum();
        let k = ((p.len() as f64 * top_fraction).ceil() as usize).min(p.len());
        act[..k].iter().sum::<f64>() / total
    }
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pop(n: usize) -> Population {
        let mut rng = StdRng::seed_from_u64(11);
        Population::generate(&mut rng, &PopulationConfig::toy(n))
    }

    #[test]
    fn sizes_line_up() {
        let p = pop(300);
        assert_eq!(p.len(), 300);
        assert_eq!(p.graph.user_count(), 300);
        assert_eq!(p.activity.len(), 300);
        assert_eq!(p.submit_weight.len(), 300);
        assert_eq!(p.join_day.len(), 300);
        assert!(!p.is_empty());
    }

    #[test]
    fn activity_is_concentrated() {
        let p = pop(2000);
        let top3 = top_activity_share(&p, 0.03);
        // Pareto(1.1) top-3% share should be substantial (paper: 35%).
        assert!(top3 > 0.15, "top-3% share {top3}");
        assert!(top3 < 0.95);
    }

    #[test]
    fn active_users_attract_fans() {
        let p = pop(2000);
        // Compare mean fan count of top-decile activity users vs rest.
        let mut idx: Vec<usize> = (0..p.len()).collect();
        idx.sort_by(|&a, &b| p.activity[b].partial_cmp(&p.activity[a]).unwrap());
        let top: Vec<usize> = idx[..200].to_vec();
        let rest: Vec<usize> = idx[200..].to_vec();
        let mean = |ids: &[usize]| {
            ids.iter()
                .map(|&i| p.graph.fan_count(UserId::from_index(i)))
                .sum::<usize>() as f64
                / ids.len() as f64
        };
        assert!(
            mean(&top) > 3.0 * mean(&rest),
            "top {} rest {}",
            mean(&top),
            mean(&rest)
        );
    }

    #[test]
    fn temporal_export_preserves_edges_at_scrape_time() {
        let p = pop(200);
        let mut rng = StdRng::seed_from_u64(5);
        let scrape_day = 2000;
        let t = p.to_temporal(&mut rng, scrape_day);
        // At the scrape date every fan has joined and every link
        // exists: the reconstruction is the graph, with no excess.
        assert_eq!(t.snapshot(scrape_day).edge_count(), p.graph.edge_count());
        assert_eq!(t.reconstruction_excess(scrape_day), 0);
    }

    #[test]
    fn temporal_snapshot_shrinks_with_earlier_cutoff() {
        let p = pop(400);
        let mut rng = StdRng::seed_from_u64(6);
        let t = p.to_temporal(&mut rng, 2000);
        let early = t.snapshot(100);
        let late = t.snapshot(1900);
        assert!(early.edge_count() <= late.edge_count());
    }
}
