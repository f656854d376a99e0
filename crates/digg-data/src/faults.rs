//! Deterministic scrape-fault injection.
//!
//! The paper's dataset is the product of a lossy scrape, and follow-up
//! measurement studies (Zhu; Hogg & Lerman) report exactly the failure
//! modes real collection hits: rate-limited fetches, truncated voter
//! lists, missing fan lists. A [`FaultPlan`] injects those failures
//! into a scraped [`DiggDataset`] so every downstream consumer can be
//! tested — and measured — under degraded conditions instead of
//! assuming a perfect observer.
//!
//! **Determinism.** Every fault decision is drawn from a
//! [`des_core::StreamRng`] stream keyed by `(plan seed, fault class,
//! entity id)`. A stream's outputs are a pure function of its key and
//! counter, so whether a given story's voter list gets truncated does
//! not depend on how many other stories exist, in what order records
//! are processed, or how many threads the caller fans out over —
//! injection is bit-reproducible and thread-invariant (DESIGN.md §12).
//!
//! **Retry-until-budget.** Fetch failures are transient: the injector
//! models a scraper that tries each story fetch up to three times
//! (one draw per attempt, no wall clock). Only a story whose every
//! attempt fails is lost.
//!
//! [`FaultPlan::default`] injects nothing and [`FaultPlan::apply`] is
//! then an identity (plus a zeroed log), which is what keeps every
//! fault-free artifact byte-identical to a build without this module.

use crate::model::{DiggDataset, StoryRecord};
use des_core::StreamRng;
use rand::Rng;
use social_graph::GraphBuilder;

/// Stream salts, one per fault class (see module docs).
const FETCH_STREAM: u64 = 0x0046_4155_4c54_5f46; // "FAULT_F"
const TRUNC_STREAM: u64 = 0x0046_4155_4c54_5f54; // "FAULT_T"
const FAN_STREAM: u64 = 0x0046_4155_4c54_5f4e; // "FAULT_N"
const DUP_STREAM: u64 = 0x0046_4155_4c54_5f44; // "FAULT_D"
const ORDER_STREAM: u64 = 0x0046_4155_4c54_5f4f; // "FAULT_O"

/// Fetch attempts per story, first try included.
const FETCH_ATTEMPTS: u32 = 3;

/// Fraction of the voter list kept when truncation strikes.
const TRUNCATE_KEEP: f64 = 0.7;

/// Fraction of fan links kept when a list is partial.
const PARTIAL_KEEP: f64 = 0.5;

/// Injection rates for every scrape-level fault class. All rates are
/// probabilities in `[0, 1]`; the all-zero [`FaultPlan::default`] is
/// the disabled plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the per-entity fault streams.
    pub seed: u64,
    /// Per-attempt probability that a story fetch transiently fails.
    pub fetch_failure: f64,
    /// Probability a story's voter list comes back truncated to its
    /// first 70% (rounded up).
    pub truncate_voters: f64,
    /// Probability a user's entire fan list is missing.
    pub drop_fan_list: f64,
    /// Probability a user's fan list comes back partial, each link
    /// kept with probability 0.5.
    pub partial_fan_list: f64,
    /// Probability one vote record in a story is duplicated.
    pub duplicate_vote: f64,
    /// Probability two adjacent vote records in a story swap order.
    pub reorder_votes: f64,
}

impl FaultPlan {
    /// A uniformly degraded scraper: every fault class fires at `rate`
    /// (fetch failures and record corruption at `rate / 2`, since a
    /// retry budget and the ingest repairs absorb part of them). This
    /// is the knob ABL5's observation-loss grid turns.
    pub fn degraded(rate: f64, seed: u64) -> FaultPlan {
        let rate = rate.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            fetch_failure: rate / 2.0,
            truncate_voters: rate,
            drop_fan_list: rate,
            partial_fan_list: rate,
            duplicate_vote: rate / 2.0,
            reorder_votes: rate / 2.0,
        }
    }

    /// True when no fault class can fire; [`FaultPlan::apply`] is then
    /// an identity.
    pub fn is_disabled(&self) -> bool {
        self.fetch_failure == 0.0
            && self.truncate_voters == 0.0
            && self.drop_fan_list == 0.0
            && self.partial_fan_list == 0.0
            && self.duplicate_vote == 0.0
            && self.reorder_votes == 0.0
    }

    /// The fault stream of one `(class, entity)` pair.
    fn stream(&self, class: u64, entity: u64) -> StreamRng {
        StreamRng::keyed(self.seed, &[class, entity])
    }

    /// Inject scrape faults into a dataset: per-story fetch failures
    /// (with retry-until-budget), voter-list truncation, duplicated
    /// and reordered vote records, and dropped/partial fan lists in
    /// the network. Returns the degraded dataset and the exact
    /// injection ledger.
    ///
    /// With the plan disabled the output is an unmodified clone and
    /// the log is all zeros.
    pub fn apply(&self, ds: &DiggDataset) -> (DiggDataset, FaultLog) {
        let mut log = FaultLog::default();
        if self.is_disabled() {
            log.fan_links_before = ds.network.edge_count();
            log.fan_links_after = ds.network.edge_count();
            return (ds.clone(), log);
        }
        let front_page = self.apply_records(&ds.front_page, &mut log);
        let upcoming = self.apply_records(&ds.upcoming, &mut log);
        let network = self.apply_network(&ds.network, &mut log);
        (
            DiggDataset {
                scraped_at: ds.scraped_at,
                front_page,
                upcoming,
                network,
                // Deliberately stale: the Top Users list was published
                // before the degraded fan lists were fetched, so it is
                // carried over as-is (lenient ingestion re-derives it).
                top_users: ds.top_users.clone(),
            },
            log,
        )
    }

    /// Inject the per-record fault classes into one story sample.
    pub(crate) fn apply_records(
        &self,
        records: &[StoryRecord],
        log: &mut FaultLog,
    ) -> Vec<StoryRecord> {
        let mut out = Vec::with_capacity(records.len());
        for r in records {
            let entity = u64::from(r.story.0);
            // Transient fetch failures, retried until the budget runs
            // out. One draw per attempt, attempt-indexed on the
            // story's fetch stream.
            let mut fetch = self.stream(FETCH_STREAM, entity);
            let mut fetched = false;
            for attempt in 1..=FETCH_ATTEMPTS {
                log.fetch_attempts += 1;
                if fetch.random::<f64>() >= self.fetch_failure {
                    fetched = true;
                    break;
                }
                if attempt < FETCH_ATTEMPTS {
                    log.fetch_retries += 1;
                }
            }
            if !fetched {
                log.fetch_failed_stories += 1;
                continue;
            }

            let mut voters = r.voters.clone();
            // Truncated voter list: the fetch stopped early, keeping a
            // prefix (so the submitter entry survives).
            let mut trunc = self.stream(TRUNC_STREAM, entity);
            if trunc.random::<f64>() < self.truncate_voters && voters.len() > 1 {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the kept prefix is a rounded-up share of the voter list, clamped to its length"
                )]
                let keep =
                    ((voters.len() as f64 * TRUNCATE_KEEP).ceil() as usize).clamp(1, voters.len());
                if keep < voters.len() {
                    log.votes_dropped += (voters.len() - keep) as u64;
                    log.truncated_stories += 1;
                    voters.truncate(keep);
                }
            }
            // Duplicated vote record: one entry repeated immediately
            // after itself (a page boundary fetched twice).
            let mut dup = self.stream(DUP_STREAM, entity);
            if dup.random::<f64>() < self.duplicate_vote && !voters.is_empty() {
                let j = dup.random_range(0..voters.len());
                voters.insert(j + 1, voters[j]);
                log.duplicated_votes += 1;
            }
            // Out-of-order vote records: two adjacent entries swapped.
            // A swap at the head displaces the submitter and is
            // detectable downstream; mid-list swaps are silent (the
            // records carry no timestamps to contradict).
            let mut ord = self.stream(ORDER_STREAM, entity);
            if ord.random::<f64>() < self.reorder_votes && voters.len() >= 2 {
                let j = ord.random_range(0..voters.len() - 1);
                // A swap of two equal entries (possible after the
                // duplication fault) changes nothing; only observable
                // corruption is performed and counted, so the ledger
                // matches what ingestion can see.
                if voters[j] != voters[j + 1] {
                    voters.swap(j, j + 1);
                    if j == 0 {
                        log.head_reorders += 1;
                    } else {
                        log.mid_reorders += 1;
                    }
                }
            }
            out.push(StoryRecord {
                voters,
                ..r.clone()
            });
        }
        out
    }

    /// Inject fan-list faults: per user, the whole list may be missing
    /// or individual links lost. The graph is rebuilt from the
    /// surviving fan lists, exactly as the scraper assembles it.
    fn apply_network(
        &self,
        network: &social_graph::SocialGraph,
        log: &mut FaultLog,
    ) -> social_graph::SocialGraph {
        let n = network.user_count();
        log.fan_links_before = network.edge_count();
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            let watched = social_graph::UserId::from_index(u);
            let fans = network.fans(watched);
            if fans.is_empty() {
                continue;
            }
            let mut rng = self.stream(FAN_STREAM, u as u64);
            if rng.random::<f64>() < self.drop_fan_list {
                log.dropped_fan_lists += 1;
                log.fan_links_dropped += fans.len();
                continue;
            }
            if rng.random::<f64>() < self.partial_fan_list {
                log.partial_fan_lists += 1;
                for &f in fans {
                    if rng.random::<f64>() < PARTIAL_KEEP {
                        b.add_watch(f, watched);
                    } else {
                        log.fan_links_dropped += 1;
                    }
                }
            } else {
                for &f in fans {
                    b.add_watch(f, watched);
                }
            }
        }
        let degraded = b.build();
        log.fan_links_after = degraded.edge_count();
        degraded
    }
}

/// Exact ledger of what a [`FaultPlan::apply`] run injected. Because
/// injection is stream-driven, the same plan over the same dataset
/// always produces the same ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultLog {
    /// Story fetch attempts, retries included.
    pub fetch_attempts: u64,
    /// Retries after a transient failure.
    pub fetch_retries: u64,
    /// Stories lost after every fetch attempt failed.
    pub fetch_failed_stories: usize,
    /// Stories whose voter list was truncated.
    pub truncated_stories: usize,
    /// Vote records lost to truncation.
    pub votes_dropped: u64,
    /// Stories given a duplicated vote record.
    pub duplicated_votes: usize,
    /// Adjacent-swap reorders that displaced the submitter (detectable
    /// downstream via the `submitter-first` rule).
    pub head_reorders: usize,
    /// Adjacent-swap reorders inside the list (silent: no timestamps
    /// exist to contradict them).
    pub mid_reorders: usize,
    /// Users whose entire fan list went missing.
    pub dropped_fan_lists: usize,
    /// Users whose fan list came back partial.
    pub partial_fan_lists: usize,
    /// Individual fan links lost (dropped + partial lists).
    pub fan_links_dropped: usize,
    /// Fan links before injection.
    pub fan_links_before: usize,
    /// Fan links after injection.
    pub fan_links_after: usize,
}

impl FaultLog {
    /// Fraction of fan links that survived injection (1.0 when the
    /// network was empty).
    pub fn fan_link_coverage(&self) -> f64 {
        if self.fan_links_before == 0 {
            1.0
        } else {
            self.fan_links_after as f64 / self.fan_links_before as f64
        }
    }

    /// Did any fault fire at all?
    pub fn any_injected(&self) -> bool {
        self.fetch_retries > 0
            || self.fetch_failed_stories > 0
            || self.truncated_stories > 0
            || self.duplicated_votes > 0
            || self.head_reorders > 0
            || self.mid_reorders > 0
            || self.dropped_fan_lists > 0
            || self.partial_fan_lists > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SampleSource;
    use digg_sim::{Minute, StoryId};
    use social_graph::{SocialGraph, UserId};

    fn record(id: u32, voters: Vec<u32>, source: SampleSource) -> StoryRecord {
        StoryRecord {
            story: StoryId(id),
            submitter: UserId(voters[0]),
            submitted_at: Minute(0),
            voters: voters.into_iter().map(UserId).collect(),
            source,
            final_votes: Some(1000),
        }
    }

    fn dataset() -> DiggDataset {
        let mut b = GraphBuilder::new(64);
        for u in 0..32u32 {
            for f in 1..=4u32 {
                b.add_watch(UserId((u + f * 7) % 64), UserId(u));
            }
        }
        let network: SocialGraph = b.build();
        let top_users = network.users_by_fans_desc().into_iter().take(10).collect();
        DiggDataset {
            scraped_at: Minute(500),
            front_page: (0..20)
                .map(|i| record(i, (i..i + 12).collect(), SampleSource::FrontPage))
                .collect(),
            upcoming: (100..140)
                .map(|i| record(i, (i % 50..i % 50 + 4).collect(), SampleSource::Upcoming))
                .collect(),
            network,
            top_users,
        }
    }

    #[test]
    fn disabled_plan_is_identity() {
        let ds = dataset();
        let plan = FaultPlan::default();
        assert!(plan.is_disabled());
        let (out, log) = plan.apply(&ds);
        assert_eq!(out.front_page, ds.front_page);
        assert_eq!(out.upcoming, ds.upcoming);
        assert_eq!(out.network, ds.network);
        assert_eq!(out.top_users, ds.top_users);
        assert!(!log.any_injected());
        assert_eq!(log.fan_link_coverage(), 1.0);
    }

    #[test]
    fn injection_is_bit_reproducible() {
        let ds = dataset();
        let plan = FaultPlan::degraded(0.4, 77);
        let (a, log_a) = plan.apply(&ds);
        let (b, log_b) = plan.apply(&ds);
        assert_eq!(a.front_page, b.front_page);
        assert_eq!(a.upcoming, b.upcoming);
        assert_eq!(a.network, b.network);
        assert_eq!(log_a, log_b);
        assert!(log_a.any_injected(), "a 0.4 plan over 60 stories must fire");
    }

    #[test]
    fn injection_is_record_local() {
        // The faults a story suffers depend only on its identity, not
        // on which other stories are present: injecting over a subset
        // gives the same per-story outcomes.
        let ds = dataset();
        let plan = FaultPlan::degraded(0.5, 9);
        let mut full_log = FaultLog::default();
        let full = plan.apply_records(&ds.front_page, &mut full_log);
        let mut half_log = FaultLog::default();
        let half = plan.apply_records(&ds.front_page[10..], &mut half_log);
        let full_tail: Vec<_> = full
            .iter()
            .filter(|r| r.story.0 >= ds.front_page[10].story.0)
            .cloned()
            .collect();
        assert_eq!(half, full_tail);
    }

    #[test]
    fn fetch_budget_drops_stories_and_counts_retries() {
        let ds = dataset();
        let plan = FaultPlan {
            fetch_failure: 0.9,
            seed: 3,
            ..FaultPlan::default()
        };
        let (out, log) = plan.apply(&ds);
        assert!(
            log.fetch_failed_stories > 0,
            "0.9^3 per story must drop some"
        );
        assert!(log.fetch_retries > 0);
        assert_eq!(
            out.front_page.len() + out.upcoming.len() + log.fetch_failed_stories,
            ds.front_page.len() + ds.upcoming.len()
        );
    }

    #[test]
    fn truncation_keeps_a_prefix() {
        let ds = dataset();
        let plan = FaultPlan {
            truncate_voters: 1.0,
            seed: 4,
            ..FaultPlan::default()
        };
        let (out, log) = plan.apply(&ds);
        assert_eq!(log.truncated_stories, 60);
        for (faulted, orig) in out.front_page.iter().zip(&ds.front_page) {
            assert!(faulted.voters.len() < orig.voters.len());
            assert_eq!(faulted.voters[..], orig.voters[..faulted.voters.len()]);
            assert_eq!(faulted.voters[0], orig.submitter);
        }
    }

    #[test]
    fn fan_faults_shrink_the_network_deterministically() {
        let ds = dataset();
        let plan = FaultPlan {
            drop_fan_list: 0.3,
            partial_fan_list: 0.5,
            seed: 11,
            ..FaultPlan::default()
        };
        let (out, log) = plan.apply(&ds);
        assert!(out.network.edge_count() < ds.network.edge_count());
        assert_eq!(
            log.fan_links_before - log.fan_links_dropped,
            log.fan_links_after
        );
        assert!(log.fan_link_coverage() < 1.0);
        assert!(log.fan_link_coverage() > 0.0);
        // Surviving fan lists are exact sublists of the originals.
        for u in 0..ds.network.user_count() {
            let u = UserId::from_index(u);
            let kept = out.network.fans(u);
            let orig = ds.network.fans(u);
            assert!(kept.iter().all(|f| orig.contains(f)));
        }
    }
}
