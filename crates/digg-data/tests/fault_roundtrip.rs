//! Round-trip property: every fault class injected by a [`FaultPlan`]
//! is either *repaired* or *quarantined* by lenient ingestion, with
//! the matching rule id from the `validate` taxonomy, and the ingested
//! dataset always passes `validate`. Also pins the identity of the
//! disabled plan and the bit-reproducibility of the whole
//! inject-then-ingest pipeline.

use digg_data::faults::FaultPlan;
use digg_data::ingest::{ingest_lenient, DegradationReport};
use digg_data::model::{DiggDataset, SampleSource, StoryRecord};
use digg_data::validate;
use digg_sim::{Minute, StoryId};
use proptest::prelude::*;
use social_graph::{GraphBuilder, UserId};

const N: u32 = 48;
const THRESHOLD: usize = 5;

fn record_strategy(base_id: u32, source: SampleSource) -> impl Strategy<Value = StoryRecord> {
    let votes_range = match source {
        SampleSource::FrontPage => THRESHOLD..20usize,
        SampleSource::Upcoming => 1..THRESHOLD,
    };
    (
        0u32..1000,
        prop::collection::btree_set(0u32..N, votes_range),
        0u32..500,
        any::<bool>(),
    )
        .prop_map(move |(id, raw, extra_votes, augmented)| {
            let voters: Vec<UserId> = raw.into_iter().map(UserId).collect();
            let final_votes = augmented.then(|| voters.len() as u32 + extra_votes);
            StoryRecord {
                story: StoryId(base_id + id),
                submitter: voters[0],
                submitted_at: Minute(0),
                voters,
                source,
                final_votes,
            }
        })
}

fn dataset_strategy() -> impl Strategy<Value = DiggDataset> {
    (
        prop::collection::vec(record_strategy(0, SampleSource::FrontPage), 1..8),
        prop::collection::vec(record_strategy(2000, SampleSource::Upcoming), 1..8),
    )
        .prop_map(|(front_page, upcoming)| {
            // A deterministic scale-free-ish network so fan faults have
            // links to destroy and the Top Users list is meaningful.
            let mut b = GraphBuilder::new(N as usize);
            for u in 0..N {
                for k in 1..=(u % 5) {
                    b.add_watch(UserId((u + k * 11) % N), UserId(u));
                }
            }
            let network = b.build();
            let top_users = network.users_by_fans_desc().into_iter().take(12).collect();
            DiggDataset {
                scraped_at: Minute(1000),
                front_page,
                upcoming,
                network,
                top_users,
            }
        })
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (any::<u64>(), 0.0..0.5f64, 0.0..1.0f64),
        (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
    )
        .prop_map(
            |(
                (seed, fetch_failure, truncate_voters),
                (drop_fan_list, partial_fan_list, duplicate_vote, reorder_votes),
            )| FaultPlan {
                seed,
                fetch_failure,
                truncate_voters,
                drop_fan_list,
                partial_fan_list,
                duplicate_vote,
                reorder_votes,
            },
        )
}

fn run(
    ds: &DiggDataset,
    plan: &FaultPlan,
) -> (DiggDataset, digg_data::FaultLog, DegradationReport) {
    let (faulted, log) = plan.apply(ds);
    let (out, report) = ingest_lenient(faulted, THRESHOLD);
    (out, log, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_fault_class_repaired_or_quarantined_with_matching_rule(
        ds in dataset_strategy(),
        plan in plan_strategy(),
    ) {
        let (faulted, log) = plan.apply(&ds);
        let (out, report) = ingest_lenient(faulted.clone(), THRESHOLD);

        // The lenient output always passes strict validation.
        let violations = validate::validate(&out, THRESHOLD);
        prop_assert!(violations.is_empty(), "violations survived ingest: {violations:?}");

        // Fetch failures: stories are simply absent from the scrape.
        prop_assert_eq!(
            faulted.front_page.len() + faulted.upcoming.len() + log.fetch_failed_stories,
            ds.front_page.len() + ds.upcoming.len()
        );
        // Everything the ingester saw is either kept or quarantined.
        prop_assert_eq!(report.records_seen, faulted.front_page.len() + faulted.upcoming.len());
        prop_assert_eq!(report.records_kept + report.quarantined.len(), report.records_seen);

        // Duplicated vote records <-> `no-duplicate-voters` repairs,
        // one removed entry per injected duplicate.
        prop_assert_eq!(report.repairs("no-duplicate-voters"), log.duplicated_votes);

        // Head reorders (submitter displaced) <-> `submitter-first`
        // repairs; mid-list reorders are invisible without timestamps
        // and must NOT trigger repairs.
        prop_assert_eq!(report.repairs("submitter-first"), log.head_reorders);

        // Truncation's only rule consequence: a front-page record cut
        // below the threshold is quarantined under the boundary rule.
        for q in &report.quarantined {
            prop_assert_eq!(q.rule.as_str(), "promotion-boundary-fp");
            prop_assert_eq!(q.source, SampleSource::FrontPage);
        }
        prop_assert!(report.quarantined.len() <= log.truncated_stories);

        // Fault classes that cannot arise from injection never get
        // phantom repairs.
        prop_assert_eq!(report.repairs("voters-in-network"), 0);
        prop_assert_eq!(report.repairs("final-not-below-scraped"), 0);

        // Fan faults: the informational coverage measurement is a
        // probability, and the Top Users list is only ever re-sorted
        // when fan lists actually degraded.
        prop_assert!((0.0..=1.0).contains(&report.fan_coverage));
        if log.dropped_fan_lists == 0 && log.partial_fan_lists == 0 {
            prop_assert!(!report.top_users_resorted);
            prop_assert_eq!(&out.network, &ds.network);
        }
    }

    #[test]
    fn inject_then_ingest_is_bit_reproducible(
        ds in dataset_strategy(),
        plan in plan_strategy(),
    ) {
        let (out_a, log_a, report_a) = run(&ds, &plan);
        let (out_b, log_b, report_b) = run(&ds, &plan);
        prop_assert_eq!(out_a.front_page, out_b.front_page);
        prop_assert_eq!(out_a.upcoming, out_b.upcoming);
        prop_assert_eq!(out_a.network, out_b.network);
        prop_assert_eq!(out_a.top_users, out_b.top_users);
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(report_a, report_b);
    }

    #[test]
    fn disabled_plan_roundtrips_identically(ds in dataset_strategy()) {
        let plan = FaultPlan::default();
        prop_assert!(plan.is_disabled());
        let (faulted, log) = plan.apply(&ds);
        prop_assert!(!log.any_injected());
        let (out, report) = ingest_lenient(faulted, THRESHOLD);
        prop_assert_eq!(out.front_page, ds.front_page);
        prop_assert_eq!(out.upcoming, ds.upcoming);
        prop_assert_eq!(out.network, ds.network);
        prop_assert_eq!(out.top_users, ds.top_users);
        prop_assert!(!report.any_degradation());
    }
}
