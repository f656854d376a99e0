//! Property tests for the simulator checkpoint contract: a `Sim`
//! snapshotted at an arbitrary rest point — a minute boundary or an
//! arbitrary event-budget instant mid-minute — and restored against a
//! regenerated population must finish the run bit-identically to an
//! uninterrupted sim, and the in-process supervised sweep with
//! checkpointing on must be worker-count invariant (1/2/8). Damaged
//! snapshots and mismatched populations come back as typed errors.
//! Specs draw either promotion rule; a diversity-rule resume refolds
//! every story from an empty fold, so its cut always falls after a
//! promotion.

use digg_sim::config::PromoterKind;
use digg_sim::population::PopulationConfig;
use digg_sim::supervisor::{run_sweep_supervised_lenient, SupervisorConfig};
use digg_sim::sweep::{run_scenario, scenario_population, scenario_sim, ScenarioSpec};
use digg_sim::{Kernel, Minute, Sim, SimConfig};
use digg_snapshot::{Restore, Snapshot};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const MINUTES: u64 = 240;

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        any::<u64>(),
        0.05..0.4f64,  // submissions per minute
        0.0..0.3f64,   // external rate
        any::<bool>(), // diversity rule, else the toy threshold
    )
        .prop_map(|(seed, subs, ext, diversity)| {
            let mut cfg = SimConfig::toy(seed);
            cfg.submissions_per_minute = subs;
            cfg.external_rate = ext;
            if diversity {
                cfg.promoter = PromoterKind::Diversity {
                    min_weighted: 10.0,
                    in_network_weight: 0.4,
                };
            }
            ScenarioSpec {
                name: "ckpt-prop".into(),
                cfg,
                pop_cfg: PopulationConfig::toy(400),
                kernel: Kernel::default(),
                minutes: MINUTES,
            }
        })
}

/// Fingerprint of a finished sim: its own snapshot bytes. Two sims
/// with equal bytes agree on every serialized field — stories, votes,
/// listings, rng streams, event queue, metrics, clock.
fn final_bytes(sim: &Sim) -> Vec<u8> {
    sim.snapshot()
}

/// For a diversity-rule spec, the minute of the run's first promotion
/// and the events fired up to it; `None` under the threshold rule.
/// Panics if the diversity run promotes nothing: its resume would test
/// no rebuilt fold that ever decided anything.
fn first_promotion(spec: &ScenarioSpec, seed: u64) -> Option<(u64, u64)> {
    if !matches!(spec.cfg.promoter, PromoterKind::Diversity { .. }) {
        return None;
    }
    let mut probe = scenario_sim(spec, seed);
    while probe.metrics().promotions == 0 {
        let done = probe.run_budgeted(Minute(MINUTES), 1);
        assert!(
            !done || probe.metrics().promotions > 0,
            "no promotion in {MINUTES} minutes"
        );
    }
    Some((probe.now().0, probe.events_fired()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Checkpoint at an arbitrary minute: restore from the snapshot
    /// (against a freshly regenerated population) and run to the end;
    /// the final state is byte-identical to an uninterrupted run.
    #[test]
    fn minute_checkpoint_resume_is_bit_identical(
        spec in spec_strategy(),
        seed in any::<u64>(),
        cut_pick in any::<u64>(),
    ) {
        let promoted_by = first_promotion(&spec, seed);
        let cut = match promoted_by {
            Some((minute, _)) => minute + cut_pick % (MINUTES + 1 - minute),
            None => cut_pick % MINUTES,
        };

        let mut straight = scenario_sim(&spec, seed);
        straight.run(MINUTES);

        let mut first = scenario_sim(&spec, seed);
        first.run(cut);
        prop_assert!(promoted_by.is_none() || first.metrics().promotions > 0);
        let bytes = first.snapshot();
        // The worker's situation after a crash: nothing survives but
        // the snapshot file, so the population is regenerated from the
        // spec, never carried over.
        let pop = scenario_population(&spec, seed);
        let mut resumed = Sim::restore(&bytes, pop).map_err(|e| format!("{e:?}"))?;
        prop_assert_eq!(resumed.snapshot(), bytes, "re-snapshot must be byte-stable");
        resumed.run(MINUTES - cut);

        prop_assert_eq!(final_bytes(&resumed), final_bytes(&straight));
        prop_assert_eq!(resumed.metrics(), straight.metrics());
    }

    /// Checkpoint at an arbitrary *event-budget* instant (mid-minute
    /// rest point, the supervisor's checkpoint cadence): resume and
    /// drain; byte-identical to the uninterrupted run.
    #[test]
    fn event_budget_checkpoint_resume_is_bit_identical(
        spec in spec_strategy(),
        seed in any::<u64>(),
        budget_pick in 1..4000u64,
    ) {
        let promoted_by = first_promotion(&spec, seed);
        let budget = match promoted_by {
            Some((_, events)) => events + budget_pick,
            None => budget_pick,
        };
        let mut straight = scenario_sim(&spec, seed);
        straight.run(MINUTES);

        let horizon = Minute(MINUTES);
        let mut first = scenario_sim(&spec, seed);
        let done = first.run_budgeted(horizon, budget);
        prop_assert!(promoted_by.is_none() || first.metrics().promotions > 0);
        let bytes = first.snapshot();
        let pop = scenario_population(&spec, seed);
        let mut resumed = Sim::restore(&bytes, pop).map_err(|e| format!("{e:?}"))?;
        if !done {
            while !resumed.run_budgeted(horizon, budget) {}
        }

        prop_assert_eq!(final_bytes(&resumed), final_bytes(&straight));
    }

    /// Any single flipped byte in a sim snapshot is a typed error from
    /// restore — never a panic; and a population regenerated from the
    /// wrong seed is refused by the fingerprint guard.
    #[test]
    fn damaged_snapshot_or_wrong_population_is_a_typed_error(
        spec in spec_strategy(),
        seed in any::<u64>(),
        at_pick in any::<usize>(),
        mask in 1..=255u8,
    ) {
        let mut sim = scenario_sim(&spec, seed);
        sim.run(60);
        let bytes = sim.snapshot();

        let mut corrupt = bytes.clone();
        let at = at_pick % corrupt.len();
        corrupt[at] ^= mask;
        let pop = scenario_population(&spec, seed);
        prop_assert!(Sim::restore(&corrupt, pop).is_err());

        let wrong_pop = scenario_population(&spec, seed ^ 1);
        prop_assert!(Sim::restore(&bytes, wrong_pop).is_err());
    }

    /// The in-process supervised sweep with checkpointing enabled is
    /// worker-count invariant: 1, 2 and 8 workers produce cell rows
    /// equal to straight single-process runs, byte for byte.
    #[test]
    fn supervised_sweep_is_worker_count_invariant(seed in any::<u64>()) {
        let mut quiet = SimConfig::toy(seed);
        quiet.submissions_per_minute = 0.05;
        let specs = vec![
            ScenarioSpec {
                name: "prop-toy".into(),
                cfg: SimConfig::toy(seed),
                pop_cfg: PopulationConfig::toy(400),
                kernel: Kernel::default(),
                minutes: MINUTES,
            },
            ScenarioSpec {
                name: "prop-quiet".into(),
                cfg: quiet,
                pop_cfg: PopulationConfig::toy(400),
                kernel: Kernel::default(),
                minutes: MINUTES,
            },
        ];
        let seeds = [seed ^ 0xA5, seed ^ 0x5A];

        let mut expected = Vec::new();
        for spec in &specs {
            for &s in &seeds {
                expected.push(run_scenario(spec, s));
            }
        }
        let reference = serde_json::to_string(&expected).map_err(|e| e.to_string())?;

        // A fresh checkpoint directory per sweep: concurrent runs of
        // this property in one process must not share (and delete)
        // each other's generation files.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        for workers in [1usize, 2, 8] {
            let dir = std::env::temp_dir().join(format!(
                "digg-ckpt-prop-{}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed),
                workers
            ));
            let mut cfg = SupervisorConfig::in_process(workers);
            cfg.checkpoint_every = 500;
            cfg.checkpoint_dir = Some(dir.clone());
            let (outcomes, report) = run_sweep_supervised_lenient(&specs, &seeds, &cfg)
                .map_err(|e| format!("{e:?}"))?;
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert!(report.failed.is_empty(), "{:?}", report.failed);
            let rows: Vec<_> = outcomes.iter().filter_map(|o| o.run()).collect();
            prop_assert_eq!(rows.len(), expected.len(), "{} workers", workers);
            let got = serde_json::to_string(&rows).map_err(|e| e.to_string())?;
            prop_assert_eq!(&got, &reference, "{} workers", workers);
        }
    }
}
