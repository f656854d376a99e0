//! The `degradation_sweep` experiment: how gracefully does the §5.2
//! predictor degrade as scrape faults accumulate?
//!
//! Each cell of the sweep takes the *same* clean small-scale synthesis,
//! injects faults at one rate with [`FaultPlan::degraded`] (transient
//! fetch failures, truncated voter lists, dropped/partial fan lists,
//! duplicated and reordered votes), repairs what it can through
//! lenient ingestion, and runs the train-and-holdout pipeline on the
//! surviving records. The per-rate rows — records kept/quarantined,
//! fan coverage, holdout precision/recall/F1 — go into
//! `bench_summary.json` as the `degradation` section, so the decay
//! curve is tracked run over run like every other bench number.
//!
//! Fault injection draws from per-entity [`des_core::StreamRng`]
//! streams, so each cell is **bit-reproducible** across runs and
//! thread counts; the rate-0 cell is the identity (the clean pipeline,
//! byte for byte). The experiment re-runs one degraded cell and
//! compares, and fails its own artifact if the replay diverges.
//!
//! The cell fan-out is the robustness path end to end: cells run
//! through [`des_core::par::try_par_map`] with a per-cell `catch_unwind`,
//! and the sweep always carries one deliberately poisoned cell — the
//! self-check that a panicking worker fails only its own cell while
//! the batch completes.

use crate::registry::{record_degradation, Artifact};
use crate::timing::time_ms;
use digg_core::features::{FanCoverage, INTERESTINGNESS_THRESHOLD};
use digg_core::pipeline::{run_pipeline_with_coverage, PipelineConfig};
use digg_data::faults::FaultPlan;
use digg_data::ingest::ingest_lenient;
use digg_data::synth::{synthesize_small, SynthConfig, Synthesis};
use digg_data::DiggDataset;
use digg_sim::scenario::PROMOTION_THRESHOLD;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The injected fault rates, one sweep cell each. Rate 0 pins the
/// clean baseline inside the same machinery.
pub const FAULT_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// Panic message of the deliberately poisoned self-check cell.
const POISON_MESSAGE: &str = "deliberate degradation_sweep poison cell";

/// One row of the decay curve: dataset damage on the left, predictor
/// quality on the right.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradationRecord {
    /// Injected fault rate (drives every [`FaultPlan::degraded`] knob).
    pub rate: f64,
    /// Records in the clean scrape.
    pub records_seen: usize,
    /// Records surviving fetch faults and lenient ingestion.
    pub records_kept: usize,
    /// Records quarantined by lenient ingestion.
    pub records_quarantined: usize,
    /// Kept records that needed at least one repair.
    pub records_repaired: usize,
    /// Stories lost to fetch failures after retries.
    pub fetch_failed_stories: usize,
    /// Surviving fraction of fan links after fan-list faults.
    pub fan_link_coverage: f64,
    /// Fraction of distinct voters with at least one observed fan.
    pub fan_coverage: f64,
    /// Fan coverage over the training (front-page) records.
    pub training_coverage: f64,
    /// Fan coverage over the selected holdout records.
    pub holdout_coverage: f64,
    /// Holdout stories the pipeline could evaluate.
    pub holdout_stories: usize,
    /// Holdout precision, when anything was predicted positive.
    pub precision: Option<f64>,
    /// Holdout recall, when the holdout had positives.
    pub recall: Option<f64>,
    /// Holdout F1, when precision and recall are defined.
    pub f1: Option<f64>,
}

/// Outcome of one fanned-out cell: a decay row, or the panic message
/// of a cell that died (only the poison self-check, in a healthy run).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RateCell {
    /// The cell completed.
    Row(DegradationRecord),
    /// The cell panicked; the rest of the sweep is unaffected.
    Panicked(String),
}

impl RateCell {
    fn row(&self) -> Option<&DegradationRecord> {
        match self {
            RateCell::Row(r) => Some(r),
            RateCell::Panicked(_) => None,
        }
    }
}

/// The timing-free `degradation_sweep` artifact payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradationSweepPayload {
    /// One row per fault rate, in [`FAULT_RATES`] order.
    pub rows: Vec<DegradationRecord>,
    /// The poisoned cell panicked alone and every real cell survived.
    pub poison_isolated: bool,
    /// Re-running a degraded cell reproduced its row bit for bit.
    pub reproducible: bool,
}

/// Interestingness threshold for the sweep, chosen from the *clean*
/// sample's median final vote count — across both the front-page and
/// upcoming samples, so the holdout (drawn from upcoming) contains
/// positives and the precision/recall columns are defined. Every
/// fault rate judges against the same bar.
fn interestingness_threshold(ds: &DiggDataset) -> u32 {
    let mut finals: Vec<u32> = ds
        .front_page
        .iter()
        .chain(&ds.upcoming)
        .filter_map(|r| r.final_votes)
        .collect();
    if finals.is_empty() {
        return INTERESTINGNESS_THRESHOLD;
    }
    finals.sort_unstable();
    finals[finals.len() / 2].max(1)
}

/// Pipeline configuration shared by every cell, derived from the clean
/// dataset (the fault rate must be the only thing that varies).
fn pipeline_config(clean: &DiggDataset) -> PipelineConfig {
    PipelineConfig {
        threshold: interestingness_threshold(clean),
        top_user_rank: clean.top_users.len().max(100),
        cv_folds: 5,
        ..PipelineConfig::default()
    }
}

/// Run one cell: inject at `rate`, ingest leniently, evaluate.
pub fn degrade_cell(synthesis: &Synthesis, rate: f64, seed: u64) -> DegradationRecord {
    let plan = FaultPlan::degraded(rate, seed);
    let (faulted, log) = plan.apply(&synthesis.dataset);
    let (ds, report) = ingest_lenient(faulted, PROMOTION_THRESHOLD);
    let cfg = pipeline_config(&synthesis.dataset);
    let sim = &synthesis.sim;
    let out = run_pipeline_with_coverage(&ds, &cfg, &|r| sim.story(r.story).is_front_page());
    let (training_coverage, holdout_coverage, holdout_stories, precision, recall, f1) = match &out {
        Some((result, coverage)) => (
            coverage.training.fraction(),
            coverage.holdout.fraction(),
            result.holdout_stories,
            result.holdout.precision(),
            result.holdout.recall(),
            result.holdout.f1(),
        ),
        // Too degraded to train or select a holdout: coverage is still
        // measurable over what ingestion kept.
        None => (
            FanCoverage::compute(ds.front_page.iter(), &ds.network).fraction(),
            FanCoverage::compute(ds.upcoming.iter(), &ds.network).fraction(),
            0,
            None,
            None,
            None,
        ),
    };
    DegradationRecord {
        rate,
        records_seen: report.records_seen + log.fetch_failed_stories,
        records_kept: report.records_kept,
        records_quarantined: report.quarantined.len(),
        records_repaired: report.records_repaired,
        fetch_failed_stories: log.fetch_failed_stories,
        fan_link_coverage: log.fan_link_coverage(),
        fan_coverage: report.fan_coverage,
        training_coverage,
        holdout_coverage,
        holdout_stories,
        precision,
        recall,
        f1,
    }
}

/// Fan the rate cells (plus, when `poison` is set, one deliberately
/// panicking cell at the end) across `threads` workers. Each cell runs
/// under its own `catch_unwind` inside [`des_core::par::try_par_map`]: the
/// poison cell reports [`RateCell::Panicked`] in position while every
/// real cell completes.
pub fn sweep_cells(
    synthesis: &Synthesis,
    rates: &[f64],
    seed: u64,
    threads: usize,
    poison: bool,
) -> Vec<RateCell> {
    let cells: Vec<Option<f64>> = rates
        .iter()
        .copied()
        .map(Some)
        .chain(poison.then_some(None))
        .collect();
    let outcomes = des_core::par::try_par_map(&cells, threads, |&cell| {
        // AssertUnwindSafe: a panicking cell's partial state is
        // dropped with the unwind; only the RateCell value escapes.
        let guarded = catch_unwind(AssertUnwindSafe(|| match cell {
            Some(rate) => degrade_cell(synthesis, rate, seed),
            None => panic!("{POISON_MESSAGE}"),
        }));
        match guarded {
            Ok(row) => RateCell::Row(row),
            Err(p) => RateCell::Panicked(des_core::panic_message(p.as_ref())),
        }
    });
    match outcomes {
        Ok(outcomes) => outcomes,
        Err(e) => panic!("degradation sweep worker panicked outside its cell: {e}"),
    }
}

/// The `degradation_sweep` standalone experiment.
pub fn run_degradation_sweep(seed: u64) -> (Vec<Artifact>, usize) {
    let threads = des_core::par::worker_threads();
    let synthesis = synthesize_small(&SynthConfig::small(seed));
    let (cells, sweep_ms) = time_ms(|| sweep_cells(&synthesis, &FAULT_RATES, seed, threads, true));

    let rows: Vec<DegradationRecord> = cells.iter().filter_map(|c| c.row()).cloned().collect();
    let poison_isolated = rows.len() == FAULT_RATES.len()
        && matches!(cells.last(), Some(RateCell::Panicked(m)) if m.contains(POISON_MESSAGE));
    // At rate 0 the fault layer must be the identity: nothing fetched
    // away, every fan link intact. (Ingest repairs are judged against
    // the scrape itself, not the fault layer, so they aren't part of
    // this check.)
    let baseline_clean = rows
        .first()
        .is_some_and(|r| r.fetch_failed_stories == 0 && r.fan_link_coverage == 1.0);
    // Determinism self-check: replay the heaviest cell and compare.
    let replay = degrade_cell(&synthesis, FAULT_RATES[FAULT_RATES.len() - 1], seed);
    let reproducible = rows.last() == Some(&replay);

    let payload = DegradationSweepPayload {
        rows: rows.clone(),
        poison_isolated,
        reproducible,
    };

    let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "n/a".into());
    let mut rendered = format!(
        "Degradation sweep ({} fault rates + 1 poison cell, {threads} threads, {sweep_ms:.1} ms)\n",
        FAULT_RATES.len()
    );
    rendered
        .push_str("  rate   kept/seen  quar  repair  fans   cover  holdout  prec  recall  f1\n");
    for r in &rows {
        rendered.push_str(&format!(
            "  {:<5.2} {:>5}/{:<5} {:>4} {:>6}  {:>5.2} {:>6.2} {:>8}  {:>4}  {:>6}  {:>4}\n",
            r.rate,
            r.records_kept,
            r.records_seen,
            r.records_quarantined,
            r.records_repaired,
            r.fan_link_coverage,
            r.fan_coverage,
            r.holdout_stories,
            fmt_opt(r.precision),
            fmt_opt(r.recall),
            fmt_opt(r.f1),
        ));
    }
    rendered.push_str(&format!(
        "poison cell isolated: {poison_isolated}; degraded cell replay bit-identical: {reproducible}; clean baseline untouched: {baseline_clean}\n"
    ));

    let ok = poison_isolated && reproducible && baseline_clean;
    let scenarios = cells.len();
    record_degradation(rows);
    (
        vec![Artifact::new("degradation_sweep", rendered, &payload).with_ok(ok)],
        scenarios,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::scrape::ScrapeConfig;
    use digg_data::synth::synthesize_with;
    use digg_sim::population::{Population, PopulationConfig};
    use digg_sim::time::DAY;
    use digg_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_synthesis() -> Synthesis {
        let cfg = SynthConfig {
            seed: 9,
            scrape: ScrapeConfig {
                front_page_stories: 40,
                upcoming_stories: 120,
                top_users: 150,
                network_cutoff: 1000,
                network_scraped: 1600,
                ..ScrapeConfig::default()
            },
            min_promotions: 20,
            min_scrape_days: 0,
            saturation_days: 1,
            max_minutes: 3 * DAY,
        };
        let sim_cfg = SimConfig::toy(9);
        let mut rng = StdRng::seed_from_u64(9);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(sim_cfg.users));
        synthesize_with(&cfg, sim_cfg, pop)
    }

    #[test]
    fn rate_zero_cell_is_the_untouched_baseline() {
        let s = toy_synthesis();
        let row = degrade_cell(&s, 0.0, 7);
        // The fault layer injected nothing...
        assert_eq!(row.rate, 0.0);
        assert_eq!(row.fetch_failed_stories, 0);
        assert_eq!(row.fan_link_coverage, 1.0);
        // ...so the cell is exactly lenient ingestion of the clean
        // scrape (the toy scrape has genuine out-of-network voters, so
        // repairs need not be zero — they must match the direct path).
        let (_, report) = ingest_lenient(s.dataset.clone(), PROMOTION_THRESHOLD);
        assert_eq!(row.records_kept, report.records_kept);
        assert_eq!(row.records_quarantined, report.quarantined.len());
        assert_eq!(row.records_repaired, report.records_repaired);
        assert_eq!(row.fan_coverage, report.fan_coverage);
    }

    #[test]
    fn cells_are_reproducible_and_poison_is_isolated() {
        let s = toy_synthesis();
        let rates = [0.0, 0.3];
        let one = sweep_cells(&s, &rates, 11, 1, true);
        assert_eq!(one.len(), 3);
        match &one[2] {
            RateCell::Panicked(m) => assert!(m.contains(POISON_MESSAGE), "message: {m}"),
            RateCell::Row(_) => panic!("poison cell completed"),
        }
        for cell in &one[..2] {
            assert!(cell.row().is_some(), "real cell panicked: {cell:?}");
        }
        // Bit-identical across thread counts and on replay.
        for threads in [2, 8] {
            assert_eq!(sweep_cells(&s, &rates, 11, threads, true), one);
        }
        assert_eq!(RateCell::Row(degrade_cell(&s, 0.3, 11)), one[1]);
    }

    #[test]
    fn faults_actually_degrade_the_dataset() {
        let s = toy_synthesis();
        let row = degrade_cell(&s, 0.5, 13);
        assert!(
            row.records_kept < row.records_seen || row.records_repaired > 0,
            "a 0.5 fault rate left the dataset untouched: {row:?}"
        );
        assert!(row.fan_link_coverage < 1.0);
        assert!((0.0..=1.0).contains(&row.fan_coverage));
        assert!((0.0..=1.0).contains(&row.training_coverage));
    }
}
