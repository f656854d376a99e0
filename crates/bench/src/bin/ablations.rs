//! Run the ablation experiments ABL1–ABL5 (see DESIGN.md §4) and
//! print their tables. ABL4's `site` rows are also written as the
//! `robustness` artifact.
//!
//! Usage: `ablations`

use digg_bench::ablations::{
    feature_ablation, network_grid, observation_ablation, promotion_ablation,
    render_feature_ablation, render_network, render_observation_ablation,
    render_promotion_ablation, render_robustness, render_window_sweep, window_sweep, GraphVariant,
    SeedRow, SEED_BAND,
};
use digg_bench::{emit, seed_from_env, shared_synthesis};
use digg_core::features::INTERESTINGNESS_THRESHOLD;
use digg_data::synth::{june2006_scenario, SynthConfig};

fn main() {
    let seed = seed_from_env();
    let ds = &shared_synthesis().dataset;

    let rows = feature_ablation(ds, INTERESTINGNESS_THRESHOLD, seed);
    emit("abl1_features", &render_feature_ablation(&rows), &rows);

    let rows = window_sweep(ds, INTERESTINGNESS_THRESHOLD, seed);
    emit("abl3_window", &render_window_sweep(&rows), &rows);

    let rows = observation_ablation(ds, INTERESTINGNESS_THRESHOLD, seed);
    emit(
        "abl5_observation",
        &render_observation_ablation(&rows),
        &rows,
    );

    let rows = promotion_ablation(seed, 3);
    emit("abl2_promotion", &render_promotion_ablation(&rows), &rows);

    eprintln!(
        "[ablations] ABL4 grid: 3 graphs x {} seeds…",
        SEED_BAND.len()
    );
    let rows = network_grid(&SEED_BAND, des_core::par::worker_threads(), |seed| {
        let (sim_cfg, pop) = june2006_scenario(seed);
        (SynthConfig::june2006(seed), sim_cfg, pop)
    });
    emit("abl4_network", &render_network(&rows), &rows);
    let site: Vec<SeedRow> = rows
        .iter()
        .filter(|r| r.graph == GraphVariant::Site.name())
        .map(|r| r.pipeline.clone())
        .collect();
    emit("robustness", &render_robustness(&site), &site);
}
