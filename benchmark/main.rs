//! The repository benchmark: three workloads, end-to-end metrics, and a
//! traced run that splits each workload's time by layer.
//!
//! # Running it
//!
//! The benchmark is a package of its own in `benchmark/`, with path
//! dependencies on the workspace crates. From the repository root:
//!
//! ```text
//! cargo build --release --offline --manifest-path benchmark/Cargo.toml
//! benchmark/target/release/benchmark --all --seed 2006   # every workload
//! benchmark/target/release/benchmark --workload live_1m --seed 7
//! benchmark/target/release/benchmark --all --trace       # untraced + traced
//! cargo test --release --offline --manifest-path benchmark/Cargo.toml
//! ```
//!
//! The root `BENCHMARK.json` runs it as `cargo run --release --quiet
//! --offline --manifest-path benchmark/Cargo.toml -- --workload W --seed
//! N --seconds 30 --trace 0|1`.
//!
//! Flags:
//!
//! * `--all` (the default) runs every workload, each in its own child
//!   process, so peak RSS and warm caches do not leak from one workload
//!   into the next. `--workload NAME` runs one workload in this process.
//! * `--seed N` (default 2006) generates every input; the same seed
//!   gives the same inputs.
//! * `--seconds S` (default 30, the `run_seconds` of `BENCHMARK.json`)
//!   is how long the measured passes run: one always runs, and more
//!   follow while one more of average length still fits in `S`. A pass
//!   of any workload takes 12 to 19 s, so at 30 s a run makes two
//!   passes, or one when the host runs slow.
//! * `--trace [0|1]` also keeps spans and reports the per-layer metrics.
//! * `--smoke` shrinks every input; the tests use it.
//! * `--out DIR` (default `target/benchmark`) receives
//!   `result_<workload>.json` (`_traced` for traced runs) and
//!   `trace_<workload>.json`. Graph maps and checkpoints go to a
//!   temporary directory inside it that is removed on exit.
//!
//! A run prints every metric with its unit, its sample count and, with
//! enough samples, its tail: the highest percentile, counted from the
//! better side, that has at least ten samples beyond it. Then it
//! prints the facts (below) and how many output checks passed. The
//! last line of standard output is one JSON object, `{"correct",
//! "attempted", "failed", "metrics"}`: `attempted` and `failed` count
//! output checks, and `metrics` holds every end-to-end metric (every
//! per-layer metric when traced), each as `{"value", "unit"}`. Any
//! failed check makes the exit code 1. Every workload uses at most
//! `nproc` threads; `seed_band` also uses at most `nproc` worker
//! processes.
//!
//! # Workloads
//!
//! Each is a batch job driven by one process. Set-up is timed on its
//! own and kept out of the passes. It is repeated at least 3 times, and
//! more while the set-ups so far take under a tenth of `--seconds` (up
//! to 400): half of that time before the first pass and, where the
//! workload can, the rest after the last one, so that cheap set-ups are
//! sampled at both ends of the run ([`Ctx::another_setup`]).
//!
//! * `june2006` — the full reproduction at one seed, assembled from
//!   public calls: `june2006_population` and `Sim::new` (set-up), then
//!   `Sim::run` to the scrape condition, `scrape_stories` and
//!   `scrape_network`, `Sim::run` for 4 more days,
//!   `augment_final_votes`, `io::to_json` → `from_json` →
//!   `ingest_strict`, figures 1–4 with scatter, decay and intext,
//!   `fig5::run` (C4.5, 10-fold CV), `prediction::run`, and `render()`
//!   of every result. A pass takes about 13 s. *Why:* the headline user
//!   run. `digg-sim` is over 98% of it (about 800k simulated votes) and
//!   the 25k-user graph fits in cache, so an analytics-layer change
//!   should show no gain here.
//! * `seed_band` — eight seeds of `june2006_small` (5k users, 7
//!   simulated days) as four sequential `run_sweep_supervised_lenient`
//!   sweeps of two cells each, on `nproc` worker subprocesses (this
//!   binary, re-run with `--sweep-worker`) that checkpoint every 20,000
//!   events. Set-up is a zero-minute sweep: spawn the workers, ship the
//!   specs, build the populations. A pass takes about 14 s. *Why:* the
//!   same simulator used differently, as many small cells with
//!   checkpoint writes beside the event loop (they more than double the
//!   sweep time). A simulator speedup that bloats snapshot state shows
//!   here and not in `june2006`.
//! * `live_1m` — a 1M-user, 10M-edge graph (`build_parallel` is the
//!   set-up, all of it before the passes, which drop the edge list),
//!   then 200k stories of 100 cascade-shaped voters: after the first,
//!   each voter is with probability 0.5 a random fan of an earlier
//!   voter, otherwise a uniform user. A pass feeds them, in 10 batches
//!   of 20k stories, through `incr::incremental_checkpoints` (per-vote
//!   `apply_vote` plus the streaming Fig. 5 verdict) and
//!   `scale::sweep_totals`, on one thread. A pass takes about 13 s.
//!   *Why:* the live per-vote analytics regime the paper's prediction
//!   depends on: 48% of votes are in-network and 40% of verdicts say
//!   interesting, against about 0% and 100% with uniform voters.
//!   `digg-core` and its membership probes do most of the work here.
//!   The traced run also writes the graph as a `GraphMap`, opens it
//!   verified and trusted, and sweeps the same batches over the map.
//!
//! The sweeps and applies of a pass run on one thread
//! ([`PASS_THREADS`]); set-up and input generation use `nproc`.
//!
//! There is no multi-million-user workload. One with 5M users and 50M
//! edges (a 480 MB CSR, 4.6 times L3) ingested to a `GraphMap` and
//! swept with uniform voters was tried: its DRAM-bound sweeps spread by
//! up to 0.34 over ten runs of one program, past the widest bound a
//! metric may have, and a run took 38–50 s at 1.6 GB peak RSS. Its
//! map write, open and mapped-sweep metrics are measured on `live_1m`'s
//! graph instead.
//!
//! # End-to-end metrics
//!
//! Emitted by untraced runs, every one by every workload. `bound` is
//! the share of the parent commit's median by which a metric may worsen
//! before a change counts as a regression.
//!
//! | name | unit | better | bound | what it is |
//! |---|---|---|---|---|
//! | `wall_s` | s | lower | 25% | mean wall time of one pass over the workload's inputs after set-up: the reproduction (`june2006`), the four sweeps (`seed_band`), the 10 apply and 10 sweep batches (`live_1m`) |
//! | `setup_s` | s | lower | 25% | mean set-up time, as listed per workload above |
//! | `votes_per_s` | votes/s | higher | 25% | votes over the time spent on the workload's vote path, all passes together: `Sim::run` (`june2006`; samples are its six-hour segments), the sweeps (`seed_band`; samples are sweeps), `apply_vote` and then the sweep (`live_1m`; samples are batches) |
//! | `peak_rss_mb` | MB | lower | 25% | peak resident set (`VmHWM`): of the process up to the end of the first pass (`june2006`); the median of the workers' peaks, the cells running there (`seed_band`); of the first graph build or, if higher, of everything after the builds (`live_1m`; see [`host::reset_peak_rss`]) |
//!
//! The times are means and the rates totals over totals, not medians
//! of their samples, because of how the host's speed moves. On the
//! 2-vCPU VM the numbers below come from, a fixed loop runs at one of
//! two speeds about 1.6 times apart, switching every 0.5 to 3 s as other
//! tenants load the cores. Over 30-s windows of a 4-minute log, the
//! share of slow samples went from 0.26 to 0.59, and the median sample
//! jumped between the two speeds (51.5 to 79.3 ms) while the mean
//! followed the share (56 to 69 ms). A median of short samples, such as
//! 17-ms set-ups, reads whichever speed held most of the run: set
//! medians of `june2006`'s `setup_s` came out 23 and 32 ms for one
//! program. The mean moves with the slow share only.
//!
//! Output checks take the place of a failure-rate metric, which would
//! read 0: `failed / attempted` of the result line is the share of
//! checks that failed. The checks are: `june2006` — `ingest_strict`
//! returns `Ok`, `intext` reports no violations, `fig5` and `prediction`
//! return `Some`; `seed_band` — every cell of every sweep is `Completed`
//! with 0 respawns, and (traced) the checkpointed rows are
//! byte-identical to rows swept with `checkpoint_every = 0` and a
//! finished cell's snapshot restores and re-encodes to the same bytes;
//! `live_1m` — incremental checkpoints equal `incr::batch_checkpoints`
//! on the first 200 stories, sweep totals are equal at 1 and at `nproc`
//! threads, and (traced) the serial build equals the parallel one, the
//! graph map is written and opens verified, mapped sweep totals equal
//! the in-memory ones, and the scalar and bitset membership probes
//! agree. `live_1m` also checks the input shape it exists for (see
//! Facts), and `seed_band` that every worker reported its peak RSS.
//!
//! The bounds are wide because the numbers come from a shared host, and
//! a bound must exceed the spread of the metric over runs with
//! different seeds, or an unchanged program fails it. On that VM (2
//! vCPU Xeon, 16 GB, 105 MiB L3) the slow share itself drifts over
//! minutes: within one set of runs, `june2006`'s pass took 13.8 s and,
//! ten minutes later, 19.0 s. Averaging within a run does not remove
//! that. In three sets of ten 30-s runs per workload, each run with its
//! own seed and the workloads interleaved, the spread (interquartile
//! range over median) per workload was 0.10–0.24 for `wall_s`,
//! 0.08–0.23 for `votes_per_s`, 0.08–0.31 for `setup_s` and at most
//! 0.07 for `peak_rss_mb`; `seed_band`'s times spread widest in two of
//! the three sets. The sets' medians differed by at most 0.12 for the
//! times and rates and 0.02 for `peak_rss_mb`. Bounds of 5–10% do not
//! hold there, and the 25% used for every metric is the widest a bound
//! may be.
//!
//! # Per-layer metrics
//!
//! Emitted by traced runs. The layers are the workspace crates the
//! benchmark calls: `digg-sim` (engine, supervisor), `digg-data`
//! (scrape, io, ingest), `social-graph` (builder and parallel build,
//! mmap, membership), `digg-core` (story metrics, incremental,
//! pipeline, experiments), `digg-ml` (C4.5, cross-validation, stream),
//! `digg-snapshot`, and `des-core` (the parallel fan-out, reached
//! through the sweeps). `digg-stats` runs only inside the `digg-core`
//! figures; `digg-epidemics` and `digg-lint` are on no measured path.
//! A metric reads 0 on the workloads that do not measure it. Grouped
//! by the end-to-end metric each should move:
//!
//! * Every workload: `<layer>.self_ms` for each layer it calls,
//!   `bench.self_ms` (input generation and checks) and `trace.wall_ms`.
//! * `june2006` → `wall_s`, `votes_per_s`: `digg-sim.run_ms`;
//!   `digg-data.scrape_ms`, `digg-data.io_ms`, `digg-data.json_bytes`,
//!   `digg-data.ingest_ms`; `digg-core.figures_ms`,
//!   `digg-core.intext_ms`, `digg-core.prediction_ms`,
//!   `digg-core.render_ms`; `digg-ml.fig5_ms`.
//!   `digg-sim.population_ms` moves `setup_s`. Prediction: `digg-data`,
//!   `digg-core` and `digg-ml` together take about 1.5% of `wall_s`
//!   (1.4–1.6% in three traced runs at seed 2006), so changing them
//!   alone cannot move an end-to-end metric of this workload.
//! * `seed_band` → `votes_per_s`: `digg-sim.supervisor.sweep_ms`
//!   (median), `digg-sim.supervisor.nockpt_sweep_ms` (the same sweeps
//!   with `checkpoint_every = 0`), `digg-snapshot.overhead_ratio` (their
//!   ratio), and one in-process `Sim::snapshot` / `Sim::restore` of a
//!   finished cell: `digg-snapshot.encode_ms`, `digg-snapshot.decode_ms`,
//!   `digg-snapshot.bytes`. `digg-sim.supervisor.startup_ms` moves
//!   `setup_s`.
//! * `live_1m` → `setup_s`: `social-graph.build_ms`,
//!   `social-graph.build_edges_per_s`, and one serial build,
//!   `social-graph.build_serial_ms`, for
//!   `social-graph.par_build_speedup`.
//! * `live_1m` → `votes_per_s`, `wall_s`: `digg-core.apply_ms` (median)
//!   and `digg-core.apply_max_ms` (slowest batch), `digg-core.sweep_ms`,
//!   `des-core.par_speedup` (the pass's one-thread sweeps against the
//!   same sweeps at `nproc` threads on 3 batches), and
//!   `social-graph.membership_scalar_probes_per_s` against
//!   `social-graph.membership_bitset_probes_per_s` on the same probes.
//! * `live_1m`, the graph as a mapped CSR (no end-to-end metric):
//!   `social-graph.gmap_write_ms`, `social-graph.gmap_bytes`,
//!   `social-graph.gmap_open_ms`, `social-graph.gmap_open_trusted_ms`,
//!   `digg-core.sweep_map_ms` (the pass's batches over the map) and its
//!   ratio to `digg-core.sweep_ms`, `social-graph.gmap_sweep_ratio`.
//! * `live_1m`: `bench.edge_gen_ms` and `bench.voter_gen_ms`, input
//!   generation, which no end-to-end metric includes.
//!
//! # Facts
//!
//! Numbers that describe a run rather than its speed have no better
//! side, so they are not metrics: a change in one is a change in what
//! the program computes, or in the machine, not a gain or a loss. Every
//! run prints them and writes them to its result file (`facts`), and a
//! traced run also to its trace file. They are `digg-sim.votes` and
//! `digg-sim.events` (simulated in one pass; `june2006`, votes also
//! `seed_band`), `digg-core.in_network_frac` (the share of votes cast
//! by a fan of an earlier voter; `live_1m`),
//! `digg-ml.interesting_frac` (the share of Fig. 5 verdicts that say
//! interesting; `live_1m`), `trace.coverage` (the share of the traced
//! wall inside some layer's span), and the host: `host.nproc`,
//! `host.l3_kb` (from `/sys`), `host.mem_total_mb`, and a fixed integer
//! loop run before and after the workload, `host.calib_before_mops`,
//! `host.calib_after_mops` and their ratio `host.clock_drift`, with
//! `host.sustained` 1 when the drift stays within 10% and 0 (a `burst`
//! run) otherwise. The input shares are also checked: between 0.4 and
//! 0.6 in-network for `live_1m`'s cascades, and verdicts that split
//! (between 0.1 and 0.9 interesting).
//!
//! # Reading a trace
//!
//! Every call the benchmark makes into a layer is a span: its name
//! (the call), its layer, the index of its parent span, and its start
//! and end in ms since the run began. Untraced runs time the same
//! calls without keeping the spans. `trace_<workload>.json` holds the
//! spans in opening order, the traced wall (`wall_ms`), per layer its
//! `self_ms` and `share` of the wall, the per-layer metrics the
//! workload measured (`metrics`) and the facts. A span's self time is
//! its duration minus its children's; the self times of all layers,
//! `workload` included, add up to the wall. `workload` is the root and
//! the `pass` spans: time between calls, inside no layer (under 1%).
//! `bench` is the benchmark's own input generation and checks.
//! A traced run also prints `tracing_overhead`, its end-to-end metrics
//! against those of an untraced run of the same seed in the same
//! `--out`; `--all --trace` runs that pair for every workload. A run
//! keeps a few hundred spans at two clock reads each, so the overhead is
//! far below the run-to-run spread.

mod host;
mod june2006;
mod live;
mod metrics;
mod seed_band;
mod trace;

use metrics::{Report, Summary, Value, Workload, END_TO_END, PER_LAYER};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::{Trace, LAYERS, ROOT};

/// Fewest set-ups per run; `setup_s` is the mean of all of them.
const SETUP_REPS: usize = 3;
/// Set-ups continue past [`SETUP_REPS`] while their total stays under
/// this share of `--seconds` (cheap set-ups get more samples), up to
/// [`MAX_SETUPS`]: the first half before the measured passes, the rest
/// after them.
const SETUP_SHARE: f64 = 0.1;
/// Upper bound on set-ups per run.
const MAX_SETUPS: usize = 400;
/// Upper bound on measured passes per run.
const MAX_PASSES: usize = 100;
/// Default `--seconds`: the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;
/// Threads of the timed story sweeps and vote applies. On a 2-vCPU VM
/// whose cores other tenants share, a two-thread sweep's rate flips
/// between two levels from run to run (spread 0.34 over ten runs,
/// against 0.03 at one thread), and two-thread phases also unsettle the
/// one-thread applies between them (spread 0.12, against 0.04). The
/// parallel speed-up is measured on its own (`des-core.par_speedup`).
pub const PASS_THREADS: usize = 1;

/// Everything a workload needs: its inputs' seed, its budget, where to
/// put scratch files, the span recorder and the report it fills.
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// The time the measured passes may take ([`Ctx::another_pass`]).
    pub seconds: f64,
    /// Small inputs, for tests and quick checks.
    pub smoke: bool,
    /// Threads and worker processes the workload may use.
    pub threads: usize,
    /// Scratch directory for map and checkpoint files.
    pub tmp: PathBuf,
    /// Sweep-worker command, less its directory argument; `None` runs
    /// supervised sweeps in process.
    pub workers: Option<Vec<String>>,
    /// Span recorder (keeps spans only in traced runs).
    pub trace: Trace,
    /// Metrics and checks.
    pub report: Report,
}

impl Ctx {
    /// Whether to time another set-up, given the set-ups so far (ms) and
    /// whether the measured passes are done. A cheap set-up is timed in
    /// two blocks, before and after the passes: on a shared host its
    /// time moves between two levels, about 17 and 27 ms for
    /// `june2006`, in spells of 0.3 to 3 s, so a single block of well
    /// under a second falls in one or two spells.
    pub fn another_setup(&self, done_ms: &[f64], passes_done: bool) -> bool {
        let total: f64 = done_ms.iter().sum();
        let share = if passes_done { 1.0 } else { 0.5 };
        let budget_ms = share * SETUP_SHARE * self.seconds * 1e3;
        done_ms.len() < SETUP_REPS || (done_ms.len() < MAX_SETUPS && total < budget_ms)
    }

    /// Whether to measure another pass, given the passes so far (ms):
    /// always a first one, then more while one more of average length
    /// still fits in `seconds`. Stopping short of the budget, rather than
    /// overrunning it, keeps the pass count of a workload whose pass
    /// is about as long as the budget from flipping between runs.
    pub fn another_pass(&self, done_ms: &[f64]) -> bool {
        let n = done_ms.len();
        let total: f64 = done_ms.iter().sum();
        n == 0 || (n < MAX_PASSES && total * (n + 1) as f64 / n as f64 <= self.seconds * 1e3)
    }
}

/// Run one workload under a root span, then derive the per-layer self
/// times from the spans.
pub fn run_workload(ctx: &mut Ctx, w: Workload) {
    let root = ctx.trace.open(ROOT, w.name());
    match w {
        Workload::June2006 => june2006::run(ctx),
        Workload::SeedBand => seed_band::run(ctx),
        Workload::Live1m => live::run(ctx),
    }
    ctx.trace.close(root);
    if ctx.trace.enabled() {
        let spans = ctx.trace.spans();
        let layers = trace::layer_self_ms(spans);
        let wall = trace::wall_ms(spans);
        for (layer, metric) in LAYERS {
            if let Some(&ms) = layers.get(layer) {
                ctx.report.set(metric, ms);
            }
        }
        let unattributed = layers.get(ROOT).copied().unwrap_or(0.0);
        ctx.report.set("trace.wall_ms", wall);
        ctx.report
            .fact("trace.coverage", 1.0 - unattributed / wall.max(1e-9));
    }
}

/// Command-line options.
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: benchmark [--all | --workload june2006|seed_band|live_1m]
                 [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: digg_bench::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut it = args.iter().peekable();
    let value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => o.workload = None,
            "--workload" => {
                let name = value(a, &mut it)?;
                o.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                o.seed = value(a, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value(a, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                o.trace = true;
                if let Some(v) = it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    o.trace = v == "1";
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = PathBuf::from(value(a, &mut it)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// The result line: the last line of standard output.
#[derive(Debug, Serialize, Deserialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

/// Everything a run measured, written to `<out>/result_<workload>.json`
/// (`result_<workload>_traced.json` for traced runs).
#[derive(Serialize, Deserialize)]
struct ResultFile {
    workload: String,
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
    clock: String,
    checks: Vec<String>,
    failed_checks: Vec<String>,
    end_to_end: BTreeMap<String, Summary>,
    per_layer: BTreeMap<String, Summary>,
    facts: BTreeMap<String, Value>,
}

fn result_path(out: &Path, w: Workload, traced: bool) -> PathBuf {
    let suffix = if traced { "_traced" } else { "" };
    out.join(format!("result_{}{suffix}.json", w.name()))
}

/// A scratch directory removed when dropped, panics included.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let json = serde_json::to_vec_pretty(value).map_err(|e| e.to_string())?;
    digg_bench::write_atomic(path, &json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print each measured metric with its unit, its sample count and,
/// where there are enough samples, its tail percentile.
fn print_metrics(title: &str, summaries: &BTreeMap<String, Summary>) {
    println!("{title}:");
    for (name, s) in summaries.iter().filter(|(_, s)| s.samples > 0) {
        let tail = s
            .tail
            .map(|t| format!(", p{} {:.4}", t.percentile, t.value))
            .unwrap_or_default();
        println!(
            "  {name:<46} {:>16.4} {:<8} (n={}{tail})",
            s.value, s.unit, s.samples
        );
    }
}

/// Print each layer's self time and share, and write the trace file
/// with the spans, the measured per-layer metrics and the facts.
fn write_trace(
    ctx: &Ctx,
    w: Workload,
    per_layer: &BTreeMap<String, Summary>,
    facts: &BTreeMap<String, Value>,
    out: &Path,
) -> Result<(), String> {
    #[derive(Serialize)]
    struct Layer {
        self_ms: f64,
        share: f64,
    }
    #[derive(Serialize)]
    struct TraceFile {
        workload: &'static str,
        seed: u64,
        wall_ms: f64,
        layers: BTreeMap<&'static str, Layer>,
        metrics: BTreeMap<String, Summary>,
        facts: BTreeMap<String, Value>,
        spans: Vec<trace::Span>,
    }
    let spans = ctx.trace.spans();
    let wall = trace::wall_ms(spans);
    let layers: BTreeMap<&'static str, Layer> = trace::layer_self_ms(spans)
        .into_iter()
        .map(|(name, self_ms)| {
            let share = self_ms / wall.max(1e-9);
            (name, Layer { self_ms, share })
        })
        .collect();
    println!("layer self time ({wall:.1} ms traced wall; `{ROOT}` = not inside any layer):");
    for (name, l) in &layers {
        println!(
            "  {name:<16} {:>12.1} ms {:>6.1}%",
            l.self_ms,
            l.share * 100.0
        );
    }
    let path = out.join(format!("trace_{}.json", w.name()));
    let file = TraceFile {
        workload: w.name(),
        seed: ctx.seed,
        wall_ms: wall,
        layers,
        metrics: per_layer
            .iter()
            .filter(|(_, s)| s.samples > 0)
            .map(|(name, s)| (name.clone(), s.clone()))
            .collect(),
        facts: facts.clone(),
        spans: spans.to_vec(),
    };
    write_json(&path, &file)?;
    println!("trace: {}", path.display());
    Ok(())
}

/// The traced run's end-to-end metrics against those of an untraced run
/// of the same workload, seed and size in the same `--out` directory.
fn print_tracing_overhead(traced: &ResultFile, w: Workload, out: &Path) {
    let plain: Option<ResultFile> = std::fs::read_to_string(result_path(out, w, false))
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    let Some(plain) = plain
        .filter(|p| (p.seed, p.smoke, p.seconds) == (traced.seed, traced.smoke, traced.seconds))
    else {
        println!(
            "tracing_overhead: no untraced run of this seed in {}",
            out.display()
        );
        return;
    };
    println!("tracing_overhead (traced / untraced - 1):");
    // Peak RSS is left out: traced runs also do traced-only work (the
    // serial build, the sweeps without checkpoints, the membership
    // probes), which adds memory but no time to the timed calls.
    for (name, p) in plain.end_to_end.iter().filter(|(n, _)| *n != "peak_rss_mb") {
        if let Some(t) = traced.end_to_end.get(name) {
            let overhead = t.value / p.value - 1.0;
            println!("  {name:<16} {:>+8.2}%", overhead * 100.0);
        }
    }
}

/// Run one workload in this process and print its result line.
fn run_one(w: Workload, o: &Opts) -> Result<bool, String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let tmp = TempDir(
        o.out
            .join(format!("tmp-{}-{}", w.name(), std::process::id())),
    );
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let threads = host::nproc();
    let mut ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds,
        smoke: o.smoke,
        threads,
        tmp: tmp.0.clone(),
        workers: Some(vec![
            exe.to_string_lossy().into_owned(),
            "--sweep-worker".into(),
        ]),
        trace: Trace::new(o.trace),
        report: Report::default(),
    };
    println!(
        "== {} (seed {}, {} s, {}{}) ==",
        w.name(),
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "untraced" },
        if o.smoke { ", smoke" } else { "" },
    );

    let before = host::calibrate_mops();
    run_workload(&mut ctx, w);
    let after = host::calibrate_mops();
    let drift = after / before.max(1e-9);
    let clock = host::clock_label(drift);
    let r = &mut ctx.report;
    r.fact("host.nproc", threads as f64);
    r.fact("host.l3_kb", host::l3_kb() as f64);
    r.fact("host.mem_total_mb", host::mem_total_mb());
    r.fact("host.calib_before_mops", before);
    r.fact("host.calib_after_mops", after);
    r.fact("host.clock_drift", drift);
    r.fact("host.sustained", f64::from(u8::from(clock == "sustained")));
    println!(
        "host: {threads} threads, L3 {} kB, {:.0} MB; calibration {before:.1} -> {after:.1} Mops (drift {drift:.3}, {clock})",
        host::l3_kb(),
        host::mem_total_mb(),
    );

    let end_to_end = ctx.report.summaries(END_TO_END);
    let per_layer = ctx.report.summaries(PER_LAYER);
    let facts = ctx.report.facts();
    print_metrics("end-to-end", &end_to_end);
    if o.trace {
        print_metrics("per-layer", &per_layer);
    }
    println!("facts (no better side):");
    for (name, v) in &facts {
        println!("  {name:<46} {:>16.4} {}", v.value, v.unit);
    }
    if o.trace {
        write_trace(&ctx, w, &per_layer, &facts, &o.out)?;
    }
    let checks = ctx.report.checks();
    let failed = ctx.report.failed();
    println!("checks: {}/{} passed", checks.len() - failed, checks.len());

    let line = Line {
        correct: failed == 0,
        attempted: checks.len() as u64,
        failed: failed as u64,
        metrics: metrics::values(if o.trace { &per_layer } else { &end_to_end }),
    };
    let result = ResultFile {
        workload: w.name().into(),
        seed: o.seed,
        seconds: o.seconds,
        smoke: o.smoke,
        traced: o.trace,
        clock: clock.into(),
        checks: checks.iter().map(|c| c.name.clone()).collect(),
        failed_checks: checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.clone())
            .collect(),
        end_to_end,
        per_layer,
        facts,
    };
    if o.trace {
        print_tracing_overhead(&result, w, &o.out);
    }
    write_json(&result_path(&o.out, w, o.trace), &result)?;
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(failed == 0)
}

/// Run one workload in a child process; returns its result line.
fn run_child(w: Workload, o: &Opts, traced: bool) -> Result<Line, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .stdout(Stdio::piped());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    serde_json::from_str(last).map_err(|e| {
        format!(
            "{} exited with {} and no result line ({e})",
            w.name(),
            out.status
        )
    })
}

/// Every workload, each in its own child process; with `--trace`, an
/// untraced and then a traced child per workload, so the traced child
/// can print the tracing overhead. The result line carries every
/// child's metrics, prefixed with the workload's name.
fn run_all(o: &Opts) -> Result<bool, String> {
    let mut total = Line {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    for w in Workload::ALL {
        for traced in [false, true].into_iter().filter(|&t| !t || o.trace) {
            let line = run_child(w, o, traced).unwrap_or_else(|e| {
                eprintln!("[benchmark] {e}");
                Line {
                    correct: false,
                    attempted: 1,
                    failed: 1,
                    metrics: BTreeMap::new(),
                }
            });
            total.correct &= line.correct;
            total.attempted += line.attempted;
            total.failed += line.failed;
            for (name, v) in line.metrics {
                total.metrics.insert(format!("{}.{name}", w.name()), v);
            }
        }
    }
    println!(
        "{}",
        serde_json::to_string(&total).map_err(|e| e.to_string())?
    );
    Ok(total.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal: the supervised sweep of `seed_band` re-runs this binary
    // as its worker process, `--sweep-worker DIR` with the sweep's
    // checkpoint directory; the worker leaves its peak RSS there as it
    // exits.
    if args.first().map(String::as_str) == Some("--sweep-worker") {
        let code = digg_sim::supervisor::worker_main_stdio();
        if let Some(dir) = args.get(1) {
            if let Err(e) = host::leave_peak_rss(Path::new(dir)) {
                eprintln!("sweep_worker: peak RSS to {dir}: {e}");
            }
        }
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload {
        Some(w) => run_one(w, &opts),
        None => run_all(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::MetricDef;

    /// `BENCHMARK.json` at the repository root, found from this
    /// package's manifest directory (the workspace's `digg-bench` or
    /// the standalone benchmark package).
    fn benchmark_json() -> serde::Value {
        let mut dir = Some(Path::new(env!("CARGO_MANIFEST_DIR")));
        while let Some(d) = dir {
            if let Ok(text) = std::fs::read_to_string(d.join("BENCHMARK.json")) {
                return serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
            }
            dir = d.parent();
        }
        panic!("no BENCHMARK.json above {}", env!("CARGO_MANIFEST_DIR"));
    }

    fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
        v.get_field(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: no field {key}"))
    }

    fn str_field(v: &serde::Value, key: &str) -> String {
        match field(v, key) {
            serde::Value::Str(s) => s.clone(),
            other => panic!("BENCHMARK.json: {key} is {other:?}"),
        }
    }

    /// `(name, unit, better)` of every entry of a metric list.
    fn listed(json: &serde::Value, key: &str) -> Vec<(String, String, String)> {
        field(json, key)
            .as_array()
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is not a list"))
            .iter()
            .map(|m| {
                (
                    str_field(m, "name"),
                    str_field(m, "unit"),
                    str_field(m, "better"),
                )
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), catalogue(PER_LAYER));
        let workloads: Vec<String> = field(&json, "workloads")
            .as_array()
            .expect("workloads list")
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(workloads, ours);
        match field(&json, "run_seconds") {
            serde::Value::UInt(s) => assert_eq!(*s as f64, DEFAULT_SECONDS),
            other => panic!("run_seconds is {other:?}"),
        }
    }

    /// A traced smoke run of `w` passes its checks, records exactly the
    /// metrics listed for it, and gives every end-to-end metric a
    /// positive value.
    fn smoke(w: Workload) {
        let tmp = TempDir(std::env::temp_dir().join(format!(
            "digg-benchmark-smoke-{}-{}",
            w.name(),
            std::process::id()
        )));
        std::fs::create_dir_all(&tmp.0).unwrap();
        let mut ctx = Ctx {
            seed: 11,
            seconds: 0.0,
            smoke: true,
            threads: 2,
            tmp: tmp.0.clone(),
            workers: None,
            trace: Trace::new(true),
            report: Report::default(),
        };
        run_workload(&mut ctx, w);
        let failed: Vec<&str> = ctx
            .report
            .checks()
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.as_str())
            .collect();
        assert!(failed.is_empty(), "failed checks: {failed:?}");
        assert!(!ctx.report.checks().is_empty());
        let mut recorded: Vec<&str> = ctx.report.recorded().collect();
        let mut listed: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|d| d.workloads.contains(&w))
            .map(|d| d.name)
            .collect();
        recorded.sort_unstable();
        listed.sort_unstable();
        assert_eq!(recorded, listed);
        for (name, s) in ctx.report.summaries(END_TO_END) {
            assert!(s.value > 0.0, "{name} = {}", s.value);
        }
        let coverage = ctx.report.facts()["trace.coverage"].value;
        assert!(coverage > 0.95, "layer spans cover {coverage} of the wall");
    }

    #[test]
    fn smoke_june2006() {
        smoke(Workload::June2006);
    }

    #[test]
    fn smoke_seed_band() {
        smoke(Workload::SeedBand);
    }

    #[test]
    fn smoke_live_1m() {
        smoke(Workload::Live1m);
    }

    #[test]
    fn args_parse_the_benchmark_command_form_and_reject_unknowns() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload live_1m --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!(o.workload, Some(Workload::Live1m));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, false));
        assert!(parse_args(&args("--trace 1")).unwrap().trace);
        assert!(parse_args(&args("--trace --smoke")).unwrap().trace);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds -1")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }
}
