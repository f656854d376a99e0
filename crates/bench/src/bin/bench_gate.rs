//! Bench-regression gate: fail CI when the incremental sweep gets
//! slower.
//!
//! ```text
//! bench_gate [CANDIDATE [BASELINE]]
//! ```
//!
//! `CANDIDATE` defaults to `$DIGG_RESULTS_DIR/bench_summary.json`
//! (`./bench_summary.json` otherwise); `BASELINE` defaults to the
//! committed `results/bench_baseline.json`.
//!
//! Raw votes/sec is machine-bound — a slower CI runner would fail
//! every build — so the default comparison is the **dimensionless
//! speed ratio** `incr_sweep_apply.per_sec /
//! incr_sweep_batch_resweep.per_sec` from each file: both rows come
//! from the same process on the same box, so the ratio cancels the
//! machine and isolates the incremental path's relative speed. The
//! gate fails (exit 1) when the candidate ratio drops more than
//! [`TOLERANCE`] (15%) below the baseline's.
//!
//! Exit codes: 0 pass, 1 regression, 2 missing/malformed input.

use serde::Value;
use std::path::PathBuf;

/// Largest allowed relative drop of the candidate ratio.
const TOLERANCE: f64 = 0.15;

/// A JSON number as f64, whatever integer/float variant carried it.
fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

/// Minimal view of a summary file: just the scale rows the gate reads.
struct Rows(Value);

impl Rows {
    fn load(path: &PathBuf) -> Result<Rows, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        if v.get_field("scale").and_then(|s| s.as_array()).is_none() {
            return Err(format!("{} has no `scale` rows", path.display()));
        }
        Ok(Rows(v))
    }

    /// `per_sec` of the named scale row.
    fn per_sec(&self, name: &str) -> Result<f64, String> {
        self.0
            .get_field("scale")
            .and_then(|s| s.as_array())
            .into_iter()
            .flatten()
            .find(|r| matches!(r.get_field("name"), Some(Value::Str(n)) if n == name))
            .and_then(|r| r.get_field("per_sec").and_then(as_f64))
            .filter(|p| p.is_finite() && *p > 0.0)
            .ok_or_else(|| format!("no positive `{name}` scale row"))
    }

    /// The machine-cancelling incremental-vs-batch speed ratio.
    fn incr_ratio(&self) -> Result<f64, String> {
        Ok(self.per_sec("incr_sweep_apply")? / self.per_sec("incr_sweep_batch_resweep")?)
    }
}

/// The tolerance check; prints its verdict and returns pass/fail.
fn check(label: &str, candidate: f64, baseline: f64) -> bool {
    let change = candidate / baseline - 1.0;
    let ok = change >= -TOLERANCE;
    println!(
        "{}: {label} baseline {baseline:.4}, candidate {candidate:.4} ({:+.1}%, tolerance -{:.0}%)",
        if ok { "ok" } else { "REGRESSION" },
        change * 100.0,
        TOLERANCE * 100.0,
    );
    ok
}

fn run() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let candidate_path = args.next().map(PathBuf::from).unwrap_or_else(|| {
        let dir = std::env::var("DIGG_RESULTS_DIR").unwrap_or_else(|_| ".".to_string());
        PathBuf::from(dir).join("bench_summary.json")
    });
    let baseline_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/bench_baseline.json"));

    let candidate = Rows::load(&candidate_path)?;
    let baseline = Rows::load(&baseline_path)?;
    println!(
        "bench_gate: {} vs baseline {}",
        candidate_path.display(),
        baseline_path.display()
    );

    Ok(check(
        "incr_sweep apply/batch ratio",
        candidate.incr_ratio()?,
        baseline.incr_ratio()?,
    ))
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    }
}
