//! `bench_summary.json` belongs to `incr_sweep` alone: the experiment
//! writes its two scale rows there, and any other experiment run
//! later into the same directory leaves the file as it was (so
//! `bench_gate` still finds the rows). Runs the real `experiments`
//! binary, one subprocess per invocation.

use std::path::Path;
use std::process::Command;

fn experiments(dir: &Path, name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg(name)
        .env("DIGG_RESULTS_DIR", dir)
        .env("DIGG_SCALE_USERS", "1000")
        .env("DIGG_THREADS", "2")
        .output()
        .expect("experiments runs");
    assert!(
        out.status.success(),
        "experiments {name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn only_incr_sweep_writes_the_summary() {
    let dir = std::env::temp_dir().join(format!("digg-bench-summary-{}", std::process::id()));
    let summary = dir.join("bench_summary.json");
    experiments(&dir, "incr_sweep");
    let written = std::fs::read_to_string(&summary).expect("incr_sweep wrote the summary");
    for row in ["incr_sweep_apply", "incr_sweep_batch_resweep"] {
        assert!(written.contains(row), "{row} missing: {written}");
    }
    experiments(&dir, "abl2");
    assert_eq!(
        std::fs::read_to_string(&summary).expect("summary still there"),
        written
    );
    let _ = std::fs::remove_dir_all(&dir);
}
