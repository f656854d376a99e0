//! The benchmark harness's wall-clock access point.
//!
//! The determinism contract (DESIGN.md §13, enforced by the kernel
//! crates' `clippy.toml`) bans `Instant::now` / `SystemTime` in
//! kernel crates: artifacts must be pure functions of
//! `(seed, config)`, never of when or how fast they were computed.
//! Benchmark *timing rows* are the one deliberate exception — they
//! measure the hardware (the `benchmark/` rows and `incr_sweep`'s
//! `scale` rows in `bench_summary.json`) and are never compared
//! bit-for-bit. Every such measurement must flow through this module
//! so the exception stays exactly this wide.

use std::time::{Duration, Instant};

/// A started wall-clock measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

/// Start measuring.
pub fn stopwatch() -> Stopwatch {
    Stopwatch(Instant::now())
}

impl Stopwatch {
    /// Elapsed wall time since [`stopwatch`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed wall time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

/// Run `f` and return its result plus wall-clock milliseconds — the
/// shape every bench timing row uses.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = stopwatch();
    let out = f();
    (out, sw.elapsed_ms())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ms_returns_result_and_nonnegative_duration() {
        let (v, ms) = time_ms(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert!(stopwatch().elapsed() >= Duration::ZERO);
    }
}
