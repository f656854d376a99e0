//! Host facts recorded with every run, and the clock calibration loop.
//!
//! A timing means little without the machine it came from: the thread
//! count it could use, the cache its working set is compared against,
//! and whether the clock held steady while it ran (the 1-vCPU
//! reference host drifted by ~1.5x between sustained and burst clocks;
//! DESIGN.md §16.4). The calibration loop is a fixed amount of
//! CPU-bound integer work timed before and after the workload; its
//! ratio is the clock drift over the run.

use crate::metrics::per_s;
use digg_bench::timing::time_ms;
use std::hint::black_box;
use std::path::Path;

/// Iterations of one calibration round.
const CALIB_ITERS: u64 = 10_000_000;

/// A drift within this share of 1 labels the run `sustained`.
const SUSTAINED_DRIFT: f64 = 0.10;

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Largest CPU cache (the last level) in kB, from sysfs; 0 if unknown.
pub fn l3_kb() -> u64 {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            if level.trim() != "3" {
                return None;
            }
            parse_size_kb(&std::fs::read_to_string(format!("{dir}/size")).ok()?)
        })
        .max()
        .unwrap_or(0)
}

/// `"36608K"` / `"105M"` → kB.
fn parse_size_kb(text: &str) -> Option<u64> {
    let t = text.trim();
    let (num, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1),
        'M' => (&t[..t.len() - 1], 1024),
        'G' => (&t[..t.len() - 1], 1024 * 1024),
        _ => (t, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// A `kB` field of a `/proc` status-style file, e.g. `MemTotal:`.
fn proc_kb(path: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Physical memory in MB; 0 if unknown.
pub fn mem_total_mb() -> f64 {
    proc_kb("/proc/meminfo", "MemTotal:").unwrap_or(0) as f64 / 1024.0
}

/// This process's peak resident set (`VmHWM`) in MB; 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Restart this process's peak RSS from its current RSS, so that
/// [`peak_rss_mb`] reads the peak since now. `live_1m` repeats its graph
/// build for a timing mean and reports the peak of a run with one
/// build: the first build's peak, or the peak after the builds if
/// higher. A later build's peak would also count the memory the
/// allocator kept from the graphs dropped before it, which made the
/// median of three builds' peaks spread 0.06 over ten runs. Where the
/// kernel refuses, the peak counts from the start of the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Prefix of the files in which sweep workers leave their peak RSS.
const WORKER_RSS_PREFIX: &str = "worker-rss-";

/// Called by a sweep worker as it exits: leave this process's peak RSS
/// in `dir`, for [`workers_peak_rss_mb`]. The supervisor waits for its
/// workers to exit, so the file is complete when the sweep returns.
pub fn leave_peak_rss(dir: &Path) -> std::io::Result<()> {
    let path = dir.join(format!("{WORKER_RSS_PREFIX}{}", std::process::id()));
    std::fs::write(path, peak_rss_mb().to_string())
}

/// The peak RSS, in MB, of every sweep worker that left one in `dir`.
pub fn workers_peak_rss_mb(dir: &Path) -> Vec<f64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with(WORKER_RSS_PREFIX)
        })
        .filter_map(|e| std::fs::read_to_string(e.path()).ok()?.parse::<f64>().ok())
        .collect()
}

/// Millions of calibration-loop iterations per second: the median of
/// three rounds of a fixed xorshift-multiply chain.
pub fn calibrate_mops() -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let (_, ms) = time_ms(|| {
                let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
                for _ in 0..black_box(CALIB_ITERS) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                }
                black_box(x)
            });
            per_s(CALIB_ITERS as f64, ms) / 1e6
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// `sustained` when the clock held within [`SUSTAINED_DRIFT`] over the
/// run, `burst` when it moved more.
pub fn clock_label(drift: f64) -> &'static str {
    if (drift - 1.0).abs() <= SUSTAINED_DRIFT {
        "sustained"
    } else {
        "burst"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_size_kb("36608K\n"), Some(36608));
        assert_eq!(parse_size_kb("105M"), Some(105 * 1024));
        assert_eq!(parse_size_kb("512"), Some(512));
        assert_eq!(parse_size_kb("lots"), None);
    }

    #[test]
    fn drift_labels() {
        assert_eq!(clock_label(1.0), "sustained");
        assert_eq!(clock_label(0.95), "sustained");
        assert_eq!(clock_label(1.4), "burst");
        assert_eq!(clock_label(0.7), "burst");
    }
}
