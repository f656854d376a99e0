//! The sweep experiments' artifact payloads must be byte-identical at
//! any worker-thread count.
//!
//! `DIGG_THREADS` is parsed in exactly one place —
//! `des_core::par::worker_threads` — and flows into the payload
//! builders as a plain `threads` argument, which is what these tests
//! drive directly with the values `DIGG_THREADS=1`, `2`, and `8` would
//! produce (mutating the process environment from tests is racy, and
//! the crate forbids unsafe code). The payloads carry no timings, so
//! the assertion is exact serialized equality, not "equal modulo
//! noise".

use digg_bench::sweeps::sim_sweep_payload;

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("payload serializes")
}

#[test]
fn sim_sweep_payload_is_thread_invariant() {
    let base = sim_sweep_payload(2006, 1);
    assert!(base.panicked.is_empty());
    assert_eq!(base.runs.len(), 6);
    for threads in [2, 8] {
        let other = sim_sweep_payload(2006, threads);
        assert_eq!(base, other, "diverged at {threads} threads");
        assert_eq!(json(&base), json(&other));
    }
}
