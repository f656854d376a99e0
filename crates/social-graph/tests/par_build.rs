//! Thread-invariance of the sharded CSR construction path: the
//! parallel build must produce graphs **bit-identical** to the serial
//! build at the thread counts `DIGG_THREADS ∈ {1, 2, 8}` would
//! select. Thread counts are passed explicitly —
//! `des_core::par::worker_threads` is the only env parser, and every
//! fan-out here takes the count as an argument.

use proptest::prelude::*;
use social_graph::{GraphBuilder, UserId};

const THREADS: [usize; 3] = [1, 2, 8];

/// Edge lists with duplicates and self-loops over a modest id space
/// (self-loops exercise the `add_watch` drop path; duplicates exercise
/// per-shard dedup).
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..50, 0u32..50), 0..400)
}

fn builder_from(edges: &[(u32, u32)]) -> GraphBuilder {
    let mut b = GraphBuilder::new(0);
    b.extend_watches(edges.iter().map(|&(a, c)| (UserId(a), UserId(c))));
    b
}

proptest! {
    #[test]
    fn parallel_build_equals_serial_build(edges in edges_strategy()) {
        let serial = builder_from(&edges).build();
        for threads in THREADS {
            let parallel = builder_from(&edges).build_parallel(threads);
            prop_assert_eq!(&parallel, &serial, "diverged at {} threads", threads);
        }
    }
}

/// A fixed-seed run big enough to clear the parallel path's small-input
/// fallback (≥ 8192 raw edges), so multi-shard bucketing, dedup and
/// both scatters genuinely execute on every thread count.
#[test]
fn fixed_seed_large_build_is_bit_identical() {
    let mut state = 0x2008_d166u64;
    let mut next = move || {
        // splitmix-style step, good enough to scatter edges around.
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let n = 5_000u32;
    let edges: Vec<(u32, u32)> = (0..60_000).map(|_| (next() % n, next() % n)).collect();
    let serial = builder_from(&edges).build();
    assert!(
        serial.edge_count() > 50_000,
        "workload too small to be meaningful"
    );
    for threads in THREADS {
        let parallel = builder_from(&edges).build_parallel(threads);
        assert_eq!(
            parallel, serial,
            "parallel build diverged at {threads} threads"
        );
    }
}
