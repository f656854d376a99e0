//! The CSR build's working memory stays under 8 bytes per raw edge.
//!
//! A counting global allocator tracks live and peak heap bytes across
//! every thread. The test primes a builder with 50,000 users × 10 raw
//! edges, then measures how far `build_parallel(2)` lifts the peak
//! above what the caller already holds: the builder's own edge list
//! (8 bytes an edge) and the input it was copied from. The bound
//! leaves room for one 4-byte scatter buffer and a few per-row arrays;
//! a second copy of the edge list does not fit.

use social_graph::{GraphBuilder, UserId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

/// The system allocator, counting live and peak bytes.
struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters allocate
// nothing.
#[expect(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; every call forwards to System unchanged"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const USERS: u32 = 50_000;
const EDGES_PER_USER: u32 = 10;
const MAX_BYTES_PER_EDGE: usize = 8;

#[test]
fn build_parallel_uses_at_most_8_bytes_per_raw_edge() {
    let mut state = 0x00de_c0de_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let edges: Vec<(UserId, UserId)> = (0..USERS * EDGES_PER_USER)
        .map(|_| (UserId(next() % USERS), UserId(next() % USERS)))
        .collect();
    let mut builder = GraphBuilder::new(USERS as usize);
    builder.extend_watches(edges.iter().copied());

    let held = LIVE.load(Ordering::SeqCst);
    PEAK.store(held, Ordering::SeqCst);
    let graph = builder.build_parallel(2);
    let extra = PEAK.load(Ordering::SeqCst) - held;

    assert!(graph.edge_count() > edges.len() * 9 / 10, "too few edges");
    let bound = MAX_BYTES_PER_EDGE * edges.len();
    assert!(
        extra <= bound,
        "build_parallel(2) peaked {extra} bytes above the caller's {held}, over {bound} \
         ({:.2} bytes per raw edge)",
        extra as f64 / edges.len() as f64
    );
}
