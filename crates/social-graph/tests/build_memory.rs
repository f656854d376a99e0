//! The CSR build's working memory stays bounded per raw edge.
//!
//! A counting global allocator tracks live and peak heap bytes across
//! every thread. Each test takes 50,000 users × 10 raw edges and
//! measures how far the build lifts the peak above what the caller
//! already holds.
//!
//! * Owned: `build_parallel(2)` on a builder the list was copied into.
//!   The caller holds the builder's list (8 bytes an edge) and the
//!   input it was copied from; the build frees the former after its
//!   friends scatter. The bound of 8 bytes per raw edge leaves room
//!   for one 4-byte scatter buffer and a few per-row arrays; a second
//!   copy of the edge list does not fit.
//! * Borrowed: `build_parallel(2)` on `GraphBuilder::from_edges`, which
//!   reads the caller's list in place and frees nothing. The finished
//!   graph alone is about 9 bytes per raw edge; the bound of 12 leaves
//!   no room for the 8-byte copy that borrowing saves.
//!
//! The two tests share the counters, so they measure one at a time.

use social_graph::{GraphBuilder, SocialGraph, UserId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
const MAX_BORROWED_BYTES_PER_EDGE: usize = 12;

/// Held by the test that is measuring.
static MEASURING: Mutex<()> = Mutex::new(());

fn raw_edges() -> Vec<(UserId, UserId)> {
    let mut state = 0x00de_c0de_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..USERS * EDGES_PER_USER)
        .map(|_| (UserId(next() % USERS), UserId(next() % USERS)))
        .collect()
}

/// The graph `build` returns and how far it lifted the peak above the
/// bytes live when it started.
fn peak_above_held(build: impl FnOnce() -> SocialGraph) -> (SocialGraph, usize, usize) {
    let held = LIVE.load(Ordering::SeqCst);
    PEAK.store(held, Ordering::SeqCst);
    let graph = build();
    (graph, held, PEAK.load(Ordering::SeqCst) - held)
}

#[test]
fn build_parallel_uses_at_most_8_bytes_per_raw_edge() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let edges = raw_edges();
    let mut builder = GraphBuilder::new(USERS as usize);
    builder.extend_watches(edges.iter().copied());

    let (graph, held, extra) = peak_above_held(|| builder.build_parallel(2));

    assert!(graph.edge_count() > edges.len() * 9 / 10, "too few edges");
    let bound = MAX_BYTES_PER_EDGE * edges.len();
    assert!(
        extra <= bound,
        "build_parallel(2) peaked {extra} bytes above the caller's {held}, over {bound} \
         ({:.2} bytes per raw edge)",
        extra as f64 / edges.len() as f64
    );
}

#[test]
fn borrowed_build_uses_at_most_12_bytes_per_raw_edge() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let edges = raw_edges();

    let (graph, held, extra) =
        peak_above_held(|| GraphBuilder::from_edges(USERS as usize, &edges).build_parallel(2));

    assert!(graph.edge_count() > edges.len() * 9 / 10, "too few edges");
    let bound = MAX_BORROWED_BYTES_PER_EDGE * edges.len();
    assert!(
        extra <= bound,
        "borrowed build_parallel(2) peaked {extra} bytes above the caller's {held}, over \
         {bound} ({:.2} bytes per raw edge)",
        extra as f64 / edges.len() as f64
    );
}
