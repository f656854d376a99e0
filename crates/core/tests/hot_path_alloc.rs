//! The hot paths allocate nothing once their state is warm.
//!
//! A counting global allocator tallies every allocation and
//! reallocation made on the current thread. Each test warms its state
//! with one untimed pass, then asserts that a second pass over the same
//! inputs allocates zero times. This covers the six hot-path functions:
//! `FanBitset::insert`/`contains`, the `membership` probes,
//! `EventQueue::pop`, and `IncrementalSweep::apply_vote` and
//! `gather_fan_rows` through `IncrementalSweep::sweep_story`, which is
//! `begin` plus `apply_votes`: one `gather_fan_rows` per block and one
//! `apply_vote` per voter. It sees every call level below them, not only the
//! function bodies.

use des_core::EventQueue;
use digg_core::IncrementalSweep;
use social_graph::membership::{bitset_probe, is_fan_of_any};
use social_graph::{FanBitset, GraphBuilder, SocialGraph, UserId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the counter is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter allocates
// nothing.
#[expect(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; every call forwards to System unchanged"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const USERS: u32 = 300;

/// Every user watches the next few users and one far away, so every
/// fan row is non-empty and rows overlap.
fn graph() -> SocialGraph {
    let mut b = GraphBuilder::new(USERS as usize);
    for u in 0..USERS {
        for d in [1, 2, 3, 97] {
            b.add_watch(UserId(u), UserId((u + d) % USERS));
        }
    }
    b.build()
}

/// 200 distinct voters in a scrambled order: more than three gather
/// blocks of 64, with the submitter first.
fn voters() -> Vec<UserId> {
    (0..200).map(|k| UserId((k * 7 + 11) % USERS)).collect()
}

#[test]
fn fan_bitset_insert_and_contains_do_not_allocate() {
    let mut set = FanBitset::new(USERS as usize);
    let pass = |set: &mut FanBitset| {
        set.clear();
        for u in (0..USERS).step_by(3) {
            assert!(set.insert(UserId(u)));
        }
        for u in 0..USERS {
            assert_eq!(set.contains(UserId(u)), u % 3 == 0);
        }
    };
    pass(&mut set);
    assert_eq!(allocations_in(|| pass(&mut set)), 0);
}

#[test]
fn membership_probes_do_not_allocate() {
    let g = graph();
    let candidates = voters();
    let mut scratch = FanBitset::new(0);
    let pass = |scratch: &mut FanBitset| {
        for u in g.users() {
            let friends = g.friends(u);
            assert_eq!(
                bitset_probe(friends, &candidates[..10], scratch),
                is_fan_of_any(friends, &candidates[..10])
            );
        }
    };
    pass(&mut scratch);
    assert_eq!(allocations_in(|| pass(&mut scratch)), 0);
}

#[test]
fn event_queue_pop_does_not_allocate() {
    let mut queue = EventQueue::new();
    // Near times land in the ring, far ones in the far heap.
    for k in 0..500u64 {
        queue.schedule((k * 37) % 2_000 + (k % 5) * 1_000_000, (k % 3) as u8, k);
    }
    let mut popped = 0;
    let allocations = allocations_in(|| {
        while let Some(e) = queue.pop() {
            popped += 1;
            std::hint::black_box(e.payload);
        }
    });
    assert_eq!(popped, 500);
    assert_eq!(allocations, 0);
}

#[test]
fn sweep_story_does_not_allocate_once_warm() {
    let g = graph();
    let voters = voters();
    let mut sweep = IncrementalSweep::new(&g);
    sweep.sweep_story(&g, &voters);
    let cascade = sweep.cascade().to_vec();
    let (flags, influence) = (sweep.flags().to_vec(), sweep.influence().to_vec());
    let allocations = allocations_in(|| {
        sweep.sweep_story(&g, &voters);
    });
    assert_eq!(allocations, 0);
    assert!(cascade.last().is_some_and(|&c| c > 0), "no in-network vote");
    assert_eq!(sweep.cascade(), &cascade[..]);
    assert_eq!(
        (sweep.flags(), sweep.influence()),
        (&flags[..], &influence[..])
    );
}
