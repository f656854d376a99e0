//! Property tests for the event queue's ordering contract: pops are
//! nondecreasing in `(time, class)` with FIFO-stable ordering among
//! equal keys, and interleaved schedules and pops never lose or
//! duplicate events — for times inside the ring's window and for times
//! beyond it, before it and near `u64::MAX`.

use des_core::EventQueue;
use proptest::prelude::*;

/// Drain-only property: scheduling a batch and draining it is exactly
/// a stable sort by `(time, class)`.
fn drain_matches_stable_sort(events: Vec<(u64, u8)>) -> Result<(), String> {
    let mut q = EventQueue::new();
    for (i, &(time, class)) in events.iter().enumerate() {
        q.schedule(time, class, i);
    }

    let mut expected: Vec<(u64, u8, usize)> = events
        .iter()
        .enumerate()
        .map(|(i, &(t, c))| (t, c, i))
        .collect();
    expected.sort_by_key(|&(t, c, _)| (t, c)); // stable: ties keep insertion order

    let mut got = Vec::new();
    while let Some(e) = q.pop() {
        got.push((e.time, e.class, e.payload));
    }
    prop_assert_eq!(got, expected);
    Ok(())
}

#[derive(Clone, Debug)]
enum Op {
    Schedule {
        time: u64,
        class: u8,
    },
    /// Schedule `offset` after (negative: before) the latest time
    /// popped so far, saturating at both ends of `u64`.
    ScheduleFromLast {
        offset: i64,
        class: u8,
    },
    Pop,
}

/// Weighted op mix without `prop_oneof!` (the vendored proptest has no
/// such macro): a selector in 0..5 picks schedule (3/5) or pop (2/5).
fn op_strategy() -> impl Strategy<Value = Op> {
    (0..5u8, 0..64u64, 0..4u8).prop_map(|(sel, time, class)| match sel {
        0..=2 => Op::Schedule { time, class },
        _ => Op::Pop,
    })
}

/// The queue's ring spans this many time units from the latest time
/// popped.
const RING: i64 = 4096;

/// Times well outside the ring's window: a 2/10 share dense near the
/// latest pop (ties and shared buckets), 3/10 up to three ring widths
/// ahead (the far heap, and laps round the ring as pops catch up),
/// 1/10 before the latest pop, 1/10 within 4 of `u64::MAX`, and 3/10
/// pops.
fn wide_op_strategy() -> impl Strategy<Value = Op> {
    (0..10u8, 0..3 * RING, 0..4u8).prop_map(|(sel, d, class)| match sel {
        0..=1 => Op::ScheduleFromLast {
            offset: d % 64,
            class,
        },
        2..=4 => Op::ScheduleFromLast { offset: d, class },
        5 => Op::ScheduleFromLast {
            offset: -1 - d % 200,
            class,
        },
        6 => Op::Schedule {
            time: u64::MAX - d.unsigned_abs() % 4,
            class,
        },
        _ => Op::Pop,
    })
}

/// Reference model: a plain vector of pending events, popped by
/// scanning for the minimum `(time, class, seq)` key.
#[derive(Default)]
struct Model {
    live: Vec<(u64, u8, u64, usize)>, // (time, class, seq, payload)
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, time: u64, class: u8, payload: usize) {
        self.live.push((time, class, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u8, usize)> {
        let at = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, c, s, _))| (t, c, s))
            .map(|(i, _)| i)?;
        let (t, c, _, p) = self.live.remove(at);
        Some((t, c, p))
    }
}

/// Model-based property: under arbitrary interleavings of schedule and
/// pop, the queue agrees with the model on every observable — so no
/// event is ever lost or fired twice.
fn queue_matches_model(ops: Vec<Op>) -> Result<(), String> {
    let mut q = EventQueue::new();
    let mut model = Model::default();
    let mut payload = 0usize;
    let mut last = 0u64;

    for op in ops {
        let at = match op {
            Op::Schedule { time, class } => Some((time, class)),
            Op::ScheduleFromLast { offset, class } => {
                Some((last.saturating_add_signed(offset), class))
            }
            Op::Pop => None,
        };
        match at {
            Some((time, class)) => {
                q.schedule(time, class, payload);
                model.schedule(time, class, payload);
                payload += 1;
            }
            None => {
                let got = q.pop().map(|e| (e.time, e.class, e.payload));
                prop_assert_eq!(got, model.pop());
                if let Some((t, _, _)) = got {
                    last = last.max(t);
                }
            }
        }
        prop_assert_eq!(q.peek_time(), model.live.iter().map(|e| e.0).min());
    }

    // Drain what's left: everything scheduled and not yet fired comes
    // out exactly once, in model order.
    loop {
        let got = q.pop().map(|e| (e.time, e.class, e.payload));
        let want = model.pop();
        prop_assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pops_are_a_stable_sort_by_time_and_class(
        events in prop::collection::vec((0..16u64, 0..3u8), 0..120)
    ) {
        drain_matches_stable_sort(events)?;
    }

    #[test]
    fn interleaved_schedule_and_pop_never_lose_or_duplicate(
        ops in prop::collection::vec(op_strategy(), 0..200)
    ) {
        queue_matches_model(ops)?;
    }

    #[test]
    fn times_beyond_before_and_far_past_the_ring_keep_the_model_order(
        ops in prop::collection::vec(wide_op_strategy(), 0..400)
    ) {
        queue_matches_model(ops)?;
    }
}

// ---------------------------------------------------------------- par

// `par_map` is bit-identical at every thread count `DIGG_THREADS`
// would select.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_is_thread_count_invariant(
        items in prop::collection::vec(any::<u32>(), 0..150)
    ) {
        let f = |x: &u32| u64::from(*x).wrapping_mul(0x9E37_79B9) ^ 0xA5;
        let serial = des_core::par_map(&items, 1, f);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(des_core::par_map(&items, threads, f), serial.clone());
        }
    }
}
