//! Property tests for the kernel checkpoint contract that `Sim`'s
//! snapshot nests: snapshotting an [`EventQueue`] at an arbitrary
//! instant and restoring it must be observationally invisible — the
//! restored queue drains bit-identically to the original — and damaged
//! containers (flipped bytes, truncation, foreign versions) must come
//! back as typed [`SnapshotError`]s, never panics. A [`StreamRng`] is
//! checkpointed through its [`Codec`] encoding, the form `Sim` writes
//! its streams in: decoding it mid-stream must resume the exact draws,
//! and a short read must be a typed error.

use des_core::{EventQueue, StreamRng};
use digg_snapshot::{
    ByteReader, ByteWriter, Codec, Restore, Snapshot, SnapshotError, FORMAT_VERSION, MAGIC,
};
use proptest::prelude::*;
use rand::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct P(u64);

impl Codec for P {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut ByteReader) -> Result<P, SnapshotError> {
        Ok(P(r.get_u64()?))
    }
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

/// Same weighted mix as the ordering proptests: schedule-heavy with
/// interleaved pops.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0..5u8, 0..64u64, 0..4u8).prop_map(|(sel, time, class)| match sel {
        0..=2 => Op::Schedule { time, class },
        _ => Op::Pop,
    })
}

/// The queue's ring spans this many time units from the latest time
/// popped.
const RING: i64 = 4096;

/// Schedules past both ends of the ring's window, as in the ordering
/// proptests: dense near the latest pop, up to three ring widths
/// ahead, before the latest pop and near `u64::MAX`, with 3/10 pops.
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

/// A queue under test: `next` numbers the scheduled payloads and
/// `last` is the latest time popped.
#[derive(Default)]
struct Driven {
    q: EventQueue<P>,
    next: u64,
    last: u64,
}

impl Driven {
    fn apply(&mut self, op: &Op) {
        let (time, class) = match *op {
            Op::Schedule { time, class } => (time, class),
            Op::ScheduleFromLast { offset, class } => {
                (self.last.saturating_add_signed(offset), class)
            }
            Op::Pop => {
                if let Some(e) = self.q.pop() {
                    self.last = self.last.max(e.time);
                }
                return;
            }
        };
        self.q.schedule(time, class, P(self.next));
        self.next += 1;
    }

    /// Snapshot, restore, and check the restore re-snapshots to the
    /// same bytes; the copy continues with the same counters.
    fn restored(&self) -> Result<Driven, String> {
        let bytes = self.q.snapshot();
        let q = EventQueue::<P>::restore(&bytes, ()).map_err(|e| format!("{e:?}"))?;
        prop_assert_eq!(q.snapshot(), bytes, "re-snapshot must be byte-stable");
        Ok(Driven {
            q,
            next: self.next,
            last: self.last,
        })
    }
}

fn drain(q: &mut EventQueue<P>) -> Vec<(u64, u8, u64)> {
    let mut out = Vec::new();
    while let Some(e) = q.pop() {
        out.push((e.time, e.class, e.payload.0));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Checkpoint at an arbitrary instant mid-history: the restored
    /// queue replays the rest of the history and drains bit-identically
    /// to the original, and re-snapshotting yields the same bytes.
    #[test]
    fn queue_restore_is_invisible_at_any_instant(
        ops in prop::collection::vec(op_strategy(), 0..150),
        cut_pick in any::<usize>(),
    ) {
        let cut = cut_pick % (ops.len() + 1);
        let mut a = Driven::default();
        for op in &ops[..cut] {
            a.apply(op);
        }
        let mut b = a.restored()?;

        // Replay the tail of the history on both. Ties among later
        // schedules order identically on both sides because the
        // snapshot carries the seq counter.
        for op in &ops[cut..] {
            a.apply(op);
            b.apply(op);
        }
        prop_assert_eq!(b.q.snapshot(), a.q.snapshot());
        prop_assert_eq!(drain(&mut b.q), drain(&mut a.q));
    }

    /// The same with entries in both the ring and the far heap at the
    /// checkpoint: one next to the cursor and one two ring widths out
    /// are pinned on top of a history that laps the ring and schedules
    /// before the cursor and near `u64::MAX`.
    #[test]
    fn queue_restore_is_invisible_across_ring_and_far_heap(
        ops in prop::collection::vec(wide_op_strategy(), 0..300),
        cut_pick in any::<usize>(),
    ) {
        let cut = cut_pick % (ops.len() + 1);
        let mut a = Driven::default();
        for op in &ops[..cut] {
            a.apply(op);
        }
        for offset in [1, 2 * RING] {
            a.apply(&Op::ScheduleFromLast { offset, class: 0 });
        }
        let mut b = a.restored()?;
        for op in &ops[cut..] {
            a.apply(op);
            b.apply(op);
        }
        prop_assert_eq!(b.q.snapshot(), a.q.snapshot());
        prop_assert_eq!(drain(&mut b.q), drain(&mut a.q));
    }

    /// Any single flipped byte in a queue snapshot surfaces as a typed
    /// error from restore — never a panic, never a silently different
    /// queue.
    #[test]
    fn corrupted_queue_snapshot_is_a_typed_error(
        events in prop::collection::vec((0..32u64, 0..3u8), 1..40),
        at_pick in any::<usize>(),
        mask in 1..=255u8,
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, c)) in events.iter().enumerate() {
            q.schedule(t, c, P(i as u64));
        }
        let mut bytes = q.snapshot();
        let at = at_pick % bytes.len();
        bytes[at] ^= mask;
        prop_assert!(EventQueue::<P>::restore(&bytes, ()).is_err());
    }

    /// Truncation at any point is a typed error.
    #[test]
    fn truncated_queue_snapshot_is_a_typed_error(
        events in prop::collection::vec((0..32u64, 0..3u8), 1..40),
        keep_pick in any::<usize>(),
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, c)) in events.iter().enumerate() {
            q.schedule(t, c, P(i as u64));
        }
        let bytes = q.snapshot();
        let keep = keep_pick % bytes.len(); // always strictly shorter
        prop_assert!(EventQueue::<P>::restore(&bytes[..keep], ()).is_err());
    }

    /// A container from a future (or past) format version is refused
    /// with `VersionMismatch` carrying both versions.
    #[test]
    fn version_mismatch_is_reported_with_both_versions(found_raw in any::<u32>()) {
        let found = if found_raw == FORMAT_VERSION { FORMAT_VERSION ^ 1 } else { found_raw };
        let q: EventQueue<P> = EventQueue::new();
        let mut bytes = q.snapshot();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&found.to_le_bytes());
        match EventQueue::<P>::restore(&bytes, ()) {
            Err(SnapshotError::VersionMismatch { found: f, expected }) => {
                prop_assert_eq!(f, found);
                prop_assert_eq!(expected, FORMAT_VERSION);
            }
            other => {
                prop_assert!(false, "expected VersionMismatch, got {:?}", other.err());
            }
        }
    }

    /// A stream RNG decoded mid-stream continues with exactly the
    /// draws the original would have produced; a truncated encoding is
    /// a typed error.
    #[test]
    fn stream_rng_resumes_exactly(
        seed in any::<u64>(),
        salts in prop::collection::vec(any::<u64>(), 0..4),
        burn in 0..200usize,
        draws in 1..50usize,
        keep_pick in any::<usize>(),
    ) {
        let mut rng = StreamRng::keyed(seed, &salts);
        for _ in 0..burn {
            let _: u64 = rng.random();
        }
        let mut w = ByteWriter::new();
        rng.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut restored = StreamRng::decode(&mut r).map_err(|e| format!("{e:?}"))?;
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(restored.state(), rng.state());
        let keep = keep_pick % bytes.len(); // always strictly shorter
        prop_assert!(matches!(
            StreamRng::decode(&mut ByteReader::new(&bytes[..keep])),
            Err(SnapshotError::Truncated)
        ));
        for _ in 0..draws {
            let a: u64 = rng.random();
            let b: u64 = restored.random();
            prop_assert_eq!(a, b);
        }
    }
}
