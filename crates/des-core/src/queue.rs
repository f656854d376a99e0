//! The event queue: a binary heap with a deterministic total order.
//!
//! Heap entries are keyed by `(time, class, seq)`:
//!
//! - `time` — when the event fires (any monotone `u64` clock);
//! - `class` — a small caller-chosen tag ordering events that share a
//!   timestamp (the simulator uses it to encode its intra-minute
//!   phase order: expiry before submissions before
//!   exposures before browsing before external discovery);
//! - `seq` — a queue-global insertion counter, so events with equal
//!   `(time, class)` pop in FIFO order and the order is a pure function
//!   of the schedule-call sequence, never of heap internals.
//!
//! Every key is unique (no two schedules share a `seq`), so the heap
//! holds exactly the pending events and pops them in one stable order.
//! A scheduled event always fires, at the key it was scheduled with.

use digg_snapshot::{
    ByteWriter, Codec, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A fired event, as returned by [`EventQueue::pop`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event<T> {
    pub time: u64,
    pub class: u8,
    pub payload: T,
}

/// One pending event. Ordered by its `(time, class, seq)` key alone;
/// the payload never takes part in a comparison.
struct Entry<T> {
    time: u64,
    class: u8,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u8, u64) {
        (self.time, self.class, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Deterministic priority queue of events carrying payloads of type
/// `T`. See the module docs for the ordering contract.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at `(time, class)`; later schedules at the
    /// same `(time, class)` fire after this one (FIFO).
    pub fn schedule(&mut self, time: u64, class: u8, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time,
            class,
            seq,
            payload,
        }));
    }

    /// Fire time of the next event, without popping it.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pop the next event in `(time, class, seq)` order.
    // digg-lint: hot-path
    pub fn pop(&mut self) -> Option<Event<T>> {
        let Reverse(e) = self.heap.pop()?;
        Some(Event {
            time: e.time,
            class: e.class,
            payload: e.payload,
        })
    }

    /// Every pending payload, in no particular order.
    pub fn payloads(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|Reverse(e)| &e.payload)
    }
}

impl<T: Codec> Snapshot for EventQueue<T> {
    /// Serialized: `next_seq`, then the pending events with their
    /// original keys in ascending `(time, class, seq)` order — the
    /// order they will pop in, independent of the heap's layout.
    /// Carrying `next_seq` is what makes a restored queue order
    /// *future* schedules identically to the original (the
    /// checkpoint/replay bit-identity contract).
    fn snapshot(&self) -> Vec<u8> {
        let mut entries: Vec<&Entry<T>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_unstable();
        let mut w = ByteWriter::new();
        w.put_u64(self.next_seq);
        w.put_usize(entries.len());
        for e in entries {
            w.put_u64(e.time);
            w.put_u8(e.class);
            w.put_u64(e.seq);
            e.payload.encode(&mut w);
        }
        let mut container = SnapshotWriter::new();
        container.section("events", w.into_bytes());
        container.finish()
    }
}

impl<T: Codec> Restore for EventQueue<T> {
    type Context<'a> = ();

    /// Rejects, as [`SnapshotError::Malformed`], any entry whose `seq`
    /// is not below `next_seq` or whose key does not strictly follow
    /// the previous one — so keys stay unique and a snapshot of the
    /// restored queue is byte-identical to its source.
    fn restore(bytes: &[u8], _ctx: ()) -> Result<EventQueue<T>, SnapshotError> {
        let reader = SnapshotReader::parse(bytes)?;
        let mut r = reader.section_reader("events")?;
        let next_seq = r.get_u64()?;
        let count = r.get_usize()?;
        let mut entries: Vec<Reverse<Entry<T>>> = Vec::with_capacity(count.min(1 << 20));
        let mut prev: Option<(u64, u8, u64)> = None;
        for _ in 0..count {
            let e = Entry {
                time: r.get_u64()?,
                class: r.get_u8()?,
                seq: r.get_u64()?,
                payload: T::decode(&mut r)?,
            };
            if e.seq >= next_seq {
                return Err(SnapshotError::Malformed(format!(
                    "event seq {} not below next_seq {next_seq}",
                    e.seq
                )));
            }
            if prev.is_some_and(|p| p >= e.key()) {
                return Err(SnapshotError::Malformed(format!(
                    "event key {:?} does not follow {prev:?}",
                    e.key()
                )));
            }
            prev = Some(e.key());
            entries.push(Reverse(e));
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Malformed(
                "trailing bytes after event list".into(),
            ));
        }
        Ok(EventQueue {
            heap: BinaryHeap::from(entries),
            next_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<&'static str>) -> Vec<(u64, u8, &'static str)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.class, e.payload));
        }
        out
    }

    #[test]
    fn pops_by_time_then_class_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, 1, "t5c1-first");
        q.schedule(3, 2, "t3c2");
        q.schedule(5, 0, "t5c0");
        q.schedule(5, 1, "t5c1-second");
        q.schedule(3, 1, "t3c1");
        assert_eq!(
            drain(&mut q),
            vec![
                (3, 1, "t3c1"),
                (3, 2, "t3c2"),
                (5, 0, "t5c0"),
                (5, 1, "t5c1-first"),
                (5, 1, "t5c1-second"),
            ]
        );
    }

    #[test]
    fn peek_time_tracks_the_head() {
        let mut q = EventQueue::new();
        q.schedule(7, 0, "b");
        q.schedule(1, 0, "a");
        assert_eq!(q.peek_time(), Some(1));
        assert_eq!(q.pop().map(|e| e.payload), Some("a"));
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.pop().map(|e| e.payload), Some("b"));
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct P(u64);

    impl Codec for P {
        fn encode(&self, out: &mut ByteWriter) {
            out.put_u64(self.0);
        }

        fn decode(r: &mut digg_snapshot::ByteReader<'_>) -> Result<P, SnapshotError> {
            Ok(P(r.get_u64()?))
        }
    }

    fn drain_p(q: &mut EventQueue<P>) -> Vec<(u64, u8, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.class, e.payload.0));
        }
        out
    }

    #[test]
    fn snapshot_restore_preserves_order_and_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, 1, P(50));
        q.schedule(3, 0, P(30));
        q.schedule(3, 0, P(31));
        q.schedule(1, 0, P(10));
        q.pop(); // fires (1, 0, P(10))

        let bytes = q.snapshot();
        let mut restored: EventQueue<P> = EventQueue::restore(&bytes, ()).unwrap();
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.snapshot(), bytes, "snapshot of a restore");
        // Seq allocation continues where the original left off, so a
        // post-restore schedule queues behind the restored ties.
        restored.schedule(3, 0, P(32));
        q.schedule(3, 0, P(32));
        assert_eq!(drain_p(&mut restored), drain_p(&mut q));
    }

    /// The `"events"` payload of a queue holding `P(1)` at time 1 and
    /// `P(2)` at time 2, both class 0.
    fn two_event_payload() -> Vec<u8> {
        let mut q = EventQueue::new();
        q.schedule(1, 0, P(1));
        q.schedule(2, 0, P(2));
        let bytes = q.snapshot();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        reader.section("events").unwrap().to_vec()
    }

    // Payload layout: next_seq u64, count u64, then per entry time u64,
    // class u8, seq u64, P u64.
    const ENTRY: usize = 8 + 1 + 8 + 8;
    const FIRST: usize = 16;
    const SECOND: usize = FIRST + ENTRY;

    fn assert_malformed(payload: Vec<u8>, what: &str) {
        let mut w = SnapshotWriter::new();
        w.section("events", payload);
        match EventQueue::<P>::restore(&w.finish(), ()) {
            Err(SnapshotError::Malformed(_)) => {}
            Err(other) => panic!("{what}: expected Malformed, got {other}"),
            Ok(_) => panic!("{what}: restored"),
        }
    }

    #[test]
    fn restore_rejects_malformed_counters() {
        // next_seq zeroed: every seq now fails the seq < next_seq bound.
        let mut forged = two_event_payload();
        forged[..8].fill(0);
        assert_malformed(forged, "zeroed next_seq");
    }

    #[test]
    fn restore_rejects_duplicate_and_out_of_order_entries() {
        let valid = two_event_payload();
        let mut w = SnapshotWriter::new();
        w.section("events", valid.clone());
        assert!(EventQueue::<P>::restore(&w.finish(), ()).is_ok());

        // The first entry repeated: a duplicate seq (and key).
        let mut duplicate = valid.clone();
        duplicate.copy_within(FIRST..SECOND, SECOND);
        assert_malformed(duplicate, "duplicate seq");

        // The two entries swapped: keys descend.
        let mut swapped = valid.clone();
        swapped[FIRST..SECOND].copy_from_slice(&valid[SECOND..SECOND + ENTRY]);
        swapped[SECOND..SECOND + ENTRY].copy_from_slice(&valid[FIRST..SECOND]);
        assert_malformed(swapped, "out-of-order entries");
    }
}
