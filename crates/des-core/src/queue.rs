//! The event queue: a ring of per-time buckets with a deterministic
//! total order.
//!
//! Entries are keyed by `(time, class, seq)`:
//!
//! - `time` — when the event fires (any monotone `u64` clock);
//! - `class` — a small caller-chosen tag ordering events that share a
//!   timestamp (the simulator uses it to encode its intra-minute
//!   phase order: expiry before submissions before
//!   exposures before browsing before external discovery);
//! - `seq` — a queue-global insertion counter, so events with equal
//!   `(time, class)` pop in FIFO order and the order is a pure function
//!   of the schedule-call sequence, never of the queue's layout.
//!
//! Every key is unique (no two schedules share a `seq`), so the queue
//! holds exactly the pending events and pops them in one stable order.
//! A scheduled event always fires, at the key it was scheduled with.
//!
//! # Layout
//!
//! Pending entries sit in a ring of `RING` buckets covering the
//! window `[cursor, cursor + RING)`, where `cursor` is the latest time
//! popped so far. An entry at `time` goes to bucket `time % RING`, so
//! inside the window each bucket holds one time, and each bucket is a
//! small heap ordered by `(class, seq)`. A 64-word occupancy bitmap
//! finds the first non-empty bucket at or after the cursor's: the
//! earliest time in the ring. A time outside the window when it is
//! scheduled — at or beyond `cursor + RING`, or before the cursor —
//! goes to one far heap instead and stays there; `pop` takes whichever
//! of the ring's and the far heap's heads has the smaller key, so the
//! order is the full `(time, class, seq)` order for any `u64` time. A
//! bucket that drains gives its buffer back, so retained memory
//! follows the live entry count rather than every bucket's peak.
//!
//! The simulator schedules nothing more than `2 days + 1` minutes
//! ahead of its clock and nothing before it, so all its events go
//! through the ring: schedule is one bucket push and pop one bitmap
//! probe plus one small-heap pop.

use digg_snapshot::{
    ByteWriter, Codec, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Ring width in time units. A power of two above every horizon the
/// simulator schedules: `feed_lifetime`, `queue_lifetime + 1` and
/// `external_window` are all at most 2 days + 1 minute (2881).
const RING: usize = 4096;
const MASK: u64 = RING as u64 - 1;
const WORDS: usize = RING / 64;

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

/// A min-heap of entries.
type Heap<T> = BinaryHeap<Reverse<Entry<T>>>;

fn empty_ring<T>() -> Box<[Heap<T>]> {
    (0..RING).map(|_| BinaryHeap::new()).collect()
}

/// Deterministic priority queue of events carrying payloads of type
/// `T`. See the module docs for the ordering contract and the layout.
pub struct EventQueue<T> {
    /// One heap per time of the window `[cursor, cursor + RING)`, at
    /// index `time % RING`.
    ring: Box<[Heap<T>]>,
    /// Bit `s` is set iff `ring[s]` is non-empty.
    occupied: [u64; WORDS],
    /// Start of the ring's window: the latest time popped, or the
    /// earliest pending time of a restored queue.
    cursor: u64,
    /// Entries scheduled outside the window.
    far: Heap<T>,
    /// Pending entries, ring and far heap together.
    len: usize,
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
            ring: empty_ring(),
            occupied: [0; WORDS],
            cursor: 0,
            far: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule `payload` at `(time, class)`; later schedules at the
    /// same `(time, class)` fire after this one (FIFO).
    pub fn schedule(&mut self, time: u64, class: u8, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry {
            time,
            class,
            seq,
            payload,
        });
    }

    /// File `e` in its ring bucket if its time lies in the window,
    /// else in the far heap.
    fn insert(&mut self, e: Entry<T>) {
        self.len += 1;
        if e.time.checked_sub(self.cursor).is_some_and(|d| d <= MASK) {
            let s = (e.time & MASK) as usize;
            self.occupied[s / 64] |= 1 << (s % 64);
            self.ring[s].push(Reverse(e));
        } else {
            self.far.push(Reverse(e));
        }
    }

    /// The first non-empty bucket at or after the cursor's, wrapping
    /// round the ring: the bucket of the ring's earliest time.
    fn first_occupied(&self) -> Option<usize> {
        let start = (self.cursor & MASK) as usize;
        let w0 = start / 64;
        let high = self.occupied[w0] & (!0u64 << (start % 64));
        if high != 0 {
            return Some(w0 * 64 + high.trailing_zeros() as usize);
        }
        // The following words in ring order; the last one visited is
        // `w0` again, whose bits at or above `start` are clear, so any
        // bit it still has lies past the wrap.
        (1..=WORDS)
            .map(|k| (w0 + k) % WORDS)
            .find(|&w| self.occupied[w] != 0)
            .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// The next entry to pop, with the ring bucket holding it (`None`
    /// for the far heap).
    fn head(&self) -> Option<(Option<usize>, &Entry<T>)> {
        let ring = self
            .first_occupied()
            .and_then(|s| Some((Some(s), &self.ring[s].peek()?.0)));
        let far = self.far.peek().map(|Reverse(e)| (None, e));
        match (ring, far) {
            (Some(r), Some(f)) => Some(if f.1 < r.1 { f } else { r }),
            (r, f) => r.or(f),
        }
    }

    /// Fire time of the next event, without popping it.
    pub fn peek_time(&self) -> Option<u64> {
        self.head().map(|(_, e)| e.time)
    }

    /// Pop the next event in `(time, class, seq)` order.
    // Hot path: allocation-free once warm (crates/core/tests/hot_path_alloc.rs).
    pub fn pop(&mut self) -> Option<Event<T>> {
        let (slot, _) = self.head()?;
        let Reverse(e) = match slot {
            Some(s) => {
                let bucket = &mut self.ring[s];
                let e = bucket.pop()?;
                if bucket.is_empty() {
                    // Drop the drained buffer; a bucket refilled a lap
                    // later allocates afresh.
                    *bucket = BinaryHeap::new();
                    self.occupied[s / 64] &= !(1 << (s % 64));
                }
                e
            }
            None => self.far.pop()?,
        };
        self.len -= 1;
        // Every ring entry is at or after the popped one, so the window
        // may start here. A past time popped from the far heap leaves
        // the cursor where it is.
        self.cursor = self.cursor.max(e.time);
        Some(Event {
            time: e.time,
            class: e.class,
            payload: e.payload,
        })
    }

    /// Every pending payload, in no particular order.
    pub fn payloads(&self) -> impl Iterator<Item = &T> {
        self.ring
            .iter()
            .flatten()
            .chain(&self.far)
            .map(|Reverse(e)| &e.payload)
    }
}

impl<T: Codec> Snapshot for EventQueue<T> {
    /// Serialized: `next_seq`, then the pending events with their
    /// original keys in ascending `(time, class, seq)` order — the
    /// order they will pop in, independent of the ring's layout.
    /// Carrying `next_seq` is what makes a restored queue order
    /// *future* schedules identically to the original (the
    /// checkpoint/replay bit-identity contract).
    fn snapshot(&self) -> Vec<u8> {
        // Exhaustive: a new field fails to compile until it is used
        // here, and a field this body stops reading is an unused
        // binding, which fails the build under `-D warnings`.
        let EventQueue {
            ring,
            occupied,
            cursor,
            far,
            len,
            next_seq,
        } = self;
        // Every pending entry in pop order: the ring walked bucket by
        // bucket from the cursor's, merged with the sorted far heap.
        let start = (cursor & MASK) as usize;
        let mut in_ring: Vec<&Entry<T>> = Vec::with_capacity(len - far.len());
        for s in (start..start + RING).map(|s| s % RING) {
            if occupied[s / 64] & (1 << (s % 64)) != 0 {
                let from = in_ring.len();
                in_ring.extend(ring[s].iter().map(|Reverse(e)| e));
                in_ring[from..].sort_unstable();
            }
        }
        let mut in_far: Vec<&Entry<T>> = far.iter().map(|Reverse(e)| e).collect();
        in_far.sort_unstable();
        let mut entries = Vec::with_capacity(*len);
        let (mut in_ring, mut in_far) = (
            in_ring.into_iter().peekable(),
            in_far.into_iter().peekable(),
        );
        while let Some(e) = match (in_ring.peek(), in_far.peek()) {
            (Some(r), Some(f)) if f < r => in_far.next(),
            _ => in_ring.next().or_else(|| in_far.next()),
        } {
            entries.push(e);
        }

        let mut w = ByteWriter::new();
        w.put_u64(*next_seq);
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
    /// restored queue is byte-identical to its source. The ring's
    /// window starts at the earliest pending time (the snapshot does
    /// not carry the cursor, and pop order does not depend on it).
    fn restore(bytes: &[u8], _ctx: ()) -> Result<EventQueue<T>, SnapshotError> {
        let reader = SnapshotReader::parse(bytes)?;
        let mut r = reader.section_reader("events")?;
        let next_seq = r.get_u64()?;
        let count = r.get_usize()?;
        let mut q = EventQueue {
            ring: empty_ring(),
            occupied: [0; WORDS],
            cursor: 0,
            far: BinaryHeap::new(),
            len: 0,
            next_seq,
        };
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
            if prev.is_none() {
                q.cursor = e.time;
            }
            prev = Some(e.key());
            q.insert(e);
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Malformed(
                "trailing bytes after event list".into(),
            ));
        }
        Ok(q)
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
    }

    #[test]
    fn far_and_past_times_interleave_with_the_ring() {
        let mut q = EventQueue::new();
        q.schedule(10, 0, "ring");
        q.schedule(10 + RING as u64, 0, "far, one lap out");
        q.schedule(u64::MAX, 0, "far, the last time");
        assert_eq!(q.pop().map(|e| e.payload), Some("ring"));
        // Before the cursor (now 10): the far heap, popped first.
        q.schedule(3, 1, "past");
        // The window is now [10, 10 + RING): its last time goes to the
        // ring, one lap out stays in the far heap.
        q.schedule(10 + RING as u64 - 1, 0, "ring, last slot");
        q.schedule(10 + RING as u64 - 1, 1, "ring, last slot, class 1");
        assert_eq!(
            drain(&mut q),
            vec![
                (3, 1, "past"),
                (10 + RING as u64 - 1, 0, "ring, last slot"),
                (10 + RING as u64 - 1, 1, "ring, last slot, class 1"),
                (10 + RING as u64, 0, "far, one lap out"),
                (u64::MAX, 0, "far, the last time"),
            ]
        );
    }

    #[test]
    fn drained_buckets_release_their_buffers() {
        let mut q = EventQueue::new();
        for i in 0..1000 {
            q.schedule(5, 0, i);
        }
        q.schedule(6, 0, 1000);
        assert!(q.ring[5].capacity() >= 1000);
        while q.peek_time() == Some(5) {
            q.pop();
        }
        assert_eq!(q.ring[5].capacity(), 0);
        assert_eq!(q.occupied[0], 1 << 6);
        assert_eq!(q.pop().map(|e| e.payload), Some(1000));
        assert_eq!(q.occupied, [0; WORDS]);
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
