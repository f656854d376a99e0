//! Counter-based random streams for interleaving-independent draws.
//!
//! A [`StreamRng`] is a splitmix64 generator addressed by a `key` (the
//! stream identity) and a `counter` (the position within the stream).
//! Output `i` of a stream is `mix(key + i * GAMMA)` — a pure function
//! of `(key, i)` — so two streams never contend for state and the
//! values an entity draws do not depend on *when* its events fire
//! relative to other entities' events. That is the property that makes
//! an event-driven simulation reproducible under any heap layout.
//!
//! Keys are derived by chaining the same mixer over a seed and a list
//! of salts (entity ids, channel tags, episode counters), mirroring how
//! the vendored `rand` seeds `StdRng` from a `u64`.

use digg_snapshot::{ByteReader, ByteWriter, Codec, SnapshotError};
use rand::RngCore;

/// Weyl-sequence increment from the splitmix64 reference
/// implementation (the golden-ratio constant).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a bijective avalanche mix of one word.
#[inline]
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One independent random stream: `Copy`, 16 bytes, freely embeddable
/// in event payloads. Implements [`rand::RngCore`], so every sampler in
/// `digg-stats` (`coin`, `poisson`, `exponential`, …) works on it
/// unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamRng {
    key: u64,
    counter: u64,
}

impl StreamRng {
    /// Root stream for a run seed.
    pub fn root(seed: u64) -> StreamRng {
        StreamRng {
            key: mix(seed.wrapping_add(GOLDEN_GAMMA)),
            counter: 0,
        }
    }

    /// Child stream: same construction applied to this stream's key and
    /// a salt. Chaining `derive` over entity ids gives a key tree —
    /// `root(seed).derive(STORY).derive(id)` — where distinct paths
    /// yield (with overwhelming probability) distinct keys.
    pub fn derive(&self, salt: u64) -> StreamRng {
        StreamRng {
            key: mix(self.key.wrapping_add(GOLDEN_GAMMA) ^ mix(salt.wrapping_add(GOLDEN_GAMMA))),
            counter: 0,
        }
    }

    /// Convenience: root stream keyed by a seed and a salt path.
    pub fn keyed(seed: u64, salts: &[u64]) -> StreamRng {
        let mut s = StreamRng::root(seed);
        for &salt in salts {
            s = s.derive(salt);
        }
        s
    }

    /// Draws consumed so far (the position within the stream).
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The full `(key, counter)` state. This pair is the *entire*
    /// generator — the counter-based design means its [`Codec`] form
    /// is 16 bytes and decoding it replays the stream from exactly
    /// where it left off.
    pub fn state(&self) -> (u64, u64) {
        (self.key, self.counter)
    }
}

impl Codec for StreamRng {
    fn encode(&self, out: &mut ByteWriter) {
        out.put_u64(self.key);
        out.put_u64(self.counter);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<StreamRng, SnapshotError> {
        let key = r.get_u64()?;
        let counter = r.get_u64()?;
        Ok(StreamRng { key, counter })
    }
}

impl RngCore for StreamRng {
    fn next_u64(&mut self) -> u64 {
        let out = mix(self
            .key
            .wrapping_add(self.counter.wrapping_mul(GOLDEN_GAMMA)));
        self.counter = self.counter.wrapping_add(1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn outputs_are_position_addressable() {
        let mut a = StreamRng::keyed(7, &[1, 2]);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        // A fresh copy of the same stream replays identically.
        let mut b = StreamRng::keyed(7, &[1, 2]);
        let again: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, again);
        assert_eq!(a.counter(), 8);
    }

    #[test]
    fn interleaving_does_not_change_draws() {
        let mut x = StreamRng::keyed(7, &[1]);
        let mut y = StreamRng::keyed(7, &[2]);
        let (x1, y1, x2) = (x.next_u64(), y.next_u64(), x.next_u64());

        // Same streams, different interleaving: identical values.
        let mut x = StreamRng::keyed(7, &[1]);
        let mut y = StreamRng::keyed(7, &[2]);
        let (x1b, x2b, y1b) = (x.next_u64(), x.next_u64(), y.next_u64());
        assert_eq!((x1, x2, y1), (x1b, x2b, y1b));
    }

    #[test]
    fn distinct_paths_give_distinct_sequences() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4u64 {
            for a in 0..4u64 {
                for b in 0..4u64 {
                    let mut s = StreamRng::keyed(seed, &[a, b]);
                    assert!(seen.insert(s.next_u64()), "collision at {seed}/{a}/{b}");
                }
            }
        }
        // Path order matters: [1, 2] and [2, 1] are different streams.
        let mut p = StreamRng::keyed(0, &[1, 2]);
        let mut q = StreamRng::keyed(0, &[2, 1]);
        assert_ne!(p.next_u64(), q.next_u64());
    }

    #[test]
    fn codec_roundtrip_resumes_the_stream_exactly() {
        let mut s = StreamRng::keyed(9, &[3, 1]);
        for _ in 0..5 {
            s.next_u64();
        }
        let mut w = ByteWriter::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 16);
        let mut r = ByteReader::new(&bytes);
        let mut restored = StreamRng::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, s);
        let tail: Vec<u64> = (0..8).map(|_| s.next_u64()).collect();
        let resumed: Vec<u64> = (0..8).map(|_| restored.next_u64()).collect();
        assert_eq!(tail, resumed);
        // A short read surfaces as a typed error, never a panic.
        for keep in 0..bytes.len() {
            assert!(matches!(
                StreamRng::decode(&mut ByteReader::new(&bytes[..keep])),
                Err(SnapshotError::Truncated)
            ));
        }
    }

    #[test]
    fn uniform_floats_cover_the_unit_interval() {
        let mut s = StreamRng::keyed(42, &[]);
        let n = 4096;
        let mean: f64 = (0..n).map(|_| s.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
