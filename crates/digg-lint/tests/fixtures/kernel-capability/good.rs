//! Fixture: time handled as plain data, caller-seeded randomness, and
//! synchronous code. The string and the comment below must not fire:
//! Instant::now() only counts in code position. Identifiers and
//! comments that merely mention asynchrony (or contain `await` as a
//! substring of a larger word) are not violations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// "Instant::now" in a string is inert.
pub fn label() -> &'static str {
    "Instant::now"
}

pub fn advance(now_minutes: u64, dt: u64) -> u64 {
    now_minutes + dt
}

pub fn roll(seed: u64) -> u32 {
    let mut rng = StdRng::seed_from_u64(seed);
    rng.random_range(0..6)
}

/// Batched, not async: callers drive this from the event loop.
pub fn fetch(id: u64) -> u64 {
    worker(id)
}

fn worker(id: u64) -> u64 {
    let asynchronously_named = id;
    asynchronously_named * 2
}
