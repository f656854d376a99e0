//! Fixture: the capabilities a kernel crate may not use — wall-clock
//! reads, ambient (OS-seeded) randomness, and async. The replay kernel
//! is synchronous by design: an executor's poll order is a scheduler
//! decision the snapshot cannot capture.

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn epoch_ms() -> u128 {
    use std::time::SystemTime;
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

pub fn roll() -> u32 {
    let mut rng = rand::thread_rng();
    rng.random_range(0..6)
}

pub fn seed_from_os() -> u64 {
    rand::random()
}

pub async fn fetch(id: u64) -> u64 {
    worker(id).await
}

async fn worker(id: u64) -> u64 {
    id * 2
}
