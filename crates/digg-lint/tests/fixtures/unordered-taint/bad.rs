//! Fixture: hash-iteration order flowing into written bytes through
//! the call graph. `export` is a sink (it writes); `summarize` is
//! reachable from it and iterates a HashMap in storage order, so the
//! written rows differ run to run. The Snapshot impls below are the
//! same bug one step shorter: `snapshot()` is itself the sink.

use serde::Serialize;
use std::collections::{HashMap, HashSet};

pub fn summarize(counts: &HashMap<u32, u64>) -> Vec<String> {
    let mut rows = Vec::new();
    for (k, v) in counts.iter() {
        rows.push(format!("{k} {v}"));
    }
    rows
}

pub fn export(counts: &HashMap<u32, u64>, w: &mut impl std::io::Write) {
    let rows = summarize(counts);
    for r in rows {
        let _ = w.write_all(r.as_bytes());
    }
}

/// A Snapshot type's encoder iterating a hash field in storage order.
pub struct Journal {
    pub seen: HashSet<u64>,
}

impl digg_snapshot::Snapshot for Journal {
    fn snapshot(&self) -> Vec<u8> {
        self.seen.iter().flat_map(|s| s.to_le_bytes()).collect()
    }
}

/// `#[serde(skip)]` keeps `scratch` out of serde bytes, but the
/// hand-written encoder still sees it.
#[derive(Serialize)]
pub struct Hybrid {
    #[serde(skip)]
    pub scratch: HashMap<u32, u64>,
}

impl digg_snapshot::Snapshot for Hybrid {
    fn snapshot(&self) -> Vec<u8> {
        self.scratch.keys().flat_map(|k| k.to_le_bytes()).collect()
    }
}
