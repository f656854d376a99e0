//! Fixture: the deterministic ways to get hash data into bytes —
//! sort before encoding, keep keyed lookups keyed, or use an ordered
//! container from the start. A Snapshot type may keep a hash index as
//! long as its encoder sorts the keys first.

use std::collections::{BTreeMap, HashMap};

pub fn summarize(counts: &HashMap<u32, u64>) -> Vec<String> {
    let mut rows: Vec<(u32, u64)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_unstable();
    rows.into_iter().map(|(k, v)| format!("{k} {v}")).collect()
}

pub fn lookup(counts: &HashMap<u32, u64>, key: u32) -> u64 {
    counts.get(&key).copied().unwrap_or(0)
}

pub fn ordered(counts: &BTreeMap<u32, u64>) -> Vec<String> {
    counts.iter().map(|(k, v)| format!("{k} {v}")).collect()
}

pub fn export(counts: &HashMap<u32, u64>, w: &mut impl std::io::Write) {
    for r in summarize(counts) {
        let _ = w.write_all(r.as_bytes());
    }
    let _ = lookup(counts, 0);
}

pub struct Ledger {
    pub rows: Vec<(u64, u64)>,
    pub index: HashMap<u64, usize>,
}

impl digg_snapshot::Snapshot for Ledger {
    fn snapshot(&self) -> Vec<u8> {
        let mut keys: Vec<u64> = self.index.keys().copied().collect();
        keys.sort_unstable();
        let mut out = Vec::with_capacity(self.rows.len() + keys.len());
        out.extend(keys.iter().flat_map(|k| k.to_le_bytes()));
        out
    }
}
