//! Fixture: sorted containers serialize deterministically, a
//! `#[serde(skip)]` field never reaches serde bytes, and a HashMap in
//! a plain (non-Serialize) struct is fine.

use serde::Serialize;
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Serialize)]
pub struct Artifact {
    pub per_user: BTreeMap<u32, u64>,
    pub sorted_pairs: Vec<(u32, u64)>,
    #[serde(skip)]
    pub scratch: HashSet<u32>,
}

pub struct Scratch {
    pub counts: HashMap<u32, u64>,
}
