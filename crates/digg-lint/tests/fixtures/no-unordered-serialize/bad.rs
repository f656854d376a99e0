//! Fixture: hash-ordered containers reaching serde bytes through a
//! `#[derive(Serialize)]`. (Hand-written `snapshot()` encoders that
//! iterate a hash field are `unordered-taint`'s cases.)

use serde::Serialize;
use std::collections::{HashMap, HashSet};

#[derive(Serialize)]
pub struct Artifact {
    pub per_user: HashMap<u32, u64>,
    pub flagged: HashSet<u32>,
}
