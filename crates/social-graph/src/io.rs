//! Graph persistence.
//!
//! A graph ships inside a dataset through serde: [`SocialGraph`]
//! serializes its CSR arrays, and deserializing checks that they form
//! a valid graph. The binary serialization — the versioned,
//! checksummed, mmap-served CSR snapshot that out-of-core runs use —
//! lives in [`crate::mmap`]; its entry points are re-exported here so
//! all graph persistence is reachable from one module.
//!
//! [`SocialGraph`]: crate::SocialGraph

pub use crate::mmap::{write_graph_map, GraphMap, GraphMapError};
