//! Graph persistence.
//!
//! A graph ships inside a dataset through serde: [`SocialGraph`]
//! serializes its CSR arrays, and deserializing checks that they form
//! a valid graph. The binary serialization — the versioned,
//! checksummed, mmap-served CSR snapshot that out-of-core runs use —
//! lives in [`crate::mmap`]; its writer is re-exported here.
//!
//! [`SocialGraph`]: crate::SocialGraph

pub use crate::mmap::write_graph_map;
