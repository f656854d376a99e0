//! Corruption fuzzing for the mmap-backed graph snapshot.
//!
//! `GraphMap::open` promises that *any* damaged file comes back as a
//! typed `GraphMapError` — never a panic, never undefined behaviour.
//! These tests manufacture damage the way `digg-snapshot`'s proptests
//! do: flip every byte, truncate at every length, misalign a section,
//! and patch the version, then assert the reader's verdict. Every
//! assertion runs in-process, so a panic (let alone UB) fails the
//! suite outright.

use social_graph::mmap::{write_graph_map, GraphMap, GraphMapError, FORMAT_VERSION};
use social_graph::{GraphBuilder, UserId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A small but non-trivial graph: a hub, mutual edges, isolated users.
fn sample_bytes() -> Vec<u8> {
    let mut b = GraphBuilder::new(40);
    for f in 1..12u32 {
        b.add_watch(UserId(f), UserId(0));
    }
    for (a, t) in [(5u32, 9u32), (9, 5), (30, 31), (14, 39)] {
        b.add_watch(UserId(a), UserId(t));
    }
    let g = b.build();
    let path = tmp_path("pristine.graphmap");
    write_graph_map(&g, &path).expect("write sample");
    let bytes = std::fs::read(&path).expect("read sample back");
    std::fs::remove_file(&path).expect("cleanup");
    bytes
}

/// A fresh path per call: the tests run on parallel threads of one
/// process, so a shared name would let one test delete the file
/// another is still reading.
fn tmp_path(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("graphmap-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{}-{name}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

fn open_patched(bytes: &[u8], name: &str) -> Result<GraphMap, GraphMapError> {
    let path = tmp_path(name);
    std::fs::write(&path, bytes).expect("write patched file");
    let out = GraphMap::open(&path);
    std::fs::remove_file(&path).expect("cleanup");
    out
}

#[test]
fn pristine_file_opens() {
    let bytes = sample_bytes();
    let map = open_patched(&bytes, "ok.graphmap").expect("pristine file must open");
    assert_eq!(map.user_count(), 40);
    assert_eq!(map.fans(UserId(0)).len(), 11);
}

/// Exhaustive natively; under Miri every iteration costs ~1000x, so
/// sample with a stride coprime to the 8-byte word and 64-byte
/// section layout — successive Miri runs of the suite still walk
/// header, table, and every section class.
const STEP: usize = if cfg!(miri) { 37 } else { 1 };

#[test]
fn every_single_byte_flip_is_detected_or_harmless() {
    let pristine = sample_bytes();
    let reference = open_patched(&pristine, "ref.graphmap").expect("pristine opens");
    for i in (0..pristine.len()).step_by(STEP) {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0xff;
        // Typed rejection is the expected outcome; getting an Err at
        // all (instead of a panic) is the property. A flip the
        // verifier accepts can only live in inter-section padding: the
        // graph served must be identical.
        if let Ok(map) = open_patched(&bytes, "flip.graphmap") {
            assert_eq!(map.user_count(), reference.user_count(), "byte {i}");
            assert_eq!(map.edge_count(), reference.edge_count(), "byte {i}");
            for u in 0..map.user_count() {
                let u = UserId::from_index(u);
                assert_eq!(map.friends(u), reference.friends(u), "byte {i}");
                assert_eq!(map.fans(u), reference.fans(u), "byte {i}");
            }
        }
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let pristine = sample_bytes();
    for cut in (0..pristine.len()).step_by(STEP) {
        let err = open_patched(&pristine[..cut], "trunc.graphmap")
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} must not open"));
        // Any typed error is acceptable; the match proves we got a
        // value, not a panic.
        match err {
            GraphMapError::BadMagic
            | GraphMapError::Truncated
            | GraphMapError::VersionMismatch { .. }
            | GraphMapError::CorruptSection { .. }
            | GraphMapError::MissingSection { .. }
            | GraphMapError::MisalignedSection { .. }
            | GraphMapError::Malformed(_)
            | GraphMapError::Io(_) => {}
        }
    }
}

#[test]
fn version_patch_is_a_version_mismatch() {
    let mut bytes = sample_bytes();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
    match open_patched(&bytes, "version.graphmap") {
        Err(GraphMapError::VersionMismatch { found, expected }) => {
            assert_eq!(found, FORMAT_VERSION + 7);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[..8].copy_from_slice(b"NOTAGMAP");
    assert!(matches!(
        open_patched(&bytes, "magic.graphmap"),
        Err(GraphMapError::BadMagic)
    ));
}

/// Patch the first section-table entry's payload offset to `off + 1`
/// (not 64-byte aligned). The table layout: 16-byte header, then per
/// entry name_len u32 + name + off u64 + len u64 + sum u64. The first
/// entry is "meta" (name_len 4).
#[test]
fn misaligned_section_offset_is_rejected() {
    let mut bytes = sample_bytes();
    let off_pos = 16 + 4 + 4; // header + name_len + "meta"
    let off = u64::from_le_bytes(bytes[off_pos..off_pos + 8].try_into().expect("8 bytes"));
    assert_eq!(off % 64, 0, "writer must have aligned the section");
    bytes[off_pos..off_pos + 8].copy_from_slice(&(off + 1).to_le_bytes());
    assert!(matches!(
        open_patched(&bytes, "misaligned.graphmap"),
        Err(GraphMapError::MisalignedSection { ref name }) if name == "meta"
    ));
}

/// Point a section beyond the end of the file.
#[test]
fn out_of_bounds_section_is_truncated_error() {
    let mut bytes = sample_bytes();
    let off_pos = 16 + 4 + 4;
    bytes[off_pos..off_pos + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert!(matches!(
        open_patched(&bytes, "oob.graphmap"),
        Err(GraphMapError::Truncated)
    ));
}

/// Zero out the section count: the required sections become missing.
#[test]
fn empty_section_table_is_missing_section() {
    let mut bytes = sample_bytes();
    bytes[12..16].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        open_patched(&bytes, "nosections.graphmap"),
        Err(GraphMapError::MissingSection { .. })
    ));
}

/// Flips confined to a target array must be caught by the checksum in
/// `open`, and by the invariant scan even if the checksum were to
/// collide — probe the Malformed layer directly by rewriting a
/// payload *and* its recorded checksum.
#[test]
fn consistent_checksum_with_invalid_ids_is_malformed() {
    let pristine = sample_bytes();
    // Locate the friend_targets entry in the table.
    let mut pos = 16usize;
    let mut target_entry = None;
    let count = u32::from_le_bytes(pristine[12..16].try_into().expect("4 bytes")) as usize;
    for _ in 0..count {
        let name_len =
            u32::from_le_bytes(pristine[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let name = &pristine[pos + 4..pos + 4 + name_len];
        let fields = pos + 4 + name_len;
        if name == b"friend_targets" {
            target_entry = Some(fields);
        }
        pos = fields + 24;
    }
    let fields = target_entry.expect("friend_targets entry present");
    let off =
        u64::from_le_bytes(pristine[fields..fields + 8].try_into().expect("8 bytes")) as usize;
    let len = u64::from_le_bytes(
        pristine[fields + 8..fields + 16]
            .try_into()
            .expect("8 bytes"),
    ) as usize;
    assert!(len >= 4, "sample graph has edges");

    let mut bytes = pristine.clone();
    // An id far beyond user_count=40, then re-seal the checksum so
    // only the invariant scan can object.
    bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let sum = digg_snapshot::fnv1a64(&bytes[off..off + len]);
    bytes[fields + 16..fields + 24].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        open_patched(&bytes, "badid.graphmap"),
        Err(GraphMapError::Malformed(_))
    ));
}
