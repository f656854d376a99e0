//! # digg-snapshot
//!
//! Versioned, endian-fixed binary snapshot containers — the substrate
//! of deterministic checkpoint/replay across the workspace (DESIGN.md
//! §15).
//!
//! Every state-bearing layer (the `des-core` kernel, the `digg-sim`
//! engine, `digg-core`'s incremental analytics) keeps deterministic
//! state, and this crate is how that state leaves and re-enters the
//! process **bit-identically**: a [`SnapshotWriter`] packs named,
//! checksummed sections behind a magic + format-version header, and a
//! [`SnapshotReader`] refuses anything corrupted or from a different
//! format version with a typed [`SnapshotError`] — never a panic.
//!
//! Layout (all integers little-endian, floats as `to_bits`):
//!
//! ```text
//! magic   : 8 bytes  b"DIGGSNAP"
//! version : u32      FORMAT_VERSION
//! count   : u32      number of sections
//! table   : per section — name_len u32, name bytes,
//!           payload_len u64, FNV-1a64 checksum u64
//! payloads: section payloads concatenated in table order
//! ```
//!
//! The traits:
//!
//! * [`Snapshot`] — encode a value into one complete container
//!   (composition nests child containers as parent sections);
//! * [`Restore`] — decode it back, given a caller-supplied
//!   [`Restore::Context`] carrying the state that is deliberately
//!   *rebuilt* rather than serialized (e.g. a `Population` regenerated
//!   from its seed);
//! * [`Codec`] — the little-endian byte codec for payload items
//!   ([`ByteWriter`] / [`ByteReader`]).
//!
//! Snapshot files land on disk through [`write_atomic`] (tmp +
//! rename), so a crash mid-checkpoint never leaves a truncated
//! container where a recovering supervisor will look for one.

#![warn(missing_docs)]
// Library code returns typed errors and converts integers checked
// (DESIGN.md §13); test builds are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation
    )
)]

use std::fmt;
use std::io::Write;

/// Container magic: the first eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"DIGGSNAP";

/// Current container format version. Bump on any incompatible layout
/// change; readers reject other versions with
/// [`SnapshotError::VersionMismatch`] (see DESIGN.md §15 for the
/// compatibility policy).
pub const FORMAT_VERSION: u32 = 7;

/// Typed snapshot failure. Corrupt or incompatible snapshots must
/// surface as values, never as panics — a recovering supervisor treats
/// them as "checkpoint unusable, restart the cell from scratch".
#[derive(Debug)]
pub enum SnapshotError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The container was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// A section's payload does not match its recorded checksum.
    CorruptSection {
        /// Name of the failing section.
        name: String,
    },
    /// A section the reader needs is absent.
    MissingSection {
        /// Name of the absent section.
        name: String,
    },
    /// The buffer ended before the declared layout did.
    Truncated,
    /// The bytes decoded, but the decoded state is invalid (bad enum
    /// tag, context mismatch, out-of-range value).
    Malformed(String),
    /// Filesystem failure while reading or writing a snapshot file.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot container (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format version {found}, expected {expected}")
            }
            SnapshotError::CorruptSection { name } => {
                write!(f, "section '{name}' fails its checksum")
            }
            SnapshotError::MissingSection { name } => write!(f, "section '{name}' is missing"),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the per-section checksum. Not cryptographic;
/// it guards against truncation and bit-rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode a value into a complete snapshot container.
///
/// Implementations must be **order-stable**: the bytes may depend only
/// on the logical state, never on hash-iteration order or thread
/// interleaving (the workspace `clippy.toml` files disallow
/// `HashMap`/`HashSet` outright).
pub trait Snapshot {
    /// Serialize into a versioned container.
    fn snapshot(&self) -> Vec<u8>;
}

/// Decode a value from a snapshot container produced by [`Snapshot`].
pub trait Restore: Sized {
    /// State deliberately rebuilt rather than serialized — the
    /// immutable inputs a restored value is reattached to (a social
    /// graph, a population, a configuration). `()` when everything is
    /// in the container.
    type Context<'a>;

    /// Deserialize from `bytes`, reattaching `ctx`.
    fn restore(bytes: &[u8], ctx: Self::Context<'_>) -> Result<Self, SnapshotError>;
}

/// Little-endian byte codec for one payload item. Implemented by event
/// payloads and other section elements so container layouts stay
/// explicit and endian-fixed.
pub trait Codec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut ByteWriter);
    /// Decode one value, advancing `r`.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError>;
}

/// Append-only little-endian byte sink for section payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the id space is 32-bit, counts fit
    /// comfortably; widening is always exact).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern — bit-exact round
    /// trips, no locale or formatting in the loop.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Cursor over a section payload; every read is bounds-checked and a
/// short buffer yields [`SnapshotError::Truncated`].
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a count/index written by [`ByteWriter::put_usize`].
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Malformed(format!("count {v} overflows usize")))
    }

    /// Read an `f64` bit pattern written by [`ByteWriter::put_f64`].
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a raw byte run of length `n`.
    pub(crate) fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }
}

/// Builder for one snapshot container: named sections in insertion
/// order, checksummed and length-prefixed in the header table.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty container.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Add a section. Names should be unique; on duplicates the reader
    /// returns the first.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        self.sections.push((name.to_string(), payload));
        self
    }

    /// Serialize the container.
    pub fn finish(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        #[expect(
            clippy::cast_possible_truncation,
            reason = "section counts are writer-chosen and single-digit"
        )]
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "section names are short string literals"
            )]
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// Parsed view of a snapshot container. Parsing validates the magic,
/// the format version, the declared lengths, and every section
/// checksum up front, so a reader holding a `SnapshotReader` knows the
/// payload bytes are exactly what the writer produced.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parse and validate a container.
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        if r.get_bytes(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let count = r.get_u32()?;
        // Not preallocated: `count` is unvalidated input, and a damaged
        // header must fail on the short table below, not size an
        // allocation.
        let mut table = Vec::new();
        for _ in 0..count {
            let name_len = r.get_u32()? as usize;
            let name_bytes = r.get_bytes(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| SnapshotError::Malformed("section name is not UTF-8".into()))?;
            let payload_len = r.get_usize()?;
            let checksum = r.get_u64()?;
            table.push((name, payload_len, checksum));
        }
        let mut sections = Vec::with_capacity(table.len());
        for (name, len, checksum) in table {
            let payload = r.get_bytes(len)?;
            if fnv1a64(payload) != checksum {
                return Err(SnapshotError::CorruptSection {
                    name: name.to_string(),
                });
            }
            sections.push((name, payload));
        }
        Ok(SnapshotReader { sections })
    }

    /// Section names, in container order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| *n)
    }

    /// A section's payload, or a typed error when absent.
    pub fn section(&self, name: &str) -> Result<&'a [u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .ok_or_else(|| SnapshotError::MissingSection {
                name: name.to_string(),
            })
    }

    /// A [`ByteReader`] positioned at the start of a section.
    pub fn section_reader(&self, name: &str) -> Result<ByteReader<'a>, SnapshotError> {
        Ok(ByteReader::new(self.section(name)?))
    }
}

/// Write `data` to `path` atomically **and durably**: write a sibling
/// `*.tmp` file, fsync it, then rename over the target and best-effort
/// fsync the parent directory. A crash mid-write (or a concurrent
/// reader — a supervisor recovering a worker while its checkpoint is
/// mid-flush) never sees a truncated file; the rename either fully
/// lands or doesn't, and the fsync-before-rename guarantees the bytes
/// behind a landed rename are on stable storage — a power cut cannot
/// leave a fully-renamed but half-persisted ("torn") checkpoint where
/// a recovering supervisor will look for one.
///
/// On any error path the `*.tmp` sibling is removed, so failed writes
/// leave no residue for directory scans (generation discovery, test
/// leftovers asserts) to trip over.
pub fn write_atomic(path: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other(format!("no file name in {}", path.display())))?;
    let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
    let write = std::fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(data)?;
        // Durability boundary: the rename below must never publish a
        // name whose bytes are still in flight. Miri has no stable
        // storage to sync (and no fsync shim), so the barrier is
        // meaningless there; the write/rename semantics it checks are
        // unchanged.
        if cfg!(miri) {
            return Ok(());
        }
        f.sync_all()
    });
    let renamed = write.and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = renamed {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Best-effort: persist the directory entry too. Some filesystems
    // order the rename behind the data sync anyway; failure here is
    // not a correctness problem for readers, only a smaller durability
    // window, so it is deliberately not surfaced. Skipped under Miri,
    // which cannot open a directory as a file.
    #[cfg(not(miri))]
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Persist a snapshot container atomically.
pub fn write_snapshot(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    write_atomic(path, bytes).map_err(SnapshotError::Io)
}

/// Load a snapshot file. The caller parses the returned bytes with
/// [`SnapshotReader::parse`] (or a type's [`Restore`] impl).
pub fn read_snapshot(path: &std::path::Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(SnapshotError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_container() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section("alpha", vec![1, 2, 3]);
        w.section("beta", b"payload".to_vec());
        w.finish()
    }

    #[test]
    fn round_trips_sections_in_order() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.section_names().collect::<Vec<_>>(), vec!["alpha", "beta"]);
        assert_eq!(r.section("alpha").unwrap(), &[1, 2, 3]);
        assert_eq!(r.section("beta").unwrap(), b"payload");
        assert!(matches!(
            r.section("gamma"),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = two_section_container();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = two_section_container();
        // Bump the version field (bytes 8..12).
        bytes[8] = bytes[8].wrapping_add(1);
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_its_checksum() {
        let mut bytes = two_section_container();
        // Flip a bit in the last payload byte.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::CorruptSection { name }) => assert_eq!(name, "beta"),
            other => panic!("expected CorruptSection, got {other:?}"),
        }
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = two_section_container();
        for cut in 0..bytes.len() {
            // Every possible truncation parses to a typed error.
            assert!(SnapshotReader::parse(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn byte_codec_round_trips() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 42);
        // Bit-exact floats, including signed zero and NaN payloads.
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.is_exhausted());
        assert!(matches!(r.get_u8(), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn write_atomic_error_path_leaves_no_tmp_residue() {
        let dir = std::env::temp_dir().join(format!("digg-snapshot-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A directory at the target path makes the rename fail after
        // the tmp file has been written and fsynced — the latest
        // possible failure point.
        let target = dir.join("blocked.snap");
        std::fs::create_dir_all(&target).unwrap();
        let err = write_atomic(&target, b"payload").unwrap_err();
        assert!(
            err.kind() != std::io::ErrorKind::NotFound,
            "wrong failure: {err}"
        );
        assert!(
            !dir.join("blocked.snap.tmp").exists(),
            "failed write left a .tmp file behind"
        );
        // Only the blocking directory itself remains.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["blocked.snap".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_lands_content_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("digg-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let bytes = two_section_container();
        write_snapshot(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), bytes);
        assert!(!dir.join("state.snap.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
