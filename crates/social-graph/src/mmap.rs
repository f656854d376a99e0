//! Mmap-backed read-only CSR graph snapshot — the out-of-core backing
//! for [`FanView`] consumers.
//!
//! An in-memory [`SocialGraph`] at 10M users / 100M edges costs
//! ~1 GB of RAM *after* an O(E log E) build; the scale experiments
//! want to open such a graph in O(1) and let the kernel page
//! adjacency rows in and out on demand. [`GraphMap`] is
//! that: a versioned, checksummed on-disk CSR image (written once by
//! [`write_graph_map`]) mapped read-only into the address space, whose
//! sections are 64-byte aligned typed arrays served as slices with
//! zero copying or decoding.
//!
//! ## On-disk format (version 1, little-endian)
//!
//! ```text
//! magic   : 8 bytes  b"DIGGGMAP"
//! version : u32      FORMAT_VERSION
//! count   : u32      number of sections
//! table   : per section — name_len u32, name bytes,
//!           payload_off u64 (absolute, 64-byte aligned),
//!           payload_len u64, FNV-1a64 checksum u64
//! payloads: at their recorded offsets, zero padding between
//! ```
//!
//! The same magic/version/FNV-1a discipline as `digg-snapshot`
//! containers (DESIGN.md §15), with two deliberate differences for
//! mmap service: payload offsets are *absolute and 64-byte aligned*
//! (so a page-aligned mapping makes every section a validly aligned
//! `&[u64]`/`&[u32]`, and each section starts on its own cache line),
//! and the section table records offsets explicitly instead of
//! implying them by order, leaving room for future section skipping.
//!
//! Sections of version 1:
//!
//! | name             | contents                                     |
//! |------------------|----------------------------------------------|
//! | `meta`           | `user_count: u64`, `edge_count: u64`         |
//! | `friend_offsets` | `(n+1) × u64` row starts into friend targets |
//! | `friend_targets` | `m × u32` sorted friend rows concatenated    |
//! | `fan_offsets`    | `(n+1) × u64` row starts into fan targets    |
//! | `fan_targets`    | `m × u32` sorted fan rows concatenated       |
//!
//! Offsets are `u64` on disk — unlike the in-memory graph's `u32`
//! offsets, the format already accommodates `m > u32::MAX` edge
//! arrays (the `GraphBuilder::try_build` capacity ceiling does not
//! apply to the snapshot).
//!
//! ## Safety and validation
//!
//! This is the **single module in the workspace allowed to use
//! `unsafe`** (digg-lint's `no-unchecked-mmap` rule enforces that);
//! the unsafe surface is exactly: the `mmap`/`munmap` FFI pair, one
//! `from_raw_parts` giving the mapping a byte-slice identity, and the
//! layout-compatible reinterpretations `&[u8] → &[u64]` / `&[u32] →
//! &[UserId]` whose alignment and bounds are checked at open time.
//!
//! * [`GraphMap::open`] fully verifies the file: header, table,
//!   alignment, per-section checksums, and the CSR invariants
//!   (monotone offsets closing at `m`, targets in range). Corrupt
//!   input of any shape yields a typed [`GraphMapError`] — never UB,
//!   never a panic (the corruption suite in `tests/mmap_corruption.rs`
//!   byte-flips, truncates, misaligns and re-versions real files to
//!   pin that).
//! * [`GraphMap::open_trusted`] performs the structural checks only
//!   (header, table, alignment, section sizes) — O(sections), the
//!   "load 100M edges in O(1)" path for files this process just wrote
//!   or previously verified. Row lookups stay bounds-checked slice
//!   indexing, so even a corrupt trusted file can at worst produce
//!   wrong analytics or a panic — never undefined behaviour.
//!
//! A mapped file must not be mutated concurrently by another process;
//! the writer's atomic tmp + rename ensures readers only ever see
//! complete images.
#![allow(unsafe_code)]

use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::graph::{check_csr_view, SocialGraph};
use crate::id::UserId;
use crate::view::FanView;
use digg_snapshot::fnv1a64;

/// Container magic: the first eight bytes of every graph map.
pub const MAGIC: [u8; 8] = *b"DIGGGMAP";

/// Current graph-map format version. Bump on any incompatible layout
/// change; readers reject other versions with
/// [`GraphMapError::VersionMismatch`].
pub const FORMAT_VERSION: u32 = 1;

/// Every section payload starts at a multiple of this (one x86 cache
/// line, and a multiple of every element alignment the format uses).
pub const SECTION_ALIGN: u64 = 64;

const SEC_META: &str = "meta";
const SEC_FRIEND_OFFSETS: &str = "friend_offsets";
const SEC_FRIEND_TARGETS: &str = "friend_targets";
const SEC_FAN_OFFSETS: &str = "fan_offsets";
const SEC_FAN_TARGETS: &str = "fan_targets";

/// Typed graph-map failure. Corrupt or incompatible files must
/// surface as values, never as panics or UB — callers treat them as
/// "snapshot unusable, rebuild from the edge list".
#[derive(Debug)]
pub enum GraphMapError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The file ended before the declared layout did.
    Truncated,
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
    /// A section's payload offset is not [`SECTION_ALIGN`]-aligned, so
    /// it cannot be served as a typed slice.
    MisalignedSection {
        /// Name of the misaligned section.
        name: String,
    },
    /// The bytes decoded, but the decoded structure is invalid
    /// (inconsistent sizes, non-monotone offsets, out-of-range ids).
    Malformed(String),
    /// Filesystem failure while reading, writing, or mapping.
    Io(std::io::Error),
}

impl fmt::Display for GraphMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphMapError::BadMagic => write!(f, "not a graph map (bad magic)"),
            GraphMapError::VersionMismatch { found, expected } => {
                write!(f, "graph map format version {found}, expected {expected}")
            }
            GraphMapError::Truncated => write!(f, "graph map is truncated"),
            GraphMapError::CorruptSection { name } => {
                write!(f, "graph map section '{name}' fails its checksum")
            }
            GraphMapError::MissingSection { name } => {
                write!(f, "graph map section '{name}' is missing")
            }
            GraphMapError::MisalignedSection { name } => {
                write!(f, "graph map section '{name}' is not 64-byte aligned")
            }
            GraphMapError::Malformed(why) => write!(f, "malformed graph map: {why}"),
            GraphMapError::Io(e) => write!(f, "graph map io: {e}"),
        }
    }
}

impl std::error::Error for GraphMapError {}

impl From<std::io::Error> for GraphMapError {
    fn from(e: std::io::Error) -> GraphMapError {
        GraphMapError::Io(e)
    }
}

/// Raw mmap/munmap FFI — the only system-call bindings in the
/// workspace (no libc crate; the constants are the Linux/BSD values
/// for the read-only private mapping this module creates). Gated
/// out under Miri, which cannot model a file-backed mapping — Miri
/// runs exercise the heap backing instead (same `bytes()` contract).
#[cfg(all(unix, not(miri)))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// The bytes behind a [`GraphMap`]: a kernel mapping when available,
/// else a heap image. The heap buffer is `Vec<u64>` (not `Vec<u8>`) so
/// its base is 8-byte aligned — combined with 64-byte section offsets
/// that makes every typed reinterpretation validly aligned on both
/// backings.
enum Backing {
    #[cfg(all(unix, not(miri)))]
    Mmap {
        ptr: *const u8,
        len: usize,
    },
    Heap {
        buf: Vec<u64>,
        len: usize,
    },
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, not(miri)))]
            // SAFETY: `ptr` is the base of a live PROT_READ mapping of
            // exactly `len` bytes, created in `map_file` and unmapped
            // only in Drop; the mapping is private, so the slice's
            // contents cannot be mutated through this process.
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap { buf, len } => {
                // SAFETY: every byte of `buf` is initialised (zeroed
                // at allocation, then overwritten by file reads), and
                // `len <= buf.len() * 8` is enforced at construction.
                let all = unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len) };
                all
            }
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(all(unix, not(miri)))]
        if let Backing::Mmap { ptr, len } = self {
            // SAFETY: exactly one munmap per successful mmap; the
            // pointer/length pair is the one the kernel returned.
            unsafe {
                sys::munmap((*ptr).cast_mut().cast(), *len);
            }
        }
    }
}

/// A read-only CSR social graph served directly from an on-disk
/// snapshot (see the module docs for the format).
///
/// Implements [`FanView`], so every sweep engine generic over that
/// trait — `digg-core`'s incremental analytics, the batch sweeper, the
/// parallel sweep map — runs over a `GraphMap` unchanged and
/// bit-identically to the in-memory graph it was written from.
///
/// # Examples
///
/// ```
/// use social_graph::{mmap, FanView, GraphBuilder, GraphMap, UserId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_watch(UserId(1), UserId(0));
/// let g = b.build();
///
/// let dir = std::env::temp_dir().join("graphmap-doc-example");
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("g.graphmap");
/// mmap::write_graph_map(&g, &path).unwrap();
///
/// let m = GraphMap::open(&path).unwrap();
/// assert_eq!(m.user_count(), 3);
/// assert_eq!(m.fans(UserId(0)), &[UserId(1)]);
/// # std::fs::remove_file(&path).unwrap();
/// ```
pub struct GraphMap {
    backing: Backing,
    user_count: usize,
    edge_count: usize,
    /// Byte ranges of the typed sections inside `backing`, validated
    /// (bounds + alignment) at open time.
    friend_offsets: SectionRange,
    friend_targets: SectionRange,
    fan_offsets: SectionRange,
    fan_targets: SectionRange,
}

// SAFETY: the backing is immutable for the lifetime of the value (a
// private read-only mapping or an owned heap buffer) and all accessors
// hand out shared slices only, so cross-thread sharing is sound. This
// is what lets the parallel sweep map fan a &GraphMap out to worker
// threads.
unsafe impl Send for GraphMap {}
// SAFETY: see Send above — no interior mutability anywhere.
unsafe impl Sync for GraphMap {}

#[derive(Clone, Copy)]
struct SectionRange {
    off: usize,
    len: usize,
}

/// One parsed section-table entry.
struct TableEntry {
    name: String,
    off: u64,
    len: u64,
    checksum: u64,
}

/// Incremental FNV-1a64 with the same constants as
/// [`digg_snapshot::fnv1a64`] — the writer hashes sections in a
/// streaming pre-pass instead of materialising gigabyte payloads.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

/// Serialize `graph` into the on-disk graph-map format at `path`,
/// atomically (tmp + rename — a crash mid-write never leaves a partial
/// file where [`GraphMap::open`] will look).
///
/// Offsets are widened to `u64` on disk, so the written format has
/// headroom for edge arrays beyond the in-memory builder's `u32`
/// capacity ceiling.
pub fn write_graph_map(graph: &SocialGraph, path: &Path) -> Result<(), GraphMapError> {
    let n = graph.user_count();
    let m = graph.edge_count();
    let names = [
        SEC_META,
        SEC_FRIEND_OFFSETS,
        SEC_FRIEND_TARGETS,
        SEC_FAN_OFFSETS,
        SEC_FAN_TARGETS,
    ];
    let lens: [u64; 5] = [
        16,
        (n as u64 + 1) * 8,
        m as u64 * 4,
        (n as u64 + 1) * 8,
        m as u64 * 4,
    ];

    // Header + table are fixed-size for the five known names.
    let table_len: u64 = names
        .iter()
        .map(|s| 4 + s.len() as u64 + 8 + 8 + 8)
        .sum::<u64>();
    let mut offs = [0u64; 5];
    let mut cursor = align_up(16 + table_len, SECTION_ALIGN);
    for (i, len) in lens.iter().enumerate() {
        offs[i] = cursor;
        cursor = align_up(cursor + len, SECTION_ALIGN);
    }

    // Streaming checksum pre-pass: hash each section's byte image
    // without materialising it.
    let meta_bytes = {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&(n as u64).to_le_bytes());
        b[8..].copy_from_slice(&(m as u64).to_le_bytes());
        b
    };
    fn hash_offsets(n: usize, row_len: impl Fn(UserId) -> usize) -> u64 {
        let mut h = Fnv::new();
        let mut acc = 0u64;
        h.update(&acc.to_le_bytes());
        for u in 0..n {
            acc += row_len(UserId::from_index(u)) as u64;
            h.update(&acc.to_le_bytes());
        }
        h.0
    }
    fn hash_targets<'g>(n: usize, row: impl Fn(UserId) -> &'g [UserId]) -> u64 {
        let mut h = Fnv::new();
        for u in 0..n {
            for &t in row(UserId::from_index(u)) {
                h.update(&t.0.to_le_bytes());
            }
        }
        h.0
    }
    let sums: [u64; 5] = [
        fnv1a64(&meta_bytes),
        hash_offsets(n, |u| graph.friend_count(u)),
        hash_targets(n, |u| graph.friends(u)),
        hash_offsets(n, |u| graph.fan_count(u)),
        hash_targets(n, |u| graph.fans(u)),
    ];

    // Write pass, into a sibling tmp file then rename.
    let tmp = path.with_extension("graphmap.tmp");
    let file = File::create(&tmp)?;
    let mut w = std::io::BufWriter::new(file);
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    // digg-lint: allow(no-truncating-cast) — five fixed section names, lengths far below u32
    w.write_all(&(names.len() as u32).to_le_bytes())?;
    for i in 0..names.len() {
        // digg-lint: allow(no-truncating-cast) — five fixed section names, lengths far below u32
        w.write_all(&(names[i].len() as u32).to_le_bytes())?;
        w.write_all(names[i].as_bytes())?;
        w.write_all(&offs[i].to_le_bytes())?;
        w.write_all(&lens[i].to_le_bytes())?;
        w.write_all(&sums[i].to_le_bytes())?;
    }
    let mut written = 16 + table_len;
    let pad_to = |w: &mut std::io::BufWriter<File>, target: u64, written: &mut u64| {
        const ZEROS: [u8; 64] = [0; 64];
        while *written < target {
            let chunk = ((target - *written) as usize).min(ZEROS.len());
            w.write_all(&ZEROS[..chunk])?;
            *written += chunk as u64;
        }
        Ok::<(), std::io::Error>(())
    };

    pad_to(&mut w, offs[0], &mut written)?;
    w.write_all(&meta_bytes)?;
    written += 16;

    fn write_offsets(
        w: &mut std::io::BufWriter<File>,
        written: &mut u64,
        n: usize,
        row_len: impl Fn(UserId) -> usize,
    ) -> std::io::Result<()> {
        let mut acc = 0u64;
        w.write_all(&acc.to_le_bytes())?;
        for u in 0..n {
            acc += row_len(UserId::from_index(u)) as u64;
            w.write_all(&acc.to_le_bytes())?;
        }
        *written += (n as u64 + 1) * 8;
        Ok(())
    }
    fn write_targets<'g>(
        w: &mut std::io::BufWriter<File>,
        written: &mut u64,
        n: usize,
        m: usize,
        row: impl Fn(UserId) -> &'g [UserId],
    ) -> std::io::Result<()> {
        for u in 0..n {
            for &t in row(UserId::from_index(u)) {
                w.write_all(&t.0.to_le_bytes())?;
            }
        }
        *written += m as u64 * 4;
        Ok(())
    }

    pad_to(&mut w, offs[1], &mut written)?;
    write_offsets(&mut w, &mut written, n, |u| graph.friend_count(u))?;
    pad_to(&mut w, offs[2], &mut written)?;
    write_targets(&mut w, &mut written, n, m, |u| graph.friends(u))?;
    pad_to(&mut w, offs[3], &mut written)?;
    write_offsets(&mut w, &mut written, n, |u| graph.fan_count(u))?;
    pad_to(&mut w, offs[4], &mut written)?;
    write_targets(&mut w, &mut written, n, m, |u| graph.fans(u))?;

    w.flush()?;
    let f = w.into_inner().map_err(|e| e.into_error())?;
    // Durability barrier before the rename publishes the name.
    // Skipped under Miri, which has no stable storage to sync.
    if !cfg!(miri) {
        f.sync_all()?;
    }
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn read_u32(bytes: &[u8], off: usize) -> Result<u32, GraphMapError> {
    let end = off.checked_add(4).ok_or(GraphMapError::Truncated)?;
    let b = bytes
        .get(off..end)
        .and_then(|b| b.try_into().ok())
        .ok_or(GraphMapError::Truncated)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(bytes: &[u8], off: usize) -> Result<u64, GraphMapError> {
    let end = off.checked_add(8).ok_or(GraphMapError::Truncated)?;
    let b = bytes
        .get(off..end)
        .and_then(|b| b.try_into().ok())
        .ok_or(GraphMapError::Truncated)?;
    Ok(u64::from_le_bytes(b))
}

/// Parse the header and section table from the raw image.
fn parse_table(bytes: &[u8]) -> Result<Vec<TableEntry>, GraphMapError> {
    if bytes.len() < 16 {
        return Err(GraphMapError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(GraphMapError::BadMagic);
    }
    let version = read_u32(bytes, 8)?;
    if version != FORMAT_VERSION {
        return Err(GraphMapError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let count = read_u32(bytes, 12)? as usize;
    if count > 1024 {
        return Err(GraphMapError::Malformed(format!(
            "implausible section count {count}"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    let mut pos = 16usize;
    for _ in 0..count {
        let name_len = read_u32(bytes, pos)? as usize;
        pos += 4;
        if name_len > 256 {
            return Err(GraphMapError::Malformed(format!(
                "implausible section name length {name_len}"
            )));
        }
        let end = pos.checked_add(name_len).ok_or(GraphMapError::Truncated)?;
        let name_bytes = bytes.get(pos..end).ok_or(GraphMapError::Truncated)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| GraphMapError::Malformed("section name is not UTF-8".into()))?
            .to_string();
        pos = end;
        let off = read_u64(bytes, pos)?;
        let len = read_u64(bytes, pos + 8)?;
        let checksum = read_u64(bytes, pos + 16)?;
        pos += 24;
        entries.push(TableEntry {
            name,
            off,
            len,
            checksum,
        });
    }
    Ok(entries)
}

/// Resolve a named section to a validated byte range: present, within
/// the file, 64-byte aligned, and exactly `want_len` bytes.
fn resolve(
    entries: &[TableEntry],
    bytes: &[u8],
    name: &str,
    want_len: u64,
) -> Result<SectionRange, GraphMapError> {
    let e = entries
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| GraphMapError::MissingSection { name: name.into() })?;
    if e.off % SECTION_ALIGN != 0 {
        return Err(GraphMapError::MisalignedSection { name: name.into() });
    }
    let end = e.off.checked_add(e.len).ok_or(GraphMapError::Truncated)?;
    if end > bytes.len() as u64 {
        return Err(GraphMapError::Truncated);
    }
    if e.len != want_len {
        return Err(GraphMapError::Malformed(format!(
            "section '{name}' is {} bytes, expected {want_len}",
            e.len
        )));
    }
    Ok(SectionRange {
        off: usize::try_from(e.off).map_err(|_| GraphMapError::Truncated)?,
        len: usize::try_from(e.len).map_err(|_| GraphMapError::Truncated)?,
    })
}

#[cfg(all(unix, not(miri)))]
fn map_file(file: &File, len: usize) -> Option<Backing> {
    use std::os::unix::io::AsRawFd;
    // SAFETY: a fresh private read-only mapping of a file we hold
    // open; the kernel validates fd and length, and failure is
    // reported via MAP_FAILED which we turn into the heap fallback.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr == sys::map_failed() || ptr.is_null() {
        None
    } else {
        Some(Backing::Mmap {
            ptr: ptr.cast_const().cast(),
            len,
        })
    }
}

/// Read the whole file into an 8-byte-aligned heap image — the
/// portable fallback when mapping is unavailable.
fn read_file(file: &mut File, len: usize) -> Result<Backing, GraphMapError> {
    let words = len.div_ceil(8);
    let mut buf = vec![0u64; words];
    {
        // SAFETY: reinterpreting the zero-initialised u64 buffer as
        // bytes for the read; u64 has no invalid bit patterns, so
        // partially overwriting it with file bytes keeps it valid.
        let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(dst)?;
    }
    Ok(Backing::Heap { buf, len })
}

impl GraphMap {
    /// Open and **fully verify** a graph map: header, section table,
    /// alignment, every section checksum, and the CSR invariants
    /// (monotone offsets closing at the edge count, every target id in
    /// range). O(file size) in CPU but still O(1) in memory — the
    /// verification streams through the mapping.
    ///
    /// Any corruption — byte flips, truncation, resized or misaligned
    /// sections, foreign versions — comes back as a typed
    /// [`GraphMapError`]; this constructor never panics on bad input.
    pub fn open(path: &Path) -> Result<GraphMap, GraphMapError> {
        let map = GraphMap::open_trusted(path)?;
        map.verify()?;
        Ok(map)
    }

    /// Open with structural checks only (header, table, alignment,
    /// section sizes): O(sections) work regardless of graph size —
    /// the out-of-core fast path for files this process wrote or has
    /// verified before.
    ///
    /// Skipped are the per-section checksums and the CSR invariant
    /// scan, so a *corrupt* trusted file can produce wrong analytics
    /// or an index panic downstream — but never undefined behaviour:
    /// every row access is bounds-checked slice indexing.
    pub fn open_trusted(path: &Path) -> Result<GraphMap, GraphMapError> {
        if cfg!(target_endian = "big") {
            return Err(GraphMapError::Malformed(
                "graph maps are little-endian images; big-endian hosts must rebuild".into(),
            ));
        }
        let mut file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| GraphMapError::Truncated)?;
        if len < 16 {
            return Err(GraphMapError::Truncated);
        }
        #[cfg(all(unix, not(miri)))]
        let backing = match map_file(&file, len) {
            Some(b) => b,
            None => read_file(&mut file, len)?,
        };
        #[cfg(any(not(unix), miri))]
        let backing = read_file(&mut file, len)?;

        let bytes = backing.bytes();
        let entries = parse_table(bytes)?;
        let meta = resolve(&entries, bytes, SEC_META, 16)?;
        let user_count = usize::try_from(read_u64(bytes, meta.off)?)
            .map_err(|_| GraphMapError::Malformed("user count exceeds address space".into()))?;
        let edge_count = usize::try_from(read_u64(bytes, meta.off + 8)?)
            .map_err(|_| GraphMapError::Malformed("edge count exceeds address space".into()))?;
        // Checked: a corrupted meta section may carry counts whose
        // byte sizes overflow u64 — that is Malformed, not a panic.
        let off_len = (user_count as u64)
            .checked_add(1)
            .and_then(|v| v.checked_mul(8))
            .ok_or_else(|| GraphMapError::Malformed("user count overflows section size".into()))?;
        let tgt_len = (edge_count as u64)
            .checked_mul(4)
            .ok_or_else(|| GraphMapError::Malformed("edge count overflows section size".into()))?;
        let friend_offsets = resolve(&entries, bytes, SEC_FRIEND_OFFSETS, off_len)?;
        let friend_targets = resolve(&entries, bytes, SEC_FRIEND_TARGETS, tgt_len)?;
        let fan_offsets = resolve(&entries, bytes, SEC_FAN_OFFSETS, off_len)?;
        let fan_targets = resolve(&entries, bytes, SEC_FAN_TARGETS, tgt_len)?;
        Ok(GraphMap {
            backing,
            user_count,
            edge_count,
            friend_offsets,
            friend_targets,
            fan_offsets,
            fan_targets,
        })
    }

    /// The full-verification tail of [`GraphMap::open`]: checksums
    /// plus CSR invariants.
    fn verify(&self) -> Result<(), GraphMapError> {
        let bytes = self.backing.bytes();
        let entries = parse_table(bytes)?;
        for e in &entries {
            let end = e.off.checked_add(e.len).ok_or(GraphMapError::Truncated)?;
            if end > bytes.len() as u64 {
                return Err(GraphMapError::Truncated);
            }
            let payload = &bytes[usize::try_from(e.off).map_err(|_| GraphMapError::Truncated)?
                ..usize::try_from(end).map_err(|_| GraphMapError::Truncated)?];
            if fnv1a64(payload) != e.checksum {
                return Err(GraphMapError::CorruptSection {
                    name: e.name.clone(),
                });
            }
        }
        let check_view = |offsets: &[u64], targets: &[UserId], what: &str| {
            check_csr_view(offsets, targets, self.user_count)
                .map_err(|why| GraphMapError::Malformed(format!("{what} {why}")))
        };
        check_view(self.friend_offsets(), self.friend_target_ids(), "friend")?;
        check_view(self.fan_offsets(), self.fan_target_ids(), "fan")?;
        Ok(())
    }

    /// Number of users (nodes).
    pub fn user_count(&self) -> usize {
        self.user_count
    }

    /// Number of watch edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn u64_section(&self, r: SectionRange) -> &[u64] {
        let bytes = &self.backing.bytes()[r.off..r.off + r.len];
        debug_assert_eq!(bytes.as_ptr().align_offset(std::mem::align_of::<u64>()), 0);
        // SAFETY: the range was validated at open time to lie within
        // the image at a 64-byte-aligned offset with a length that is
        // a multiple of 8; the base is page-aligned (mmap) or 8-byte
        // aligned (Vec<u64> heap image), so the pointer is aligned for
        // u64 and every byte is initialised.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) }
    }

    fn id_section(&self, r: SectionRange) -> &[UserId] {
        let bytes = &self.backing.bytes()[r.off..r.off + r.len];
        debug_assert_eq!(bytes.as_ptr().align_offset(std::mem::align_of::<u32>()), 0);
        // SAFETY: as in `u64_section` (alignment and bounds validated
        // at open, length a multiple of 4), plus `UserId` is
        // repr(transparent) over u32, so `[u32]` and `[UserId]` are
        // layout-identical.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<UserId>(), bytes.len() / 4) }
    }

    fn friend_offsets(&self) -> &[u64] {
        self.u64_section(self.friend_offsets)
    }

    fn fan_offsets(&self) -> &[u64] {
        self.u64_section(self.fan_offsets)
    }

    fn friend_target_ids(&self) -> &[UserId] {
        self.id_section(self.friend_targets)
    }

    fn fan_target_ids(&self) -> &[UserId] {
        self.id_section(self.fan_targets)
    }

    #[inline]
    fn row<'a>(offsets: &[u64], targets: &'a [UserId], u: usize) -> &'a [UserId] {
        &targets[offsets[u] as usize..offsets[u + 1] as usize]
    }

    /// Users that `a` watches, sorted ascending. Same contract as
    /// [`SocialGraph::friends`](crate::SocialGraph::friends).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn friends(&self, a: UserId) -> &[UserId] {
        Self::row(self.friend_offsets(), self.friend_target_ids(), a.index())
    }

    /// Users watching `b`, sorted ascending. Same contract as
    /// [`SocialGraph::fans`](crate::SocialGraph::fans).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[inline]
    pub fn fans(&self, b: UserId) -> &[UserId] {
        Self::row(self.fan_offsets(), self.fan_target_ids(), b.index())
    }

    /// Materialise the snapshot back into an in-memory
    /// [`SocialGraph`]. O(n + m) copies; exists for the bit-identity
    /// cross-checks, not for serving sweeps (that is what the map
    /// itself is for).
    ///
    /// # Errors
    ///
    /// [`GraphMapError::Malformed`] if an offset exceeds the in-memory
    /// `u32` CSR capacity (the on-disk format is u64-indexed and can
    /// hold graphs the in-memory layout cannot).
    pub fn to_social_graph(&self) -> Result<SocialGraph, GraphMapError> {
        let narrow = |offsets: &[u64]| {
            offsets
                .iter()
                .map(|&o| u32::try_from(o))
                .collect::<Result<Vec<u32>, _>>()
                .map_err(|_| {
                    GraphMapError::Malformed(
                        "edge count exceeds the in-memory u32 CSR capacity".into(),
                    )
                })
        };
        Ok(SocialGraph::from_csr(
            narrow(self.friend_offsets())?,
            self.friend_target_ids().to_vec(),
            narrow(self.fan_offsets())?,
            self.fan_target_ids().to_vec(),
        ))
    }
}

impl fmt::Debug for GraphMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphMap")
            .field("user_count", &self.user_count)
            .field("edge_count", &self.edge_count)
            .finish_non_exhaustive()
    }
}

impl FanView for GraphMap {
    #[inline]
    fn user_count(&self) -> usize {
        GraphMap::user_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        GraphMap::edge_count(self)
    }

    #[inline]
    fn friends(&self, a: UserId) -> &[UserId] {
        GraphMap::friends(self, a)
    }

    #[inline]
    fn fans(&self, b: UserId) -> &[UserId] {
        GraphMap::fans(self, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample_graph() -> SocialGraph {
        // Mixed degrees including isolated users and a hub.
        let mut b = GraphBuilder::new(50);
        for f in 1..20u32 {
            b.add_watch(UserId(f), UserId(0));
        }
        for (a, t) in [(3u32, 7u32), (7, 3), (44, 45), (45, 44), (10, 49)] {
            b.add_watch(UserId(a), UserId(t));
        }
        b.build()
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("graphmap-unit-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(name)
    }

    #[test]
    fn roundtrip_is_bit_identical_under_both_opens() {
        let g = sample_graph();
        let path = tmp_path("roundtrip.graphmap");
        write_graph_map(&g, &path).expect("write");
        for map in [
            GraphMap::open(&path).expect("verified open"),
            GraphMap::open_trusted(&path).expect("trusted open"),
        ] {
            assert_eq!(map.user_count(), g.user_count());
            assert_eq!(map.edge_count(), g.edge_count());
            for u in g.users() {
                assert_eq!(map.friends(u), g.friends(u), "friends of {u}");
                assert_eq!(map.fans(u), g.fans(u), "fans of {u}");
            }
            assert_eq!(map.to_social_graph().expect("widening fits"), g);
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = SocialGraph::empty(3);
        let path = tmp_path("empty.graphmap");
        write_graph_map(&g, &path).expect("write");
        let map = GraphMap::open(&path).expect("open");
        assert_eq!(map.user_count(), 3);
        assert_eq!(map.edge_count(), 0);
        assert!(map.friends(UserId(2)).is_empty());
        assert_eq!(map.to_social_graph().expect("trivially fits"), g);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn sections_are_cache_line_aligned_on_disk() {
        let g = sample_graph();
        let path = tmp_path("aligned.graphmap");
        write_graph_map(&g, &path).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        let entries = parse_table(&bytes).expect("table parses");
        assert_eq!(entries.len(), 5);
        for e in &entries {
            assert_eq!(e.off % SECTION_ALIGN, 0, "section '{}' misaligned", e.name);
            let payload = &bytes[e.off as usize..(e.off + e.len) as usize];
            assert_eq!(fnv1a64(payload), e.checksum, "section '{}'", e.name);
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_file_is_io_not_panic() {
        let err = GraphMap::open(&tmp_path("does-not-exist.graphmap")).expect_err("must fail");
        assert!(matches!(err, GraphMapError::Io(_)), "got {err:?}");
    }

    #[test]
    fn writer_is_atomic_no_tmp_left_behind() {
        let g = sample_graph();
        let path = tmp_path("atomic.graphmap");
        write_graph_map(&g, &path).expect("write");
        assert!(path.exists());
        assert!(!path.with_extension("graphmap.tmp").exists());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn fan_view_dispatch_matches_social_graph() {
        let g = sample_graph();
        let path = tmp_path("view.graphmap");
        write_graph_map(&g, &path).expect("write");
        let map = GraphMap::open(&path).expect("open");
        let candidates = [UserId(0), UserId(49)];
        for u in g.users() {
            assert_eq!(
                FanView::is_fan_of_any(&map, u, &candidates),
                g.is_fan_of_any(u, &candidates),
                "user {u}"
            );
        }
        std::fs::remove_file(&path).expect("cleanup");
    }
}
