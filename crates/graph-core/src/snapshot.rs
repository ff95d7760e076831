//! Versioned binary CSR snapshots: load a data graph without re-parsing.
//!
//! The text format (`crate::io`) is the interchange format; this module is
//! the *restart* format. A serving process hosting many tenant graphs pays
//! a cold-start tax re-reading and re-validating text on every boot — the
//! snapshot stores the already-validated CSR arrays as flat little-endian
//! sections behind a checksummed header, so a load is three bulk reads
//! plus an integrity check (no tokenising, no sorting, no deduplication).
//!
//! # Layout (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"FASTCSR\x01"
//! 8       4     version (u32 LE) = 1
//! 12      4     reserved = 0
//! 16      8     vertex count n        (u64 LE)
//! 24      8     undirected edge count (u64 LE)
//! 32      8     neighbors length = 2m (u64 LE)
//! 40      8     FNV-1a checksum over the three payload sections (u64 LE)
//! 48      —     labels    n × u16 LE          (padded to 8-byte boundary)
//! …       —     offsets   (n+1) × u64 LE
//! …       —     neighbors 2m × u32 LE         (padded to 8-byte boundary)
//! ```
//!
//! Every section starts 8-byte aligned, so a mapped reader can view the
//! sections in place. Two load paths share the same validation:
//!
//! * [`load_snapshot`] — portable copying reader through a buffered
//!   stream (works everywhere, always verifies the checksum);
//! * [`load_snapshot_mapped`] — zero-copy: the file is `mmap`ed privately
//!   read-only and the [`Graph`] borrows its label/offset/neighbour
//!   sections straight from the page cache
//!   ([`Graph::owned_csr_bytes`]` == 0`), so tenant restore cost is
//!   page-cache-bound instead of proportional to array bytes. The
//!   checksum pass is a read-only scan (no copy) and can be deferred
//!   ([`SnapshotVerify::Lazy`]) to overlap restore with first use;
//!   structural CSR invariants are *always* validated at load so a
//!   corrupt snapshot can never index out of bounds. On targets without
//!   the mapping fast path (non-unix, big-endian, 32-bit) it degrades to
//!   the copying reader.
//!
//! Validation on load: magic/version, checksum, monotone offsets
//! terminating at `2m`, and every adjacency list strictly ascending, with
//! neighbour ids `< n` and no self loop — a truncated or bit-flipped
//! snapshot, or a checksum-valid one whose lists are unsorted, repeat a
//! neighbour or hold their own vertex, is a typed [`SnapshotError`], never a
//! malformed [`Graph`]. Symmetry of the adjacency is not checked.

use crate::csr::Graph;
use crate::types::{Label, VertexId};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::OnceLock;

/// Magic prefix: format name + layout version byte.
const MAGIC: [u8; 8] = *b"FASTCSR\x01";
/// Layout version this module reads and writes.
const VERSION: u32 = 1;
/// Section alignment: every payload section starts on this boundary.
const ALIGN: usize = 8;
/// Fixed header length; all three payload sections follow contiguously.
const HEADER_LEN: usize = 48;

/// Errors from snapshot save/load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a snapshot, wrong version, or failed validation — the message
    /// names the offending field.
    Format(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Format(msg) => write!(f, "bad snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Streaming FNV-1a (64-bit): cheap, stable across platforms, and already
/// the fingerprint primitive the plan cache uses.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

fn pad_len(len: usize) -> usize {
    (ALIGN - len % ALIGN) % ALIGN
}

/// Serialises the three CSR sections (labels, offsets, neighbors) as flat
/// little-endian byte vectors, each padded to the section alignment.
fn encode_sections(g: &Graph) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let (labels, offsets, neighbors) = g.csr_parts();
    let mut lab = Vec::with_capacity(labels.len() * 2 + ALIGN);
    for l in labels {
        lab.extend_from_slice(&l.raw().to_le_bytes());
    }
    lab.resize(lab.len() + pad_len(lab.len()), 0);
    let mut off = Vec::with_capacity(offsets.len() * 8);
    for &o in offsets {
        off.extend_from_slice(&(o as u64).to_le_bytes());
    }
    let mut nbr = Vec::with_capacity(neighbors.len() * 4 + ALIGN);
    for v in neighbors {
        nbr.extend_from_slice(&(v.index() as u32).to_le_bytes());
    }
    nbr.resize(nbr.len() + pad_len(nbr.len()), 0);
    (lab, off, nbr)
}

/// Writes `g` as a version-1 snapshot to `w`.
pub fn write_snapshot(g: &Graph, w: &mut dyn Write) -> Result<(), SnapshotError> {
    let (lab, off, nbr) = encode_sections(g);
    let mut fnv = Fnv::new();
    fnv.update(&lab);
    fnv.update(&off);
    fnv.update(&nbr);

    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&(g.vertex_count() as u64).to_le_bytes())?;
    w.write_all(&(g.edge_count() as u64).to_le_bytes())?;
    let (_, _, neighbors) = g.csr_parts();
    w.write_all(&(neighbors.len() as u64).to_le_bytes())?;
    w.write_all(&fnv.0.to_le_bytes())?;
    w.write_all(&lab)?;
    w.write_all(&off)?;
    w.write_all(&nbr)?;
    Ok(())
}

fn read_exact_or(r: &mut dyn Read, buf: &mut [u8], what: &str) -> Result<(), SnapshotError> {
    r.read_exact(buf)
        .map_err(|_| SnapshotError::Format(format!("truncated reading {what}")))
}

fn read_u64(r: &mut dyn Read, what: &str) -> Result<u64, SnapshotError> {
    let mut b = [0u8; 8];
    read_exact_or(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a snapshot from `r`, validating header, checksum, and CSR
/// invariants before assembling the [`Graph`].
pub fn read_snapshot(r: &mut dyn Read) -> Result<Graph, SnapshotError> {
    let mut magic = [0u8; 8];
    read_exact_or(r, &mut magic, "magic")?;
    if magic != MAGIC {
        return Err(SnapshotError::Format("magic mismatch (not a FAST CSR snapshot)".into()));
    }
    let mut v4 = [0u8; 4];
    read_exact_or(r, &mut v4, "version")?;
    let version = u32::from_le_bytes(v4);
    if version != VERSION {
        return Err(SnapshotError::Format(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }
    read_exact_or(r, &mut v4, "reserved")?;
    let n = read_u64(r, "vertex count")? as usize;
    let m = read_u64(r, "edge count")? as usize;
    let nbr_len = read_u64(r, "neighbors length")? as usize;
    let checksum = read_u64(r, "checksum")?;
    if nbr_len != 2 * m {
        return Err(SnapshotError::Format(format!(
            "neighbors length {nbr_len} does not match 2·edges {}",
            2 * m
        )));
    }

    let lab_bytes = n * 2 + pad_len(n * 2);
    let off_bytes = (n + 1) * 8;
    let nbr_bytes = nbr_len * 4 + pad_len(nbr_len * 4);
    let mut lab = vec![0u8; lab_bytes];
    let mut off = vec![0u8; off_bytes];
    let mut nbr = vec![0u8; nbr_bytes];
    read_exact_or(r, &mut lab, "labels section")?;
    read_exact_or(r, &mut off, "offsets section")?;
    read_exact_or(r, &mut nbr, "neighbors section")?;

    let mut fnv = Fnv::new();
    fnv.update(&lab);
    fnv.update(&off);
    fnv.update(&nbr);
    if fnv.0 != checksum {
        return Err(SnapshotError::Format(format!(
            "checksum mismatch (stored {checksum:#018x}, computed {:#018x})",
            fnv.0
        )));
    }

    let labels: Vec<Label> = lab[..n * 2]
        .chunks_exact(2)
        .map(|c| Label::new(u16::from_le_bytes([c[0], c[1]])))
        .collect();
    let offsets: Vec<usize> = off
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")) as usize)
        .collect();
    let neighbors: Vec<VertexId> = nbr[..nbr_len * 4]
        .chunks_exact(4)
        .map(|c| VertexId::new(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
        .collect();

    // CSR invariants: monotone offsets spanning exactly the neighbour
    // array, then the neighbour pass.
    if offsets.first() != Some(&0) || offsets.last() != Some(&nbr_len) {
        return Err(SnapshotError::Format("offsets do not span the neighbors section".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Format("offsets are not monotone".into()));
    }
    check_neighbors(&offsets, &neighbors)?;
    Ok(Graph::from_csr_parts(labels, offsets, neighbors, m))
}

/// The neighbour pass of both loaders, over offsets already checked to be
/// monotone and to span `neighbors`: every vertex's list strictly ascending
/// (no repeated neighbour), below the vertex count and without the vertex
/// itself — the sorted simple adjacency [`Graph::from_csr_parts`] presumes
/// and every binary search over a list relies on. Symmetry (`u ∈ N(v)` iff
/// `v ∈ N(u)`) is not checked.
fn check_neighbors(offsets: &[usize], neighbors: &[VertexId]) -> Result<(), SnapshotError> {
    let n = offsets.len() - 1;
    for (v, w) in offsets.windows(2).enumerate() {
        let list = &neighbors[w[0]..w[1]];
        // The last id bounds them all once the list ascends, checked next.
        let fault = if list.last().is_some_and(|u| u.index() >= n) {
            "neighbour id out of range"
        } else if list.windows(2).any(|p| p[0] >= p[1]) {
            "adjacency not strictly ascending (unsorted or repeated neighbour)"
        } else if list.binary_search(&VertexId::from_index(v)).is_ok() {
            "lists itself as a neighbour (self loop)"
        } else {
            continue;
        };
        return Err(SnapshotError::Format(format!("vertex {v}: {fault}")));
    }
    Ok(())
}

/// Saves `g` to `path` **atomically**: the snapshot is written to a
/// sibling temp file, flushed and fsynced, then renamed over `path`. A
/// crash (or error) mid-write leaves either the old snapshot or nothing —
/// never a torn file — and the failed temp file is cleaned up. Readers
/// concurrently loading `path` see the old or the new snapshot, whole.
pub fn save_snapshot(g: &Graph, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    // Unique per process so two writers never stomp each other's temp; the
    // final rename still serialises on the filesystem.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let write = (|| {
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        write_snapshot(g, &mut w)?;
        w.flush()?;
        // Durability before visibility: the bytes must be on disk before
        // the rename can expose them under the real name.
        w.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if write.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    write
}

/// Loads a graph previously written by [`save_snapshot`].
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Graph, SnapshotError> {
    read_snapshot(&mut BufReader::new(File::open(path)?))
}

/// When [`load_snapshot_mapped`] verifies the payload checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotVerify {
    /// Checksum the payload during load — a read-only pass over the
    /// mapping (still no copy) — and fail fast on mismatch.
    Eager,
    /// Defer the checksum to [`MappedSnapshot::verify`], letting restore
    /// return as soon as the structure is validated. Structural CSR
    /// invariants (offset monotonicity/span, strictly ascending in-range
    /// lists without self loops) are always checked at load, so an
    /// unverified graph can never index out of bounds — a deferred mismatch
    /// only means payload *values* may be corrupt.
    Lazy,
}

/// Memoized checksum verdict: `None` = payload matches, `Some(msg)` = the
/// mismatch message.
type VerifyThunk = Box<dyn Fn() -> Option<String> + Send + Sync>;

/// A snapshot loaded by [`load_snapshot_mapped`]: the [`Graph`] (borrowing
/// its CSR sections from the mapping where the platform supports it) plus
/// the deferred-verification handle.
pub struct MappedSnapshot {
    graph: Graph,
    verdict: OnceLock<Option<String>>,
    thunk: VerifyThunk,
}

impl std::fmt::Debug for MappedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSnapshot")
            .field("vertices", &self.graph.vertex_count())
            .field("edges", &self.graph.edge_count())
            .field("verdict", &self.verdict.get())
            .finish()
    }
}

impl MappedSnapshot {
    /// A snapshot whose checksum was already verified during load (the
    /// eager and portable-fallback paths).
    fn verified(graph: Graph) -> Self {
        let verdict = OnceLock::new();
        let _ = verdict.set(None);
        MappedSnapshot {
            graph,
            verdict,
            thunk: Box::new(|| None),
        }
    }

    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    fn deferred(graph: Graph, thunk: VerifyThunk) -> Self {
        MappedSnapshot {
            graph,
            verdict: OnceLock::new(),
            thunk,
        }
    }

    /// The loaded graph. Usable before [`Self::verify`] — structure is
    /// validated at load — but an unverified lazy snapshot may carry
    /// corrupt payload values.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the handle, keeping the graph (the mapping stays alive
    /// inside the graph's sections). Skipping [`Self::verify`] forfeits
    /// corruption detection on a lazily-loaded snapshot.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Runs (or recalls) the checksum verification. Idempotent: the scan
    /// happens at most once and the verdict is memoized.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        match self.verdict.get_or_init(|| (self.thunk)()) {
            None => Ok(()),
            Some(msg) => Err(SnapshotError::Format(msg.clone())),
        }
    }
}

#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
mod mapping {
    //! A minimal private read-only `mmap` of a whole file, bound directly
    //! (no libc crate: the workspace builds offline). Confined to
    //! 64-bit little-endian unix by the parent `cfg`, where `off_t` is
    //! `i64` and the on-disk little-endian sections can be viewed in
    //! place.

    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// A page-aligned private read-only mapping of `len` bytes of a file,
    /// unmapped on drop.
    pub(super) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // Safety: the mapping is read-only and never written through; the
    // kernel keeps the pages valid until `munmap` in `Drop`.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps the first `len` (> 0) bytes of `file`.
        pub(super) fn of_file(file: &File, len: usize) -> std::io::Result<Mapping> {
            debug_assert!(len > 0, "mmap of zero bytes is invalid");
            // Safety: mapping `len` bytes of an open fd, read-only and
            // private; the result is checked against MAP_FAILED below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }

        /// The mapped bytes.
        pub(super) fn bytes(&self) -> &[u8] {
            // Safety: `ptr` is valid for `len` read-only bytes until drop.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // Safety: exactly the pointer/length pair `mmap` returned.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Loads a snapshot zero-copy: the file is mapped read-only and the
/// returned [`Graph`] borrows its label/offset/neighbour sections from the
/// mapping ([`Graph::owned_csr_bytes`] is 0). Structure is always
/// validated; the checksum pass runs per `verify` (see [`SnapshotVerify`]).
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
pub fn load_snapshot_mapped(
    path: impl AsRef<Path>,
    verify: SnapshotVerify,
) -> Result<MappedSnapshot, SnapshotError> {
    use crate::csr::Section;
    use std::any::Any;
    use std::sync::Arc;

    let truncated = |what: &str| SnapshotError::Format(format!("truncated reading {what}"));
    let file = File::open(path)?;
    let file_len = usize::try_from(file.metadata()?.len())
        .map_err(|_| SnapshotError::Format("snapshot exceeds the address space".into()))?;
    if file_len < HEADER_LEN {
        return Err(truncated("header"));
    }
    let map = Arc::new(mapping::Mapping::of_file(&file, file_len)?);
    let bytes = map.bytes();

    if bytes[..8] != MAGIC {
        return Err(SnapshotError::Format(
            "magic mismatch (not a FAST CSR snapshot)".into(),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte field"));
    if version != VERSION {
        return Err(SnapshotError::Format(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"));
    let n = field(16) as usize;
    let m = field(24) as usize;
    let nbr_len = field(32) as usize;
    let stored = field(40);
    if m.checked_mul(2) != Some(nbr_len) {
        return Err(SnapshotError::Format(format!(
            "neighbors length {nbr_len} does not match 2·edges {}",
            2 * m as u64
        )));
    }

    // Section extents, overflow-checked: a bogus header must become a typed
    // error, not a wrapped offset.
    let sizes = (|| {
        let lab = n.checked_mul(2)?;
        let lab = lab.checked_add(pad_len(lab))?;
        let off = n.checked_add(1)?.checked_mul(8)?;
        let nbr = nbr_len.checked_mul(4)?;
        let nbr = nbr.checked_add(pad_len(nbr))?;
        let payload = lab.checked_add(off)?.checked_add(nbr)?;
        HEADER_LEN.checked_add(payload).map(|end| (lab, off, end))
    })();
    let Some((lab_bytes, off_bytes, payload_end)) = sizes else {
        return Err(SnapshotError::Format("section sizes overflow".into()));
    };
    if payload_end > file_len {
        return Err(truncated("payload sections"));
    }

    let lab_start = HEADER_LEN;
    let off_start = lab_start + lab_bytes;
    let nbr_start = off_start + off_bytes;
    // Safety: every range is inside the mapping (bounds-checked above) and
    // 8-aligned — the mapping base is page-aligned, the header is 48 bytes,
    // and every section length is a multiple of ALIGN. `Label`/`VertexId`
    // are `repr(transparent)` over `u16`/`u32`, and on this cfg (64-bit
    // little-endian) `usize` has the layout of the on-disk `u64`.
    let base = bytes.as_ptr();
    let labels_ptr = unsafe { base.add(lab_start) } as *const Label;
    let offsets_ptr = unsafe { base.add(off_start) } as *const usize;
    let neighbors_ptr = unsafe { base.add(nbr_start) } as *const VertexId;
    debug_assert_eq!(offsets_ptr.align_offset(ALIGN), 0);
    let offsets_view: &[usize] = unsafe { std::slice::from_raw_parts(offsets_ptr, n + 1) };
    let neighbors_view: &[VertexId] = unsafe { std::slice::from_raw_parts(neighbors_ptr, nbr_len) };

    if verify == SnapshotVerify::Eager {
        let mut fnv = Fnv::new();
        fnv.update(&bytes[HEADER_LEN..payload_end]);
        if fnv.0 != stored {
            return Err(SnapshotError::Format(format!(
                "checksum mismatch (stored {stored:#018x}, computed {:#018x})",
                fnv.0
            )));
        }
    }

    // Structural invariants are non-negotiable even for a lazy load: the
    // graph indexes through these arrays.
    if offsets_view.first() != Some(&0) || offsets_view.last() != Some(&nbr_len) {
        return Err(SnapshotError::Format(
            "offsets do not span the neighbors section".into(),
        ));
    }
    if offsets_view.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Format("offsets are not monotone".into()));
    }
    check_neighbors(offsets_view, neighbors_view)?;

    let keep: Arc<dyn Any + Send + Sync> = Arc::clone(&map) as Arc<dyn Any + Send + Sync>;
    let graph = Graph::from_csr_sections(
        Section::mapped(Arc::clone(&keep), labels_ptr, n),
        Section::mapped(Arc::clone(&keep), offsets_ptr, n + 1),
        Section::mapped(keep, neighbors_ptr, nbr_len),
        m,
    );
    Ok(match verify {
        SnapshotVerify::Eager => MappedSnapshot::verified(graph),
        SnapshotVerify::Lazy => MappedSnapshot::deferred(
            graph,
            Box::new(move || {
                let mut fnv = Fnv::new();
                fnv.update(&map.bytes()[HEADER_LEN..payload_end]);
                (fnv.0 != stored).then(|| {
                    format!(
                        "checksum mismatch (stored {stored:#018x}, computed {:#018x})",
                        fnv.0
                    )
                })
            }),
        ),
    })
}

/// Portable fallback for targets without the mapping fast path: loads via
/// the copying reader (which always verifies the checksum up front).
#[cfg(not(all(unix, target_endian = "little", target_pointer_width = "64")))]
pub fn load_snapshot_mapped(
    path: impl AsRef<Path>,
    _verify: SnapshotVerify,
) -> Result<MappedSnapshot, SnapshotError> {
    Ok(MappedSnapshot::verified(load_snapshot(path)?))
}

/// A structural fingerprint of `g`: FNV-1a over the exact byte sections a
/// snapshot stores. Two graphs fingerprint equal iff their CSR arrays are
/// identical — the round-trip witness the CI snapshot step checks.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let (lab, off, nbr) = encode_sections(g);
    let mut fnv = Fnv::new();
    fnv.update(&lab);
    fnv.update(&off);
    fnv.update(&nbr);
    fnv.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_labelled_graph;

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_snapshot(g, &mut buf).unwrap();
        read_snapshot(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_structure_and_fingerprint() {
        let g = random_labelled_graph(80, 0.15, 4, 7);
        let back = roundtrip(&g);
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.label_count(), g.label_count());
        for v in 0..g.vertex_count() {
            let v = VertexId::from_index(v);
            assert_eq!(back.label(v), g.label(v));
            assert_eq!(back.neighbors(v), g.neighbors(v));
        }
        assert_eq!(graph_fingerprint(&back), graph_fingerprint(&g));
    }

    #[test]
    fn fingerprint_separates_different_graphs() {
        let a = random_labelled_graph(50, 0.2, 3, 1);
        let b = random_labelled_graph(50, 0.2, 3, 2);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::from_csr_parts(Vec::new(), vec![0], Vec::new(), 0);
        let back = roundtrip(&g);
        assert_eq!(back.vertex_count(), 0);
        assert_eq!(back.edge_count(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let g = random_labelled_graph(40, 0.2, 2, 3);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();

        // Flip one payload byte: checksum must catch it.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let err = read_snapshot(&mut flipped.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("checksum")), "{err}");

        // Truncate: typed error, not a panic.
        let err = read_snapshot(&mut buf[..buf.len() / 2].to_vec().as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("truncated")), "{err}");

        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        let err = read_snapshot(&mut bad.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("magic")), "{err}");
    }

    #[test]
    fn save_is_atomic_over_an_existing_snapshot() {
        let old = random_labelled_graph(60, 0.2, 3, 5);
        let new = random_labelled_graph(60, 0.2, 3, 6);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fast-snap-atomic-{}.bin", std::process::id()));
        save_snapshot(&old, &path).unwrap();

        // A failed save must leave the previous snapshot intact and clean
        // up its temp file. Simulate the failure by making the temp path
        // uncreatable: a directory already squats on it.
        let tmp = {
            let mut t = path.as_os_str().to_owned();
            t.push(format!(".tmp.{}", std::process::id()));
            std::path::PathBuf::from(t)
        };
        std::fs::create_dir(&tmp).unwrap();
        let err = save_snapshot(&new, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
        std::fs::remove_dir(&tmp).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(
            graph_fingerprint(&back),
            graph_fingerprint(&old),
            "a failed save must not tear the existing snapshot"
        );

        // A successful save replaces it whole and leaves no temp litter.
        save_snapshot(&new, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(graph_fingerprint(&back), graph_fingerprint(&new));
        assert!(!tmp.exists(), "temp file renamed away, not left behind");

        // Torn-write witness: a prefix of a snapshot (what a non-atomic
        // writer could leave after a crash) is rejected as truncated by
        // the loader — the rename protocol exists so this is never seen.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("truncated")), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_is_zero_copy_and_fingerprint_identical() {
        let g = random_labelled_graph(80, 0.15, 4, 7);
        let path = std::env::temp_dir().join(format!("fast-snap-mapped-{}.bin", std::process::id()));
        save_snapshot(&g, &path).unwrap();

        let snap = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap();
        snap.verify().expect("eager load is already verified");
        let back = snap.graph();
        assert_eq!(graph_fingerprint(back), graph_fingerprint(&g));
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for v in 0..g.vertex_count() {
            let v = VertexId::from_index(v);
            assert_eq!(back.label(v), g.label(v));
            assert_eq!(back.neighbors(v), g.neighbors(v));
        }

        // The no-copy witness: a built graph owns its CSR arrays, a mapped
        // one borrows every stored section from the mapping — clones
        // included (an Arc bump, not an array copy).
        assert!(g.owned_csr_bytes() > 0);
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        {
            assert_eq!(back.owned_csr_bytes(), 0, "mapped load must not copy CSR sections");
            assert_eq!(back.clone().owned_csr_bytes(), 0);
        }

        // The graph outlives the handle (the mapping rides inside it).
        let owned_out = snap.into_graph();
        std::fs::remove_file(&path).ok();
        assert_eq!(graph_fingerprint(&owned_out), graph_fingerprint(&g));
    }

    #[test]
    fn mapped_empty_graph_roundtrips() {
        let g = Graph::from_csr_parts(Vec::new(), vec![0], Vec::new(), 0);
        let path = std::env::temp_dir().join(format!("fast-snap-mapped-empty-{}.bin", std::process::id()));
        save_snapshot(&g, &path).unwrap();
        let snap = load_snapshot_mapped(&path, SnapshotVerify::Lazy).unwrap();
        assert_eq!(snap.graph().vertex_count(), 0);
        snap.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_detects_truncation_and_magic() {
        let g = random_labelled_graph(40, 0.2, 2, 3);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        let path = std::env::temp_dir().join(format!("fast-snap-mapped-bad-{}.bin", std::process::id()));

        std::fs::write(&path, &buf[..buf.len() / 2]).unwrap();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("truncated")), "{err}");

        let mut bad = buf.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Lazy).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("magic")), "{err}");

        std::fs::remove_file(&path).ok();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }

    /// Lazy verification semantics only exist where the mapping fast path
    /// does; the fallback loader verifies eagerly regardless of the flag.
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    #[test]
    fn mapped_lazy_defers_checksum_but_catches_corruption() {
        let g = random_labelled_graph(40, 0.2, 2, 3);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        // Flip a *label* byte: structurally valid (any u16 is a label), so
        // only the checksum can catch it.
        buf[HEADER_LEN] ^= 0x01;
        let path = std::env::temp_dir().join(format!("fast-snap-mapped-lazy-{}.bin", std::process::id()));
        std::fs::write(&path, &buf).unwrap();

        let err = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("checksum")), "{err}");

        let snap = load_snapshot_mapped(&path, SnapshotVerify::Lazy).expect("lazy load defers the checksum");
        assert_eq!(snap.graph().vertex_count(), g.vertex_count());
        let err = snap.verify().unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("checksum")), "{err}");
        // Memoized: the second call recalls the verdict.
        assert!(snap.verify().is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Structural invariants hold even when the checksum pass is deferred:
    /// a snapshot with a *valid* checksum but corrupt offsets is rejected
    /// at load.
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    #[test]
    fn mapped_lazy_still_rejects_structural_corruption() {
        let g = random_labelled_graph(30, 0.2, 2, 9);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        let n = g.vertex_count();
        let off_start = HEADER_LEN + n * 2 + pad_len(n * 2);
        // offsets[0] must be 0; make it 1 and re-seal the checksum so only
        // the structural check can object.
        buf[off_start] = 1;
        let mut fnv = Fnv::new();
        fnv.update(&buf[HEADER_LEN..]);
        buf[40..48].copy_from_slice(&fnv.0.to_le_bytes());
        let path = std::env::temp_dir().join(format!("fast-snap-mapped-struct-{}.bin", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Lazy).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(ref m) if m.contains("offsets")), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A checksum-valid snapshot whose one list is unsorted, repeats a
    /// neighbour or holds its own vertex is rejected by every loader —
    /// copying, mapped eager and mapped lazy — naming the vertex.
    #[test]
    fn loaders_reject_unsorted_repeated_and_self_loop_lists() {
        // Vertex 1's list is the broken one; 0, 2 and 3 each list 1.
        for (list, fault) in [
            ([2, 0, 3], "not strictly ascending"),
            ([0, 2, 2], "not strictly ascending"),
            ([1, 2, 3], "self loop"),
        ] {
            let neighbors = [1].into_iter().chain(list).chain([1, 1]);
            let g = Graph::from_csr_parts(
                vec![Label::new(0); 4],
                vec![0, 1, 4, 5, 6],
                neighbors.map(VertexId::new).collect(),
                3,
            );
            let mut buf = Vec::new();
            write_snapshot(&g, &mut buf).unwrap();
            let expect = |err: SnapshotError| {
                let msg = err.to_string();
                assert!(
                    msg.contains("vertex 1") && msg.contains(fault),
                    "{list:?}: {msg}"
                );
            };
            expect(read_snapshot(&mut buf.as_slice()).unwrap_err());
            let path =
                std::env::temp_dir().join(format!("fast-snap-lists-{}.bin", std::process::id()));
            std::fs::write(&path, &buf).unwrap();
            for verify in [SnapshotVerify::Eager, SnapshotVerify::Lazy] {
                expect(load_snapshot_mapped(&path, verify).unwrap_err());
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn save_and_load_files() {
        let g = random_labelled_graph(60, 0.2, 3, 4);
        let path = std::env::temp_dir().join(format!(
            "fast-snap-test-{}.bin",
            std::process::id()
        ));
        save_snapshot(&g, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(graph_fingerprint(&back), graph_fingerprint(&g));
        std::fs::remove_file(&path).ok();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }
}
