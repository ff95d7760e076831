//! Versioned binary CSR snapshots: load a data graph without re-parsing.
//!
//! The text format (`crate::io`) is the interchange format; this module is
//! the *restart* format. A serving process hosting many tenant graphs pays
//! a cold-start tax re-reading and re-validating text on every boot — the
//! snapshot stores the already-validated CSR arrays as flat little-endian
//! sections behind a checksummed header, so a load is one bulk read plus
//! an integrity check (no tokenising, no sorting, no deduplication).
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
//! sections in place. The format is decoded once, over a byte slice (magic,
//! version, overflow-checked extents held against the slice before anything
//! is allocated, checksum; then monotone offsets ending at `2m` and every
//! list strictly ascending, below `n`, without a self loop). The two
//! loaders are two byte sources for that decoder:
//!
//! * [`load_snapshot`] — reads the file and copies the sections into owned
//!   arrays; portable, so [`load_snapshot_mapped`] falls back to it on
//!   targets without the mapping fast path (non-unix, big-endian, 32-bit);
//! * [`load_snapshot_mapped`] — zero-copy: the file is `mmap`ed privately
//!   read-only and the [`Graph`] borrows its sections straight from the
//!   page cache ([`Graph::owned_csr_bytes`]` == 0`), so tenant restore is
//!   one checksum pass and one structural pass over the mapping.
//!
//! A truncated, bit-flipped or hostile file is a typed [`SnapshotError`]
//! from either loader — never a panic, an allocation failure or a
//! malformed [`Graph`]. Symmetry of the adjacency is not checked, and a
//! file truncated while mapped raises `SIGBUS` on access.

use crate::csr::Graph;
use crate::types::{Label, VertexId};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

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

/// Streaming FNV-1a (64-bit): cheap and deterministic across processes
/// and platforms (unlike `std`'s `DefaultHasher`, whose seeds are
/// unspecified). [`Fnv::new`] is the serving cache key's hash
/// (`cst::Fingerprint`); the snapshot checksum and [`graph_fingerprint`]
/// run the same loop with the version-1 checksum's multiplier.
#[derive(Debug, Clone, Copy)]
pub struct Fnv {
    hash: u64,
    prime: u64,
}

impl Fnv {
    /// FNV-1a with FNV's 64-bit prime, `0x100_0000_01b3`.
    pub fn new() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            prime: 0x0000_0100_0000_01b3,
        }
    }

    /// The version-1 snapshot checksum: FNV-1a multiplying by
    /// `0x1000_0000_01b3`, FNV's prime with one hex digit more. Every
    /// version-1 file carries checksums made with it, so it stays while the
    /// format is version 1.
    fn checksum() -> Self {
        Fnv {
            prime: 0x1000_0000_01b3,
            ..Fnv::new()
        }
    }

    /// Folds `bytes` in order.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(self.prime);
        }
    }

    /// Folds one word, as its little-endian bytes.
    pub fn mix(&mut self, word: u64) {
        self.update(&word.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.hash
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
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
fn write_snapshot(g: &Graph, w: &mut dyn Write) -> Result<(), SnapshotError> {
    let (lab, off, nbr) = encode_sections(g);
    let mut fnv = Fnv::checksum();
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
    w.write_all(&fnv.finish().to_le_bytes())?;
    w.write_all(&lab)?;
    w.write_all(&off)?;
    w.write_all(&nbr)?;
    Ok(())
}

/// The payload of a decoded snapshot: its three sections as unpadded
/// little-endian byte slices of the decoded buffer, and the edge count.
struct Sections<'a> {
    /// `n × u16`.
    labels: &'a [u8],
    /// `(n + 1) × u64`.
    offsets: &'a [u8],
    /// `2m × u32`.
    neighbors: &'a [u8],
    edges: usize,
}

/// The format's one decoder: magic, version, `neighbors length == 2m`, the
/// section extents (overflow-checked, and within `bytes` before anything
/// is allocated), then the checksum over the payload. The CSR structure is
/// left to [`check_csr`] over the loader's typed view of the sections.
fn decode(bytes: &[u8]) -> Result<Sections<'_>, SnapshotError> {
    let fail = |msg: String| Err(SnapshotError::Format(msg));
    let truncated = |what: &str| fail(format!("truncated reading {what}"));
    let Some(header) = bytes.get(..HEADER_LEN) else {
        return truncated("header");
    };
    if header[..8] != MAGIC {
        return fail("magic mismatch (not a FAST CSR snapshot)".into());
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte field"));
    if version != VERSION {
        return fail(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        ));
    }
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8-byte field"));
    let (Ok(n), Ok(m), Ok(nbr_len)) = (
        usize::try_from(word(16)),
        usize::try_from(word(24)),
        usize::try_from(word(32)),
    ) else {
        return fail("counts exceed the address space".into());
    };
    let stored = word(40);
    if m.checked_mul(2) != Some(nbr_len) {
        return fail(format!(
            "neighbors length {nbr_len} does not match 2 × {m} edges"
        ));
    }

    // Section extents, overflow-checked: a bogus header must become a typed
    // error, not a wrapped offset or an allocation the file cannot back.
    let extents = (|| {
        let lab = n.checked_mul(2)?;
        let lab = lab.checked_add(pad_len(lab))?;
        let off = n.checked_add(1)?.checked_mul(8)?;
        let nbr = nbr_len.checked_mul(4)?;
        let nbr = nbr.checked_add(pad_len(nbr))?;
        let end = HEADER_LEN
            .checked_add(lab)?
            .checked_add(off)?
            .checked_add(nbr)?;
        Some((lab, off, end))
    })();
    let Some((lab_bytes, off_bytes, end)) = extents else {
        return fail("section sizes overflow".into());
    };
    let Some(payload) = bytes.get(HEADER_LEN..end) else {
        return truncated("payload sections");
    };

    let mut fnv = Fnv::checksum();
    fnv.update(payload);
    let computed = fnv.finish();
    if computed != stored {
        return fail(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    let (labels, rest) = payload.split_at(lab_bytes);
    let (offsets, neighbors) = rest.split_at(off_bytes);
    Ok(Sections {
        labels: &labels[..n * 2],
        offsets,
        neighbors: &neighbors[..nbr_len * 4],
        edges: m,
    })
}

/// The structural check of both loaders: offsets start at 0, are monotone
/// and end at the neighbour count, then [`check_neighbors`]. The graph
/// indexes through these arrays, so this runs even under a matching
/// checksum.
fn check_csr(offsets: &[usize], neighbors: &[VertexId]) -> Result<(), SnapshotError> {
    if offsets.first() != Some(&0) || offsets.last() != Some(&neighbors.len()) {
        return Err(SnapshotError::Format(
            "offsets do not span the neighbors section".into(),
        ));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Format("offsets are not monotone".into()));
    }
    check_neighbors(offsets, neighbors)
}

/// The neighbour pass of [`check_csr`], over offsets already checked to be
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

/// Decodes `bytes` and copies the validated sections into an owned
/// [`Graph`].
fn copy_graph(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    let s = decode(bytes)?;
    let labels: Vec<Label> = s
        .labels
        .chunks_exact(2)
        .map(|c| Label::new(u16::from_le_bytes([c[0], c[1]])))
        .collect();
    // An offset past the address space saturates, which `check_csr` then
    // rejects (it cannot equal the neighbour count and stay monotone).
    let offsets: Vec<usize> = s
        .offsets
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .map(|o| usize::try_from(o).unwrap_or(usize::MAX))
        .collect();
    let neighbors: Vec<VertexId> = s
        .neighbors
        .chunks_exact(4)
        .map(|c| VertexId::new(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
        .collect();
    check_csr(&offsets, &neighbors)?;
    Ok(Graph::from_csr_parts(labels, offsets, neighbors, s.edges))
}

/// Saves `g` to `path` **atomically**: the snapshot is written to a
/// sibling temp file, flushed and fsynced, then renamed over `path`, and
/// (on unix) the parent directory is fsynced so the rename itself survives
/// a crash once this returns `Ok`. A crash (or error) mid-write leaves
/// either the old snapshot or nothing — never a torn file — and the failed
/// temp file is cleaned up. Readers concurrently loading `path` see the old
/// or the new snapshot, whole.
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
        // The rename lives in the directory: it is durable once the
        // directory is. A bare file name's parent is the empty path.
        #[cfg(unix)]
        {
            let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
            File::open(parent.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    })();
    if write.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    write
}

/// Loads a graph previously written by [`save_snapshot`], copying its
/// sections into owned arrays.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Graph, SnapshotError> {
    copy_graph(&std::fs::read(path)?)
}
/// When [`load_snapshot_mapped`] verifies the payload checksum: during
/// load, always.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotVerify {
    /// Checksum the payload during load — a read-only pass over the
    /// mapping (still no copy) — and fail fast on mismatch.
    Eager,
}

/// A snapshot loaded and verified by [`load_snapshot_mapped`]: the
/// [`Graph`], borrowing its CSR sections from the mapping where the
/// platform supports it.
#[derive(Debug)]
pub struct MappedSnapshot {
    graph: Graph,
}

impl MappedSnapshot {
    /// The loaded graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the handle, keeping the graph (the mapping stays alive
    /// inside the graph's sections).
    pub fn into_graph(self) -> Graph {
        self.graph
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
        /// Maps the first `len` bytes of `file`. Zero bytes map nothing
        /// (`mmap` rejects a zero length) and view as an empty slice.
        pub(super) fn of_file(file: &File, len: usize) -> std::io::Result<Mapping> {
            if len == 0 {
                let ptr = std::ptr::NonNull::<u64>::dangling().as_ptr().cast();
                return Ok(Mapping { ptr, len });
            }
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
            // Safety: `ptr` is valid for `len` read-only bytes until drop
            // (non-null and aligned when `len` is 0).
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            if self.len > 0 {
                // Safety: exactly the pointer/length pair `mmap` returned.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

/// Loads a snapshot zero-copy: the file is mapped read-only and the
/// returned [`Graph`] borrows its label/offset/neighbour sections from the
/// mapping ([`Graph::owned_csr_bytes`] is 0). The checksum and the
/// structure are both validated before it returns.
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
pub fn load_snapshot_mapped(
    path: impl AsRef<Path>,
    _verify: SnapshotVerify,
) -> Result<MappedSnapshot, SnapshotError> {
    use crate::csr::Section;
    use std::any::Any;
    use std::sync::Arc;

    let file = File::open(path)?;
    // On this cfg a file length always fits `usize`.
    let map = Arc::new(mapping::Mapping::of_file(
        &file,
        file.metadata()?.len() as usize,
    )?);
    let s = decode(map.bytes())?;
    let (n, nbr_len) = (s.labels.len() / 2, s.neighbors.len() / 4);
    // Safety: the decoded sections lie inside the mapping and are 8-aligned
    // — the mapping base is page-aligned, the header is 48 bytes, and every
    // padded section length is a multiple of ALIGN. `Label`/`VertexId` are
    // `repr(transparent)` over `u16`/`u32`, and on this cfg (64-bit
    // little-endian) `usize` has the layout of the on-disk `u64`.
    let labels_ptr = s.labels.as_ptr() as *const Label;
    let offsets_ptr = s.offsets.as_ptr() as *const usize;
    let neighbors_ptr = s.neighbors.as_ptr() as *const VertexId;
    debug_assert_eq!(offsets_ptr.align_offset(ALIGN), 0);
    let offsets_view: &[usize] = unsafe { std::slice::from_raw_parts(offsets_ptr, n + 1) };
    let neighbors_view: &[VertexId] = unsafe { std::slice::from_raw_parts(neighbors_ptr, nbr_len) };
    check_csr(offsets_view, neighbors_view)?;

    let keep: Arc<dyn Any + Send + Sync> = Arc::clone(&map) as Arc<dyn Any + Send + Sync>;
    let graph = Graph::from_csr_sections(
        Section::mapped(Arc::clone(&keep), labels_ptr, n),
        Section::mapped(Arc::clone(&keep), offsets_ptr, n + 1),
        Section::mapped(keep, neighbors_ptr, nbr_len),
        s.edges,
    );
    Ok(MappedSnapshot { graph })
}

/// Portable fallback for targets without the mapping fast path: the
/// copying [`load_snapshot`].
#[cfg(not(all(unix, target_endian = "little", target_pointer_width = "64")))]
pub fn load_snapshot_mapped(
    path: impl AsRef<Path>,
    _verify: SnapshotVerify,
) -> Result<MappedSnapshot, SnapshotError> {
    Ok(MappedSnapshot {
        graph: load_snapshot(path)?,
    })
}

/// A structural fingerprint of `g`: FNV-1a over the exact byte sections a
/// snapshot stores. Two graphs fingerprint equal iff their CSR arrays are
/// identical — the round-trip witness the CI snapshot step checks.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let (lab, off, nbr) = encode_sections(g);
    let mut fnv = Fnv::checksum();
    fnv.update(&lab);
    fnv.update(&off);
    fnv.update(&nbr);
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_labelled_graph;

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_snapshot(g, &mut buf).unwrap();
        copy_graph(&buf).unwrap()
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
        let err = copy_graph(&flipped).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Format(ref m) if m.contains("checksum")),
            "{err}"
        );

        // Truncate: typed error, not a panic.
        let err = copy_graph(&buf[..buf.len() / 2]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Format(ref m) if m.contains("truncated")),
            "{err}"
        );

        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        let err = copy_graph(&bad).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Format(ref m) if m.contains("magic")),
            "{err}"
        );
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
        assert!(
            matches!(err, SnapshotError::Format(ref m) if m.contains("truncated")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A bare relative file name (whose parent is the empty path, synced as
    /// the working directory) and a file in a nested directory both save
    /// and load back.
    #[test]
    fn save_syncs_the_parent_of_relative_and_nested_paths() {
        let g = random_labelled_graph(40, 0.2, 3, 9);
        let bare = std::path::PathBuf::from(format!("fast-snap-bare-{}.bin", std::process::id()));
        assert_eq!(bare.parent(), Some(Path::new("")));
        let saved = save_snapshot(&g, &bare);
        let back = load_snapshot(&bare);
        std::fs::remove_file(&bare).ok();
        saved.unwrap();
        assert_eq!(graph_fingerprint(&back.unwrap()), graph_fingerprint(&g));

        let root = std::env::temp_dir().join(format!("fast-snap-nested-{}", std::process::id()));
        let nested = root.join("a").join("b").join("g.bin");
        std::fs::create_dir_all(nested.parent().unwrap()).unwrap();
        save_snapshot(&g, &nested).unwrap();
        let back = load_snapshot(&nested).unwrap();
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(graph_fingerprint(&back), graph_fingerprint(&g));
    }

    #[test]
    fn mapped_load_is_zero_copy_and_fingerprint_identical() {
        let g = random_labelled_graph(80, 0.15, 4, 7);
        let path =
            std::env::temp_dir().join(format!("fast-snap-mapped-{}.bin", std::process::id()));
        save_snapshot(&g, &path).unwrap();

        let snap = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap();
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
            assert_eq!(
                back.owned_csr_bytes(),
                0,
                "mapped load must not copy CSR sections"
            );
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
        let path =
            std::env::temp_dir().join(format!("fast-snap-mapped-empty-{}.bin", std::process::id()));
        save_snapshot(&g, &path).unwrap();
        let snap = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap();
        assert_eq!(snap.graph().vertex_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_detects_truncation_and_magic() {
        let g = random_labelled_graph(40, 0.2, 2, 3);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        let path =
            std::env::temp_dir().join(format!("fast-snap-mapped-bad-{}.bin", std::process::id()));

        std::fs::write(&path, &buf[..buf.len() / 2]).unwrap();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Format(ref m) if m.contains("truncated")),
            "{err}"
        );

        let mut bad = buf.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Format(ref m) if m.contains("magic")),
            "{err}"
        );

        // Flip a *label* byte: structurally valid (any u16 is a label), so
        // only the checksum can catch it.
        let mut bad = buf.clone();
        bad[HEADER_LEN] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Format(ref m) if m.contains("checksum")),
            "{err}"
        );

        std::fs::remove_file(&path).ok();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }

    /// Structural invariants are checked past the checksum: a snapshot with
    /// a *valid* checksum but corrupt offsets is rejected at load.
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    #[test]
    fn mapped_load_rejects_structural_corruption() {
        let g = random_labelled_graph(30, 0.2, 2, 9);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        let n = g.vertex_count();
        let off_start = HEADER_LEN + n * 2 + pad_len(n * 2);
        // offsets[0] must be 0; make it 1 and re-seal the checksum so only
        // the structural check can object.
        buf[off_start] = 1;
        let mut fnv = Fnv::checksum();
        fnv.update(&buf[HEADER_LEN..]);
        buf[40..48].copy_from_slice(&fnv.finish().to_le_bytes());
        let path = std::env::temp_dir().join(format!(
            "fast-snap-mapped-struct-{}.bin",
            std::process::id()
        ));
        std::fs::write(&path, &buf).unwrap();
        let err = load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Format(ref m) if m.contains("offsets")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A checksum-valid snapshot whose one list is unsorted, repeats a
    /// neighbour or holds its own vertex is rejected by both loaders —
    /// copying and mapped — naming the vertex.
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
            expect(copy_graph(&buf).unwrap_err());
            let path =
                std::env::temp_dir().join(format!("fast-snap-lists-{}.bin", std::process::id()));
            std::fs::write(&path, &buf).unwrap();
            expect(load_snapshot_mapped(&path, SnapshotVerify::Eager).unwrap_err());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn save_and_load_files() {
        let g = random_labelled_graph(60, 0.2, 3, 4);
        let path = std::env::temp_dir().join(format!("fast-snap-test-{}.bin", std::process::id()));
        save_snapshot(&g, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(graph_fingerprint(&back), graph_fingerprint(&g));
        std::fs::remove_file(&path).ok();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }

    /// The checksum and fingerprint of a fixed graph, recorded before the
    /// snapshot checksum and `cst::Fingerprint` became one FNV type: the
    /// format's bytes did not move.
    #[test]
    fn checksum_is_pinned() {
        let g = random_labelled_graph(40, 0.2, 2, 3);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        assert_eq!(buf.len(), 1768);
        let stored = u64::from_le_bytes(buf[40..48].try_into().unwrap());
        assert_eq!(stored, 0xe6ad_aa14_93f4_203e);
        assert_eq!(graph_fingerprint(&g), stored);
    }

    /// Loads `bytes` through both loaders. Either both succeed with the
    /// same graph, or both fail with the same `Format` error, which is
    /// returned.
    fn load_both(bytes: &[u8], tag: &str) -> Result<Graph, String> {
        let path = std::env::temp_dir().join(format!(
            "fast-snap-hostile-{tag}-{}.bin",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        let copied = load_snapshot(&path);
        let mapped = load_snapshot_mapped(&path, SnapshotVerify::Eager);
        std::fs::remove_file(&path).ok();
        match (copied, mapped) {
            (Ok(a), Ok(b)) => {
                assert_eq!(graph_fingerprint(&a), graph_fingerprint(b.graph()));
                Ok(a)
            }
            (Err(SnapshotError::Format(a)), Err(SnapshotError::Format(b))) => {
                assert_eq!(a, b, "both loaders run one decoder");
                Err(a)
            }
            (a, b) => panic!("loaders disagree: {a:?} vs {:?}", b.map(|s| s.into_graph())),
        }
    }

    /// A 48-byte file with a valid magic and version and the given header
    /// words, checksum 0 and no payload.
    fn bare_header(n: u64, m: u64, nbr_len: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        for word in [n, m, nbr_len, 0] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf
    }

    /// Its sections would need 2^43 bytes: an extent the file cannot back
    /// is rejected before anything is allocated.
    #[test]
    fn header_with_two_to_the_forty_vertices_is_a_typed_error() {
        let err = load_both(&bare_header(1 << 40, 0, 0), "n40").unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn header_with_two_to_the_sixty_three_vertices_is_a_typed_error() {
        let err = load_both(&bare_header(1 << 63, 0, 0), "n63").unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn header_with_two_to_the_sixty_three_edges_is_a_typed_error() {
        let err = load_both(&bare_header(0, 1 << 63, 0), "m63").unwrap_err();
        assert!(err.contains("neighbors length"), "{err}");
    }

    /// A seeded mutator over a valid snapshot's header, first offsets and
    /// length: every case loads as the same graph from both loaders or is
    /// the same typed error from both — never a panic or an abort.
    #[test]
    fn mutated_headers_and_truncations_are_ok_or_typed_errors() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let g = random_labelled_graph(30, 0.2, 3, 11);
        let mut valid = Vec::new();
        write_snapshot(&g, &mut valid).unwrap();
        let n = g.vertex_count();
        let first_offsets_end = HEADER_LEN + n * 2 + pad_len(n * 2) + 4 * 8;
        let boundary = [0, 1, 1 << 32, 1 << 40, 1 << 63, u64::MAX];
        let mut rng = SmallRng::seed_from_u64(0x5eed_0044);
        let mut rejected = 0;
        for case in 0..300 {
            let mut buf = valid.clone();
            match rng.gen_range(0..3) {
                0 => {
                    // n, m, nbr_len or checksum: a boundary or a random word.
                    let at = 16 + 8 * rng.gen_range(0..4usize);
                    let i = rng.gen_range(0..=boundary.len());
                    let word = boundary.get(i).copied().unwrap_or_else(|| rng.gen());
                    buf[at..at + 8].copy_from_slice(&word.to_le_bytes());
                }
                1 => {
                    for _ in 0..rng.gen_range(1..=4) {
                        let at = rng.gen_range(0..first_offsets_end);
                        buf[at] ^= rng.gen_range(1..=255u8);
                    }
                }
                _ => buf.truncate(rng.gen_range(0..valid.len())),
            }
            match load_both(&buf, &format!("case{case}")) {
                Ok(back) => assert_eq!(graph_fingerprint(&back), graph_fingerprint(&g)),
                Err(_) => rejected += 1,
            }
        }
        // Most mutations break the file; a few rewrite a word to its own value.
        assert!(rejected > 250, "{rejected} of 300 mutations rejected");
    }
}
