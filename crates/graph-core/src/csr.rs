//! The CSR data-graph representation.
//!
//! The paper's data graphs (Table III) range up to 1.25B edges, so the
//! representation matters: a compressed sparse row layout with `u32` vertex
//! ids halves memory traffic compared to pointer-based adjacency, and sorted
//! neighbour lists give `O(log d)` edge tests — the same access pattern the
//! host-side CST constructor (Algorithm 1) is built around.

use crate::types::{Label, VertexId};
use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Backing storage for one flat CSR array: either an owned `Vec<T>` (the
/// builder / copying-loader path) or a borrowed view into a shared
/// memory-mapped snapshot (`crate::snapshot::load_snapshot_mapped`). The
/// mapped variant keeps the mapping alive through an opaque `Arc`, so a
/// `Graph` clone is an `Arc` bump, not an array copy.
pub(crate) enum Section<T> {
    Owned(Vec<T>),
    Mapped {
        /// Keep-alive handle for the mapping backing `ptr`.
        keep: Arc<dyn Any + Send + Sync>,
        ptr: *const T,
        len: usize,
    },
}

// Safety: the mapped variant points into a private read-only file mapping
// owned by `keep`; it is never written through and outlives every view via
// the `Arc`, so sharing the raw pointer across threads is sound.
unsafe impl<T: Send + Sync> Send for Section<T> {}
unsafe impl<T: Send + Sync> Sync for Section<T> {}

impl<T> Section<T> {
    /// Wraps a read-only view into a mapping. `ptr` must be valid for
    /// `len` aligned reads of `T` for as long as `keep` is alive.
    pub(crate) fn mapped(keep: Arc<dyn Any + Send + Sync>, ptr: *const T, len: usize) -> Self {
        Section::Mapped { keep, ptr, len }
    }

    /// Bytes of this section held in owned heap storage (0 when mapped).
    fn owned_bytes(&self) -> usize {
        match self {
            Section::Owned(v) => v.len() * std::mem::size_of::<T>(),
            Section::Mapped { .. } => 0,
        }
    }
}

impl<T> From<Vec<T>> for Section<T> {
    fn from(v: Vec<T>) -> Self {
        Section::Owned(v)
    }
}

impl<T> Deref for Section<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Section::Owned(v) => v,
            // Safety: upheld by the `Section::mapped` contract; `keep` is
            // alive for as long as `self` is.
            Section::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T> Clone for Section<T>
where
    T: Clone,
{
    fn clone(&self) -> Self {
        match self {
            Section::Owned(v) => Section::Owned(v.clone()),
            Section::Mapped { keep, ptr, len } => Section::Mapped {
                keep: Arc::clone(keep),
                ptr: *ptr,
                len: *len,
            },
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <[T] as fmt::Debug>::fmt(self, f)
    }
}

/// An undirected, labelled, simple data graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`] or [`crate::io::read_graph_text`].
#[derive(Debug, Clone)]
pub struct Graph {
    labels: Section<Label>,
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Section<usize>,
    /// Concatenated, per-vertex-sorted adjacency lists. Each undirected edge
    /// appears twice (once per endpoint).
    neighbors: Section<VertexId>,
    /// Number of undirected edges.
    edge_count: usize,
    /// Vertices grouped by label: `label_offsets[l]..label_offsets[l+1]`
    /// indexes `vertices_by_label`. Always owned (derived, not stored in
    /// snapshots).
    label_offsets: Vec<usize>,
    vertices_by_label: Vec<VertexId>,
    max_degree: u32,
}

impl Graph {
    /// Assembles a graph from prevalidated CSR parts.
    ///
    /// Intended for [`crate::GraphBuilder`]; offsets must be monotone with
    /// `offsets.len() == labels.len() + 1`, and each adjacency slice sorted.
    pub(crate) fn from_csr_parts(
        labels: Vec<Label>,
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        edge_count: usize,
    ) -> Self {
        Self::from_csr_sections(labels.into(), offsets.into(), neighbors.into(), edge_count)
    }

    /// Assembles a graph from prevalidated CSR sections (owned or mapped);
    /// the derived label index is always computed into owned storage.
    pub(crate) fn from_csr_sections(
        labels: Section<Label>,
        offsets: Section<usize>,
        neighbors: Section<VertexId>,
        edge_count: usize,
    ) -> Self {
        debug_assert_eq!(offsets.len(), labels.len() + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), neighbors.len());

        let n = labels.len();
        let num_labels = labels.iter().map(|l| l.index() + 1).max().unwrap_or(0);

        // Bucket vertices by label (counting sort: labels are dense).
        let mut counts = vec![0usize; num_labels];
        for l in labels.iter() {
            counts[l.index()] += 1;
        }
        let mut label_offsets = Vec::with_capacity(num_labels + 1);
        let mut acc = 0usize;
        label_offsets.push(0);
        for &c in &counts {
            acc += c;
            label_offsets.push(acc);
        }
        let mut vertices_by_label = vec![VertexId::new(0); n];
        let mut cursor = label_offsets[..num_labels].to_vec();
        for (i, l) in labels.iter().enumerate() {
            vertices_by_label[cursor[l.index()]] = VertexId::from_index(i);
            cursor[l.index()] += 1;
        }

        let max_degree = (0..n)
            .map(|v| (offsets[v + 1] - offsets[v]) as u32)
            .max()
            .unwrap_or(0);

        Graph {
            labels,
            offsets,
            neighbors,
            edge_count,
            label_offsets,
            vertices_by_label,
            max_degree,
        }
    }

    /// The raw CSR arrays `(labels, offsets, neighbors)` — the flat
    /// sections the binary snapshot format (`crate::snapshot`) serialises.
    pub(crate) fn csr_parts(&self) -> (&[Label], &[usize], &[VertexId]) {
        (&self.labels, &self.offsets, &self.neighbors)
    }

    /// Number of vertices, `|V(G)|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges, `|E(G)|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of distinct label slots (max label index + 1).
    #[inline]
    pub fn label_count(&self) -> usize {
        self.label_offsets.len().saturating_sub(1)
    }

    /// The label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v.index()]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// The degree `d_G(v)`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as u32
    }

    /// The maximum degree `D_G`.
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// The average degree `2|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.labels.len() as f64
        }
    }

    /// Tests whether the undirected edge `(u, v)` exists.
    ///
    /// Binary-searches the smaller of the two adjacency lists: `O(log d)`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (probe, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(probe).binary_search(&target).is_ok()
    }

    /// All vertices carrying label `l`, sorted by id.
    ///
    /// Returns an empty slice for labels absent from the graph.
    #[inline]
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        if l.index() + 1 >= self.label_offsets.len() {
            return &[];
        }
        &self.vertices_by_label[self.label_offsets[l.index()]..self.label_offsets[l.index() + 1]]
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.labels.len()).map(VertexId::from_index)
    }

    /// Iterates over each undirected edge once, as `(min, max)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Bytes of the three stored CSR sections (labels, offsets, neighbors)
    /// living in owned heap storage. A graph loaded through
    /// [`crate::snapshot::load_snapshot_mapped`] returns 0 here — the
    /// sections are views into the mapping — which is the no-copy witness
    /// the snapshot tests assert on. The derived label index is
    /// excluded: it is always recomputed into owned storage.
    pub fn owned_csr_bytes(&self) -> usize {
        self.labels.owned_bytes() + self.offsets.owned_bytes() + self.neighbors.owned_bytes()
    }

    /// Estimated heap footprint in bytes (labels + CSR arrays + label index).
    pub fn memory_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<Label>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
            + self.label_offsets.len() * std::mem::size_of::<usize>()
            + self.vertices_by_label.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 0-2 triangle; 2-3 tail. Labels: 0,0,1,2.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Label::new(0));
        let v1 = b.add_vertex(Label::new(0));
        let v2 = b.add_vertex(Label::new(1));
        let v3 = b.add_vertex(Label::new(2));
        b.add_edge(v0, v1).unwrap();
        b.add_edge(v1, v2).unwrap();
        b.add_edge(v0, v2).unwrap();
        b.add_edge(v2, v3).unwrap();
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_tail();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.label_count(), 3);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_plus_tail();
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
            assert!(g.has_edge(VertexId::new(u), VertexId::new(v)));
            assert!(g.has_edge(VertexId::new(v), VertexId::new(u)));
        }
        assert!(!g.has_edge(VertexId::new(0), VertexId::new(3)));
        assert!(!g.has_edge(VertexId::new(1), VertexId::new(3)));
    }

    #[test]
    fn label_index_groups_vertices() {
        let g = triangle_plus_tail();
        assert_eq!(
            g.vertices_with_label(Label::new(0)),
            &[VertexId::new(0), VertexId::new(1)]
        );
        assert_eq!(g.vertices_with_label(Label::new(1)), &[VertexId::new(2)]);
        assert_eq!(g.vertices_with_label(Label::new(2)), &[VertexId::new(3)]);
        assert!(g.vertices_with_label(Label::new(9)).is_empty());
    }

    #[test]
    fn edges_iterator_visits_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle_plus_tail();
        assert!(g.memory_bytes() > 0);
    }
}
