//! Query graphs.
//!
//! The paper's queries (Fig. 6) have 4-6 vertices; real-world subgraph
//! queries are rarely larger. We cap queries at [`MAX_QUERY_VERTICES`] = 32
//! vertices, which lets adjacency be a per-vertex `u32` bitmask — O(1) edge
//! tests and trivially copyable, which the FPGA kernel exploits.

use crate::types::{Label, QueryVertexId};

/// Maximum number of vertices in a query graph.
pub const MAX_QUERY_VERTICES: usize = 32;

/// Errors raised by [`QueryGraph`] construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// More than [`MAX_QUERY_VERTICES`] vertices.
    TooManyVertices(usize),
    /// An edge references a vertex index out of range.
    UnknownVertex(usize),
    /// Self loop.
    SelfLoop(usize),
    /// The query graph is not connected (required by the problem statement).
    Disconnected,
    /// The query graph has no vertices.
    Empty,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::TooManyVertices(n) => {
                write!(f, "query has {n} vertices; max is {MAX_QUERY_VERTICES}")
            }
            QueryError::UnknownVertex(u) => write!(f, "edge references unknown query vertex {u}"),
            QueryError::SelfLoop(u) => write!(f, "self loop on query vertex {u}"),
            QueryError::Disconnected => write!(f, "query graph must be connected"),
            QueryError::Empty => write!(f, "query graph must have at least one vertex"),
        }
    }
}

impl std::error::Error for QueryError {}

/// An undirected, labelled, connected, simple query graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryGraph {
    labels: Vec<Label>,
    /// `adjacency[u]` has bit `v` set iff `(u, v)` is an edge.
    adjacency: Vec<u32>,
    /// Each undirected edge once, `(min, max)`, sorted.
    edges: Vec<(QueryVertexId, QueryVertexId)>,
}

impl QueryGraph {
    /// Builds a validated query graph from labels and undirected edges
    /// (given as vertex-index pairs).
    pub fn new(labels: Vec<Label>, edges: &[(usize, usize)]) -> Result<Self, QueryError> {
        let n = labels.len();
        if n == 0 {
            return Err(QueryError::Empty);
        }
        if n > MAX_QUERY_VERTICES {
            return Err(QueryError::TooManyVertices(n));
        }
        let mut adjacency = vec![0u32; n];
        let mut edge_list = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if a == b {
                return Err(QueryError::SelfLoop(a));
            }
            if a >= n {
                return Err(QueryError::UnknownVertex(a));
            }
            if b >= n {
                return Err(QueryError::UnknownVertex(b));
            }
            if adjacency[a] & (1 << b) == 0 {
                adjacency[a] |= 1 << b;
                adjacency[b] |= 1 << a;
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                edge_list.push((QueryVertexId::from_index(lo), QueryVertexId::from_index(hi)));
            }
        }
        edge_list.sort_unstable();

        let q = QueryGraph {
            labels,
            adjacency,
            edges: edge_list,
        };
        if !q.is_connected() {
            return Err(QueryError::Disconnected);
        }
        Ok(q)
    }

    /// Number of query vertices, `|V(q)|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected query edges, `|E(q)|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The label of query vertex `u`.
    #[inline]
    pub fn label(&self, u: QueryVertexId) -> Label {
        self.labels[u.index()]
    }

    /// Degree of query vertex `u`.
    #[inline]
    pub fn degree(&self, u: QueryVertexId) -> u32 {
        self.adjacency[u.index()].count_ones()
    }

    /// O(1) edge test.
    #[inline]
    pub fn has_edge(&self, u: QueryVertexId, v: QueryVertexId) -> bool {
        self.adjacency[u.index()] & (1 << v.index()) != 0
    }

    /// The adjacency bitmask of `u` (bit `v` set iff `(u,v) ∈ E(q)`).
    #[inline]
    pub fn adjacency_mask(&self, u: QueryVertexId) -> u32 {
        self.adjacency[u.index()]
    }

    /// Iterates over the neighbours of `u` in ascending order.
    pub fn neighbors(&self, u: QueryVertexId) -> impl Iterator<Item = QueryVertexId> + '_ {
        let mut mask = self.adjacency[u.index()];
        std::iter::from_fn(move || {
            if mask == 0 {
                None
            } else {
                let v = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                Some(QueryVertexId::from_index(v))
            }
        })
    }

    /// Each undirected edge once, as sorted `(min, max)` pairs.
    #[inline]
    pub fn edges(&self) -> &[(QueryVertexId, QueryVertexId)] {
        &self.edges
    }

    /// Iterates over all query vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = QueryVertexId> {
        (0..self.labels.len()).map(QueryVertexId::from_index)
    }

    /// Whether the query graph is connected (single BFS component).
    pub fn is_connected(&self) -> bool {
        let n = self.labels.len();
        if n == 0 {
            return false;
        }
        let mut seen = 1u32; // start from vertex 0
        let mut frontier = 1u32;
        while frontier != 0 {
            let mut next = 0u32;
            let mut f = frontier;
            while f != 0 {
                let u = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= self.adjacency[u] & !seen;
            }
            seen |= next;
            frontier = next;
        }
        seen.count_ones() as usize == n
    }

    /// Counts, for each neighbour label of `u`, how many neighbours carry it.
    /// Sorted by label. Used by the NLF candidate filter.
    pub fn neighbor_label_counts(&self, u: QueryVertexId) -> Vec<(Label, u32)> {
        let mut out: Vec<(Label, u32)> = Vec::new();
        for v in self.neighbors(u) {
            let l = self.label(v);
            match out.iter_mut().find(|(ol, _)| *ol == l) {
                Some((_, c)) => *c += 1,
                None => out.push((l, 1)),
            }
        }
        out.sort_unstable_by_key(|&(l, _)| l);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn u(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    /// The paper's Fig. 1(a) query: A-B, A-C, B-C, C-D (labels A,B,C,D).
    fn fig1_query() -> QueryGraph {
        QueryGraph::new(
            vec![l(0), l(1), l(2), l(3)],
            &[(0, 1), (0, 2), (1, 2), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn fig1_structure() {
        let q = fig1_query();
        assert_eq!(q.vertex_count(), 4);
        assert_eq!(q.edge_count(), 4);
        assert!(q.has_edge(u(0), u(1)));
        assert!(q.has_edge(u(1), u(0)));
        assert!(!q.has_edge(u(0), u(3)));
        assert_eq!(q.degree(u(2)), 3);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(QueryGraph::new(vec![], &[]), Err(QueryError::Empty));
    }

    #[test]
    fn rejects_disconnected() {
        let r = QueryGraph::new(vec![l(0), l(1), l(2)], &[(0, 1)]);
        assert_eq!(r, Err(QueryError::Disconnected));
    }

    #[test]
    fn rejects_self_loop() {
        let r = QueryGraph::new(vec![l(0), l(1)], &[(0, 0), (0, 1)]);
        assert_eq!(r, Err(QueryError::SelfLoop(0)));
    }

    #[test]
    fn rejects_unknown_vertex() {
        let r = QueryGraph::new(vec![l(0), l(1)], &[(0, 5)]);
        assert_eq!(r, Err(QueryError::UnknownVertex(5)));
    }

    #[test]
    fn rejects_oversized() {
        let labels = vec![l(0); MAX_QUERY_VERTICES + 1];
        let edges: Vec<_> = (0..MAX_QUERY_VERTICES).map(|i| (i, i + 1)).collect();
        assert_eq!(
            QueryGraph::new(labels, &edges),
            Err(QueryError::TooManyVertices(MAX_QUERY_VERTICES + 1))
        );
    }

    #[test]
    fn duplicate_edges_merged() {
        let q = QueryGraph::new(vec![l(0), l(1)], &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(q.edge_count(), 1);
    }

    #[test]
    fn neighbors_ascending() {
        let q = fig1_query();
        let ns: Vec<_> = q.neighbors(u(2)).collect();
        assert_eq!(ns, vec![u(0), u(1), u(3)]);
    }

    #[test]
    fn neighbor_label_counts() {
        let q = QueryGraph::new(vec![l(5), l(1), l(1), l(2)], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(q.neighbor_label_counts(u(0)), vec![(l(1), 2), (l(2), 1)]);
    }

    #[test]
    fn single_vertex_is_connected() {
        let q = QueryGraph::new(vec![l(0)], &[]).unwrap();
        assert!(q.is_connected());
        assert_eq!(q.vertex_count(), 1);
    }
}
