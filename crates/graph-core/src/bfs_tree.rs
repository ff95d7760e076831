//! BFS spanning trees of query graphs.
//!
//! Following the paper (Section V-A), the query graph is first transformed
//! into a BFS spanning tree `t_q`. Edges of `q` that are in `t_q` are *tree
//! edges*; the rest are *non-tree edges*, and their endpoints are *non-tree
//! neighbours*. The CST inherits the parent/child structure of `t_q` and adds
//! adjacency lists for non-tree edges (Definition 2).

use crate::query::QueryGraph;
use crate::types::QueryVertexId;

/// A BFS spanning tree of a [`QueryGraph`].
#[derive(Debug, Clone)]
pub struct BfsTree {
    root: QueryVertexId,
    /// `parent[u]` is `u`'s tree parent; `None` for the root.
    parent: Vec<Option<QueryVertexId>>,
    /// Children of each vertex, in BFS discovery order.
    children: Vec<Vec<QueryVertexId>>,
    /// All query vertices in BFS discovery order (root first).
    bfs_order: Vec<QueryVertexId>,
    /// BFS depth of each vertex (root = 0).
    depth: Vec<u32>,
    /// For each vertex `u`, its non-tree neighbours: `(u, un) ∈ E(q)` but
    /// `(u, un) ∉ E(t_q)`, sorted ascending.
    non_tree_neighbors: Vec<Vec<QueryVertexId>>,
}

impl BfsTree {
    /// Builds the BFS tree of `q` rooted at `root`.
    ///
    /// Neighbours are visited in ascending vertex order, making the tree
    /// deterministic for a given root.
    pub fn new(q: &QueryGraph, root: QueryVertexId) -> Self {
        let n = q.vertex_count();
        assert!(root.index() < n, "root {root:?} out of range");

        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut depth = vec![0u32; n];
        let mut bfs_order = Vec::with_capacity(n);
        let mut visited = vec![false; n];

        let mut queue = std::collections::VecDeque::with_capacity(n);
        visited[root.index()] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            bfs_order.push(u);
            for v in q.neighbors(u) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    parent[v.index()] = Some(u);
                    depth[v.index()] = depth[u.index()] + 1;
                    children[u.index()].push(v);
                    queue.push_back(v);
                }
            }
        }
        debug_assert_eq!(bfs_order.len(), n, "query must be connected");

        // Non-tree neighbours: adjacent in q but not parent/child in t_q.
        let mut non_tree_neighbors = vec![Vec::new(); n];
        for &(a, b) in q.edges() {
            let tree_edge = parent[a.index()] == Some(b) || parent[b.index()] == Some(a);
            if !tree_edge {
                non_tree_neighbors[a.index()].push(b);
                non_tree_neighbors[b.index()].push(a);
            }
        }
        for list in &mut non_tree_neighbors {
            list.sort_unstable();
        }

        BfsTree {
            root,
            parent,
            children,
            bfs_order,
            depth,
            non_tree_neighbors,
        }
    }

    /// The tree root.
    #[inline]
    pub fn root(&self) -> QueryVertexId {
        self.root
    }

    /// `u`'s tree parent (`None` for the root).
    #[inline]
    pub fn parent(&self, u: QueryVertexId) -> Option<QueryVertexId> {
        self.parent[u.index()]
    }

    /// `u`'s tree children in BFS discovery order.
    #[inline]
    pub fn children(&self, u: QueryVertexId) -> &[QueryVertexId] {
        &self.children[u.index()]
    }

    /// Whether `u` is a leaf of the tree.
    #[inline]
    pub fn is_leaf(&self, u: QueryVertexId) -> bool {
        self.children[u.index()].is_empty()
    }

    /// BFS depth of `u` (root = 0).
    #[inline]
    pub fn depth(&self, u: QueryVertexId) -> u32 {
        self.depth[u.index()]
    }

    /// All vertices in BFS discovery order (top-down order of Algorithm 1).
    #[inline]
    pub fn bfs_order(&self) -> &[QueryVertexId] {
        &self.bfs_order
    }

    /// All vertices in reverse BFS order (bottom-up order of Algorithm 1).
    pub fn bottom_up_order(&self) -> impl Iterator<Item = QueryVertexId> + '_ {
        self.bfs_order.iter().rev().copied()
    }

    /// `u`'s non-tree neighbours (sorted ascending).
    #[inline]
    pub fn non_tree_neighbors(&self, u: QueryVertexId) -> &[QueryVertexId] {
        &self.non_tree_neighbors[u.index()]
    }

    /// Whether the tree edge `(parent(u), u)` exists — i.e. `u` is not root.
    #[inline]
    pub fn is_tree_edge(&self, a: QueryVertexId, b: QueryVertexId) -> bool {
        self.parent[a.index()] == Some(b) || self.parent[b.index()] == Some(a)
    }

    /// Number of non-tree edges in the query (each counted once).
    pub fn non_tree_edge_count(&self) -> usize {
        self.non_tree_neighbors.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Root-to-leaf paths of the tree, each as a vertex sequence starting at
    /// the root. Paths are enumerated in DFS order over children.
    ///
    /// These are the units the paper's path-based matching order (Section
    /// V-B) permutes.
    pub fn root_to_leaf_paths(&self) -> Vec<Vec<QueryVertexId>> {
        let mut paths = Vec::new();
        let mut stack = vec![(self.root, vec![self.root])];
        while let Some((u, path)) = stack.pop() {
            if self.is_leaf(u) {
                paths.push(path);
            } else {
                // Push children reversed so DFS emits them in natural order.
                for &c in self.children(u).iter().rev() {
                    let mut p = path.clone();
                    p.push(c);
                    stack.push((c, p));
                }
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Label;

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn u(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    /// Fig. 1(a): u0(A)-u1(B), u0-u2(C), u1-u2, u2-u3(D); BFS from u0.
    fn fig1_tree() -> (QueryGraph, BfsTree) {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(2), l(3)],
            &[(0, 1), (0, 2), (1, 2), (2, 3)],
        )
        .unwrap();
        let t = BfsTree::new(&q, u(0));
        (q, t)
    }

    #[test]
    fn fig1_tree_structure() {
        // Matches the paper's Fig. 3(a): u1, u2 children of u0; u3 child of u2;
        // (u1, u2) is the non-tree edge.
        let (_, t) = fig1_tree();
        assert_eq!(t.root(), u(0));
        assert_eq!(t.parent(u(1)), Some(u(0)));
        assert_eq!(t.parent(u(2)), Some(u(0)));
        assert_eq!(t.parent(u(3)), Some(u(2)));
        assert_eq!(t.children(u(0)), &[u(1), u(2)]);
        assert!(t.is_leaf(u(1)));
        assert!(t.is_leaf(u(3)));
        assert_eq!(t.non_tree_neighbors(u(1)), &[u(2)]);
        assert_eq!(t.non_tree_neighbors(u(2)), &[u(1)]);
        assert_eq!(t.non_tree_edge_count(), 1);
    }

    #[test]
    fn bfs_order_starts_at_root_and_respects_parents() {
        let (_, t) = fig1_tree();
        let order = t.bfs_order();
        assert_eq!(order[0], u(0));
        let pos = |x: QueryVertexId| order.iter().position(|&y| y == x).unwrap();
        for &v in order {
            if let Some(p) = t.parent(v) {
                assert!(pos(p) < pos(v), "parent must precede child in BFS order");
            }
        }
    }

    #[test]
    fn depths() {
        let (_, t) = fig1_tree();
        assert_eq!(t.depth(u(0)), 0);
        assert_eq!(t.depth(u(1)), 1);
        assert_eq!(t.depth(u(2)), 1);
        assert_eq!(t.depth(u(3)), 2);
    }

    #[test]
    fn root_to_leaf_paths_cover_all_leaves() {
        let (_, t) = fig1_tree();
        let paths = t.root_to_leaf_paths();
        assert_eq!(paths.len(), 2);
        assert!(paths.contains(&vec![u(0), u(1)]));
        assert!(paths.contains(&vec![u(0), u(2), u(3)]));
    }

    #[test]
    fn tree_edge_classification() {
        let (_, t) = fig1_tree();
        assert!(t.is_tree_edge(u(0), u(1)));
        assert!(t.is_tree_edge(u(2), u(0)));
        assert!(!t.is_tree_edge(u(1), u(2)));
    }

    #[test]
    fn different_root_changes_tree() {
        let (q, _) = fig1_tree();
        let t = BfsTree::new(&q, u(3));
        assert_eq!(t.root(), u(3));
        assert_eq!(t.parent(u(2)), Some(u(3)));
        // u0 and u1 both hang off u2; edge (u0, u1) becomes non-tree.
        assert_eq!(t.parent(u(0)), Some(u(2)));
        assert_eq!(t.parent(u(1)), Some(u(2)));
        assert_eq!(t.non_tree_neighbors(u(0)), &[u(1)]);
    }

    #[test]
    fn cycle_has_expected_non_tree_edges() {
        // 5-cycle: BFS tree from 0 leaves exactly one non-tree edge.
        let q = QueryGraph::new(vec![l(0); 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let t = BfsTree::new(&q, u(0));
        assert_eq!(t.non_tree_edge_count(), 1);
    }
}
