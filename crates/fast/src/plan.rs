//! The kernel's per-depth expansion plan.
//!
//! Precomputed from the query, matching order, and BFS tree: at each depth
//! the Generator expands from one **anchor** backward neighbour (the tree
//! parent when available, matching Algorithm 5's `C(u)` fetch), and the Edge
//! Validator checks the remaining backward neighbours (the non-tree
//! neighbours `u_n` of Algorithm 7).

use graph_core::{BfsTree, MatchingOrder, QueryGraph, QueryVertexId};

/// Maximum query vertices the kernel supports. Partial results are stored in
/// fixed-width registers on the FPGA; 16 comfortably covers the paper's 4-6
/// vertex workloads while keeping a partial result's mapping at 64 bytes
/// (a buffer slot is [`PARTIAL_SLOT_BYTES`](crate::kernel::PARTIAL_SLOT_BYTES)
/// with its level and resume-offset words).
pub const MAX_KERNEL_QUERY: usize = 16;

/// Per-depth expansion metadata.
#[derive(Debug, Clone)]
pub struct DepthPlan {
    /// Query vertex matched at this depth.
    pub vertex: QueryVertexId,
    /// Depth of the anchor backward neighbour (expansion source).
    pub anchor_depth: usize,
    /// Depths of the backward neighbours requiring edge validation.
    pub validate_depths: Vec<usize>,
}

/// Full kernel plan.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    depths: Vec<DepthPlan>,
    root: QueryVertexId,
}

/// Errors raised while building a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Query exceeds [`MAX_KERNEL_QUERY`] vertices.
    QueryTooLarge(usize),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::QueryTooLarge(n) => {
                write!(
                    f,
                    "query has {n} vertices; kernel supports {MAX_KERNEL_QUERY}"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl KernelPlan {
    /// Builds the plan. The anchor at each depth is the BFS-tree parent when
    /// it precedes the vertex in the order (always true for tree-respecting
    /// orders like the paper's path-based order), otherwise the earliest
    /// backward neighbour.
    pub fn new(q: &QueryGraph, order: &MatchingOrder, tree: &BfsTree) -> Result<Self, PlanError> {
        let n = q.vertex_count();
        if n > MAX_KERNEL_QUERY {
            return Err(PlanError::QueryTooLarge(n));
        }
        let mut depths = Vec::with_capacity(n);
        for d in 0..n {
            let u = order.vertex_at(d);
            let backward: Vec<usize> = order
                .backward_neighbors(q, u)
                .iter()
                .map(|&b| order.position_of(b))
                .collect();
            let anchor_depth = if d == 0 {
                0
            } else {
                let parent_depth = tree
                    .parent(u)
                    .map(|p| order.position_of(p))
                    .filter(|&pd| pd < d);
                parent_depth.unwrap_or_else(|| {
                    *backward
                        .iter()
                        .min()
                        .expect("connected order has an anchor")
                })
            };
            let validate_depths = backward
                .into_iter()
                .filter(|&bd| bd != anchor_depth)
                .collect();
            depths.push(DepthPlan {
                vertex: u,
                anchor_depth,
                validate_depths,
            });
        }
        Ok(KernelPlan {
            depths,
            root: order.first(),
        })
    }

    /// Number of depths (query vertices).
    #[inline]
    pub fn len(&self) -> usize {
        self.depths.len()
    }

    /// Whether the plan is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.depths.is_empty()
    }

    /// The plan for depth `d`.
    #[inline]
    pub fn depth(&self, d: usize) -> &DepthPlan {
        &self.depths[d]
    }

    /// The root query vertex (depth 0).
    #[inline]
    pub fn root(&self) -> QueryVertexId {
        self.root
    }

    /// Total edge-validation fan-out per complete expansion — the static
    /// component of the `M/N` ratio that drives Equations (3)/(4).
    pub fn total_validations(&self) -> usize {
        self.depths.iter().map(|d| d.validate_depths.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::{Label, QueryGraph};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    fn fig1() -> (QueryGraph, BfsTree, MatchingOrder) {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(2), l(3)],
            &[(0, 1), (0, 2), (1, 2), (2, 3)],
        )
        .unwrap();
        let tree = BfsTree::new(&q, qv(0));
        let order = MatchingOrder::new(&q, vec![qv(0), qv(1), qv(2), qv(3)]).unwrap();
        (q, tree, order)
    }

    #[test]
    fn anchors_follow_tree_parents() {
        let (q, tree, order) = fig1();
        let plan = KernelPlan::new(&q, &order, &tree).unwrap();
        // u1's parent is u0 (depth 0); u2's parent u0; u3's parent u2 (depth 2).
        assert_eq!(plan.depth(1).anchor_depth, 0);
        assert_eq!(plan.depth(2).anchor_depth, 0);
        assert_eq!(plan.depth(3).anchor_depth, 2);
        // u2 additionally validates against u1 (the non-tree edge).
        assert_eq!(plan.depth(2).validate_depths, vec![1]);
        assert!(plan.depth(3).validate_depths.is_empty());
        assert_eq!(plan.total_validations(), 1);
    }

    #[test]
    fn non_tree_anchor_when_parent_follows() {
        // Order that visits u2 before u0 is invalid for tree-parent anchoring
        // only if the parent comes later; use order (u0, u2, u3, u1): u1's
        // parent u0 is at depth 0 — anchor 0; validations to u2 (depth 1).
        let (q, tree, _) = fig1();
        let order = MatchingOrder::new(&q, vec![qv(0), qv(2), qv(3), qv(1)]).unwrap();
        let plan = KernelPlan::new(&q, &order, &tree).unwrap();
        assert_eq!(plan.depth(3).anchor_depth, 0);
        assert_eq!(plan.depth(3).validate_depths, vec![1]);
    }

    #[test]
    fn oversized_query_rejected() {
        let n = MAX_KERNEL_QUERY + 1;
        let labels = vec![l(0); n];
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let q = QueryGraph::new(labels, &edges).unwrap();
        let tree = BfsTree::new(&q, qv(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
        assert_eq!(
            KernelPlan::new(&q, &order, &tree).unwrap_err(),
            PlanError::QueryTooLarge(n)
        );
    }
}
