//! Workload estimation (paper Section V-C, Example 4).
//!
//! `W_CST` is the number of embeddings in the CST *ignoring false positives*
//! (non-tree edges and injectivity): a bottom-up dynamic program over the
//! BFS tree. For each candidate `v ∈ C(u)`,
//!
//! ```text
//! c_u(v) = Π_{u_c ∈ children(u)} Σ_{v' ∈ N^u_{u_c}(v)} c_{u_c}(v')
//! ```
//!
//! with `c_u(v) = 1` at leaves, and `W_CST = Σ_{v ∈ C(root)} c_root(v)`.
//!
//! Counts grow multiplicatively (the paper's graphs reach 10^11 embeddings),
//! so the DP runs in `f64`; the scheduler only compares magnitudes.

use crate::structure::{CsrAdj, Cst};
use graph_core::{BfsTree, QueryVertexId};

/// Result of the workload DP.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEstimate {
    /// `W_CST`: total estimated embeddings in the CST.
    pub total: f64,
    /// `c_root(v)` per root candidate — the per-root workload split used by
    /// workload-aware multi-FPGA assignment (Section VII-E).
    pub per_root_candidate: Vec<f64>,
}

/// Estimates `W_CST` for `cst` under the spanning tree `tree`.
pub fn estimate_workload(cst: &Cst, tree: &BfsTree) -> WorkloadEstimate {
    estimate(
        cst.query_vertex_count(),
        |u| cst.candidate_count(u),
        tree,
        |u, child| TreeLists::Down(cst.adjacency(u, child)),
    )
}

/// The adjacency the DP reads for one tree edge `u → u_c`: either
/// direction gives the same bits. A whole CST is read `Down`: scattering
/// its `Up` lists instead measured 20–25 % slower (the sums go through
/// memory, not a register). The partitioner's half nodes hold only `Up`
/// under the path-based order.
pub(crate) enum TreeLists<'a> {
    /// `N^u_{u_c}`: one ascending list per candidate of `u`, each summed
    /// with `Iterator::sum`.
    Down(&'a CsrAdj),
    /// `N^{u_c}_u`: one list per candidate of `u_c`. The sums are scattered
    /// from them, each starting at the zero `Iterator::sum` starts from
    /// and adding the same terms in the same ascending order.
    Up(&'a CsrAdj),
}

/// The `W_CST` DP over `n` query vertices with `count(u)` candidates each,
/// reading each tree edge through whichever direction `lists` returns.
pub(crate) fn estimate<'a>(
    n: usize,
    count: impl Fn(QueryVertexId) -> usize,
    tree: &BfsTree,
    lists: impl Fn(QueryVertexId, QueryVertexId) -> TreeLists<'a>,
) -> WorkloadEstimate {
    let zero: f64 = std::iter::empty::<f64>().sum();
    // c[u][i] for the i-th candidate of u; filled bottom-up.
    let mut c: Vec<Vec<f64>> = (0..n).map(|_| Vec::new()).collect();
    let mut sums: Vec<f64> = Vec::new();

    for u in tree.bottom_up_order() {
        let count = count(u);
        let mut values = vec![1.0f64; count];
        // A product stops at its first zero (multiplying on could turn
        // `-0.0` into `+0.0`), so a value that reached zero is skipped.
        for &child in tree.children(u) {
            let below = &c[child.index()];
            match lists(u, child) {
                TreeLists::Down(adj) => {
                    for (i, value) in values.iter_mut().enumerate() {
                        if *value != 0.0 {
                            let sum: f64 =
                                adj.neighbors(i).iter().map(|&j| below[j as usize]).sum();
                            *value *= sum;
                        }
                    }
                }
                TreeLists::Up(adj) => {
                    sums.clear();
                    sums.resize(count, zero);
                    for (j, &value) in below.iter().enumerate() {
                        for &i in adj.neighbors(j) {
                            sums[i as usize] += value;
                        }
                    }
                    for (value, &sum) in values.iter_mut().zip(&sums) {
                        if *value != 0.0 {
                            *value *= sum;
                        }
                    }
                }
            }
        }
        c[u.index()] = values;
    }

    let per_root_candidate = std::mem::take(&mut c[tree.root().index()]);
    WorkloadEstimate {
        total: per_root_candidate.iter().sum(),
        per_root_candidate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::CsrAdj;
    use graph_core::{Label, QueryGraph, QueryVertexId, VertexId};

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    fn dv(x: u32) -> VertexId {
        VertexId::new(x)
    }

    /// Reconstruction of the paper's Example 4 (Fig. 4(a)/(d)):
    /// tree u0 → {u1, u2}, u1 → u3;
    /// C(u0)={v1,v2}, C(u1)={v3,v4,v5}, C(u2)={v6,v7,v8}, C(u3)={v9,v10};
    /// edges chosen so that c_{u1} = [1,2,1], c_{u0} = [4,3], W = 7.
    fn example4() -> (QueryGraph, BfsTree, Cst) {
        let q = QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(2), Label::new(3)],
            &[(0, 1), (0, 2), (1, 3)],
        )
        .unwrap();
        let tree = BfsTree::new(&q, qv(0));
        let mk = |offsets: Vec<u32>, targets: Vec<u32>| CsrAdj { offsets, targets };
        let candidates = vec![
            vec![dv(1), dv(2)],
            vec![dv(3), dv(4), dv(5)],
            vec![dv(6), dv(7), dv(8)],
            vec![dv(9), dv(10)],
        ];
        let pairs = vec![
            // u0→u1: v1:{v3,v5}, v2:{v3,v4}
            ((qv(0), qv(1)), mk(vec![0, 2, 4], vec![0, 2, 0, 1])),
            ((qv(1), qv(0)), mk(vec![0, 2, 3, 4], vec![0, 1, 1, 0])),
            // u0→u2: v1:{v6,v8}, v2:{v7}
            ((qv(0), qv(2)), mk(vec![0, 2, 3], vec![0, 2, 1])),
            ((qv(2), qv(0)), mk(vec![0, 1, 2, 3], vec![0, 1, 0])),
            // u1→u3: v3:{v9}, v4:{v9,v10}, v5:{v10}
            ((qv(1), qv(3)), mk(vec![0, 1, 3, 4], vec![0, 0, 1, 1])),
            ((qv(3), qv(1)), mk(vec![0, 2, 4], vec![0, 1, 1, 2])),
        ];
        let cst = Cst::from_parts(4, candidates, pairs);
        (q, tree, cst)
    }

    #[test]
    fn example4_total_is_seven() {
        let (_, tree, cst) = example4();
        let w = estimate_workload(&cst, &tree);
        assert_eq!(w.per_root_candidate, vec![4.0, 3.0]);
        assert_eq!(w.total, 7.0);
    }

    #[test]
    fn empty_candidate_set_gives_zero() {
        let (_, tree, cst) = {
            let (q, tree, _) = example4();
            // CST with an empty leaf candidate set.
            let mk = |offsets: Vec<u32>, targets: Vec<u32>| CsrAdj { offsets, targets };
            let candidates = vec![vec![dv(1)], vec![dv(3)], vec![dv(6)], vec![]];
            let pairs = vec![
                ((qv(0), qv(1)), mk(vec![0, 1], vec![0])),
                ((qv(1), qv(0)), mk(vec![0, 1], vec![0])),
                ((qv(0), qv(2)), mk(vec![0, 1], vec![0])),
                ((qv(2), qv(0)), mk(vec![0, 1], vec![0])),
                ((qv(1), qv(3)), mk(vec![0, 0], vec![])),
                ((qv(3), qv(1)), mk(vec![0], vec![])),
            ];
            (q, tree, Cst::from_parts(4, candidates, pairs))
        };
        let w = estimate_workload(&cst, &tree);
        assert_eq!(w.total, 0.0);
    }

    #[test]
    fn single_vertex_query_counts_candidates() {
        let q = QueryGraph::new(vec![Label::new(0)], &[]).unwrap();
        let tree = BfsTree::new(&q, qv(0));
        let cst = Cst::from_parts(1, vec![vec![dv(0), dv(1), dv(2)]], vec![]);
        let w = estimate_workload(&cst, &tree);
        assert_eq!(w.total, 3.0);
    }

    #[test]
    fn workload_matches_tree_embedding_count_on_built_cst() {
        // For a *tree* query, W_CST ignoring injectivity must equal the
        // number of homomorphic tree embeddings, which we can count by DP
        // over the data graph directly.
        use crate::construct::build_cst;
        use graph_core::generators::random_labelled_graph;
        let q = QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(1)],
            &[(0, 1), (0, 2)],
        )
        .unwrap();
        let g = random_labelled_graph(30, 0.3, 2, 5);
        let tree = BfsTree::new(&q, qv(0));
        let cst = build_cst(&q, &g, &tree);
        let w = estimate_workload(&cst, &tree);

        // Independent count: for each data vertex with label 0, (number of
        // label-1 neighbours)² — but restricted to CST candidates, which for
        // star queries equals the candidate-filtered sets.
        let mut expected = 0.0f64;
        for (i, &v) in cst.candidates(qv(0)).iter().enumerate() {
            let d1 = cst.neighbors(qv(0), i as u32, qv(1)).len() as f64;
            let d2 = cst.neighbors(qv(0), i as u32, qv(2)).len() as f64;
            let _ = v;
            expected += d1 * d2;
        }
        assert_eq!(w.total, expected);
    }
}
