//! # cst
//!
//! The **candidate search tree** (CST) of the FAST paper (ICDE 2021),
//! Section V — the host-side auxiliary structure that serves as a complete,
//! partitionable search space for subgraph matching:
//!
//! * [`Cst`] — candidate sets per query vertex plus CSR adjacency for every
//!   directed query edge (Definition 2);
//! * [`build_cst`] — Algorithm 1 (top-down construction, bottom-up
//!   refinement, non-tree edges), with configurable pruning strength
//!   ([`CstOptions`]);
//! * [`partition_cst`] — Algorithm 2, greedy or fixed-`k` (Fig. 8);
//! * [`estimate_workload`] — the `W_CST` dynamic program (Section V-C);
//! * [`intersect`] — seeking and k-way intersection of sorted adjacency
//!   lists ([`seek`], [`intersect_each`]) and the sibling-run count at a
//!   cycle-closing last depth ([`count_run`]), shared by the emulated kernel
//!   and the CPU engine;
//! * [`cache`] — cache-key derivation for a query's build ([`PlanKey`]):
//!   every host flow builds one CST per query, a pure function of
//!   `(q, g, CstOptions)`, so a serving layer can key its cache on the
//!   query's fingerprint, a graph epoch and the build options.

pub mod cache;
pub mod construct;
pub mod filter;
pub mod intersect;
pub mod partition;
pub mod structure;
pub mod workload;

pub use cache::{query_fingerprint, Fingerprint, PlanKey, ShardPlanner, DEFAULT_SHARDS};
pub use construct::{build_cst, build_cst_with_stats, BuildStats, CstOptions};
pub use filter::CandidateFilter;
pub use intersect::{count_run, intersect_each, seek};
pub use partition::{
    fits, partition_cst, partition_cst_into, partition_cst_owned, partition_cst_with_steal,
    shard_at_vertex, Oversized, PartitionConfig, PartitionStats,
};
pub use structure::{CsrAdj, Cst};
pub use workload::{estimate_workload, WorkloadEstimate};

/// Test-only oracle: the embeddings a CST encodes, counted by plain
/// backtracking over the CST alone (Theorem 1). The product search is
/// `matching::engine`, which this crate cannot depend on.
#[cfg(test)]
mod testing {
    use crate::Cst;
    use graph_core::{MatchingOrder, QueryGraph, QueryVertexId};

    pub(crate) fn count_matches(cst: &Cst, q: &QueryGraph, order: &MatchingOrder) -> u64 {
        extend(cst, q, order, &mut Vec::with_capacity(order.len()))
    }

    /// Embeddings below the partial `mapping` (candidate index per depth).
    fn extend(cst: &Cst, q: &QueryGraph, order: &MatchingOrder, mapping: &mut Vec<u32>) -> u64 {
        let depth = mapping.len();
        if depth == order.len() {
            return 1;
        }
        let u = order.vertex_at(depth);
        let backward: Vec<(QueryVertexId, u32)> = order
            .backward_neighbors(q, u)
            .into_iter()
            .map(|b| (b, mapping[order.position_of(b)]))
            .collect();
        let expansions: Vec<u32> = match backward.first() {
            Some(&(b, i)) => cst.neighbors(b, i, u).to_vec(),
            None => (0..cst.candidate_count(u) as u32).collect(),
        };
        let mut count = 0;
        for j in expansions {
            let v = cst.candidate(u, j);
            let visited = (0..depth).any(|d| cst.candidate(order.vertex_at(d), mapping[d]) == v);
            if visited
                || !backward
                    .iter()
                    .all(|&(b, i)| cst.has_candidate_edge(b, i, u, j))
            {
                continue;
            }
            mapping.push(j);
            count += extend(cst, q, order, mapping);
            mapping.pop();
        }
        count
    }
}
