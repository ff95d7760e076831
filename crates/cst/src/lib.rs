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
//! * [`enumerate_embeddings`] — CST-only backtracking (Theorem 1), the CPU
//!   share's matcher and the kernel's correctness oracle;
//! * [`intersect`] — seeking and k-way intersection of sorted adjacency
//!   lists ([`seek`], [`intersect_each`]) and the sibling-run count at a
//!   cycle-closing last depth ([`count_run`]), shared by the emulated kernel
//!   and the CPU engine;
//! * [`pipeline`] — the sharded, multi-threaded host pipeline: the root
//!   candidate set cut into contiguous equal-count shards ([`ShardPlan`]),
//!   shard CSTs built on worker threads and streamed in shard order into
//!   the partitioner ([`for_each_shard_cst`]) so device offload overlaps
//!   construction;
//! * [`cache`] — cache-key derivation for shard plans ([`PlanKey`]): a
//!   plan is a pure function of `(q, g, tree, options)`, so a serving
//!   layer can key its caches on the query/tree fingerprint, a graph
//!   epoch, and the plan-relevant options and replay a plan on repeats
//!   ([`for_each_shard_cst_planned`]).

pub mod cache;
pub mod construct;
pub mod enumerate;
pub mod filter;
pub mod intersect;
pub mod partition;
pub mod pipeline;
pub mod structure;
pub mod workload;

pub use construct::{
    build_cst, build_cst_from_roots, build_cst_with_stats, root_candidates, BuildStats, CstOptions,
};
pub use enumerate::{
    count_embeddings, enumerate_embeddings, EnumerationStats, MatchPlan,
};
pub use filter::CandidateFilter;
pub use intersect::{count_run, intersect_each, seek};
pub use partition::{
    fits, partition_cst, partition_cst_into, partition_cst_with_steal, shard_at_vertex,
    PartitionConfig, PartitionStats,
};
pub use cache::{plan_provenance, query_fingerprint, Fingerprint, PlanKey};
pub use pipeline::{
    for_each_shard_cst, for_each_shard_cst_planned, plan_pipeline_shards, PipelineOptions,
    PipelineStats, ShardCst, ShardPlan, ShardPlanner, ShardReport, DEFAULT_SHARDS,
};
pub use structure::{CsrAdj, Cst};
pub use workload::{estimate_workload, WorkloadEstimate};
