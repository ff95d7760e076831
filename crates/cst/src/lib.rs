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
//!   lists ([`seek`], [`intersect_each`]), shared by the emulated kernel and
//!   the CPU engine;
//! * [`pipeline`] — the sharded, multi-threaded host pipeline: shard CSTs
//!   built on worker threads and merged ([`build_cst_sharded`]) or streamed
//!   in shard order into the partitioner ([`for_each_shard_cst`]) so device
//!   offload overlaps construction;
//! * [`planner`] — workload-aware shard planning for that pipeline: one
//!   probe, then per query the shard count and the cut (contiguous or
//!   hub-clustered) with the lowest modelled prepare time ([`ShardPlan`]);
//! * [`cache`] — cache-key derivation for shard plans ([`PlanKey`]): a
//!   plan is a pure function of `(q, g, tree, options)`, so a serving
//!   layer can key a plan cache on the query/tree fingerprint, a graph
//!   epoch, and the plan-relevant options and skip the probe on repeats
//!   ([`for_each_shard_cst_planned`]).

pub mod cache;
pub mod construct;
pub mod enumerate;
pub mod filter;
pub mod intersect;
pub mod partition;
pub mod pipeline;
pub mod planner;
pub mod structure;
pub mod workload;

pub use construct::{
    build_cst, build_cst_from_roots, build_cst_seeded, build_cst_with_stats, root_candidates,
    BuildStats, CstOptions, TopDownSeed,
};
pub use enumerate::{
    count_embeddings, enumerate_embeddings, EnumerationStats, MatchPlan,
};
pub use filter::CandidateFilter;
pub use intersect::{intersect_each, seek};
pub use partition::{
    fits, partition_cst, partition_cst_into, partition_cst_with_steal, shard_at_vertex,
    PartitionConfig, PartitionStats,
};
pub use cache::{plan_provenance, query_fingerprint, Fingerprint, PlanKey};
pub use pipeline::{
    build_cst_sharded, for_each_shard_cst, for_each_shard_cst_planned,
    merge_shard_csts, PipelineOptions, PipelineStats, ShardCst, ShardReport,
    DEFAULT_SHARDS,
};
pub use planner::{
    estimated_duplication, estimated_partition_ratio, plan_pipeline_shards, plan_shards,
    RootProfile, SeedMasks, ShardPlan, ShardPlanner,
};
pub use structure::{CsrAdj, Cst};
pub use workload::{estimate_workload, WorkloadEstimate};
