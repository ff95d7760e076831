//! # matching
//!
//! CPU subgraph-matching baselines for the FAST reproduction — the
//! algorithms the paper compares against in Fig. 14/15:
//!
//! * [`Baseline::Cfl`] — CFL-Match-style: CPI-like index, core-forest-leaf
//!   order, edge verification backed by an adjacency-matrix memory model
//!   (the structure that makes CFL go OOM on billion-scale graphs);
//! * [`Baseline::Daf`] — DAF-style: CS index (extra refinement), candidate-
//!   size-first order, intersection-based extension;
//! * [`Baseline::Ceci`] — CECI-style: BFS-tree index, intersection-based;
//! * [`run_baseline_parallel`] — the `DAF-8`/`CECI-8` root-sharded variants;
//! * [`vf2_count`] — a VF2-style oracle used by tests across the workspace.
//!
//! All runs honour [`RunLimits`] (timeout → `INF`, memory cap → `OOM`),
//! mirroring the paper's reporting.

pub mod baselines;
pub mod cost_model;
pub mod engine;
pub mod limits;
pub mod parallel;
pub mod vf2;

pub use baselines::{
    baseline_extension, baseline_order, modelled_memory_bytes, run_baseline, Baseline,
    BASELINE_INDEX_OPTIONS,
};
pub use cost_model::{CpuCostModel, GpuCostModel};
pub use engine::{
    run_backtrack, run_backtrack_with_sink, AnchorPolicy, EngineStats, ExtensionMethod,
};
pub use limits::{MatchResult, Outcome, RunLimits};
pub use parallel::run_baseline_parallel;
pub use vf2::vf2_count;
