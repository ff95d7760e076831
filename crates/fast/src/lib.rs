//! # fast
//!
//! The paper's primary contribution: **FAST**, a CPU-FPGA co-designed
//! subgraph matching framework (ICDE 2021), with the FPGA side
//! software-emulated (see `fpga-sim` and DESIGN.md §1).
//!
//! ## Quickstart
//!
//! ```
//! use fast::{run_fast, FastConfig};
//! use graph_core::{benchmark_query, generators::{generate_ldbc, LdbcParams}};
//!
//! let g = generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42);
//! let q = benchmark_query(0);
//! let report = run_fast(&q, &g, &FastConfig::default()).unwrap();
//! println!("{} embeddings in {:.3} ms (modelled)",
//!          report.embeddings, report.modeled_total_sec() * 1e3);
//! ```
//!
//! ## Architecture
//!
//! * [`plan`] / [`kernel`] — the matching kernel (Algorithms 4-8):
//!   Generator, Visited Validator, Edge Validator, Synchronizer over the
//!   BRAM-only partial-results buffer;
//! * [`variants`] — FAST-DRAM/BASIC/TASK/SEP/SHARE and their cycle models;
//! * [`scheduler`] — the CPU-share scheduler (Algorithm 3);
//! * [`host`] — the co-designed driver (Fig. 2): one build → partition →
//!   `W_CST` producer, consumed by [`run_fast`] (Algorithm 3),
//!   [`run_multi_fpga`] (least-booked card) and, through
//!   [`prepare_partitions`], a serving layer's device pool;
//! * [`backend`] — the [`ExecutionBackend`] trait: one synchronous
//!   `execute` per partition plus cost-model pricing (emulated FPGA or
//!   CPU fallback), the unit a heterogeneous serving pool schedules;
//!   execution is fallible ([`BackendError`]) so a serving layer can
//!   retry and reroute;
//! * [`fault`] — [`FaultInjector`]: a deterministic seeded fault-injecting
//!   wrapper backend (transient errors, permanent death, stalls, silent
//!   corruption, slowdowns) for the chaos tests;
//! * [`multi_fpga`] — the Section VII-E extension: [`prepare_partitions`]
//!   with a least-booked-card sink;
//! * [`des_check`] — discrete-event cross-validation of the cycle model.

pub mod backend;
pub mod config;
pub mod des_check;
pub mod fault;
pub mod host;
pub mod kernel;
pub mod multi_fpga;
pub mod plan;
pub mod scheduler;
pub mod variants;

pub use backend::{
    BackendClass, BackendError, BackendOutput, BackendSpec, CpuBackend, ExecutionBackend,
    FpgaBackend, QueryCtx,
};
pub use config::FastConfig;
pub use fault::{FaultCounters, FaultInjector, FaultPlan};
pub use cst::ShardPlanner;
pub use host::{
    prepare_partitions, run_fast, run_fast_with_order, FastError, FastReport, PartitionJob,
    PreparePhase, PreparedCsts,
};
pub use kernel::{run_kernel, CollectMode, KernelOutput, PARTIAL_SLOT_BYTES};
pub use multi_fpga::{run_multi_fpga, MultiFpgaReport};
pub use plan::{KernelPlan, PlanError, MAX_KERNEL_QUERY};
pub use scheduler::{Assignment, ShareScheduler};
pub use variants::Variant;
