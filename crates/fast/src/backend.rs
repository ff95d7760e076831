//! Execution backends: one synchronous `execute` call between a prepared
//! partition and a device.
//!
//! [`prepare_partitions`](crate::prepare_partitions) streams
//! [`PartitionJob`]s — self-contained, independently matchable CSTs with
//! their `W_CST` workload estimates — and stops there: *executing* a
//! partition is policy. This module names that policy as a trait so a
//! serving layer can multiplex one partition stream over a heterogeneous
//! fleet:
//!
//! * [`FpgaBackend`] — the emulated kernel path (Section VI): runs
//!   [`run_kernel`] and prices the partition through the variant's cycle
//!   model at the device's clock. This is the exact execution + pricing
//!   path `run_fast` uses (the host driver routes through the same
//!   backend), so a pool of `FpgaBackend`s is bit-identical to the
//!   one-shot flow.
//! * [`CpuBackend`] — the host fallback: one engine,
//!   [`matching::run_backtrack`] over the partition CST (intersection
//!   extension), in both collect modes — collection only adds a sink — so
//!   a partition is priced through the calibrated [`CpuCostModel`] from the
//!   same search counters whether or not its embeddings are collected.
//!   (The FAST-SHARE CPU share of `run_fast` is a different engine under
//!   the same cost model: it runs [`cst::enumerate_embeddings`], which
//!   visits the same embeddings in the same order.) A partition CST
//!   encodes its embeddings exactly, so CPU and FPGA execution of the same
//!   partition agree bit-for-bit (`tests/prop_backend.rs`).
//!
//! Both report a **modelled execution time** in seconds — the common
//! currency a shortest-expected-completion scheduler needs to price
//! devices with different cost models against each other (kernel cycles
//! at one clock are incomparable with nanoseconds-per-partial on a Xeon).

use crate::config::FastConfig;
use crate::host::PartitionJob;
use crate::kernel::{run_kernel, CollectMode, KernelOutput};
use crate::plan::KernelPlan;
use crate::variants::Variant;
use cst::Cst;
use fpga_sim::{CycleModel, FpgaSpec, WorkloadCounts};
use graph_core::{Graph, MatchingOrder, QueryGraph, VertexId};
use matching::{run_backtrack, run_backtrack_with_sink, CpuCostModel, ExtensionMethod, RunLimits};
use std::sync::{Arc, OnceLock};

/// Lifetime count of partition executions across every in-process
/// backend, by class — registered once, bumped with one relaxed atomic.
fn exec_counter(class: BackendClass) -> &'static Arc<obs::Counter> {
    static FPGA: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    static CPU: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    match class {
        BackendClass::Fpga => FPGA.get_or_init(|| {
            obs::counter(
                "obs_fpga_partitions_total",
                "Partitions executed on emulated FPGA backends",
            )
        }),
        BackendClass::Cpu => CPU.get_or_init(|| {
            obs::counter(
                "obs_cpu_partitions_total",
                "Partitions executed on CPU backends",
            )
        }),
    }
}

/// Per-session context shared by every partition execution: derived once
/// by the caller (tree/order/kernel plan), borrowed by each
/// [`ExecutionBackend::execute`] call.
pub struct QueryCtx<'a> {
    pub query: &'a QueryGraph,
    pub graph: &'a Graph,
    pub order: &'a MatchingOrder,
    pub kernel_plan: &'a KernelPlan,
    pub collect: CollectMode,
}

/// What kind of device a backend models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendClass {
    /// An emulated FPGA card (kernel + cycle model).
    #[default]
    Fpga,
    /// A host CPU share (backtracking search + CPU cost model).
    Cpu,
}

impl std::fmt::Display for BackendClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendClass::Fpga => write!(f, "fpga"),
            BackendClass::Cpu => write!(f, "cpu"),
        }
    }
}

/// Static description of a backend device, for pool reports and for the
/// serving layer's partition sizing (heterogeneous FPGA fleets must cut
/// partitions that fit the *smallest* card).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSpec {
    pub class: BackendClass,
    /// BRAM capacity constraining CST partitions; `usize::MAX` for CPU
    /// backends (host memory is not the partitioning constraint).
    pub bram_bytes: usize,
    /// Device clock (FPGA) in MHz; 0 for CPU backends.
    pub clock_mhz: f64,
    /// Worker threads the backend models (1 for FPGA kernels).
    pub threads: usize,
}

/// Why a backend failed to execute a partition. The taxonomy is the
/// recovery policy's vocabulary: a serving layer retries
/// [`Transient`](Self::Transient) / [`Corrupted`](Self::Corrupted) /
/// [`Stalled`](Self::Stalled) failures (ideally on a different device) and
/// evicts the device on [`Permanent`](Self::Permanent) ones.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// A one-off failure (dropped DMA transfer, ECC hiccup): the same
    /// partition may well succeed on retry, even on the same device.
    Transient(String),
    /// The device is gone (bitstream wedged, card off the bus): no future
    /// call on this backend can succeed.
    Permanent(String),
    /// The backend *detected* a corrupted result (checksum mismatch on the
    /// readback path). Silent corruption — a bit-flip the device cannot
    /// see — surfaces as a wrong `Ok` output instead and is only caught by
    /// cross-checking against a second backend.
    Corrupted(String),
    /// The call ran past the watchdog: the kernel is presumed hung and the
    /// partition must be re-executed elsewhere.
    Stalled {
        /// The watchdog budget that expired, in seconds.
        watchdog_sec: f64,
    },
}

impl BackendError {
    /// Whether the device itself is dead (vs the single call having
    /// failed): permanent errors evict, everything else retries.
    pub fn is_permanent(&self) -> bool {
        matches!(self, BackendError::Permanent(_))
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Transient(msg) => write!(f, "transient device error: {msg}"),
            BackendError::Permanent(msg) => write!(f, "permanent device failure: {msg}"),
            BackendError::Corrupted(msg) => write!(f, "corrupted result: {msg}"),
            BackendError::Stalled { watchdog_sec } => {
                write!(f, "kernel stalled past the {watchdog_sec:.3} s watchdog")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Result of executing one partition on one backend.
#[derive(Debug, Clone, Default)]
pub struct BackendOutput {
    /// Embeddings found in the partition — identical across backends.
    pub embeddings: u64,
    /// Collected embeddings when [`CollectMode::Collect`] asks for them.
    pub collected: Vec<Vec<VertexId>>,
    /// Modelled kernel cycles (FPGA backends; 0 for CPU execution).
    pub kernel_cycles: u64,
    /// Modelled execution seconds under the backend's own cost model —
    /// the scheduler's common currency.
    pub modeled_sec: f64,
}

/// One device's execution + pricing policy. Implementations must be
/// deterministic in `(job, ctx)`: the serving layer's bit-identity
/// guarantees rest on every backend reporting the same `embeddings` for
/// the same partition.
pub trait ExecutionBackend: Send + Sync {
    /// Static device description.
    fn spec(&self) -> BackendSpec;

    /// A-priori modelled seconds per unit of `W_CST` workload — the
    /// scheduler's price before any completion calibrates the device.
    /// Derived by charging one partial expansion + one edge check through
    /// the backend's own cost model, so heterogeneous devices start from
    /// comparable (if rough) prices.
    fn prior_sec_per_workload(&self) -> f64;

    /// Executes `job`'s partition to the end. Execution is fallible: a
    /// real device sees transient errors, hangs, and corrupted readback —
    /// a [`BackendError`] names the failure mode so the serving layer can
    /// retry, reroute, or evict. The in-process backends below never fail;
    /// [`crate::fault::FaultInjector`] wraps any backend with a seeded
    /// fault schedule for tests and chaos figures.
    fn execute(
        &self,
        job: &PartitionJob,
        ctx: &QueryCtx<'_>,
    ) -> Result<BackendOutput, BackendError>;
}

/// The emulated-FPGA backend: [`run_kernel`] plus the variant's cycle
/// model. Extracted from the host driver (`fast::host` routes every
/// offloaded partition through [`FpgaBackend::run`] /
/// [`FpgaBackend::price_cycles`]), so serving pools and `run_fast` share
/// one execution path.
#[derive(Debug, Clone)]
pub struct FpgaBackend {
    spec: FpgaSpec,
    model: CycleModel,
    variant: Variant,
}

impl FpgaBackend {
    /// A backend on `config`'s device spec, variant, and stage latencies.
    pub fn from_config(config: &FastConfig) -> Self {
        FpgaBackend {
            spec: config.spec.clone(),
            model: config.cycle_model(),
            variant: config.variant,
        }
    }

    /// The device spec this backend emulates.
    pub fn fpga_spec(&self) -> &FpgaSpec {
        &self.spec
    }

    /// Runs the emulated kernel on one partition CST, returning the full
    /// kernel detail (the host driver aggregates rounds/memory traffic;
    /// the trait path keeps only the summary).
    pub fn run(&self, cst: &Cst, plan: &KernelPlan, collect: CollectMode) -> KernelOutput {
        run_kernel(cst, plan, self.spec.no, collect)
    }

    /// Prices a kernel run's workload counters through this variant's
    /// cycle model.
    pub fn price_cycles(&self, counts: WorkloadCounts) -> u64 {
        self.variant.kernel_cycles(&self.model, counts)
    }
}

impl ExecutionBackend for FpgaBackend {
    fn spec(&self) -> BackendSpec {
        BackendSpec {
            class: BackendClass::Fpga,
            bram_bytes: self.spec.bram_bytes,
            clock_mhz: self.spec.clock_mhz,
            threads: 1,
        }
    }

    fn prior_sec_per_workload(&self) -> f64 {
        let unit = self.price_cycles(WorkloadCounts { n: 1, m: 1 });
        self.spec.cycles_to_sec(unit)
    }

    fn execute(
        &self,
        job: &PartitionJob,
        ctx: &QueryCtx<'_>,
    ) -> Result<BackendOutput, BackendError> {
        let mut span = obs::span_cat("execute", "exec");
        span.arg_str("backend", "fpga");
        span.arg_u64("partition", job.index as u64);
        let out = self.run(&job.cst, ctx.kernel_plan, ctx.collect);
        let kernel_cycles = self.price_cycles(out.counts);
        span.arg_u64("embeddings", out.embeddings);
        span.arg_u64("cycles", kernel_cycles);
        // Why this partition cost what it did, without a re-run.
        span.arg_u64("n", out.counts.n);
        span.arg_u64("m", out.counts.m);
        span.arg_u64("rounds", out.rounds);
        span.arg_u64("visited_rejections", out.visited_rejections);
        span.arg_u64("edge_rejections", out.edge_rejections);
        exec_counter(BackendClass::Fpga).inc();
        Ok(BackendOutput {
            embeddings: out.embeddings,
            collected: out.collected,
            kernel_cycles,
            modeled_sec: self.spec.cycles_to_sec(kernel_cycles),
        })
    }
}

/// The CPU fallback backend: the backtracking search over the partition
/// CST (intersection extension), priced through [`CpuCostModel`] — the
/// model `run_fast` prices its CPU share with — under the contention-aware
/// parallel speedup of `threads` host workers.
#[derive(Debug, Clone)]
pub struct CpuBackend {
    threads: usize,
    cost: CpuCostModel,
}

impl CpuBackend {
    /// A backend modelling `threads` host workers (clamped to ≥ 1) under
    /// the default calibrated cost model.
    pub fn new(threads: usize) -> Self {
        CpuBackend {
            threads: threads.max(1),
            cost: CpuCostModel::default(),
        }
    }

    /// Modelled host workers.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl ExecutionBackend for CpuBackend {
    fn spec(&self) -> BackendSpec {
        BackendSpec {
            class: BackendClass::Cpu,
            bram_bytes: usize::MAX,
            clock_mhz: 0.0,
            threads: self.threads,
        }
    }

    fn prior_sec_per_workload(&self) -> f64 {
        (self.cost.ns_per_partial + self.cost.ns_per_edge_check) * 1e-9
            / self.cost.parallel_speedup(self.threads)
    }

    fn execute(
        &self,
        job: &PartitionJob,
        ctx: &QueryCtx<'_>,
    ) -> Result<BackendOutput, BackendError> {
        let mut span = obs::span_cat("execute", "exec");
        span.arg_str("backend", "cpu");
        span.arg_u64("partition", job.index as u64);
        exec_counter(BackendClass::Cpu).inc();
        let (q, g, cst, order) = (ctx.query, ctx.graph, &*job.cst, ctx.order);
        let (method, limits) = (ExtensionMethod::Intersection, RunLimits::unlimited());
        let mut collected = Vec::new();
        let (_, stats) = match ctx.collect {
            CollectMode::CountOnly => run_backtrack(q, g, cst, order, method, &limits),
            // The search counts every embedding (the count must stay
            // exact); collection alone is capped.
            CollectMode::Collect(cap) => {
                let mut sink = |row: &[VertexId]| {
                    if collected.len() < cap {
                        collected.push(row.to_vec());
                    }
                };
                run_backtrack_with_sink(q, g, cst, order, method, &limits, &mut sink)
            }
        };
        Ok(BackendOutput {
            embeddings: stats.embeddings,
            collected,
            kernel_cycles: 0,
            modeled_sec: self.cost.parallel_search_time_sec(&stats, self.threads),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare_partitions;
    use graph_core::{generators::random_labelled_graph, path_based_order, select_root, BfsTree, Label, QueryGraph};

    fn triangle() -> QueryGraph {
        QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(1)],
            &[(0, 1), (1, 2), (0, 2)],
        )
        .unwrap()
    }

    /// Streams the query's partitions through `backend`, summing counts.
    fn run_on(backend: &dyn ExecutionBackend, collect: CollectMode) -> (u64, usize, f64) {
        let q = triangle();
        let g = random_labelled_graph(60, 0.25, 2, 97);
        let mut config = FastConfig::test_small(Variant::Sep);
        config.collect = collect;
        let root = select_root(&q, &g);
        let tree = BfsTree::new(&q, root);
        let order = path_based_order(&q, &tree, &g);
        let kernel_plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let ctx = QueryCtx {
            query: &q,
            graph: &g,
            order: &order,
            kernel_plan: &kernel_plan,
            collect: config.collect,
        };
        let (mut embeddings, mut partitions, mut modeled) = (0u64, 0usize, 0.0f64);
        prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
            let out = backend.execute(&job, &ctx).expect("fault-free backend");
            embeddings += out.embeddings;
            partitions += 1;
            modeled += out.modeled_sec;
        });
        (embeddings, partitions, modeled)
    }

    #[test]
    fn cpu_and_fpga_backends_agree_per_partition() {
        let config = FastConfig::test_small(Variant::Sep);
        let fpga = FpgaBackend::from_config(&config);
        let cpu = CpuBackend::new(8);
        let (ef, pf, sf) = run_on(&fpga, CollectMode::CountOnly);
        let (ec, pc, sc) = run_on(&cpu, CollectMode::CountOnly);
        assert_eq!(ef, ec, "backends disagree on embeddings");
        assert_eq!(pf, pc, "partition streams must be identical");
        assert!(ef > 0, "degenerate instance");
        assert!(sf > 0.0 && sc > 0.0, "both backends price their work");
    }

    #[test]
    fn collect_mode_caps_collection_not_count() {
        let cpu = CpuBackend::new(2);
        let (counted, _, _) = run_on(&cpu, CollectMode::CountOnly);
        let q = triangle();
        let g = random_labelled_graph(60, 0.25, 2, 97);
        let mut config = FastConfig::test_small(Variant::Sep);
        config.collect = CollectMode::Collect(1);
        let root = select_root(&q, &g);
        let tree = BfsTree::new(&q, root);
        let order = path_based_order(&q, &tree, &g);
        let kernel_plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let ctx = QueryCtx {
            query: &q,
            graph: &g,
            order: &order,
            kernel_plan: &kernel_plan,
            collect: config.collect,
        };
        let mut embeddings = 0u64;
        prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
            let out = cpu.execute(&job, &ctx).expect("fault-free backend");
            assert!(out.collected.len() <= 1);
            embeddings += out.embeddings;
        });
        assert_eq!(embeddings, counted, "capping collection must not cap counting");
    }

    /// One engine, one price: on every partition of a few benchmark
    /// queries, counting and collecting everything report the same count
    /// and bit-equal modelled seconds, and the collected rows are
    /// `cst::enumerate_embeddings`' rows in the same order.
    #[test]
    fn collect_and_count_book_the_same_price() {
        let g = graph_core::generators::generate_ldbc(
            &graph_core::generators::LdbcParams::with_scale_factor(0.05),
            42,
        );
        let config = FastConfig::test_small(Variant::Sep);
        let cpu = CpuBackend::new(4);
        let mut checked = 0usize;
        for qi in [0, 1, 4, 8] {
            let q = graph_core::benchmark_query(qi);
            let tree = BfsTree::new(&q, select_root(&q, &g));
            let order = path_based_order(&q, &tree, &g);
            let kernel_plan = KernelPlan::new(&q, &order, &tree).unwrap();
            let ctx = |collect| QueryCtx {
                query: &q,
                graph: &g,
                order: &order,
                kernel_plan: &kernel_plan,
                collect,
            };
            prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
                let counted = cpu.execute(&job, &ctx(CollectMode::CountOnly)).unwrap();
                let all = cpu
                    .execute(&job, &ctx(CollectMode::Collect(usize::MAX)))
                    .unwrap();
                assert_eq!(counted.embeddings, all.embeddings, "q{qi}");
                assert_eq!(
                    counted.modeled_sec.to_bits(),
                    all.modeled_sec.to_bits(),
                    "q{qi}: collecting changed the price"
                );
                let mut rows = Vec::new();
                cst::enumerate_embeddings(&job.cst, &q, &order, |row| {
                    rows.push(row.to_vec());
                    true
                });
                assert_eq!(all.collected, rows, "q{qi}");
                checked += rows.len();
            });
        }
        assert!(checked > 0, "degenerate instance");
    }

    #[test]
    fn priors_are_positive_and_finite() {
        let fpga = FpgaBackend::from_config(&FastConfig::default());
        let cpu = CpuBackend::new(8);
        for prior in [fpga.prior_sec_per_workload(), cpu.prior_sec_per_workload()] {
            assert!(prior > 0.0 && prior.is_finite(), "{prior}");
        }
        assert_eq!(fpga.spec().class, BackendClass::Fpga);
        assert_eq!(cpu.spec().class, BackendClass::Cpu);
        assert_eq!(cpu.spec().threads, 8);
        assert_eq!(CpuBackend::new(0).threads(), 1, "threads clamp to 1");
    }
}
