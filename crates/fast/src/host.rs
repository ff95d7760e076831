//! The host-side driver: the full CPU-FPGA co-designed flow of Fig. 2.
//!
//! 1. construct the CST (Section V-A, measured on the real CPU) — either
//!    sequentially or on the sharded multi-threaded pipeline
//!    (`cst::pipeline`, enabled by [`FastConfig::host_threads`] > 1);
//! 2. partition it to fit the kernel's BRAM budget (Section V-B);
//! 3. offload partitions over the modelled PCIe link and run the emulated
//!    kernel on each (Section VI), while FAST-SHARE books a bounded share of
//!    partitions to the CPU (Algorithm 3) and steals oversized CSTs to skip
//!    partitioning work;
//! 4. aggregate embeddings and derive elapsed time.
//!
//! # Timing model
//!
//! Host-side work (CST construction, partitioning, the CPU matching share)
//! is both *measured* on this machine and *modelled* on the paper's Xeon via
//! [`matching::CpuCostModel`], so that the end-to-end number is
//! hardware-consistent with the modelled 300 MHz kernel (see cost_model
//! docs). The paper overlaps partitioning with kernel execution (partitions
//! stream to the card as they are produced); the sharded pipeline
//! additionally overlaps *construction* with both. The generalised elapsed
//! model with `T` host threads and `S` shards is
//!
//! ```text
//! build_par = build / (T · e)          # e = parallel efficiency; T=1 ⇒ build
//! fill      = build_par / S            # first shard ready; nothing overlaps it
//! host      = fill + max(build_par − fill, partition) + cpu_share
//! device    = fill + transfer + kernel
//! elapsed   = max(host, device)
//! ```
//!
//! With `T = S = 1` this degenerates exactly to the paper's
//! `build + max(partition + cpu_share, transfer + kernel)`. The `fill` term
//! is the pipeline's startup latency: the device cannot receive its first
//! partition before the first shard CST exists, and the host's partition
//! stream runs concurrently with the remaining `build_par − fill` of
//! construction. Derivation and calibration live in EXPERIMENTS.md.

use crate::backend::FpgaBackend;
use crate::config::FastConfig;
use crate::kernel::{CollectMode, KernelOutput};
use crate::plan::{KernelPlan, PlanError};
use crate::scheduler::ShareScheduler;
use crate::variants::Variant;
use cst::{
    build_cst_with_stats, estimate_workload, for_each_shard_cst_cached, partition_cst_into,
    partition_cst_with_steal, CachedShards, Cst, PartitionConfig, ShardPlan, ShardPlanner,
};
use fpga_sim::WorkloadCounts;
use graph_core::{path_based_order, select_root, BfsTree, Graph, MatchingOrder, QueryGraph, VertexId};
use matching::CpuCostModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors from a FAST run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastError {
    /// The query exceeds the kernel's register budget.
    Plan(PlanError),
    /// `FpgaSpec::no == 0`: with no per-round expansion budget `N_o` the
    /// kernel can never drain its buffer.
    ZeroRoundBudget,
}

impl std::fmt::Display for FastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastError::Plan(e) => write!(f, "{e}"),
            FastError::ZeroRoundBudget => write!(f, "device round budget N_o must be >= 1"),
        }
    }
}

impl std::error::Error for FastError {}

impl From<PlanError> for FastError {
    fn from(e: PlanError) -> Self {
        FastError::Plan(e)
    }
}

/// Complete report of one co-designed run.
#[derive(Debug, Clone)]
pub struct FastReport {
    /// Variant executed.
    pub variant: Variant,
    /// Total embeddings (FPGA + CPU shares).
    pub embeddings: u64,
    /// Collected embeddings if requested (FPGA-side only).
    pub collected: Vec<Vec<VertexId>>,
    /// FPGA-side workload counters (`N`, `M`).
    pub counts: WorkloadCounts,
    /// Number of CST partitions offloaded to the FPGA.
    pub fpga_partitions: usize,
    /// Number of partitions (or stolen oversized CSTs) run on the CPU.
    pub cpu_partitions: usize,
    /// Oversized CSTs the CPU stole before splitting (FAST-SHARE only).
    pub stolen: usize,
    /// Partitions emitted despite violating thresholds (should be 0).
    pub forced: usize,
    /// Estimated workloads booked per side.
    pub workload_cpu: f64,
    pub workload_fpga: f64,
    /// Host threads used by the CST pipeline (1 = sequential flow).
    pub host_threads: usize,
    /// Shards the root candidate set was split into (1 = unsharded). Under
    /// [`ShardPlanner::Auto`] this is the planner's per-query choice.
    pub pipeline_shards: usize,
    /// Shard-boundary planner of the pipelined flow (`Contiguous` for the
    /// sequential flow).
    pub shard_planner: ShardPlanner,
    /// The executed plan's estimated interior-candidate duplication over
    /// the probed 1-hop frontiers (1.0 for contiguous/sequential plans).
    pub planned_duplication: f64,
    /// Measured wall time of shard planning (root probe + boundary
    /// search); zero for the contiguous planner.
    pub plan_time: Duration,
    /// Planning work normalised to the paper's Xeon (probe entries at the
    /// streaming `ns_per_partition_entry` rate). Reported alongside — not
    /// inside — the overlapped prepare model, the same treatment as
    /// matching-order selection and `KernelPlan` construction (planning is
    /// one scan of the root adjacency, orders of magnitude below build).
    /// When every shard build was seeded from the probe, this work is
    /// *absorbed* — see [`FastReport::modeled_plan_overhead_sec`].
    pub modeled_plan_sec: f64,
    /// Shards built from the probe's memoised candidate space
    /// (`cst::build_cst_seeded`); 0 when builds ran cold (contiguous
    /// planner, seeding disabled, or the sequential flow). Either 0 or
    /// equal to [`pipeline_shards`](Self::pipeline_shards).
    pub seeded_shards: usize,
    /// Shards replayed from a tier-2 artifact ([`FastConfig::prepared`])
    /// instead of built — 0 or [`pipeline_shards`](Self::pipeline_shards):
    /// an artifact is trusted whole (provenance + full coverage) or not at
    /// all. Cached shards do no top-down, refinement, or materialisation
    /// work, so they contribute nothing to the build walls or
    /// [`build_topdown_entries`](Self::build_topdown_entries).
    pub cached_shards: usize,
    /// Phase-1 top-down scan work across shard builds (neighbour visits,
    /// each a filter evaluation — the same unit as the probe's
    /// `probe_entries`). 0 when every shard was seeded: the probe's single
    /// pass replaced the per-shard scans. Deterministic (a pure function of
    /// the inputs), unlike the measured walls — the `hostscale` figure's
    /// seeded-vs-cold assertion compares this.
    pub build_topdown_entries: usize,
    /// Measured wall time deriving per-shard seeds from the probe (the
    /// integer mask sweep); zero for cold builds.
    pub seed_time: Duration,
    /// Measured wall time of the CST build phase (first shard started →
    /// last shard finished; equals the full build for the sequential flow).
    pub build_time: Duration,
    /// Total CPU time spent building shard CSTs. Exceeds
    /// [`build_time`](Self::build_time) when threads overlap; exceeds the
    /// sequential build when sharding duplicates interior candidates.
    pub build_cpu_time: Duration,
    /// Measured host time: partitioning (including workload estimation).
    pub partition_time: Duration,
    /// Measured host time: CPU-share matching.
    pub cpu_match_time: Duration,
    /// Measured wall time of the whole host preparation (build overlapped
    /// with partition/offload), excluding the inline emulated kernel.
    pub host_prepare_wall: Duration,
    /// Measured wall time until the first partition was offloaded (the
    /// device's idle prefix; falls back to the build wall when every
    /// partition landed on the CPU).
    pub first_offload_wall: Duration,
    /// Host times normalised to the paper's Xeon (see `CpuCostModel`).
    /// `modeled_build_sec` is the *total* construction work (all shards).
    pub modeled_build_sec: f64,
    /// Construction work divided over the pipeline's effective threads.
    pub modeled_build_parallel_sec: f64,
    /// Modelled pipeline fill latency (first shard CST ready).
    pub modeled_fill_sec: f64,
    pub modeled_partition_sec: f64,
    pub modeled_cpu_match_sec: f64,
    /// Modelled kernel cycles (all FPGA partitions, this variant's model).
    pub kernel_cycles: u64,
    /// Modelled kernel seconds at the device clock.
    pub kernel_time_sec: f64,
    /// Modelled PCIe transfer seconds (CST offload + result fetch).
    pub transfer_time_sec: f64,
    /// Bytes moved over PCIe.
    pub transfer_bytes: usize,
    /// Kernel execution detail (rounds, memory traffic), aggregated.
    pub rounds: u64,
    pub cst_reads: u64,
    pub buffer_writes: u64,
    /// Total size of all offloaded partitions (S_CST of Fig. 9).
    pub cst_bytes_total: usize,
    /// Wall-clock time of the whole emulated run (host measurement).
    pub wall_time: Duration,
}

impl FastReport {
    /// Modelled planning seconds **not** absorbed by seeded shard builds.
    /// When every shard started from the probe's candidate space, the probe
    /// *was* the builds' top-down pass — charging it on top of the build
    /// (whose calibrated per-entry rate includes the top-down share) would
    /// double-count, so the overhead is 0. With cold builds the probe is
    /// pure extra work and the full [`modeled_plan_sec`](Self::modeled_plan_sec)
    /// is charged. DESIGN.md §7 derives this split.
    pub fn modeled_plan_overhead_sec(&self) -> f64 {
        if self.pipeline_shards > 0 && self.seeded_shards == self.pipeline_shards {
            0.0
        } else {
            self.modeled_plan_sec
        }
    }

    /// The modelled end-to-end elapsed time (seconds) under the overlapped
    /// regime (module docs): host work on the paper's Xeon plus
    /// kernel/transfer time on the modelled card. For the sequential flow
    /// this is exactly the paper's
    /// `build + max(partition + cpu_share, transfer + kernel)`.
    pub fn modeled_total_sec(&self) -> f64 {
        let host = self.modeled_fill_sec
            + (self.modeled_build_parallel_sec - self.modeled_fill_sec)
                .max(self.modeled_partition_sec)
            + self.modeled_cpu_match_sec;
        let device = self.modeled_fill_sec + self.transfer_time_sec + self.kernel_time_sec;
        host.max(device)
    }

    /// Like [`FastReport::modeled_total_sec`] but with host work *measured*
    /// on this machine instead of normalised: the measured overlapped
    /// preparation wall plus the CPU share, against the device side gated
    /// by the measured time-to-first-offload.
    pub fn measured_total_sec(&self) -> f64 {
        let host = self.host_prepare_wall.as_secs_f64() + self.cpu_match_time.as_secs_f64();
        let device =
            self.first_offload_wall.as_secs_f64() + self.transfer_time_sec + self.kernel_time_sec;
        host.max(device)
    }
}

/// Runs the co-designed framework on `(q, g)`.
pub fn run_fast(q: &QueryGraph, g: &Graph, config: &FastConfig) -> Result<FastReport, FastError> {
    let root = select_root(q, g);
    let tree = BfsTree::new(q, root);
    let order = path_based_order(q, &tree, g);
    run_fast_with_tree(q, g, config, &tree, &order)
}

/// Runs FAST with an explicit matching order (Fig. 15's order-sensitivity
/// experiment injects CFL/DAF/CECI/random orders here).
pub fn run_fast_with_order(
    q: &QueryGraph,
    g: &Graph,
    config: &FastConfig,
    order: &MatchingOrder,
) -> Result<FastReport, FastError> {
    // The BFS tree must be rooted at the order's first vertex so that the
    // CST parent structure is compatible with the order.
    let tree = BfsTree::new(q, order.first());
    run_fast_with_tree(q, g, config, &tree, order)
}

fn run_fast_with_tree(
    q: &QueryGraph,
    g: &Graph,
    config: &FastConfig,
    tree: &BfsTree,
    order: &MatchingOrder,
) -> Result<FastReport, FastError> {
    config.validate()?;
    if config.host_threads > 1 {
        run_fast_pipelined(q, g, config, tree, order)
    } else {
        let wall_start = Instant::now();
        let build_start = Instant::now();
        let (cst, build_stats) = build_cst_with_stats(q, g, tree, config.cst_options);
        let build_time = build_start.elapsed();
        run_fast_with_prepared(
            q,
            config,
            tree,
            order,
            &cst,
            &build_stats,
            build_time,
            wall_start,
        )
    }
}

/// Shared partition/offload/schedule state (Fig. 2 steps 2/3/5). Both the
/// sequential flow (one whole CST) and the pipelined flow (one call per
/// shard CST, in shard order) drive partitions through
/// [`OffloadState::partition_and_offload`]; the kernel is invoked inline
/// per partition — its *time* is modelled, not measured, so inline
/// execution is equivalent to streaming.
struct OffloadState<'a> {
    config: &'a FastConfig,
    /// The FPGA execution backend: the emulated kernel plus this variant's
    /// cycle pricing. Serving pools run the same backend (`fast::backend`),
    /// so the one-shot and served paths cannot drift.
    backend: FpgaBackend,
    plan: &'a KernelPlan,
    tree: &'a BfsTree,
    prepare_start: Instant,
    scheduler: ShareScheduler,
    cpu_queue: Vec<Cst>,
    fpga_outputs: Vec<KernelOutput>,
    transfer_bytes: usize,
    cst_bytes_total: usize,
    stolen: usize,
    stolen_entries: usize,
    forced: usize,
    /// Inline (emulated) kernel execution time, excluded from host times.
    kernel_wall: Duration,
    /// Wall timestamp of the first FPGA offload.
    first_offload: Option<Duration>,
}

impl<'a> OffloadState<'a> {
    fn new(config: &'a FastConfig, plan: &'a KernelPlan, tree: &'a BfsTree) -> Self {
        let delta = if config.variant.shares_with_cpu() {
            config.delta
        } else {
            0.0
        };
        OffloadState {
            config,
            backend: FpgaBackend::from_config(config),
            plan,
            tree,
            prepare_start: Instant::now(),
            scheduler: ShareScheduler::new(delta),
            cpu_queue: Vec::new(),
            fpga_outputs: Vec::new(),
            transfer_bytes: 0,
            cst_bytes_total: 0,
            stolen: 0,
            stolen_entries: 0,
            forced: 0,
            kernel_wall: Duration::ZERO,
            first_offload: None,
        }
    }

    /// Partitions one CST, booking each partition to a side (Algorithm 3)
    /// and running the kernel inline on FPGA-bound ones. Partitions booked
    /// to the CPU are cached and processed after the partition phase
    /// (Section V-C: "CST is temporarily cached and will be processed when
    /// all partition procedure finishes").
    fn partition_and_offload(
        &mut self,
        cst: &Cst,
        order: &MatchingOrder,
        partition_config: &PartitionConfig,
    ) {
        // Both hooks mutate the same scheduling state; the partitioner takes
        // them as two independent `&mut dyn FnMut`, so share via RefCell.
        let shared = std::cell::RefCell::new(&mut *self);
        let mut steal = |oversized: &Cst| -> bool {
            let mut s = shared.borrow_mut();
            if !s.config.variant.shares_with_cpu() {
                return false;
            }
            let w = estimate_workload(oversized, s.tree).total;
            if s.scheduler.would_assign_cpu(w) {
                s.scheduler.book_cpu(w);
                s.stolen_entries += oversized.total_adjacency_entries();
                s.cpu_queue.push(oversized.clone());
                true
            } else {
                false
            }
        };
        let mut sink = |partition: Cst| {
            let mut s = shared.borrow_mut();
            let s = &mut **s;
            let w = estimate_workload(&partition, s.tree).total;
            match s.scheduler.assign(w) {
                crate::scheduler::Assignment::Cpu => s.cpu_queue.push(partition),
                crate::scheduler::Assignment::Fpga => {
                    let bytes = partition.size_bytes();
                    s.transfer_bytes += bytes;
                    s.cst_bytes_total += bytes;
                    if s.first_offload.is_none() {
                        s.first_offload =
                            Some(s.prepare_start.elapsed().saturating_sub(s.kernel_wall));
                    }
                    let t0 = Instant::now();
                    let out = s.backend.run(&partition, s.plan, s.config.collect);
                    s.kernel_wall += t0.elapsed();
                    s.fpga_outputs.push(out);
                }
            }
        };
        let stats = partition_cst_with_steal(cst, order, partition_config, &mut steal, &mut sink);
        self.stolen += stats.stolen;
        self.forced += stats.forced;
    }
}

/// Runs the sequential (unsharded) flow on a pre-built CST.
#[allow(clippy::too_many_arguments)]
fn run_fast_with_prepared(
    q: &QueryGraph,
    config: &FastConfig,
    tree: &BfsTree,
    order: &MatchingOrder,
    cst: &Cst,
    build_stats: &cst::BuildStats,
    build_time: Duration,
    wall_start: Instant,
) -> Result<FastReport, FastError> {
    let cpu_cost = CpuCostModel::default();
    let plan = KernelPlan::new(q, order, tree)?;
    let partition_config = config.partition_config(q.vertex_count(), cst);

    let partition_start = Instant::now();
    let mut state = OffloadState::new(config, &plan, tree);
    state.partition_and_offload(cst, order, &partition_config);
    // Partition time excludes the inline (emulated) kernel execution.
    let partition_time = partition_start.elapsed().saturating_sub(state.kernel_wall);

    // Modelled host times: construction touches every index entry once.
    let modeled_build_sec = cpu_cost.index_time_sec(build_stats.adjacency_entries);
    finish_report(
        q,
        config,
        order,
        state,
        &cpu_cost,
        HostTimes {
            host_threads: 1,
            pipeline_shards: 1,
            shard_planner: ShardPlanner::Contiguous,
            planned_duplication: 1.0,
            plan_time: Duration::ZERO,
            modeled_plan_sec: 0.0,
            seeded_shards: 0,
            cached_shards: 0,
            build_topdown_entries: build_stats.topdown_entries,
            seed_time: Duration::ZERO,
            build_time,
            build_cpu_time: build_time,
            partition_time,
            host_prepare_wall: build_time + partition_time,
            first_offload_wall: build_time,
            modeled_build_sec,
            modeled_build_parallel_sec: modeled_build_sec,
            modeled_fill_sec: modeled_build_sec,
        },
        wall_start,
    )
}

/// Runs the sharded, overlapped flow: shard CSTs built on worker threads
/// stream through the partitioner (in shard order — deterministic for any
/// thread count) while later shards are still being built.
fn run_fast_pipelined(
    q: &QueryGraph,
    g: &Graph,
    config: &FastConfig,
    tree: &BfsTree,
    order: &MatchingOrder,
) -> Result<FastReport, FastError> {
    let wall_start = Instant::now();
    let cpu_cost = CpuCostModel::default();
    let plan = KernelPlan::new(q, order, tree)?;
    let pipe_opts = config.pipeline_options(q.vertex_count());

    let mut state = OffloadState::new(config, &plan, tree);
    let mut partition_cpu = Duration::ZERO;
    let prepare_start = state.prepare_start;
    // Split the borrow: the closure must not capture `state` whole.
    let state_ref = &mut state;
    let cached_plan = config.shard_plan.as_deref();
    // A tier-2 artifact replays its shard CSTs through the pipeline's
    // provenance-validated reuse path; partitioning re-runs under this
    // run's device spec (the one-shot flow owns no partition cache).
    let cached_shards = config.prepared.as_ref().map(|p| p.shard_handles());
    let pipe_stats = for_each_shard_cst_cached(
        q,
        g,
        tree,
        &pipe_opts,
        cached_plan,
        cached_shards.as_ref(),
        |shard| {
            if shard.cst.any_empty() {
                return;
            }
            let t0 = Instant::now();
            let kernel_before = state_ref.kernel_wall;
            // Thresholds derive from each shard's own payload share — the
            // only CST-dependent input — so they too are thread-count
            // independent.
            let partition_config = config.partition_config(q.vertex_count(), &shard.cst);
            state_ref.partition_and_offload(&shard.cst, order, &partition_config);
            partition_cpu += t0.elapsed().saturating_sub(state_ref.kernel_wall - kernel_before);
        },
    );
    let host_prepare_wall = prepare_start.elapsed().saturating_sub(state.kernel_wall);
    let first_offload_wall = state.first_offload.unwrap_or(pipe_stats.build_wall);

    // Modelled build: the pipeline's *total* work (sharding duplicates
    // interior candidates, honestly charged), divided over the
    // contention-adjusted effective threads for the elapsed model.
    let modeled_build_sec = cpu_cost.index_time_sec(pipe_stats.total_adjacency_entries());
    let effective = cpu_cost.parallel_speedup(pipe_stats.threads);
    let modeled_build_parallel_sec = modeled_build_sec / effective;
    let modeled_fill_sec = modeled_build_parallel_sec / pipe_stats.shards.max(1) as f64;
    let modeled_plan_sec = cpu_cost.partition_time_sec(pipe_stats.plan.probe_entries);

    finish_report(
        q,
        config,
        order,
        state,
        &cpu_cost,
        HostTimes {
            host_threads: pipe_stats.threads,
            pipeline_shards: pipe_stats.shards,
            shard_planner: pipe_stats.plan.planner,
            planned_duplication: pipe_stats.plan.estimated_duplication,
            plan_time: pipe_stats.plan_time,
            modeled_plan_sec,
            seeded_shards: pipe_stats.seeded_shards,
            cached_shards: pipe_stats.cached_shards,
            build_topdown_entries: pipe_stats.topdown_entries,
            seed_time: pipe_stats.seed_time,
            build_time: pipe_stats.build_wall,
            build_cpu_time: pipe_stats.build_cpu,
            partition_time: partition_cpu,
            host_prepare_wall,
            first_offload_wall,
            modeled_build_sec,
            modeled_build_parallel_sec,
            modeled_fill_sec,
        },
        wall_start,
    )
}

/// One partition of a session's deterministic partition stream, with its
/// workload estimate — the unit a serving layer dispatches to a device.
#[derive(Debug)]
pub struct PartitionJob {
    /// Position in the partition sequence (shard order, then emission order
    /// within each shard). Identical for every thread count.
    pub index: usize,
    /// The partition: a self-contained, independently matchable CST.
    /// Shared, not owned, so a tier-2 result cache can hand the same
    /// decomposition to every warm session without copying payloads.
    pub cst: Arc<Cst>,
    /// Estimated embeddings (`W_CST`, Section V-C) — the dispatch cost
    /// model a shortest-expected-completion scheduler books per device.
    pub workload: f64,
}

/// One cached partition: the CST plus its (pure-function) workload
/// estimate, so a replay skips the estimation DP too.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// The partition CST.
    pub cst: Arc<Cst>,
    /// Its `W_CST` workload estimate (what the dispatcher books).
    pub workload: f64,
}

/// Everything [`prepare_partitions`] produces that is a pure function of
/// `(q, g, tree, options)`: the refined shard CSTs *and* their partition
/// decomposition. Captured on a build ([`FastConfig::capture_prepared`])
/// and replayed on a later call ([`FastConfig::prepared`]) so a warm
/// session does **no** build or partition work — partitions go straight to
/// dispatch. This is the value of a serving layer's tier-2 result cache,
/// keyed by the same `(cst::PlanKey, graph epoch)` fingerprint as the plan
/// cache; [`payload_bytes`](Self::payload_bytes) is its eviction weight.
#[derive(Debug, Clone)]
pub struct PreparedCsts {
    /// Provenance of the shard plan the artifact was built under
    /// ([`ShardPlan::provenance`]); validates shard-CST reuse on the
    /// pipeline path ([`cst::for_each_shard_cst_cached`]).
    pub provenance: u64,
    /// Query vertex count the artifact was prepared for — the cheap shape
    /// check of the replay path (content trust is the cache key's job).
    pub query_vertices: usize,
    /// The refined shard CSTs, in shard order (empty shards included).
    pub shard_csts: Vec<Arc<Cst>>,
    /// The partition decomposition, in emission order, with workloads.
    pub partitions: Vec<PartitionSpec>,
    /// Shards the plan decomposed the root set into.
    pub pipeline_shards: usize,
}

impl PreparedCsts {
    /// Resident payload bytes of the artifact (candidate sets + adjacency
    /// targets, `Cst::payload_bytes`): shard CSTs plus the partition
    /// copies. The byte-budgeted cache's eviction weight.
    pub fn payload_bytes(&self) -> usize {
        self.shard_csts
            .iter()
            .map(|c| c.payload_bytes())
            .chain(self.partitions.iter().map(|p| p.cst.payload_bytes()))
            .sum()
    }

    /// Whether the artifact's shape matches `q` — the replay path's sanity
    /// check. Replaying trusts the *caller's* keying (PlanKey × epoch) for
    /// content; revalidating content would mean rebuilding, which is
    /// exactly what the artifact exists to skip.
    pub fn matches_query(&self, q: &QueryGraph) -> bool {
        self.query_vertices == q.vertex_count()
            && self
                .shard_csts
                .iter()
                .chain(self.partitions.iter().map(|p| &p.cst))
                .all(|c| c.query_vertex_count() == q.vertex_count())
    }

    /// The shard CSTs as a pipeline replay artifact — the
    /// provenance-*validated* reuse path ([`cst::for_each_shard_cst_cached`])
    /// the one-shot flow takes, where builds are skipped but partitioning
    /// re-runs under the current device spec.
    pub fn shard_handles(&self) -> CachedShards {
        CachedShards {
            provenance: self.provenance,
            shards: self.shard_csts.clone(),
        }
    }
}

/// Summary of the decoupled prepare phase (build + partition, no kernel).
#[derive(Debug, Clone)]
pub struct PreparePhase {
    /// The shard plan the pipeline executed (cached or freshly probed).
    pub shard_plan: ShardPlan,
    /// Wall time of shard planning; ~0 when a cached plan was supplied.
    pub plan_time: Duration,
    /// Wall time deriving per-shard seeds from the plan's probe; 0 for
    /// cold builds.
    pub seed_time: Duration,
    /// Shards built from the probe's memoised candidate space — a cached
    /// plan carries its probe, so a warm-cache session skips the global
    /// top-down scan entirely (0 or [`pipeline_shards`](Self::pipeline_shards)).
    pub seeded_shards: usize,
    /// Phase-1 top-down scan work across shard builds; 0 when every shard
    /// was seeded.
    pub build_topdown_entries: usize,
    /// Shards the root candidate set was split into.
    pub pipeline_shards: usize,
    /// Worker threads the build used.
    pub host_threads: usize,
    /// Wall time of the build phase (first shard started → last finished).
    pub build_wall: Duration,
    /// Total CPU time across shard builds.
    pub build_cpu: Duration,
    /// Wall time spent partitioning shards — **including** time spent
    /// inside the caller's sink (callers running kernels in the sink should
    /// keep their own split).
    pub partition_time: Duration,
    /// Adjacency entries materialised across shard builds.
    pub build_entries: usize,
    /// Partitions handed to the sink.
    pub partitions: usize,
    /// Partitions emitted despite violating thresholds (should be 0).
    pub forced: usize,
    /// Whether the phase replayed a tier-2 artifact ([`FastConfig::prepared`])
    /// instead of building: every timing and work field above is zero and
    /// the partitions went straight to the sink.
    pub cached_csts: bool,
    /// The artifact captured from this build when
    /// [`FastConfig::capture_prepared`] was set — what a serving layer
    /// inserts into its tier-2 cache. `None` on replays (the artifact
    /// already exists) and when capture was off.
    pub prepared: Option<Arc<PreparedCsts>>,
}

/// The prepare phase of Fig. 2 decoupled from execution: builds the CST on
/// the (optionally sharded, pipelined) host path and streams every
/// partition into `sink` with its workload estimate, running **no** kernel
/// and booking **no** CPU share — execution policy belongs to the caller.
/// This is the per-session entry point of the serving layer (`serve`):
/// the caller derives the tree/order once (reusing them for its cache key),
/// and a cached [`ShardPlan`] in [`FastConfig::shard_plan`] skips the
/// probe/boundary search exactly as in [`run_fast`]. The partition
/// sequence is deterministic for every `host_threads` value.
pub fn prepare_partitions(
    q: &QueryGraph,
    g: &Graph,
    config: &FastConfig,
    tree: &BfsTree,
    order: &MatchingOrder,
    sink: &mut dyn FnMut(PartitionJob),
) -> PreparePhase {
    // Tier-2 replay: the artifact *is* the prepare phase's output — stream
    // its partitions straight to the sink. No build, no partitioning, no
    // workload DP; every timing field is exactly zero (not merely small),
    // which is what the warm-path harness asserts. The timer deliberately
    // excludes sink time: kernel execution inside the sink belongs to the
    // caller's execution split, and this loop does no preparation work.
    if let Some(prepared) = config.prepared.as_ref().filter(|p| p.matches_query(q)) {
        for (index, part) in prepared.partitions.iter().enumerate() {
            sink(PartitionJob {
                index,
                cst: Arc::clone(&part.cst),
                workload: part.workload,
            });
        }
        return PreparePhase {
            // Degenerate stand-in: replays never publish their plan (the
            // plan cache was populated by the build that made the artifact).
            shard_plan: ShardPlan::contiguous(0, prepared.pipeline_shards.max(1)),
            plan_time: Duration::ZERO,
            seed_time: Duration::ZERO,
            seeded_shards: 0,
            build_topdown_entries: 0,
            pipeline_shards: prepared.pipeline_shards,
            host_threads: 1,
            build_wall: Duration::ZERO,
            build_cpu: Duration::ZERO,
            partition_time: Duration::ZERO,
            build_entries: 0,
            partitions: prepared.partitions.len(),
            forced: 0,
            cached_csts: true,
            prepared: None,
        };
    }

    let pipe_opts = config.pipeline_options(q.vertex_count());
    let mut partition_time = Duration::ZERO;
    let mut index = 0usize;
    let mut forced = 0usize;
    // Capture state for the tier-2 artifact: every shard CST (empty ones
    // included, so the list length matches the plan's shard count for the
    // pipeline replay path) and every emitted partition with its workload.
    let capture = config.capture_prepared;
    let mut shard_csts: Vec<Arc<Cst>> = Vec::new();
    let mut partitions: Vec<PartitionSpec> = Vec::new();
    let pipe_stats = for_each_shard_cst_cached(
        q,
        g,
        tree,
        &pipe_opts,
        config.shard_plan.as_deref(),
        None,
        |shard| {
            if capture {
                shard_csts.push(Arc::clone(&shard.cst));
            }
            if shard.cst.any_empty() {
                return;
            }
            let t0 = Instant::now();
            let partition_config = config.partition_config(q.vertex_count(), &shard.cst);
            let mut emit = |partition: Cst| {
                let workload = estimate_workload(&partition, tree).total;
                let cst = Arc::new(partition);
                if capture {
                    partitions.push(PartitionSpec {
                        cst: Arc::clone(&cst),
                        workload,
                    });
                }
                sink(PartitionJob {
                    index,
                    cst,
                    workload,
                });
                index += 1;
            };
            let stats = partition_cst_into(&shard.cst, order, &partition_config, &mut emit);
            forced += stats.forced;
            partition_time += t0.elapsed();
        },
    );
    let prepared = capture.then(|| {
        Arc::new(PreparedCsts {
            provenance: pipe_stats.plan.provenance,
            query_vertices: q.vertex_count(),
            shard_csts,
            partitions,
            pipeline_shards: pipe_stats.shards,
        })
    });
    PreparePhase {
        build_entries: pipe_stats.total_adjacency_entries(),
        pipeline_shards: pipe_stats.shards,
        host_threads: pipe_stats.threads,
        build_wall: pipe_stats.build_wall,
        build_cpu: pipe_stats.build_cpu,
        plan_time: pipe_stats.plan_time,
        seed_time: pipe_stats.seed_time,
        seeded_shards: pipe_stats.seeded_shards,
        build_topdown_entries: pipe_stats.topdown_entries,
        shard_plan: pipe_stats.plan,
        partition_time,
        partitions: index,
        forced,
        cached_csts: false,
        prepared,
    }
}

/// Host-side timing summary handed to the report assembler.
struct HostTimes {
    host_threads: usize,
    pipeline_shards: usize,
    shard_planner: ShardPlanner,
    planned_duplication: f64,
    plan_time: Duration,
    modeled_plan_sec: f64,
    seeded_shards: usize,
    cached_shards: usize,
    build_topdown_entries: usize,
    seed_time: Duration,
    build_time: Duration,
    build_cpu_time: Duration,
    partition_time: Duration,
    host_prepare_wall: Duration,
    first_offload_wall: Duration,
    modeled_build_sec: f64,
    modeled_build_parallel_sec: f64,
    modeled_fill_sec: f64,
}

/// Runs the CPU share, aggregates kernel outputs, and assembles the report.
fn finish_report(
    q: &QueryGraph,
    config: &FastConfig,
    order: &MatchingOrder,
    state: OffloadState<'_>,
    cpu_cost: &CpuCostModel,
    times: HostTimes,
    wall_start: Instant,
) -> Result<FastReport, FastError> {
    let OffloadState {
        backend,
        scheduler,
        cpu_queue,
        fpga_outputs,
        transfer_bytes,
        cst_bytes_total,
        stolen,
        stolen_entries,
        forced,
        ..
    } = state;

    // --- Host: CPU share matching (Fig. 2 step 5). ---
    let cpu_match_start = Instant::now();
    let mut cpu_embeddings = 0u64;
    let mut cpu_share_ns = 0.0f64;
    for partition in &cpu_queue {
        let stats = cst::enumerate_embeddings(partition, q, order, |_| true);
        cpu_embeddings += stats.embeddings;
        cpu_share_ns += stats.partials_generated as f64 * cpu_cost.ns_per_partial
            + stats.edge_validations as f64 * cpu_cost.ns_per_edge_check;
    }
    let cpu_match_time = cpu_match_start.elapsed();
    // The host's matching share runs on all cores (the paper's 8-core Xeon
    // is idle once partitioning finishes); apply the contention-aware
    // parallel model — the memory-bound search steps serialise on the
    // single socket, which is what makes the CPU the bottleneck past the
    // paper's δ ≈ 0.15 (Fig. 13).
    let host_cores = cpu_cost.parallel_speedup(8);
    let modeled_cpu_match_sec = cpu_share_ns * 1e-9 / host_cores;

    // --- Aggregate kernel outputs and model device time. ---
    let mut counts = WorkloadCounts::default();
    let mut embeddings = cpu_embeddings;
    let mut collected = Vec::new();
    let mut rounds = 0u64;
    let mut cst_reads = 0u64;
    let mut buffer_writes = 0u64;
    let mut kernel_cycles = 0u64;
    for out in &fpga_outputs {
        counts.n += out.counts.n;
        counts.m += out.counts.m;
        embeddings += out.embeddings;
        rounds += out.rounds;
        cst_reads += out.cst_reads;
        buffer_writes += out.buffer_writes;
        kernel_cycles += backend.price_cycles(out.counts);
        if let CollectMode::Collect(cap) = config.collect {
            for e in &out.collected {
                if collected.len() < cap {
                    collected.push(e.clone());
                }
            }
        }
    }
    let kernel_time_sec = config.spec.cycles_to_sec(kernel_cycles);

    // PCIe: one transfer per FPGA partition plus the result fetch.
    let result_bytes = (embeddings as usize).saturating_mul(q.vertex_count() * 4);
    let transfer_time_sec = fpga_outputs
        .iter()
        .map(|_| config.spec.pcie.latency_sec)
        .sum::<f64>()
        + config.spec.pcie.transfer_time_sec(transfer_bytes)
        + config.spec.pcie.transfer_time_sec(result_bytes.min(transfer_bytes.max(1 << 20)));

    // Modelled partitioning: every emitted partition's entries (rebuild)
    // plus roughly the same again across recursion levels. Stolen CSTs were
    // consumed before splitting — that is exactly the partition cost
    // FAST-SHARE saves (Section VII-B).
    let cpu_entries: usize = cpu_queue.iter().map(Cst::total_adjacency_entries).sum();
    let partition_entries = cst_bytes_total / 4 + cpu_entries.saturating_sub(stolen_entries);
    let modeled_partition_sec = cpu_cost.partition_time_sec(2 * partition_entries);

    Ok(FastReport {
        variant: config.variant,
        embeddings,
        collected,
        counts,
        fpga_partitions: fpga_outputs.len(),
        cpu_partitions: cpu_queue.len(),
        stolen,
        forced,
        workload_cpu: scheduler.cpu_workload(),
        workload_fpga: scheduler.fpga_workload(),
        host_threads: times.host_threads,
        pipeline_shards: times.pipeline_shards,
        shard_planner: times.shard_planner,
        planned_duplication: times.planned_duplication,
        plan_time: times.plan_time,
        modeled_plan_sec: times.modeled_plan_sec,
        seeded_shards: times.seeded_shards,
        cached_shards: times.cached_shards,
        build_topdown_entries: times.build_topdown_entries,
        seed_time: times.seed_time,
        build_time: times.build_time,
        build_cpu_time: times.build_cpu_time,
        partition_time: times.partition_time,
        cpu_match_time,
        host_prepare_wall: times.host_prepare_wall,
        first_offload_wall: times.first_offload_wall,
        modeled_build_sec: times.modeled_build_sec,
        modeled_build_parallel_sec: times.modeled_build_parallel_sec,
        modeled_fill_sec: times.modeled_fill_sec,
        modeled_partition_sec,
        modeled_cpu_match_sec,
        kernel_cycles,
        kernel_time_sec,
        transfer_time_sec,
        transfer_bytes,
        rounds,
        cst_reads,
        buffer_writes,
        cst_bytes_total,
        wall_time: wall_start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::generators::random_labelled_graph;
    use graph_core::Label;
    use matching::vf2_count;

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn queries() -> Vec<QueryGraph> {
        vec![
            QueryGraph::new(vec![l(0), l(1), l(2)], &[(0, 1), (1, 2)]).unwrap(),
            QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (1, 2), (0, 2)]).unwrap(),
            QueryGraph::new(
                vec![l(0), l(1), l(0), l(1)],
                &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn all_variants_agree_with_vf2() {
        for (qi, q) in queries().into_iter().enumerate() {
            let g = random_labelled_graph(45, 0.2, 3, 400 + qi as u64);
            let expected = vf2_count(&q, &g);
            for variant in Variant::ALL {
                let config = FastConfig::test_small(variant);
                let report = run_fast(&q, &g, &config).unwrap();
                assert_eq!(
                    report.embeddings, expected,
                    "{variant} disagrees with VF2 on q{qi}"
                );
            }
        }
    }

    #[test]
    fn zero_round_budget_is_a_typed_error() {
        let q = &queries()[1];
        let g = random_labelled_graph(45, 0.2, 3, 401);
        for host_threads in [1, 4] {
            let mut config = FastConfig::test_small(Variant::Share);
            config.spec.no = 0;
            config.host_threads = host_threads;
            assert_eq!(
                run_fast(q, &g, &config).unwrap_err(),
                FastError::ZeroRoundBudget
            );
            let order = path_based_order(q, &BfsTree::new(q, select_root(q, &g)), &g);
            assert_eq!(
                run_fast_with_order(q, &g, &config, &order).unwrap_err(),
                FastError::ZeroRoundBudget
            );
        }
        let mut config = FastConfig::test_small(Variant::Sep);
        config.spec.no = 0;
        assert_eq!(
            crate::run_multi_fpga(q, &g, &config, 2).unwrap_err(),
            FastError::ZeroRoundBudget
        );
    }

    #[test]
    fn pipelined_host_agrees_with_sequential_for_all_thread_counts() {
        for (qi, q) in queries().into_iter().enumerate() {
            let g = random_labelled_graph(60, 0.2, 3, 700 + qi as u64);
            let sequential = run_fast(&q, &g, &FastConfig::test_small(Variant::Share)).unwrap();
            let mut per_thread = Vec::new();
            for threads in [2, 4, 8] {
                let mut config = FastConfig::test_small(Variant::Share);
                config.host_threads = threads;
                config.pipeline_shards = Some(4);
                let report = run_fast(&q, &g, &config).unwrap();
                assert_eq!(
                    report.embeddings, sequential.embeddings,
                    "threads={threads} q{qi}"
                );
                assert_eq!(report.pipeline_shards, 4);
                per_thread.push((
                    report.fpga_partitions,
                    report.cpu_partitions,
                    report.stolen,
                    report.transfer_bytes,
                    report.kernel_cycles,
                ));
            }
            // Everything downstream of the shard stream is deterministic in
            // the thread count (same shard count ⇒ same partition sequence,
            // same scheduler bookings, same kernel work).
            assert!(per_thread.windows(2).all(|w| w[0] == w[1]), "q{qi}: {per_thread:?}");
        }
    }

    #[test]
    fn variant_ladder_orders_modeled_kernel_time() {
        let q = queries().remove(2);
        let g = random_labelled_graph(60, 0.2, 2, 500);
        let mut cycles = Vec::new();
        for variant in [Variant::Dram, Variant::Basic, Variant::Task, Variant::Sep] {
            let config = FastConfig::for_variant(variant);
            let report = run_fast(&q, &g, &config).unwrap();
            cycles.push((variant, report.kernel_cycles));
        }
        for w in cycles.windows(2) {
            assert!(
                w[0].1 >= w[1].1,
                "{} ({}) should not be faster than {} ({})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
    }

    #[test]
    fn share_variant_books_cpu_work() {
        let q = queries().remove(1);
        let g = random_labelled_graph(80, 0.25, 2, 501);
        let mut config = FastConfig::test_small(Variant::Share);
        config.delta = 0.25;
        let report = run_fast(&q, &g, &config).unwrap();
        // With a tiny BRAM there are many partitions; some must land on the
        // CPU under a generous delta.
        if report.fpga_partitions + report.cpu_partitions > 4 {
            assert!(report.cpu_partitions > 0, "CPU got no work: {report:?}");
            assert!(report.workload_cpu > 0.0);
        }
        assert_eq!(report.forced, 0);
    }

    #[test]
    fn collect_mode_returns_valid_embeddings() {
        let q = queries().remove(1);
        let g = random_labelled_graph(40, 0.25, 2, 502);
        let mut config = FastConfig::for_variant(Variant::Sep);
        config.collect = CollectMode::Collect(10);
        let report = run_fast(&q, &g, &config).unwrap();
        assert!(report.collected.len() <= 10);
        for emb in &report.collected {
            for &(a, b) in q.edges() {
                assert!(g.has_edge(emb[a.index()], emb[b.index()]));
            }
        }
    }

    #[test]
    fn modeled_and_measured_totals_include_their_build() {
        let q = queries().remove(0);
        let g = random_labelled_graph(50, 0.2, 3, 503);
        let report = run_fast(&q, &g, &FastConfig::default()).unwrap();
        // Modelled total uses the *modelled* (paper-Xeon) host times.
        assert!(report.modeled_total_sec() >= report.modeled_build_sec);
        assert!(report.measured_total_sec() >= report.build_time.as_secs_f64());
        assert!(report.kernel_time_sec >= 0.0);
        assert!(report.transfer_time_sec > 0.0);
        assert!(report.modeled_build_sec > 0.0);
        // Sequential flow: the general fields degenerate to the old model.
        assert_eq!(report.host_threads, 1);
        assert_eq!(report.pipeline_shards, 1);
        assert_eq!(report.modeled_fill_sec, report.modeled_build_sec);
        assert_eq!(report.build_cpu_time, report.build_time);
    }

    #[test]
    fn overlapped_model_never_exceeds_serial_sum() {
        // The overlapped elapsed time is bounded above by the serial sum of
        // its phases and below by the slowest single phase.
        let q = queries().remove(2);
        let g = random_labelled_graph(70, 0.2, 2, 505);
        let mut config = FastConfig::test_small(Variant::Sep);
        config.host_threads = 4;
        config.pipeline_shards = Some(8);
        let r = run_fast(&q, &g, &config).unwrap();
        let serial_sum = r.modeled_build_parallel_sec
            + r.modeled_partition_sec
            + r.modeled_cpu_match_sec
            + r.transfer_time_sec
            + r.kernel_time_sec;
        let total = r.modeled_total_sec();
        assert!(total <= serial_sum + 1e-12, "{total} > {serial_sum}");
        for floor in [
            r.modeled_fill_sec,
            r.modeled_partition_sec,
            r.kernel_time_sec,
        ] {
            assert!(total >= floor - 1e-12, "{total} < {floor}");
        }
    }

    #[test]
    fn order_injection_matches_default() {
        let q = queries().remove(2);
        let g = random_labelled_graph(50, 0.2, 2, 504);
        let default = run_fast(&q, &g, &FastConfig::default()).unwrap();
        let root = select_root(&q, &g);
        let tree = BfsTree::new(&q, root);
        let order = graph_core::ceci_style_order(&q, &tree);
        let injected =
            run_fast_with_order(&q, &g, &FastConfig::default(), &order).unwrap();
        assert_eq!(default.embeddings, injected.embeddings);
    }

    #[test]
    fn captured_artifact_replays_with_zero_build_and_identical_partitions() {
        for (qi, q) in queries().into_iter().enumerate() {
            let g = random_labelled_graph(60, 0.2, 3, 900 + qi as u64);
            let mut config = FastConfig::test_small(Variant::Share);
            config.host_threads = 2;
            config.pipeline_shards = Some(4);
            config.shard_planner = ShardPlanner::WorkloadBalanced;
            config.capture_prepared = true;
            let root = select_root(&q, &g);
            let tree = BfsTree::new(&q, root);
            let order = path_based_order(&q, &tree, &g);

            let mut cold_jobs: Vec<(usize, u64, usize)> = Vec::new();
            let cold = prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
                cold_jobs.push((job.index, job.workload.to_bits(), job.cst.payload_bytes()));
            });
            assert!(!cold.cached_csts);
            let artifact = cold.prepared.clone().expect("capture requested");
            assert_eq!(artifact.shard_csts.len(), cold.pipeline_shards);
            assert_eq!(artifact.partitions.len(), cold.partitions);
            assert!(artifact.payload_bytes() > 0, "q{qi}: empty artifact");
            assert!(artifact.matches_query(&q));

            // Replay: the exact partition stream, zero build/partition work.
            let mut warm = config.clone();
            warm.capture_prepared = false;
            warm.prepared = Some(Arc::clone(&artifact));
            let mut warm_jobs: Vec<(usize, u64, usize)> = Vec::new();
            let hit = prepare_partitions(&q, &g, &warm, &tree, &order, &mut |job| {
                warm_jobs.push((job.index, job.workload.to_bits(), job.cst.payload_bytes()));
            });
            assert!(hit.cached_csts, "q{qi}");
            assert!(hit.prepared.is_none(), "replays must not re-capture");
            assert_eq!(warm_jobs, cold_jobs, "q{qi}: partition stream drifted");
            assert_eq!(hit.build_wall, Duration::ZERO);
            assert_eq!(hit.partition_time, Duration::ZERO);
            assert_eq!(hit.build_entries, 0);
            assert_eq!(hit.build_topdown_entries, 0);
            assert_eq!(hit.partitions, cold.partitions);

            // The one-shot flow reuses the artifact's shard CSTs through the
            // provenance-validated pipeline path: same embeddings, no build.
            let baseline = run_fast(&q, &g, &config).unwrap();
            let mut reused_config = config.clone();
            reused_config.capture_prepared = false;
            reused_config.prepared = Some(artifact);
            let reused = run_fast(&q, &g, &reused_config).unwrap();
            assert_eq!(reused.embeddings, baseline.embeddings, "q{qi}");
            assert_eq!(reused.kernel_cycles, baseline.kernel_cycles, "q{qi}");
            assert_eq!(reused.cached_shards, reused.pipeline_shards, "q{qi}");
            assert_eq!(reused.build_topdown_entries, 0);
            assert_eq!(reused.seeded_shards, 0);
            assert_eq!(baseline.cached_shards, 0);
        }
    }

    #[test]
    fn shape_mismatched_artifact_is_ignored() {
        let qs = queries();
        let g = random_labelled_graph(60, 0.2, 3, 910);
        let mut config = FastConfig::test_small(Variant::Share);
        config.host_threads = 2;
        config.pipeline_shards = Some(4);
        config.capture_prepared = true;
        // Capture against the 4-vertex query, replay against a 3-vertex one.
        let q4 = &qs[2];
        let root = select_root(q4, &g);
        let tree = BfsTree::new(q4, root);
        let order = path_based_order(q4, &tree, &g);
        let phase = prepare_partitions(q4, &g, &config, &tree, &order, &mut |_| {});
        let artifact = phase.prepared.expect("capture requested");

        let q3 = &qs[0];
        assert!(!artifact.matches_query(q3));
        let mut warm = config.clone();
        warm.capture_prepared = false;
        warm.prepared = Some(artifact);
        let expected = run_fast(q3, &g, &config).unwrap();
        let report = run_fast(q3, &g, &warm).unwrap();
        assert_eq!(report.embeddings, expected.embeddings);
        assert_eq!(report.cached_shards, 0, "mismatched artifact must rebuild");
    }
}
