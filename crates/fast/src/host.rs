//! The host-side driver: the full CPU-FPGA co-designed flow of Fig. 2.
//!
//! 1. construct the CST once (Algorithm 1, Section V-A, measured on the
//!    real CPU);
//! 2. partition it to fit the kernel's BRAM budget (Section V-B, Algorithm
//!    2) — [`prepare_partitions`]' first split fanned out at the root into
//!    at most `⌊W_CST / N_o⌋` chunks — and estimate every partition's
//!    `W_CST`;
//! 3. offload partitions over the modelled PCIe link and run the emulated
//!    kernel on each (Section VI), while FAST-SHARE books a bounded share of
//!    partitions to the CPU (Algorithm 3) and steals oversized CSTs to skip
//!    partitioning work — in [`run_fast`] every booked partition goes on one
//!    ready queue that the card's own lane drains while the host keeps
//!    partitioning;
//! 4. aggregate embeddings and derive elapsed time.
//!
//! Steps 1–2 are written once, in `produce_partitions`; who a partition is
//! booked to is the consumer's policy, and the three consumers are
//! [`run_fast`] (Algorithm 3: static δ-booking with steal),
//! [`run_multi_fpga`](crate::run_multi_fpga) (Section VII-E: least-booked
//! card) and, through [`prepare_partitions`], the serving layer's device
//! pool (online shortest expected completion).
//!
//! # Timing model
//!
//! Host-side work (CST construction, partitioning, the CPU matching share)
//! is both *measured* on this machine and *modelled* on the paper's Xeon via
//! [`matching::CpuCostModel`], so that the end-to-end number is
//! hardware-consistent with the modelled 300 MHz kernel (see cost_model
//! docs). The paper overlaps partitioning with kernel execution (partitions
//! stream to the card as they are produced), and so does [`run_fast`]: the
//! host books every partition in stream order and puts it on one ready
//! queue, which the emulated card's lane drains while the host keeps
//! partitioning — the kernel on FPGA-booked partitions, the CPU engine on
//! CPU-booked ones — and the host drains with it once partitioning ends.
//! Neither of this machine's threads waits on the other's schedule, so the
//! overlap the model prices is real here too. Bookings are all made before
//! any execution, so the modelled seconds do not depend on who ran what.
//! The elapsed model is the paper's
//!
//! ```text
//! elapsed = max(build + partition + cpu_share, build + transfer + kernel)
//! ```
//!
//! The device cannot receive its first partition before the CST exists;
//! after that the host's partition stream and CPU share run concurrently
//! with transfer and kernel. Derivation and calibration live in
//! EXPERIMENTS.md.

use crate::backend::FpgaBackend;
use crate::config::FastConfig;
use crate::kernel::{CollectMode, KernelOutput};
use crate::plan::{KernelPlan, PlanError};
use crate::scheduler::{Assignment, ShareScheduler};
use crate::variants::Variant;
use cst::{
    build_cst_with_stats, estimate_workload, partition_cst_with_steal, Cst, Oversized,
    PartitionConfig, DEFAULT_SHARDS,
};
use fpga_sim::WorkloadCounts;
use graph_core::{
    path_based_order, select_root, BfsTree, Graph, MatchingOrder, QueryGraph, VertexId,
};
use matching::{
    run_backtrack_with_sink, AnchorPolicy, CpuCostModel, EngineStats, ExtensionMethod, RunLimits,
};
use std::cell::RefCell;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Errors from a FAST run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastError {
    /// The query exceeds the kernel's register budget.
    Plan(PlanError),
    /// `FpgaSpec::no == 0`: with no per-round expansion budget `N_o` the
    /// kernel can never drain its buffer.
    ZeroRoundBudget,
    /// `FpgaSpec::port_max == 0`: δ_D bounds every candidate adjacency list,
    /// and no CST with an edge has lists of length zero.
    ZeroPortMax,
    /// [`FastConfig::delta`] outside `[0, 1]` (NaN included): the CPU share
    /// is a fraction of the total estimated workload.
    DeltaOutOfRange,
    /// [`run_multi_fpga`](crate::run_multi_fpga) was asked for zero cards.
    NoCards,
}

impl std::fmt::Display for FastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastError::Plan(e) => write!(f, "{e}"),
            FastError::ZeroRoundBudget => write!(f, "device round budget N_o must be >= 1"),
            FastError::ZeroPortMax => write!(f, "device Port_max must be >= 1"),
            FastError::DeltaOutOfRange => write!(f, "CPU share delta must be in [0, 1]"),
            FastError::NoCards => write!(f, "a multi-FPGA run needs at least one card"),
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
    /// Collected embeddings if requested: up to the cap, FPGA partitions
    /// first, then the CPU share.
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
    /// Phase-1 top-down scan work of the build (neighbour visits, each a
    /// filter evaluation). Deterministic (a pure function of the inputs),
    /// unlike the measured walls.
    pub build_topdown_entries: usize,
    /// Measured wall time of the CST build.
    pub build_time: Duration,
    /// Measured host time: partitioning (including workload estimation).
    /// A plain wall of the host thread: partitions only wait on the ready
    /// queue meanwhile, so no kernel or CPU-share time is in here.
    pub partition_time: Duration,
    /// Measured time of CPU-share matching: the summed engine walls of the
    /// CPU-booked partitions, whichever thread ran them (the lane or the
    /// host), so it overlaps partitioning and kernel time.
    pub cpu_match_time: Duration,
    /// Measured wall time of the whole host preparation (build overlapped
    /// with partition/offload) on the host thread, which only books each
    /// partition onto the ready queue.
    pub host_prepare_wall: Duration,
    /// Measured host wall time until the first FPGA-booked partition was
    /// put on the ready queue (the device's idle prefix; falls back to the
    /// build wall when every partition landed on the CPU).
    pub first_offload_wall: Duration,
    /// Host times normalised to the paper's Xeon (see `CpuCostModel`).
    pub modeled_build_sec: f64,
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
    /// Wall-clock time of the whole emulated run (host measurement): the
    /// host's build and partitioning, overlapped with the lane's draining of
    /// the ready queue, until both threads have drained it.
    pub wall_time: Duration,
}

impl FastReport {
    /// The modelled end-to-end elapsed time (seconds), the paper's
    /// `max(build + partition + cpu_share, build + transfer + kernel)`
    /// (module docs): host work on the paper's Xeon against transfer and
    /// kernel time on the modelled card.
    pub fn modeled_total_sec(&self) -> f64 {
        let host = self.modeled_build_sec + self.modeled_partition_sec + self.modeled_cpu_match_sec;
        let device = self.modeled_build_sec + self.transfer_time_sec + self.kernel_time_sec;
        host.max(device)
    }
}

/// Runs the co-designed framework on `(q, g)`.
///
/// Each call spawns one scoped thread, the emulated card's lane. Every
/// partition is booked on this thread, in stream order, and put on one
/// ready queue; the lane drains it while this thread partitions, running
/// the kernel on FPGA-booked partitions and the CPU engine on CPU-booked
/// ones, and this thread drains what is left once partitioning ends.
/// Counts, counters, collected rows and modelled seconds do not depend on
/// which thread ran what. A panic on either thread resurfaces from
/// `run_fast` as a panic, never as a hang or a silent zero.
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

/// The one-shot flow: [`produce_partitions`] with Algorithm 3 as steal hook
/// and sink, which books every partition onto the ready queue that the
/// card's lane and then this thread drain, and the report.
fn run_fast_with_tree(
    q: &QueryGraph,
    g: &Graph,
    config: &FastConfig,
    tree: &BfsTree,
    order: &MatchingOrder,
) -> Result<FastReport, FastError> {
    config.validate()?;
    let wall_start = Instant::now();
    let plan = KernelPlan::new(q, order, tree)?;
    // The FPGA execution backend: the emulated kernel plus this variant's
    // cycle pricing. Serving pools run the same backend (`fast::backend`),
    // so the one-shot and served paths cannot drift.
    let backend = FpgaBackend::from_config(config);
    let cap = collect_cap(config.collect);
    let execute = |work: Work| match work {
        Work::Fpga(seq, cst) => Done::Fpga(seq, backend.run(&cst, &plan, config.collect)),
        Work::Cpu(seq, cst) => Done::Cpu(seq, run_cpu_partition(q, g, order, &cst, cap)),
    };
    let ((state, host_prepare_wall, phase), done) = drain_on_two_threads(
        |ready| {
            // The partitioner takes the steal hook and the sink as two
            // independent `&mut dyn FnMut`; both book into the same
            // scheduler, so share it.
            let state = RefCell::new(OffloadState::new(config));
            let mut steal = |oversized: &Oversized, workload: &dyn Fn() -> f64| {
                state.borrow_mut().steal(oversized, workload, ready)
            };
            let phase = produce_partitions(
                q,
                g,
                config,
                tree,
                order,
                1,
                false,
                config
                    .variant
                    .shares_with_cpu()
                    .then_some(&mut steal as StealHook<'_>),
                &mut |job| state.borrow_mut().offload(job, ready),
            );
            let state = state.into_inner();
            let host_prepare_wall = state.prepare_start.elapsed();
            (state, host_prepare_wall, phase)
        },
        execute,
    );
    Ok(finish_report(
        q,
        config,
        &backend,
        state,
        host_prepare_wall,
        done,
        &phase,
        wall_start,
    ))
}

/// Drains one ready queue on two threads: a scoped lane drains it while
/// `produce` puts work on it on this thread; once `produce` returns, its
/// sender is dropped and this thread drains what is left, then joins the
/// lane. Returns `produce`'s result and every item's output, the lane's
/// first, each drainer's in the order it took them.
///
/// The sender is dropped while this thread unwinds, so a panic here ends
/// the lane's loop and the scope's join cannot hang. A panic in `run` on
/// the lane resurfaces here with its own payload once this thread has
/// drained the queue: the queue outlives the lane, so sends never fail.
fn drain_on_two_threads<W: Send, D: Send, P>(
    produce: impl FnOnce(&mpsc::Sender<W>) -> P,
    run: impl Fn(W) -> D + Sync,
) -> (P, Vec<D>) {
    let (ready, queue) = mpsc::channel();
    let queue = Mutex::new(queue);
    std::thread::scope(|scope| {
        let lane = scope.spawn(|| drain(&queue, &run));
        let produced = produce(&ready);
        drop(ready);
        let host = drain(&queue, &run);
        let mut done = lane
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        done.extend(host);
        (produced, done)
    })
}

/// The worker loop both drainers run: takes one item at a time, holding
/// the lock only while taking it, and runs it, until the queue is empty
/// and its sender gone.
fn drain<W, D>(queue: &Mutex<mpsc::Receiver<W>>, run: impl Fn(W) -> D) -> Vec<D> {
    std::iter::from_fn(|| {
        queue
            .lock()
            .expect("no drainer panics while taking an item")
            .recv()
            .ok()
    })
    .map(run)
    .collect()
}

/// A booked partition on the ready queue, numbered in booking order.
enum Work {
    Fpga(usize, Arc<Cst>),
    Cpu(usize, Arc<Cst>),
}

/// What a drainer made of one [`Work`] item, under the item's number.
enum Done {
    Fpga(usize, KernelOutput),
    Cpu(usize, CpuRun),
}

/// Algorithm 3 over the partition stream (Fig. 2 steps 3/5): books each
/// partition to a side, in stream order, and puts it on the ready queue at
/// once, stolen CSTs included. Section V-C caches CPU-booked CSTs "and
/// will be processed when all partition procedure finishes"; here either
/// drainer may run one as soon as it is booked. Bookings are still all
/// made on this thread, before any execution, so the FAST-SHARE counters
/// and `modelled_total_s` are what the serial flow gives, and
/// `CpuCostModel::parallel_search_time_sec(.., 8)` already prices the
/// share as running on all cores.
struct OffloadState {
    prepare_start: Instant,
    scheduler: ShareScheduler,
    /// Partitions put on the ready queue so far: the next one's number.
    booked: usize,
    cpu_partitions: usize,
    /// Adjacency entries of every CPU-booked CST, stolen ones whole.
    cpu_entries: usize,
    /// Bytes of every offloaded partition (what crosses PCIe).
    offloaded_bytes: usize,
    stolen: usize,
    stolen_entries: usize,
    /// Host wall timestamp of the first FPGA offload.
    first_offload: Option<Duration>,
}

impl OffloadState {
    fn new(config: &FastConfig) -> Self {
        let delta = if config.variant.shares_with_cpu() {
            config.delta
        } else {
            0.0
        };
        OffloadState {
            prepare_start: Instant::now(),
            scheduler: ShareScheduler::new(delta),
            booked: 0,
            cpu_partitions: 0,
            cpu_entries: 0,
            offloaded_bytes: 0,
            stolen: 0,
            stolen_entries: 0,
            first_offload: None,
        }
    }

    /// The steal hook: takes an oversized CST whole when Algorithm 3 would
    /// book it to the CPU anyway, saving its partitioning. The workload is
    /// estimated only while the CPU's share has room for any workload, and
    /// the whole CST is built only once it is taken.
    fn steal(
        &mut self,
        oversized: &Oversized,
        workload: &dyn Fn() -> f64,
        ready: &mpsc::Sender<Work>,
    ) -> bool {
        if !self.scheduler.can_take_any() {
            return false;
        }
        let workload = workload();
        if !self.scheduler.would_assign_cpu(workload) {
            return false;
        }
        self.scheduler.book_cpu(workload);
        self.stolen += 1;
        self.stolen_entries += oversized.total_adjacency_entries();
        self.send_cpu(Arc::new(oversized.to_cst()), ready);
        true
    }

    /// The sink: books the partition and puts it on the ready queue.
    fn offload(&mut self, job: PartitionJob, ready: &mpsc::Sender<Work>) {
        match self.scheduler.assign(job.workload) {
            Assignment::Cpu => self.send_cpu(job.cst, ready),
            Assignment::Fpga => {
                self.offloaded_bytes += job.cst.size_bytes();
                self.first_offload
                    .get_or_insert_with(|| self.prepare_start.elapsed());
                self.send(Work::Fpga, job.cst, ready);
            }
        }
    }

    fn send_cpu(&mut self, cst: Arc<Cst>, ready: &mpsc::Sender<Work>) {
        self.cpu_partitions += 1;
        self.cpu_entries += cst.total_adjacency_entries();
        self.send(Work::Cpu, cst, ready);
    }

    fn send(
        &mut self,
        side: fn(usize, Arc<Cst>) -> Work,
        cst: Arc<Cst>,
        ready: &mpsc::Sender<Work>,
    ) {
        ready
            .send(side(self.booked, cst))
            .expect("the ready queue outlives its producer");
        self.booked += 1;
    }
}

/// One FAST-SHARE CPU-share partition (Fig. 2 step 5) run by the engine
/// alone (Theorem 1).
struct CpuRun {
    stats: EngineStats,
    /// Up to the collect cap.
    collected: Vec<Vec<VertexId>>,
    time: Duration,
}

/// Runs the engine over one CPU-booked partition. The search reports every
/// embedding; collection alone is capped.
fn run_cpu_partition(
    q: &QueryGraph,
    g: &Graph,
    order: &MatchingOrder,
    partition: &Cst,
    cap: usize,
) -> CpuRun {
    let start = Instant::now();
    let method = ExtensionMethod::EdgeVerification(AnchorPolicy::MinList);
    let mut collected = Vec::new();
    let mut sink = |embedding: &[VertexId]| {
        if collected.len() < cap {
            collected.push(embedding.to_vec());
        }
    };
    let limits = RunLimits::unlimited();
    let (_, stats) = run_backtrack_with_sink(q, g, partition, order, method, &limits, &mut sink);
    CpuRun {
        stats,
        collected,
        time: start.elapsed(),
    }
}

/// Both drainers' outputs folded by `(side, number)`, whichever thread ran
/// an item and whenever it finished: kernel outputs in stream order, then
/// CPU runs in queue order, rows cut at the cap.
#[derive(Debug, Default, PartialEq)]
struct Folded {
    embeddings: u64,
    collected: Vec<Vec<VertexId>>,
    counts: WorkloadCounts,
    fpga_partitions: usize,
    kernel_cycles: u64,
    rounds: u64,
    cst_reads: u64,
    buffer_writes: u64,
    /// The CPU share's search counters (partials and edge verifications)
    /// and its summed engine wall.
    cpu_stats: EngineStats,
    cpu_time: Duration,
}

fn fold(mut done: Vec<Done>, cap: usize, backend: &FpgaBackend) -> Folded {
    done.sort_unstable_by_key(|item| match item {
        Done::Fpga(seq, _) => (false, *seq),
        Done::Cpu(seq, _) => (true, *seq),
    });
    let mut folded = Folded::default();
    for item in done {
        let rows = match item {
            Done::Fpga(_, out) => {
                folded.fpga_partitions += 1;
                folded.embeddings += out.embeddings;
                folded.counts.n += out.counts.n;
                folded.counts.m += out.counts.m;
                folded.kernel_cycles += backend.price_cycles(out.counts);
                folded.rounds += out.rounds;
                folded.cst_reads += out.cst_reads;
                folded.buffer_writes += out.buffer_writes;
                out.collected
            }
            Done::Cpu(_, run) => {
                folded.embeddings += run.stats.embeddings;
                folded.cpu_stats.partials_generated += run.stats.partials_generated;
                folded.cpu_stats.edge_verifications += run.stats.edge_verifications;
                folded.cpu_time += run.time;
                run.collected
            }
        };
        let room = cap.saturating_sub(folded.collected.len());
        folded.collected.extend(rows.into_iter().take(room));
    }
    folded
}

/// Rows a report collects at most.
fn collect_cap(collect: CollectMode) -> usize {
    match collect {
        CollectMode::Collect(cap) => cap,
        CollectMode::CountOnly => 0,
    }
}

/// One partition of a session's deterministic partition stream, with its
/// workload estimate — the unit a serving layer dispatches to a device.
#[derive(Debug, Clone)]
pub struct PartitionJob {
    /// Position in the partition sequence (emission order).
    pub index: usize,
    /// The partition: a self-contained, independently matchable CST.
    /// Shared, not owned, so a serving result cache can hand the same
    /// decomposition to every warm session without copying payloads.
    pub cst: Arc<Cst>,
    /// Estimated embeddings (`W_CST`, Section V-C) — the dispatch cost
    /// model a shortest-expected-completion scheduler books per device.
    pub workload: f64,
}

/// Everything [`prepare_partitions`] produces that is a pure function of
/// `(q, g, tree, config)`: the refined CST *and* the partition stream.
/// Captured on a build ([`FastConfig::capture_prepared`]); a serving
/// layer's result cache holds its partition stream alone (with no
/// `shard_csts`: a warm session replays only the partitions) under the
/// query's [`cst::PlanKey`] (query fingerprint, graph epoch, build options)
/// and stages [`partitions`](Self::partitions) straight to dispatch, so a
/// warm session does **no** build, partition or workload-estimation work.
/// [`payload_bytes`](Self::payload_bytes) is its eviction weight.
#[derive(Debug, Clone)]
pub struct PreparedCsts {
    /// Query vertex count the artifact was prepared for — the cheap shape
    /// check of [`matches_query`](Self::matches_query).
    pub query_vertices: usize,
    /// The one refined CST the build produced (empty candidate sets
    /// included), or none in an artifact that keeps only the stream. A
    /// `Vec` because the benchmark iterates it.
    pub shard_csts: Vec<Arc<Cst>>,
    /// The partition stream exactly as the build's sink received it.
    pub partitions: Vec<PartitionJob>,
}

impl PreparedCsts {
    /// Resident payload bytes of the artifact (candidate sets + adjacency
    /// targets, `Cst::payload_bytes`): the CST plus the partition copies. The byte-budgeted cache's eviction weight.
    pub fn payload_bytes(&self) -> usize {
        self.shard_csts
            .iter()
            .map(|c| c.payload_bytes())
            .chain(self.partitions.iter().map(|p| p.cst.payload_bytes()))
            .sum()
    }

    /// Whether the artifact's shape matches `q` — the sanity check a cache
    /// lookup applies before replaying. Replaying trusts the *caller's*
    /// keying (its `cst::PlanKey`) for content; revalidating content would
    /// mean rebuilding, which is exactly what the artifact exists to skip.
    pub fn matches_query(&self, q: &QueryGraph) -> bool {
        self.query_vertices == q.vertex_count()
            && self
                .shard_csts
                .iter()
                .chain(self.partitions.iter().map(|p| &p.cst))
                .all(|c| c.query_vertex_count() == q.vertex_count())
    }
}

/// Summary of the prepare phase (build + partition, no kernel).
#[derive(Debug, Clone)]
pub struct PreparePhase {
    /// Phase-1 top-down scan work of the build.
    pub build_topdown_entries: usize,
    /// Wall time of the CST build.
    pub build_wall: Duration,
    /// Wall time spent partitioning the CST — **including** time spent
    /// inside the caller's sink (callers running kernels in the sink should
    /// keep their own split).
    pub partition_time: Duration,
    /// Adjacency entries the build materialised.
    pub build_entries: usize,
    /// Partitions handed to the sink.
    pub partitions: usize,
    /// Partitions emitted despite violating thresholds (should be 0).
    pub forced: usize,
    /// The artifact captured from this build when
    /// [`FastConfig::capture_prepared`] was set — what a serving layer
    /// inserts into its cache. `None` when capture was off.
    pub prepared: Option<Arc<PreparedCsts>>,
}

/// [`produce_partitions`]' steal hook: offered an oversized CST before the
/// split, with its workload estimate as a closure to call only when the
/// estimate is needed; `true` takes the CST whole.
type StealHook<'a> = &'a mut dyn FnMut(&Oversized, &dyn Fn() -> f64) -> bool;

/// The host's one partition producer (Fig. 2 steps 1–2 plus the `W_CST`
/// estimate of Section V-C): builds the query's one CST, partitions it
/// under its own thresholds, and streams every partition into `sink` with
/// its workload estimate. Every host flow is this function with a different
/// consumer: [`prepare_partitions`] stages or dispatches the jobs,
/// [`run_fast`] plugs in Algorithm 3, [`run_multi_fpga`](crate::run_multi_fpga)
/// books cards. `root_fanout` caps the partitioner's
/// `cst::PartitionConfig::root_fanout`: above 1 it is sized by the CST's
/// `W_CST` ([`work_sized_fanout`]), the one estimate run before a split.
///
/// `steal`, when given, is offered every oversized CST with a closure that
/// estimates its workload before it is split; returning `true` consumes it
/// (FAST-SHARE's "directly assign it to CPU, reducing the cost of
/// partitioning"). The hook runs the estimate only when it could take the
/// CST; without one, only a CST whose root fans out is estimated before a
/// split. With `capture` the CST and the emitted jobs are also kept as
/// [`PreparePhase::prepared`] — only meaningful without a steal hook, since
/// a stolen CST never reaches the stream.
#[allow(clippy::too_many_arguments)]
fn produce_partitions(
    q: &QueryGraph,
    g: &Graph,
    config: &FastConfig,
    tree: &BfsTree,
    order: &MatchingOrder,
    root_fanout: usize,
    capture: bool,
    mut steal: Option<StealHook<'_>>,
    sink: &mut dyn FnMut(PartitionJob),
) -> PreparePhase {
    let build_start = Instant::now();
    let (cst, build) = {
        let mut span = obs::span_cat("build_shard", "build");
        let built = build_cst_with_stats(q, g, tree, config.cst_options);
        span.arg_u64("roots", built.0.candidate_count(tree.root()) as u64);
        built
    };
    let build_wall = build_start.elapsed();
    let mut partition_time = Duration::ZERO;
    let mut forced = 0usize;
    let mut emitted = 0usize;
    let mut captured: Vec<PartitionJob> = Vec::new();
    if !cst.any_empty() {
        let t0 = Instant::now();
        let fanout = work_sized_fanout(&cst, tree, order, root_fanout, config.spec.no);
        let partition_config = PartitionConfig {
            root_fanout: fanout,
            ..config.partition_config(q.vertex_count(), &cst)
        };
        let mut offer = |oversized: &Oversized| match steal.as_mut() {
            Some(steal) => steal(oversized, &|| oversized.estimate_workload(tree).total),
            None => false,
        };
        let mut emit = |partition: Cst| {
            let job = PartitionJob {
                index: emitted,
                workload: estimate_workload(&partition, tree).total,
                cst: Arc::new(partition),
            };
            emitted += 1;
            if capture {
                captured.push(job.clone());
            }
            sink(job);
        };
        let stats = partition_cst_with_steal(&cst, order, &partition_config, &mut offer, &mut emit);
        forced = stats.forced;
        partition_time = t0.elapsed();
    }
    let prepared = capture.then(|| {
        Arc::new(PreparedCsts {
            query_vertices: q.vertex_count(),
            shard_csts: vec![Arc::new(cst)],
            partitions: captured,
        })
    });
    PreparePhase {
        build_entries: build.adjacency_entries,
        build_wall,
        build_topdown_entries: build.topdown_entries,
        partition_time,
        partitions: emitted,
        forced,
        prepared,
    }
}

/// The root fan-out sized by the work it spreads: at most
/// `⌊W_CST / n_o⌋` chunks of `cst`, clamped to `[1, fanout]`, so no chunk
/// carries less than one kernel round (`N_o` partials) of estimated work.
/// A fan-out of 1 or a single root candidate is returned as is, without
/// running the estimate.
fn work_sized_fanout(
    cst: &Cst,
    tree: &BfsTree,
    order: &MatchingOrder,
    fanout: usize,
    n_o: u32,
) -> usize {
    if fanout <= 1 || cst.candidate_count(order.first()) <= 1 {
        return fanout;
    }
    let rounds = estimate_workload(cst, tree).total / f64::from(n_o.max(1));
    (rounds.floor() as usize).clamp(1, fanout)
}

/// The prepare phase of Fig. 2 decoupled from execution: builds the
/// query's one CST and streams every partition into `sink` with its
/// workload estimate, running **no** kernel and booking **no** CPU share —
/// execution policy belongs to the caller. This is the per-session entry
/// point of the serving layer (`serve`): the caller derives the tree/order
/// once (reusing them for its cache key).
///
/// The partitioner fans out at the root, into
/// `cst::PartitionConfig::root_fanout = clamp(⌊W_CST / N_o⌋, 1, S)` chunks
/// with `S = pipeline_shards` (default [`cst::DEFAULT_SHARDS`]), so a
/// device pool still receives root-localised partitions to spread and no
/// chunk of the fan-out carries less than one kernel round of estimated
/// work. The stream is deterministic.
pub fn prepare_partitions(
    q: &QueryGraph,
    g: &Graph,
    config: &FastConfig,
    tree: &BfsTree,
    order: &MatchingOrder,
    sink: &mut dyn FnMut(PartitionJob),
) -> PreparePhase {
    produce_partitions(
        q,
        g,
        config,
        tree,
        order,
        config.pipeline_shards.unwrap_or(DEFAULT_SHARDS),
        config.capture_prepared,
        None,
        sink,
    )
}

/// Folds the drainers' outputs, derives the modelled times from `phase`,
/// and assembles the report.
#[allow(clippy::too_many_arguments)]
fn finish_report(
    q: &QueryGraph,
    config: &FastConfig,
    backend: &FpgaBackend,
    state: OffloadState,
    host_prepare_wall: Duration,
    done: Vec<Done>,
    phase: &PreparePhase,
    wall_start: Instant,
) -> FastReport {
    let cpu_cost = CpuCostModel::default();
    let folded = fold(done, collect_cap(config.collect), backend);
    let kernel_time_sec = config.spec.cycles_to_sec(folded.kernel_cycles);
    // The host's matching share runs on all cores (the paper's 8-core Xeon
    // is idle once partitioning finishes); apply the contention-aware
    // parallel model — the memory-bound search steps serialise on the
    // single socket, which is what makes the CPU the bottleneck past the
    // paper's δ ≈ 0.15 (Fig. 13).
    let modeled_cpu_match_sec = cpu_cost.parallel_search_time_sec(&folded.cpu_stats, 8);

    // PCIe: one transfer per FPGA partition plus the result fetch.
    let result_bytes = (folded.embeddings as usize).saturating_mul(q.vertex_count() * 4);
    let transfer_time_sec = (0..folded.fpga_partitions)
        .map(|_| config.spec.pcie.latency_sec)
        .sum::<f64>()
        + config.spec.pcie.transfer_time_sec(state.offloaded_bytes)
        + config
            .spec
            .pcie
            .transfer_time_sec(result_bytes.min(state.offloaded_bytes.max(1 << 20)));

    let modeled_build_sec = cpu_cost.index_time_sec(phase.build_entries);

    // Modelled partitioning: every emitted partition's entries (rebuild)
    // plus roughly the same again across recursion levels. Stolen CSTs were
    // consumed before splitting — that is exactly the partition cost
    // FAST-SHARE saves (Section VII-B).
    let partition_entries =
        state.offloaded_bytes / 4 + state.cpu_entries.saturating_sub(state.stolen_entries);
    let modeled_partition_sec = cpu_cost.partition_time_sec(2 * partition_entries);

    FastReport {
        variant: config.variant,
        embeddings: folded.embeddings,
        collected: folded.collected,
        counts: folded.counts,
        fpga_partitions: folded.fpga_partitions,
        cpu_partitions: state.cpu_partitions,
        stolen: state.stolen,
        forced: phase.forced,
        workload_cpu: state.scheduler.cpu_workload(),
        workload_fpga: state.scheduler.fpga_workload(),
        build_topdown_entries: phase.build_topdown_entries,
        build_time: phase.build_wall,
        partition_time: phase.partition_time,
        cpu_match_time: folded.cpu_time,
        host_prepare_wall,
        first_offload_wall: state.first_offload.unwrap_or(phase.build_wall),
        modeled_build_sec,
        modeled_partition_sec,
        modeled_cpu_match_sec,
        kernel_cycles: folded.kernel_cycles,
        kernel_time_sec,
        transfer_time_sec,
        transfer_bytes: state.offloaded_bytes,
        rounds: folded.rounds,
        cst_reads: folded.cst_reads,
        buffer_writes: folded.buffer_writes,
        cst_bytes_total: state.offloaded_bytes,
        wall_time: wall_start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use graph_core::generators::random_labelled_graph;
    use graph_core::Label;
    use matching::{run_backtrack, vf2_count};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    /// Embeddings of `cst`, counted as the CPU share counts them.
    fn engine_count(q: &QueryGraph, g: &Graph, cst: &Cst, order: &MatchingOrder) -> u64 {
        let method = ExtensionMethod::EdgeVerification(AnchorPolicy::MinList);
        run_backtrack(q, g, cst, order, method, &RunLimits::unlimited())
            .1
            .embeddings
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
        let mut config = FastConfig::test_small(Variant::Share);
        config.spec.no = 0;
        assert_eq!(
            run_fast(q, &g, &config).unwrap_err(),
            FastError::ZeroRoundBudget
        );
        let order = path_based_order(q, &BfsTree::new(q, select_root(q, &g)), &g);
        assert_eq!(
            run_fast_with_order(q, &g, &config, &order).unwrap_err(),
            FastError::ZeroRoundBudget
        );
        let mut config = FastConfig::test_small(Variant::Sep);
        config.spec.no = 0;
        assert_eq!(
            crate::run_multi_fpga(q, &g, &config, 2).unwrap_err(),
            FastError::ZeroRoundBudget
        );
    }

    #[test]
    fn zero_port_max_is_a_typed_error() {
        let q = &queries()[1];
        let g = random_labelled_graph(45, 0.2, 3, 401);
        for variant in [Variant::Share, Variant::Sep] {
            let mut config = FastConfig::test_small(variant);
            config.spec.port_max = 0;
            assert_eq!(
                run_fast(q, &g, &config).unwrap_err(),
                FastError::ZeroPortMax,
                "{variant}"
            );
            assert_eq!(
                crate::run_multi_fpga(q, &g, &config, 2).unwrap_err(),
                FastError::ZeroPortMax
            );
        }
    }

    #[test]
    fn out_of_range_delta_is_a_typed_error() {
        let q = &queries()[1];
        let g = random_labelled_graph(45, 0.2, 3, 401);
        for delta in [1.5, -0.1, f64::NAN] {
            // Every variant: δ is a field of the configuration, not of SHARE.
            for variant in [Variant::Share, Variant::Sep] {
                let mut config = FastConfig::test_small(variant);
                config.delta = delta;
                assert_eq!(
                    run_fast(q, &g, &config).unwrap_err(),
                    FastError::DeltaOutOfRange,
                    "delta={delta} {variant}"
                );
                assert_eq!(
                    crate::run_multi_fpga(q, &g, &config, 2).unwrap_err(),
                    FastError::DeltaOutOfRange
                );
            }
        }
        // The closed ends are legal.
        for delta in [0.0, 1.0] {
            let mut config = FastConfig::test_small(Variant::Share);
            config.delta = delta;
            assert_eq!(
                run_fast(q, &g, &config).unwrap().embeddings,
                vf2_count(q, &g)
            );
        }
    }

    #[test]
    fn zero_cards_is_a_typed_error() {
        let q = &queries()[1];
        let g = random_labelled_graph(45, 0.2, 3, 401);
        let config = FastConfig::test_small(Variant::Sep);
        assert_eq!(
            crate::run_multi_fpga(q, &g, &config, 0).unwrap_err(),
            FastError::NoCards
        );
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
    fn collect_under_share_includes_the_cpu_share() {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let g = random_labelled_graph(200, 0.2, 2, 9);
        let mut config = FastConfig::test_small(Variant::Share);
        config.spec.bram_bytes = 32 << 10;
        config.spec.no = 16;
        config.delta = 0.25;
        let total = run_fast(&q, &g, &config).unwrap().embeddings;
        for cap in [100_000_000, 1000] {
            config.collect = CollectMode::Collect(cap);
            let report = run_fast(&q, &g, &config).unwrap();
            assert!(report.cpu_partitions > 0 && report.fpga_partitions > 0);
            assert_eq!(report.embeddings, total, "the count stays exact");
            assert_eq!(report.collected.len() as u64, total.min(cap as u64));
            let mut rows = std::collections::HashSet::new();
            for emb in &report.collected {
                assert!(rows.insert(emb.clone()), "duplicate row {emb:?}");
                for u in q.vertices() {
                    assert_eq!(g.label(emb[u.index()]), q.label(u));
                }
                for &(a, b) in q.edges() {
                    assert!(g.has_edge(emb[a.index()], emb[b.index()]));
                }
            }
        }
    }

    /// The paper's two-term model, summed left to right on each side.
    fn paper_model(r: &FastReport) -> f64 {
        let host = r.modeled_build_sec + r.modeled_partition_sec + r.modeled_cpu_match_sec;
        let device = r.modeled_build_sec + r.transfer_time_sec + r.kernel_time_sec;
        host.max(device)
    }

    #[test]
    fn modeled_total_includes_its_build() {
        let q = queries().remove(0);
        let g = random_labelled_graph(50, 0.2, 3, 503);
        let report = run_fast(&q, &g, &FastConfig::default()).unwrap();
        // Modelled total uses the *modelled* (paper-Xeon) host times.
        assert_eq!(
            report.modeled_total_sec().to_bits(),
            paper_model(&report).to_bits()
        );
        assert!(report.modeled_total_sec() >= report.modeled_build_sec);
        assert!(report.kernel_time_sec >= 0.0);
        assert!(report.transfer_time_sec > 0.0);
        assert!(report.modeled_build_sec > 0.0);
    }

    #[test]
    fn overlapped_model_never_exceeds_serial_sum() {
        // The overlapped elapsed time is the paper's model, so it is bounded
        // above by the serial sum of its phases and below by the build plus
        // the slowest single phase after it.
        let q = queries().remove(2);
        let g = random_labelled_graph(70, 0.2, 2, 505);
        for variant in [Variant::Sep, Variant::Share] {
            let r = run_fast(&q, &g, &FastConfig::test_small(variant)).unwrap();
            let total = r.modeled_total_sec();
            assert_eq!(total.to_bits(), paper_model(&r).to_bits(), "{variant}");
            let serial_sum = r.modeled_build_sec
                + r.modeled_partition_sec
                + r.modeled_cpu_match_sec
                + r.transfer_time_sec
                + r.kernel_time_sec;
            assert!(
                total <= serial_sum + 1e-12,
                "{variant}: {total} > {serial_sum}"
            );
            for after_build in [r.modeled_partition_sec, r.kernel_time_sec] {
                let floor = r.modeled_build_sec + after_build;
                assert!(total >= floor - 1e-12, "{variant}: {total} < {floor}");
            }
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
        let injected = run_fast_with_order(&q, &g, &FastConfig::default(), &order).unwrap();
        assert_eq!(default.embeddings, injected.embeddings);
    }

    #[test]
    fn captured_artifact_replays_with_zero_build_and_identical_partitions() {
        for (qi, q) in queries().into_iter().enumerate() {
            let g = random_labelled_graph(60, 0.2, 3, 900 + qi as u64);
            let mut config = FastConfig::test_small(Variant::Share);
            config.pipeline_shards = Some(4);
            config.capture_prepared = true;
            let root = select_root(&q, &g);
            let tree = BfsTree::new(&q, root);
            let order = path_based_order(&q, &tree, &g);

            let mut streamed: Vec<PartitionJob> = Vec::new();
            let cold = prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
                streamed.push(job);
            });
            let artifact = cold.prepared.clone().expect("capture requested");
            assert_eq!(artifact.shard_csts.len(), 1, "q{qi}: one build");
            assert!(artifact.payload_bytes() > 0, "q{qi}: empty artifact");
            assert!(artifact.matches_query(&q));

            // A replay is the artifact's own jobs: the exact stream the
            // build's sink saw, sharing (not copying) every partition.
            assert_eq!(artifact.partitions.len(), cold.partitions);
            for (i, (held, sent)) in artifact.partitions.iter().zip(&streamed).enumerate() {
                assert_eq!(held.index, i, "q{qi}");
                assert_eq!(held.index, sent.index, "q{qi}");
                assert_eq!(held.workload.to_bits(), sent.workload.to_bits(), "q{qi}");
                assert!(
                    Arc::ptr_eq(&held.cst, &sent.cst),
                    "q{qi}: partition {i} copied"
                );
            }

            // Capture changes nothing about the stream itself.
            config.capture_prepared = false;
            let mut plain: Vec<(usize, u64, usize)> = Vec::new();
            let uncaptured = prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
                plain.push((job.index, job.workload.to_bits(), job.cst.payload_bytes()));
            });
            assert!(uncaptured.prepared.is_none());
            let held: Vec<(usize, u64, usize)> = artifact
                .partitions
                .iter()
                .map(|job| (job.index, job.workload.to_bits(), job.cst.payload_bytes()))
                .collect();
            assert_eq!(plain, held, "q{qi}: partition stream drifted");
        }
    }

    /// The root fan-out is sized by the work it spreads. On generated
    /// graphs, from every root, for S ∈ {2, 4, 16} and N_o = 16, under a BRAM
    /// everything fits and under `FpgaSpec::test_small`'s:
    ///
    /// * `prepare_partitions`' stream is `partition_cst_with_steal` on the
    ///   one CST it built (top-down) with
    ///   `root_fanout = clamp(⌊W/N_o⌋, 1, S)`, `W` the whole CST's `W_CST`;
    /// * so it is Algorithm 2 as published (one whole partition when the CST
    ///   fits) when `W < 2·N_o`, and the full S-way cut when `W ≥ S·N_o`;
    /// * its partitions' embeddings sum to `vf2_count`, on an empty root
    ///   set and a single root candidate too;
    /// * `run_fast` never fans out: it emits the unfanned stream;
    /// * a fan-out of 1 returns before the estimate runs (a tree of a larger
    ///   query, which the DP would index out of range, stands in for it).
    ///
    /// Mutations it catches: ceil for floor, a missing S cap, `W` taken from
    /// a partition instead of the whole CST, the rule applied in
    /// `run_fast`, and estimating when S = 1.
    #[test]
    fn root_fanout_is_sized_by_the_shard_workload() {
        let n_o = 16u32;
        let per_round = f64::from(n_o);
        let larger =
            QueryGraph::new(vec![l(0); 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let larger_tree = BfsTree::new(&larger, larger.vertices().next().unwrap());
        let mut cases = Vec::new();
        for (qi, q) in queries().into_iter().enumerate() {
            for (vertices, seed) in [(16, 962), (24, 963), (40, 960), (90, 961)] {
                let g = random_labelled_graph(vertices, 0.15, 2, seed);
                let expected = vf2_count(&q, &g);
                for mut config in [
                    FastConfig::for_variant(Variant::Sep),
                    FastConfig::test_small(Variant::Sep),
                ] {
                    config.spec.no = n_o;
                    for fanout in [2, 4, 16] {
                        config.pipeline_shards = Some(fanout);
                        let case = format!("q{qi} seed {seed} S={fanout}");
                        cases.push((case, q.clone(), g.clone(), expected, config.clone()));
                    }
                }
            }
        }
        // Edge inputs: a label no vertex carries (an empty root set from
        // every root), and a hub that is the only vertex of its label (one
        // root candidate from the query's label-2 vertex).
        let absent = QueryGraph::new(vec![l(0), l(9)], &[(0, 1)]).unwrap();
        let mut hub = graph_core::GraphBuilder::new();
        let center = hub.add_vertex(l(2));
        let rim: Vec<VertexId> = (0..30).map(|i| hub.add_vertex(l(i % 2))).collect();
        for (i, &v) in rim.iter().enumerate() {
            hub.add_edge(center, v).unwrap();
            hub.add_edge(v, rim[(i + 1) % rim.len()]).unwrap();
        }
        let hub = hub.build();
        let path = queries().remove(0);
        let sparse = random_labelled_graph(40, 0.15, 2, 960);
        for (name, q, g) in [("absent", absent, sparse), ("hub", path, hub)] {
            let expected = vf2_count(&q, &g);
            for mut config in [
                FastConfig::for_variant(Variant::Sep),
                FastConfig::test_small(Variant::Sep),
            ] {
                config.spec.no = n_o;
                config.pipeline_shards = Some(4);
                cases.push((
                    format!("{name} S=4"),
                    q.clone(),
                    g.clone(),
                    expected,
                    config,
                ));
            }
        }
        let (mut whole, mut capped, mut full) = (0, 0, 0);
        for (case, q, g, expected, mut config) in cases {
            let fanout = config.pipeline_shards.unwrap();
            for root in q.vertices() {
                let case = format!("{case} root {root:?}");
                let tree = BfsTree::new(&q, root);
                let order = path_based_order(&q, &tree, &g);
                config.capture_prepared = true;
                let mut streamed = Vec::new();
                let phase = prepare_partitions(&q, &g, &config, &tree, &order, &mut |job| {
                    streamed.push(Arc::unwrap_or_clone(job.cst));
                });
                let shard = &phase.prepared.expect("capture requested").shard_csts[0];
                let sum: u64 = streamed
                    .iter()
                    .map(|p| engine_count(&q, &g, p, &order))
                    .sum();
                assert_eq!(sum, expected, "{case}");
                if shard.any_empty() {
                    continue;
                }
                assert!(
                    phase.build_topdown_entries > 0,
                    "{case}: the build scans top-down"
                );

                let thresholds = config.partition_config(q.vertex_count(), shard);
                let stream = |root_fanout| {
                    let config = PartitionConfig {
                        root_fanout,
                        ..thresholds.clone()
                    };
                    let mut parts = Vec::new();
                    partition_cst_with_steal(shard, &order, &config, &mut |_| false, &mut |p| {
                        parts.push(p)
                    });
                    parts
                };
                let w = estimate_workload(shard, &tree).total;
                let sized = ((w / per_round).floor() as usize).clamp(1, fanout);
                assert_eq!(streamed, stream(sized), "{case} W={w}");
                let roots = shard.candidate_count(root);
                if roots > 1 && w < 2.0 * per_round {
                    whole += 1;
                    assert_eq!(streamed, stream(1), "{case} W={w}");
                } else if roots > 1 && w >= fanout as f64 * per_round {
                    full += 1;
                    assert_eq!(streamed, stream(fanout), "{case} W={w}");
                } else if sized > 1 && sized < fanout.min(roots) {
                    capped += 1;
                }
                let unestimated = work_sized_fanout(shard, &larger_tree, &order, 1, n_o);
                assert_eq!(unestimated, 1, "{case}");

                config.capture_prepared = false;
                let report = run_fast_with_order(&q, &g, &config, &order).unwrap();
                assert_eq!((report.cpu_partitions, report.stolen), (0, 0), "{case}");
                assert_eq!(report.fpga_partitions, stream(1).len(), "{case}");
                assert_eq!(report.embeddings, expected, "{case}");
            }
        }
        assert!(
            whole > 0 && capped > 0 && full > 0,
            "every regime is exercised: whole {whole}, capped {capped}, full {full}"
        );
    }

    /// `run_fast`'s collected rows without the lane: every booking through
    /// `OffloadState`, then, once the stream ends, the kernel over the
    /// FPGA-booked partitions in stream order, then the engine over the
    /// CPU-booked ones in queue order, cut to the cap.
    fn serial_rows(
        q: &QueryGraph,
        g: &Graph,
        config: &FastConfig,
        tree: &BfsTree,
        order: &MatchingOrder,
    ) -> Vec<Vec<VertexId>> {
        let plan = KernelPlan::new(q, order, tree).unwrap();
        let (ready, queue) = mpsc::channel::<Work>();
        let state = RefCell::new(OffloadState::new(config));
        let mut steal = |oversized: &Oversized, workload: &dyn Fn() -> f64| {
            state.borrow_mut().steal(oversized, workload, &ready)
        };
        produce_partitions(
            q,
            g,
            config,
            tree,
            order,
            1,
            false,
            config
                .variant
                .shares_with_cpu()
                .then_some(&mut steal as StealHook<'_>),
            &mut |job| state.borrow_mut().offload(job, &ready),
        );
        drop(ready);
        let cap = collect_cap(config.collect);
        let (mut rows, mut cpu_rows) = (Vec::new(), Vec::new());
        for work in queue {
            match work {
                Work::Fpga(_, cst) => {
                    rows.extend(run_kernel(&cst, &plan, config.spec.no, config.collect).collected)
                }
                Work::Cpu(_, cst) => {
                    cpu_rows.extend(run_cpu_partition(q, g, order, &cst, cap).collected)
                }
            }
        }
        rows.extend(cpu_rows);
        rows.truncate(cap);
        rows
    }

    /// The lane keeps the report exact and ordered. On generated instances
    /// under a tight BRAM (many partitions, and steals under SHARE), for
    /// `Sep` and `Share` at δ ∈ {0.1, 1.0} and `Collect(cap)` for
    /// cap ∈ {0, 5, 10 000}, eight repeated `run_fast` calls per case:
    ///
    /// * return reports identical field by field (embeddings, collected rows
    ///   in order, counters, partition counts, steals, transfer bytes and
    ///   the modelled total's bits), whatever the lane's interleaving;
    /// * count `vf2_count` embeddings;
    /// * collect the rows of a serial reference without the lane: the FPGA
    ///   partitions' kernel rows in stream order, then the CPU share's;
    /// * under `Sep`, collect exactly the first `cap` rows of
    ///   `run_kernel(Collect)` over the unfanned `partition_cst` stream of
    ///   the one CST, in stream order.
    ///
    /// Mutations it catches: kernel outputs folded in completion order
    /// instead of stream order, and CPU rows collected before FPGA rows.
    #[test]
    fn lane_keeps_the_report_exact_and_ordered() {
        let cycle = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let instances = [
            (queries().remove(1), random_labelled_graph(300, 0.1, 2, 940)),
            (queries().remove(2), random_labelled_graph(200, 0.1, 2, 941)),
            (cycle, random_labelled_graph(300, 0.08, 2, 942)),
        ];
        let (mut steals, mut mixed) = (0, 0);
        for (qi, (q, g)) in instances.iter().enumerate() {
            let expected = vf2_count(q, g);
            let tree = BfsTree::new(q, select_root(q, g));
            let order = path_based_order(q, &tree, g);
            for (variant, delta) in [
                (Variant::Sep, 0.0),
                (Variant::Share, 0.1),
                (Variant::Share, 1.0),
            ] {
                for cap in [0, 5, 10_000] {
                    let case = format!("q{qi} {variant} delta={delta} cap={cap}");
                    let mut config = FastConfig::test_small(variant);
                    config.spec.bram_bytes = 1 << 14;
                    config.spec.no = 16;
                    config.delta = delta;
                    config.collect = CollectMode::Collect(cap);
                    let runs: Vec<FastReport> = (0..8)
                        .map(|_| run_fast_with_order(q, g, &config, &order).unwrap())
                        .collect();
                    let first = &runs[0];
                    assert_eq!(first.embeddings, expected, "{case}");
                    assert!(first.fpga_partitions + first.cpu_partitions > 4, "{case}");
                    let fields = |r: &FastReport| {
                        (
                            r.embeddings,
                            r.collected.clone(),
                            r.counts,
                            (r.fpga_partitions, r.cpu_partitions, r.stolen),
                            (r.kernel_cycles, r.rounds, r.cst_reads, r.buffer_writes),
                            r.transfer_bytes,
                            r.modeled_total_sec().to_bits(),
                        )
                    };
                    for run in &runs[1..] {
                        assert_eq!(fields(run), fields(first), "{case}");
                    }
                    let serial = serial_rows(q, g, &config, &tree, &order);
                    assert_eq!(first.collected, serial, "{case}");
                    steals += first.stolen;
                    if first.cpu_partitions > 0 && first.fpga_partitions > 0 && cap == 5 {
                        mixed += 1;
                    }
                    if variant != Variant::Sep {
                        continue;
                    }
                    let mut prepare = config.clone();
                    prepare.capture_prepared = true;
                    let phase = prepare_partitions(q, g, &prepare, &tree, &order, &mut |_| {});
                    let shard = &phase.prepared.expect("capture requested").shard_csts[0];
                    let thresholds = config.partition_config(q.vertex_count(), shard);
                    let (stream, _) = cst::partition_cst(shard, &order, &thresholds);
                    assert_eq!(first.fpga_partitions, stream.len(), "{case}");
                    let plan = KernelPlan::new(q, &order, &tree).unwrap();
                    let rows: Vec<Vec<VertexId>> = stream
                        .iter()
                        .flat_map(|p| {
                            run_kernel(p, &plan, config.spec.no, config.collect).collected
                        })
                        .take(cap)
                        .collect();
                    assert_eq!(first.collected, rows, "{case}");
                }
            }
        }
        assert!(steals > 0, "no case stole an oversized CST");
        assert!(mixed > 0, "no case collected from both sides under a cap");
    }

    /// Lanes that get almost nothing still return, with exact counts: a
    /// query whose CST has an empty candidate set sends the lane nothing,
    /// and δ = 1.0 under a tight BRAM sends it exactly one partition
    /// (Algorithm 3's strict `<` books the first partition to the FPGA and
    /// every later one to the CPU, stolen or booked).
    #[test]
    fn lanes_that_get_almost_nothing_return_exact_counts() {
        let g = random_labelled_graph(400, 0.08, 2, 7);
        let absent = QueryGraph::new(vec![l(0), l(9)], &[(0, 1)]).unwrap();
        let report = run_fast(&absent, &g, &FastConfig::test_small(Variant::Share)).unwrap();
        assert_eq!(report.embeddings, vf2_count(&absent, &g));
        assert_eq!(report.fpga_partitions, 0);

        let cycle = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let mut config = FastConfig::test_small(Variant::Share);
        config.spec.bram_bytes = 1 << 14;
        config.delta = 1.0;
        let report = run_fast(&cycle, &g, &config).unwrap();
        assert_eq!(report.embeddings, vf2_count(&cycle, &g));
        assert_eq!(report.fpga_partitions, 1, "{report:?}");
        assert!(report.cpu_partitions > 1 && report.stolen > 0, "{report:?}");
    }

    /// Runs `case` on its own thread under a watchdog and returns the
    /// payload of the panic it ended in, or `None` if it returned. A hang
    /// fails the test instead of hanging it.
    fn panic_payload(case: impl FnOnce() + Send + 'static) -> Option<String> {
        let (finished, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(case)).err();
            let _ =
                finished.send(payload.map(|p| *p.downcast::<String>().expect("a formatted panic")));
        });
        outcome
            .recv_timeout(Duration::from_secs(60))
            .expect("a panicking item hung the ready queue")
    }

    /// A panic in one item resurfaces from the ready queue's two drainers as
    /// a panic with its own payload, never a hang: item `k` of four panics
    /// on the lane, and separately on this thread. The lane takes every item
    /// the producer sends, because the producer waits until it has taken
    /// each. This thread takes items `1..` because the lane is held in item
    /// 0 until the panicking item lets it go.
    #[test]
    fn a_panic_on_either_drainer_resurfaces() {
        const ITEMS: usize = 4;
        for k in 0..ITEMS {
            let payload = panic_payload(move || {
                let host = std::thread::current().id();
                let (took, taken) = mpsc::channel::<usize>();
                let run = |item: usize| {
                    if std::thread::current().id() != host {
                        took.send(item).unwrap();
                        assert_ne!(item, k, "item {k} on the lane");
                    }
                };
                drain_on_two_threads(
                    |ready| {
                        for item in 0..ITEMS {
                            ready.send(item).unwrap();
                            if item <= k {
                                assert_eq!(taken.recv_timeout(Duration::from_secs(30)), Ok(item));
                            }
                        }
                    },
                    run,
                );
            });
            let payload = payload.expect("the lane's panic was swallowed");
            assert!(
                payload.contains(&format!("item {k} on the lane")),
                "{payload}"
            );
        }
        for k in 1..ITEMS {
            let payload = panic_payload(move || {
                let host = std::thread::current().id();
                let (took, taken) = mpsc::channel::<usize>();
                let (release, hold) = mpsc::channel::<()>();
                let (release, hold) = (Mutex::new(Some(release)), Mutex::new(hold));
                let run = |item: usize| {
                    if std::thread::current().id() != host {
                        took.send(item).unwrap();
                        if item == 0 {
                            // Returns once the host's panicking item drops
                            // the sender.
                            let _ = hold.lock().unwrap().recv();
                        }
                    } else if item == k {
                        drop(release.lock().unwrap().take());
                        panic!("item {k} on the host");
                    }
                };
                drain_on_two_threads(
                    |ready| {
                        ready.send(0).unwrap();
                        assert_eq!(taken.recv_timeout(Duration::from_secs(30)), Ok(0));
                        (1..ITEMS).for_each(|item| ready.send(item).unwrap());
                    },
                    run,
                );
            });
            assert_eq!(
                payload.as_deref(),
                Some(format!("item {k} on the host").as_str())
            );
        }
    }

    /// The fold's order is fixed by the items' numbers, not by who ran them
    /// or when. A stream of eight items, FPGA and CPU mixed, is split
    /// between the two drainers in every one of its 2^8 ways, each side's
    /// outputs in the order it took them, the lane's first. At cap 0, 5 and
    /// unbounded, every split folds to the kernel rows in stream order, then
    /// the CPU rows in queue order, cut at the cap, with the same counts.
    ///
    /// Mutations it catches: folding in completion order (any split where
    /// this thread ran an item booked before one of the lane's), and CPU
    /// rows before kernel rows.
    #[test]
    fn the_fold_ignores_which_drainer_ran_an_item() {
        const SIDES: [bool; 8] = [false, true, false, false, true, false, true, true];
        let backend = FpgaBackend::from_config(&FastConfig::default());
        let rows = |i: usize| -> Vec<Vec<VertexId>> {
            (0..=i % 3)
                .map(|j| vec![VertexId::new(i as u32), VertexId::new(j as u32)])
                .collect()
        };
        let item = |i: usize| {
            let k = i as u64;
            if SIDES[i] {
                let stats = EngineStats {
                    embeddings: rows(i).len() as u64,
                    partials_generated: k + 1,
                    edge_verifications: 3 * k,
                    ..EngineStats::default()
                };
                let time = Duration::from_micros(k);
                let collected = rows(i);
                Done::Cpu(
                    i,
                    CpuRun {
                        stats,
                        collected,
                        time,
                    },
                )
            } else {
                Done::Fpga(
                    i,
                    KernelOutput {
                        embeddings: rows(i).len() as u64,
                        collected: rows(i),
                        counts: WorkloadCounts {
                            n: k + 1,
                            m: 2 * k + 1,
                        },
                        rounds: k,
                        cst_reads: 5 * k,
                        buffer_writes: 7 * k,
                        ..KernelOutput::default()
                    },
                )
            }
        };
        for cap in [0, 5, usize::MAX] {
            let kernel = (0..8).filter(|&i| !SIDES[i]);
            let cpu = (0..8).filter(|&i| SIDES[i]);
            let mut expected = Folded::default();
            for i in kernel.clone().chain(cpu.clone()) {
                expected.collected.extend(rows(i));
                expected.embeddings += rows(i).len() as u64;
            }
            expected.collected.truncate(cap);
            for i in kernel {
                let counts = WorkloadCounts {
                    n: i as u64 + 1,
                    m: 2 * i as u64 + 1,
                };
                expected.fpga_partitions += 1;
                expected.counts.n += counts.n;
                expected.counts.m += counts.m;
                expected.kernel_cycles += backend.price_cycles(counts);
                expected.rounds += i as u64;
                expected.cst_reads += 5 * i as u64;
                expected.buffer_writes += 7 * i as u64;
            }
            for i in cpu {
                expected.cpu_stats.partials_generated += i as u64 + 1;
                expected.cpu_stats.edge_verifications += 3 * i as u64;
                expected.cpu_time += Duration::from_micros(i as u64);
            }
            for lane in 0u32..1 << 8 {
                let (on_lane, on_host): (Vec<usize>, Vec<usize>) =
                    (0..8).partition(|&i| lane & (1 << i) != 0);
                let done = on_lane.into_iter().chain(on_host).map(item).collect();
                assert_eq!(
                    fold(done, cap, &backend),
                    expected,
                    "cap {cap}, lane mask {lane:#010b}"
                );
            }
        }
    }

    #[test]
    fn shape_mismatched_artifact_is_ignored() {
        let qs = queries();
        let g = random_labelled_graph(60, 0.2, 3, 910);
        let mut config = FastConfig::test_small(Variant::Share);
        config.capture_prepared = true;
        // Captured against the 4-vertex query: no 3-vertex query may take it
        // (the serving layer applies this check at its cache lookup).
        let q4 = &qs[2];
        let root = select_root(q4, &g);
        let tree = BfsTree::new(q4, root);
        let order = path_based_order(q4, &tree, &g);
        let phase = prepare_partitions(q4, &g, &config, &tree, &order, &mut |_| {});
        let artifact = phase.prepared.expect("capture requested");
        assert!(artifact.matches_query(q4));
        assert!(!artifact.matches_query(&qs[0]));
        // Every held CST is checked, not just the recorded vertex count.
        let mut forged = (*artifact).clone();
        forged.query_vertices = qs[0].vertex_count();
        assert!(!forged.matches_query(&qs[0]));
    }
}
