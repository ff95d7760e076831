//! The [`FastService`]: tenants, admission, sessions, executors, reporting.
//!
//! # Life of a query
//!
//! 1. [`FastService::submit_for`] enqueues the submission on its tenant's
//!    lane of the weighted round-robin session table and returns a
//!    [`SessionHandle`] **immediately — submission never blocks**. Queued
//!    sessions are table entries, not blocked OS threads;
//!    [`FastService::try_submit`] adds typed backpressure
//!    ([`ServeError::Saturated`]) at the admission bound instead of
//!    queueing without limit.
//! 2. A small fixed pool of **executor threads** polls ready work in
//!    priority order: its own task deque first (LIFO, cache-warm), then
//!    tasks stolen from a peer's deque (FIFO, oldest), and finally —
//!    when an execution permit (`max_in_flight`) is free — the next
//!    submission in deficit-round-robin order across tenants. A picked-up
//!    session becomes a slab entry driven by `Start`/`Resume`/`Exec`
//!    tasks (the lifecycle diagram is on `Task`, the type that drives
//!    every transition), so ten thousand in-flight sessions cost table
//!    entries, not stacks. The per-session deadline is re-checked by
//!    every task.
//! 3. Pickup derives the BFS tree / matching order / kernel plan
//!    **once**, then resolves the two cache tiers — both keyed by the
//!    same [`cst::PlanKey`] × the *tenant's* graph epoch — under a
//!    single-flight gate: a **tier-2** hit replays the refined shard
//!    CSTs and their partition decomposition through
//!    [`FastConfig::prepared`] (zero planning, zero build, zero
//!    partitioning); a plan-only hit rides the stored [`cst::ShardPlan`]
//!    into [`fast::prepare_partitions`] through [`FastConfig::shard_plan`]
//!    (probe skipped, build seeded); a full miss computes and publishes
//!    the plan, builds, and inserts the captured artifact into tier 2. A
//!    session whose key is already being computed **parks** (its lane's
//!    deficit round is told via `WrrQueue::park`; no executor thread
//!    blocks) and is re-enqueued by the owner's flight release.
//! 4. The build stages the partition jobs on the session; `Exec` tasks
//!    then execute them one at a time — each is booked onto the pool
//!    device with the shortest expected completion ([`DevicePool`] —
//!    emulated FPGA cards and CPU fallback shares priced under their own
//!    cost models) and run to the end by one synchronous
//!    [`ExecutionBackend::execute`] call; its result is streamed to the
//!    session handle, and the same task retires the session or pushes
//!    its next `Exec`.
//! 5. The final [`QueryReport`] closes the session, service and tenant
//!    metrics are folded in, and the execution permit is released.
//!
//! Serving executes every partition on the device pool (the multi-FPGA
//! regime of Section VII-E, generalised to heterogeneous backends); the
//! single-run CPU-share scheduler (FAST-SHARE's δ) is not booked here —
//! `run_fast` remains the one-shot path.

use crate::cache::{CacheStats, CstCache, PlanCache};
use crate::devices::{DeviceKind, DevicePool, DeviceStats};
use crate::metrics::{ServeReport, TenantSummary};
use crate::tenant::{TenantConfig, TenantId, WrrQueue};
use cst::PlanKey;
use fast::{
    prepare_partitions, BackendClass, BackendOutput, CollectMode, CpuBackend, ExecutionBackend,
    FastConfig, KernelPlan, PartitionJob, QueryCtx, ShardPlanner,
};
use graph_core::{path_based_order, select_root, BfsTree, Graph, MatchingOrder, QueryGraph, VertexId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{
    mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-tolerant [`Mutex`] acquisition. A panicking session is already
/// contained — the worker's `catch_unwind` absorbs the unwind and drop
/// guards release its slot and flight — and every state these locks
/// protect (counters, queues, cache tables, the device pool) is consistent
/// whenever a guard is held across a possible panic site. Propagating the
/// poison instead would cascade [`ServeError::Disconnected`] to every
/// other tenant for a failure that was one session's own.
pub(crate) trait MutexExt<T> {
    fn plock(&self) -> MutexGuard<'_, T>;
}

impl<T> MutexExt<T> for Mutex<T> {
    fn plock(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poison-tolerant [`RwLock`] acquisition (see [`MutexExt`]).
pub(crate) trait RwLockExt<T> {
    fn pread(&self) -> RwLockReadGuard<'_, T>;
    fn pwrite(&self) -> RwLockWriteGuard<'_, T>;
}

impl<T> RwLockExt<T> for RwLock<T> {
    fn pread(&self) -> RwLockReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn pwrite(&self) -> RwLockWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poison-tolerant [`Condvar::wait`].
fn pwait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a [`FastService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-session FAST configuration (device spec, variant, CST options,
    /// planner). [`FastConfig::shard_plan`] is overwritten per session by
    /// the cache outcome. When the fleet contains FPGA devices with less
    /// BRAM than `fast.spec`, the session spec's BRAM is clamped down to
    /// the fleet minimum so one shared partition stream fits every card.
    pub fast: FastConfig,
    /// Emulated FPGA cards at `fast.spec` (the homogeneous base fleet).
    pub devices: usize,
    /// Additional heterogeneous devices: FPGA cards with their own specs
    /// and/or CPU fallback shares. The pool is `devices` base cards plus
    /// one device per entry; an entirely empty fleet is
    /// [`ServeError::NoDevices`].
    pub extra_devices: Vec<DeviceKind>,
    /// Executor threads polling ready sessions. Each drives many
    /// sessions through their state machines — in-flight depth is bounded
    /// by [`max_in_flight`](Self::max_in_flight), not by this.
    pub workers: usize,
    /// Default plan-cache capacity of each tenant's cache partition
    /// (plans); 0 disables caching ("cold" serving). Override per tenant
    /// via [`TenantConfig::cache_capacity`].
    pub cache_capacity: usize,
    /// Byte budget of each tenant's **tier-2** shard-CST cache partition
    /// ([`crate::CstCache`]): the refined shard CSTs and their partition
    /// decompositions, evicted LRU by `Cst::payload_bytes`. A hit makes a
    /// warm serve pure dispatch + kernel (zero build work). 0 disables
    /// tier 2. Override per tenant via [`TenantConfig::cst_cache_bytes`].
    pub cst_cache_bytes: usize,
    /// Bounded in-flight depth across all tenants. Execution permits:
    /// executors pick up queued submissions only while fewer than this
    /// many sessions hold a permit, and [`FastService::try_submit`]
    /// returns [`ServeError::Saturated`] once this many sessions are
    /// admitted but not yet finished. [`FastService::submit`] itself
    /// never blocks — queued sessions are table entries.
    pub max_in_flight: usize,
    /// Default per-session deadline, measured from submission: a session
    /// still queued (or still executing) past it is shed with
    /// [`ServeError::DeadlineExceeded`] instead of stalling its tenant's
    /// DRR lane. `None` disables deadlines. Override per tenant via
    /// [`TenantConfig::deadline`].
    pub deadline: Option<Duration>,
    /// Recovery policy: retry/failover bounds, output cross-checking, and
    /// the degraded-mode CPU fallback.
    pub fault: FaultPolicy,
}

/// Recovery policy of the serving layer: what happens when a device
/// returns [`fast::BackendError`], lies ([`FaultPolicy::cross_check`]), or
/// when the whole fleet is quarantined/evicted
/// ([`FaultPolicy::cpu_fallback`]).
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Execution attempts per partition before its session fails. Each
    /// failed attempt releases the booking, advances the device's health
    /// state machine, and reroutes to the shortest-expected-completion
    /// healthy device *other than* the one that just failed.
    pub max_attempts: usize,
    /// Re-execute every partition on a *second* device and cross-check the
    /// results (embedding count + collected embeddings); disagreeing
    /// devices are marked suspect (counting toward quarantine) until two
    /// executions agree. Catches silent corruption at ~2× device work.
    pub cross_check: bool,
    /// When every pool device is quarantined or evicted, execute on an
    /// emergency host CPU share (degraded mode) instead of shedding the
    /// session with [`ServeError::Degraded`].
    pub cpu_fallback: bool,
}

/// Threads of the emergency CPU share.
const FALLBACK_THREADS: usize = 4;

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_attempts: 4,
            cross_check: false,
            cpu_fallback: true,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        // Serving wants the planned pipeline: the auto planner is what the
        // plan cache amortises, and per-query shard counts are chosen once
        // then replayed from cache.
        let fast = FastConfig {
            shard_planner: ShardPlanner::Auto,
            ..FastConfig::default()
        };
        ServeConfig {
            fast,
            devices: 2,
            extra_devices: Vec::new(),
            workers: 2,
            cache_capacity: 64,
            // Tier 2 defaults on with a deliberately modest budget: warm
            // repeats skip the whole build, and the byte-budgeted LRU
            // bounds residency regardless of query mix.
            cst_cache_bytes: 64 << 20,
            max_in_flight: 64,
            deadline: None,
            fault: FaultPolicy::default(),
        }
    }
}

/// One partition's result, streamed to the session as its backend drains.
#[derive(Debug, Clone)]
pub struct PartitionUpdate {
    /// Position in the session's deterministic partition sequence.
    pub index: usize,
    /// Pool device the partition ran on.
    pub device: usize,
    /// Class of the executing backend (FPGA card or CPU share).
    pub backend: BackendClass,
    /// Embeddings found in this partition (backend-independent).
    pub embeddings: u64,
    /// Modelled kernel cycles the partition cost (0 on CPU backends).
    pub kernel_cycles: u64,
    /// Modelled execution seconds under the backend's own cost model.
    pub modeled_sec: f64,
    /// Collected embeddings, when [`FastConfig::collect`] asks for them.
    pub collected: Vec<Vec<VertexId>>,
}

/// Final per-session report.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Session id (submission order across all tenants).
    pub id: u64,
    /// Tenant the session ran for.
    pub tenant: TenantId,
    /// Completion order across all tenants (0-based): the witness the
    /// fairness tests rank — under saturation, windows of this sequence
    /// split by tenant quota.
    pub completion_seq: u64,
    /// Total embeddings across partitions.
    pub embeddings: u64,
    /// Partitions executed.
    pub partitions: usize,
    /// Whether *either* cache tier hit: the shard plan came from the
    /// tenant's plan cache, or the whole prepared CST set came from its
    /// tier-2 partition.
    pub cache_hit: bool,
    /// Whether the session replayed a tier-2 shard-CST artifact — the
    /// fully warm path: no planning, no build, no partitioning; the
    /// session was pure dispatch + kernel.
    pub cst_cache_hit: bool,
    /// Shard-planning wall time (~0 on a hit).
    pub plan_time: Duration,
    /// CST build wall: refinement + materialisation + partitioning,
    /// excluding inline backend execution. **Exactly zero** on a tier-2
    /// hit — the claim the `cstcache` figure and the release-mode warm
    /// test assert.
    pub build_time: Duration,
    /// Phase-1 top-down scan work of the session's build — 0 when every
    /// shard was seeded from the plan's probe *or* replayed from tier 2.
    pub topdown_entries: usize,
    /// Shards the plan decomposed the root set into.
    pub pipeline_shards: usize,
    /// Shards built from the cached/fresh plan's probe — a warm-cache
    /// session seeds every shard and skips the global top-down scan. 0 on
    /// a tier-2 hit (nothing is built at all).
    pub seeded_shards: usize,
    /// Wall time from worker pickup to completion (build + partition +
    /// inline emulated backends).
    pub service_time: Duration,
    /// Wall time from submission to worker pickup.
    pub queue_wait: Duration,
    /// Modelled device queueing delay: the worst queue this session's
    /// partitions joined behind (outstanding booked work on the assigned
    /// device at its modelled rate, in seconds). The host wall alone hides
    /// this contention — the emulated backends run inline — so it is
    /// folded into [`latency`](Self::latency).
    pub device_queue_sec: f64,
    /// Wall time from submission to completion **plus** the modelled
    /// device queueing delay ([`device_queue_sec`](Self::device_queue_sec))
    /// — the device-faithful latency the service percentiles aggregate.
    pub latency: Duration,
    /// Modelled kernel cycles across the session's FPGA-executed
    /// partitions (CPU-executed partitions have no cycle notion).
    pub kernel_cycles: u64,
    /// Modelled execution seconds across all partitions, each under its
    /// executing backend's own cost model.
    pub device_sec: f64,
    /// Failed execution attempts this session retried (each one released
    /// its booking and rerouted).
    pub retries: u64,
    /// Retries that landed on a *different* device than the one that
    /// failed (rerouting, not same-device re-execution).
    pub failovers: u64,
    /// Corrupted outputs the cross-check caught and outvoted.
    pub corruption_catches: u64,
    /// Wall seconds this session spent executing on the emergency CPU
    /// fallback because the whole pool was quarantined or evicted.
    pub degraded_sec: f64,
}

/// Events a [`SessionHandle`] receives, in order: zero or more
/// [`SessionEvent::Partition`]s, then exactly one `Done` or `Failed`.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// One partition finished on a device.
    Partition(PartitionUpdate),
    /// The session completed; final report.
    Done(QueryReport),
    /// The session failed with a typed error —
    /// [`ServeError::Failed`] from the planning/validation layer or a
    /// partition that exhausted its retry budget,
    /// [`ServeError::DeadlineExceeded`] for a session shed past its
    /// deadline, [`ServeError::Degraded`] for a session shed because the
    /// whole fleet was down (CPU fallback disabled).
    Failed(ServeError),
}

/// Typed service errors: session outcomes ([`Failed`](Self::Failed),
/// [`Disconnected`](Self::Disconnected)) and construction/registration
/// failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service reported a failure for this session.
    Failed(String),
    /// The service shut down before the session finished.
    Disconnected,
    /// The configured fleet has no devices at all.
    NoDevices,
    /// A tenant was registered with quota 0 (it could never be scheduled).
    ZeroQuota,
    /// The addressed tenant was never registered.
    UnknownTenant(TenantId),
    /// A tenant snapshot failed to load.
    Snapshot(String),
    /// The session's deadline ([`ServeConfig::deadline`] /
    /// [`TenantConfig::deadline`]) passed before it finished; queued or
    /// remaining work was shed.
    DeadlineExceeded,
    /// Every pool device is quarantined or evicted and the CPU fallback is
    /// disabled: the session was shed rather than queued forever.
    Degraded,
    /// The admission bound (`max_in_flight`) is reached:
    /// [`FastService::try_submit`] hands the caller typed backpressure
    /// instead of queueing without limit.
    Saturated,
    /// Shutdown has begun: new submissions are rejected, and queued
    /// sessions that never started are shed with this error.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Failed(msg) => write!(f, "session failed: {msg}"),
            ServeError::Disconnected => write!(f, "service shut down mid-session"),
            ServeError::NoDevices => write!(f, "service has no devices (empty fleet)"),
            ServeError::ZeroQuota => write!(f, "tenant quota must be >= 1"),
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::Snapshot(msg) => write!(f, "snapshot load failed: {msg}"),
            ServeError::DeadlineExceeded => {
                write!(f, "session shed: deadline exceeded before completion")
            }
            ServeError::Degraded => write!(
                f,
                "service degraded: every device is quarantined or evicted"
            ),
            ServeError::Saturated => {
                write!(f, "service saturated: admission bound reached")
            }
            ServeError::ShuttingDown => {
                write!(f, "service shutting down: submission rejected")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Caller-side handle of one submitted query.
#[derive(Debug)]
pub struct SessionHandle {
    id: u64,
    tenant: TenantId,
    rx: mpsc::Receiver<SessionEvent>,
}

impl SessionHandle {
    /// Session id (submission order, 0-based).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Tenant the session was submitted for.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Blocks for the next event; `None` once the session is over (after
    /// `Done`/`Failed` was delivered) or the service shut down.
    pub fn next_event(&self) -> Option<SessionEvent> {
        self.rx.recv().ok()
    }

    /// Drains the session to completion, discarding partition updates.
    pub fn wait(self) -> Result<QueryReport, ServeError> {
        loop {
            match self.rx.recv() {
                Ok(SessionEvent::Done(report)) => return Ok(report),
                Ok(SessionEvent::Failed(err)) => return Err(err),
                Ok(SessionEvent::Partition(_)) => continue,
                Err(_) => return Err(ServeError::Disconnected),
            }
        }
    }
}

/// Everything the service keys by tenant: the loaded graph, its epoch,
/// the fair-share quota, private cache partitions (both tiers), and
/// metrics.
struct TenantState {
    id: TenantId,
    graph: Arc<Graph>,
    quota: u32,
    /// Resolved per-session deadline: the tenant's own override or the
    /// service default.
    deadline: Option<Duration>,
    /// Graph epoch folded into this tenant's cache keys (both tiers);
    /// bump on any graph change so stale entries can never hit.
    epoch: AtomicU64,
    /// Tier 1: shard plans.
    cache: Mutex<PlanCache>,
    /// Tier 2: refined shard CSTs + partition decompositions,
    /// byte-budgeted.
    cst_cache: Mutex<CstCache>,
    metrics: Mutex<MetricsState>,
}

struct Submission {
    id: u64,
    tenant: Arc<TenantState>,
    query: QueryGraph,
    submitted: Instant,
    /// Submit time on the obs trace clock, so the session and queue-wait
    /// spans start at the true submit instant (0 when tracing is off).
    submitted_ns: u64,
    tx: mpsc::Sender<SessionEvent>,
}

#[derive(Default)]
struct Gate {
    /// Sessions holding an execution permit (picked up, not finished).
    in_flight: usize,
    /// Sessions admitted and not yet finished, including still-queued
    /// ones — the bound [`FastService::try_submit`] enforces.
    admitted: usize,
    /// High-water mark of `in_flight` (permit holders only).
    max_seen: usize,
}

/// Sample distributions are streaming log-bucketed [`obs::Histogram`]s:
/// constant memory on a service that runs forever (the predecessor was a
/// strided sample reservoir that still held 2¹⁶ floats per set), exact
/// mergeable bucket counts (so [`FastService::report_window`] deltas
/// reconcile bit-exactly against the lifetime report on every integer
/// counter), and quantiles read without any per-report sort.
#[derive(Default, Clone)]
struct MetricsState {
    submitted: u64,
    completed: u64,
    failed: u64,
    total_embeddings: u64,
    retries: u64,
    failovers: u64,
    corruption_catches: u64,
    deadline_misses: u64,
    degraded_sec: f64,
    latencies: obs::Histogram,
    queue_waits: obs::Histogram,
    device_queues: obs::Histogram,
    plan_hits: obs::Histogram,
    plan_misses: obs::Histogram,
    build_hits: obs::Histogram,
    build_misses: obs::Histogram,
    first_submit: Option<Instant>,
    last_done: Option<Instant>,
}

impl MetricsState {
    /// Counters accumulated since `base` was captured — the rolling-window
    /// delta. Integer counters and histogram bucket counts subtract
    /// exactly; the f64 sums (`degraded_sec`, histogram sums) subtract in
    /// floating point and are clamped non-negative.
    fn delta(&self, base: &MetricsState) -> MetricsState {
        MetricsState {
            submitted: self.submitted.saturating_sub(base.submitted),
            completed: self.completed.saturating_sub(base.completed),
            failed: self.failed.saturating_sub(base.failed),
            total_embeddings: self.total_embeddings.saturating_sub(base.total_embeddings),
            retries: self.retries.saturating_sub(base.retries),
            failovers: self.failovers.saturating_sub(base.failovers),
            corruption_catches: self
                .corruption_catches
                .saturating_sub(base.corruption_catches),
            deadline_misses: self.deadline_misses.saturating_sub(base.deadline_misses),
            degraded_sec: (self.degraded_sec - base.degraded_sec).max(0.0),
            latencies: self.latencies.delta(&base.latencies),
            queue_waits: self.queue_waits.delta(&base.queue_waits),
            device_queues: self.device_queues.delta(&base.device_queues),
            plan_hits: self.plan_hits.delta(&base.plan_hits),
            plan_misses: self.plan_misses.delta(&base.plan_misses),
            build_hits: self.build_hits.delta(&base.build_hits),
            build_misses: self.build_misses.delta(&base.build_misses),
            first_submit: self.first_submit,
            last_done: self.last_done,
        }
    }
}

/// Baseline captured at the previous [`FastService::report_window`] call:
/// the next window report is the current cumulative state minus this.
struct WindowState {
    /// Sequence number of the *next* window.
    seq: u64,
    /// When the baseline was captured (service start for window 0).
    taken_at: Instant,
    metrics: MetricsState,
    cache: CacheStats,
    cst_cache: CacheStats,
    devices: Vec<DeviceStats>,
}

/// One pass over the service's cumulative state — each lock taken briefly
/// in turn — shared by the lifetime report and the window delta.
struct Cumulative {
    metrics: MetricsState,
    tenants: Vec<Arc<TenantState>>,
    cache: CacheStats,
    cst_cache: CacheStats,
    cst_resident_bytes: usize,
    devices: Vec<DeviceStats>,
    max_seen: usize,
}

impl Cumulative {
    fn capture(inner: &Inner) -> Cumulative {
        let metrics = inner.metrics.plock().clone();
        let tenants: Vec<Arc<TenantState>> = inner.tenants.pread().values().cloned().collect();
        let mut cache = CacheStats::default();
        let mut cst_cache = CacheStats::default();
        let mut cst_resident_bytes = 0usize;
        for t in &tenants {
            cache.absorb(&t.cache.plock().stats());
            let cc = t.cst_cache.plock();
            cst_cache.absorb(&cc.stats());
            cst_resident_bytes += cc.resident_bytes();
        }
        Cumulative {
            metrics,
            tenants,
            cache,
            cst_cache,
            cst_resident_bytes,
            devices: inner.devices.plock().snapshot(),
            max_seen: inner.gate.plock().max_seen,
        }
    }
}

/// The device pool's per-device counters with the fleet aggregates
/// derived from them.
struct PoolView {
    stats: Vec<DeviceStats>,
    makespan_sec: f64,
    busy_sec: f64,
    imbalance: f64,
}

impl PoolView {
    /// Derives the fleet aggregates from a stats vector: the pool's
    /// lifetime snapshot, or a window delta (where makespan/busy/imbalance
    /// then describe the window's own activity).
    fn from_stats(stats: Vec<DeviceStats>) -> PoolView {
        let makespan_sec = stats.iter().map(|d| d.busy_sec).fold(0.0, f64::max);
        let busy_sec = stats.iter().map(|d| d.busy_sec).sum();
        let max = stats.iter().map(|d| d.total_workload).fold(0.0, f64::max);
        let mean = if stats.is_empty() {
            0.0
        } else {
            stats.iter().map(|d| d.total_workload).sum::<f64>() / stats.len() as f64
        };
        let imbalance = if mean == 0.0 { 1.0 } else { max / mean };
        PoolView {
            stats,
            makespan_sec,
            busy_sec,
            imbalance,
        }
    }
}

/// Registry handles for the hot-path serving counters, resolved once at
/// service construction (the registry lock is never taken per session).
/// The counters mirror the `MetricsState` fields one-for-one — the
/// `prop_obs` suite reconciles the two exactly.
struct ObsHooks {
    submitted: Arc<obs::Counter>,
    completed: Arc<obs::Counter>,
    failed: Arc<obs::Counter>,
    deadline_misses: Arc<obs::Counter>,
    retries: Arc<obs::Counter>,
    failovers: Arc<obs::Counter>,
    corruption_catches: Arc<obs::Counter>,
    in_flight: Arc<obs::Gauge>,
}

impl ObsHooks {
    fn new() -> Self {
        // `obs_` prefix: these are the *live* registry counters; the
        // report-derived exposition renders the same quantities under
        // `serve_*`, and one exposition must not repeat a metric name.
        ObsHooks {
            submitted: obs::counter("obs_sessions_submitted_total", "Sessions admitted"),
            completed: obs::counter("obs_sessions_completed_total", "Sessions completed"),
            failed: obs::counter("obs_sessions_failed_total", "Sessions failed"),
            deadline_misses: obs::counter(
                "obs_deadline_misses_total",
                "Sessions shed past their deadline",
            ),
            retries: obs::counter("obs_retries_total", "Failed attempts retried"),
            failovers: obs::counter(
                "obs_failovers_total",
                "Retries rerouted to a different device",
            ),
            corruption_catches: obs::counter(
                "obs_corruption_catches_total",
                "Corrupted outputs outvoted by the cross-check",
            ),
            in_flight: obs::gauge("obs_in_flight", "Currently admitted sessions"),
        }
    }
}

/// A unit of session work on an executor deque — and the only thing that
/// moves a session through its lifecycle. Tasks are one `u64` deep; the
/// state lives in the session slab.
///
/// ```text
///  DRR pickup ──▶ Start ──┬─ key in flight elsewhere: park ──▶ Resume ─┐
///  (permit taken)         │                                            │
///                         │◀───────────────────────────────────────────┘
///                         ├─ partitions staged ──▶ Exec ──▶ Exec ──▶ … ─┐
///                         │                       (one partition each)  │
///                         ▼                                             ▼
///                     retire: Done / Failed / Shed (deadline) ◀─────────┘
///                     (exactly once: `SessionMut::finished`)
/// ```
///
/// Every task re-checks the session's deadline before doing work, and
/// `Exec` re-checks it again after its partition, so a session past its
/// budget sheds at the next transition instead of executing doomed work.
#[derive(Clone, Copy)]
enum Task {
    /// First entry after pickup: record the queue wait, derive the plan,
    /// resolve the cache tiers, build, stage partitions.
    Start(u64),
    /// Re-entry after parking on another session's plan flight.
    Resume(u64),
    /// Execute the session's next staged partition, then retire the
    /// session or push the next `Exec`.
    Exec(u64),
}

impl Task {
    fn sid(&self) -> u64 {
        match self {
            Task::Start(id) | Task::Resume(id) | Task::Exec(id) => *id,
        }
    }
}

/// The session's derived execution plan, shared with partition tasks
/// through an `Arc` so execution never holds the session lock.
struct SessionPlan {
    tree: BfsTree,
    order: MatchingOrder,
    kernel_plan: KernelPlan,
    collect: CollectMode,
}

/// Accumulated results and timing splits, folded partition by partition
/// and snapshotted once at retirement to assemble the [`QueryReport`].
#[derive(Clone, Default)]
struct SessionStats {
    embeddings: u64,
    partitions: usize,
    kernel_cycles: u64,
    device_sec: f64,
    acc: FaultAcc,
    picked: Option<Instant>,
    queue_wait: Duration,
    build_start_ns: u64,
    plan_time: Duration,
    build_time: Duration,
    topdown_entries: usize,
    pipeline_shards: usize,
    seeded_shards: usize,
    plan_hit: bool,
    cst_cache_hit: bool,
}

/// Mutable per-session state, guarded by the slot's own lock. This is
/// the **innermost** lock in the service: it is never held while taking
/// any other.
struct SessionMut {
    /// Derived once at pickup.
    plan: Option<Arc<SessionPlan>>,
    /// Partitions awaiting execution, in deterministic prepare order.
    jobs: VecDeque<PartitionJob>,
    /// First fatal error, latched: remaining partitions are skipped.
    session_err: Option<ServeError>,
    /// Flipped exactly once, before any retirement side effect — the
    /// guard that makes permit release and final-event delivery
    /// exactly-once under races (a stale task vs. a panic handler).
    finished: bool,
    stats: SessionStats,
}

/// One admitted session in the slab: the immutable submission plus the
/// lock-guarded mutable state the executors advance.
struct SessionSlot {
    id: u64,
    tenant: Arc<TenantState>,
    query: QueryGraph,
    submitted: Instant,
    submitted_ns: u64,
    tx: mpsc::Sender<SessionEvent>,
    mu: Mutex<SessionMut>,
}

impl SessionSlot {
    fn new(sub: Submission) -> Self {
        SessionSlot {
            id: sub.id,
            tenant: sub.tenant,
            query: sub.query,
            submitted: sub.submitted,
            submitted_ns: sub.submitted_ns,
            tx: sub.tx,
            mu: Mutex::new(SessionMut {
                plan: None,
                jobs: VecDeque::new(),
                session_err: None,
                finished: false,
                stats: SessionStats::default(),
            }),
        }
    }
}

struct Inner {
    config: ServeConfig,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    next_tenant: AtomicU32,
    /// Registered tenants, ordered by id for deterministic report slices.
    tenants: RwLock<BTreeMap<TenantId, Arc<TenantState>>>,
    /// The compatibility tenant `submit` addresses, outside the registry
    /// lock (the single-tenant hot path).
    default_tenant: Arc<TenantState>,
    /// Keys being computed right now (single-flight, scoped per tenant),
    /// each mapped to the sessions **parked** on it: a concurrent
    /// identical cold query parks as a slab entry — no executor thread
    /// blocks — and the owner's flight release re-enqueues it. With
    /// tier 2 enabled the owner holds its claim through the whole build
    /// (waiters wake into a tier-2 hit — shard CSTs are built exactly
    /// once); with tier 2 disabled the claim covers only planning.
    pending_plans: Mutex<HashMap<(TenantId, PlanKey), Vec<u64>>>,
    devices: Mutex<DevicePool>,
    /// The emergency CPU share of degraded mode: partitions run here when
    /// every pool device is quarantined or evicted (and
    /// [`FaultPolicy::cpu_fallback`] allows it). `PartitionUpdate::device`
    /// reports it as the virtual index `pool.len()`.
    fallback: Option<Arc<CpuBackend>>,
    /// The queued session table: one weighted lane per tenant.
    queue: Mutex<WrrQueue<Submission>>,
    /// The session slab: every picked-up-but-unfinished session. Removal
    /// on retirement drops the event sender, so an abandoned handle sees
    /// [`ServeError::Disconnected`] rather than hanging.
    sessions: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    /// Per-executor task deques: the owner pops newest-first (cache-warm
    /// LIFO), thieves steal oldest-first (FIFO). Tasks route to
    /// `deques[sid % workers]`, so one session's tasks mostly stay on
    /// one executor.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// One wake sequence shared by every producer (submissions, task
    /// pushes, permit releases, shutdown): producers bump and
    /// notify; an idle executor snapshots it *before* scanning and
    /// sleeps only if it is unchanged — the missed-wakeup guard.
    wake: Mutex<u64>,
    wake_cond: Condvar,
    shutting_down: AtomicBool,
    gate: Mutex<Gate>,
    /// Service-wide metrics (per-tenant slices live in `TenantState`).
    metrics: Mutex<MetricsState>,
    /// Baseline for the next [`FastService::report_window`] delta.
    window: Mutex<WindowState>,
    /// Cached obs registry counter handles for the serving hot path.
    hooks: ObsHooks,
}

impl Inner {
    fn tenant(&self, id: TenantId) -> Result<Arc<TenantState>, ServeError> {
        if id == self.default_tenant.id {
            return Ok(Arc::clone(&self.default_tenant));
        }
        self.tenants
            .pread()
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownTenant(id))
    }
}

/// A running multi-tenant query-serving service over a pool of execution
/// backends.
pub struct FastService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for FastService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastService")
            .field("workers", &self.workers.len())
            .field("max_in_flight", &self.inner.config.max_in_flight)
            .finish_non_exhaustive()
    }
}

impl FastService {
    /// Loads `graph` as the default tenant and spawns the worker pool;
    /// panics on an invalid fleet (use [`FastService::try_new`] for the
    /// typed error). Accepts a plain [`Graph`] or a shared [`Arc<Graph>`].
    pub fn new(graph: impl Into<Arc<Graph>>, config: ServeConfig) -> Self {
        Self::try_new(graph, config).expect("service construction")
    }

    /// Fallible construction: an empty device fleet is
    /// [`ServeError::NoDevices`] instead of a panic.
    pub fn try_new(
        graph: impl Into<Arc<Graph>>,
        mut config: ServeConfig,
    ) -> Result<Self, ServeError> {
        assert!(config.workers >= 1, "need at least one executor");
        assert!(config.max_in_flight >= 1, "need in-flight depth >= 1");
        let pool = DevicePool::build(&config.fast, config.devices, &config.extra_devices)?;
        // One partition stream feeds every card: partitions must fit the
        // smallest FPGA BRAM in the fleet.
        if let Some(min_bram) = pool.min_fpga_bram() {
            config.fast.spec.bram_bytes = config.fast.spec.bram_bytes.min(min_bram);
        }
        let default_tenant = Arc::new(TenantState {
            id: TenantId::DEFAULT,
            graph: graph.into(),
            quota: 1,
            deadline: config.deadline,
            epoch: AtomicU64::new(TenantConfig::default().epoch),
            cache: Mutex::new(PlanCache::new(config.cache_capacity)),
            cst_cache: Mutex::new(CstCache::new(config.cst_cache_bytes)),
            metrics: Mutex::new(MetricsState::default()),
        });
        let mut queue = WrrQueue::new();
        queue.add_lane(TenantId::DEFAULT, default_tenant.quota);
        let mut tenants = BTreeMap::new();
        tenants.insert(TenantId::DEFAULT, Arc::clone(&default_tenant));
        let inner = Arc::new(Inner {
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            next_tenant: AtomicU32::new(1),
            tenants: RwLock::new(tenants),
            default_tenant,
            pending_plans: Mutex::new(HashMap::new()),
            devices: Mutex::new(pool),
            fallback: config
                .fault
                .cpu_fallback
                .then(|| Arc::new(CpuBackend::new(FALLBACK_THREADS))),
            queue: Mutex::new(queue),
            sessions: Mutex::new(HashMap::new()),
            deques: (0..config.workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            wake: Mutex::new(0),
            wake_cond: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            gate: Mutex::new(Gate::default()),
            metrics: Mutex::new(MetricsState::default()),
            window: Mutex::new(WindowState {
                seq: 0,
                taken_at: Instant::now(),
                metrics: MetricsState::default(),
                cache: CacheStats::default(),
                cst_cache: CacheStats::default(),
                devices: Vec::new(),
            }),
            hooks: ObsHooks::new(),
            config,
        });
        let workers = (0..inner.config.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || executor_loop(&inner, w))
            })
            .collect();
        Ok(FastService { inner, workers })
    }

    /// Registers a tenant: its own graph, epoch, fair-share quota, and
    /// plan-cache partition. Zero quotas are rejected
    /// ([`ServeError::ZeroQuota`]) — such a tenant could never be
    /// scheduled.
    pub fn add_tenant(
        &self,
        graph: impl Into<Arc<Graph>>,
        config: TenantConfig,
    ) -> Result<TenantId, ServeError> {
        if config.quota == 0 {
            return Err(ServeError::ZeroQuota);
        }
        let id = TenantId::new(self.inner.next_tenant.fetch_add(1, Ordering::Relaxed));
        let cst_budget = config
            .cst_cache_bytes
            .unwrap_or(self.inner.config.cst_cache_bytes);
        let state = Arc::new(TenantState {
            id,
            graph: graph.into(),
            quota: config.quota,
            deadline: config.deadline.or(self.inner.config.deadline),
            epoch: AtomicU64::new(config.epoch),
            cache: Mutex::new(PlanCache::new(
                config
                    .cache_capacity
                    .unwrap_or(self.inner.config.cache_capacity),
            )),
            cst_cache: Mutex::new(CstCache::new(cst_budget)),
            metrics: Mutex::new(MetricsState::default()),
        });
        // Lane before registry: a submission can only name the tenant
        // after `add_tenant` returns, and by then both exist.
        self.inner
            .queue
            .plock()
            .add_lane(id, config.quota);
        self.inner
            .tenants
            .pwrite()
            .insert(id, state);
        Ok(id)
    }

    /// Registers a tenant from a binary CSR snapshot
    /// (`graph_core::snapshot`) — the restart path that skips graph
    /// rebuild entirely. The snapshot is memory-mapped and verified
    /// eagerly ([`graph_core::load_snapshot_mapped`]): the CSR sections
    /// are adopted zero-copy out of the mapping instead of being re-read
    /// and re-allocated, so a large tenant graph costs page-cache
    /// references, not a heap copy.
    pub fn load_tenant_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
        config: TenantConfig,
    ) -> Result<TenantId, ServeError> {
        let snap = graph_core::load_snapshot_mapped(path, graph_core::SnapshotVerify::Eager)
            .map_err(|e| ServeError::Snapshot(e.to_string()))?;
        self.add_tenant(snap.into_graph(), config)
    }

    /// The default tenant's data graph.
    pub fn graph(&self) -> &Graph {
        self.inner.default_tenant.graph.as_ref()
    }

    /// A tenant's loaded data graph.
    pub fn tenant_graph(&self, tenant: TenantId) -> Result<Arc<Graph>, ServeError> {
        Ok(Arc::clone(&self.inner.tenant(tenant)?.graph))
    }

    /// Bumps a tenant's graph epoch (after mutating/replacing its graph),
    /// invalidating every cached plan and tier-2 artifact for it — other
    /// tenants' residency and hit rates are untouched. Returns the new
    /// epoch.
    pub fn bump_epoch(&self, tenant: TenantId) -> Result<u64, ServeError> {
        let state = self.inner.tenant(tenant)?;
        let epoch = state.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        // Tier 1 needs no clearing: the epoch is inside the PlanKey, so
        // stale plans can never hit and age out by LRU. Tier-2 payloads
        // are megabytes — drop them eagerly instead of letting stale
        // artifacts squat the byte budget until eviction.
        state
            .cst_cache
            .plock()
            .clear();
        Ok(epoch)
    }

    /// Submits a query for the default tenant. **Non-blocking**: the
    /// submission is enqueued on the tenant's DRR lane and the handle
    /// returned immediately; execution permits (`max_in_flight`) are
    /// taken at pickup, not here. [`SessionHandle::wait`] stays the
    /// blocking side of the API.
    pub fn submit(&self, query: QueryGraph) -> SessionHandle {
        self.submit_for(TenantId::DEFAULT, query)
            .expect("default tenant always exists")
    }

    /// Submits a query for `tenant` — non-blocking, as [`Self::submit`].
    /// Fails typed with [`ServeError::ShuttingDown`] once shutdown has
    /// begun.
    pub fn submit_for(
        &self,
        tenant: TenantId,
        query: QueryGraph,
    ) -> Result<SessionHandle, ServeError> {
        let state = self.inner.tenant(tenant)?;
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        self.inner.gate.plock().admitted += 1;
        Ok(self.enqueue(state, query))
    }

    /// Admission with typed backpressure for the default tenant: at the
    /// admission bound (`max_in_flight` sessions admitted and not yet
    /// finished) the submission is rejected with
    /// [`ServeError::Saturated`] instead of queueing without limit.
    pub fn try_submit(&self, query: QueryGraph) -> Result<SessionHandle, ServeError> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        {
            // Check-and-claim under one gate lock: two racing
            // `try_submit`s can never both squeeze past the bound.
            let mut gate = self.inner.gate.plock();
            if gate.admitted >= self.inner.config.max_in_flight {
                return Err(ServeError::Saturated);
            }
            gate.admitted += 1;
        }
        Ok(self.enqueue(Arc::clone(&self.inner.default_tenant), query))
    }

    fn enqueue(&self, tenant: Arc<TenantState>, query: QueryGraph) -> SessionHandle {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant_id = tenant.id;
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        {
            let mut m = self.inner.metrics.plock();
            m.submitted += 1;
            m.first_submit.get_or_insert(now);
        }
        {
            let mut m = tenant.metrics.plock();
            m.submitted += 1;
            m.first_submit.get_or_insert(now);
        }
        self.inner.hooks.submitted.inc();
        let submission = Submission {
            id,
            tenant,
            query,
            submitted: now,
            submitted_ns: obs::now_ns(),
            tx,
        };
        let pushed = self
            .inner
            .queue
            .plock()
            .push(tenant_id, submission);
        debug_assert!(pushed, "validated tenant must have a lane");
        notify_executors(&self.inner);
        SessionHandle {
            id,
            tenant: tenant_id,
            rx,
        }
    }

    /// A point-in-time service report (callable while serving). Each lock
    /// is taken briefly in turn to snapshot its state; the histogram
    /// aggregation runs with no lock held, so a report never stalls
    /// admission or dispatch.
    pub fn report(&self) -> ServeReport {
        let snap = Cumulative::capture(&self.inner);
        let summaries = snap.tenants.iter().map(|t| tenant_summary(t)).collect();
        assemble_report(
            &snap.metrics,
            snap.cache,
            snap.cst_cache,
            snap.cst_resident_bytes,
            &PoolView::from_stats(snap.devices),
            snap.max_seen,
            summaries,
        )
    }

    /// A single tenant's report slice.
    pub fn tenant_report(&self, tenant: TenantId) -> Result<TenantSummary, ServeError> {
        let state = self.inner.tenant(tenant)?;
        Ok(tenant_summary(&state))
    }

    /// A rolling-window report: everything since the previous
    /// `report_window` call (or service start, for the first window).
    /// Integer counters and histogram bucket counts are exact deltas of
    /// the lifetime state — summing them across every window of a run
    /// reconciles bit-exactly with the final lifetime [`ServeReport`].
    /// Point-in-time fields (`cst_resident_bytes`, device health and
    /// outstanding workload, `max_in_flight`) are current values, and the
    /// per-tenant slices are empty — windows slice time, not tenants.
    pub fn report_window(&self) -> ServeReport {
        let now = Instant::now();
        // Snapshot cumulative state, then delta against the stored
        // baseline.
        let Cumulative {
            metrics,
            cache,
            cst_cache,
            cst_resident_bytes,
            devices: device_stats,
            max_seen,
            tenants: _,
        } = Cumulative::capture(&self.inner);

        let mut window = self.inner.window.plock();
        let wall_sec = now.duration_since(window.taken_at).as_secs_f64();
        let mut delta = metrics.delta(&window.metrics);
        // The window wall is baseline→now, not first-submit→last-done.
        delta.first_submit = Some(window.taken_at);
        delta.last_done = Some(now);
        let cache_delta = cache.delta(&window.cache);
        let cst_delta = cst_cache.delta(&window.cst_cache);
        let stats_delta: Vec<DeviceStats> = device_stats
            .iter()
            .enumerate()
            .map(|(i, d)| window.devices.get(i).map_or(*d, |base| d.delta(base)))
            .collect();
        let seq = window.seq;
        // Advance the baseline: the next window starts here.
        window.seq += 1;
        window.taken_at = now;
        window.metrics = metrics;
        window.cache = cache;
        window.cst_cache = cst_cache;
        window.devices = device_stats;
        drop(window);

        let pool = PoolView::from_stats(stats_delta);
        let mut report = assemble_report(
            &delta,
            cache_delta,
            cst_delta,
            cst_resident_bytes,
            &pool,
            max_seen,
            Vec::new(),
        );
        report.window = Some(crate::metrics::WindowInfo { seq, wall_sec });
        debug_assert!(report.is_finite());
        report
    }

    /// Prometheus text exposition: the global `obs` registry (hot-path
    /// counters, health gauges) followed by the report-derived `serve_*`
    /// metrics and the cumulative latency histogram.
    pub fn prometheus_text(&self) -> String {
        let mut out = obs::registry().prometheus_text();
        out.push_str(&self.report().prometheus_text());
        out
    }

    /// Deterministic shutdown: stops accepting submissions, runs every
    /// **in-flight** session to completion, sheds every queued-but-never-
    /// started session with [`ServeError::ShuttingDown`] (no waiter ever
    /// hangs), joins the executors, and returns the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_workers();
        self.report()
    }

    fn stop_workers(&mut self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        notify_executors(&self.inner);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // A submission can race the flag: checked before the store,
        // enqueued after the executors drained and exited. Shed any such
        // straggler here so its handle resolves typed instead of hanging.
        loop {
            let sub = {
                let mut gate = self.inner.gate.plock();
                let mut queue = self.inner.queue.plock();
                match queue.pop() {
                    Some(sub) => {
                        gate.admitted = gate.admitted.saturating_sub(1);
                        Some(sub)
                    }
                    None => None,
                }
            };
            match sub {
                Some(sub) => shed_for_shutdown(&self.inner, sub),
                None => break,
            }
        }
    }
}

impl Drop for FastService {
    fn drop(&mut self) {
        // `shutdown` already joined; otherwise the same deterministic
        // drain — in-flight sessions complete, queued ones shed typed.
        self.stop_workers();
    }
}

fn tenant_summary(t: &TenantState) -> TenantSummary {
    let m = t.metrics.plock().clone();
    let cache = t.cache.plock().stats();
    let (cst_stats, cst_resident_bytes) = {
        let cc = t.cst_cache.plock();
        (cc.stats(), cc.resident_bytes())
    };
    let wall_sec = match (m.first_submit, m.last_done) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    TenantSummary {
        tenant: t.id,
        quota: t.quota,
        epoch: t.epoch.load(Ordering::Relaxed),
        submitted: m.submitted,
        completed: m.completed,
        failed: m.failed,
        deadline_misses: m.deadline_misses,
        retries: m.retries,
        failovers: m.failovers,
        corruption_catches: m.corruption_catches,
        degraded_sec: m.degraded_sec,
        total_embeddings: m.total_embeddings,
        qps: if wall_sec > 0.0 {
            m.completed as f64 / wall_sec
        } else {
            0.0
        },
        // Histogram nearest-rank quantiles: one bucket scan each, no
        // per-report sort (the predecessor sorted the full sample vector
        // twice per summary).
        latency_p50: m.latencies.quantile(0.50),
        latency_p99: m.latencies.quantile(0.99),
        hit_rate: cache.hit_rate(),
        cst_hit_rate: cst_stats.hit_rate(),
        cst_resident_bytes,
    }
}

#[allow(clippy::too_many_arguments)]
fn assemble_report(
    m: &MetricsState,
    cache: CacheStats,
    cst_cache: CacheStats,
    cst_resident_bytes: usize,
    pool: &PoolView,
    max_in_flight: usize,
    tenants: Vec<TenantSummary>,
) -> ServeReport {
    let wall_sec = match (m.first_submit, m.last_done) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    let mut report = ServeReport {
        submitted: m.submitted,
        completed: m.completed,
        failed: m.failed,
        deadline_misses: m.deadline_misses,
        retries: m.retries,
        failovers: m.failovers,
        // Quarantines live on the devices, not the sessions: the pool
        // snapshot is their ground truth.
        quarantines: pool.stats.iter().map(|d| d.quarantines).sum(),
        corruption_catches: m.corruption_catches,
        degraded_sec: m.degraded_sec,
        total_embeddings: m.total_embeddings,
        cache,
        cst_cache,
        cst_resident_bytes,
        // Degenerate walls must never surface NaN/inf: a report taken
        // before any completion has no wall at all, and a single session
        // can complete within one clock tick (`wall_sec == 0.0` with
        // `completed > 0`). Both collapse to QPS 0 rather than dividing.
        qps: if wall_sec > 0.0 {
            m.completed as f64 / wall_sec
        } else {
            0.0
        },
        wall_sec,
        device_makespan_sec: pool.makespan_sec,
        device_busy_sec: pool.busy_sec,
        device_imbalance: pool.imbalance,
        devices: pool.stats.clone(),
        max_in_flight,
        tenants,
        ..ServeReport::default()
    };
    report.aggregate(
        &m.latencies,
        &m.queue_waits,
        &m.device_queues,
        &m.plan_hits,
        &m.plan_misses,
        &m.build_hits,
        &m.build_misses,
    );
    debug_assert!(report.is_finite(), "report must never surface NaN/inf");
    report
}

/// Releases a single-flight claim on drop — including on a panicking
/// unwind — and re-enqueues every parked waiter as a `Resume` task, so
/// a wedged owner can never strand its waiters.
struct FlightGuard<'a> {
    inner: &'a Inner,
    key: (TenantId, PlanKey),
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let waiters = self.inner.pending_plans.plock().remove(&self.key);
        for sid in waiters.into_iter().flatten() {
            push_task(self.inner, Task::Resume(sid));
        }
    }
}

/// Bumps the wake sequence and wakes every idle executor. Called by all
/// producers: submissions, task pushes, permit releases, shutdown.
fn notify_executors(inner: &Inner) {
    *inner.wake.plock() += 1;
    inner.wake_cond.notify_all();
}

/// Routes a task to its session's home deque and wakes the executors.
fn push_task(inner: &Inner, task: Task) {
    let lane = (task.sid() as usize) % inner.deques.len();
    inner.deques[lane].plock().push_back(task);
    notify_executors(inner);
}

/// Pops the next task: own deque newest-first, then steal oldest-first
/// from the peers.
fn pop_task(inner: &Inner, me: usize) -> Option<Task> {
    if let Some(task) = inner.deques[me].plock().pop_back() {
        return Some(task);
    }
    let n = inner.deques.len();
    for step in 1..n {
        if let Some(task) = inner.deques[(me + step) % n].plock().pop_front() {
            return Some(task);
        }
    }
    None
}

/// Looks a session up in the slab; `None` means it was already retired
/// (a stale task) and the caller just returns.
fn session(inner: &Inner, sid: u64) -> Option<Arc<SessionSlot>> {
    inner.sessions.plock().get(&sid).cloned()
}

/// Runs one session task with panic containment: a panicking session is
/// retired as failed (permit released, slab entry dropped so its handle
/// sees `Disconnected`) and the executor itself keeps serving.
fn run_contained(inner: &Inner, sid: u64, f: impl FnOnce()) {
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err() {
        panic_retire(inner, sid);
    }
}

/// The poll loop each executor thread runs. Priority order:
///
/// 1. Own deque (LIFO — the task it just produced, cache-warm). A
///    session's next `Exec` lands here, so with one executor each
///    picked-up session runs to completion before the next DRR pop (the
///    completion-order witness the multi-tenant fairness tests rank).
/// 2. Steal from a peer (FIFO — the oldest parked work).
/// 3. Pick up the next queued submission, if a permit is free.
/// 4. Idle: exit once shutdown has drained everything, else sleep until
///    a producer bumps the wake sequence.
fn executor_loop(inner: &Arc<Inner>, me: usize) {
    loop {
        // Snapshot the wake sequence *before* scanning: a producer that
        // lands mid-scan bumps it, and the wait below falls through.
        let seen = *inner.wake.plock();
        if let Some(task) = pop_task(inner, me) {
            let sid = task.sid();
            run_contained(inner, sid, || run_task(inner, task));
            continue;
        }
        if pickup(inner) {
            continue;
        }
        if inner.shutting_down.load(Ordering::Acquire) && drained(inner) {
            return;
        }
        let wake = inner.wake.plock();
        if *wake == seen {
            drop(pwait(&inner.wake_cond, wake));
        }
    }
}

/// Whether shutdown has nothing left to drain: no admitted session in
/// any state (queued, parked, executing) and no stray task.
fn drained(inner: &Inner) -> bool {
    let queue_idle = {
        let queue = inner.queue.plock();
        queue.len() == 0 && queue.parked_total() == 0
    };
    queue_idle
        && inner.gate.plock().admitted == 0
        && inner.deques.iter().all(|d| d.plock().is_empty())
}

/// Tries to admit the next queued submission. Returns `true` if it did
/// anything (served a pickup or shed at shutdown), `false` on an empty
/// queue or exhausted permits.
fn pickup(inner: &Inner) -> bool {
    let shutting_down = inner.shutting_down.load(Ordering::Acquire);
    let (sub, shed) = {
        // gate → queue is the one nested lock order in the service.
        let mut gate = inner.gate.plock();
        if !shutting_down && gate.in_flight >= inner.config.max_in_flight {
            return false;
        }
        let mut queue = inner.queue.plock();
        let Some(sub) = queue.pop() else {
            return false;
        };
        if shutting_down {
            // Queued-never-started sessions are shed typed at shutdown;
            // they held no execution permit, only an admitted slot.
            gate.admitted = gate.admitted.saturating_sub(1);
            (sub, true)
        } else {
            gate.in_flight += 1;
            gate.max_seen = gate.max_seen.max(gate.in_flight);
            inner.hooks.in_flight.set(gate.in_flight as f64);
            (sub, false)
        }
    };
    if shed {
        shed_for_shutdown(inner, sub);
        return true;
    }
    let sid = sub.id;
    let slot = Arc::new(SessionSlot::new(sub));
    inner.sessions.plock().insert(sid, Arc::clone(&slot));
    run_contained(inner, sid, || run_task(inner, Task::Start(sid)));
    true
}

/// Sheds a queued submission at shutdown with the typed error. The
/// session never started: there is no slab entry or permit to release —
/// only the failure accounting, the closing spans, and the final event.
fn shed_for_shutdown(inner: &Inner, sub: Submission) {
    let strack = obs::session_track(sub.id);
    obs::record_span(
        strack,
        "queue_wait",
        "serve",
        sub.submitted_ns,
        obs::now_ns(),
        Vec::new(),
    );
    finish(inner, &sub.tenant, FinishOutcome::Failed);
    obs::record_span(
        strack,
        "session",
        "serve",
        sub.submitted_ns,
        obs::now_ns(),
        vec![
            ("tenant", obs::ArgValue::U64(sub.tenant.id.raw() as u64)),
            ("outcome", obs::ArgValue::Str("shutdown")),
            ("embeddings", obs::ArgValue::U64(0)),
        ],
    );
    let _ = sub.tx.send(SessionEvent::Failed(ServeError::ShuttingDown));
    notify_executors(inner);
}

fn run_task(inner: &Inner, task: Task) {
    match task {
        Task::Start(sid) => run_admit(inner, sid, false),
        Task::Resume(sid) => run_admit(inner, sid, true),
        Task::Exec(sid) => run_exec(inner, sid),
    }
}

/// Drives a session from pickup (or resume) through planning and build
/// to its first staged partition — or straight to retirement.
fn run_admit(inner: &Inner, sid: u64, resumed: bool) {
    let Some(slot) = session(inner, sid) else { return };
    // Everything this task records — queue wait, plan, build and the
    // backend execute spans down the call stack — lands on the
    // session's own track, re-entered per task.
    let _track = obs::set_track(obs::session_track(sid));
    if resumed {
        // Reverse the park bookkeeping; the DRR lane itself never held
        // this session (it was popped at pickup).
        inner.queue.plock().unpark(slot.tenant.id);
    }
    match build_session(inner, &slot, resumed) {
        BuildOutcome::Parked => {}
        BuildOutcome::Shed(at) => finalize(inner, &slot, SessionOutcome::Shed { at }),
        BuildOutcome::Failed(err) => finalize(inner, &slot, SessionOutcome::Error(err)),
        BuildOutcome::Ready => {
            if slot.mu.plock().jobs.is_empty() {
                finalize(inner, &slot, SessionOutcome::Completed);
            } else {
                push_task(inner, Task::Exec(sid));
            }
        }
    }
}

enum BuildOutcome {
    /// Parked on another session's flight; a `Resume` task re-enters.
    Parked,
    /// The deadline passed at this transition (`&'static str` names it).
    Shed(&'static str),
    Failed(ServeError),
    /// Partitions staged (possibly zero); ready for `Exec` tasks.
    Ready,
}

/// The planning/build half of a session: queue-wait accounting, plan
/// derivation, the two-tier cache resolution under the single-flight
/// gate, and the partition-staging build.
fn build_session(inner: &Inner, slot: &SessionSlot, resumed: bool) -> BuildOutcome {
    let strack = obs::session_track(slot.id);
    let q = &slot.query;
    let tenant = &slot.tenant;
    let g: &Graph = &tenant.graph;
    let deadline = tenant.deadline;

    if !resumed {
        let picked = Instant::now();
        let picked_ns = obs::now_ns();
        let queue_wait = picked.duration_since(slot.submitted);
        obs::record_span(
            strack,
            "queue_wait",
            "serve",
            slot.submitted_ns,
            picked_ns,
            Vec::new(),
        );
        {
            let mut s = slot.mu.plock();
            s.stats.picked = Some(picked);
            s.stats.queue_wait = queue_wait;
        }
        // Deadline shed at pickup: a session that waited out its whole
        // budget in the queue does no work at all — shedding it is what
        // keeps a backlogged DRR lane from stalling every tenant behind
        // doomed work.
        if let Some(dl) = deadline {
            if queue_wait > dl {
                return BuildOutcome::Shed("pickup");
            }
        }
        // Derive tree/order/kernel-plan once; the cache key reuses this
        // tree, and partition tasks share the result through an Arc.
        let root = select_root(q, g);
        let tree = BfsTree::new(q, root);
        let order = path_based_order(q, &tree, g);
        let kernel_plan = match KernelPlan::new(q, &order, &tree) {
            Ok(p) => p,
            Err(e) => return BuildOutcome::Failed(ServeError::Failed(e.to_string())),
        };
        slot.mu.plock().plan = Some(Arc::new(SessionPlan {
            tree,
            order,
            kernel_plan,
            collect: inner.config.fast.collect,
        }));
    } else if let Some(dl) = deadline {
        // Deadline re-check on `Resume`: a session that waited out its
        // budget parked on someone else's flight sheds instead of
        // building doomed work.
        if slot.submitted.elapsed() > dl {
            return BuildOutcome::Shed("resume");
        }
    }
    let plan = Arc::clone(
        slot.mu
            .plock()
            .plan
            .as_ref()
            .expect("plan derived at pickup"),
    );
    let tree = &plan.tree;

    // Two-tier lookup under one single-flight gate, keyed (tenant, key):
    //
    // * **Tier-2 hit** — the refined shard CSTs *and* their partition
    //   decomposition replay through `FastConfig::prepared`: no planning,
    //   no build, no partitioning — the session is pure dispatch + kernel.
    //   No flight is claimed (there is nothing left to compute).
    // * **Tier-2 miss, plan hit** — the stored plan skips the probe and
    //   the build is seeded from its riding probe, as before tier 2. With
    //   tier 2 enabled the flight is **held through the build** and the
    //   finished artifact is inserted before release, so N identical
    //   concurrent cold sessions build the shard CSTs exactly once:
    //   waiters wake straight into a tier-2 hit.
    // * **Both miss** — the plan is computed *here* (the same
    //   `plan_pipeline_shards` the pipeline would call) and published
    //   immediately. With tier 2 disabled the flight is released at plan
    //   publication (waiters need only the plan); with tier 2 enabled it
    //   is held through the build as above.
    let mut config = inner.config.fast.clone();
    let pipe_opts = config.pipeline_options(q.vertex_count());
    let epoch = tenant.epoch.load(Ordering::Relaxed);
    let key = PlanKey::derive(q, tree, &pipe_opts, epoch);
    let flight_key = (tenant.id, key);
    let cache_enabled = tenant.cache.plock().capacity() > 0;
    let cst_enabled = tenant.cst_cache.plock().budget_bytes() > 0;
    let mut cached_plan = None;
    let mut cached_artifact = None;
    let mut flight = None;
    if cache_enabled || cst_enabled {
        let mut pending = inner.pending_plans.plock();
        if let Some(waiters) = pending.get_mut(&flight_key) {
            // The key is being computed right now. Park: register as a
            // waiter (the owner's flight release re-enqueues a Resume
            // task) and take the session off its tenant's deficit board
            // — no executor thread blocks on it.
            waiters.push(slot.id);
            drop(pending);
            inner.queue.plock().park(tenant.id);
            return BuildOutcome::Parked;
        }
        // Tier 2 first: a hit needs neither the plan nor a flight. (The
        // plan cache deliberately sees no lookup — its counters then
        // measure only the sessions that actually needed a plan.)
        if cst_enabled {
            cached_artifact = tenant.cst_cache.plock().get(&key);
        }
        if cached_artifact.is_none() {
            if cache_enabled {
                cached_plan = tenant.cache.plock().get(&key);
            }
            if cached_plan.is_none() || cst_enabled {
                pending.insert(flight_key, Vec::new());
                flight = Some(FlightGuard {
                    inner,
                    key: flight_key,
                });
            }
        }
    } else {
        // Both tiers disabled ("cold" serving): every lookup misses, and
        // both tiers' counters record it.
        cached_artifact = tenant.cst_cache.plock().get(&key);
        cached_plan = tenant.cache.plock().get(&key);
    }
    let cst_cache_hit = cached_artifact.is_some();
    let plan_hit = cached_plan.is_some();
    let mut measured_plan_time = Duration::ZERO;
    if let Some(artifact) = cached_artifact {
        // Fully warm: `prepare_partitions` streams the artifact's
        // partitions straight into the staging sink below.
        config.prepared = Some(artifact);
    } else {
        let shard_plan = match cached_plan {
            Some(plan) => plan,
            None => {
                let t0 = Instant::now();
                let t0_ns = obs::now_ns();
                let roots = cst::root_candidates(q, g, tree, pipe_opts.cst);
                let shard_plan =
                    Arc::new(cst::plan_pipeline_shards(q, g, tree, &pipe_opts, &roots));
                measured_plan_time = t0.elapsed();
                obs::record_span(strack, "plan", "serve", t0_ns, obs::now_ns(), Vec::new());
                if cache_enabled {
                    tenant.cache.plock().insert(key, Arc::clone(&shard_plan));
                }
                shard_plan
            }
        };
        config.shard_plan = Some(shard_plan);
        config.capture_prepared = cst_enabled;
        if !cst_enabled {
            // The plan is published; waiters wake straight into a plan
            // hit while this session goes on to build and execute. (With
            // tier 2 enabled the flight instead outlives the build — see
            // the artifact insert after `prepare_partitions`.)
            drop(flight.take());
        }
    }

    // The "build" span (recorded at retirement, completed sessions only)
    // starts here and ends after the last partition executes, so every
    // backend `execute` span nests inside it — including on a tier-2
    // replay, where the `tier2_hit` arg marks that nothing was built.
    let build_start_ns = obs::now_ns();
    // The sink only *stages* partitions — execution happens in `Exec`
    // tasks — so the sink wall nets staging (not kernels) out of
    // `partition_time`, keeping the build/execute split's meaning from
    // the threaded layer.
    let mut jobs = VecDeque::new();
    let mut sink_exec = Duration::ZERO;
    let prep = prepare_partitions(q, g, &config, tree, &plan.order, &mut |job| {
        let sink_start = Instant::now();
        jobs.push_back(job);
        sink_exec += sink_start.elapsed();
    });
    // Tier-2 insert: capture is part of the build, so the artifact is
    // complete when `prepare_partitions` returns. Insert *before*
    // dropping the flight — waiters wake straight into a tier-2 hit,
    // making N identical concurrent cold sessions build exactly once.
    // (An artifact larger than the whole budget is rejected by the
    // cache, counted, and the working set stays untouched; its waiters
    // then build in turn.)
    if let Some(artifact) = prep.prepared.as_ref() {
        tenant.cst_cache.plock().insert(key, Arc::clone(artifact));
    }
    drop(flight);
    {
        let mut s = slot.mu.plock();
        s.stats.build_start_ns = build_start_ns;
        s.stats.plan_time = measured_plan_time + prep.plan_time;
        // Build + partition wall net of sink time. Exactly zero on a
        // tier-2 hit: the replay does no build or partition work at all.
        s.stats.build_time = prep.build_wall + prep.partition_time.saturating_sub(sink_exec);
        s.stats.topdown_entries = prep.build_topdown_entries;
        s.stats.pipeline_shards = prep.pipeline_shards;
        s.stats.seeded_shards = prep.seeded_shards;
        s.stats.plan_hit = plan_hit;
        s.stats.cst_cache_hit = cst_cache_hit;
        s.jobs = jobs;
    }
    BuildOutcome::Ready
}

/// Latches [`ServeError::DeadlineExceeded`] on a still-healthy session
/// that is past its deadline; the caller then retires it as shed.
fn latch_deadline(slot: &SessionSlot, s: &mut SessionMut) {
    if s.session_err.is_none() {
        if let Some(dl) = slot.tenant.deadline {
            if slot.submitted.elapsed() > dl {
                s.session_err = Some(ServeError::DeadlineExceeded);
            }
        }
    }
}

/// Executes one staged partition: pops it under the session lock, runs
/// the full fault-tolerant execution *without* the lock, folds the
/// result back, and either retires the session or pushes its next `Exec`.
fn run_exec(inner: &Inner, sid: u64) {
    let Some(slot) = session(inner, sid) else { return };
    let _track = obs::set_track(obs::session_track(sid));
    let (job, plan) = {
        let mut s = slot.mu.plock();
        if s.finished {
            return;
        }
        // A session past its budget sheds instead of executing another
        // partition.
        latch_deadline(&slot, &mut s);
        let job = if s.session_err.is_some() {
            None
        } else {
            s.jobs.pop_front()
        };
        let Some(job) = job else {
            drop(s);
            finalize_from_state(inner, &slot);
            return;
        };
        (
            job,
            Arc::clone(s.plan.as_ref().expect("staged session has a plan")),
        )
    };
    let ctx = QueryCtx {
        query: &slot.query,
        graph: &slot.tenant.graph,
        order: &plan.order,
        kernel_plan: &plan.kernel_plan,
        collect: plan.collect,
    };
    let mut acc = FaultAcc::default();
    let (update, err) = match execute_checked(inner, &inner.config.fault, &job, &ctx, &mut acc) {
        Ok((device, class, out)) => (
            Some(PartitionUpdate {
                index: job.index,
                device,
                backend: class,
                embeddings: out.embeddings,
                kernel_cycles: out.kernel_cycles,
                modeled_sec: out.modeled_sec,
                collected: out.collected,
            }),
            None,
        ),
        Err(e) => (None, Some(e)),
    };
    let done = {
        let mut s = slot.mu.plock();
        fold_acc(&mut s.stats.acc, &acc);
        if let Some(u) = &update {
            s.stats.embeddings += u.embeddings;
            s.stats.partitions += 1;
            s.stats.kernel_cycles += u.kernel_cycles;
            s.stats.device_sec += u.modeled_sec;
        }
        if err.is_some() {
            s.session_err = err;
        }
        if !s.jobs.is_empty() {
            // Partitions remain: shed them now if the deadline passed
            // while this one ran.
            latch_deadline(&slot, &mut s);
        }
        s.session_err.is_some() || s.jobs.is_empty()
    };
    if let Some(update) = update {
        let _ = slot.tx.send(SessionEvent::Partition(update));
    }
    if done {
        finalize_from_state(inner, &slot);
    } else {
        push_task(inner, Task::Exec(sid));
    }
}

/// Folds one partition's fault accounting into the session total.
fn fold_acc(total: &mut FaultAcc, part: &FaultAcc) {
    total.retries += part.retries;
    total.failovers += part.failovers;
    total.corruption_catches += part.corruption_catches;
    total.degraded_sec += part.degraded_sec;
    // Worst queue any partition joined behind, same as the inline layer.
    total.device_queue_sec = total.device_queue_sec.max(part.device_queue_sec);
}

/// How a session retires.
enum SessionOutcome {
    Completed,
    /// Shed past its deadline; `at` names the transition that caught it.
    Shed { at: &'static str },
    Error(ServeError),
}

/// Maps the session's latched state to its retirement: a latched error
/// becomes the typed failure (a latched deadline sheds "mid-session"),
/// no error means it completed.
fn finalize_from_state(inner: &Inner, slot: &SessionSlot) {
    let err = slot.mu.plock().session_err.clone();
    match err {
        None => finalize(inner, slot, SessionOutcome::Completed),
        Some(ServeError::DeadlineExceeded) => {
            finalize(inner, slot, SessionOutcome::Shed { at: "mid-session" })
        }
        Some(e) => finalize(inner, slot, SessionOutcome::Error(e)),
    }
}

/// Retires a session exactly once: folds its fault accounting and
/// outcome into service + tenant metrics, records the closing spans,
/// notifies the handle, and releases its execution permit and slab
/// entry. The `finished` flag flips first, under the session lock —
/// every racing caller (a stale task, a panic handler) sees it and
/// backs off, so the permit can never be released twice.
fn finalize(inner: &Inner, slot: &SessionSlot, outcome: SessionOutcome) {
    let stats = {
        let mut s = slot.mu.plock();
        if s.finished {
            return;
        }
        s.finished = true;
        s.stats.clone()
    };
    let tenant = &slot.tenant;
    let strack = obs::session_track(slot.id);
    // Fault counters fold whatever the outcome — a session that retried
    // five times and then missed its deadline still did the retries, and
    // the chaos accounting reconciles service counters against
    // per-device failure counters.
    fold_faults(inner, tenant, &stats.acc);
    match outcome {
        SessionOutcome::Completed => {
            let now = Instant::now();
            let picked = stats.picked.unwrap_or(now);
            let report = QueryReport {
                id: slot.id,
                tenant: tenant.id,
                completion_seq: inner.next_seq.fetch_add(1, Ordering::Relaxed),
                embeddings: stats.embeddings,
                partitions: stats.partitions,
                cache_hit: stats.plan_hit || stats.cst_cache_hit,
                cst_cache_hit: stats.cst_cache_hit,
                plan_time: stats.plan_time,
                build_time: stats.build_time,
                topdown_entries: stats.topdown_entries,
                pipeline_shards: stats.pipeline_shards,
                seeded_shards: stats.seeded_shards,
                service_time: now.duration_since(picked),
                queue_wait: stats.queue_wait,
                device_queue_sec: stats.acc.device_queue_sec,
                latency: now.duration_since(slot.submitted)
                    + Duration::from_secs_f64(stats.acc.device_queue_sec),
                kernel_cycles: stats.kernel_cycles,
                device_sec: stats.device_sec,
                retries: stats.acc.retries,
                failovers: stats.acc.failovers,
                corruption_catches: stats.acc.corruption_catches,
                degraded_sec: stats.acc.degraded_sec,
            };
            finish(inner, tenant, FinishOutcome::Completed(report.clone()));
            // One "build" span per *completed* session, covering build
            // through last execution — the span the nesting check and
            // the per-completion span counts pin.
            obs::record_span(
                strack,
                "build",
                "serve",
                stats.build_start_ns,
                obs::now_ns(),
                vec![
                    ("tier2_hit", obs::ArgValue::U64(stats.cst_cache_hit as u64)),
                    ("plan_hit", obs::ArgValue::U64(stats.plan_hit as u64)),
                    ("shards", obs::ArgValue::U64(stats.pipeline_shards as u64)),
                    ("seeded", obs::ArgValue::U64(stats.seeded_shards as u64)),
                ],
            );
            close_session(strack, slot, "completed", stats.embeddings);
            let _ = slot.tx.send(SessionEvent::Done(report));
        }
        SessionOutcome::Shed { at } => {
            finish(inner, tenant, FinishOutcome::DeadlineMiss);
            obs::event("deadline_shed", "fault", vec![("at", obs::ArgValue::Str(at))]);
            close_session(strack, slot, "shed", stats.embeddings);
            let _ = slot
                .tx
                .send(SessionEvent::Failed(ServeError::DeadlineExceeded));
        }
        SessionOutcome::Error(err) => {
            finish(inner, tenant, FinishOutcome::Failed);
            close_session(strack, slot, "failed", stats.embeddings);
            let _ = slot.tx.send(SessionEvent::Failed(err));
        }
    }
    release(inner, slot.id);
}

/// Closes the session span (submit → now) with its outcome; recorded on
/// every exit path *before* the handle is notified, so a waiter that
/// snapshots the trace after `wait()` sees its own session.
fn close_session(strack: u64, slot: &SessionSlot, outcome: &'static str, embeddings: u64) {
    obs::record_span(
        strack,
        "session",
        "serve",
        slot.submitted_ns,
        obs::now_ns(),
        vec![
            ("tenant", obs::ArgValue::U64(slot.tenant.id.raw() as u64)),
            ("outcome", obs::ArgValue::Str(outcome)),
            ("embeddings", obs::ArgValue::U64(embeddings)),
        ],
    );
}

/// Releases a retired session's execution permit and slab entry, then
/// wakes the executors (a permit freed means a pickup may proceed; at
/// shutdown, `admitted` hitting zero is the exit signal).
fn release(inner: &Inner, sid: u64) {
    {
        let mut gate = inner.gate.plock();
        gate.in_flight = gate.in_flight.saturating_sub(1);
        gate.admitted = gate.admitted.saturating_sub(1);
        inner.hooks.in_flight.set(gate.in_flight as f64);
    }
    inner.sessions.plock().remove(&sid);
    notify_executors(inner);
}

/// Retires a session whose task panicked: counted as failed (the panic
/// already unwound past the normal retirement), permit and slab entry
/// released, handle left to observe `Disconnected` as the sender drops.
fn panic_retire(inner: &Inner, sid: u64) {
    let Some(slot) = session(inner, sid) else { return };
    {
        let mut s = slot.mu.plock();
        if s.finished {
            return;
        }
        s.finished = true;
    }
    let now = Instant::now();
    {
        let mut m = inner.metrics.plock();
        m.failed += 1;
        m.last_done = Some(now);
    }
    {
        let mut m = slot.tenant.metrics.plock();
        m.failed += 1;
        m.last_done = Some(now);
    }
    inner.hooks.failed.inc();
    release(inner, sid);
}

/// Per-session fault accounting, accumulated across every partition's
/// attempts and folded into service + tenant metrics whatever the
/// session's outcome.
#[derive(Default, Clone, Copy)]
struct FaultAcc {
    /// Failed execution attempts that were retried — bumps in lockstep
    /// with the failing device's `DeviceStats::failures`, which is the
    /// exactly-once accounting invariant the chaos tests reconcile.
    retries: u64,
    /// Retries that landed on a different device (reroutes).
    failovers: u64,
    /// Corrupted outputs caught and outvoted by the cross-check.
    corruption_catches: u64,
    /// Wall seconds executed on the emergency CPU fallback.
    degraded_sec: f64,
    /// Worst modelled device queue any partition joined behind.
    device_queue_sec: f64,
}

/// Releases a device booking when the backend call it covers unwinds (an
/// injected or real driver panic): neither `complete` nor `fail` runs on
/// that path, and a leaked booking would inflate the device's outstanding
/// workload — and every later session's modelled queueing delay — for the
/// life of the pool. Resolves as a failed attempt, so the device also
/// takes its strike.
struct BookingGuard<'a> {
    pool: &'a Mutex<DevicePool>,
    device: usize,
    workload: f64,
}

impl Drop for BookingGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.pool.plock().fail(self.device, self.workload, false);
        }
    }
}

/// One fault-tolerant partition execution: bounded immediate retries,
/// rerouting away from the failing device, and the
/// emergency CPU fallback when no pool device is available. Returns the
/// executing device index (`pool.len()` for the fallback), its class, and
/// the output.
fn execute_resilient(
    inner: &Inner,
    policy: &FaultPolicy,
    job: &PartitionJob,
    ctx: &QueryCtx<'_>,
    avoid: Option<usize>,
    acc: &mut FaultAcc,
) -> Result<(usize, BackendClass, BackendOutput), ServeError> {
    let mut last_failed = avoid;
    let mut rerouting = false;
    for attempt in 1..=policy.max_attempts.max(1) {
        let admitted = inner.devices.plock().admit(job.workload, last_failed);
        let (device, queued_sec, backend) = match admitted {
            Ok(a) => a,
            Err(_) => {
                // No healthy or probationary device left. Degraded mode:
                // the emergency CPU share answers (its wall is the
                // degraded-mode cost), or the session sheds typed.
                let Some(fallback) = inner.fallback.as_ref() else {
                    return Err(ServeError::Degraded);
                };
                obs::event(
                    "degraded",
                    "fault",
                    vec![("partition", obs::ArgValue::U64(job.index as u64))],
                );
                let t0 = Instant::now();
                let out = fallback.execute(job, ctx).map_err(|e| {
                    ServeError::Failed(format!("emergency CPU fallback failed: {e}"))
                })?;
                acc.degraded_sec += t0.elapsed().as_secs_f64();
                let virtual_idx = inner.devices.plock().len();
                return Ok((virtual_idx, fallback.spec().class, out));
            }
        };
        if rerouting && Some(device) != last_failed {
            acc.failovers += 1;
            obs::event(
                "failover",
                "fault",
                vec![("device", obs::ArgValue::U64(device as u64))],
            );
        }
        acc.device_queue_sec = acc.device_queue_sec.max(queued_sec);
        // Execute outside the pool lock: concurrent sessions overlap on
        // different devices.
        let result = {
            let _booking = BookingGuard {
                pool: &inner.devices,
                device,
                workload: job.workload,
            };
            backend.execute(job, ctx)
        };
        match result {
            Ok(out) => {
                inner
                    .devices
                    .plock()
                    .complete(device, job.workload, out.modeled_sec, out.kernel_cycles);
                return Ok((device, backend.spec().class, out));
            }
            Err(e) => {
                inner
                    .devices
                    .plock()
                    .fail(device, job.workload, e.is_permanent());
                acc.retries += 1;
                obs::event(
                    "retry",
                    "fault",
                    vec![
                        ("device", obs::ArgValue::U64(device as u64)),
                        ("attempt", obs::ArgValue::U64(attempt as u64)),
                    ],
                );
                last_failed = Some(device);
                rerouting = true;
                if attempt == policy.max_attempts.max(1) {
                    return Err(ServeError::Failed(format!(
                        "partition {} failed after {attempt} attempts: {e}",
                        job.index
                    )));
                }
            }
        }
    }
    unreachable!("the attempt loop always returns")
}

/// Total executions the cross-check may spend per partition before giving
/// up on agreement (first vote + up to three more).
const CROSS_CHECK_MAX_VOTES: usize = 4;

/// [`execute_resilient`] plus, when [`FaultPolicy::cross_check`] is on,
/// re-execution on a second device until two executions agree on
/// `(embeddings, collected)` — the embedding fingerprint. Disagreeing
/// devices are marked suspect (their corruption counts toward
/// quarantine). Results from the trusted CPU fallback skip the check, and
/// when the vote budget runs out without agreement the fallback (if
/// configured) arbitrates as ground truth.
fn execute_checked(
    inner: &Inner,
    policy: &FaultPolicy,
    job: &PartitionJob,
    ctx: &QueryCtx<'_>,
    acc: &mut FaultAcc,
) -> Result<(usize, BackendClass, BackendOutput), ServeError> {
    let first = execute_resilient(inner, policy, job, ctx, None, acc)?;
    let fallback_idx = inner.devices.plock().len();
    if !policy.cross_check || first.0 == fallback_idx {
        return Ok(first);
    }
    let mut votes = vec![first];
    loop {
        let avoid = votes.last().map(|v| v.0);
        let vote = execute_resilient(inner, policy, job, ctx, avoid, acc)?;
        if vote.0 == fallback_idx {
            // The fleet degraded mid-check: the fallback's answer is
            // ground truth; every disagreeing earlier vote was corrupt.
            for (d, _, o) in &votes {
                if o.embeddings != vote.2.embeddings || o.collected != vote.2.collected {
                    inner.devices.plock().mark_suspect(*d);
                    acc.corruption_catches += 1;
                }
            }
            return Ok(vote);
        }
        let agreed = votes
            .iter()
            .position(|(_, _, o)| {
                o.embeddings == vote.2.embeddings && o.collected == vote.2.collected
            });
        if let Some(winner) = agreed {
            // Two independent executions agree; corrupted outputs cannot
            // collide (the injected XOR mask is nonzero and per-call), so
            // every *other* vote was wrong — charge its device.
            for (i, (d, _, _)) in votes.iter().enumerate() {
                if i != winner {
                    inner.devices.plock().mark_suspect(*d);
                    acc.corruption_catches += 1;
                }
            }
            return Ok(vote);
        }
        votes.push(vote);
        if votes.len() >= CROSS_CHECK_MAX_VOTES {
            // No two executions agree within the vote budget. Arbitrate on
            // the trusted CPU fallback if there is one — its answer is
            // ground truth, so the session still completes bit-exact even
            // when most of the fleet lies; without a fallback the
            // partition fails typed.
            let Some(fallback) = inner.fallback.as_ref() else {
                return Err(ServeError::Failed(format!(
                    "partition {}: cross-check found no two agreeing executions in {} votes",
                    job.index,
                    votes.len()
                )));
            };
            let truth = fallback.execute(job, ctx).map_err(|e| {
                ServeError::Failed(format!("cross-check arbitration failed: {e}"))
            })?;
            for (d, _, o) in &votes {
                if o.embeddings != truth.embeddings || o.collected != truth.collected {
                    inner.devices.plock().mark_suspect(*d);
                    acc.corruption_catches += 1;
                }
            }
            return Ok((fallback_idx, fallback.spec().class, truth));
        }
    }
}

/// Folds a session's fault accounting into service + tenant metrics.
fn fold_faults(inner: &Inner, tenant: &TenantState, acc: &FaultAcc) {
    if acc.retries == 0 && acc.corruption_catches == 0 && acc.degraded_sec == 0.0 {
        return;
    }
    let fold = |m: &mut MetricsState| {
        m.retries += acc.retries;
        m.failovers += acc.failovers;
        m.corruption_catches += acc.corruption_catches;
        m.degraded_sec += acc.degraded_sec;
    };
    fold(&mut inner.metrics.plock());
    fold(&mut tenant.metrics.plock());
    inner.hooks.retries.add(acc.retries);
    inner.hooks.failovers.add(acc.failovers);
    inner.hooks.corruption_catches.add(acc.corruption_catches);
}

enum FinishOutcome {
    Completed(QueryReport),
    Failed,
    DeadlineMiss,
}

/// Folds a session's outcome into the service-wide and tenant metrics.
/// The execution permit is released by the session's retirement in
/// `release`, not here.
fn finish(inner: &Inner, tenant: &TenantState, outcome: FinishOutcome) {
    let now = Instant::now();
    let fold = |m: &mut MetricsState| match &outcome {
        FinishOutcome::Completed(report) => {
            m.completed += 1;
            m.total_embeddings += report.embeddings;
            m.latencies.record(report.latency.as_secs_f64());
            m.queue_waits.record(report.queue_wait.as_secs_f64());
            m.device_queues.record(report.device_queue_sec);
            let plan_sec = report.plan_time.as_secs_f64();
            if report.cache_hit {
                m.plan_hits.record(plan_sec);
            } else {
                m.plan_misses.record(plan_sec);
            }
            let build_sec = report.build_time.as_secs_f64();
            if report.cst_cache_hit {
                m.build_hits.record(build_sec);
            } else {
                m.build_misses.record(build_sec);
            }
            m.last_done = Some(now);
        }
        FinishOutcome::Failed => {
            m.failed += 1;
            m.last_done = Some(now);
        }
        // A shed session is not a failure: it was dropped by policy, and
        // the chaos accounting (`failed == 0` under recoverable schedules)
        // must not conflate the two.
        FinishOutcome::DeadlineMiss => {
            m.deadline_misses += 1;
            m.last_done = Some(now);
        }
    };
    fold(&mut inner.metrics.plock());
    fold(&mut tenant.metrics.plock());
    match &outcome {
        FinishOutcome::Completed(_) => inner.hooks.completed.inc(),
        FinishOutcome::Failed => inner.hooks.failed.inc(),
        FinishOutcome::DeadlineMiss => inner.hooks.deadline_misses.inc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast::Variant;
    use graph_core::generators::random_labelled_graph;
    use graph_core::Label;

    fn small_config() -> ServeConfig {
        ServeConfig {
            fast: {
                let mut f = FastConfig::test_small(Variant::Sep);
                f.shard_planner = ShardPlanner::Auto;
                f
            },
            devices: 2,
            extra_devices: Vec::new(),
            workers: 2,
            cache_capacity: 8,
            cst_cache_bytes: 16 << 20,
            max_in_flight: 4,
            ..ServeConfig::default()
        }
    }

    fn triangle() -> QueryGraph {
        QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(1)],
            &[(0, 1), (1, 2), (0, 2)],
        )
        .unwrap()
    }

    #[test]
    fn serves_repeats_with_cache_hits_and_identical_counts() {
        let g = random_labelled_graph(60, 0.2, 2, 42);
        let service = FastService::new(g, small_config());
        let handles: Vec<SessionHandle> =
            (0..6).map(|_| service.submit(triangle())).collect();
        let reports: Vec<QueryReport> =
            handles.into_iter().map(|h| h.wait().unwrap()).collect();
        let first = reports[0].embeddings;
        assert!(reports.iter().all(|r| r.embeddings == first));
        assert!(reports.iter().all(|r| r.tenant == TenantId::DEFAULT));
        let final_report = service.shutdown();
        assert_eq!(final_report.completed, 6);
        assert_eq!(final_report.failed, 0);
        // Six submissions of one query: at least the non-concurrent
        // repeats hit (the first few may race the first insertion). With
        // tier 2 on, warm repeats are absorbed by the CST cache before
        // the plan cache is consulted, so the hits land there.
        let warm_hits = final_report.cache.hits + final_report.cst_cache.hits;
        assert!(
            warm_hits >= 1,
            "{:?} / {:?}",
            final_report.cache,
            final_report.cst_cache
        );
        assert!(final_report.cst_resident_bytes > 0, "artifact resident");
        assert_eq!(final_report.total_embeddings, 6 * first);
        assert!(final_report.qps > 0.0);
        // Single-tenant compatibility: the default tenant's slice carries
        // the whole service.
        assert_eq!(final_report.tenants.len(), 1);
        assert_eq!(final_report.tenants[0].completed, 6);
    }

    #[test]
    fn partition_events_sum_to_the_final_count() {
        let g = random_labelled_graph(60, 0.25, 2, 43);
        let service = FastService::new(g, small_config());
        let handle = service.submit(triangle());
        let mut streamed = 0u64;
        let mut updates = 0usize;
        let report = loop {
            match handle.next_event().expect("session alive") {
                SessionEvent::Partition(u) => {
                    assert!(u.device < 2);
                    assert_eq!(u.backend, BackendClass::Fpga);
                    streamed += u.embeddings;
                    updates += 1;
                }
                SessionEvent::Done(r) => break r,
                SessionEvent::Failed(e) => panic!("failed: {e}"),
            }
        };
        assert_eq!(streamed, report.embeddings);
        assert_eq!(updates, report.partitions);
        service.shutdown();
    }

    #[test]
    fn oversized_query_fails_cleanly() {
        // A path query longer than the kernel register budget.
        let n = fast::MAX_KERNEL_QUERY + 1;
        let labels: Vec<Label> = (0..n).map(|_| Label::new(0)).collect();
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let q = QueryGraph::new(labels, &edges);
        let Ok(q) = q else {
            return; // query-size cap below the kernel cap: nothing to test
        };
        let g = random_labelled_graph(30, 0.2, 1, 44);
        let service = FastService::new(g, small_config());
        let err = service.submit(q).wait().unwrap_err();
        assert!(matches!(err, ServeError::Failed(_)), "{err}");
        let report = service.shutdown();
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed, 0);
        assert_eq!(report.tenants[0].failed, 1);
    }

    #[test]
    fn empty_fleet_and_zero_quota_are_typed_errors() {
        let g = random_labelled_graph(20, 0.2, 1, 45);
        let mut config = small_config();
        config.devices = 0;
        let err = FastService::try_new(g.clone(), config).unwrap_err();
        assert_eq!(err, ServeError::NoDevices);

        let service = FastService::new(g.clone(), small_config());
        let err = service
            .add_tenant(
                g,
                TenantConfig {
                    quota: 0,
                    ..TenantConfig::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, ServeError::ZeroQuota);
        service.shutdown();
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let g = random_labelled_graph(20, 0.2, 1, 45);
        let service = FastService::new(g, small_config());
        let ghost = TenantId::new(77);
        let err = service.submit_for(ghost, triangle()).unwrap_err();
        assert_eq!(err, ServeError::UnknownTenant(ghost));
        assert!(service.tenant_report(ghost).is_err());
        assert!(service.bump_epoch(ghost).is_err());
        service.shutdown();
    }

    #[test]
    fn second_tenant_serves_its_own_graph() {
        // Tenant B's graph has different labels: the same query yields a
        // different (zero) count, proving per-tenant graph routing.
        let ga = random_labelled_graph(60, 0.25, 2, 46);
        let gb = random_labelled_graph(40, 0.25, 1, 46); // single label: no (0,1,1) match
        let service = FastService::new(ga, small_config());
        let b = service
            .add_tenant(gb, TenantConfig { quota: 3, ..TenantConfig::default() })
            .unwrap();
        let ra = service.submit(triangle()).wait().unwrap();
        let rb = service.submit_for(b, triangle()).unwrap().wait().unwrap();
        assert_eq!(rb.tenant, b);
        assert!(ra.embeddings > 0, "tenant A should match");
        assert_eq!(rb.embeddings, 0, "tenant B's single-label graph cannot");
        let b_slice = service.tenant_report(b).unwrap();
        assert_eq!(b_slice.completed, 1);
        assert_eq!(b_slice.quota, 3);
        let report = service.shutdown();
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn epoch_bump_invalidates_cached_plans() {
        let g = random_labelled_graph(60, 0.2, 2, 47);
        let service = FastService::new(g, small_config());
        service.submit(triangle()).wait().unwrap();
        let warm = service.submit(triangle()).wait().unwrap();
        assert!(warm.cache_hit, "repeat should hit some tier");
        assert!(warm.cst_cache_hit, "sequential repeat should hit tier 2");
        assert_eq!(warm.build_time, Duration::ZERO, "tier-2 hits build nothing");
        assert_eq!(warm.topdown_entries, 0);
        assert_eq!(service.bump_epoch(TenantId::DEFAULT).unwrap(), 1);
        let r = service.submit(triangle()).wait().unwrap();
        assert!(!r.cache_hit, "epoch bump must invalidate both cache tiers");
        assert!(!r.cst_cache_hit);
        service.shutdown();
    }

    #[test]
    fn histogram_metrics_keep_uniform_ramp_percentiles() {
        // The streaming histograms replaced the strided sample reservoir:
        // a large uniform ramp must keep its percentiles within the
        // bucketing's documented relative error, at constant memory.
        let n = 200_000u64;
        let mut h = obs::Histogram::new();
        for i in 0..n {
            h.record(i as f64);
        }
        assert_eq!(h.count(), n);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let got = h.quantile(q);
            let want = q * (n - 1) as f64;
            assert!(
                (got - want).abs() <= 0.07 * want,
                "p{q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn degenerate_reports_are_finite() {
        // Before any submission: no serving wall exists at all.
        let g = random_labelled_graph(20, 0.2, 1, 46);
        let service = FastService::new(g, small_config());
        let r = service.report();
        assert!(r.is_finite());
        assert_eq!(r.qps, 0.0);
        assert_eq!(r.completed, 0);
        service.shutdown();

        // A single instantaneous session: first submit and last completion
        // land on the same clock tick, so the wall is exactly zero with
        // `completed > 0` — QPS/imbalance must degrade to finite zeros,
        // never divide.
        let mut m = MetricsState::default();
        let now = Instant::now();
        m.first_submit = Some(now);
        m.last_done = Some(now);
        m.completed = 1;
        m.submitted = 1;
        m.latencies.record(0.0);
        m.queue_waits.record(0.0);
        m.device_queues.record(0.0);
        m.plan_misses.record(0.0);
        let pool = DevicePool::build(&small_config().fast, 1, &[]).unwrap();
        let view = PoolView::from_stats(pool.snapshot());
        let r = assemble_report(&m, CacheStats::default(), CacheStats::default(), 0, &view, 1, Vec::new());
        assert!(r.is_finite(), "zero-wall report must stay finite: {r:?}");
        assert_eq!(r.qps, 0.0, "zero wall yields zero QPS, not inf/NaN");
        assert_eq!(r.wall_sec, 0.0);
        assert_eq!(r.device_imbalance, 1.0, "idle pool is balanced by definition");
    }

    #[test]
    fn window_deltas_reconcile_with_lifetime_report() {
        let g = random_labelled_graph(60, 0.2, 2, 47);
        let service = FastService::new(g, small_config());
        for h in (0..3).map(|_| service.submit(triangle())).collect::<Vec<_>>() {
            h.wait().unwrap();
        }
        // `finish` folds metrics before the Done event is sent, so a
        // window taken after `wait` returns covers those sessions.
        let w0 = service.report_window();
        assert_eq!(w0.window.unwrap().seq, 0);
        assert!(w0.tenants.is_empty(), "windows slice time, not tenants");
        for h in (0..3).map(|_| service.submit(triangle())).collect::<Vec<_>>() {
            h.wait().unwrap();
        }
        let w1 = service.report_window();
        assert_eq!(w1.window.unwrap().seq, 1);
        assert!(w0.is_finite() && w1.is_finite());
        let life = service.shutdown();
        // Bit-exact reconciliation on the integer counters and histogram
        // bucket counts: the windows partition the lifetime exactly.
        assert_eq!(w0.submitted + w1.submitted, life.submitted);
        assert_eq!(w0.completed + w1.completed, life.completed);
        assert_eq!(w0.completed, 3);
        assert_eq!(w1.completed, 3);
        assert_eq!(
            w0.latency_hist.count() + w1.latency_hist.count(),
            life.latency_hist.count()
        );
        let mut merged = w0.latency_hist.clone();
        merged.merge(&w1.latency_hist);
        assert_eq!(
            merged.cumulative(),
            life.latency_hist.cumulative(),
            "window histograms must merge back to the lifetime buckets"
        );
        assert_eq!(
            w0.cache.hits + w1.cache.hits + w0.cst_cache.hits + w1.cst_cache.hits,
            life.cache.hits + life.cst_cache.hits
        );
    }

    #[test]
    fn try_submit_applies_backpressure_eventually_admits() {
        let g = random_labelled_graph(40, 0.2, 2, 45);
        let mut config = small_config();
        config.max_in_flight = 1;
        config.workers = 1;
        let service = FastService::new(g, config);
        let first = service.submit(triangle());
        // The admitted slot may free at any moment; what must hold is
        // that rejection is the typed `Saturated` error and a retry
        // loop eventually admits.
        let second = loop {
            match service.try_submit(triangle()) {
                Ok(h) => break h,
                Err(ServeError::Saturated) => std::thread::yield_now(),
                Err(e) => panic!("unexpected try_submit error: {e}"),
            }
        };
        let a = first.wait().unwrap().embeddings;
        let b = second.wait().unwrap().embeddings;
        assert_eq!(a, b);
        let report = service.shutdown();
        assert!(report.max_in_flight <= 1);
    }

    #[test]
    fn shutdown_sheds_queued_sessions_with_typed_error() {
        let g = random_labelled_graph(120, 0.25, 2, 57);
        let mut config = small_config();
        config.workers = 1;
        config.max_in_flight = 64;
        let service = FastService::new(g, config);
        let handles: Vec<_> = (0..24).map(|_| service.submit(triangle())).collect();
        // Shut down immediately: whatever was picked up completes,
        // whatever was still queued is shed with the typed error — no
        // handle ever observes a disconnected channel.
        let report = service.shutdown();
        let mut completed = 0usize;
        let mut shed = 0usize;
        for h in handles {
            match h.wait() {
                Ok(_) => completed += 1,
                Err(ServeError::ShuttingDown) => shed += 1,
                Err(e) => panic!("unexpected shutdown outcome: {e}"),
            }
        }
        assert_eq!(completed + shed, 24);
        assert_eq!(report.completed, completed as u64);
        assert_eq!(report.failed, shed as u64);
    }

    #[test]
    fn new_error_variants_display_and_compare() {
        assert_eq!(ServeError::DeadlineExceeded, ServeError::DeadlineExceeded);
        assert_eq!(ServeError::Degraded, ServeError::Degraded);
        assert_ne!(ServeError::DeadlineExceeded, ServeError::Degraded);
        let msg = ServeError::DeadlineExceeded.to_string();
        assert!(msg.contains("deadline"), "{msg}");
        let msg = ServeError::Degraded.to_string();
        assert!(msg.contains("degraded"), "{msg}");
        assert_eq!(ServeError::Saturated, ServeError::Saturated);
        assert_eq!(ServeError::ShuttingDown, ServeError::ShuttingDown);
        assert_ne!(ServeError::Saturated, ServeError::ShuttingDown);
        let msg = ServeError::Saturated.to_string();
        assert!(msg.contains("saturated"), "{msg}");
        let msg = ServeError::ShuttingDown.to_string();
        assert!(msg.contains("shutting down"), "{msg}");
        // They are std errors like the rest of the enum.
        let e: &dyn std::error::Error = &ServeError::Degraded;
        assert!(e.source().is_none());
    }

    #[test]
    fn plock_recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "the mutex must actually be poisoned");
        assert_eq!(*m.plock(), 7, "plock recovers the guarded value");
    }

    #[test]
    fn zero_deadline_sheds_sessions_with_typed_error() {
        let g = random_labelled_graph(60, 0.2, 2, 50);
        let mut config = small_config();
        config.deadline = Some(Duration::ZERO);
        let service = FastService::new(g, config);
        for _ in 0..3 {
            let err = service.submit(triangle()).wait().unwrap_err();
            assert_eq!(err, ServeError::DeadlineExceeded);
        }
        let report = service.shutdown();
        assert_eq!(report.deadline_misses, 3);
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, 0, "shed by policy, not broken");
        assert_eq!(report.tenants[0].deadline_misses, 3);
        assert!(report.is_finite());
    }

    #[test]
    fn tenant_deadline_overrides_service_default() {
        let g = random_labelled_graph(60, 0.2, 2, 51);
        let service = FastService::new(g.clone(), small_config());
        let strict = service
            .add_tenant(
                g,
                TenantConfig {
                    deadline: Some(Duration::ZERO),
                    ..TenantConfig::default()
                },
            )
            .unwrap();
        // Default tenant: no deadline, completes.
        assert!(service.submit(triangle()).wait().is_ok());
        // Strict tenant: shed.
        let err = service.submit_for(strict, triangle()).unwrap().wait().unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        let slice = service.tenant_report(strict).unwrap();
        assert_eq!(slice.deadline_misses, 1);
        assert_eq!(service.tenant_report(TenantId::DEFAULT).unwrap().deadline_misses, 0);
        service.shutdown();
    }

    #[test]
    fn always_failing_device_reroutes_with_exact_retry_accounting() {
        let g = random_labelled_graph(60, 0.25, 2, 52);
        let baseline = FastService::new(g.clone(), small_config());
        let want = baseline.submit(triangle()).wait().unwrap().embeddings;
        baseline.shutdown();

        // Device 0 fails every call; device 1 is clean. Dispatch prefers
        // index 0 on idle ties, so every partition's first attempt fails
        // and reroutes — and after QUARANTINE_THRESHOLD failures device 0
        // is quarantined outright.
        let mut config = small_config();
        config.devices = 0;
        config.workers = 1;
        config.extra_devices = vec![
            DeviceKind::Faulty {
                inner: Box::new(DeviceKind::Fpga(config.fast.spec.clone())),
                plan: fast::FaultPlan::transient(9, 1.0),
            },
            DeviceKind::Fpga(config.fast.spec.clone()),
        ];
        let service = FastService::new(g, config);
        let reports: Vec<QueryReport> = (0..6)
            .map(|_| service.submit(triangle()).wait().unwrap())
            .collect();
        assert!(reports.iter().all(|r| r.embeddings == want), "bit-identical");
        assert!(reports.iter().any(|r| r.retries > 0));
        assert!(reports.iter().any(|r| r.failovers > 0));
        let report = service.shutdown();
        assert_eq!(report.failed, 0);
        assert_eq!(report.completed, 6);
        let device_failures: u64 = report.devices.iter().map(|d| d.failures).sum();
        assert_eq!(
            report.retries, device_failures,
            "every device failure is retried exactly once"
        );
        assert!(report.quarantines >= 1, "an always-failing device quarantines");
        assert_eq!(report.devices[1].failures, 0, "the clean device never fails");
        assert!(report.is_finite());
    }

    #[test]
    fn dead_fleet_degrades_to_cpu_fallback() {
        let g = random_labelled_graph(60, 0.25, 2, 53);
        let baseline = FastService::new(g.clone(), small_config());
        let want = baseline.submit(triangle()).wait().unwrap().embeddings;
        baseline.shutdown();

        let mut config = small_config();
        config.devices = 0;
        config.workers = 1;
        config.extra_devices = vec![DeviceKind::Faulty {
            inner: Box::new(DeviceKind::Fpga(config.fast.spec.clone())),
            plan: fast::FaultPlan::dies_at(5, 0),
        }];
        let service = FastService::new(g, config);
        let reports: Vec<QueryReport> = (0..3)
            .map(|_| service.submit(triangle()).wait().unwrap())
            .collect();
        assert!(
            reports.iter().all(|r| r.embeddings == want),
            "the CPU fallback is bit-identical to the healthy fleet"
        );
        assert!(reports.iter().any(|r| r.degraded_sec > 0.0));
        let report = service.shutdown();
        assert_eq!(report.completed, 3);
        assert_eq!(report.failed, 0);
        assert!(report.degraded_sec > 0.0, "degraded-mode wall is accounted");
        assert_eq!(report.devices[0].health, crate::devices::HealthState::Evicted);
        assert_eq!(
            report.retries,
            report.devices.iter().map(|d| d.failures).sum::<u64>()
        );
        assert!(report.is_finite());
    }

    #[test]
    fn dead_fleet_without_fallback_sheds_with_degraded_error() {
        let g = random_labelled_graph(60, 0.25, 2, 54);
        let mut config = small_config();
        config.devices = 0;
        config.workers = 1;
        config.fault.cpu_fallback = false;
        config.extra_devices = vec![DeviceKind::Faulty {
            inner: Box::new(DeviceKind::Fpga(config.fast.spec.clone())),
            plan: fast::FaultPlan::dies_at(5, 0),
        }];
        let service = FastService::new(g, config);
        let err = service.submit(triangle()).wait().unwrap_err();
        assert_eq!(err, ServeError::Degraded, "typed shed, no hang");
        let report = service.shutdown();
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed, 0);
        assert!(report.is_finite());
    }

    #[test]
    fn cross_check_outvotes_corruption_and_quarantines_the_liar() {
        let g = random_labelled_graph(60, 0.25, 2, 55);
        let baseline = FastService::new(g.clone(), small_config());
        let want = baseline.submit(triangle()).wait().unwrap().embeddings;
        baseline.shutdown();

        // Device 0 silently corrupts every output; devices 1 and 2 are
        // honest. Without cross-checking the corrupted counts would be
        // accepted as Ok.
        let mut config = small_config();
        config.devices = 0;
        config.workers = 1;
        config.fault.cross_check = true;
        config.extra_devices = vec![
            DeviceKind::Faulty {
                inner: Box::new(DeviceKind::Fpga(config.fast.spec.clone())),
                plan: fast::FaultPlan {
                    seed: 11,
                    corrupt_rate: 1.0,
                    ..fast::FaultPlan::default()
                },
            },
            DeviceKind::Fpga(config.fast.spec.clone()),
            DeviceKind::Fpga(config.fast.spec.clone()),
        ];
        let service = FastService::new(g, config);
        let reports: Vec<QueryReport> = (0..6)
            .map(|_| service.submit(triangle()).wait().unwrap())
            .collect();
        assert!(
            reports.iter().all(|r| r.embeddings == want),
            "every accepted count is the honest one"
        );
        assert!(reports.iter().any(|r| r.corruption_catches > 0));
        let report = service.shutdown();
        assert_eq!(report.failed, 0);
        assert!(report.corruption_catches > 0);
        assert!(report.devices[0].corruptions > 0, "the liar is charged");
        assert_eq!(report.devices[1].corruptions, 0);
        assert_eq!(report.devices[2].corruptions, 0);
        assert!(
            report.quarantines >= 1,
            "repeated corruption quarantines the device"
        );
        assert!(report.is_finite());
    }

    #[test]
    fn injected_panic_fails_its_own_session_only() {
        let g = random_labelled_graph(60, 0.25, 2, 56);
        let baseline = FastService::new(g.clone(), small_config());
        let want = baseline.submit(triangle()).wait().unwrap().embeddings;
        baseline.shutdown();

        // Device 1 panics on every call (an injected driver bug). Sessions
        // routed to it die mid-worker; the panic must stay contained —
        // their handles see Disconnected, everyone else keeps serving.
        let mut config = small_config();
        config.devices = 1;
        config.workers = 2;
        config.extra_devices = vec![DeviceKind::Faulty {
            inner: Box::new(DeviceKind::Fpga(config.fast.spec.clone())),
            plan: fast::FaultPlan {
                seed: 13,
                panic_after: Some(0),
                ..fast::FaultPlan::default()
            },
        }];
        let service = FastService::new(g, config);
        let handles: Vec<SessionHandle> =
            (0..8).map(|_| service.submit(triangle())).collect();
        let mut ok = 0u64;
        let mut dead = 0u64;
        for h in handles {
            match h.wait() {
                Ok(r) => {
                    assert_eq!(r.embeddings, want);
                    ok += 1;
                }
                Err(ServeError::Disconnected) => dead += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(ok + dead, 8);
        // The service still serves after the panics — the proof the
        // poison-tolerant locks and drop guards contain the blast radius.
        // (The panicking device keeps coming back on probation, so a
        // session may still be routed to it; its strikes re-quarantine it.)
        let mut served_after = false;
        for _ in 0..16 {
            match service.submit(triangle()).wait() {
                Ok(r) => {
                    assert_eq!(r.embeddings, want);
                    ok += 1;
                    served_after = true;
                    break;
                }
                Err(ServeError::Disconnected) => dead += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(served_after, "the healthy device must keep serving");
        let report = service.shutdown();
        assert_eq!(report.completed, ok);
        assert_eq!(report.failed, dead);
        assert!(dead > 0, "no session reached the panicking device");
        // A call that unwinds runs neither `complete` nor `fail`; its
        // booking must still be released.
        for (i, d) in report.devices.iter().enumerate() {
            assert_eq!(d.outstanding_workload, 0.0, "device {i} leaked a booking");
        }
        assert!(report.is_finite());
    }

    #[test]
    fn single_executor_completes_in_submission_order() {
        // One executor: a session's next `Exec` lands on the own deque and
        // is popped before the next DRR pickup, so every multi-partition
        // session runs to completion before its successor starts.
        let g = random_labelled_graph(60, 0.25, 2, 58);
        let mut config = small_config();
        config.workers = 1;
        let service = FastService::new(g, config);
        let handles: Vec<SessionHandle> =
            (0..8).map(|_| service.submit(triangle())).collect();
        for h in handles {
            let r = h.wait().unwrap();
            assert!(r.partitions >= 2, "need a multi-partition session: {r:?}");
            assert_eq!(r.completion_seq, r.id, "completion order is submission order");
        }
        service.shutdown();
    }

    /// An FPGA backend whose calls announce themselves and then block
    /// until the test releases them — the handle that lets a test hold a
    /// partition in flight while wall time passes.
    struct GatedBackend {
        inner: fast::FpgaBackend,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl ExecutionBackend for GatedBackend {
        fn spec(&self) -> fast::BackendSpec {
            self.inner.spec()
        }

        fn prior_sec_per_workload(&self) -> f64 {
            self.inner.prior_sec_per_workload()
        }

        fn execute(
            &self,
            job: &PartitionJob,
            ctx: &QueryCtx<'_>,
        ) -> Result<BackendOutput, fast::BackendError> {
            let _ = self.entered.plock().send(());
            // A dropped release sender unblocks every later call.
            let _ = self.release.plock().recv();
            self.inner.execute(job, ctx)
        }
    }

    #[test]
    fn deadline_passing_mid_session_sheds_between_partitions() {
        let g = random_labelled_graph(60, 0.25, 2, 59);
        let deadline = Duration::from_millis(500);
        let mut config = small_config();
        config.workers = 1;
        config.devices = 1;
        config.deadline = Some(deadline);
        let service = FastService::new(g, config.clone());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gated = GatedBackend {
            inner: fast::FpgaBackend::from_config(&config.fast),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        };
        *service.inner.devices.plock() = DevicePool::new(vec![Arc::new(gated)]).unwrap();

        let handle = service.submit(triangle());
        // The first partition is in flight: every earlier deadline check
        // passed. Hold it there until the deadline is behind us.
        entered_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("first partition never started");
        std::thread::sleep(deadline + Duration::from_millis(50));
        drop(release_tx);

        let mut streamed = 0usize;
        let err = loop {
            match handle.next_event().expect("session alive") {
                SessionEvent::Partition(_) => streamed += 1,
                SessionEvent::Done(r) => panic!("expected a shed, got {r:?}"),
                SessionEvent::Failed(e) => break e,
            }
        };
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(streamed, 1, "the partition in flight finished and streamed");
        let inner = Arc::clone(&service.inner);
        let report = service.shutdown();
        assert!(
            entered_rx.try_recv().is_err(),
            "no partition may start after the deadline"
        );
        assert_eq!(report.deadline_misses, 1);
        assert_eq!(report.failed, 0, "shed by policy, not broken");
        assert_eq!(report.completed, 0);
        let gate = inner.gate.plock();
        assert_eq!((gate.in_flight, gate.admitted), (0, 0), "permits released");
    }

    #[test]
    fn heterogeneous_pool_matches_fpga_only_counts() {
        let g = random_labelled_graph(60, 0.25, 2, 48);
        let baseline = FastService::new(g.clone(), small_config());
        let want = baseline.submit(triangle()).wait().unwrap().embeddings;
        baseline.shutdown();

        let mut config = small_config();
        config.devices = 1;
        config.extra_devices = vec![DeviceKind::Cpu { threads: 4 }];
        let service = FastService::new(g, config);
        let reports: Vec<QueryReport> = (0..4)
            .map(|_| service.submit(triangle()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.wait().unwrap())
            .collect();
        assert!(reports.iter().all(|r| r.embeddings == want));
        let report = service.shutdown();
        assert_eq!(report.devices.len(), 2);
        assert_eq!(report.devices[0].class, BackendClass::Fpga);
        assert_eq!(report.devices[1].class, BackendClass::Cpu);
        assert!(report.is_finite());
    }
}
