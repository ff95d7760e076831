//! The [`FastService`] and its public vocabulary: configuration, typed
//! errors, session handles and events, tenant registration, submission and
//! shutdown. The machinery behind it lives next door: `executor` (the
//! task-driven session lifecycle), [`crate::resilience`] (retry, failover,
//! cross-check) and `reporting` (metrics state and report assembly).
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
//! 3. Pickup keys the query ([`cst::PlanKey`]: its own fingerprint × the
//!    *tenant's* graph epoch × the build options) and looks it up in the
//!    tenant's cache under a single-flight gate: a hit stages the session
//!    plan and the partition jobs its entry holds, as they are (zero
//!    derivation, zero build, zero partitioning); a miss derives the BFS
//!    tree / matching order / kernel plan, builds with
//!    [`fast::prepare_partitions`], and inserts the plan and the captured
//!    partition stream ([`fast::PreparedCsts`]). A session whose key is
//!    already being built **parks** (its lane's deficit round is told via
//!    `WrrQueue::park`; no executor thread blocks) and is re-enqueued by
//!    the owner's flight release.
//! 4. The build stages the partition jobs on the session; `Exec` tasks
//!    then execute them one at a time — each is booked onto the pool
//!    device with the shortest expected completion ([`DevicePool`] —
//!    emulated FPGA cards and CPU fallback shares priced under their own
//!    cost models) and run to the end by one synchronous
//!    [`fast::ExecutionBackend::execute`] call; its result is streamed
//!    to the session handle, and the same task retires the session or
//!    pushes its next `Exec`.
//! 5. The final [`QueryReport`] closes the session, its outcome is folded
//!    into the tenant's ledger, and the execution permit is released.
//!
//! Serving executes every partition on the device pool (the multi-FPGA
//! regime of Section VII-E, generalised to heterogeneous backends); the
//! single-run CPU-share scheduler (FAST-SHARE's δ) is not booked here —
//! `run_fast` remains the one-shot path.

use crate::cache::CstCache;
use crate::devices::{DeviceKind, DevicePool};
use crate::executor::{
    executor_loop, notify_executors, shed_for_shutdown, CachedBuild, SessionSlot, Task,
};
use crate::mailbox::{mailbox, Mailbox, Sender};
use crate::metrics::ServeReport;
use crate::reporting::{MetricsState, Totals, WindowState};
pub use crate::resilience::FaultPolicy;
use crate::resilience::FALLBACK_THREADS;
use crate::tenant::{TenantConfig, TenantId, WrrQueue, INITIAL_GRAPH_EPOCH};
use cst::PlanKey;
use fast::{BackendClass, CpuBackend, FastConfig};
use graph_core::{Graph, QueryGraph, VertexId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
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
pub(crate) fn pwait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a [`FastService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-session FAST configuration (device spec, variant, CST options,
    /// root fan-out cap). When the fleet contains FPGA devices with less
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
    /// sessions, one task at a time — in-flight depth is bounded
    /// by [`max_in_flight`](Self::max_in_flight), not by this.
    pub workers: usize,
    /// Inert: serving has one cache, sized by
    /// [`cst_cache_bytes`](Self::cst_cache_bytes), so this field configures
    /// nothing. It stays only because the benchmark assigns it.
    pub cache_capacity: usize,
    /// Byte budget of each tenant's cache partition ([`crate::CstCache`]):
    /// each build's session plan and partition stream, evicted LRU by
    /// `Cst::payload_bytes`. A hit makes a warm serve pure dispatch +
    /// kernel (zero derivation, zero build work). 0 disables the cache
    /// ("cold" serving). Override per tenant via
    /// [`TenantConfig::cst_cache_bytes`].
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

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            fast: FastConfig::default(),
            devices: 2,
            extra_devices: Vec::new(),
            workers: 2,
            cache_capacity: 0,
            // The cache defaults on with a deliberately modest budget:
            // warm repeats skip the whole build, and the byte-budgeted LRU
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
    /// Whether the session replayed a cache entry — the fully warm path:
    /// no plan derivation, no build, no partitioning; the session was pure
    /// dispatch + kernel.
    pub cst_cache_hit: bool,
    /// Plan derivation wall: root selection, BFS tree, matching order and
    /// kernel plan. **Exactly zero** on a cache hit, which derives
    /// nothing.
    pub plan_time: Duration,
    /// CST build wall: refinement + materialisation + partitioning,
    /// excluding inline backend execution. **Exactly zero** on a cache
    /// hit — the claim `tests/prop_serve.rs` and `tests/prop_backend.rs`
    /// assert.
    pub build_time: Duration,
    /// Phase-1 top-down scan work of the session's build; 0 when the
    /// partitions were replayed from the cache.
    pub topdown_entries: usize,
    /// Inert: every session builds one CST, so this is always 1. It stays
    /// only because the benchmark reads it.
    pub pipeline_shards: usize,
    /// Inert: every CST is built by a top-down scan, so this is always 0.
    /// It stays only because the benchmark reads it.
    pub seeded_shards: usize,
    /// Wall time from worker pickup to completion (build + partition +
    /// inline emulated backends).
    pub service_time: Duration,
    /// Wall time from submission to worker pickup.
    pub queue_wait: Duration,
    /// Modelled device queueing delay: the worst queue this session's
    /// partitions joined behind (outstanding booked work on the assigned
    /// device at its modelled rate, in seconds). The host wall hides this
    /// contention — the emulated backends run inline — so it is reported
    /// here and in `ServeReport::device_queue_hist`, and kept out of the
    /// measured [`latency`](Self::latency).
    pub device_queue_sec: f64,
    /// Measured wall time from submission to completion: exactly
    /// [`queue_wait`](Self::queue_wait) + [`service_time`](Self::service_time).
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
    /// The configuration can never serve a session: no executors, no
    /// in-flight depth, or a device with a zero round budget `N_o`.
    Config(String),
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
            ServeError::Config(msg) => write!(f, "invalid service configuration: {msg}"),
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

/// Caller-side handle of one submitted query. Dropping it discards the
/// session's undelivered and later events, and the session stops: at its
/// next transition it retires as failed and runs no further partition.
#[derive(Debug)]
pub struct SessionHandle {
    id: u64,
    tenant: TenantId,
    rx: Arc<Mailbox>,
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
        self.rx.recv()
    }

    /// Drains the session to completion, discarding partition updates.
    pub fn wait(self) -> Result<QueryReport, ServeError> {
        loop {
            match self.rx.recv() {
                Some(SessionEvent::Done(report)) => return Ok(report),
                Some(SessionEvent::Failed(err)) => return Err(err),
                Some(SessionEvent::Partition(_)) => continue,
                None => return Err(ServeError::Disconnected),
            }
        }
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.rx.close(true);
    }
}

/// Everything the service keys by tenant: the loaded graph, its epoch,
/// the fair-share quota, a private cache partition, and its ledger — the
/// only metrics state in the service (the totals merge every tenant's).
pub(crate) struct TenantState {
    pub(crate) id: TenantId,
    pub(crate) graph: Arc<Graph>,
    pub(crate) quota: u32,
    /// Resolved per-session deadline: the tenant's own override or the
    /// service default.
    pub(crate) deadline: Option<Duration>,
    /// Graph epoch folded into this tenant's cache keys; bump on any
    /// graph change so stale entries can never hit.
    pub(crate) epoch: AtomicU64,
    /// Session plans + partition streams by query, byte-budgeted.
    pub(crate) cst_cache: Mutex<CstCache<PlanKey, Arc<CachedBuild>>>,
    pub(crate) metrics: Mutex<MetricsState>,
}

pub(crate) struct Submission {
    pub(crate) id: u64,
    pub(crate) tenant: Arc<TenantState>,
    pub(crate) query: QueryGraph,
    pub(crate) submitted: Instant,
    /// Submit time on the obs trace clock, so the session and queue-wait
    /// spans start at the true submit instant (0 when tracing is off).
    pub(crate) submitted_ns: u64,
    pub(crate) tx: Sender,
}

#[derive(Default)]
pub(crate) struct Gate {
    /// Sessions holding an execution permit (picked up, not finished).
    pub(crate) in_flight: usize,
    /// Sessions admitted and not yet finished, including still-queued
    /// ones — the bound [`FastService::try_submit`] enforces.
    pub(crate) admitted: usize,
    /// High-water mark of `in_flight` (permit holders only).
    pub(crate) max_seen: usize,
}

pub(crate) struct Inner {
    pub(crate) config: ServeConfig,
    pub(crate) next_id: AtomicU64,
    pub(crate) next_seq: AtomicU64,
    pub(crate) next_tenant: AtomicU32,
    /// Registered tenants, ordered by id for deterministic report slices.
    pub(crate) tenants: RwLock<BTreeMap<TenantId, Arc<TenantState>>>,
    /// The compatibility tenant `submit` addresses, outside the registry
    /// lock (the single-tenant hot path).
    pub(crate) default_tenant: Arc<TenantState>,
    /// Keys being built right now (single-flight, scoped per tenant),
    /// each mapped to the sessions **parked** on it: a concurrent
    /// identical cold query parks as a slab entry — no executor thread
    /// blocks — and the owner's flight release re-enqueues it. The owner
    /// holds its claim through the whole build, so waiters wake into a
    /// hit and each CST is built exactly once. A tenant whose cache is
    /// disabled claims no flight.
    pub(crate) pending_builds: Mutex<HashMap<(TenantId, PlanKey), Vec<u64>>>,
    pub(crate) devices: Mutex<DevicePool>,
    /// The emergency CPU share of degraded mode: partitions run here when
    /// every pool device is quarantined or evicted (and
    /// [`FaultPolicy::cpu_fallback`] allows it). `PartitionUpdate::device`
    /// reports it as the virtual index `pool.len()`.
    pub(crate) fallback: Option<Arc<CpuBackend>>,
    /// The queued session table: one weighted lane per tenant.
    pub(crate) queue: Mutex<WrrQueue<Submission>>,
    /// The session slab: every picked-up-but-unfinished session. Removal
    /// on retirement drops the event sender, so an abandoned handle sees
    /// [`ServeError::Disconnected`] rather than hanging.
    pub(crate) sessions: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    /// Per-executor task deques: the owner pops newest-first (cache-warm
    /// LIFO), thieves steal oldest-first (FIFO). Tasks route to
    /// `deques[sid % workers]`, so one session's tasks mostly stay on
    /// one executor.
    pub(crate) deques: Vec<Mutex<VecDeque<Task>>>,
    /// One wake sequence shared by every producer (submissions, task
    /// pushes, permit releases, shutdown): producers bump and
    /// notify; an idle executor snapshots it *before* scanning and
    /// sleeps only if it is unchanged — the missed-wakeup guard.
    pub(crate) wake: Mutex<u64>,
    pub(crate) wake_cond: Condvar,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) gate: Mutex<Gate>,
    /// Baseline for the next [`FastService::report_window`] delta.
    pub(crate) window: Mutex<WindowState>,
}

impl Inner {
    pub(crate) fn tenant(&self, id: TenantId) -> Result<Arc<TenantState>, ServeError> {
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
    pub(crate) inner: Arc<Inner>,
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
    /// [`ServeError::NoDevices`] and a zero budget (executors, in-flight
    /// depth, a device's `N_o`) is [`ServeError::Config`] instead of a
    /// panic.
    pub fn try_new(
        graph: impl Into<Arc<Graph>>,
        mut config: ServeConfig,
    ) -> Result<Self, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::Config("need at least one executor".into()));
        }
        if config.max_in_flight == 0 {
            return Err(ServeError::Config("need in-flight depth >= 1".into()));
        }
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
            epoch: AtomicU64::new(INITIAL_GRAPH_EPOCH),
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
            pending_builds: Mutex::new(HashMap::new()),
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
            window: Mutex::new(WindowState {
                seq: 0,
                taken_at: Instant::now(),
                base: Totals::default(),
            }),
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
    /// cache partition. Zero quotas are rejected
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
            epoch: AtomicU64::new(INITIAL_GRAPH_EPOCH),
            cst_cache: Mutex::new(CstCache::new(cst_budget)),
            metrics: Mutex::new(MetricsState::default()),
        });
        // Lane before registry: a submission can only name the tenant
        // after `add_tenant` returns, and by then both exist.
        self.inner.queue.plock().add_lane(id, config.quota);
        self.inner.tenants.pwrite().insert(id, state);
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
    /// invalidating every cache entry for it — other tenants' residency
    /// and hit rates are untouched. Returns the new epoch.
    pub fn bump_epoch(&self, tenant: TenantId) -> Result<u64, ServeError> {
        let state = self.inner.tenant(tenant)?;
        let epoch = state.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        // The epoch is inside the PlanKey, so stale entries could never
        // hit; their payloads are megabytes, so drop them eagerly instead
        // of letting them squat the byte budget until eviction.
        state.cst_cache.plock().clear();
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
        let (tx, rx) = mailbox();
        let now = Instant::now();
        {
            let mut m = tenant.metrics.plock();
            m.submitted += 1;
            m.first_submit.get_or_insert(now);
        }
        let submission = Submission {
            id,
            tenant,
            query,
            submitted: now,
            submitted_ns: obs::now_ns(),
            tx,
        };
        let pushed = self.inner.queue.plock().push(tenant_id, submission);
        debug_assert!(pushed, "validated tenant must have a lane");
        notify_executors(&self.inner);
        SessionHandle {
            id,
            tenant: tenant_id,
            rx,
        }
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

#[cfg(test)]
mod tests;
