//! The session executor: the slab-held per-session state, the task deques,
//! and the poll loop that drives every admitted session from pickup to
//! retirement. The lifecycle is written down once, on [`Task`]; this module
//! is everything that task graph touches, in the order it happens —
//! `executor_loop` → `pickup` → `run_admit`/`build_session` → `run_exec` →
//! `finalize` → `release` (and `panic_retire` for a task that unwound).

use crate::mailbox::Sender;
use crate::reporting::{finish, FinishOutcome};
use crate::resilience::{execute_checked, fold_acc, fold_faults, FaultAcc};
use crate::service::{
    pwait, Inner, MutexExt, PartitionUpdate, QueryReport, ServeError, SessionEvent, Submission,
    TenantState,
};
use crate::tenant::TenantId;
use cst::PlanKey;
use fast::{prepare_partitions, CollectMode, KernelPlan, PartitionJob, QueryCtx};
use graph_core::{path_based_order, select_root, BfsTree, Graph, MatchingOrder, QueryGraph};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
pub(crate) enum Task {
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

/// What a session paid to get its partitions staged. A tier-2 hit paid
/// nothing: every field is exactly zero.
#[derive(Clone, Copy, Default)]
struct PrepareCost {
    plan_time: Duration,
    build_time: Duration,
    topdown_entries: usize,
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
    prepare: PrepareCost,
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
pub(crate) struct SessionSlot {
    id: u64,
    tenant: Arc<TenantState>,
    query: QueryGraph,
    submitted: Instant,
    submitted_ns: u64,
    tx: Sender,
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
pub(crate) fn notify_executors(inner: &Inner) {
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
pub(crate) fn executor_loop(inner: &Arc<Inner>, me: usize) {
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
pub(crate) fn shed_for_shutdown(inner: &Inner, sub: Submission) {
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
    sub.tx.send(SessionEvent::Failed(ServeError::ShuttingDown));
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

/// The `plan` span's arguments: the shard count the plan cut the root set
/// into.
fn plan_span_args(plan: &cst::ShardPlan) -> obs::Args {
    vec![("shards", obs::ArgValue::U64(plan.shard_count() as u64))]
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
    // * **Tier-2 hit** — the artifact holds the partition stream of an
    //   earlier identical build and its jobs are staged as they are: no
    //   planning, no build, no partitioning — the session is pure dispatch
    //   + kernel. No flight is claimed (there is nothing left to compute).
    // * **Tier-2 miss, plan hit** — the session builds, skipping only
    //   the plan. With tier 2 enabled the flight is **held through the
    //   build** and the finished artifact is inserted before release, so
    //   N identical concurrent cold sessions build the CST exactly once:
    //   waiters wake straight into a tier-2 hit.
    // * **Both miss** — the plan (`plan_pipeline_shards`: the whole root
    //   set as one range) is computed *here* and published immediately.
    //   With tier 2 disabled the flight is released at plan publication
    //   (waiters need only the plan); with tier 2 enabled it is held
    //   through the build as above.
    //
    // The key comes from the `CstOptions` `prepare_partitions` builds
    // with. The build is one CST, and the partitioner fans its root out
    // into at most `pipeline_shards` and at most `⌊W_CST / N_o⌋` chunks.
    let mut config = inner.config.fast.clone();
    let epoch = tenant.epoch.load(Ordering::Relaxed);
    let key = PlanKey::derive(q, tree, &config.cst_options, epoch);
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
        // An artifact of another shape under this key is not a hit: the
        // session rebuilds and its insert replaces the entry.
        if cst_enabled {
            cached_artifact = tenant
                .cst_cache
                .plock()
                .get(&key)
                .filter(|artifact| artifact.matches_query(q));
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
    // The "build" span (recorded at retirement, completed sessions only)
    // starts once the plan is settled and ends after the last partition
    // executes, so every backend `execute` span nests inside it —
    // including on a tier-2 hit, where the `tier2_hit` arg marks that
    // nothing was built.
    let (jobs, build_start_ns, prepare) = if let Some(artifact) = cached_artifact {
        let jobs: VecDeque<PartitionJob> = artifact.partitions.iter().cloned().collect();
        (jobs, obs::now_ns(), PrepareCost::default())
    } else {
        let mut plan_time = Duration::ZERO;
        if !plan_hit {
            let t0 = Instant::now();
            let t0_ns = obs::now_ns();
            let roots = cst::root_candidates(q, g, tree, config.cst_options);
            let shard_plan = Arc::new(cst::plan_pipeline_shards(&roots));
            plan_time = t0.elapsed();
            let (end_ns, args) = (obs::now_ns(), plan_span_args(&shard_plan));
            obs::record_span(strack, "plan", "serve", t0_ns, end_ns, args);
            if cache_enabled {
                tenant.cache.plock().insert(key, shard_plan);
            }
        }
        config.capture_prepared = cst_enabled;
        if !cst_enabled {
            // The plan is published; waiters wake straight into a plan
            // hit while this session goes on to build and execute. (With
            // tier 2 enabled the flight instead outlives the build — see
            // the artifact insert after `prepare_partitions`.)
            drop(flight.take());
        }
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
        let prepare = PrepareCost {
            plan_time,
            // Build + partition wall net of sink time.
            build_time: prep.build_wall + prep.partition_time.saturating_sub(sink_exec),
            topdown_entries: prep.build_topdown_entries,
        };
        (jobs, build_start_ns, prepare)
    };
    drop(flight);
    {
        let mut s = slot.mu.plock();
        s.stats.build_start_ns = build_start_ns;
        s.stats.prepare = prepare;
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
    let result = execute_checked(inner, &inner.config.fault, &job, &ctx, &mut acc).map(
        |(device, class, out)| PartitionUpdate {
            index: job.index,
            device,
            backend: class,
            embeddings: out.embeddings,
            kernel_cycles: out.kernel_cycles,
            modeled_sec: out.modeled_sec,
            collected: out.collected,
        },
    );
    let done = {
        let mut s = slot.mu.plock();
        fold_acc(&mut s.stats.acc, &acc);
        match &result {
            Ok(u) => {
                s.stats.embeddings += u.embeddings;
                s.stats.partitions += 1;
                s.stats.kernel_cycles += u.kernel_cycles;
                s.stats.device_sec += u.modeled_sec;
            }
            Err(e) => s.session_err = Some(e.clone()),
        }
        if !s.jobs.is_empty() {
            // Partitions remain: shed them now if the deadline passed
            // while this one ran.
            latch_deadline(&slot, &mut s);
        }
        s.session_err.is_some() || s.jobs.is_empty()
    };
    if let Ok(update) = result {
        slot.tx.send(SessionEvent::Partition(update));
    }
    if done {
        finalize_from_state(inner, &slot);
    } else {
        push_task(inner, Task::Exec(sid));
    }
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
                plan_time: stats.prepare.plan_time,
                build_time: stats.prepare.build_time,
                topdown_entries: stats.prepare.topdown_entries,
                pipeline_shards: 1,
                seeded_shards: 0,
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
                ],
            );
            close_session(strack, slot, "completed", stats.embeddings);
            slot.tx.send(SessionEvent::Done(report));
        }
        SessionOutcome::Shed { at } => {
            finish(inner, tenant, FinishOutcome::DeadlineMiss);
            obs::event("deadline_shed", "fault", vec![("at", obs::ArgValue::Str(at))]);
            close_session(strack, slot, "shed", stats.embeddings);
            slot.tx.send(SessionEvent::Failed(ServeError::DeadlineExceeded));
        }
        SessionOutcome::Error(err) => {
            finish(inner, tenant, FinishOutcome::Failed);
            close_session(strack, slot, "failed", stats.embeddings);
            slot.tx.send(SessionEvent::Failed(err));
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
    finish(inner, &slot.tenant, FinishOutcome::Failed);
    release(inner, sid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst::{plan_pipeline_shards, root_candidates, CstOptions};
    use graph_core::generators::random_power_law_graph;
    use graph_core::Label;

    #[test]
    fn plan_span_args_explain_the_plan() {
        let g = random_power_law_graph(400, 3, 2, 7);
        let q = QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(1)],
            &[(0, 1), (1, 2), (0, 2)],
        )
        .unwrap();
        let tree = BfsTree::new(&q, select_root(&q, &g));
        let roots = root_candidates(&q, &g, &tree, CstOptions::default());
        let plan = plan_pipeline_shards(&roots);
        assert_eq!(plan.shard_count(), 1);

        let args = plan_span_args(&plan);
        let names: Vec<_> = args.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["shards"]);
        assert!(matches!(args[0].1, obs::ArgValue::U64(n) if n == plan.shard_count() as u64));
    }
}
