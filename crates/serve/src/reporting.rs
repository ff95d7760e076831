//! Metrics state and report assembly: each tenant's ledger of cumulative
//! counters and histograms, the rolling-window baseline, and the
//! [`FastService`] report methods that read the ledgers and merge them.

use crate::cache::CacheStats;
use crate::devices::DeviceStats;
use crate::metrics::{ServeReport, TenantSummary, WindowInfo};
use crate::service::{
    FastService, Inner, MutexExt, QueryReport, RwLockExt, ServeError, TenantState,
};
use crate::tenant::TenantId;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A tenant's ledger, and the only one in the service: `enqueue`,
/// [`finish`] and `resilience::fold_faults` fold each session event into
/// its tenant's copy once, and the service totals are the merge of every
/// tenant's copy ([`absorb`](Self::absorb)). Every session belongs to one
/// tenant and no tenant is ever removed, so the merge counts each event
/// exactly once.
///
/// Sample distributions are streaming log-bucketed [`obs::Histogram`]s:
/// constant memory on a service that runs forever, exact mergeable bucket
/// counts (so [`FastService::report_window`] deltas reconcile bit-exactly
/// against the lifetime report on every integer counter), and quantiles
/// read without any per-report sort.
#[derive(Default, Clone)]
pub(crate) struct MetricsState {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) total_embeddings: u64,
    pub(crate) retries: u64,
    pub(crate) failovers: u64,
    pub(crate) corruption_catches: u64,
    pub(crate) deadline_misses: u64,
    pub(crate) degraded_sec: f64,
    pub(crate) latencies: obs::Histogram,
    pub(crate) queue_waits: obs::Histogram,
    pub(crate) device_queues: obs::Histogram,
    pub(crate) build_hits: obs::Histogram,
    pub(crate) build_misses: obs::Histogram,
    pub(crate) first_submit: Option<Instant>,
    pub(crate) last_done: Option<Instant>,
}

impl MetricsState {
    /// Adds `other`'s counters and samples into `self`, keeping the earliest
    /// `first_submit` and the latest `last_done`: how the service totals are
    /// merged from the tenants' ledgers. Integer counters and histogram
    /// bucket counts add exactly; only the f64 sums (`degraded_sec`,
    /// histogram sums) depend on the order of the merge.
    fn absorb(&mut self, other: &MetricsState) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.total_embeddings += other.total_embeddings;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.corruption_catches += other.corruption_catches;
        self.deadline_misses += other.deadline_misses;
        self.degraded_sec += other.degraded_sec;
        self.latencies.merge(&other.latencies);
        self.queue_waits.merge(&other.queue_waits);
        self.device_queues.merge(&other.device_queues);
        self.build_hits.merge(&other.build_hits);
        self.build_misses.merge(&other.build_misses);
        self.first_submit = match (self.first_submit, other.first_submit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_done = self.last_done.max(other.last_done);
    }

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
            build_hits: self.build_hits.delta(&base.build_hits),
            build_misses: self.build_misses.delta(&base.build_misses),
            first_submit: self.first_submit,
            last_done: self.last_done,
        }
    }

    /// Completed sessions per second of serving wall (first submission →
    /// last completion). Degenerate walls must never surface NaN/inf: a
    /// ledger with no completion has no wall at all, and a single session
    /// can complete within one clock tick (a zero wall with
    /// `completed > 0`). Both collapse to QPS 0 rather than dividing.
    fn qps_and_wall(&self) -> (f64, f64) {
        let wall_sec = match (self.first_submit, self.last_done) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let qps = if wall_sec > 0.0 {
            self.completed as f64 / wall_sec
        } else {
            0.0
        };
        (qps, wall_sec)
    }
}

/// Baseline captured at the previous [`FastService::report_window`] call:
/// the next window report is the current totals minus `base`.
pub(crate) struct WindowState {
    /// Sequence number of the *next* window.
    pub(crate) seq: u64,
    /// When the baseline was captured (service start for window 0).
    pub(crate) taken_at: Instant,
    pub(crate) base: Totals,
}

/// The service's cumulative state at one instant: the input of a report,
/// and (as a baseline) of the next window's delta.
#[derive(Default)]
pub(crate) struct Totals {
    pub(crate) metrics: MetricsState,
    pub(crate) cst_cache: CacheStats,
    pub(crate) cst_resident_bytes: usize,
    pub(crate) devices: Vec<DeviceStats>,
    pub(crate) max_in_flight: usize,
}

impl Totals {
    /// One pass over the service — each lock taken briefly in turn —
    /// shared by the lifetime report and the window delta. Each tenant's
    /// ledger and cache counters are read once; the same copies are merged
    /// into the totals and sliced into the returned tenant summaries.
    fn capture(inner: &Inner) -> (Totals, Vec<TenantSummary>) {
        let tenants: Vec<Arc<TenantState>> = inner.tenants.pread().values().cloned().collect();
        let mut totals = Totals::default();
        let mut summaries = Vec::with_capacity(tenants.len());
        for t in &tenants {
            let (metrics, cache, resident) = read_tenant(t);
            totals.metrics.absorb(&metrics);
            totals.cst_cache.absorb(&cache);
            totals.cst_resident_bytes += resident;
            summaries.push(tenant_summary(t, &metrics, &cache, resident));
        }
        totals.devices = inner.devices.plock().snapshot();
        totals.max_in_flight = inner.gate.plock().max_seen;
        (totals, summaries)
    }

    /// Everything accumulated since `base`; point-in-time fields
    /// (`cst_resident_bytes`, `max_in_flight`, device health and
    /// outstanding workload) carry over from `self`.
    fn delta(&self, base: &Totals) -> Totals {
        Totals {
            metrics: self.metrics.delta(&base.metrics),
            cst_cache: self.cst_cache.delta(&base.cst_cache),
            cst_resident_bytes: self.cst_resident_bytes,
            devices: self
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| base.devices.get(i).map_or(*d, |b| d.delta(b)))
                .collect(),
            max_in_flight: self.max_in_flight,
        }
    }
}

impl FastService {
    /// A point-in-time service report (callable while serving). Each lock
    /// is taken briefly in turn to snapshot its state; the histogram
    /// aggregation runs with no lock held, so a report never stalls
    /// admission or dispatch.
    pub fn report(&self) -> ServeReport {
        let (totals, tenants) = Totals::capture(&self.inner);
        assemble_report(totals, tenants)
    }

    /// A single tenant's report slice.
    pub fn tenant_report(&self, tenant: TenantId) -> Result<TenantSummary, ServeError> {
        let state = self.inner.tenant(tenant)?;
        let (metrics, cache, resident) = read_tenant(&state);
        Ok(tenant_summary(&state, &metrics, &cache, resident))
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
        // Capture under the window lock: a caller that captured before
        // locking could, after a later caller advanced the baseline, set
        // it back to its older totals, and the next window would count
        // the interval between the two captures twice.
        let mut window = self.inner.window.plock();
        let now = Instant::now();
        let (totals, _) = Totals::capture(&self.inner);
        let wall_sec = now.duration_since(window.taken_at).as_secs_f64();
        let mut delta = totals.delta(&window.base);
        // The window wall is baseline→now, not first-submit→last-done.
        delta.metrics.first_submit = Some(window.taken_at);
        delta.metrics.last_done = Some(now);
        let seq = window.seq;
        // Advance the baseline: the next window starts here.
        window.seq += 1;
        window.taken_at = now;
        window.base = totals;
        drop(window);

        let mut report = assemble_report(delta, Vec::new());
        report.window = Some(WindowInfo { seq, wall_sec });
        debug_assert!(report.is_finite());
        report
    }

    /// Prometheus text exposition: the global `obs` registry (device and
    /// backend counters) followed by the report-derived `serve_*` metrics
    /// and the cumulative latency histogram.
    pub fn prometheus_text(&self) -> String {
        let mut out = obs::registry().prometheus_text();
        out.push_str(&self.report().prometheus_text());
        out
    }
}

/// One tenant's ledger and cache counters, each read under its lock once.
fn read_tenant(t: &TenantState) -> (MetricsState, CacheStats, usize) {
    let metrics = t.metrics.plock().clone();
    let cc = t.cst_cache.plock();
    (metrics, cc.stats(), cc.used())
}

fn tenant_summary(
    t: &TenantState,
    m: &MetricsState,
    cache: &CacheStats,
    cst_resident_bytes: usize,
) -> TenantSummary {
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
        qps: m.qps_and_wall().0,
        // Histogram nearest-rank quantiles: one bucket scan each, no
        // per-report sort.
        latency_p50: m.latencies.quantile(0.50),
        latency_p99: m.latencies.quantile(0.99),
        cst_hit_rate: cache.hit_rate(),
        cst_resident_bytes,
    }
}

/// Aggregates one set of totals — lifetime, or a window delta (where the
/// fleet aggregates then describe the window's own activity) — into a
/// report.
pub(crate) fn assemble_report(totals: Totals, tenants: Vec<TenantSummary>) -> ServeReport {
    let Totals {
        metrics: m,
        cst_cache,
        cst_resident_bytes,
        devices,
        max_in_flight,
    } = totals;
    let (qps, wall_sec) = m.qps_and_wall();
    let booked = |d: &DeviceStats| d.total_workload;
    let mean_booked = devices.iter().map(booked).sum::<f64>() / devices.len().max(1) as f64;
    let report = ServeReport {
        submitted: m.submitted,
        completed: m.completed,
        failed: m.failed,
        deadline_misses: m.deadline_misses,
        retries: m.retries,
        failovers: m.failovers,
        // Quarantines live on the devices, not the sessions: the pool
        // snapshot is their ground truth.
        quarantines: devices.iter().map(|d| d.quarantines).sum(),
        corruption_catches: m.corruption_catches,
        degraded_sec: m.degraded_sec,
        total_embeddings: m.total_embeddings,
        cst_cache,
        cst_resident_bytes,
        qps,
        wall_sec,
        build_hit_mean_sec: m.build_hits.mean(),
        build_miss_mean_sec: m.build_misses.mean(),
        latency_hist: m.latencies,
        queue_wait_hist: m.queue_waits,
        device_queue_hist: m.device_queues,
        // The busiest device's modelled seconds: the fleet's makespan.
        device_makespan_sec: devices.iter().map(|d| d.busy_sec).fold(0.0, f64::max),
        device_busy_sec: devices.iter().map(|d| d.busy_sec).sum(),
        // Max/mean booked workload; an idle fleet is balanced by definition.
        device_imbalance: if mean_booked == 0.0 {
            1.0
        } else {
            devices.iter().map(booked).fold(0.0, f64::max) / mean_booked
        },
        devices,
        max_in_flight,
        tenants,
        ..ServeReport::default()
    };
    debug_assert!(report.is_finite(), "report must never surface NaN/inf");
    report
}

pub(crate) enum FinishOutcome<'a> {
    Completed(&'a QueryReport),
    Failed,
    DeadlineMiss,
}

/// Folds a session's outcome into its tenant's ledger. The execution
/// permit is released by the session's retirement in `release`, not here.
pub(crate) fn finish(tenant: &TenantState, outcome: FinishOutcome<'_>) {
    let now = Instant::now();
    let mut m = tenant.metrics.plock();
    match outcome {
        FinishOutcome::Completed(report) => {
            m.completed += 1;
            m.total_embeddings += report.embeddings;
            m.latencies.record(report.latency.as_secs_f64());
            m.queue_waits.record(report.queue_wait.as_secs_f64());
            m.device_queues.record(report.device_queue_sec);
            let build_sec = report.build_time.as_secs_f64();
            if report.cst_cache_hit {
                m.build_hits.record(build_sec);
            } else {
                m.build_misses.record(build_sec);
            }
        }
        FinishOutcome::Failed => m.failed += 1,
        // A shed session is not a failure: it was dropped by policy, and
        // the chaos accounting (`failed == 0` under recoverable schedules)
        // must not conflate the two.
        FinishOutcome::DeadlineMiss => m.deadline_misses += 1,
    }
    m.last_done = Some(now);
}
