//! Metrics state and report assembly: the cumulative counters and
//! histograms every retirement folds into, the rolling-window baseline, and
//! the [`FastService`] report methods that snapshot and aggregate them.

use crate::cache::CacheStats;
use crate::devices::DeviceStats;
use crate::metrics::{ServeReport, TenantSummary};
use crate::service::{
    FastService, Inner, MutexExt, QueryReport, RwLockExt, ServeError, TenantState,
};
use crate::tenant::TenantId;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Sample distributions are streaming log-bucketed [`obs::Histogram`]s:
/// constant memory on a service that runs forever (the predecessor was a
/// strided sample reservoir that still held 2¹⁶ floats per set), exact
/// mergeable bucket counts (so [`FastService::report_window`] deltas
/// reconcile bit-exactly against the lifetime report on every integer
/// counter), and quantiles read without any per-report sort.
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
    pub(crate) plan_hits: obs::Histogram,
    pub(crate) plan_misses: obs::Histogram,
    pub(crate) build_hits: obs::Histogram,
    pub(crate) build_misses: obs::Histogram,
    pub(crate) first_submit: Option<Instant>,
    pub(crate) last_done: Option<Instant>,
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
    pub(crate) cache: CacheStats,
    pub(crate) cst_cache: CacheStats,
    pub(crate) cst_resident_bytes: usize,
    pub(crate) devices: Vec<DeviceStats>,
    pub(crate) max_in_flight: usize,
}

impl Totals {
    /// One pass over the service — each lock taken briefly in turn —
    /// shared by the lifetime report and the window delta. Also returns
    /// the tenants it walked, for the per-tenant slices.
    fn capture(inner: &Inner) -> (Totals, Vec<Arc<TenantState>>) {
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
        let totals = Totals {
            metrics,
            cache,
            cst_cache,
            cst_resident_bytes,
            devices: inner.devices.plock().snapshot(),
            max_in_flight: inner.gate.plock().max_seen,
        };
        (totals, tenants)
    }

    /// Everything accumulated since `base`; point-in-time fields
    /// (`cst_resident_bytes`, `max_in_flight`, device health and
    /// outstanding workload) carry over from `self`.
    fn delta(&self, base: &Totals) -> Totals {
        Totals {
            metrics: self.metrics.delta(&base.metrics),
            cache: self.cache.delta(&base.cache),
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
        assemble_report(totals, tenants.iter().map(|t| tenant_summary(t)).collect())
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
        let (totals, _) = Totals::capture(&self.inner);
        let mut window = self.inner.window.plock();
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

/// Aggregates one set of totals — lifetime, or a window delta (where the
/// fleet aggregates then describe the window's own activity) — into a
/// report.
pub(crate) fn assemble_report(totals: Totals, tenants: Vec<TenantSummary>) -> ServeReport {
    let m = &totals.metrics;
    let wall_sec = match (m.first_submit, m.last_done) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    let devices = totals.devices;
    let booked = |d: &DeviceStats| d.total_workload;
    let mean_booked = devices.iter().map(booked).sum::<f64>() / devices.len().max(1) as f64;
    let mut report = ServeReport {
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
        cache: totals.cache,
        cst_cache: totals.cst_cache,
        cst_resident_bytes: totals.cst_resident_bytes,
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
        max_in_flight: totals.max_in_flight,
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

pub(crate) enum FinishOutcome {
    Completed(QueryReport),
    Failed,
    DeadlineMiss,
}

/// Folds a session's outcome into the service-wide and tenant metrics.
/// The execution permit is released by the session's retirement in
/// `release`, not here.
pub(crate) fn finish(inner: &Inner, tenant: &TenantState, outcome: FinishOutcome) {
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
