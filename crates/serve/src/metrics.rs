//! Service-level metrics: the [`ServeReport`], its per-tenant
//! [`TenantSummary`] slices, and the Prometheus text rendering.
//!
//! Latency-shaped sample sets are held as streaming log-bucketed
//! [`obs::Histogram`]s rather than raw sample vectors: constant memory
//! regardless of session count, exact mergeable counters (so rolling
//! windows are true deltas of the lifetime state), and nearest-rank
//! quantiles read straight from the bucket counts — one pass per
//! report instead of one sort per percentile call.

use crate::cache::CacheStats;
use crate::devices::DeviceStats;
use crate::tenant::TenantId;
use obs::Histogram;

/// Nearest-rank percentile of an already **sorted** slice (`q` in
/// `[0, 1]`); 0.0 for an empty slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank percentile of `samples` (any order; `q` in `[0, 1]`).
/// Returns 0.0 for an empty slice. Sorts a copy — when several quantiles
/// of the same set are needed, sort once and call [`percentile_sorted`],
/// or better, stream the samples into an [`obs::Histogram`] as the
/// report assembly path does.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, q)
}

/// Nearest-rank percentile of an already **sorted** slice — the
/// sort-once path for call sites that need several quantiles of the
/// same sample set.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    nearest_rank(sorted, q)
}

/// Identifies a rolling-window report (see
/// [`FastService::report_window`](crate::FastService::report_window)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowInfo {
    /// Window sequence number: 0 for the first window after service
    /// start, incrementing on every `report_window` call.
    pub seq: u64,
    /// Wall seconds the window spans (previous `report_window` call —
    /// or service start — to this one).
    pub wall_sec: f64,
}

/// Aggregate view of a service's lifetime (or a rolling window of it):
/// produced by [`FastService::report`](crate::FastService::report),
/// [`FastService::report_window`](crate::FastService::report_window) and
/// [`FastService::shutdown`](crate::FastService::shutdown).
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// `None` for a lifetime report; window identity for a delta report.
    pub window: Option<WindowInfo>,
    /// Sessions admitted.
    pub submitted: u64,
    /// Sessions completed successfully.
    pub completed: u64,
    /// Sessions that failed (e.g. query exceeds the kernel register budget,
    /// or a partition exhausted its retry budget).
    pub failed: u64,
    /// Sessions shed past their deadline
    /// ([`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded));
    /// counted separately from
    /// [`failed`](Self::failed) — a shed session was dropped by policy,
    /// not broken.
    pub deadline_misses: u64,
    /// Failed execution attempts that were retried on another admission.
    /// Reconciles exactly against Σ `DeviceStats::failures` over
    /// [`devices`](Self::devices) — every device failure is retried
    /// exactly once (the exactly-once accounting the chaos tests assert).
    pub retries: u64,
    /// Retries that rerouted to a *different* device than the one that
    /// failed.
    pub failovers: u64,
    /// Times any device entered quarantine (Σ `DeviceStats::quarantines`).
    pub quarantines: u64,
    /// Corrupted outputs the cross-check caught and outvoted
    /// (Σ `DeviceStats::corruptions` as attributed by the service).
    pub corruption_catches: u64,
    /// Wall seconds spent executing on the emergency CPU fallback because
    /// the whole pool was quarantined or evicted (degraded mode).
    pub degraded_sec: f64,
    /// Total embeddings across completed sessions.
    pub total_embeddings: u64,
    /// Tier-1 plan-cache counters (hit rate, evictions).
    pub cache: CacheStats,
    /// Tier-2 shard-CST cache counters (hit rate, evictions, rejections).
    pub cst_cache: CacheStats,
    /// Resident payload bytes across every tenant's tier-2 partition at
    /// report time — always ≤ the sum of configured byte budgets.
    pub cst_resident_bytes: usize,
    /// Sustained throughput: completed sessions per second of serving wall
    /// time (first submission → last completion; for a window report, the
    /// window wall).
    pub qps: f64,
    /// Serving wall time the QPS is normalised by.
    pub wall_sec: f64,
    /// Session latency distribution (seconds): measured submit→done wall
    /// **plus** each session's modelled device queueing delay
    /// (`QueryReport::device_queue_sec`) — device-faithful at high
    /// concurrency, where the inline emulated kernels hide the contention
    /// on the modelled cards. Bucket counts are exact and mergeable;
    /// quantiles below read from it (bucket-midpoint representatives,
    /// ≤ ~6% relative error by construction).
    pub latency_hist: Histogram,
    /// Admission-queue wait distribution (seconds): submit → worker pickup.
    pub queue_wait_hist: Histogram,
    /// Modelled device queueing delay distribution (seconds): per session,
    /// the worst outstanding booked work its partitions joined behind at
    /// admission (`DevicePool::admit`). The component of the latency
    /// distribution above that the host wall cannot see.
    pub device_queue_hist: Histogram,
    /// Session latency quantiles/mean (seconds), read from
    /// [`latency_hist`](Self::latency_hist).
    pub latency_p50: f64,
    pub latency_p99: f64,
    pub latency_mean: f64,
    /// Admission-queue wait quantiles (seconds), read from
    /// [`queue_wait_hist`](Self::queue_wait_hist).
    pub queue_wait_p50: f64,
    pub queue_wait_p99: f64,
    /// Device queueing delay quantiles/mean (seconds), read from
    /// [`device_queue_hist`](Self::device_queue_hist).
    pub device_queue_p50: f64,
    pub device_queue_p99: f64,
    pub device_queue_mean: f64,
    /// Mean shard-planning wall per session, split by cache outcome. A
    /// working cache shows `plan_hit_mean_sec` ≈ 0.
    pub plan_hit_mean_sec: f64,
    pub plan_miss_mean_sec: f64,
    /// Mean CST build wall per session (refinement + materialisation +
    /// partitioning), split by tier-2 outcome: a warm serve builds nothing,
    /// so `build_hit_mean_sec` is exactly 0 — the timing claim
    /// `tests/prop_backend.rs` asserts.
    pub build_hit_mean_sec: f64,
    pub build_miss_mean_sec: f64,
    /// Per-device counters (partitions, modelled cycles, booked workload).
    /// In a window report the monotone counters are deltas over the
    /// window; `outstanding_workload` and `health` are point-in-time.
    pub devices: Vec<DeviceStats>,
    /// The busiest device's modelled execution seconds.
    pub device_makespan_sec: f64,
    /// Total modelled device-seconds across the pool.
    pub device_busy_sec: f64,
    /// Max/mean booked workload across devices (1.0 = perfectly balanced).
    pub device_imbalance: f64,
    /// High-water mark of concurrently admitted sessions (lifetime, even
    /// in window reports).
    pub max_in_flight: usize,
    /// Per-tenant slices, ordered by tenant id (the default tenant first).
    /// Empty in window reports — windows slice time, not tenants.
    pub tenants: Vec<TenantSummary>,
}

/// One tenant's slice of the service report.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// The tenant the slice describes.
    pub tenant: TenantId,
    /// Fair-share weight of the admission round-robin.
    pub quota: u32,
    /// Current graph epoch (bumps invalidate the tenant's cached plans).
    pub epoch: u64,
    /// Sessions this tenant submitted.
    pub submitted: u64,
    /// Sessions completed for this tenant.
    pub completed: u64,
    /// Sessions failed for this tenant.
    pub failed: u64,
    /// Sessions of this tenant shed past their deadline.
    pub deadline_misses: u64,
    /// Failed execution attempts retried on this tenant's behalf.
    pub retries: u64,
    /// Retries that rerouted to a different device.
    pub failovers: u64,
    /// Corrupted outputs the cross-check caught for this tenant.
    pub corruption_catches: u64,
    /// Wall seconds this tenant's sessions spent on the CPU fallback.
    pub degraded_sec: f64,
    /// Embeddings across the tenant's completed sessions.
    pub total_embeddings: u64,
    /// Completed sessions per second of the tenant's serving wall (its own
    /// first submission → its own last completion).
    pub qps: f64,
    /// Tenant latency quantiles (seconds), same definition as the
    /// service-wide ones (histogram nearest-rank, no per-report sort).
    pub latency_p50: f64,
    pub latency_p99: f64,
    /// Hit rate of the tenant's plan-cache partition.
    pub hit_rate: f64,
    /// Hit rate of the tenant's tier-2 shard-CST cache partition.
    pub cst_hit_rate: f64,
    /// Resident payload bytes of the tenant's tier-2 partition.
    pub cst_resident_bytes: usize,
}

impl ServeReport {
    /// Builds the latency/queue aggregates from the streaming
    /// histograms. All inputs are per-session seconds; the three
    /// latency-shaped histograms are kept on the report so window
    /// deltas and exports can reuse the exact bucket counts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn aggregate(
        &mut self,
        latencies: &Histogram,
        queue_waits: &Histogram,
        device_queues: &Histogram,
        plan_hits: &Histogram,
        plan_misses: &Histogram,
        build_hits: &Histogram,
        build_misses: &Histogram,
    ) {
        self.latency_p50 = latencies.quantile(0.50);
        self.latency_p99 = latencies.quantile(0.99);
        self.latency_mean = latencies.mean();
        self.queue_wait_p50 = queue_waits.quantile(0.50);
        self.queue_wait_p99 = queue_waits.quantile(0.99);
        self.device_queue_p50 = device_queues.quantile(0.50);
        self.device_queue_p99 = device_queues.quantile(0.99);
        self.device_queue_mean = device_queues.mean();
        self.plan_hit_mean_sec = plan_hits.mean();
        self.plan_miss_mean_sec = plan_misses.mean();
        self.build_hit_mean_sec = build_hits.mean();
        self.build_miss_mean_sec = build_misses.mean();
        self.latency_hist = latencies.clone();
        self.queue_wait_hist = queue_waits.clone();
        self.device_queue_hist = device_queues.clone();
    }

    /// Whether every derived rate/percentile field is finite — the
    /// degenerate-report guard (zero wall, empty sample sets, idle
    /// devices must all surface zeros, never NaN/inf).
    pub fn is_finite(&self) -> bool {
        [
            self.qps,
            self.wall_sec,
            self.latency_p50,
            self.latency_p99,
            self.latency_mean,
            self.queue_wait_p50,
            self.queue_wait_p99,
            self.device_queue_p50,
            self.device_queue_p99,
            self.device_queue_mean,
            self.plan_hit_mean_sec,
            self.plan_miss_mean_sec,
            self.build_hit_mean_sec,
            self.build_miss_mean_sec,
            self.device_makespan_sec,
            self.device_busy_sec,
            self.device_imbalance,
            self.degraded_sec,
            self.cache.hit_rate(),
            self.cst_cache.hit_rate(),
            self.latency_hist.mean(),
            self.latency_hist.sum(),
            self.queue_wait_hist.mean(),
            self.queue_wait_hist.sum(),
            self.device_queue_hist.mean(),
            self.device_queue_hist.sum(),
            self.window.map_or(0.0, |w| w.wall_sec),
        ]
        .iter()
        .all(|v| v.is_finite())
    }

    /// Renders the report as Prometheus text exposition lines
    /// (`serve_*` metrics plus a cumulative latency histogram). The
    /// service-level exposition
    /// ([`FastService::prometheus_text`](crate::FastService::prometheus_text))
    /// prepends the global `obs` registry to this.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut c = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        c("serve_sessions_submitted_total", "Sessions admitted", self.submitted);
        c("serve_sessions_completed_total", "Sessions completed", self.completed);
        c("serve_sessions_failed_total", "Sessions failed", self.failed);
        c(
            "serve_deadline_misses_total",
            "Sessions shed past their deadline",
            self.deadline_misses,
        );
        c("serve_retries_total", "Failed attempts retried", self.retries);
        c(
            "serve_failovers_total",
            "Retries rerouted to a different device",
            self.failovers,
        );
        c(
            "serve_quarantines_total",
            "Device quarantine entries",
            self.quarantines,
        );
        c(
            "serve_corruption_catches_total",
            "Corrupted outputs outvoted by the cross-check",
            self.corruption_catches,
        );
        c(
            "serve_embeddings_total",
            "Embeddings across completed sessions",
            self.total_embeddings,
        );
        c("serve_plan_cache_hits_total", "Tier-1 plan cache hits", self.cache.hits);
        c(
            "serve_plan_cache_misses_total",
            "Tier-1 plan cache misses",
            self.cache.misses,
        );
        c(
            "serve_cst_cache_hits_total",
            "Tier-2 shard-CST cache hits",
            self.cst_cache.hits,
        );
        c(
            "serve_cst_cache_misses_total",
            "Tier-2 shard-CST cache misses",
            self.cst_cache.misses,
        );
        let mut g = |name: &str, help: &str, v: f64| {
            let v = if v.is_finite() { v } else { 0.0 };
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        g("serve_qps", "Completed sessions per second of serving wall", self.qps);
        g(
            "serve_degraded_seconds",
            "Wall seconds on the CPU fallback",
            self.degraded_sec,
        );
        g(
            "serve_cst_resident_bytes",
            "Resident tier-2 payload bytes",
            self.cst_resident_bytes as f64,
        );
        g(
            "serve_max_in_flight",
            "High-water mark of concurrent sessions",
            self.max_in_flight as f64,
        );
        // Cumulative Prometheus histogram of session latency.
        let name = "serve_latency_seconds";
        out.push_str(&format!(
            "# HELP {name} Session latency (submit to done plus modelled device queueing)\n\
             # TYPE {name} histogram\n"
        ));
        for (le, cum) in self.latency_hist.cumulative() {
            let le = if le.is_finite() {
                format!("{le}")
            } else {
                "+Inf".to_string()
            };
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        let sum = self.latency_hist.sum();
        let sum = if sum.is_finite() { sum } else { 0.0 };
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!("{name}_count {}\n", self.latency_hist.count()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Unsorted input is handled.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        // The sort-once path agrees on sorted input.
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
    }

    fn hist_of(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn aggregate_fills_fields() {
        let mut r = ServeReport::default();
        r.aggregate(
            &hist_of(&[1.0, 2.0, 3.0]),
            &hist_of(&[0.5]),
            &hist_of(&[0.1, 0.3]),
            &hist_of(&[0.0, 0.0]),
            &hist_of(&[1.0]),
            &hist_of(&[0.0]),
            &hist_of(&[2.0, 4.0]),
        );
        // Histogram quantiles are bucket-midpoint representatives:
        // assert within the documented ~6% relative error.
        let close = |got: f64, want: f64| (got - want).abs() <= 0.07 * want.max(1e-9);
        assert!(close(r.latency_p50, 2.0), "p50 {}", r.latency_p50);
        assert!((r.latency_mean - 2.0).abs() < 1e-12);
        assert!(close(r.queue_wait_p99, 0.5), "qw p99 {}", r.queue_wait_p99);
        assert!(close(r.device_queue_p99, 0.3), "dq p99 {}", r.device_queue_p99);
        assert!((r.device_queue_mean - 0.2).abs() < 1e-12);
        assert_eq!(r.plan_hit_mean_sec, 0.0);
        assert_eq!(r.plan_miss_mean_sec, 1.0);
        assert_eq!(r.build_hit_mean_sec, 0.0);
        assert_eq!(r.build_miss_mean_sec, 3.0);
        assert_eq!(r.latency_hist.count(), 3);
        assert!(r.is_finite());
    }

    #[test]
    fn empty_aggregate_is_finite() {
        let mut r = ServeReport::default();
        let e = Histogram::new();
        r.aggregate(&e, &e, &e, &e, &e, &e, &e);
        assert!(r.is_finite());
        assert_eq!(r.latency_p99, 0.0);
        assert_eq!(r.device_queue_p50, 0.0);
        r.window = Some(WindowInfo { seq: 3, wall_sec: 0.0 });
        assert!(r.is_finite());
    }

    #[test]
    fn prometheus_text_renders_counters_and_histogram() {
        let mut r = ServeReport {
            submitted: 5,
            completed: 4,
            qps: 12.5,
            ..ServeReport::default()
        };
        let h = hist_of(&[0.001, 0.002, 0.004]);
        r.aggregate(&h, &h, &h, &h, &h, &h, &h);
        let text = r.prometheus_text();
        assert!(text.contains("serve_sessions_submitted_total 5"));
        assert!(text.contains("# TYPE serve_latency_seconds histogram"));
        assert!(text.contains("serve_latency_seconds_count 3"));
        assert!(text.contains("le=\"+Inf\""));
        // Every line is a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }
}
