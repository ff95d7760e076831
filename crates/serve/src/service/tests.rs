use super::*;
use crate::reporting::assemble_report;
use fast::{BackendOutput, ExecutionBackend, PartitionJob, QueryCtx, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::Label;
use std::sync::mpsc;

fn small_config() -> ServeConfig {
    ServeConfig {
        fast: FastConfig::test_small(Variant::Sep),
        devices: 2,
        extra_devices: Vec::new(),
        workers: 2,
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
    let handles: Vec<SessionHandle> = (0..6).map(|_| service.submit(triangle())).collect();
    let reports: Vec<QueryReport> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    let first = reports[0].embeddings;
    assert!(reports.iter().all(|r| r.embeddings == first));
    assert!(reports.iter().all(|r| r.tenant == TenantId::DEFAULT));
    let final_report = service.shutdown();
    assert_eq!(final_report.completed, 6);
    assert_eq!(final_report.failed, 0);
    // Six submissions of one query: at least the non-concurrent
    // repeats hit (the first few may race the first insertion).
    assert!(
        final_report.cst_cache.hits >= 1,
        "{:?}",
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
fn zero_budgets_are_typed_config_errors() {
    let g = Arc::new(random_labelled_graph(20, 0.2, 1, 45));
    let refused = |config: ServeConfig| {
        let err = FastService::try_new(Arc::clone(&g), config).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)), "{err}");
        err.to_string()
    };
    let mut config = small_config();
    config.fast.spec.no = 0;
    assert!(refused(config).contains("N_o"));
    // A zero-budget card anywhere in the fleet, wrapped or not.
    let mut spec = small_config().fast.spec;
    spec.no = 0;
    let mut config = small_config();
    config.extra_devices = vec![DeviceKind::Faulty {
        inner: Box::new(DeviceKind::Fpga(spec)),
        plan: fast::FaultPlan::default(),
    }];
    assert!(refused(config).contains("N_o"));
    let mut config = small_config();
    config.workers = 0;
    assert!(refused(config).contains("executor"));
    let mut config = small_config();
    config.max_in_flight = 0;
    assert!(refused(config).contains("in-flight"));
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
        .add_tenant(
            gb,
            TenantConfig {
                quota: 3,
                ..TenantConfig::default()
            },
        )
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
    assert!(warm.cst_cache_hit, "sequential repeat should hit");
    assert_eq!(warm.build_time, Duration::ZERO, "hits build nothing");
    assert_eq!(warm.topdown_entries, 0);
    assert_eq!(service.bump_epoch(TenantId::DEFAULT).unwrap(), 1);
    let r = service.submit(triangle()).wait().unwrap();
    assert!(!r.cst_cache_hit, "epoch bump must invalidate the cache");
    service.shutdown();
}

#[test]
fn a_hit_derives_nothing_and_builds_nothing() {
    let g = random_labelled_graph(60, 0.2, 2, 47);
    let service = FastService::new(g, small_config());
    let cold = service.submit(triangle()).wait().unwrap();
    assert!(!cold.cst_cache_hit);
    assert!(cold.plan_time > Duration::ZERO, "the miss derived its plan");
    assert!(cold.build_time > Duration::ZERO, "the miss built");
    let warm = service.submit(triangle()).wait().unwrap();
    assert!(warm.cst_cache_hit);
    assert_eq!(warm.plan_time, Duration::ZERO, "a hit derives nothing");
    assert_eq!(warm.build_time, Duration::ZERO, "a hit builds nothing");
    assert_eq!(warm.topdown_entries, 0);
    assert_eq!(
        (warm.embeddings, warm.partitions, warm.kernel_cycles),
        (cold.embeddings, cold.partitions, cold.kernel_cycles)
    );
    service.shutdown();
}

#[test]
fn the_same_edges_listed_in_another_order_hit() {
    let g = random_labelled_graph(60, 0.2, 2, 49);
    let service = FastService::new(g, small_config());
    let cold = service.submit(triangle()).wait().unwrap();
    // The triangle's labels and edges, each edge listed in another order
    // and orientation.
    let relisted = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(2, 0), (2, 1), (1, 0)],
    )
    .unwrap();
    let warm = service.submit(relisted).wait().unwrap();
    assert!(!cold.cst_cache_hit);
    assert!(warm.cst_cache_hit, "the same labelled edge set hits");
    assert_eq!(warm.embeddings, cold.embeddings);
    let report = service.shutdown();
    assert_eq!(report.cst_cache.insertions, 1);
}

#[test]
fn foreign_shaped_artifact_under_the_same_key_is_ignored() {
    let g = random_labelled_graph(60, 0.2, 2, 48);
    let square = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(0), Label::new(1)],
        &[(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    .unwrap();
    let oracle = FastService::new(g.clone(), small_config());
    let expected = oracle.submit(triangle()).wait().unwrap().embeddings;
    oracle.shutdown();

    let service = FastService::new(g.clone(), small_config());
    let tenant = Arc::clone(&service.inner.default_tenant);
    let key_of = |q: &QueryGraph| {
        let options = service.inner.config.fast.cst_options;
        PlanKey::derive(q, &options, tenant.epoch.load(Ordering::Relaxed))
    };
    // Serve the 4-vertex query, then plant its entry under the
    // triangle's key — what a key collision would look like.
    service.submit(square.clone()).wait().unwrap();
    let foreign = tenant
        .cst_cache
        .plock()
        .get(&key_of(&square))
        .expect("captured");
    assert!(!foreign.stream.matches_query(&triangle()));
    let key = key_of(&triangle());
    let weight = foreign.stream.payload_bytes();
    tenant.cst_cache.plock().insert(key, foreign, weight);

    let rebuilt = service.submit(triangle()).wait().unwrap();
    assert!(!rebuilt.cst_cache_hit, "a foreign shape is not a hit");
    assert_eq!(rebuilt.embeddings, expected);
    assert!(rebuilt.build_time > Duration::ZERO, "the session rebuilt");
    // The rebuild's insert replaced the entry: the next serve is warm.
    let replaced = tenant.cst_cache.plock().get(&key).expect("replaced");
    assert!(replaced.stream.matches_query(&triangle()));
    let warm = service.submit(triangle()).wait().unwrap();
    assert!(warm.cst_cache_hit);
    assert_eq!(warm.embeddings, expected);
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
    m.build_misses.record(0.0);
    let pool = DevicePool::build(&small_config().fast, 1, &[]).unwrap();
    let totals = Totals {
        metrics: m,
        devices: pool.snapshot(),
        max_in_flight: 1,
        ..Totals::default()
    };
    let r = assemble_report(totals, Vec::new());
    assert!(r.is_finite(), "zero-wall report must stay finite: {r:?}");
    assert_eq!(r.qps, 0.0, "zero wall yields zero QPS, not inf/NaN");
    assert_eq!(r.wall_sec, 0.0);
    assert_eq!(
        r.device_imbalance, 1.0,
        "idle pool is balanced by definition"
    );
}

#[test]
fn window_deltas_reconcile_with_lifetime_report() {
    let g = random_labelled_graph(60, 0.2, 2, 47);
    let service = FastService::new(g, small_config());
    for h in (0..3)
        .map(|_| service.submit(triangle()))
        .collect::<Vec<_>>()
    {
        h.wait().unwrap();
    }
    // `finish` folds metrics before the Done event is sent, so a
    // window taken after `wait` returns covers those sessions.
    let w0 = service.report_window();
    assert_eq!(w0.window.unwrap().seq, 0);
    assert!(w0.tenants.is_empty(), "windows slice time, not tenants");
    for h in (0..3)
        .map(|_| service.submit(triangle()))
        .collect::<Vec<_>>()
    {
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
    assert_eq!(w0.cst_cache.hits + w1.cst_cache.hits, life.cst_cache.hits);
}

/// A running sum of window reports: every integer counter, in a fixed
/// order, and the three histograms merged.
#[derive(Default)]
struct WindowSum {
    counters: Vec<u64>,
    latency: obs::Histogram,
    queue_wait: obs::Histogram,
    device_queue: obs::Histogram,
}

impl WindowSum {
    fn counters(r: &ServeReport) -> Vec<u64> {
        let c = &r.cst_cache;
        let mut v = vec![
            r.submitted,
            r.completed,
            r.failed,
            r.deadline_misses,
            r.retries,
            r.failovers,
            r.quarantines,
            r.corruption_catches,
            r.total_embeddings,
            c.hits,
            c.misses,
            c.insertions,
            c.evictions,
            c.rejected,
        ];
        for d in &r.devices {
            v.extend([
                d.partitions,
                d.cycles,
                d.failures,
                d.corruptions,
                d.quarantines,
            ]);
        }
        v
    }

    fn of(r: &ServeReport) -> Self {
        WindowSum {
            counters: Self::counters(r),
            latency: r.latency_hist.clone(),
            queue_wait: r.queue_wait_hist.clone(),
            device_queue: r.device_queue_hist.clone(),
        }
    }

    fn merge(&mut self, other: &WindowSum) {
        let len = self.counters.len().max(other.counters.len());
        self.counters.resize(len, 0);
        for (sum, x) in self.counters.iter_mut().zip(&other.counters) {
            *sum += x;
        }
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.device_queue.merge(&other.device_queue);
    }

    /// Asserts the sum equals `life` on every integer counter and every
    /// bucket count.
    fn assert_matches(&self, life: &ServeReport) {
        assert_eq!(self.counters, Self::counters(life), "integer counters");
        assert_eq!(self.latency.cumulative(), life.latency_hist.cumulative());
        assert_eq!(
            self.queue_wait.cumulative(),
            life.queue_wait_hist.cumulative()
        );
        assert_eq!(
            self.device_queue.cumulative(),
            life.device_queue_hist.cumulative()
        );
    }
}

/// Windows pulled by four threads at once while sessions run still
/// partition the lifetime: summed over every window they equal the
/// lifetime report on every integer counter and every bucket count, and
/// their sequence numbers are each taken once.
#[test]
fn concurrent_windows_reconcile_with_lifetime_report() {
    let g = random_labelled_graph(60, 0.2, 2, 47);
    let service = FastService::new(g, small_config());
    let running = AtomicBool::new(true);
    let pulled: Vec<(WindowSum, Vec<u64>)> = std::thread::scope(|scope| {
        let pollers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let (mut sum, mut seqs) = (WindowSum::default(), Vec::new());
                    while running.load(Ordering::Acquire) {
                        let w = service.report_window();
                        seqs.push(w.window.expect("a window report").seq);
                        sum.merge(&WindowSum::of(&w));
                    }
                    (sum, seqs)
                })
            })
            .collect();
        for _ in 0..8 {
            let handles: Vec<_> = (0..8).map(|_| service.submit(triangle())).collect();
            for h in handles {
                h.wait().unwrap();
            }
        }
        running.store(false, Ordering::Release);
        pollers.into_iter().map(|p| p.join().unwrap()).collect()
    });
    let last = service.report_window();
    let life = service.shutdown();
    assert_eq!(life.completed, 64);
    let mut total = WindowSum::of(&last);
    let mut seqs = vec![last.window.unwrap().seq];
    for (sum, mine) in &pulled {
        total.merge(sum);
        seqs.extend(mine);
    }
    seqs.sort_unstable();
    assert!(
        seqs.iter().copied().eq(0..seqs.len() as u64),
        "each seq once"
    );
    total.assert_matches(&life);
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
    // handle ever sees its mailbox close without a final event.
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
    let err = service
        .submit_for(strict, triangle())
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);
    let slice = service.tenant_report(strict).unwrap();
    assert_eq!(slice.deadline_misses, 1);
    assert_eq!(
        service
            .tenant_report(TenantId::DEFAULT)
            .unwrap()
            .deadline_misses,
        0
    );
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
    assert!(
        reports.iter().all(|r| r.embeddings == want),
        "bit-identical"
    );
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
    assert!(
        report.quarantines >= 1,
        "an always-failing device quarantines"
    );
    assert_eq!(
        report.devices[1].failures, 0,
        "the clean device never fails"
    );
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
    assert_eq!(
        report.devices[0].health,
        crate::devices::HealthState::Evicted
    );
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
    let handles: Vec<SessionHandle> = (0..8).map(|_| service.submit(triangle())).collect();
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
    let handles: Vec<SessionHandle> = (0..8).map(|_| service.submit(triangle())).collect();
    for h in handles {
        let r = h.wait().unwrap();
        assert!(r.partitions >= 2, "need a multi-partition session: {r:?}");
        assert_eq!(
            r.completion_seq, r.id,
            "completion order is submission order"
        );
    }
    service.shutdown();
}

/// An FPGA backend whose calls announce themselves and then block
/// until the test releases them — the handle that lets a test hold a
/// partition in flight while wall time passes.
struct GatedBackend {
    inner: fast::FpgaBackend,
    entered: mpsc::Sender<()>,
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
        let _ = self.entered.send(());
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
        entered: entered_tx,
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

/// A session that queues behind another's partition on the modelled card
/// still reports its measured wall as its latency: exactly queue wait plus
/// service time, with the modelled queue reported beside it.
#[test]
fn latency_is_the_measured_wall_while_the_device_queues() {
    let g = random_labelled_graph(60, 0.25, 2, 59);
    let mut config = small_config();
    config.workers = 2;
    config.devices = 1;
    let service = FastService::new(g, config.clone());
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let gated = GatedBackend {
        inner: fast::FpgaBackend::from_config(&config.fast),
        entered: entered_tx,
        release: Mutex::new(release_rx),
    };
    *service.inner.devices.plock() = DevicePool::new(vec![Arc::new(gated)]).unwrap();

    // Session A's first partition holds its booking on the one card, so
    // session B's first partition is admitted behind it.
    let a = service.submit(triangle());
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("session A's first partition never started");
    let b = service.submit(triangle());
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("session B's first partition never started");
    drop(release_tx);

    let reports = [a.wait().unwrap(), b.wait().unwrap()];
    assert!(
        reports[1].device_queue_sec > 0.0,
        "B joined behind A's booking"
    );
    for r in &reports {
        assert_eq!(r.latency, r.queue_wait + r.service_time, "{r:?}");
    }
    let life = service.shutdown();
    assert_eq!(life.latency_hist.count(), 2);
    assert!(life.device_queue_hist.sum() >= reports[1].device_queue_sec);
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

/// A session's mailbox contract, end to end: every partition event in
/// order, the final event last, then `None` for good.
#[test]
fn mailbox_delivers_in_order_and_ends_after_the_final_event() {
    let g = random_labelled_graph(60, 0.25, 2, 58);
    let service = FastService::new(g, small_config());
    let handle = service.submit(triangle());
    let mut events = Vec::new();
    while let Some(event) = handle.next_event() {
        events.push(event);
    }
    let Some((SessionEvent::Done(report), partitions)) = events.split_last() else {
        panic!("the final event must be Done: {events:?}");
    };
    assert!(report.partitions >= 2, "need a multi-partition session");
    assert_eq!(partitions.len(), report.partitions);
    for (i, event) in partitions.iter().enumerate() {
        assert!(
            matches!(event, SessionEvent::Partition(u) if u.index == i),
            "event {i} out of order: {event:?}"
        );
    }
    assert!(handle.next_event().is_none());
    service.shutdown();
}

/// A sender dropped without a final event — the slot of a session whose
/// task panicked — makes `wait()` return `Disconnected`, after whatever
/// was sent before.
#[test]
fn mailbox_of_a_panicked_session_waits_disconnected() {
    let (tx, rx) = mailbox();
    let handle = SessionHandle {
        id: 0,
        tenant: TenantId::DEFAULT,
        rx,
    };
    let task = std::thread::spawn(move || {
        tx.send(SessionEvent::Partition(PartitionUpdate {
            index: 0,
            device: 0,
            backend: BackendClass::Fpga,
            embeddings: 1,
            kernel_cycles: 1,
            modeled_sec: 0.0,
            collected: Vec::new(),
        }));
        panic!("injected task panic");
    });
    assert!(task.join().is_err());
    assert!(matches!(
        handle.next_event(),
        Some(SessionEvent::Partition(_))
    ));
    assert_eq!(handle.wait().unwrap_err(), ServeError::Disconnected);
}

/// A queued session shed at shutdown resolves with `ShuttingDown`.
#[test]
fn mailbox_of_a_shed_session_waits_shutting_down() {
    let service = FastService::new(random_labelled_graph(60, 0.25, 2, 43), small_config());
    let id = service.inner.next_id.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mailbox();
    let handle = SessionHandle {
        id,
        tenant: TenantId::DEFAULT,
        rx,
    };
    let sub = Submission {
        id,
        tenant: Arc::clone(&service.inner.default_tenant),
        query: triangle(),
        submitted: Instant::now(),
        submitted_ns: 0,
        tx,
    };
    shed_for_shutdown(&service.inner, sub);
    assert_eq!(handle.wait().unwrap_err(), ServeError::ShuttingDown);
    assert_eq!(service.shutdown().failed, 1);
}

/// A session whose handle is dropped mid-session stops at its next
/// transition: the partition in flight finishes, no later partition
/// executes (or books a device), and the session retires as failed with
/// its permit and slab entry released.
#[test]
fn dropped_handle_stops_its_session() {
    let g = random_labelled_graph(60, 0.25, 2, 59);
    let mut config = small_config();
    config.workers = 1;
    config.devices = 1;
    let ungated = FastService::new(g.clone(), config.clone());
    let partitions = ungated.submit(triangle()).wait().unwrap().partitions;
    ungated.shutdown();
    assert!(
        partitions >= 2,
        "need a multi-partition session: {partitions}"
    );

    let service = FastService::new(g, config.clone());
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let gated = GatedBackend {
        inner: fast::FpgaBackend::from_config(&config.fast),
        entered: entered_tx,
        release: Mutex::new(release_rx),
    };
    *service.inner.devices.plock() = DevicePool::new(vec![Arc::new(gated)]).unwrap();

    let handle = service.submit(triangle());
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("first partition never started");
    drop(handle);
    drop(release_tx);

    let inner = Arc::clone(&service.inner);
    let report = service.shutdown();
    assert!(
        entered_rx.try_recv().is_err(),
        "no partition may start after the handle is dropped"
    );
    assert_eq!(report.failed, 1);
    assert_eq!(report.completed, 0);
    let gate = inner.gate.plock();
    assert_eq!((gate.in_flight, gate.admitted), (0, 0), "permits released");
    assert!(inner.sessions.plock().is_empty(), "slab entry released");
}

/// Once its handle is dropped, a session's events are thrown away as they
/// arrive: after the session retires, its mailbox holds no event storage
/// and no sender.
#[test]
fn dropped_handle_retains_nothing() {
    let service = FastService::new(random_labelled_graph(60, 0.25, 2, 58), small_config());
    let handle = service.submit(triangle());
    let mailbox = Arc::clone(&handle.rx);
    drop(handle);
    let report = service.shutdown();
    assert_eq!(report.completed + report.failed, 1);
    assert_eq!(Arc::strong_count(&mailbox), 1, "the sender is gone");
    assert_eq!(mailbox.retained_bytes(), 0);
}

/// A session that completed but was not collected holds its own events
/// only: a queue sized to them, not a fixed block of slots.
#[test]
fn uncollected_session_retains_only_its_own_events() {
    let mut config = small_config();
    config.workers = 1;
    // A few root chunks, as the tiny benchmark sessions have: a handful of
    // events, where a fixed 31-slot block would be mostly empty.
    config.fast.pipeline_shards = Some(3);
    let service = FastService::new(random_labelled_graph(60, 0.25, 2, 58), config);
    let first = service.submit(triangle());
    // One executor completes sessions in submission order: once the
    // second is done, the first has sent every event it will send.
    service.submit(triangle()).wait().unwrap();
    let retained = first.rx.retained_bytes();
    let mut events = 0usize;
    while first.next_event().is_some() {
        events += 1;
    }
    let slot = std::mem::size_of::<SessionEvent>();
    assert!(events >= 3, "need a multi-partition session");
    assert!(retained >= events * slot);
    assert!(
        retained <= events.next_power_of_two().max(4) * slot,
        "{retained} bytes held for {events} events"
    );
    service.shutdown();
}
