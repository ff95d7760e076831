//! Observability property tests: under randomized seeded fault schedules
//! the trace and the metrics pipeline must agree **exactly once** — every
//! submission records one `session` span, every counted retry/failover/
//! corruption-catch/quarantine/deadline-shed records one matching trace
//! event, the `serve_*` exposition renders the [`ServeReport`] counts,
//! the device registry counters match the report's, and rolling
//! [`FastService::report_window`] deltas sum bit-exactly back to the
//! lifetime report.
//!
//! The obs state (tracer + registry) is process-global, so every test
//! here serializes on one lock and resets the state around its measured
//! service. Fault strategies never use panic faults: a panicking worker
//! cannot close its session span, which is exactly the one exit path the
//! exactly-once claim excludes.

use fast::{FastConfig, FaultPlan, Variant};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{benchmark_query, Graph};
use proptest::prelude::*;
use serve::{DeviceKind, FastService, FaultPolicy, ServeConfig, ServeError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The serving query mix: hub-dominated (q1, q2) and flat (q0, q4) shapes.
const QUERY_MIX: [usize; 4] = [0, 1, 2, 4];

/// Serializes obs-enabled tests: the tracer and registry are global, so
/// concurrent test threads would interleave spans and counter bumps.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The shared workload graph.
fn workload() -> &'static Arc<Graph> {
    static W: OnceLock<Arc<Graph>> = OnceLock::new();
    W.get_or_init(|| Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42)))
}

/// A random fault schedule — transients, stalls, optional corruption and
/// permanent death, but never panics (see the module docs).
fn arb_plan(corrupt: bool) -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.35,
        0.0f64..0.2,
        0.0f64..0.25,
        (any::<bool>(), 4u64..64),
    )
        .prop_map(
            move |(seed, transient, stall, corrupt_rate, (dies, dies_at))| FaultPlan {
                seed,
                transient_rate: transient,
                stall_rate: stall,
                corrupt_rate: if corrupt { corrupt_rate } else { 0.0 },
                permanent_after: dies.then_some(dies_at),
                panic_after: None,
                slowdown: 1.0,
            },
        )
}

fn faulty(inner: DeviceKind, plan: FaultPlan) -> DeviceKind {
    DeviceKind::Faulty {
        inner: Box::new(inner),
        plan,
    }
}

/// A chaos fleet keeping one unwrapped always-healthy card, corruption on
/// at most one device (the cross-check needs an honest second opinion).
fn fleet(fast: &FastConfig, p0: FaultPlan, p1: FaultPlan) -> Vec<DeviceKind> {
    let fpga = || DeviceKind::Fpga(fast.spec.clone());
    vec![faulty(fpga(), p0), faulty(fpga(), p1), fpga()]
}

fn obs_config(extra: Vec<DeviceKind>) -> ServeConfig {
    let fast = FastConfig::test_small(Variant::Sep);
    ServeConfig {
        fast,
        devices: 0,
        extra_devices: extra,
        workers: 2,
        cst_cache_bytes: 16 << 20,
        max_in_flight: 8,
        fault: FaultPolicy {
            max_attempts: 16,
            cross_check: true,
            cpu_fallback: true,
        },
        ..ServeConfig::default()
    }
}

/// Per-query counts of the mix served untraced on a clean fleet: what
/// tracing must not change. Call with the obs lock held.
fn untraced_counts() -> &'static Vec<u64> {
    static C: OnceLock<Vec<u64>> = OnceLock::new();
    C.get_or_init(|| {
        obs::disable();
        let spec = FastConfig::test_small(Variant::Sep).spec;
        let clean = vec![DeviceKind::Fpga(spec.clone()), DeviceKind::Fpga(spec)];
        let service = FastService::new(Arc::clone(workload()), obs_config(clean));
        let counts = QUERY_MIX
            .iter()
            .map(|&i| {
                service
                    .submit(benchmark_query(i))
                    .wait()
                    .expect("untraced session")
                    .embeddings
            })
            .collect();
        service.shutdown();
        counts
    })
}

/// Current value of a global obs counter (registered on first use).
fn counter(name: &'static str) -> u64 {
    obs::counter(name, "").get()
}

/// The value of the `serve_*` counter `name` in a Prometheus exposition.
fn exposed(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from the exposition"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Exactly-once trace/metrics reconciliation under faults: one
    /// `session` span per submission, one `retry`/`failover`/
    /// `corruption_strike`/`quarantine` event per counted occurrence,
    /// registry counters mirroring the report — and two rolling windows
    /// that sum bit-exactly (integer counters and histogram buckets)
    /// back to the lifetime report. The Chrome export self-validates,
    /// spans nest `session ⊇ build ⊇ execute`, the span-derived queue-wait
    /// p99 agrees with the report's histogram, and both waves (cold, then
    /// cache-warm) count exactly what an untraced service counts.
    #[test]
    fn spans_and_counters_reconcile_exactly_once(
        p0 in arb_plan(true),
        p1 in arb_plan(false),
    ) {
        let _serial = obs_lock();
        let untraced = untraced_counts();
        obs::reset();
        obs::enable();
        let g = workload();
        let service = FastService::new(
            Arc::clone(g),
            obs_config(fleet(&FastConfig::test_small(Variant::Sep), p0, p1)),
        );
        // Two waves with a window boundary between them; every handle is
        // waited, and `finish` folds metrics *before* the Done event is
        // sent, so the window after the wave covers exactly that wave.
        let wave = || -> Vec<u64> {
            QUERY_MIX
                .map(|i| service.submit(benchmark_query(i)))
                .into_iter()
                .map(|h| h.wait().expect("chaos session completes").embeddings)
                .collect()
        };
        let counts0 = wave();
        let w0 = service.report_window();
        let counts1 = wave();
        let w1 = service.report_window();
        let text = service.prometheus_text();
        let life = service.shutdown();
        obs::disable();

        prop_assert_eq!(&counts0, untraced, "tracing changed a cold count");
        prop_assert_eq!(&counts1, untraced, "tracing changed a warm count");

        prop_assert_eq!(life.failed, 0, "no session may fail under the schedule");
        prop_assert_eq!(life.deadline_misses, 0);
        prop_assert_eq!(obs::trace_dropped(), 0, "trace buffer overflowed");
        let (spans, events) = obs::trace_snapshot();
        let nspan = |n: &str| spans.iter().filter(|s| s.name == n).count() as u64;
        let nev = |n: &str| events.iter().filter(|e| e.name == n).count() as u64;

        // Span accounting: every submission was picked up and closed.
        prop_assert_eq!(nspan("session"), life.submitted);
        prop_assert_eq!(nspan("queue_wait"), life.submitted);
        prop_assert_eq!(nspan("build"), life.completed, "one build span per completed session");
        prop_assert!(nspan("execute") >= life.completed, "each session executes ≥ 1 partition");

        // The Chrome export self-validates (well-formed, strictly monotonic
        // per track) and every completed session's spans nest.
        let trace = obs::chrome::validate(&obs::chrome_trace_json());
        prop_assert!(trace.is_ok(), "chrome export failed validation: {:?}", trace.err());
        let trace = trace.unwrap();
        prop_assert!(trace.events > 0 && trace.tracks > 1);
        let nesting = obs::chrome::check_nesting(&spans, &["session", "build", "execute"]);
        prop_assert!(nesting.is_ok(), "span nesting violated: {:?}", nesting.err());

        // The queue_wait span and the report's histogram time the same
        // submit → pickup interval through separate clock reads: their
        // p99s agree within the histogram's bucketing error.
        let mut waits: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "queue_wait")
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        waits.sort_by(f64::total_cmp);
        let span_p99 = serve::metrics::percentile_sorted(&waits, 0.99);
        let hist_p99 = life.queue_wait_hist.quantile(0.99);
        prop_assert!(
            (span_p99 - hist_p99).abs() <= 0.15 * span_p99.max(hist_p99) + 50e-6,
            "span-derived queue-wait p99 {}s disagrees with histogram p99 {}s",
            span_p99,
            hist_p99
        );

        // Event accounting: exactly one trace event per counted fault.
        prop_assert_eq!(nev("retry"), life.retries);
        prop_assert_eq!(nev("failover"), life.failovers);
        prop_assert_eq!(nev("corruption_strike"), life.corruption_catches);
        prop_assert_eq!(nev("quarantine"), life.quarantines);
        prop_assert_eq!(nev("deadline_shed"), 0);

        // The exposition renders the report's counts; the device registry
        // counter matches the report.
        prop_assert_eq!(exposed(&text, "serve_sessions_submitted_total"), life.submitted);
        prop_assert_eq!(exposed(&text, "serve_sessions_completed_total"), life.completed);
        prop_assert_eq!(exposed(&text, "serve_sessions_failed_total"), life.failed);
        prop_assert_eq!(exposed(&text, "serve_deadline_misses_total"), life.deadline_misses);
        prop_assert_eq!(exposed(&text, "serve_retries_total"), life.retries);
        prop_assert_eq!(exposed(&text, "serve_failovers_total"), life.failovers);
        prop_assert_eq!(exposed(&text, "serve_corruption_catches_total"), life.corruption_catches);
        prop_assert_eq!(counter("obs_quarantines_total"), life.quarantines);

        // The two windows partition the lifetime: integer counters and
        // histogram bucket counts reconcile bit-exactly.
        prop_assert_eq!(w0.window.unwrap().seq, 0);
        prop_assert_eq!(w1.window.unwrap().seq, 1);
        prop_assert!(w0.is_finite() && w1.is_finite() && life.is_finite());
        prop_assert_eq!(w0.submitted + w1.submitted, life.submitted);
        prop_assert_eq!(w0.completed + w1.completed, life.completed);
        prop_assert_eq!(w0.retries + w1.retries, life.retries);
        prop_assert_eq!(w0.failovers + w1.failovers, life.failovers);
        prop_assert_eq!(
            w0.corruption_catches + w1.corruption_catches,
            life.corruption_catches
        );
        prop_assert_eq!(w0.quarantines + w1.quarantines, life.quarantines);
        prop_assert_eq!(
            w0.total_embeddings + w1.total_embeddings,
            life.total_embeddings
        );
        prop_assert_eq!(w0.cst_cache.hits + w1.cst_cache.hits, life.cst_cache.hits);
        prop_assert_eq!(
            w0.latency_hist.count() + w1.latency_hist.count(),
            life.latency_hist.count()
        );
        let mut merged = w0.latency_hist.clone();
        merged.merge(&w1.latency_hist);
        prop_assert_eq!(
            merged.cumulative(),
            life.latency_hist.cumulative(),
            "window histograms must merge back to the lifetime buckets"
        );
        let mut qmerged = w0.queue_wait_hist.clone();
        qmerged.merge(&w1.queue_wait_hist);
        prop_assert_eq!(qmerged.cumulative(), life.queue_wait_hist.cumulative());
        obs::reset();
    }

    /// Deadline sheds reconcile too: a zero budget sheds every session
    /// with one `deadline_shed` event and one closed `session` span each,
    /// rendered by the exposition.
    #[test]
    fn deadline_sheds_reconcile(p0 in arb_plan(false)) {
        let _serial = obs_lock();
        obs::reset();
        obs::enable();
        let g = workload();
        let mut config = obs_config(fleet(&FastConfig::test_small(Variant::Sep), p0.clone(), p0));
        config.deadline = Some(Duration::ZERO);
        let service = FastService::new(Arc::clone(g), config);
        for &i in &QUERY_MIX {
            let err = service.submit(benchmark_query(i)).wait().unwrap_err();
            prop_assert_eq!(err, ServeError::DeadlineExceeded);
        }
        let text = service.prometheus_text();
        let life = service.shutdown();
        obs::disable();

        prop_assert_eq!(life.deadline_misses, QUERY_MIX.len() as u64);
        prop_assert_eq!(obs::trace_dropped(), 0);
        let (spans, events) = obs::trace_snapshot();
        let sheds = events.iter().filter(|e| e.name == "deadline_shed").count() as u64;
        prop_assert_eq!(sheds, life.deadline_misses);
        let sessions = spans.iter().filter(|s| s.name == "session").count() as u64;
        prop_assert_eq!(sessions, life.submitted, "shed sessions still close their span");
        prop_assert_eq!(exposed(&text, "serve_deadline_misses_total"), life.deadline_misses);
        prop_assert_eq!(exposed(&text, "serve_sessions_completed_total"), 0);
        obs::reset();
    }
}

/// An FPGA `execute` span says why its partition cost what it did: the
/// kernel's `N`, `M`, rounds and both rejection counts ride along with the
/// embeddings and cycles, equal to the `KernelOutput` of the same run.
#[test]
fn fpga_execute_span_carries_the_kernel_counters() {
    use fast::{prepare_partitions, ExecutionBackend, FpgaBackend, KernelPlan, QueryCtx};
    use graph_core::{path_based_order, select_root, BfsTree};

    let _serial = obs_lock();
    let g = workload();
    let q = benchmark_query(2);
    let config = FastConfig::test_small(Variant::Sep);
    let tree = BfsTree::new(&q, select_root(&q, g));
    let order = path_based_order(&q, &tree, g);
    let kernel_plan = KernelPlan::new(&q, &order, &tree).expect("benchmark query fits the kernel");
    let ctx = QueryCtx {
        query: &q,
        graph: g,
        order: &order,
        kernel_plan: &kernel_plan,
        collect: config.collect,
    };
    let backend = FpgaBackend::from_config(&config);
    let mut jobs = Vec::new();
    prepare_partitions(&q, g, &config, &tree, &order, &mut |job| jobs.push(job));

    obs::reset();
    obs::enable();
    for job in &jobs {
        backend.execute(job, &ctx).expect("fault-free backend");
    }
    obs::disable();
    let (spans, _) = obs::trace_snapshot();
    let executes: Vec<_> = spans.iter().filter(|s| s.name == "execute").collect();
    assert_eq!(executes.len(), jobs.len());
    assert!(!jobs.is_empty());
    for (span, job) in executes.iter().zip(&jobs) {
        let arg = |key: &str| match span.args.iter().find(|(k, _)| *k == key) {
            Some((_, obs::ArgValue::U64(v))) => *v,
            other => panic!("execute span arg {key}: {other:?}"),
        };
        let out = backend.run(&job.cst, &kernel_plan, config.collect);
        assert_eq!(arg("partition"), job.index as u64);
        assert_eq!(arg("embeddings"), out.embeddings);
        assert_eq!(arg("n"), out.counts.n);
        assert_eq!(arg("m"), out.counts.m);
        assert_eq!(arg("rounds"), out.rounds);
        assert_eq!(arg("visited_rejections"), out.visited_rejections);
        assert_eq!(arg("edge_rejections"), out.edge_rejections);
    }
}
