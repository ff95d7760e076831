//! The serving workloads: closed-loop clients (`serve_*_dg03`) and the
//! fixed window of outstanding sessions (`sessions_10k_tiny`) against one
//! `FastService`.

use crate::mix::MixStream;
use crate::probe::{Layers, Probe};
use crate::spans::SpanLog;
use crate::spec::{Fleet, Shape, Workload, SESSION_WINDOW, SNB_SKEW};
use crate::stats::{median, percentile};
use crate::timed::{Timed, Traced};
use graph_core::{Graph, QueryGraph};
use serve::{FastService, QueryReport, SessionHandle};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Interleaved untraced/traced slice pairs of a traced run.
const PAIRS: usize = 5;

/// Operations whose spans are written to `spans.json` (all operations feed
/// the metrics).
const SPAN_OPS: usize = 2_000;

/// One completed operation of a traced slice, timed by the benchmark on
/// the `obs` clock.
struct Op {
    submit_ns: u64,
    /// When the `submit` call returned.
    submitted_ns: u64,
    done_ns: u64,
    /// `None` if the session failed or was refused.
    report: Option<QueryReport>,
}

/// What one driver thread saw. Untraced runs keep a latency per operation
/// and nothing else, so `peak_rss_mb` is the service's memory and not the
/// benchmark's bookkeeping.
struct Record {
    timed: Timed,
    /// Whole operations, kept by traced slices only.
    ops: Option<Vec<Op>>,
}

impl Record {
    fn new(keep_ops: bool) -> Self {
        Record {
            timed: Timed::default(),
            ops: keep_ops.then(Vec::new),
        }
    }
}

/// A submitted session and when its `submit` call started and returned.
type Pending = (SessionHandle, u64, u64);

/// What the drivers run against.
struct Target<'a> {
    service: &'a FastService,
    queries: &'a [QueryGraph],
    golden: &'a [u64],
}

impl Target<'_> {
    fn submit(&self, query: usize) -> Pending {
        let q = self.queries[query].clone();
        let submit_ns = obs::now_ns();
        let handle = self.service.submit(q);
        (handle, submit_ns, obs::now_ns())
    }

    /// Waits for the session and counts the operation; it fails if it
    /// errored, was refused, or counted anything but the golden count. Its
    /// latency is a sample unless `sampled` is false.
    fn finish(&self, query: usize, pending: Pending, sampled: bool, record: &mut Record) {
        let (handle, submit_ns, submitted_ns) = pending;
        let report = handle.wait().ok();
        let done_ns = obs::now_ns();
        let ok = report.as_ref().map(|r| r.embeddings) == Some(self.golden[query]);
        if sampled {
            record.timed.record((done_ns - submit_ns) as f64 * 1e-9, ok);
        } else {
            record.timed.count(ok);
        }
        if let Some(ops) = &mut record.ops {
            ops.push(Op {
                submit_ns,
                submitted_ns,
                done_ns,
                report,
            });
        }
    }
}

/// Closed loop: each client submits, waits, and submits again with no
/// think time until `duration` has passed.
fn closed_loop(
    target: &Target,
    streams: &mut [MixStream],
    duration: Duration,
    record: &mut Record,
) {
    let start = Instant::now();
    let keep = record.ops.is_some();
    std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                scope.spawn(move || {
                    let mut mine = Record::new(keep);
                    while start.elapsed() < duration {
                        let query = stream.next_query();
                        target.finish(query, target.submit(query), true, &mut mine);
                    }
                    mine
                })
            })
            .collect();
        for client in clients {
            let mine = client.join().expect("client thread panicked");
            record.timed.absorb(mine.timed);
            if let (Some(ops), Some(more)) = (&mut record.ops, mine.ops) {
                ops.extend(more);
            }
        }
    });
    record.timed.wall_s += start.elapsed().as_secs_f64();
}

/// One driver thread keeps `SESSION_WINDOW` sessions outstanding through
/// non-blocking `submit`, waiting on the oldest when the window is full,
/// then drains the window once `duration` has passed.
///
/// The drain collects the newest session first. A session that has
/// completed and not been collected holds about 6 KiB more than one still
/// queued, so what a window of 10,000 costs depends on how far the driver
/// falls behind the executors: the process holds 17 MiB while it keeps up
/// and 78 MiB when every session is complete and none collected. Left to
/// the scheduler, `VmHWM` read 20 MiB in seven runs of ten and 24–52 in the
/// rest, by how long the box happened to stall the driver thread. Waiting
/// on the newest takes every run through the all-complete state, the most
/// the window can cost. Those waits measure the drain order and not the
/// service, so they are counted and verified but are not latency samples.
fn window(target: &Target, duration: Duration, record: &mut Record) {
    let start = Instant::now();
    let mut outstanding = VecDeque::with_capacity(SESSION_WINDOW);
    while start.elapsed() < duration {
        if outstanding.len() == SESSION_WINDOW {
            let oldest = outstanding.pop_front().expect("full window");
            target.finish(0, oldest, true, record);
        }
        outstanding.push_back(target.submit(0));
    }
    while let Some(newest) = outstanding.pop_back() {
        target.finish(0, newest, false, record);
    }
    record.timed.wall_s += start.elapsed().as_secs_f64();
}

/// A workload's driver state: the target plus the clients' mix streams.
struct Driver<'a> {
    target: Target<'a>,
    shape: Shape,
    streams: Vec<MixStream>,
}

impl<'a> Driver<'a> {
    fn new(
        w: &Workload,
        service: &'a FastService,
        queries: &'a [QueryGraph],
        golden: &'a [u64],
        seed: u64,
    ) -> Self {
        let clients = match w.shape {
            Shape::ClosedLoop { clients } => clients,
            _ => 0,
        };
        Driver {
            target: Target {
                service,
                queries,
                golden,
            },
            shape: w.shape,
            streams: (0..clients)
                .map(|c| MixStream::new(&SNB_SKEW, seed, c as u64))
                .collect(),
        }
    }

    /// Drives the service for `seconds`, adding to `record`.
    fn drive(&mut self, seconds: f64, record: &mut Record) {
        let duration = Duration::from_secs_f64(seconds);
        match self.shape {
            Shape::Window => window(&self.target, duration, record),
            _ => closed_loop(&self.target, &mut self.streams, duration, record),
        }
    }
}

/// The untraced timed phase.
pub fn run(w: &Workload, service: &FastService, golden: &[u64], seed: u64, seconds: f64) -> Timed {
    let queries = w.dataset.queries();
    let mut record = Record::new(false);
    Driver::new(w, service, &queries, golden, seed).drive(seconds, &mut record);
    record.timed
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The traced run: `PAIRS` interleaved pairs of an untraced and a traced
/// slice on the same service (their throughput difference is the tracing
/// overhead), per-layer metrics from the traced slices' `QueryReport`s,
/// the window `ServeReport` and the service's own `obs` spans, then the
/// layer probes for the layers this workload's sessions exercise.
pub fn run_traced(
    w: &Workload,
    service: &FastService,
    g: &Graph,
    golden: &[u64],
    seed: u64,
    seconds: f64,
) -> Result<Traced, String> {
    let queries = w.dataset.queries();
    let mut driver = Driver::new(w, service, &queries, golden, seed);
    let mut layers = Layers::default();
    // Start the report window after set-up, so priming's misses are not in
    // the hit rates.
    service.report_window();
    obs::reset();

    let slice = seconds / (2 * PAIRS) as f64;
    let (mut untraced, mut traced) = (Record::new(false), Record::new(true));
    let mut pair_overhead = Vec::new();
    for _ in 0..PAIRS {
        // Both arms of a pair are dealt the same queries in the same order,
        // so their throughputs differ by the tracing and not by the draw.
        let dealt = driver.streams.clone();
        let (off_n, off_s) = (untraced.timed.attempted, untraced.timed.wall_s);
        driver.drive(slice, &mut untraced);
        driver.streams = dealt;
        let off_qps = (untraced.timed.attempted - off_n) as f64 / (untraced.timed.wall_s - off_s);
        let (on_n, on_s) = (traced.timed.attempted, traced.timed.wall_s);
        obs::enable();
        driver.drive(slice, &mut traced);
        obs::disable();
        let on_qps = (traced.timed.attempted - on_n) as f64 / (traced.timed.wall_s - on_s);
        pair_overhead.push(1.0 - on_qps / off_qps);
    }
    let traced_ops = traced.ops.unwrap_or_default();
    let mut timed = traced.timed;
    timed.absorb(untraced.timed);
    let report = service.report_window();
    let (obs_spans, _) = obs::trace_snapshot();

    // Per-session stage times from the reports of the traced slices.
    let reports: Vec<&QueryReport> = traced_ops
        .iter()
        .filter_map(|o| o.report.as_ref())
        .collect();
    if reports.is_empty() {
        return Err(
            "the traced slices completed no session, so there is nothing to measure".into(),
        );
    }
    let column =
        |f: &dyn Fn(&QueryReport) -> f64| -> Vec<f64> { reports.iter().map(|r| f(r)).collect() };
    let plan = column(&|r| secs(r.plan_time));
    let build = column(&|r| secs(r.build_time));
    let queue_wait = column(&|r| secs(r.queue_wait));
    let service_time = column(&|r| secs(r.service_time));
    let shards: f64 = reports.iter().map(|r| r.pipeline_shards as f64).sum();
    let seeded: f64 = reports.iter().map(|r| r.seeded_shards as f64).sum();
    layers.add("cst.planner.plan_p50_s", median(&plan));
    layers.add(
        "cst.planner.plan_share",
        plan.iter().sum::<f64>() / service_time.iter().sum::<f64>(),
    );
    layers.add("cst.pipeline.build_p50_s", median(&build));
    layers.add("cst.pipeline.shards_mean", shards / reports.len() as f64);
    layers.add(
        "cst.pipeline.seeded_share",
        if shards > 0.0 { seeded / shards } else { 0.0 },
    );
    layers.add("serve.service.queue_wait_p50_s", median(&queue_wait));
    layers.add(
        "serve.service.queue_wait_p95_s",
        percentile(&queue_wait, 0.95),
    );
    layers.add("serve.service.service_time_p50_s", median(&service_time));
    let submit_calls: Vec<f64> = traced_ops
        .iter()
        .map(|o| (o.submitted_ns - o.submit_ns) as f64 * 1e-9)
        .collect();
    layers.add("serve.service.submit_call_s", median(&submit_calls));

    // The service's own spans, keyed to operations by session track.
    let mut log = SpanLog::default();
    let mut execute_by_session: HashMap<u64, f64> = HashMap::new();
    let mut execute = Vec::new();
    let kept: HashSet<u64> = reports.iter().take(SPAN_OPS).map(|r| r.id).collect();
    for s in &obs_spans {
        let Some(session) = s.track.checked_sub(obs::SESSION_BASE) else {
            continue;
        };
        if s.name == "execute" {
            let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
            *execute_by_session.entry(session).or_default() += d;
            execute.push(d);
        }
        if kept.contains(&session) {
            log.record(s.name, session, s.start_ns, s.end_ns);
        }
    }
    for o in traced_ops
        .iter()
        .filter(|o| o.report.is_some())
        .take(SPAN_OPS)
    {
        let id = o.report.as_ref().expect("filtered").id;
        log.record("op", id, o.submit_ns, o.done_ns);
        log.record("submit", id, o.submit_ns, o.submitted_ns);
    }
    let self_time: Vec<f64> = reports
        .iter()
        .map(|r| {
            let executing = execute_by_session.get(&r.id).copied().unwrap_or(0.0);
            secs(r.service_time) - secs(r.plan_time) - secs(r.build_time) - executing
        })
        .collect();
    layers.add("serve.service.self_p50_s", median(&self_time));
    layers.add("serve.devices.execute_p50_s", median(&execute));

    // Service-level counters of the window (both arms of every pair).
    layers.add_count("serve.service.max_in_flight", report.max_in_flight);
    layers.add("serve.cache.plan_hit_rate", report.cache.hit_rate());
    layers.add("serve.cache.cst_hit_rate", report.cst_cache.hit_rate());
    layers.add_count("serve.cache.cst_resident_bytes", report.cst_resident_bytes);
    layers.add_count(
        "serve.cache.evictions",
        report.cache.evictions + report.cst_cache.evictions,
    );
    layers.add_count(
        "serve.devices.partitions",
        report.devices.iter().map(|d| d.partitions).sum::<u64>(),
    );
    layers.add("serve.devices.imbalance", report.device_imbalance);
    layers.add(
        "serve.devices.queue_p95_s",
        report.device_queue_hist.quantile(0.95),
    );
    layers.add_count("serve.devices.retries", report.retries);
    layers.add("obs.overhead_share", median(&pair_overhead));
    layers.add_count("obs.spans", obs_spans.len());
    layers.add_count("obs.dropped", obs::trace_dropped());
    obs::reset();

    // Probes of the layers these sessions exercise, weighted by the mix.
    let config = w.serve_config().fast;
    let shares = w.shares();
    let (mut embeddings, mut executing_s, mut partials) = (0u64, 0.0, 0u64);
    for (qi, q) in queries.iter().enumerate() {
        let done = Probe {
            q,
            g,
            config: &config,
            weight: shares[qi],
            op: u64::MAX - qi as u64,
            log: &mut log,
            out: &mut layers,
        }
        .prepared(w.fleet, !w.warm)?;
        timed.count(done.embeddings == golden[qi]);
        embeddings += done.embeddings;
        executing_s += done.seconds;
        partials += done.partials;
    }
    match w.fleet {
        Fleet::Fpga => layers.add(
            "fast.kernel.embeddings_per_s",
            embeddings as f64 / executing_s,
        ),
        Fleet::Cpu => layers.add(
            "matching.engine.partials_per_s",
            partials as f64 / executing_s,
        ),
    }
    Ok(Traced { timed, layers, log })
}
