//! Observability study (`obsfig` figure target): the serving sweep run
//! with tracing **on**, decomposed into pipeline stages from the recorded
//! spans, plus the obs overhead claim.
//!
//! The figure is **self-asserting**:
//!
//! * the Chrome `trace_event` export of both traced arms must
//!   self-validate ([`obs::chrome::validate`]: well-formed JSON, strictly
//!   monotonic per-track timestamps) and every completed session's spans
//!   must nest (`session ⊇ build ⊇ execute`,
//!   [`obs::chrome::check_nesting`]);
//! * tracing must be cheap: on the best of [`OVERHEAD_REPEATS`]
//!   *interleaved* obs-off/obs-on pairs, obs-on throughput must stay
//!   within [`OVERHEAD_BUDGET`] of obs-off (same interleaving rationale
//!   as the `chaos` overhead claim: ambient load hits both arms alike);
//! * the span-derived queue-wait p99 must agree with the report's
//!   histogram-derived `queue_wait_p99` — the trace and the metrics
//!   pipeline measure the same interval through independent paths, so
//!   disagreement beyond histogram bucketing error is a bug.
//!
//! The stage table is the EXPERIMENTS.md §19 artifact: per-stage
//! latency (queue wait, plan, CST build, per-partition execute, whole
//! session) for the cold vs warm serving arms, with the report's devq
//! column alongside for cross-reference.

use crate::figures::serving::{self, LoadConfig, QUERY_MIX};
use crate::harness::DatasetCache;
use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::DatasetId;
use serve::{metrics, FastService, ServeConfig, ServeReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Interleaved obs-off/obs-on pairs the overhead claim measures.
pub const OVERHEAD_REPEATS: usize = 3;

/// Allowed obs-on slowdown: on the best interleaved pair, obs-on
/// throughput must be ≥ `1 - OVERHEAD_BUDGET` of obs-off.
pub const OVERHEAD_BUDGET: f64 = 0.02;

/// Relative tolerance when cross-checking span-derived percentiles
/// against the report's log-bucketed histogram quantiles (bucket
/// midpoints are within ~7% of any sample in the bucket).
const CROSS_CHECK_REL: f64 = 0.15;

/// Per-stage latency decomposition (seconds), cold vs warm arm.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Span name of the stage.
    pub stage: &'static str,
    pub cold_count: usize,
    pub cold_p50: f64,
    pub cold_p99: f64,
    pub warm_count: usize,
    pub warm_p50: f64,
    pub warm_p99: f64,
}

/// One traced serving arm: the report plus its span-derived stage stats.
#[derive(Debug, Clone)]
pub struct TracedArm {
    /// Full service report of the traced run.
    pub report: ServeReport,
    /// Validated Chrome-export stats (non-metadata events, tracks).
    pub trace: obs::chrome::TraceStats,
    /// Stage → sorted span durations in seconds.
    pub stages: BTreeMap<&'static str, Vec<f64>>,
    /// Embeddings per query-mix member — the bit-identity witness.
    pub embeddings: BTreeMap<usize, u64>,
}

/// The figure's full outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub cold: TracedArm,
    pub warm: TracedArm,
    /// Stage rows assembled from the two arms.
    pub rows: Vec<StageRow>,
    /// Best obs-off throughput across the overhead pairs.
    pub off_qps: f64,
    /// Best obs-on throughput across the overhead pairs.
    pub on_qps: f64,
    /// Best per-pair obs-on/obs-off throughput ratio.
    pub best_ratio: f64,
}

/// Stage span names in presentation order.
pub const STAGES: [&str; 5] = ["queue_wait", "plan", "build", "execute", "session"];

/// The serving configuration (mirrors the `serving` figure: FAST-SEP on
/// the experiment-scaled device, auto shard planning, 4 devices).
fn serve_config(clients: usize, cache_capacity: usize) -> ServeConfig {
    let mut fast = FastConfig {
        spec: crate::harness::experiment_spec(),
        ..FastConfig::for_variant(Variant::Sep)
    };
    fast.shard_planner = ShardPlanner::Auto;
    ServeConfig {
        fast,
        devices: 4,
        extra_devices: Vec::new(),
        workers: clients.clamp(1, 8),
        cache_capacity,
        cst_cache_bytes: if cache_capacity == 0 {
            0
        } else {
            ServeConfig::default().cst_cache_bytes
        },
        max_in_flight: (2 * clients).max(1),
        ..ServeConfig::default()
    }
}

fn load(clients: usize, requests_per_client: usize) -> LoadConfig {
    LoadConfig {
        clients,
        requests_per_client,
        seed: 0x0B5F,
        think_mean: Duration::from_micros(200),
    }
}

/// Runs one untraced arm (obs off) and returns its report.
fn run_plain(
    g: &Arc<graph_core::Graph>,
    load: &LoadConfig,
    cache_capacity: usize,
) -> (ServeReport, BTreeMap<usize, u64>) {
    obs::disable();
    let service = FastService::new(Arc::clone(g), serve_config(load.clients, cache_capacity));
    let embeddings = serving::drive(&service, load);
    (service.shutdown(), embeddings)
}

/// Runs one traced arm: obs reset + enabled around the run, then exports
/// and validates the trace and decomposes the spans into stages.
///
/// `strict` demands a quiet process: the obs state is global, so a
/// parallel test binary can interleave *another* obs-enabled service's
/// spans into this arm's trace. The sequential experiments binary runs
/// strict (exact span accounting, nesting, the percentile cross-check);
/// the in-crate test tolerates pollution and skips those checks when
/// the session count doesn't reconcile.
fn run_traced(
    g: &Arc<graph_core::Graph>,
    label: &str,
    load: &LoadConfig,
    cache_capacity: usize,
    strict: bool,
) -> TracedArm {
    obs::reset();
    obs::enable();
    let service = FastService::new(Arc::clone(g), serve_config(load.clients, cache_capacity));
    let embeddings = serving::drive(&service, load);
    let report = service.shutdown();
    obs::disable();

    assert_eq!(report.failed, 0, "{label}: no session may fail");
    let (spans, _events) = obs::trace_snapshot();
    let doc = obs::chrome_trace_json();
    let trace = obs::chrome::validate(&doc)
        .unwrap_or_else(|e| panic!("{label}: chrome export failed validation: {e}"));

    let mut stages: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for stage in STAGES {
        let mut durs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == stage)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        durs.sort_by(f64::total_cmp);
        stages.insert(stage, durs);
    }

    // Exactly-once span accounting, gated on a quiet process (see the
    // function docs): pollution from a concurrent obs-enabled service
    // shows up as extra session spans or dropped records.
    let sessions = stages["session"].len() as u64;
    assert!(
        sessions >= report.completed,
        "{label}: {sessions} session spans for {} completed sessions",
        report.completed
    );
    let quiet = sessions == report.completed && obs::trace_dropped() == 0;
    assert!(
        !strict || quiet,
        "{label}: strict run polluted ({sessions} session spans, {} completed, {} dropped)",
        report.completed,
        obs::trace_dropped()
    );
    if quiet {
        obs::chrome::check_nesting(&spans, &["session", "build", "execute"])
            .unwrap_or_else(|e| panic!("{label}: span nesting violated: {e}"));
        assert_eq!(
            stages["queue_wait"].len() as u64,
            report.completed,
            "{label}: every picked session records a queue_wait span"
        );
        assert_eq!(
            stages["build"].len() as u64,
            report.completed,
            "{label}: every session records a build span (tier-2 replays included)"
        );
        assert!(
            stages["execute"].len() as u64 >= report.completed,
            "{label}: every session executes at least one partition"
        );
        // Cross-check: the queue_wait span measures submit → pickup, the
        // exact interval `queue_waits.record` feeds the report histogram.
        let span_p99 = metrics::percentile_sorted(&stages["queue_wait"], 0.99);
        let hist_p99 = report.queue_wait_p99;
        assert!(
            (span_p99 - hist_p99).abs() <= CROSS_CHECK_REL * span_p99.max(hist_p99) + 50e-6,
            "{label}: span-derived queue-wait p99 {span_p99:.6}s disagrees with \
             histogram p99 {hist_p99:.6}s"
        );
    }
    TracedArm {
        report,
        trace,
        stages,
        embeddings,
    }
}

/// Runs the observability study: traced cold + warm arms (stage
/// decomposition, trace validation) and the interleaved obs-off/obs-on
/// overhead claim on the warm configuration. Strict: the sequential
/// experiments binary — the full acceptance bar (see [`run_with`]).
pub fn run(
    cache: &mut DatasetCache,
    dataset: DatasetId,
    clients: usize,
    requests_per_client: usize,
) -> Outcome {
    run_with(cache, dataset, clients, requests_per_client, true)
}

/// [`run`] with an explicit `strict` flag. Non-strict tolerates a noisy
/// process (a parallel test binary whose other serve-driving tests
/// record into the same global tracer): exact span accounting, nesting,
/// the cross-check, and the overhead bound are skipped when pollution is
/// detected, while trace validity and bit-identical counts still hold.
pub fn run_with(
    cache: &mut DatasetCache,
    dataset: DatasetId,
    clients: usize,
    requests_per_client: usize,
    strict: bool,
) -> Outcome {
    let g = Arc::new(cache.get(dataset).clone());
    let load = load(clients, requests_per_client);

    let cold = run_traced(&g, "cold", &load, 0, strict);
    let warm = run_traced(&g, "warm", &load, 64, strict);
    assert_eq!(
        cold.embeddings, warm.embeddings,
        "tracing or caching changed a count"
    );

    let rows: Vec<StageRow> = STAGES
        .iter()
        .map(|&stage| {
            let c = &cold.stages[stage];
            let w = &warm.stages[stage];
            StageRow {
                stage,
                cold_count: c.len(),
                cold_p50: metrics::percentile_sorted(c, 0.50),
                cold_p99: metrics::percentile_sorted(c, 0.99),
                warm_count: w.len(),
                warm_p50: metrics::percentile_sorted(w, 0.50),
                warm_p99: metrics::percentile_sorted(w, 0.99),
            }
        })
        .collect();

    // The overhead claim: interleaved obs-off/obs-on pairs on the warm
    // configuration; the best per-pair ratio isolates the hooks' own
    // cost from ambient load.
    let mut off_qps = f64::NEG_INFINITY;
    let mut on_qps = f64::NEG_INFINITY;
    let mut best_ratio = f64::NEG_INFINITY;
    for _ in 0..OVERHEAD_REPEATS {
        let (off, off_emb) = run_plain(&g, &load, 64);
        obs::reset();
        obs::enable();
        let service = FastService::new(Arc::clone(&g), serve_config(load.clients, 64));
        let on_emb = serving::drive(&service, &load);
        let on = service.shutdown();
        obs::disable();
        assert_eq!(off_emb, on_emb, "tracing changed a count");
        best_ratio = best_ratio.max(on.qps / off.qps);
        off_qps = off_qps.max(off.qps);
        on_qps = on_qps.max(on.qps);
    }
    obs::reset();
    // The overhead bound is only meaningful in a quiet process: in a
    // parallel test binary the obs-on arm also pays for *other* tests'
    // globally recorded spans, which the obs-off arm does not.
    assert!(
        !strict || best_ratio >= 1.0 - OVERHEAD_BUDGET,
        "obs-on overhead exceeds {:.0}% on every interleaved pair: best on/off QPS \
         ratio {best_ratio:.3} (best off {off_qps:.1} QPS, best on {on_qps:.1} QPS)",
        OVERHEAD_BUDGET * 100.0,
    );

    Outcome {
        cold,
        warm,
        rows,
        off_qps,
        on_qps,
        best_ratio,
    }
}

/// Renders the stage-decomposition table plus the overhead and
/// cross-check footers.
pub fn render(dataset: DatasetId, out: &Outcome) -> String {
    let header: Vec<String> = [
        "stage",
        "cold n",
        "cold p50",
        "cold p99",
        "warm n",
        "warm p50",
        "warm p99",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let ms = |sec: f64| format!("{:.2}ms", sec * 1e3);
    let body: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|r| {
            vec![
                r.stage.to_string(),
                r.cold_count.to_string(),
                ms(r.cold_p50),
                ms(r.cold_p99),
                r.warm_count.to_string(),
                ms(r.warm_p50),
                ms(r.warm_p99),
            ]
        })
        .collect();
    format!(
        "Stage-decomposed serving latency on {dataset} (traced closed loop over q{:?}; \
         spans validated as Chrome trace JSON with strictly monotonic per-track timestamps \
         and session ⊇ build ⊇ execute nesting)\n{}\
         devq cross-reference: cold p50/p99 {}/{}, warm p50/p99 {}/{} (report histograms)\n\
         trace: cold {} events on {} tracks, warm {} events on {} tracks\n\
         obs overhead: best on/off QPS ratio {:.3} (off {:.1}, on {:.1}; budget {:.0}%)\n",
        QUERY_MIX,
        crate::harness::render_table(&header, &body),
        ms(out.cold.report.device_queue_p50),
        ms(out.cold.report.device_queue_p99),
        ms(out.warm.report.device_queue_p50),
        ms(out.warm.report.device_queue_p99),
        out.cold.trace.events,
        out.cold.trace.tracks,
        out.warm.trace.events,
        out.warm.trace.tracks,
        out.best_ratio,
        out.off_qps,
        out.on_qps,
        OVERHEAD_BUDGET * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural slice of the observability bar: valid monotonic Chrome
    /// trace and bit-identical counts with tracing on. Runs non-strict —
    /// the obs state is process-global, so this binary's other
    /// serve-driving tests can pollute the trace and the timing; the
    /// strict bar (exact span accounting, nesting, cross-check, < 2%
    /// overhead) is carried by the sequential CI `obsfig --quick` step.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: six serving arms; covered by the release-mode CI obsfig step"
    )]
    fn traced_serving_is_valid_and_cheap() {
        if !obs::COMPILED {
            return;
        }
        let mut cache = DatasetCache::new();
        let out = run_with(&mut cache, DatasetId::Dg01, 2, 8, false);
        // Trace validity and count identity are asserted inside `run_with`
        // on both arms even when non-strict; re-check headlines here.
        assert_eq!(out.rows.len(), STAGES.len());
        assert!(out.warm.trace.events > 0 && out.warm.trace.tracks > 1);
        assert!(out.cold.report.is_finite() && out.warm.report.is_finite());
        let session = out.rows.iter().find(|r| r.stage == "session").unwrap();
        let build = out.rows.iter().find(|r| r.stage == "build").unwrap();
        assert!(session.cold_p99 >= build.cold_p99, "sessions contain builds");
    }
}
