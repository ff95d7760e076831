//! Fault-tolerance chaos study (`chaos` figure target): the same warm
//! serving workload run on four fleets — clean, fault-wrapped with a
//! zero-rate schedule (injection overhead), a moderate seeded fault mix
//! (transients + stalls + silent corruption), and a heavy mix including a
//! device that dies permanently mid-run.
//!
//! The figure is **self-asserting**: every arm's per-query embedding
//! counts must be fingerprint-equal to the clean arm (faults may cost
//! retries, never answers), no session may fail, retry accounting must
//! reconcile exactly against the per-device failure counters, and the
//! zero-rate wrapped arm must stay within **2%** of the clean arm's
//! throughput on the best of `OVERHEAD_REPEATS` *interleaved*
//! clean/wrapped pairs — the fault path is free when nothing faults.
//! (Interleaving means ambient load from parallel test binaries or CI
//! neighbours hits both arms alike instead of landing on one block.)
//! A failed claim aborts the figure, so a green `chaos` run *is* the
//! fault-tolerance correctness certificate.

use crate::harness::DatasetCache;
use fast::{FastConfig, FaultPlan, Variant};
use graph_core::{benchmark_query, DatasetId};
use serve::{DeviceKind, FastService, FaultPolicy, ServeConfig, ServeReport};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The repeated query mix (shared with the serving studies).
pub const QUERY_MIX: [usize; 4] = [0, 1, 2, 4];

/// Interleaved clean/wrapped pairs the overhead claim measures.
pub const OVERHEAD_REPEATS: usize = 3;

/// Allowed fault-free slowdown of the wrapped zero-rate arm: on the best
/// interleaved pair its throughput must be ≥ `1 - OVERHEAD_BUDGET` of the
/// clean arm's.
pub const OVERHEAD_BUDGET: f64 = 0.02;

/// One fleet arm of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// Human label of the arm.
    pub label: &'static str,
    /// Full service report (best-of-N by QPS for the overhead arms).
    pub report: ServeReport,
    /// Embeddings per query-mix member — the bit-identity witness.
    pub embeddings: BTreeMap<usize, u64>,
}

fn fpga(fast: &FastConfig) -> DeviceKind {
    DeviceKind::Fpga(fast.spec.clone())
}

fn wrap(inner: DeviceKind, plan: FaultPlan) -> DeviceKind {
    DeviceKind::Faulty {
        inner: Box::new(inner),
        plan,
    }
}

fn serve_config(clients: usize, extra: Vec<DeviceKind>, cross_check: bool) -> ServeConfig {
    let fast = FastConfig {
        spec: crate::harness::experiment_spec(),
        ..FastConfig::for_variant(Variant::Sep)
    };
    ServeConfig {
        fast,
        devices: 0,
        extra_devices: extra,
        workers: clients.clamp(1, 8),
        cache_capacity: 64,
        cst_cache_bytes: ServeConfig::default().cst_cache_bytes,
        max_in_flight: (2 * clients).max(1),
        fault: FaultPolicy {
            max_attempts: 16,
            cross_check,
            cpu_fallback: true,
        },
        ..ServeConfig::default()
    }
}

/// Runs one arm once: a sequential cold pass over the distinct mix
/// (fingerprints), then `clients` closed-loop clients × `requests` warm
/// submissions round-robin over the mix. Panics if any session fails or
/// any count diverges from the cold fingerprint.
fn run_once(
    g: &Arc<graph_core::Graph>,
    label: &'static str,
    extra: Vec<DeviceKind>,
    cross_check: bool,
    clients: usize,
    requests_per_client: usize,
) -> (ServeReport, BTreeMap<usize, u64>) {
    let service = FastService::new(Arc::clone(g), serve_config(clients, extra, cross_check));
    let mut fingerprint: BTreeMap<usize, u64> = BTreeMap::new();
    for &qi in &QUERY_MIX {
        let report = service
            .submit(benchmark_query(qi))
            .wait()
            .expect("cold session");
        fingerprint.insert(qi, report.embeddings);
    }
    std::thread::scope(|scope| {
        for c in 0..clients {
            let service = &service;
            let fingerprint = &fingerprint;
            scope.spawn(move || {
                for r in 0..requests_per_client {
                    let qi = QUERY_MIX[(c + r) % QUERY_MIX.len()];
                    let report = service
                        .submit(benchmark_query(qi))
                        .wait()
                        .expect("warm session survives the fault schedule");
                    assert_eq!(
                        fingerprint[&qi], report.embeddings,
                        "{label}: q{qi} count diverged under faults"
                    );
                }
            });
        }
    });
    let report = service.shutdown();
    assert_eq!(report.failed, 0, "{label}: no session may fail");
    assert_eq!(
        report.completed,
        (QUERY_MIX.len() + clients * requests_per_client) as u64,
        "{label}: every session completes"
    );
    let device_failures: u64 = report.devices.iter().map(|d| d.failures).sum();
    assert_eq!(
        report.retries, device_failures,
        "{label}: every device failure is retried exactly once"
    );
    let device_corruptions: u64 = report.devices.iter().map(|d| d.corruptions).sum();
    assert_eq!(
        report.corruption_catches, device_corruptions,
        "{label}: every caught corruption is charged to a device"
    );
    assert!(report.is_finite(), "{label}: report stays finite");
    (report, fingerprint)
}

/// Best-of-`repeats` by QPS (the fingerprint is identical across repeats).
fn run_best(
    g: &Arc<graph_core::Graph>,
    label: &'static str,
    extra: &[DeviceKind],
    cross_check: bool,
    clients: usize,
    requests_per_client: usize,
    repeats: usize,
) -> Row {
    let mut best: Option<(ServeReport, BTreeMap<usize, u64>)> = None;
    for _ in 0..repeats.max(1) {
        let run = run_once(g, label, extra.to_vec(), cross_check, clients, requests_per_client);
        if best.as_ref().is_none_or(|(b, _)| run.0.qps > b.qps) {
            best = Some(run);
        }
    }
    let (report, embeddings) = best.expect("at least one repeat");
    Row {
        label,
        report,
        embeddings,
    }
}

/// Runs the four-arm chaos sweep on `dataset` and asserts the headline
/// claims: bit-identity across every arm, exactly-once retry accounting
/// (inside each run), a quarantine + an eviction under the heavy schedule,
/// and < [`OVERHEAD_BUDGET`] fault-free overhead for the injection wrapper.
pub fn run(
    cache: &mut DatasetCache,
    dataset: DatasetId,
    clients: usize,
    requests_per_client: usize,
) -> Vec<Row> {
    let g = Arc::new(cache.get(dataset).clone());
    let fast = FastConfig {
        spec: crate::harness::experiment_spec(),
        ..FastConfig::for_variant(Variant::Sep)
    };
    let zero = FaultPlan::default();
    let clean_fleet = vec![fpga(&fast), fpga(&fast), fpga(&fast)];
    let wrapped_fleet: Vec<DeviceKind> = clean_fleet
        .iter()
        .cloned()
        .map(|d| wrap(d, zero.clone()))
        .collect();
    // Moderate chaos: transients + stalls fleet-wide, silent corruption on
    // one device (the cross-check needs an honest second opinion), one
    // clean card as the guaranteed-healthy survivor.
    let moderate_fleet = vec![
        wrap(
            fpga(&fast),
            FaultPlan {
                seed: 0xC4A05,
                transient_rate: 0.2,
                stall_rate: 0.05,
                corrupt_rate: 0.15,
                ..FaultPlan::default()
            },
        ),
        wrap(fpga(&fast), FaultPlan::transient(0xC4A06, 0.2)),
        fpga(&fast),
    ];
    // Heavy chaos: one card dies permanently almost immediately, one fails
    // half its calls and lies on a quarter of the rest.
    let heavy_fleet = vec![
        wrap(fpga(&fast), FaultPlan::dies_at(0xC4A07, 3)),
        wrap(
            fpga(&fast),
            FaultPlan {
                seed: 0xC4A08,
                transient_rate: 0.5,
                corrupt_rate: 0.25,
                ..FaultPlan::default()
            },
        ),
        fpga(&fast),
    ];

    // The overhead arms run as interleaved clean/wrapped pairs: each pair
    // is temporally adjacent, so ambient load (parallel test binaries, CI
    // neighbours) degrades both sides of a pair alike and the per-pair QPS
    // ratio isolates the injector's own cost. Back-to-back blocks would
    // let one contention spike land entirely on one arm and fail the
    // claim spuriously.
    let mut raw: Option<(ServeReport, BTreeMap<usize, u64>)> = None;
    let mut wrapped: Option<(ServeReport, BTreeMap<usize, u64>)> = None;
    let mut best_ratio = f64::NEG_INFINITY;
    for _ in 0..OVERHEAD_REPEATS {
        let c = run_once(&g, "clean", clean_fleet.clone(), false, clients, requests_per_client);
        let w = run_once(
            &g, "wrapped-0", wrapped_fleet.clone(), false, clients, requests_per_client,
        );
        best_ratio = best_ratio.max(w.0.qps / c.0.qps);
        if raw.as_ref().is_none_or(|(b, _)| c.0.qps > b.qps) {
            raw = Some(c);
        }
        if wrapped.as_ref().is_none_or(|(b, _)| w.0.qps > b.qps) {
            wrapped = Some(w);
        }
    }
    let raw = {
        let (report, embeddings) = raw.expect("at least one pair");
        Row { label: "clean", report, embeddings }
    };
    let wrapped = {
        let (report, embeddings) = wrapped.expect("at least one pair");
        Row { label: "wrapped-0", report, embeddings }
    };
    let moderate = run_best(&g, "moderate", &moderate_fleet, true, clients, requests_per_client, 1);
    let heavy = run_best(&g, "heavy", &heavy_fleet, true, clients, requests_per_client, 1);

    // The overhead claim: a zero-rate schedule costs < 2% throughput on
    // the best interleaved pair.
    assert!(
        best_ratio >= 1.0 - OVERHEAD_BUDGET,
        "fault-free injection overhead exceeds {:.0}% on every interleaved pair: \
         best wrapped/clean QPS ratio {:.3} (best clean {:.1} QPS, best wrapped {:.1} QPS)",
        OVERHEAD_BUDGET * 100.0,
        best_ratio,
        raw.report.qps,
        wrapped.report.qps
    );
    assert_eq!(
        raw.report.retries + wrapped.report.retries,
        0,
        "nothing faults in the overhead arms"
    );
    // The fault arms actually faulted — and still answered bit-exact.
    assert!(moderate.report.retries > 0, "moderate chaos must retry");
    assert!(
        heavy.report.retries > 0 && heavy.report.failovers > 0,
        "heavy chaos must retry and fail over"
    );
    assert!(
        heavy
            .report
            .devices
            .iter()
            .any(|d| d.health == serve::HealthState::Evicted),
        "the permanently dying card must be evicted"
    );

    let rows = vec![raw, wrapped, moderate, heavy];
    for w in rows.windows(2) {
        assert_eq!(
            w[0].embeddings, w[1].embeddings,
            "{} vs {}: the fault schedule changed a count",
            w[0].label, w[1].label
        );
    }
    rows
}

/// Renders the chaos sweep table.
pub fn render(dataset: DatasetId, rows: &[Row]) -> String {
    let header: Vec<String> = [
        "fleet",
        "QPS",
        "p99",
        "retries",
        "failovers",
        "quarantines",
        "catches",
        "degraded",
        "evicted",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.1}", r.report.qps),
                format!("{:.1}ms", r.report.latency_p99 * 1e3),
                r.report.retries.to_string(),
                r.report.failovers.to_string(),
                r.report.quarantines.to_string(),
                r.report.corruption_catches.to_string(),
                format!("{:.3}s", r.report.degraded_sec),
                r.report
                    .devices
                    .iter()
                    .filter(|d| d.health == serve::HealthState::Evicted)
                    .count()
                    .to_string(),
            ]
        })
        .collect();
    format!(
        "Fault-tolerant serving on {dataset} (closed loop over q{:?}; every arm \
         fingerprint-checked against the clean fleet, retries reconciled against device \
         failures, wrapped zero-fault arm asserted within {:.0}% of clean throughput on \
         the best interleaved pair)\n{}",
        QUERY_MIX,
        OVERHEAD_BUDGET * 100.0,
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault-tolerance acceptance bar (release-mode; the `chaos` CI
    /// figure step re-asserts it at scale): all four arms bit-identical,
    /// zero failed sessions, exact retry accounting, an eviction under
    /// heavy chaos, and < 2% fault-free injection overhead.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: four serving arms; covered by the release-mode CI chaos step"
    )]
    fn chaos_arms_are_bit_identical_and_cheap_when_idle() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg01, 2, 8);
        assert_eq!(rows.len(), 4);
        // Bit-identity, accounting, eviction, and the overhead bound are
        // asserted inside `run`; re-check the headline aggregates here.
        let heavy = rows.iter().find(|r| r.label == "heavy").unwrap();
        assert_eq!(heavy.report.failed, 0);
        assert!(heavy.report.retries > 0);
        let clean = rows.iter().find(|r| r.label == "clean").unwrap();
        assert_eq!(clean.report.retries, 0);
        assert_eq!(clean.embeddings, heavy.embeddings);
    }
}
