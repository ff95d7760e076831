//! Tier-2 shard-CST cache study (`cstcache` figure target): the warm-path
//! sweep over three byte budgets — 0 (tier 2 off), tight (half the working
//! set, forcing eviction/rejection churn), and generous (the default,
//! everything resident) — reporting QPS and latency against resident
//! bytes.
//!
//! The figure is **self-asserting**: inside every run it checks that warm
//! sessions under the generous budget are tier-2 hits with *exactly zero*
//! build time and zero top-down entries (pure dispatch + kernel), that
//! every session's embedding count is fingerprint-equal to the cold pass,
//! and that resident bytes never exceed the configured budget. A failed
//! claim aborts the figure, so a green `cstcache` run *is* the warm-path
//! correctness certificate.

use crate::harness::DatasetCache;
use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::{benchmark_query, DatasetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{FastService, QueryReport, ServeConfig, ServeReport};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The repeated query mix (shared with the single-tenant serving study).
pub const QUERY_MIX: [usize; 4] = [0, 1, 2, 4];

/// One byte-budget arm of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// Human label of the budget arm.
    pub label: &'static str,
    /// Configured tier-2 byte budget.
    pub budget: usize,
    /// Full service report of the warm phase (plus the cold pass).
    pub report: ServeReport,
    /// Embeddings per query-mix member — the bit-identity witness.
    pub embeddings: BTreeMap<usize, u64>,
}

fn serve_config(clients: usize, cst_budget: usize) -> ServeConfig {
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
        cache_capacity: 64,
        cst_cache_bytes: cst_budget,
        max_in_flight: (2 * clients).max(1),
        ..ServeConfig::default()
    }
}

/// Runs one budget arm: a sequential cold pass over the distinct query mix
/// (builds + fingerprints), then `clients` closed-loop clients × `requests`
/// warm submissions. Panics if any self-assertion fails.
fn run_budget(
    g: &Arc<graph_core::Graph>,
    label: &'static str,
    budget: usize,
    clients: usize,
    requests_per_client: usize,
) -> Row {
    let service = FastService::new(Arc::clone(g), serve_config(clients, budget));

    // Cold pass: every distinct query once, sequentially — populates the
    // caches and records the reference fingerprint.
    let mut fingerprint: BTreeMap<usize, u64> = BTreeMap::new();
    for &qi in &QUERY_MIX {
        let report = service
            .submit(benchmark_query(qi))
            .wait()
            .expect("cold session");
        assert!(
            !report.cst_cache_hit,
            "{label}: q{qi} cold pass cannot hit an empty tier 2"
        );
        fingerprint.insert(qi, report.embeddings);
    }

    // Warm phase: concurrent closed-loop clients over the mix. Every
    // report is checked against the fingerprint; tier-2 hits are checked
    // to be pure dispatch + kernel.
    let warm_reports: Vec<QueryReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = &service;
                let fingerprint = &fingerprint;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        0xC57_CACE ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut reports = Vec::with_capacity(requests_per_client);
                    for _ in 0..requests_per_client {
                        let qi = QUERY_MIX[rng.gen_range(0..QUERY_MIX.len())];
                        let report = service
                            .submit(benchmark_query(qi))
                            .wait()
                            .expect("warm session");
                        assert_eq!(
                            fingerprint[&qi], report.embeddings,
                            "{label}: q{qi} warm count diverged from the cold fingerprint"
                        );
                        reports.push(report);
                    }
                    reports
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    for r in &warm_reports {
        if budget == 0 {
            assert!(!r.cst_cache_hit, "{label}: tier 2 is disabled, yet it hit");
        }
        if r.cst_cache_hit {
            // The timing claim of the whole tier: a warm serve is pure
            // dispatch + kernel. Exactly zero, not approximately.
            assert_eq!(
                r.build_time,
                std::time::Duration::ZERO,
                "{label}: tier-2 hit reported build wall"
            );
            assert_eq!(
                r.topdown_entries, 0,
                "{label}: tier-2 hit reported a top-down scan"
            );
            assert_eq!(r.seeded_shards, 0, "{label}: tier-2 hit seeded a rebuild");
        }
    }

    let report = service.shutdown();
    assert!(
        report.cst_resident_bytes <= budget,
        "{label}: resident {} bytes exceed the {} byte budget",
        report.cst_resident_bytes,
        budget
    );
    assert_eq!(report.build_hit_mean_sec, 0.0, "{label}: hit-path build mean");
    if budget > 0 && report.cst_cache.hits > 0 {
        assert!(report.cst_resident_bytes > 0, "{label}: hits imply residency");
    }
    Row {
        label,
        budget,
        report,
        embeddings: fingerprint,
    }
}

/// Runs the byte-budget sweep on `dataset`: generous (default budget),
/// tight (half the generous working set), and 0 (tier 2 off). Every arm's
/// fingerprint must agree — the cache can bound memory, never change an
/// answer.
pub fn run(
    cache: &mut DatasetCache,
    dataset: DatasetId,
    clients: usize,
    requests_per_client: usize,
) -> Vec<Row> {
    let g = Arc::new(cache.get(dataset).clone());
    // Generous first: its resident bytes calibrate the tight budget to
    // half the full working set, guaranteeing eviction or rejection churn.
    let generous = run_budget(
        &g,
        "generous",
        ServeConfig::default().cst_cache_bytes,
        clients,
        requests_per_client,
    );
    let working_set = generous.report.cst_resident_bytes;
    assert!(working_set > 0, "generous arm must retain the working set");
    let tight = run_budget(&g, "tight", (working_set / 2).max(1), clients, requests_per_client);
    assert!(
        tight.report.cst_cache.evictions + tight.report.cst_cache.rejected > 0,
        "a budget of half the working set must evict or reject"
    );
    let off = run_budget(&g, "off", 0, clients, requests_per_client);
    assert_eq!(off.report.cst_cache.hits, 0, "budget 0 must never hit");

    let rows = vec![off, tight, generous];
    for w in rows.windows(2) {
        assert_eq!(
            w[0].embeddings, w[1].embeddings,
            "{} vs {}: the byte budget changed a count",
            w[0].label, w[1].label
        );
    }
    rows
}

/// Renders the budget sweep table.
pub fn render(dataset: DatasetId, rows: &[Row]) -> String {
    let header: Vec<String> = [
        "budget",
        "bytes",
        "resident",
        "cst hit rate",
        "evict",
        "reject",
        "QPS",
        "p50",
        "p99",
        "build miss",
        "build hit",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let ms = |sec: f64| format!("{:.1}ms", sec * 1e3);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.budget.to_string(),
                r.report.cst_resident_bytes.to_string(),
                format!("{:.0}%", r.report.cst_cache.hit_rate() * 100.0),
                r.report.cst_cache.evictions.to_string(),
                r.report.cst_cache.rejected.to_string(),
                format!("{:.1}", r.report.qps),
                ms(r.report.latency_p50),
                ms(r.report.latency_p99),
                ms(r.report.build_miss_mean_sec),
                ms(r.report.build_hit_mean_sec),
            ]
        })
        .collect();
    format!(
        "Tier-2 shard-CST cache on {dataset} (closed loop over q{:?}; budgets 0 / half the \
         working set / default; every arm fingerprint-checked against its cold pass, tier-2 \
         hits asserted to build nothing)\n{}",
        QUERY_MIX,
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-2 acceptance bar (release-mode; the `cstcache` CI figure
    /// run re-asserts it at scale): tier-2-warm sessions report zero build
    /// time and zero top-down entries with counts fingerprint-equal to
    /// cold, resident bytes stay under every budget, and the generous arm
    /// actually hits.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full budget sweep; covered by the release-mode CI figure step"
    )]
    fn warm_serves_are_pure_dispatch_and_kernel() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg01, 2, 10);
        assert_eq!(rows.len(), 3);
        // Per-session claims (zero build, zero top-down, fingerprint
        // equality, residency ≤ budget) are asserted inside `run`;
        // re-check the aggregate view visibly here.
        let generous = rows.iter().find(|r| r.label == "generous").unwrap();
        assert!(generous.report.cst_cache.hits > 0, "warm phase must hit");
        assert_eq!(generous.report.build_hit_mean_sec, 0.0);
        assert!(generous.report.build_miss_mean_sec > 0.0);
        assert!(generous.report.cst_resident_bytes <= generous.budget);
        let off = rows.iter().find(|r| r.label == "off").unwrap();
        assert_eq!(off.report.cst_cache.hits, 0);
        assert_eq!(off.report.cst_resident_bytes, 0);
        assert_eq!(off.embeddings, generous.embeddings);
    }
}
