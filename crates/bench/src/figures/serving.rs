//! Serving study (`serving` figure target): throughput–latency curves of
//! the `serve` subsystem, cold cache vs warm cache.
//!
//! A seeded closed-loop load generator drives a [`FastService`] over a
//! repeated query mix: each client submits, waits for completion, sleeps an
//! exponential think time (Poisson-like arrivals at the service), and
//! repeats. Sweeping the client count traces the throughput–latency curve;
//! running each level twice — both cache tiers disabled ("cold": every
//! session pays the probe/boundary search *and* the CST build) vs warm
//! caches ("warm": repeats replay the cached shard CSTs through tier 2) —
//! isolates what caching buys at the service level. Per-query embedding
//! counts are captured per mode and must be bit-identical (a cached
//! artifact replays the exact decomposition a cold run computes); the
//! release-mode test below enforces that plus the cache bar: warm tier-2
//! hit rate ≥ 90%, warm build time exactly 0. What caching buys in wall
//! clock is the benchmark's `serve_warm_dg03` against `serve_cold_dg03`.

use crate::harness::DatasetCache;
use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::{benchmark_query, DatasetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{FastService, ServeConfig, ServeReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The repeated query mix: the hub-dominated planner-heavy queries (q1,
/// q2) alongside flat ones (q0, q4) — the regime where plan caching must
/// help without hurting.
pub const QUERY_MIX: [usize; 4] = [0, 1, 2, 4];

/// Closed-loop load parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// RNG seed (query mix sampling and think times).
    pub seed: u64,
    /// Mean exponential think time between a client's completion and its
    /// next submission.
    pub think_mean: Duration,
}

/// One serving mode's outcome at one concurrency level.
#[derive(Debug, Clone)]
pub struct ModeOutcome {
    /// Full service report (QPS, percentiles, cache stats, devices).
    pub report: ServeReport,
    /// Embeddings per query-mix member — the bit-identity witness.
    pub embeddings: BTreeMap<usize, u64>,
}

/// One concurrency level: cold vs warm.
#[derive(Debug, Clone)]
pub struct Row {
    pub clients: usize,
    pub cold: ModeOutcome,
    pub warm: ModeOutcome,
}

fn exp_sample(rng: &mut StdRng, mean: Duration) -> Duration {
    if mean.is_zero() {
        return Duration::ZERO;
    }
    let u: f64 = rng.gen_range(0.0f64..1.0);
    mean.mul_f64(-(1.0 - u).ln())
}

/// Drives `load` against `service`, returning the per-query embedding
/// counts the clients observed. Panics if any client sees two different
/// counts for the same query — per-query results must not depend on
/// concurrent interleaving.
pub fn drive(service: &FastService, load: &LoadConfig) -> BTreeMap<usize, u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        load.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut seen: BTreeMap<usize, u64> = BTreeMap::new();
                    for _ in 0..load.requests_per_client {
                        let qi = QUERY_MIX[rng.gen_range(0..QUERY_MIX.len())];
                        let report = service
                            .submit(benchmark_query(qi))
                            .wait()
                            .expect("session completes");
                        if let Some(prev) = seen.insert(qi, report.embeddings) {
                            assert_eq!(
                                prev, report.embeddings,
                                "q{qi}: count changed between repeats"
                            );
                        }
                        let think = exp_sample(&mut rng, load.think_mean);
                        if !think.is_zero() {
                            std::thread::sleep(think);
                        }
                    }
                    seen
                })
            })
            .collect();
        let mut merged: BTreeMap<usize, u64> = BTreeMap::new();
        for h in handles {
            for (qi, e) in h.join().expect("client thread") {
                if let Some(prev) = merged.insert(qi, e) {
                    assert_eq!(prev, e, "q{qi}: clients disagree on the count");
                }
            }
        }
        merged
    })
}

/// The serving configuration of the study: FAST-SEP semantics on the
/// experiment-scaled device, auto shard planning (the planner the cache
/// amortises), 4 emulated devices, one worker per client.
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
        // Cold mode disables both tiers; warm keeps the default budget so
        // repeats are tier-2 hits (pure dispatch + kernel).
        cst_cache_bytes: if cache_capacity == 0 {
            0
        } else {
            ServeConfig::default().cst_cache_bytes
        },
        max_in_flight: (2 * clients).max(1),
        ..ServeConfig::default()
    }
}

fn run_mode(g: &Arc<graph_core::Graph>, load: &LoadConfig, cache_capacity: usize) -> ModeOutcome {
    let service = FastService::new(Arc::clone(g), serve_config(load.clients, cache_capacity));
    let embeddings = drive(&service, load);
    let report = service.shutdown();
    ModeOutcome { report, embeddings }
}

/// Runs the cold-vs-warm sweep on `dataset` over `client_levels`.
pub fn run(
    cache: &mut DatasetCache,
    dataset: DatasetId,
    client_levels: &[usize],
    requests_per_client: usize,
) -> Vec<Row> {
    // One shared copy for every service in the sweep.
    let g = Arc::new(cache.get(dataset).clone());
    client_levels
        .iter()
        .map(|&clients| {
            let load = LoadConfig {
                clients,
                requests_per_client,
                seed: 0xFA57,
                think_mean: Duration::from_micros(200),
            };
            let cold = run_mode(&g, &load, 0);
            let warm = run_mode(&g, &load, 64);
            assert_eq!(
                cold.embeddings, warm.embeddings,
                "cached plans changed a result at {clients} clients"
            );
            Row {
                clients,
                cold,
                warm,
            }
        })
        .collect()
}

/// Renders the throughput–latency table.
pub fn render(dataset: DatasetId, rows: &[Row]) -> String {
    let header: Vec<String> = [
        "clients",
        "cold QPS",
        "cold p50",
        "cold p99",
        "cold devq p50/p99",
        "warm QPS",
        "warm p50",
        "warm p99",
        "warm devq p50/p99",
        "cst hit rate",
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
                r.clients.to_string(),
                format!("{:.1}", r.cold.report.qps),
                ms(r.cold.report.latency_p50),
                ms(r.cold.report.latency_p99),
                format!(
                    "{}/{}",
                    ms(r.cold.report.device_queue_p50),
                    ms(r.cold.report.device_queue_p99)
                ),
                format!("{:.1}", r.warm.report.qps),
                ms(r.warm.report.latency_p50),
                ms(r.warm.report.latency_p99),
                format!(
                    "{}/{}",
                    ms(r.warm.report.device_queue_p50),
                    ms(r.warm.report.device_queue_p99)
                ),
                format!("{:.0}%", r.warm.report.cst_cache.hit_rate() * 100.0),
                ms(r.warm.report.build_miss_mean_sec),
                ms(r.warm.report.build_hit_mean_sec),
            ]
        })
        .collect();
    format!(
        "Serving throughput-latency on {dataset} (closed loop over q{:?}, cold = both cache tiers off, \
         warm = LRU 64 plans + default tier-2 byte budget; \
         latency percentiles fold in the modelled device queueing delay, broken out in the devq columns)\n{}",
        QUERY_MIX,
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serving cache bar on DG03, the graph the full sweep serves: on a
    /// repeated query mix the warm tier-2 cache hits ≥ 90%, hit-path build
    /// time is exactly 0, the resident artifacts stay under the budget, and
    /// every cached result is bit-identical to the cold run's.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full serving sweep; covered by the release-mode CI test step"
    )]
    fn warm_cache_hits_with_identical_results() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg03, &[4], 30);
        let (cold, warm) = (&rows[0].cold, &rows[0].warm);
        // Bit-identity is asserted inside `run`; re-check visibly here.
        assert_eq!(cold.embeddings, warm.embeddings);
        assert!(!warm.embeddings.is_empty());
        let hit_rate = warm.report.cst_cache.hit_rate();
        assert!(hit_rate >= 0.9, "tier-2 hit rate {hit_rate}");
        assert_eq!(
            warm.report.build_hit_mean_sec, 0.0,
            "a tier-2 hit replays the artifact — it must build nothing",
        );
        assert!(
            warm.report.build_miss_mean_sec > 0.0,
            "cold sessions must pay a measurable build",
        );
        let resident = warm.report.cst_resident_bytes;
        assert!(
            resident > 0 && resident <= ServeConfig::default().cst_cache_bytes,
            "resident {resident} bytes must stay under the budget",
        );
        assert_eq!(cold.report.completed, 120);
        assert_eq!(warm.report.completed, 120);
        assert_eq!(cold.report.cache.hits, 0, "capacity 0 must never hit");
        assert_eq!(cold.report.cst_cache.hits, 0, "budget 0 must never hit");
    }
}
