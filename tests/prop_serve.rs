//! Property-based tests of the serving subsystem (`serve`): cache-hit
//! serves are bit-identical to cold runs, and concurrent
//! serving is deterministic in its per-query results regardless of device
//! count, worker count, and admission interleaving.

use fast::{FastConfig, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::{Graph, Label, QueryGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{FastService, ServeConfig, ServeReport};
use std::sync::Arc;

/// Seeded random connected query (tree skeleton + extra edges).
fn random_query(n: usize, seed: u64) -> QueryGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    let labels: Vec<Label> = (0..n).map(|_| Label::new(rng.gen_range(0..2))).collect();
    let mut edges = Vec::new();
    for i in 1..n {
        edges.push((rng.gen_range(0..i), i));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(0.3) {
                edges.push((a, b));
            }
        }
    }
    QueryGraph::new(labels, &edges).expect("connected by construction")
}

fn arb_query() -> impl Strategy<Value = QueryGraph> {
    (3usize..=5, any::<u64>()).prop_map(|(n, seed)| random_query(n, seed))
}

fn service_config(devices: usize, workers: usize, cst_bytes: usize) -> ServeConfig {
    ServeConfig {
        fast: FastConfig::test_small(Variant::Sep),
        devices,
        extra_devices: Vec::new(),
        workers,
        cache_capacity: 16,
        cst_cache_bytes: cst_bytes,
        max_in_flight: 8,
        ..ServeConfig::default()
    }
}

/// Serves `q` twice on a fresh service (cold, then warm) and returns the
/// two reports plus the service's final report.
fn cold_then_hit(
    g: &Arc<Graph>,
    q: &QueryGraph,
    config: ServeConfig,
) -> (serve::QueryReport, serve::QueryReport, ServeReport) {
    let service = FastService::new(Arc::clone(g), config);
    let cold = service.submit(q.clone()).wait().expect("cold run");
    let hit = service.submit(q.clone()).wait().expect("warm run");
    let report = service.shutdown();
    assert_eq!(report.completed, 2);
    assert_eq!(report.failed, 0);
    (cold, hit, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A warm serve is bit-identical to the cold run on **both** warm
    /// paths: tier 2 disabled (the stored plan is replayed for the
    /// rebuild) and tier 2 enabled (the cached shard CSTs replay with zero
    /// build work). With both tiers off the repeat hits nothing and keeps
    /// nothing resident. Four-way differential: cold vs plan hit vs tier-2
    /// hit vs uncached repeat.
    #[test]
    fn warm_serves_are_bit_identical_to_cold_for_every_planner(
        q in arb_query(),
        graph_seed in 0u64..200,
    ) {
        let g = Arc::new(random_labelled_graph(45, 0.18, 2, graph_seed));
        // Tier 2 off: the warm serve replays the cached plan.
        let (cold, plan_hit, _) = cold_then_hit(&g, &q, service_config(2, 1, 0));
        // Tier 2 on: the warm serve replays the cached artifact.
        let (cold2, warm, _) = cold_then_hit(&g, &q, service_config(2, 1, 64 << 20));
        // Both tiers off: the repeat pays the whole cold path again.
        let (_, repeat, off) = cold_then_hit(
            &g,
            &q,
            ServeConfig { cache_capacity: 0, ..service_config(2, 1, 0) },
        );
        prop_assert!(
            !repeat.cache_hit && !repeat.cst_cache_hit,
            "capacity 0 and budget 0 must never hit"
        );
        prop_assert_eq!(
            (off.cache.hits, off.cst_cache.hits, off.cst_resident_bytes),
            (0, 0, 0),
            "disabled tiers must record no hit and hold no bytes"
        );
        prop_assert!(!cold.cache_hit, "first run must miss");
        prop_assert!(
            plan_hit.cache_hit && !plan_hit.cst_cache_hit,
            "tier-2-off warm run must be a plan hit"
        );
        prop_assert!(
            warm.cst_cache_hit,
            "tier-2-on warm run must be an artifact hit"
        );
        for (label, r) in [
            ("plan-hit", &plan_hit),
            ("cold+capture", &cold2),
            ("tier-2", &warm),
            ("uncached", &repeat),
        ] {
            prop_assert_eq!(
                cold.embeddings, r.embeddings,
                "changed the count on the {} serve", label
            );
            prop_assert_eq!(
                cold.partitions, r.partitions,
                "changed the partition sequence on the {} serve", label
            );
            prop_assert_eq!(
                cold.pipeline_shards, r.pipeline_shards,
                "changed the shard decomposition on the {} serve", label
            );
            prop_assert_eq!(
                cold.kernel_cycles, r.kernel_cycles,
                "changed the modelled kernel work on the {} serve", label
            );
        }
        // A tier-2 hit is pure dispatch + kernel: no top-down scan, no
        // seeding, and exactly zero build/partition wall.
        prop_assert_eq!(
            warm.build_time, std::time::Duration::ZERO,
            "tier-2 hit must build nothing"
        );
        prop_assert_eq!(
            warm.topdown_entries, 0usize,
            "tier-2 hit must not scan the graph top-down"
        );
        prop_assert_eq!(
            warm.seeded_shards, 0usize,
            "tier-2 hit must not seed a rebuild"
        );
    }

    /// Concurrent sessions over a fixed seeded query set produce a
    /// deterministic per-query result set regardless of device count,
    /// worker count, and interleaving.
    #[test]
    fn concurrent_serving_is_deterministic_across_fleets(
        graph_seed in 0u64..100,
        query_seed in any::<u64>(),
    ) {
        let g = Arc::new(random_labelled_graph(50, 0.18, 2, graph_seed));
        // A fixed, seeded query workload (with repeats).
        let queries: Vec<QueryGraph> = {
            let mut rng = StdRng::seed_from_u64(query_seed);
            use rand::Rng;
            let distinct: Vec<QueryGraph> = (0..3)
                .map(|i| random_query(3 + i % 3, query_seed.wrapping_add(i as u64)))
                .collect();
            (0..8)
                .map(|_| distinct[rng.gen_range(0..distinct.len())].clone())
                .collect()
        };

        let mut reference: Option<Vec<u64>> = None;
        for (devices, workers) in [(1usize, 1usize), (2, 4), (4, 2)] {
            let service = FastService::new(
                Arc::clone(&g),
                service_config(devices, workers, 64 << 20),
            );
            let handles: Vec<_> = queries
                .iter()
                .map(|q| service.submit(q.clone()))
                .collect();
            let counts: Vec<u64> = handles
                .into_iter()
                .map(|h| h.wait().expect("session").embeddings)
                .collect();
            let report = service.shutdown();
            prop_assert_eq!(report.completed as usize, queries.len());
            match &reference {
                None => reference = Some(counts),
                Some(r) => prop_assert_eq!(
                    r,
                    &counts,
                    "devices={} workers={} changed per-query results",
                    devices,
                    workers
                ),
            }
        }
    }
}

/// The serve path agrees with the one-shot `run_fast` path on the final
/// count: the decoupled prepare/execute phases must not change the answer.
#[test]
fn serve_agrees_with_run_fast() {
    let g = random_labelled_graph(60, 0.2, 2, 77);
    let q = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap();
    let oneshot = fast::run_fast(&q, &g, &FastConfig::test_small(Variant::Sep))
        .expect("one-shot run");
    let service = FastService::new(g, service_config(2, 2, 64 << 20));
    let served = service.submit(q).wait().expect("served run");
    assert_eq!(served.embeddings, oneshot.embeddings);
    service.shutdown();
}

/// Backpressure bound: with `max_in_flight = 2`, the service never admits
/// more than two concurrent sessions even under a burst of blocking
/// submitters — and every one of those thread-per-client sessions gets
/// the VF2 oracle's count.
#[test]
fn in_flight_depth_is_bounded() {
    let g = random_labelled_graph(50, 0.25, 2, 99);
    let q = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap();
    let want = matching::vf2_count(&q, &g);
    let mut config = service_config(2, 4, 64 << 20);
    config.max_in_flight = 2;
    let service = FastService::new(g, config);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let service = &service;
            let q = q.clone();
            scope.spawn(move || {
                for _ in 0..3 {
                    let report = service.submit(q.clone()).wait().expect("session");
                    assert_eq!(report.embeddings, want, "a blocking client got a wrong count");
                }
            });
        }
    });
    let report = service.shutdown();
    assert_eq!(report.completed, 12);
    assert_eq!(report.failed, 0);
    assert!(
        report.max_in_flight <= 2,
        "admission exceeded the bound: {}",
        report.max_in_flight
    );
}
