//! Criterion microbenchmarks for the serving subsystem (`serve`): the plan
//! cache's lookup path, and end-to-end session throughput on a persistent
//! service, cold cache vs warm cache — the per-request view of what the
//! `serving` figure measures at the service level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{benchmark_query, select_root, BfsTree};
use serve::{FastService, PlanCache, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;

/// Plan-cache hit path: key derivation plus the LRU lookup — the whole
/// cost a warm session pays instead of the probe.
fn bench_cache_lookup(c: &mut Criterion) {
    let g = generate_ldbc(&LdbcParams::with_scale_factor(0.2), 1);
    let q = benchmark_query(1);
    let root = select_root(&q, &g);
    let tree = BfsTree::new(&q, root);
    let config = FastConfig::default();
    let opts = config.pipeline_options(q.vertex_count());
    let key = cst::PlanKey::derive(&q, &tree, &opts, 0);
    let mut cache = PlanCache::new(16);
    cache.insert(key, Arc::new(cst::ShardPlan::contiguous(100, 4)));
    c.bench_function("serve/cache_hit", |b| {
        b.iter(|| {
            let key = cst::PlanKey::derive(&q, &tree, &opts, 0);
            black_box(cache.get(&key))
        });
    });
}

/// End-to-end session latency through a live service: submit one query and
/// wait for its report, against a cold (capacity 0) and a warm cache.
fn bench_session(c: &mut Criterion) {
    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.2), 1));
    let mut group = c.benchmark_group("serve/session");
    group.sample_size(10);
    for (label, capacity) in [("cold", 0usize), ("warm", 16)] {
        let mut fast = FastConfig::for_variant(Variant::Sep);
        fast.shard_planner = ShardPlanner::Auto;
        let service = FastService::new(
            Arc::clone(&g),
            ServeConfig {
                fast,
                devices: 2,
                extra_devices: Vec::new(),
                workers: 1,
                cache_capacity: capacity,
                // Cold disables both tiers so every iteration pays the
                // full plan + build; warm keeps the default byte budget.
                cst_cache_bytes: if capacity == 0 {
                    0
                } else {
                    ServeConfig::default().cst_cache_bytes
                },
                max_in_flight: 4,
                ..ServeConfig::default()
            },
        );
        // Prime the warm cache so every measured iteration hits.
        service.submit(benchmark_query(1)).wait().expect("prime");
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                let report = service
                    .submit(benchmark_query(1))
                    .wait()
                    .expect("session completes");
                black_box(report.embeddings)
            });
        });
        service.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_cache_lookup, bench_session);
criterion_main!(benches);
