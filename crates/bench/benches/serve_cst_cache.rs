//! Criterion microbenchmarks for the tier-2 shard-CST cache: the
//! `CstCache` lookup path itself, and warm end-to-end session latency at
//! each cache depth — cold (both tiers off), plan-warm (tier 1 only, the
//! probe is skipped but the CSTs rebuild), and cst-warm (tier 2, pure
//! dispatch + kernel) — the per-request view of the `cstcache` figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::benchmark_query;
use graph_core::generators::{generate_ldbc, LdbcParams};
use serve::{FastService, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;

/// End-to-end session latency through a live service at three cache
/// depths. The gap between `plan_warm` and `cst_warm` is exactly the CST
/// build + partitioning wall that tier 2 deletes.
fn bench_session_tiers(c: &mut Criterion) {
    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.2), 1));
    let mut group = c.benchmark_group("serve/cst_cache");
    group.sample_size(10);
    for (label, plans, cst_bytes) in [
        ("cold", 0usize, 0usize),
        ("plan_warm", 16, 0),
        ("cst_warm", 16, 64 << 20),
    ] {
        let mut fast = FastConfig::for_variant(Variant::Sep);
        fast.shard_planner = ShardPlanner::Auto;
        let service = FastService::new(
            Arc::clone(&g),
            ServeConfig {
                fast,
                devices: 2,
                extra_devices: Vec::new(),
                workers: 1,
                cache_capacity: plans,
                cst_cache_bytes: cst_bytes,
                max_in_flight: 4,
                ..ServeConfig::default()
            },
        );
        // Prime the warm tiers so every measured iteration hits.
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

criterion_group!(benches, bench_session_tiers);
criterion_main!(benches);
