//! Criterion microbenchmarks for the multi-tenant service core: session
//! latency through a two-tenant service (per-tenant cache partitions), and
//! the weighted-round-robin admission path itself at different tenant
//! counts — the per-request view of the `tenants` figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::benchmark_query;
use graph_core::generators::{generate_ldbc, LdbcParams};
use serve::{DeviceKind, FastService, ServeConfig, TenantConfig, TenantId};
use std::hint::black_box;
use std::sync::Arc;

fn two_tenant_service(extra: Vec<DeviceKind>) -> (FastService, TenantId) {
    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.2), 1));
    let mut fast = FastConfig::for_variant(Variant::Sep);
    fast.shard_planner = ShardPlanner::Auto;
    let service = FastService::new(
        Arc::clone(&g),
        ServeConfig {
            fast,
            devices: 2,
            extra_devices: extra,
            workers: 2,
            cache_capacity: 16,
            cst_cache_bytes: ServeConfig::default().cst_cache_bytes,
            max_in_flight: 8,
            ..ServeConfig::default()
        },
    );
    let b = service
        .add_tenant(
            g,
            TenantConfig {
                quota: 3,
                ..TenantConfig::default()
            },
        )
        .expect("tenant B");
    (service, b)
}

/// Warm end-to-end session latency per tenant: both tenants' plans come
/// from their own cache partitions; fleet FPGA-only vs heterogeneous.
fn bench_tenant_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/tenant_session");
    group.sample_size(10);
    for (label, extra) in [
        ("fpga", Vec::new()),
        ("hetero", vec![DeviceKind::Cpu { threads: 2 }]),
    ] {
        let (service, b) = two_tenant_service(extra);
        // Prime both cache partitions so measured iterations hit.
        service.submit(benchmark_query(1)).wait().expect("prime A");
        service
            .submit_for(b, benchmark_query(1))
            .expect("tenant B")
            .wait()
            .expect("prime B");
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |bench, _| {
            bench.iter(|| {
                let a = service.submit(benchmark_query(1));
                let bh = service.submit_for(b, benchmark_query(1)).expect("tenant B");
                black_box((
                    a.wait().expect("session A").embeddings,
                    bh.wait().expect("session B").embeddings,
                ))
            });
        });
        service.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_tenant_session);
criterion_main!(benches);
