//! Criterion microbenchmarks for the fault-tolerant execution path: warm
//! session latency on a clean fleet vs the same fleet wrapped in zero-rate
//! fault injectors (the overhead the `chaos` figure bounds at 2%) vs a
//! fleet under a moderate transient schedule (the price of retries), and
//! the cross-check's ~2× execution tax.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast::{FastConfig, FaultPlan, ShardPlanner, Variant};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::benchmark_query;
use serve::{DeviceKind, FastService, FaultPolicy, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;

fn config(extra: Vec<DeviceKind>, cross_check: bool) -> ServeConfig {
    let mut fast = FastConfig::test_small(Variant::Sep);
    fast.shard_planner = ShardPlanner::Auto;
    ServeConfig {
        fast,
        devices: 0,
        extra_devices: extra,
        workers: 1,
        cache_capacity: 16,
        cst_cache_bytes: ServeConfig::default().cst_cache_bytes,
        max_in_flight: 4,
        fault: FaultPolicy {
            max_attempts: 16,
            cross_check,
            ..FaultPolicy::default()
        },
        ..ServeConfig::default()
    }
}

fn wrap(inner: DeviceKind, plan: FaultPlan) -> DeviceKind {
    DeviceKind::Faulty {
        inner: Box::new(inner),
        plan,
    }
}

/// Warm end-to-end session latency per fleet: the fault machinery's cost
/// when nothing faults, and the retry tax when a fifth of calls fail.
fn bench_faulted_session(c: &mut Criterion) {
    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42));
    let spec = FastConfig::test_small(Variant::Sep).spec;
    let fpga = || DeviceKind::Fpga(spec.clone());
    let fleets: [(&str, Vec<DeviceKind>, bool); 4] = [
        ("clean", vec![fpga(), fpga()], false),
        (
            "wrapped-0",
            vec![
                wrap(fpga(), FaultPlan::default()),
                wrap(fpga(), FaultPlan::default()),
            ],
            false,
        ),
        (
            "transient-20",
            vec![wrap(fpga(), FaultPlan::transient(7, 0.2)), fpga()],
            false,
        ),
        ("cross-check", vec![fpga(), fpga()], true),
    ];
    let mut group = c.benchmark_group("serve/faulted_session");
    group.sample_size(10);
    for (label, extra, cross_check) in fleets {
        let service = FastService::new(Arc::clone(&g), config(extra, cross_check));
        // Prime the warm tiers so every measured iteration is pure
        // dispatch + kernel (+ fault machinery).
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

criterion_group!(benches, bench_faulted_session);
criterion_main!(benches);
