//! Criterion microbenchmarks for the event-driven session executor: the
//! non-blocking submit path in isolation, and batched end-to-end session
//! throughput at different outstanding-window sizes — the per-request view
//! of what the `sessions` figure measures at the service level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::{Label, QueryGraph};
use serve::{FastService, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;

fn triangle() -> QueryGraph {
    QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .expect("triangle query")
}

fn service(max_in_flight: usize) -> FastService {
    let g = Arc::new(random_labelled_graph(300, 0.04, 3, 7));
    let mut fast = FastConfig::test_small(Variant::Sep);
    fast.shard_planner = ShardPlanner::Auto;
    FastService::new(
        g,
        ServeConfig {
            fast,
            devices: 2,
            extra_devices: Vec::new(),
            workers: 2,
            cache_capacity: 16,
            cst_cache_bytes: 16 << 20,
            max_in_flight,
            ..ServeConfig::default()
        },
    )
}

/// The enqueue path alone: what a client pays before `submit` returns —
/// admission accounting plus a deque push and a wakeup, never a park.
fn bench_submit(c: &mut Criterion) {
    let service = service(1 << 20);
    service.submit(triangle()).wait().expect("prime");
    let mut handles = Vec::with_capacity(1 << 16);
    c.bench_function("serve/async_submit", |b| {
        b.iter(|| {
            handles.push(black_box(service.submit(triangle())));
            if handles.len() == handles.capacity() {
                for h in handles.drain(..) {
                    h.wait().expect("session");
                }
            }
        });
    });
    for h in handles.drain(..) {
        h.wait().expect("session");
    }
    service.shutdown();
}

/// Warm end-to-end throughput at increasing outstanding windows: a batch
/// of `window` sessions submitted non-blockingly, then waited.
fn bench_session_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/async_window");
    group.sample_size(10);
    for window in [1usize, 64, 1024] {
        let service = service(window);
        service.submit(triangle()).wait().expect("prime");
        group.throughput(Throughput::Elements(window as u64));
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                let handles: Vec<_> = (0..w).map(|_| service.submit(triangle())).collect();
                for h in handles {
                    black_box(h.wait().expect("session").embeddings);
                }
            });
        });
        service.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_submit, bench_session_window);
criterion_main!(benches);
