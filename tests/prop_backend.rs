//! Backend-equivalence tests: the heterogeneous device pool must never
//! change an answer. A CPU-only fleet, an FPGA-only fleet, and a mixed
//! fleet serve bit-identical embedding counts on the benchmark queries —
//! and all of them agree with the one-shot `run_fast` path.

use fast::{BackendClass, FastConfig, Variant};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{benchmark_query, sample_edges, Graph, QueryGraph};
use serve::{DeviceKind, FastService, ServeConfig, SessionHandle, TenantConfig, TenantId};
use std::sync::Arc;

/// The serving query mix (q0 path, q1/q2 cycles, q4 cycle) — hub-dominated
/// and flat shapes together.
const QUERY_MIX: [usize; 4] = [0, 1, 2, 4];

fn config(devices: usize, extra: Vec<DeviceKind>) -> ServeConfig {
    ServeConfig {
        fast: FastConfig::test_small(Variant::Sep),
        devices,
        extra_devices: extra,
        workers: 2,
        cache_capacity: 16,
        cst_cache_bytes: 16 << 20,
        max_in_flight: 8,
        ..ServeConfig::default()
    }
}

fn serve_counts(
    g: &Arc<Graph>,
    queries: &[QueryGraph],
    devices: usize,
    extra: Vec<DeviceKind>,
) -> Vec<u64> {
    let service = FastService::new(Arc::clone(g), config(devices, extra));
    let handles: Vec<SessionHandle> = queries.iter().map(|q| service.submit(q.clone())).collect();
    let counts = handles
        .into_iter()
        .map(|h| h.wait().expect("session").embeddings)
        .collect();
    let report = service.shutdown();
    assert_eq!(report.failed, 0);
    counts
}

/// CPU-only, FPGA-only, and mixed fleets are bit-identical to each other
/// and to `run_fast`.
#[test]
fn all_fleets_agree_with_run_fast_for_every_planner() {
    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42));
    let queries: Vec<QueryGraph> = QUERY_MIX.iter().map(|&i| benchmark_query(i)).collect();

    // The fleet-independent reference: the one-shot host path.
    let oneshot: Vec<u64> = queries
        .iter()
        .map(|q| {
            fast::run_fast(q, &g, &FastConfig::test_small(Variant::Sep))
                .expect("one-shot run")
                .embeddings
        })
        .collect();
    assert!(oneshot.iter().any(|&e| e > 0), "degenerate workload");

    let fpga_only = serve_counts(&g, &queries, 2, Vec::new());
    let cpu_only = serve_counts(
        &g,
        &queries,
        0,
        vec![DeviceKind::Cpu { threads: 2 }, DeviceKind::Cpu { threads: 4 }],
    );
    let mixed = serve_counts(&g, &queries, 1, vec![DeviceKind::Cpu { threads: 4 }]);
    assert_eq!(fpga_only, oneshot, "FPGA fleet disagrees with run_fast");
    assert_eq!(cpu_only, oneshot, "CPU fallback fleet disagrees with run_fast");
    assert_eq!(mixed, oneshot, "heterogeneous fleet disagrees with run_fast");
}

/// Double-submit on every fleet, for two tenants: the second serve of
/// each query is a tier-2 hit (zero build work) and still bit-identical to
/// the first — the cached shard CSTs replay the same answer whether the
/// kernels run on emulated FPGA cards, CPU fallback shares, or a mix.
/// Tenant B (quota 3) serves an edge-sampled copy of the graph, so a
/// cross-tenant cache leak would show as a changed count.
#[test]
fn warm_tier2_serves_agree_across_fleets() {
    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42));
    let g_b = Arc::new(sample_edges(&g, 0.7, 0xB0B));
    let queries: Vec<QueryGraph> = QUERY_MIX.iter().map(|&i| benchmark_query(i)).collect();

    let fleets: [(usize, Vec<DeviceKind>); 3] = [
        (2, Vec::new()),
        (
            0,
            vec![DeviceKind::Cpu { threads: 2 }, DeviceKind::Cpu { threads: 4 }],
        ),
        (1, vec![DeviceKind::Cpu { threads: 4 }]),
    ];
    let mut reference: Option<Vec<u64>> = None;
    for (fleet_idx, (devices, extra)) in fleets.into_iter().enumerate() {
        let config = config(devices, extra);
        let budget = config.cst_cache_bytes;
        let service = FastService::new(Arc::clone(&g), config);
        let b = service
            .add_tenant(
                Arc::clone(&g_b),
                TenantConfig {
                    quota: 3,
                    ..TenantConfig::default()
                },
            )
            .expect("tenant B");
        let mut warm_counts = Vec::new();
        for (tenant, q) in [TenantId::DEFAULT, b]
            .into_iter()
            .flat_map(|t| queries.iter().map(move |q| (t, q)))
        {
            let serve = || {
                service
                    .submit_for(tenant, q.clone())
                    .expect("registered tenant")
                    .wait()
            };
            let cold = serve().expect("cold serve");
            let warm = serve().expect("warm serve");
            assert!(!cold.cst_cache_hit, "fleet {fleet_idx}: first serve must miss");
            assert!(
                warm.cst_cache_hit,
                "fleet {fleet_idx}: second serve must hit tier 2"
            );
            assert_eq!(
                warm.build_time,
                std::time::Duration::ZERO,
                "fleet {fleet_idx}: tier-2 hit must build nothing"
            );
            assert_eq!(warm.topdown_entries, 0, "fleet {fleet_idx}: no top-down scan");
            assert_eq!(
                cold.embeddings, warm.embeddings,
                "fleet {fleet_idx}: tier-2 replay changed the count"
            );
            assert_eq!(
                cold.kernel_cycles, warm.kernel_cycles,
                "fleet {fleet_idx}: tier-2 replay changed the modelled kernel work"
            );
            warm_counts.push(warm.embeddings);
        }
        let report = service.shutdown();
        assert_eq!(report.failed, 0);
        assert_eq!(report.completed, 4 * queries.len() as u64);
        assert!(report.cst_cache.hits >= 2 * queries.len() as u64);
        assert_eq!(
            report.build_hit_mean_sec, 0.0,
            "fleet {fleet_idx}: tier-2 hits build nothing"
        );
        assert!(
            report.build_miss_mean_sec > 0.0,
            "fleet {fleet_idx}: cold serves pay a build"
        );
        assert!(
            report.cst_resident_bytes > 0 && report.cst_resident_bytes <= budget,
            "fleet {fleet_idx}: resident {} bytes against a {budget} byte budget",
            report.cst_resident_bytes
        );
        assert_eq!(report.tenants.len(), 2);
        assert_eq!((report.tenants[0].quota, report.tenants[1].quota), (1, 3));
        for d in report.devices.iter().filter(|d| d.class == BackendClass::Cpu) {
            assert_eq!(d.cycles, 0, "fleet {fleet_idx}: CPU devices have no cycle notion");
        }
        let cycles: u64 = report.devices.iter().map(|d| d.cycles).sum();
        assert_eq!(
            cycles > 0,
            devices > 0,
            "fleet {fleet_idx}: only fleets with a card book kernel cycles"
        );
        match &reference {
            None => reference = Some(warm_counts),
            Some(r) => assert_eq!(
                r, &warm_counts,
                "fleet {fleet_idx}: warm counts differ across fleets"
            ),
        }
    }
}

/// CPU-executed partitions stream with class `Cpu`, zero kernel cycles,
/// and a positive modelled time — and still sum to the exact count.
#[test]
fn cpu_partitions_have_cpu_pricing() {
    use serve::SessionEvent;

    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42));
    let service = FastService::new(
        Arc::clone(&g),
        config(0, vec![DeviceKind::Cpu { threads: 2 }]),
    );
    let handle = service.submit(benchmark_query(1));
    let mut streamed = 0u64;
    let report = loop {
        match handle.next_event().expect("session alive") {
            SessionEvent::Partition(u) => {
                assert_eq!(u.backend, BackendClass::Cpu);
                assert_eq!(u.kernel_cycles, 0, "CPU partitions have no cycle notion");
                assert!(u.modeled_sec >= 0.0 && u.modeled_sec.is_finite());
                streamed += u.embeddings;
            }
            SessionEvent::Done(r) => break r,
            SessionEvent::Failed(e) => panic!("failed: {e}"),
        }
    };
    assert_eq!(streamed, report.embeddings);
    assert_eq!(report.kernel_cycles, 0);
    let final_report = service.shutdown();
    assert_eq!(final_report.devices.len(), 1);
    assert_eq!(final_report.devices[0].class, BackendClass::Cpu);
    assert_eq!(final_report.devices[0].cycles, 0);
    assert!(final_report.device_busy_sec > 0.0);
}
