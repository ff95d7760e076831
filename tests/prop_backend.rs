//! Backend-equivalence tests: the heterogeneous device pool must never
//! change an answer. A CPU-only fleet, an FPGA-only fleet, and a mixed
//! fleet serve bit-identical embedding counts for every shard planner on
//! the benchmark queries — and all of them agree with the one-shot
//! `run_fast` path.

use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{benchmark_query, Graph, QueryGraph};
use serve::{DeviceKind, FastService, ServeConfig, SessionHandle};
use std::sync::Arc;

/// The small-figure query subset the serving studies use (q0 path, q1/q2
/// cycles, q4 cycle) — planner-heavy and flat shapes together.
const QUERY_MIX: [usize; 4] = [0, 1, 2, 4];

fn config(planner: ShardPlanner, devices: usize, extra: Vec<DeviceKind>) -> ServeConfig {
    let mut fast = FastConfig::test_small(Variant::Sep);
    fast.shard_planner = planner;
    ServeConfig {
        fast,
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
    planner: ShardPlanner,
    devices: usize,
    extra: Vec<DeviceKind>,
) -> Vec<u64> {
    let service = FastService::new(Arc::clone(g), config(planner, devices, extra));
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
/// and to `run_fast`, for all four shard planners.
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

    for planner in [
        ShardPlanner::Contiguous,
        ShardPlanner::WorkloadBalanced,
        ShardPlanner::OverlapAware,
        ShardPlanner::Auto,
    ] {
        let fpga_only = serve_counts(&g, &queries, planner, 2, Vec::new());
        let cpu_only = serve_counts(
            &g,
            &queries,
            planner,
            0,
            vec![DeviceKind::Cpu { threads: 2 }, DeviceKind::Cpu { threads: 4 }],
        );
        let mixed = serve_counts(
            &g,
            &queries,
            planner,
            1,
            vec![DeviceKind::Cpu { threads: 4 }],
        );
        assert_eq!(
            fpga_only, oneshot,
            "{planner}: FPGA fleet disagrees with run_fast"
        );
        assert_eq!(
            cpu_only, oneshot,
            "{planner}: CPU fallback fleet disagrees with run_fast"
        );
        assert_eq!(
            mixed, oneshot,
            "{planner}: heterogeneous fleet disagrees with run_fast"
        );
    }
}

/// Double-submit on every fleet: the second serve of each query is a
/// tier-2 hit (zero build work) and still bit-identical to the first —
/// the cached shard CSTs replay the same answer whether the kernels run
/// on emulated FPGA cards, CPU fallback shares, or a mix.
#[test]
fn warm_tier2_serves_agree_across_fleets() {
    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42));
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
        let service = FastService::new(
            Arc::clone(&g),
            config(ShardPlanner::Auto, devices, extra),
        );
        let mut warm_counts = Vec::new();
        for q in &queries {
            let cold = service.submit(q.clone()).wait().expect("cold serve");
            let warm = service.submit(q.clone()).wait().expect("warm serve");
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
        assert!(report.cst_cache.hits >= queries.len() as u64);
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
    use fast::BackendClass;
    use serve::SessionEvent;

    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42));
    let service = FastService::new(
        Arc::clone(&g),
        config(
            ShardPlanner::Auto,
            0,
            vec![DeviceKind::Cpu { threads: 2 }],
        ),
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
