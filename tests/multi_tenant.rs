//! Multi-tenant service tests: weighted-fair admission under saturation,
//! snapshot-loaded tenants, per-tenant report slices, and epoch isolation.

use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::{graph_fingerprint, save_snapshot, Label, QueryGraph};
use serve::{FastService, QueryReport, ServeConfig, TenantConfig, TenantId};
use std::sync::Arc;

fn config(workers: usize, max_in_flight: usize) -> ServeConfig {
    let mut fast = FastConfig::test_small(Variant::Sep);
    fast.shard_planner = ShardPlanner::Auto;
    ServeConfig {
        fast,
        devices: 1,
        extra_devices: Vec::new(),
        workers,
        cache_capacity: 16,
        cst_cache_bytes: 16 << 20,
        max_in_flight,
        ..ServeConfig::default()
    }
}

fn triangle() -> QueryGraph {
    QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap()
}

/// Under saturation, a 1:3 quota split serves tenant B ~3 of every 4
/// completions. With one worker the deficit round-robin is deterministic,
/// so any post-ramp window of the completion sequence lands within ±20%
/// of B's 0.75 fair share.
#[test]
fn saturated_tenants_complete_in_quota_proportion() {
    // Big enough that one session (~30k kernel expansions) outlasts all 80
    // submits, however fast the kernel gets: the premise below is that the
    // lanes are backlogged, not that the machine is slow.
    let g = Arc::new(random_labelled_graph(240, 0.1, 2, 42));
    // One worker: completions happen in exactly the order the weighted
    // round-robin pops them.
    let service = FastService::new(Arc::clone(&g), config(1, 96));
    let b = service
        .add_tenant(
            Arc::clone(&g),
            TenantConfig {
                quota: 3,
                ..TenantConfig::default()
            },
        )
        .unwrap();

    // Enqueue 40 sessions per tenant, interleaved, far faster than one
    // worker can drain them: both lanes stay backlogged throughout.
    let mut handles = Vec::new();
    for _ in 0..40 {
        handles.push(service.submit(triangle()));
        handles.push(service.submit_for(b, triangle()).unwrap());
    }
    let mut reports: Vec<QueryReport> = handles
        .into_iter()
        .map(|h| h.wait().expect("session"))
        .collect();
    reports.sort_by_key(|r| r.completion_seq);

    // Skip the ramp (submissions racing the first pops), then measure a
    // 32-completion window.
    let window = &reports[8..40];
    let b_share = window.iter().filter(|r| r.tenant == b).count() as f64 / window.len() as f64;
    assert!(
        (0.6..=0.9).contains(&b_share),
        "tenant B fair share is 0.75 (quota 3 of 4); window gave {b_share}: {:?}",
        window.iter().map(|r| r.tenant).collect::<Vec<_>>()
    );

    // Per-tenant slices account for every session.
    let report = service.shutdown();
    assert_eq!(report.completed, 80);
    assert_eq!(report.tenants.len(), 2);
    let slice_a = &report.tenants[0];
    let slice_b = &report.tenants[1];
    assert_eq!(slice_a.tenant, TenantId::DEFAULT);
    assert_eq!((slice_a.quota, slice_b.quota), (1, 3));
    assert_eq!(slice_a.completed, 40);
    assert_eq!(slice_b.completed, 40);
    assert_eq!(
        slice_a.total_embeddings + slice_b.total_embeddings,
        report.total_embeddings
    );
    assert!(
        slice_b.cst_hit_rate > 0.0,
        "repeats hit B's tier-2 cache partition"
    );
    assert!(
        slice_b.cst_resident_bytes > 0,
        "B's cached artifacts occupy resident bytes"
    );
}

/// A tenant loaded from a binary snapshot serves identically to the tenant
/// the snapshot was taken from, and the loaded graph fingerprints equal.
#[test]
fn snapshot_loaded_tenant_serves_identically() {
    let g = random_labelled_graph(60, 0.25, 2, 7);
    let path = std::env::temp_dir().join(format!(
        "fast-sm-tenant-snapshot-{}.bin",
        std::process::id()
    ));
    save_snapshot(&g, &path).expect("snapshot write");

    let fingerprint = graph_fingerprint(&g);
    let service = FastService::new(g, config(2, 8));
    let restored = service
        .load_tenant_snapshot(&path, TenantConfig::default())
        .expect("snapshot load");
    std::fs::remove_file(&path).ok();

    assert_eq!(
        graph_fingerprint(&service.tenant_graph(restored).unwrap()),
        fingerprint,
        "snapshot round-trip must preserve the graph bit-for-bit"
    );
    let original = service.submit(triangle()).wait().unwrap();
    let loaded = service
        .submit_for(restored, triangle())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(original.embeddings, loaded.embeddings);
    assert!(original.embeddings > 0, "degenerate workload");
    service.shutdown();
}

/// A missing or corrupt snapshot is a typed error, not a panic.
#[test]
fn bad_snapshots_are_typed_errors() {
    let g = random_labelled_graph(20, 0.2, 1, 9);
    let service = FastService::new(g, config(1, 4));
    let missing = std::env::temp_dir().join("fast-sm-no-such-snapshot.bin");
    let err = service
        .load_tenant_snapshot(&missing, TenantConfig::default())
        .unwrap_err();
    assert!(matches!(err, serve::ServeError::Snapshot(_)), "{err}");

    let corrupt = std::env::temp_dir().join(format!(
        "fast-sm-corrupt-snapshot-{}.bin",
        std::process::id()
    ));
    std::fs::write(&corrupt, b"not a snapshot at all").unwrap();
    let err = service
        .load_tenant_snapshot(&corrupt, TenantConfig::default())
        .unwrap_err();
    std::fs::remove_file(&corrupt).ok();
    assert!(matches!(err, serve::ServeError::Snapshot(_)), "{err}");
    service.shutdown();
}

/// Epochs are per tenant: bumping one tenant's epoch invalidates its
/// cached plans without touching another tenant's warm cache.
#[test]
fn epoch_bumps_are_tenant_scoped() {
    let g = Arc::new(random_labelled_graph(60, 0.2, 2, 11));
    let service = FastService::new(Arc::clone(&g), config(2, 8));
    let b = service
        .add_tenant(Arc::clone(&g), TenantConfig::default())
        .unwrap();

    // Warm both tenants' cache partitions.
    for _ in 0..2 {
        service.submit(triangle()).wait().unwrap();
        service.submit_for(b, triangle()).unwrap().wait().unwrap();
    }
    assert_eq!(service.bump_epoch(TenantId::DEFAULT).unwrap(), 1);

    let a_after = service.submit(triangle()).wait().unwrap();
    let b_after = service.submit_for(b, triangle()).unwrap().wait().unwrap();
    assert!(!a_after.cache_hit, "bumped tenant must miss");
    assert!(b_after.cache_hit, "other tenant's plans stay warm");
    assert_eq!(a_after.embeddings, b_after.embeddings);

    let report = service.shutdown();
    assert_eq!(report.tenants[0].epoch, 1);
    assert_eq!(report.tenants[1].epoch, 0);
}
