//! Multi-tenant serving quickstart: one [`serve::FastService`] hosting two
//! tenants — each with its own graph, fair-share quota, and cache
//! partition — over a heterogeneous device pool (emulated FPGA cards plus
//! a CPU fallback share), with one tenant restored from a binary CSR
//! snapshot instead of rebuilding its graph.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use fast::{FastConfig, Variant};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{benchmark_query, graph_fingerprint, save_snapshot};
use serve::{DeviceKind, FastService, ServeConfig, TenantConfig};

fn main() {
    // Tenant A's graph is loaded directly; tenant B's arrives via the
    // snapshot path a restart would take.
    let graph_a = generate_ldbc(&LdbcParams::with_scale_factor(0.5), 7);
    let graph_b = generate_ldbc(&LdbcParams::with_scale_factor(0.3), 21);
    let snapshot_path =
        std::env::temp_dir().join(format!("fast-sm-multi-tenant-{}.bin", std::process::id()));
    save_snapshot(&graph_b, &snapshot_path).expect("snapshot write");
    let fingerprint_b = graph_fingerprint(&graph_b);
    drop(graph_b); // B is served from the snapshot alone.

    let fast = FastConfig::for_variant(Variant::Sep);
    let service = FastService::new(
        graph_a,
        ServeConfig {
            fast,
            devices: 2,
            // A CPU fallback share joins the two emulated cards: the
            // scheduler prices it under the search-cost model and steers
            // partitions wherever expected completion is shortest.
            extra_devices: vec![DeviceKind::Cpu { threads: 4 }],
            workers: 4,
            cst_cache_bytes: ServeConfig::default().cst_cache_bytes,
            max_in_flight: 16,
            ..ServeConfig::default()
        },
    );
    let tenant_b = service
        .load_tenant_snapshot(
            &snapshot_path,
            TenantConfig {
                quota: 3, // 3× tenant A's fair share under saturation
                ..TenantConfig::default()
            },
        )
        .expect("snapshot load");
    std::fs::remove_file(&snapshot_path).ok();
    let restored = service.tenant_graph(tenant_b).expect("tenant exists");
    assert_eq!(
        graph_fingerprint(&restored),
        fingerprint_b,
        "snapshot round-trip preserves the graph bit-for-bit"
    );
    println!(
        "tenant A: {} vertices (loaded) | tenant B: {} vertices (restored from snapshot, quota 3)\n",
        service.graph().vertex_count(),
        restored.vertex_count()
    );

    // A mixed stream: both tenants submit the same query shapes against
    // their own graphs; repeats hit each tenant's private cache partition.
    let mix = [1usize, 2, 1, 0, 1, 2, 1, 1];
    let mut handles = Vec::new();
    for &qi in &mix {
        handles.push(service.submit(benchmark_query(qi))); // tenant A
        handles.push(
            service
                .submit_for(tenant_b, benchmark_query(qi))
                .expect("tenant B session"),
        );
    }
    for h in handles {
        let r = h.wait().expect("session completes");
        println!(
            "{}: session {:>2} -> {:>8} embeddings over {:>3} partitions  {}",
            r.tenant,
            r.id,
            r.embeddings,
            r.partitions,
            if r.cst_cache_hit { "hit" } else { "miss" },
        );
    }

    let report = service.shutdown();
    println!(
        "\nserved {} sessions at {:.1} QPS across {} devices ({} FPGA-cycles modelled)",
        report.completed,
        report.qps,
        report.devices.len(),
        report.devices.iter().map(|d| d.cycles).sum::<u64>(),
    );
    for t in &report.tenants {
        println!(
            "  {}: quota {} | {} completed | {:>9} embeddings | cache hit rate {:.0}% ({} resident bytes)",
            t.tenant,
            t.quota,
            t.completed,
            t.total_embeddings,
            t.cst_hit_rate * 100.0,
            t.cst_resident_bytes
        );
    }
    for (i, d) in report.devices.iter().enumerate() {
        println!(
            "  device {i} ({}): {:>3} partitions, {:.3}s modelled busy",
            d.class, d.partitions, d.busy_sec
        );
    }
    assert_eq!(report.tenants.len(), 2);
    assert!(
        report.cst_cache.hits > 0,
        "repeats must hit the tenant caches"
    );
}
