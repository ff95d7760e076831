//! Mixed-tenant serving study (`tenants` figure target): two tenants with
//! a 1:3 quota split driving one service, swept over fleet composition
//! (FPGA-only, CPU-fallback-only, heterogeneous) × cache mode (cold/warm).
//!
//! Each tenant runs its own closed-loop client pool against its own graph
//! (the dataset graph for tenant A, an edge-sampled variant for tenant B,
//! so a cross-tenant cache collision would be visible as a wrong count).
//! The table reports service QPS and latency percentiles plus the
//! per-tenant slices; the release-mode test pins the acceptance bar:
//! per-tenant counts are bit-identical across all three fleets, and under
//! saturation the quota split steers completions toward the heavy tenant.

use crate::harness::DatasetCache;
use fast::{FastConfig, Variant};
use graph_core::{benchmark_query, sample_edges, DatasetId, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{
    DeviceKind, FastService, ServeConfig, ServeReport, TenantConfig, TenantId, TenantSummary,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The repeated query mix (shared with the single-tenant serving study).
pub const QUERY_MIX: [usize; 4] = [0, 1, 2, 4];

/// Quota split: tenant B gets 3× tenant A's fair share.
pub const QUOTAS: (u32, u32) = (1, 3);

/// Fleet compositions the sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// Two emulated FPGA cards (the pre-heterogeneous pool).
    FpgaOnly,
    /// CPU fallback shares only — serving survives with zero cards.
    CpuOnly,
    /// Two cards plus a CPU fallback share.
    Heterogeneous,
}

impl std::fmt::Display for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Fleet::FpgaOnly => "fpga-only",
            Fleet::CpuOnly => "cpu-only",
            Fleet::Heterogeneous => "hetero",
        })
    }
}

/// One (fleet, cache mode) cell of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    pub fleet: Fleet,
    pub warm: bool,
    pub report: ServeReport,
    /// Embeddings per (tenant index, query) — the bit-identity witness.
    pub embeddings: BTreeMap<(usize, usize), u64>,
}

fn serve_config(fleet: Fleet, cache_capacity: usize, clients: usize) -> ServeConfig {
    let fast = FastConfig {
        spec: crate::harness::experiment_spec(),
        ..FastConfig::for_variant(Variant::Sep)
    };
    let (devices, extra_devices) = match fleet {
        Fleet::FpgaOnly => (2, Vec::new()),
        Fleet::CpuOnly => (
            0,
            vec![DeviceKind::Cpu { threads: 2 }, DeviceKind::Cpu { threads: 2 }],
        ),
        Fleet::Heterogeneous => (2, vec![DeviceKind::Cpu { threads: 2 }]),
    };
    ServeConfig {
        fast,
        devices,
        extra_devices,
        workers: clients.clamp(1, 8),
        cache_capacity,
        // Cold cells disable both tiers; warm cells keep the default
        // tier-2 byte budget so repeats replay the cached shard CSTs.
        cst_cache_bytes: if cache_capacity == 0 {
            0
        } else {
            ServeConfig::default().cst_cache_bytes
        },
        max_in_flight: (2 * clients).max(1),
        ..ServeConfig::default()
    }
}

/// Drives both tenants' closed-loop clients and returns the per-tenant
/// per-query counts each client observed.
fn drive(
    service: &FastService,
    tenants: &[TenantId; 2],
    clients_per_tenant: usize,
    requests_per_client: usize,
) -> BTreeMap<(usize, usize), u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2 * clients_per_tenant)
            .map(|c| {
                let tenant_idx = c % 2;
                let tenant = tenants[tenant_idx];
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        0xFA572_u64 ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut seen: BTreeMap<(usize, usize), u64> = BTreeMap::new();
                    for _ in 0..requests_per_client {
                        let qi = QUERY_MIX[rng.gen_range(0..QUERY_MIX.len())];
                        let report = service
                            .submit_for(tenant, benchmark_query(qi))
                            .expect("registered tenant")
                            .wait()
                            .expect("session completes");
                        if let Some(prev) = seen.insert((tenant_idx, qi), report.embeddings) {
                            assert_eq!(
                                prev, report.embeddings,
                                "tenant {tenant} q{qi}: count changed between repeats"
                            );
                        }
                    }
                    seen
                })
            })
            .collect();
        let mut merged: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for h in handles {
            for (key, e) in h.join().expect("client thread") {
                if let Some(prev) = merged.insert(key, e) {
                    assert_eq!(prev, e, "{key:?}: clients disagree on the count");
                }
            }
        }
        merged
    })
}

fn run_cell(
    graphs: &(Arc<Graph>, Arc<Graph>),
    fleet: Fleet,
    warm: bool,
    clients_per_tenant: usize,
    requests_per_client: usize,
) -> Row {
    let capacity = if warm { 64 } else { 0 };
    let service = FastService::new(
        Arc::clone(&graphs.0),
        serve_config(fleet, capacity, 2 * clients_per_tenant),
    );
    let b = service
        .add_tenant(
            Arc::clone(&graphs.1),
            TenantConfig {
                quota: QUOTAS.1,
                ..TenantConfig::default()
            },
        )
        .expect("tenant B");
    let embeddings = drive(
        &service,
        &[TenantId::DEFAULT, b],
        clients_per_tenant,
        requests_per_client,
    );
    let report = service.shutdown();
    Row {
        fleet,
        warm,
        report,
        embeddings,
    }
}

/// Runs the fleet × cache sweep on `dataset`.
pub fn run(
    cache: &mut DatasetCache,
    dataset: DatasetId,
    clients_per_tenant: usize,
    requests_per_client: usize,
) -> Vec<Row> {
    let a = Arc::new(cache.get(dataset).clone());
    // Tenant B: the same dataset with 70% of the edges — structurally
    // similar load, but any cross-tenant plan/graph leak changes a count.
    let b = Arc::new(sample_edges(&a, 0.7, 0xB0B));
    let graphs = (a, b);
    let mut rows = Vec::new();
    for fleet in [Fleet::FpgaOnly, Fleet::CpuOnly, Fleet::Heterogeneous] {
        for warm in [false, true] {
            rows.push(run_cell(
                &graphs,
                fleet,
                warm,
                clients_per_tenant,
                requests_per_client,
            ));
        }
    }
    // Bit-identity across every cell: fleet composition and cache mode
    // must never change a tenant's answer.
    for w in rows.windows(2) {
        assert_eq!(
            w[0].embeddings, w[1].embeddings,
            "{}/{} vs {}/{}: fleet or cache mode changed a per-tenant count",
            w[0].fleet,
            if w[0].warm { "warm" } else { "cold" },
            w[1].fleet,
            if w[1].warm { "warm" } else { "cold" },
        );
    }
    rows
}

fn tenant_cell(t: &TenantSummary) -> String {
    format!("{:.1} qps/{}c", t.qps, t.completed)
}

/// Renders the sweep table.
pub fn render(dataset: DatasetId, rows: &[Row]) -> String {
    let header: Vec<String> = [
        "fleet",
        "cache",
        "QPS",
        "p50",
        "p99",
        "cst hit rate",
        "t0 (quota 1)",
        "t1 (quota 3)",
        "devices busy",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let ms = |sec: f64| format!("{:.1}ms", sec * 1e3);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let busy: Vec<String> = r
                .report
                .devices
                .iter()
                .map(|d| format!("{}:{:.2}s", d.class, d.busy_sec))
                .collect();
            vec![
                r.fleet.to_string(),
                if r.warm { "warm" } else { "cold" }.to_string(),
                format!("{:.1}", r.report.qps),
                ms(r.report.latency_p50),
                ms(r.report.latency_p99),
                format!("{:.0}%", r.report.cst_cache.hit_rate() * 100.0),
                tenant_cell(&r.report.tenants[0]),
                tenant_cell(&r.report.tenants[1]),
                busy.join(" "),
            ]
        })
        .collect();
    format!(
        "Mixed-tenant serving on {dataset} (two tenants, quotas {}:{}; closed loop over q{:?}; \
         per-tenant counts asserted bit-identical across fleets and cache modes)\n{}",
        QUOTAS.0,
        QUOTAS.1,
        QUERY_MIX,
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance: every fleet serves both tenants with identical counts
    /// (asserted inside `run`), warm caches hit on repeats, and CPU-only
    /// fleets book zero kernel cycles.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full mixed-tenant sweep; covered by the release-mode CI step"
    )]
    fn fleets_agree_and_warm_caches_hit() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg01, 2, 10);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.report.failed, 0);
            assert_eq!(r.report.tenants.len(), 2);
            assert_eq!(r.report.tenants[1].quota, QUOTAS.1);
            if r.warm {
                assert!(
                    r.report.cst_cache.hit_rate() > 0.5,
                    "{}: warm tier-2 hit rate {:.2}",
                    r.fleet,
                    r.report.cst_cache.hit_rate()
                );
                assert_eq!(
                    r.report.build_hit_mean_sec, 0.0,
                    "{}: tier-2 hits must build nothing",
                    r.fleet
                );
            } else {
                assert_eq!(r.report.cache.hits, 0, "{}: cold must never hit", r.fleet);
                assert_eq!(
                    r.report.cst_cache.hits, 0,
                    "{}: cold tier 2 must never hit",
                    r.fleet
                );
            }
            let cycles: u64 = r.report.devices.iter().map(|d| d.cycles).sum();
            if r.fleet == Fleet::CpuOnly {
                assert_eq!(cycles, 0, "CPU fleets have no cycle notion");
            } else {
                assert!(cycles > 0, "{}: FPGA devices must book cycles", r.fleet);
            }
        }
    }
}
