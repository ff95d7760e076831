//! Host-pipeline scaling: the sharded multi-threaded CST build+partition.
//!
//! Beyond the paper: the Remark in Section V-A notes the FPGA idles while
//! the CPU builds and partitions the CST, and the `probe` time split shows
//! those phases dominating host time at DG10. This figure sweeps the
//! `host_threads` knob of the sharded pipeline (`cst::pipeline`,
//! `FastConfig::host_threads`) — under both the blind contiguous shard
//! planner and the workload-aware `Auto` planner (`cst::planner`) — and
//! reports the host preparation time.
//!
//! Two numbers per point, per the repo's measurement policy (DESIGN.md §6):
//!
//! * **modelled prepare** — the overlapped host model on the paper's
//!   8-core Xeon (`fill + max(build_par − fill, partition)`; see
//!   `fast::host` docs). This is the figure's scaling metric: its work
//!   terms are thread-count independent (the shard plan never depends on
//!   the thread count), so it isolates the parallelisation effect from
//!   machine noise and core count.
//! * **measured build wall** — the real wall clock of the build phase on
//!   *this* machine, reported for honesty: on a single-core CI container
//!   threads time-share and the wall cannot improve.
//!
//! Probing planners additionally run a **seeded vs cold** comparison
//! (`FastConfig::seed_from_probe` on vs off): seeded builds start from the
//! probe's memoised candidate space, so the plan column (the probe charged
//! as *overhead*, `FastReport::modeled_plan_overhead_sec`) collapses to 0
//! and the per-shard top-down scans disappear. The seeded-vs-cold bar is
//! asserted on the **deterministic** scan-work counter
//! (`FastReport::build_topdown_entries` — the probe cost is identical on
//! both sides, so comparing the builds' scan work compares total prepare
//! work), with the measured build CPU seconds reported alongside.
//!
//! Embedding counts are asserted identical to the sequential pipeline at
//! every thread count and planner (the pipeline's correctness bar), and
//! the `Auto` planner's modelled prepare is asserted ≤ the contiguous
//! planner's **per query** — the planner must not regress the flat
//! queries that already scale.

use crate::harness::{experiment_config, DatasetCache};
use fast::{FastReport, ShardPlanner, Variant};
use graph_core::{benchmark_query, DatasetId};
use std::collections::HashMap;

/// One (planner, thread-count) point, aggregated over the query set.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: DatasetId,
    pub planner: ShardPlanner,
    pub threads: usize,
    /// Shard counts over the query set: fixed (16) for contiguous rows,
    /// the planner's per-query choices for auto rows.
    pub shards: String,
    /// Total embeddings over the query set — identical across rows.
    pub embeddings: u64,
    /// Modelled overlapped host preparation seconds (build ∥ partition).
    pub modeled_prepare_sec: f64,
    /// Modelled shard-planning *overhead* seconds: the probe charged only
    /// when its candidate space was not consumed by seeded builds
    /// (`FastReport::modeled_plan_overhead_sec`) — ~0 for seeded rows.
    pub modeled_plan_sec: f64,
    /// Modelled end-to-end elapsed seconds.
    pub modeled_total_sec: f64,
    /// Measured wall seconds of the build phase on this machine.
    pub build_wall_sec: f64,
    /// Measured CPU seconds spent building (total work across shards),
    /// with seeding on (the default).
    pub build_cpu_sec: f64,
    /// Measured CPU build seconds with seeding **off** (cold top-down
    /// scans per shard); equals [`build_cpu_sec`](Self::build_cpu_sec) for
    /// the contiguous planner, which never probes.
    pub build_cpu_cold_sec: f64,
    /// Phase-1 scan work across shard builds with seeding on
    /// (deterministic; 0 when every shard was seeded).
    pub topdown_entries: usize,
    /// Phase-1 scan work with seeding off — what the probe's single pass
    /// replaces.
    pub cold_topdown_entries: usize,
}

/// Thread counts swept (the paper's host is an 8-core Xeon).
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Planners swept: the blind baseline and the workload-aware auto planner.
pub const PLANNERS: [ShardPlanner; 2] = [ShardPlanner::Contiguous, ShardPlanner::Auto];

/// Shard count for the contiguous parallel rows (the auto planner picks
/// per query, capped at the default 16). Fixed — never derived from the
/// thread count — so every parallel row partitions the identical shard
/// stream; see `cst::pipeline` on determinism.
pub const SHARDS: usize = 16;

/// Queries aggregated over: the root-shardable subset of the benchmark
/// queries. Under the blind contiguous planner, root sharding duplicates
/// interior candidates 2.7–4.6× on the hub-dominated queries (q1, q2, q3,
/// q8 — the same skew/overlap effect the paper's Fig. 14 commentary notes
/// for the root-sharded DAF-8/CECI-8 baselines), so this figure sticks to
/// the queries where sharding already pays; the `shardplan` figure covers
/// the full set per planner. EXPERIMENTS.md records both tables.
pub const QUERIES: [usize; 5] = [0, 4, 5, 6, 7];

/// The modelled host-preparation time of a report: the part of the
/// overlapped elapsed model that precedes the CPU matching share.
pub fn modeled_prepare_sec(r: &FastReport) -> f64 {
    r.modeled_fill_sec
        + (r.modeled_build_parallel_sec - r.modeled_fill_sec).max(r.modeled_partition_sec)
}

/// Runs the planner × thread sweep on `dataset` over `queries`.
///
/// # Panics
/// Panics if any (planner, thread count) changes the embedding count, if
/// the auto planner's modelled prepare exceeds the contiguous planner's on
/// any query at any thread count, or if a seeded run's prepare scan work
/// exceeds the cold run's on any query (the probe-seeded build bar: with
/// the probe identical on both sides, seeded builds must never scan more
/// than cold ones — and must not scan at all when every shard seeded).
pub fn run(cache: &mut DatasetCache, dataset: DatasetId, queries: &[usize]) -> Vec<Row> {
    let g = cache.get(dataset);
    let mut rows = Vec::new();
    // Per-query contiguous prepare, keyed by (threads, query) — the
    // no-regression bar for the auto rows.
    let mut contiguous_prepare: HashMap<(usize, usize), f64> = HashMap::new();
    for &planner in &PLANNERS {
        for &threads in &THREADS {
            let mut config = experiment_config(Variant::Sep);
            config.host_threads = threads;
            config.pipeline_shards = Some(SHARDS);
            config.shard_planner = planner;
            let mut embeddings = 0u64;
            let mut prepare = 0.0f64;
            let mut plan = 0.0f64;
            let mut total = 0.0f64;
            let mut build_wall = 0.0f64;
            let mut build_cpu = 0.0f64;
            let mut build_cpu_cold = 0.0f64;
            let mut topdown = 0usize;
            let mut cold_topdown = 0usize;
            let mut shards: Vec<usize> = Vec::new();
            for &qi in queries {
                let q = benchmark_query(qi);
                let report = fast::run_fast(&q, g, &config).unwrap();
                let q_prepare = modeled_prepare_sec(&report);
                match planner {
                    ShardPlanner::Contiguous => {
                        contiguous_prepare.insert((threads, qi), q_prepare);
                    }
                    _ => {
                        let bar = contiguous_prepare[&(threads, qi)];
                        assert!(
                            q_prepare <= bar + 1e-12,
                            "{planner} regressed q{qi} at {threads} threads: \
                             {q_prepare:.6}s > contiguous {bar:.6}s"
                        );
                    }
                }
                embeddings += report.embeddings;
                prepare += q_prepare;
                plan += report.modeled_plan_overhead_sec();
                total += report.modeled_total_sec();
                build_wall += report.build_time.as_secs_f64();
                topdown += report.build_topdown_entries;
                shards.push(report.pipeline_shards);
                if planner == ShardPlanner::Contiguous || threads == 1 {
                    // Seeding is a no-op without a probe (the contiguous
                    // planner never probes; threads == 1 takes the
                    // sequential, unplanned flow): the cold columns are the
                    // run itself — rerunning would recompute identical
                    // numbers.
                    build_cpu += report.build_cpu_time.as_secs_f64();
                    build_cpu_cold += report.build_cpu_time.as_secs_f64();
                    cold_topdown += report.build_topdown_entries;
                } else {
                    // The seeded-vs-cold bar: rerun with seeding disabled.
                    let mut cold_config = config.clone();
                    cold_config.seed_from_probe = false;
                    let cold = fast::run_fast(&q, g, &cold_config).unwrap();
                    assert_eq!(
                        cold.embeddings, report.embeddings,
                        "{planner} q{qi}: seeding changed the count"
                    );
                    assert_eq!(cold.pipeline_shards, report.pipeline_shards);
                    assert!(
                        report.build_topdown_entries <= cold.build_topdown_entries,
                        "{planner} q{qi} at {threads} threads: seeded prepare scanned \
                         more than cold ({} > {})",
                        report.build_topdown_entries,
                        cold.build_topdown_entries,
                    );
                    if report.seeded_shards == report.pipeline_shards
                        && cold.build_topdown_entries > 0
                    {
                        assert_eq!(
                            report.build_topdown_entries, 0,
                            "{planner} q{qi}: fully seeded build still scanned"
                        );
                    }
                    build_cpu += report.build_cpu_time.as_secs_f64();
                    build_cpu_cold += cold.build_cpu_time.as_secs_f64();
                    cold_topdown += cold.build_topdown_entries;
                }
            }
            if let Some(first) = rows.first() {
                let first: &Row = first;
                assert_eq!(
                    embeddings, first.embeddings,
                    "{planner}/{threads} threads changed the embedding count"
                );
            }
            shards.dedup();
            rows.push(Row {
                dataset,
                planner,
                threads,
                shards: shards
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
                embeddings,
                modeled_prepare_sec: prepare,
                modeled_plan_sec: plan,
                modeled_total_sec: total,
                build_wall_sec: build_wall,
                build_cpu_sec: build_cpu,
                build_cpu_cold_sec: build_cpu_cold,
                topdown_entries: topdown,
                cold_topdown_entries: cold_topdown,
            });
        }
    }
    rows
}

/// Renders the figure.
pub fn render(dataset: DatasetId, rows: &[Row]) -> String {
    let base = rows
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.modeled_prepare_sec)
        .unwrap_or(0.0);
    let header: Vec<String> = [
        "planner",
        "threads",
        "shards",
        "modelled prepare",
        "speedup",
        "plan overhead",
        "modelled total",
        "build wall (this host)",
        "build cpu",
        "build cpu (cold)",
        "topdown scans",
        "topdown scans (cold)",
        "#embeddings",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.planner.to_string(),
                r.threads.to_string(),
                r.shards.clone(),
                crate::harness::fmt_time(r.modeled_prepare_sec),
                crate::harness::fmt_speedup(base / r.modeled_prepare_sec),
                crate::harness::fmt_time(r.modeled_plan_sec),
                crate::harness::fmt_time(r.modeled_total_sec),
                crate::harness::fmt_time(r.build_wall_sec),
                crate::harness::fmt_time(r.build_cpu_sec),
                crate::harness::fmt_time(r.build_cpu_cold_sec),
                r.topdown_entries.to_string(),
                r.cold_topdown_entries.to_string(),
                r.embeddings.to_string(),
            ]
        })
        .collect();
    format!(
        "Host-pipeline scaling on {dataset} (sharded CST build + partition, contiguous {} shards vs auto-planned; \
         auto builds are probe-seeded — 'cold' columns rerun them with seeding off)\n{}",
        SHARDS,
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_identical_and_modeled_prepare_monotone() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg01, &[0, 6]);
        assert_eq!(rows.len(), PLANNERS.len() * THREADS.len());
        // `run` itself asserts count identity and the per-query
        // auto ≤ contiguous bar; monotone non-increasing modelled prepare
        // over threads (per planner) is the scaling claim.
        for planner_rows in rows.chunks(THREADS.len()) {
            for w in planner_rows.windows(2) {
                assert!(
                    w[1].modeled_prepare_sec <= w[0].modeled_prepare_sec + 1e-12,
                    "{} threads {}→{}: {} → {}",
                    w[0].planner,
                    w[0].threads,
                    w[1].threads,
                    w[0].modeled_prepare_sec,
                    w[1].modeled_prepare_sec
                );
            }
        }
    }

    /// The probe-seeded build bar on the hostscale target: auto-planned
    /// (probing) rows build from the probe's candidate space — no top-down
    /// scan where the cold reruns scan — so the probe is absorbed (plan
    /// overhead 0). Threads == 1 runs the sequential, unplanned flow; only
    /// the pipelined rows carry a probe to seed from.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full figure run; covered by the release-mode CI test step"
    )]
    fn seeded_rows_scan_nothing_and_absorb_the_probe() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg03, &QUERIES);
        for r in rows
            .iter()
            .filter(|r| r.planner != ShardPlanner::Contiguous && r.threads > 1)
        {
            let at = format!("{} at {} threads", r.planner, r.threads);
            assert_eq!(
                r.topdown_entries, 0,
                "{at}: seeded builds must not scan top-down"
            );
            assert!(
                r.cold_topdown_entries > 0,
                "{at}: cold builds scan top-down"
            );
            assert_eq!(
                r.modeled_plan_sec, 0.0,
                "{at}: the probe is absorbed into seeded builds"
            );
        }
    }
}
