//! Host-pipeline scaling: the sharded multi-threaded CST build+partition.
//!
//! Beyond the paper: the Remark in Section V-A notes the FPGA idles while
//! the CPU builds and partitions the CST, and the `probe` time split shows
//! those phases dominating host time at DG10. This figure sweeps the
//! `host_threads` knob of the sharded pipeline (`cst::pipeline`,
//! `FastConfig::host_threads`), which cuts the root candidate set into
//! contiguous equal-count shards above one thread, and reports the host
//! preparation time.
//!
//! Two numbers per point, per the repo's measurement policy (DESIGN.md §6):
//!
//! * **modelled prepare** — the overlapped host model on the paper's
//!   8-core Xeon (`fill + max(build_par − fill, partition)`; see
//!   `fast::host` docs). This is the figure's scaling metric: its work
//!   terms are thread-count independent (the shard cut never depends on
//!   the thread count), so it isolates the parallelisation effect from
//!   machine noise and core count.
//! * **measured build wall** — the real wall clock of the build phase on
//!   *this* machine, reported for honesty: on a single-core CI container
//!   threads time-share and the wall cannot improve.
//!
//! One thread runs the sequential one-shard build; above that every row
//! builds the same [`SHARDS`] shards. Every build scans top-down, so the
//! deterministic scan-work column (`FastReport::build_topdown_entries`)
//! is the one-shard scan at one thread and the sum of the shards' scans
//! above it. Embedding counts are asserted identical at every thread
//! count (the pipeline's correctness bar).

use crate::harness::{experiment_config, DatasetCache};
use fast::{FastReport, Variant};
use graph_core::{benchmark_query, DatasetId};

/// One thread-count point, aggregated over the query set.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: DatasetId,
    pub threads: usize,
    /// The per-query shard counts over the query set.
    pub shards: String,
    /// Total embeddings over the query set — identical across rows.
    pub embeddings: u64,
    /// Modelled overlapped host preparation seconds (build ∥ partition).
    pub modeled_prepare_sec: f64,
    /// Modelled end-to-end elapsed seconds.
    pub modeled_total_sec: f64,
    /// Measured wall seconds of the build phase on this machine.
    pub build_wall_sec: f64,
    /// Measured CPU seconds spent building (total work across shards).
    pub build_cpu_sec: f64,
    /// Phase-1 scan work across shard builds (deterministic).
    pub topdown_entries: usize,
}

/// Thread counts swept (the paper's host is an 8-core Xeon).
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Shard count of the parallel rows (clamped to each query's root count).
/// Fixed — never derived from the thread count — so every parallel row
/// partitions the identical shard stream; see `cst::pipeline` on
/// determinism.
pub const SHARDS: usize = 16;

/// Queries aggregated over: the root-shardable subset of the benchmark
/// queries. Under blind contiguous sharding, root sharding duplicates
/// interior candidates 2.7–4.6× on the hub-dominated queries (q1, q2, q3,
/// q8 — the same skew/overlap effect the paper's Fig. 14 commentary notes
/// for the root-sharded DAF-8/CECI-8 baselines), so this figure sticks to
/// the queries where sharding pays. EXPERIMENTS.md §13 records the
/// duplication of the full set.
pub const QUERIES: [usize; 5] = [0, 4, 5, 6, 7];

/// The modelled host-preparation time of a report: the part of the
/// overlapped elapsed model that precedes the CPU matching share.
pub fn modeled_prepare_sec(r: &FastReport) -> f64 {
    r.modeled_fill_sec
        + (r.modeled_build_parallel_sec - r.modeled_fill_sec).max(r.modeled_partition_sec)
}

/// Runs the thread sweep on `dataset` over `queries`.
///
/// # Panics
/// Panics if any thread count changes the embedding count.
pub fn run(cache: &mut DatasetCache, dataset: DatasetId, queries: &[usize]) -> Vec<Row> {
    let g = cache.get(dataset);
    let mut rows: Vec<Row> = Vec::new();
    for &threads in &THREADS {
        let mut config = experiment_config(Variant::Sep);
        config.host_threads = threads;
        config.pipeline_shards = Some(SHARDS);
        let mut row = Row {
            dataset,
            threads,
            shards: String::new(),
            embeddings: 0,
            modeled_prepare_sec: 0.0,
            modeled_total_sec: 0.0,
            build_wall_sec: 0.0,
            build_cpu_sec: 0.0,
            topdown_entries: 0,
        };
        let mut shards: Vec<usize> = Vec::new();
        for &qi in queries {
            let q = benchmark_query(qi);
            let report = fast::run_fast(&q, g, &config).unwrap();
            row.embeddings += report.embeddings;
            row.modeled_prepare_sec += modeled_prepare_sec(&report);
            row.modeled_total_sec += report.modeled_total_sec();
            row.build_wall_sec += report.build_time.as_secs_f64();
            row.build_cpu_sec += report.build_cpu_time.as_secs_f64();
            row.topdown_entries += report.build_topdown_entries;
            shards.push(report.pipeline_shards);
        }
        if let Some(first) = rows.first() {
            assert_eq!(
                row.embeddings, first.embeddings,
                "{threads} threads changed the embedding count"
            );
        }
        shards.dedup();
        row.shards = shards
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("/");
        rows.push(row);
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
        "threads",
        "shards",
        "modelled prepare",
        "speedup",
        "modelled total",
        "build wall (this host)",
        "build cpu",
        "topdown scans",
        "#embeddings",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                r.shards.clone(),
                crate::harness::fmt_time(r.modeled_prepare_sec),
                crate::harness::fmt_speedup(base / r.modeled_prepare_sec),
                crate::harness::fmt_time(r.modeled_total_sec),
                crate::harness::fmt_time(r.build_wall_sec),
                crate::harness::fmt_time(r.build_cpu_sec),
                r.topdown_entries.to_string(),
                r.embeddings.to_string(),
            ]
        })
        .collect();
    format!(
        "Host-pipeline scaling on {dataset} (sharded CST build + partition, {} contiguous shards \
         above one thread)\n{}",
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
        assert_eq!(rows.len(), THREADS.len());
        // `run` itself asserts count identity; monotone non-increasing
        // modelled prepare over threads is the scaling claim.
        for w in rows.windows(2) {
            assert!(
                w[1].modeled_prepare_sec <= w[0].modeled_prepare_sec + 1e-12,
                "threads {}→{}: {} → {}",
                w[0].threads,
                w[1].threads,
                w[0].modeled_prepare_sec,
                w[1].modeled_prepare_sec
            );
        }
    }

    /// The one cut on the hostscale target: every parallel row builds the
    /// same [`SHARDS`] contiguous shards per query, so it scans the same
    /// top-down work, and that is no less than the one-thread row's
    /// sequential scan (every shard re-scans the candidates it reaches).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full figure run; covered by the release-mode CI test step"
    )]
    fn parallel_rows_cut_the_same_shards_and_scan_top_down() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg03, &QUERIES);
        let sequential = &rows[0];
        assert_eq!((sequential.threads, sequential.shards.as_str()), (1, "1"));
        assert!(sequential.topdown_entries > 0, "the sequential build scans top-down");
        for r in &rows[1..] {
            assert_eq!(r.shards, SHARDS.to_string(), "{} threads", r.threads);
            assert_eq!(r.topdown_entries, rows[1].topdown_entries, "{} threads", r.threads);
            assert!(r.topdown_entries >= sequential.topdown_entries, "{} threads", r.threads);
        }
    }
}
