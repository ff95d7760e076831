//! Shard-planner duplication study: regenerates the EXPERIMENTS.md §13
//! root-sharding duplication table.
//!
//! Contiguous equal-count root sharding duplicates interior candidates
//! reachable from several shards — 2.7–4.6× on the hub-dominated queries
//! (q1/q2/q3/q8) at 16 shards. The shard planner (`cst::planner`) attacks
//! exactly that: per query it picks the shard count and, where the
//! contiguous cut duplicates, an overlap-aware hub-clustered cut. This
//! figure measures the *actual* duplication factor (total adjacency entries
//! built across shards over the sequential build's entries) of the blind
//! contiguous cut at fixed shard counts and of the planner's choice, plus
//! the planner's chosen shard count and its estimated-vs-actual
//! duplication.

use crate::harness::DatasetCache;
use cst::{
    build_cst_from_roots, build_cst_with_stats, plan_shards, CstOptions, RootProfile, ShardPlan,
};
use graph_core::{benchmark_query, select_root, BfsTree, DatasetId, Graph, QueryGraph, VertexId};

/// Fixed shard counts the blind contiguous cut is evaluated at (the
/// pipeline default is 16; 8 matches the original §13 table).
pub const SHARD_COUNTS: [usize; 2] = [8, 16];

/// One query's duplication factors, blind and planned.
#[derive(Debug, Clone)]
pub struct Row {
    pub query: usize,
    /// Root candidate count (the sharding axis).
    pub roots: usize,
    /// Sequential build's adjacency entries (the denominator).
    pub seq_entries: usize,
    /// Actual duplication per [`SHARD_COUNTS`] entry: contiguous.
    pub contiguous: [f64; 2],
    /// The planner: chosen shard count (cap 16)…
    pub auto_shards: usize,
    /// …its actual duplication…
    pub auto_dup: f64,
    /// …and the planner's own 1-hop estimate that drove the choice.
    pub auto_est: f64,
}

/// Actual duplication factor of one plan: total adjacency entries over
/// every shard build (exactly the pipeline's per-shard
/// `build_cst_from_roots` calls), relative to the sequential build.
fn duplication(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    roots: &[VertexId],
    plan: &ShardPlan,
    seq_entries: usize,
) -> f64 {
    let entries: usize = (0..plan.shard_count())
        .map(|s| {
            let chunk = plan.chunk_roots(roots, s);
            build_cst_from_roots(q, g, tree, CstOptions::default(), chunk)
                .1
                .adjacency_entries
        })
        .sum();
    entries as f64 / seq_entries.max(1) as f64
}

/// Runs the study on `dataset` over `queries`.
pub fn run(cache: &mut DatasetCache, dataset: DatasetId, queries: &[usize]) -> Vec<Row> {
    let g = cache.get(dataset);
    let mut rows = Vec::new();
    for &qi in queries {
        let q = benchmark_query(qi);
        let root = select_root(&q, g);
        let tree = BfsTree::new(&q, root);
        let (_, seq_stats) = build_cst_with_stats(&q, g, &tree, CstOptions::default());
        let seq_entries = seq_stats.adjacency_entries;
        let roots = cst::root_candidates(&q, g, &tree, CstOptions::default());
        let profile = RootProfile::probe(&q, g, &tree, CstOptions::default(), &roots);
        let contiguous = SHARD_COUNTS.map(|s| {
            let plan = ShardPlan::contiguous(roots.len(), s);
            duplication(&q, g, &tree, &roots, &plan, seq_entries)
        });
        let auto_plan = plan_shards(&profile, 16, None);
        rows.push(Row {
            query: qi,
            roots: roots.len(),
            seq_entries,
            contiguous,
            auto_shards: auto_plan.shard_count(),
            auto_dup: duplication(&q, g, &tree, &roots, &auto_plan, seq_entries),
            auto_est: auto_plan.estimated_duplication,
        });
    }
    rows
}

/// Renders the duplication table.
pub fn render(dataset: DatasetId, rows: &[Row]) -> String {
    let header: Vec<String> = [
        "query",
        "roots",
        "contig d8",
        "contig d16",
        "auto S",
        "auto d",
        "auto est",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("q{}", r.query),
                r.roots.to_string(),
                format!("{:.2}", r.contiguous[0]),
                format!("{:.2}", r.contiguous[1]),
                r.auto_shards.to_string(),
                format!("{:.2}", r.auto_dup),
                format!("{:.2}", r.auto_est),
            ]
        })
        .collect();
    format!(
        "Shard-planner duplication factors on {dataset} (total shard adjacency entries / sequential build)\n{}",
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar of the planner work: on the hub-dominated
    /// queries, the planner's duplication must stay ≤ 1.8× (the blind
    /// contiguous cut pays 2.7–4.6× at 16 shards), without inflating the
    /// flat queries.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full figure run; covered by the release-mode CI test step"
    )]
    fn auto_planner_kills_hub_duplication() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg03, &[1, 2, 3, 8, 6]);
        for r in &rows {
            assert!(
                r.auto_dup <= 1.8,
                "q{}: auto duplication {:.2} (S={})",
                r.query,
                r.auto_dup,
                r.auto_shards
            );
            // The auto plan must never do worse than the blind contiguous
            // default at 16 shards.
            assert!(
                r.auto_dup <= r.contiguous[1] + 1e-9,
                "q{}: auto {:.2} vs contiguous-16 {:.2}",
                r.query,
                r.auto_dup,
                r.contiguous[1]
            );
        }
    }
}
