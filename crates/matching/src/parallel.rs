//! Parallel baseline variants (the paper's `DAF-8` / `CECI-8`).
//!
//! The paper evaluates 8-thread versions of DAF and CECI. Both parallelise
//! by splitting the root candidate set across threads — the same
//! partitioning axis the CST partitioner uses — with each thread running the
//! sequential engine on its shard. Skewed shards limit scaling, which is
//! exactly the imbalance the paper's Fig. 14 commentary alludes to.

use crate::baselines::{
    baseline_extension, baseline_order, modelled_memory_bytes, Baseline, BASELINE_INDEX_OPTIONS,
};
use crate::cost_model::CpuCostModel;
use crate::engine::{run_backtrack, EngineStats};
use crate::limits::{MatchResult, Outcome, RunLimits};
use cst::build_cst_with_stats;
use graph_core::{select_root, BfsTree, Graph, QueryGraph, QueryVertexId};
use std::time::Instant;

/// Runs `baseline` with the root candidates split over `threads` workers.
pub fn run_baseline_parallel(
    baseline: Baseline,
    q: &QueryGraph,
    g: &Graph,
    limits: &RunLimits,
    threads: usize,
) -> MatchResult {
    assert!(threads >= 1, "need at least one thread");
    let name = format!("{}-{}", baseline.name(), threads);

    let build_start = Instant::now();
    let root = select_root(q, g);
    let tree = BfsTree::new(q, root);
    let (index, build_stats) = build_cst_with_stats(q, g, &tree, BASELINE_INDEX_OPTIONS);
    let build_time = build_start.elapsed();
    let cost = CpuCostModel::default();
    let modeled_build_sec = cost.index_time_sec(build_stats.adjacency_entries);

    // The parallel version keeps one index copy per thread in the released
    // implementations; DAF-8's OOM on DG03/DG10 (Section VII-C) stems from
    // per-thread state on top of the CS. Model per-thread duplication of the
    // mutable search state as a fraction of the index.
    let per_thread_overhead = index.size_bytes() / 4;
    let peak_memory = modelled_memory_bytes(baseline, g, index.size_bytes())
        + per_thread_overhead * threads;
    if let Some(cap) = limits.memory_cap {
        if peak_memory > cap {
            return MatchResult {
                algorithm: name,
                outcome: Outcome::OutOfMemory,
                embeddings: 0,
                build_time,
                match_time: std::time::Duration::ZERO,
                peak_memory_bytes: peak_memory,
                partials_generated: 0,
                modeled_build_sec,
                modeled_match_sec: 0.0,
            };
        }
    }

    let order = baseline_order(baseline, q, g, &tree);
    let extension = baseline_extension(baseline);

    // Shard the root candidate set. The engine walks the whole root range,
    // so each worker gets a sliced clone of the index's root candidates via
    // partitioning on candidate index ranges.
    let match_start = Instant::now();
    let root_vertex = order.first();
    let root_count = index.candidate_count(root_vertex);
    let shard_size = root_count.div_ceil(threads.max(1)).max(1);

    let results: Vec<(Outcome, EngineStats)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * shard_size;
            if lo >= root_count {
                break;
            }
            let hi = ((t + 1) * shard_size).min(root_count);
            let index_ref = &index;
            let order_ref = &order;
            handles.push(scope.spawn(move || {
                let shard = shard_root(index_ref, root_vertex, lo as u32..hi as u32);
                run_backtrack(q, g, &shard, order_ref, extension, limits)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let match_time = match_start.elapsed();

    let embeddings = results.iter().map(|r| r.1.embeddings).sum();
    let partials = results.iter().map(|r| r.1.partials_generated).sum();
    // Modelled parallel time: the slowest shard at single-core speed (real
    // skew), floored by the perfectly-balanced efficiency-adjusted time.
    let slowest_shard = results
        .iter()
        .map(|r| cost.search_time_sec(&r.1))
        .fold(0.0f64, f64::max);
    let total_stats = results.iter().fold(EngineStats::default(), |mut acc, r| {
        acc.partials_generated += r.1.partials_generated;
        acc.edge_verifications += r.1.edge_verifications;
        acc.intersection_elements += r.1.intersection_elements;
        acc
    });
    let balanced = cost.parallel_search_time_sec(&total_stats, threads);
    let modeled_match_sec = slowest_shard.max(balanced);
    let outcome = results
        .iter()
        .map(|r| r.0)
        .fold(Outcome::Completed, |acc, o| match (acc, o) {
            (Outcome::OutOfMemory, _) | (_, Outcome::OutOfMemory) => Outcome::OutOfMemory,
            (Outcome::Timeout, _) | (_, Outcome::Timeout) => Outcome::Timeout,
            (Outcome::ResultLimit, _) | (_, Outcome::ResultLimit) => Outcome::ResultLimit,
            _ => Outcome::Completed,
        });

    MatchResult {
        algorithm: name,
        outcome,
        embeddings,
        build_time,
        match_time,
        peak_memory_bytes: peak_memory,
        partials_generated: partials,
        modeled_build_sec,
        modeled_match_sec,
    }
}

/// Restricts the index to root candidates with indices in `range` — a thin
/// wrapper over the CST partitioner's emitter (one chunk of the root, no
/// reachability pruning).
fn shard_root(index: &cst::Cst, root: QueryVertexId, range: std::ops::Range<u32>) -> cst::Cst {
    cst::partition::shard_at_vertex(index, root, range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::run_baseline;
    use graph_core::generators::random_labelled_graph;
    use graph_core::Label;

    fn triangle() -> QueryGraph {
        let l = Label::new;
        QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let q = triangle();
        let g = random_labelled_graph(60, 0.2, 2, 42);
        let seq = run_baseline(Baseline::Ceci, &q, &g, &RunLimits::unlimited());
        for threads in [1, 2, 4, 8] {
            let par =
                run_baseline_parallel(Baseline::Ceci, &q, &g, &RunLimits::unlimited(), threads);
            assert_eq!(par.outcome, Outcome::Completed, "threads={threads}");
            assert_eq!(par.embeddings, seq.embeddings, "threads={threads}");
        }
    }

    #[test]
    fn daf_parallel_matches_sequential() {
        let q = triangle();
        let g = random_labelled_graph(50, 0.25, 2, 43);
        let seq = run_baseline(Baseline::Daf, &q, &g, &RunLimits::unlimited());
        let par = run_baseline_parallel(Baseline::Daf, &q, &g, &RunLimits::unlimited(), 8);
        assert_eq!(par.embeddings, seq.embeddings);
    }

    #[test]
    fn parallel_memory_model_grows_with_threads() {
        let q = triangle();
        let g = random_labelled_graph(50, 0.25, 2, 44);
        let limits = RunLimits::unlimited();
        let r1 = run_baseline_parallel(Baseline::Daf, &q, &g, &limits, 1);
        let r8 = run_baseline_parallel(Baseline::Daf, &q, &g, &limits, 8);
        assert!(r8.peak_memory_bytes > r1.peak_memory_bytes);
        assert!(r8.algorithm.ends_with("-8"));
    }

    #[test]
    fn more_threads_than_roots_is_fine() {
        let q = triangle();
        let g = random_labelled_graph(20, 0.3, 2, 45);
        let par = run_baseline_parallel(Baseline::Ceci, &q, &g, &RunLimits::unlimited(), 64);
        let seq = run_baseline(Baseline::Ceci, &q, &g, &RunLimits::unlimited());
        assert_eq!(par.embeddings, seq.embeddings);
    }
}
