//! Sharded, multi-threaded host-side CST pipeline.
//!
//! The paper's Remark (Section V-A) stresses that the FPGA sits idle while
//! the CPU builds and partitions the CST, and the `probe` time split shows
//! build + partition dominating host time at the larger datasets. This
//! module parallelises and *overlaps* that host work:
//!
//! * the sorted root candidate set is cut into `shards` contiguous
//!   equal-count chunks ([`ShardPlan::contiguous`], the even split of
//!   Algorithm 2 line 4) — the same axis the parallel baselines
//!   (`DAF-8`/`CECI-8`) and the multi-FPGA extension shard on;
//! * worker threads ([`std::thread::scope`]) run Algorithm 1 per shard:
//!   the top-down scan from the shard's roots, then bottom-up refinement
//!   and non-tree-edge population;
//! * finished shard CSTs are handed over **in shard order** on the
//!   caller's thread ([`for_each_shard_cst`]), typically straight into the
//!   partitioner, so partitions reach the device while later shards are
//!   still being built.
//!
//! The host flows (`fast::FastConfig::build_options`) run this pipeline
//! with more than one shard only above one host thread. At one thread they
//! build a single contiguous shard ([`PipelineOptions::sequential`]). A
//! serving session then gets the shards' root localisation from the
//! partitioner instead, whose first split fans the root out into that many
//! chunks (`crate::PartitionConfig::root_fanout`).
//!
//! # Determinism
//!
//! Every shard CST depends only on `(q, g, tree, options, shard index)` —
//! the cut is a function of the root count and the shard count, never of
//! the thread count — and shards are consumed in index order. The output
//! (the shard stream and everything downstream: partition sequence,
//! `ShareScheduler` bookings, embedding counts) is therefore
//! **bit-identical for every thread count** at a fixed shard count. The
//! default shard count is a thread-independent constant for exactly this
//! reason. `tests/prop_pipeline_parallel.rs` enforces it.
//!
//! # Soundness of the shard decomposition
//!
//! Every embedding maps the root to exactly one root candidate, so shard
//! search spaces are disjoint (the Example 3 argument at order position 0)
//! and their union covers the sequential search space: per-shard bottom-up
//! refinement sees smaller candidate sets and may prune *more* than the
//! sequential pass, but never a candidate participating in an embedding
//! rooted in the shard. Summed embedding counts are identical to the
//! sequential pipeline's. The price is duplicated work: interior
//! candidates reachable from several shards are rebuilt per shard
//! (EXPERIMENTS.md §13 records the factor).

use crate::cache::plan_provenance;
use crate::construct::{root_candidates, BuildScratch, BuildStats, CstOptions};
use crate::structure::Cst;
use graph_core::{BfsTree, Graph, QueryGraph, VertexId};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Default shard count. Deliberately **independent of the thread count** so
/// that shard decomposition — and with it every downstream artefact — is
/// identical whether the pipeline runs on 1 or 8 workers. 16 shards keep 8
/// workers busy with ~2 shards each while bounding the duplicated candidate
/// work on interior query vertices.
pub const DEFAULT_SHARDS: usize = 16;

/// Knobs of the sharded pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Worker threads building shard CSTs. 1 = fully sequential (build and
    /// consumption interleave on the caller's thread, no spawning).
    pub threads: usize,
    /// Shard (batch) count; `None` resolves to [`DEFAULT_SHARDS`].
    /// Clamped to the root candidate count. Must not be derived from
    /// `threads` — see the module docs on determinism.
    pub shards: Option<usize>,
    /// CST construction pruning strength, forwarded to Algorithm 1.
    pub cst: CstOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            threads: 1,
            shards: None,
            cst: CstOptions::default(),
        }
    }
}

impl PipelineOptions {
    /// Sequential single-shard pipeline: exactly `build_cst_with_stats`.
    pub fn sequential(cst: CstOptions) -> Self {
        PipelineOptions {
            shards: Some(1),
            cst,
            ..PipelineOptions::default()
        }
    }

    /// Resolves the effective shard count for `root_count` root candidates.
    pub fn resolve_shards(&self, root_count: usize) -> usize {
        self.shards.unwrap_or(DEFAULT_SHARDS).clamp(1, root_count.max(1))
    }
}

/// Per-shard record of the pipeline run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index (consumption order).
    pub shard: usize,
    /// Root candidates in this shard.
    pub roots: usize,
    /// Wall time the worker spent building this shard's CST.
    pub build_time: Duration,
    /// Adjacency entries materialised for this shard (the build-cost unit
    /// of `matching::CpuCostModel::index_time_sec`).
    pub adjacency_entries: usize,
}

/// Aggregate statistics of a sharded pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Effective shard count after clamping.
    pub shards: usize,
    /// The shard plan the pipeline executed.
    pub plan: ShardPlan,
    /// Wall time spent deriving the plan (the even cut and its provenance
    /// fingerprint, or the check of a supplied plan).
    pub plan_time: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Total root candidates (over all shards).
    pub root_candidates: usize,
    /// Per-shard reports, in shard order.
    pub shard_reports: Vec<ShardReport>,
    /// Wall time of the build phase: pipeline start → last shard's *build*
    /// finished (consumer-side work on earlier shards is excluded in the
    /// threaded mode; in sequential mode build and consumption interleave
    /// on one thread, so interleaved consumption is unavoidably included).
    pub build_wall: Duration,
    /// Sum of per-shard build times — the total CPU work, which *exceeds*
    /// the sequential build's because interior candidates shared by several
    /// shards are re-derived per shard.
    pub build_cpu: Duration,
    /// Phase-1 scan work across shard builds (neighbour visits, each a
    /// filter evaluation).
    pub topdown_entries: usize,
}

impl PipelineStats {
    /// Total adjacency entries built across shards (≥ the sequential
    /// build's count; the duplication factor is `build_entries / sequential
    /// entries`).
    pub fn total_adjacency_entries(&self) -> usize {
        self.shard_reports.iter().map(|r| r.adjacency_entries).sum()
    }
}

/// A shard CST travelling down the pipeline.
#[derive(Debug)]
pub struct ShardCst {
    /// The shard's CST (root candidates restricted to the shard's chunk).
    /// Shared, not owned: a consumer keeping the `Arc` (a tier-2 result
    /// cache capturing the build) costs nothing over one that drops it.
    pub cst: Arc<Cst>,
    /// Build statistics of this shard.
    pub stats: BuildStats,
    /// The shard report (also collected in [`PipelineStats`]).
    pub report: ShardReport,
}

/// Splits `count` root candidates into `shards` chunks, returning the chunk
/// boundaries (the same even-split rule as Algorithm 2 line 4): the first
/// `count % shards` chunks are one root longer.
pub(crate) fn shard_ranges(count: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, count.max(1));
    let base = count / shards;
    let extra = count % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Inert: the pipeline has one cut, contiguous equal-count shards, so this
/// type has nothing to choose. It stays only because the benchmark assigns
/// `fast::FastConfig::shard_planner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlanner {
    /// Contiguous equal-count shards ([`ShardPlan::contiguous`]).
    #[default]
    Auto,
}

/// The pipeline's shard decomposition: shard `s` owns the sorted root
/// candidates `roots[ranges[s]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPlan {
    /// Contiguous shard boundaries over the sorted root candidate list.
    pub ranges: Vec<Range<usize>>,
    /// Fingerprint of the inputs the plan was cut for
    /// ([`crate::cache::plan_provenance`]): set by
    /// [`plan_pipeline_shards`], 0 for hand-built plans. A supplied plan is
    /// only trusted by [`for_each_shard_cst_planned`] when this matches the
    /// freshly derived inputs.
    pub provenance: u64,
}

impl ShardPlan {
    /// The equal-count cut of `count` roots into `shards` chunks (clamped
    /// to `[1, count]`), with unknown provenance.
    pub fn contiguous(count: usize, shards: usize) -> ShardPlan {
        ShardPlan {
            ranges: shard_ranges(count, shards),
            provenance: 0,
        }
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }
}

/// The pipeline's plan for `roots` under `options`: the contiguous cut into
/// [`PipelineOptions::resolve_shards`] chunks, stamped with its provenance.
pub fn plan_pipeline_shards(roots: &[VertexId], options: &PipelineOptions) -> ShardPlan {
    ShardPlan {
        provenance: plan_provenance(roots, options),
        ..ShardPlan::contiguous(roots.len(), options.resolve_shards(roots.len()))
    }
}

/// Builds the shard with the given index from its sorted root chunk. Pure
/// function of its arguments (`scratch` is clear between builds) — the
/// pipeline's determinism anchor.
fn build_shard(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
    chunk: Vec<VertexId>,
    shard: usize,
    scratch: &mut BuildScratch,
) -> ShardCst {
    let mut span = obs::span_cat("build_shard", "build");
    span.arg_u64("shard", shard as u64);
    let t0 = Instant::now();
    let roots = chunk.len();
    let (cst, stats) = scratch.build_from_roots(q, g, tree, options, chunk);
    let build_time = t0.elapsed();
    span.arg_u64("roots", roots as u64);
    ShardCst {
        report: ShardReport {
            shard,
            roots,
            build_time,
            adjacency_entries: stats.adjacency_entries,
        },
        cst: Arc::new(cst),
        stats,
    }
}

/// [`for_each_shard_cst_planned`] without a precomputed plan — the spelling
/// the property suites use.
pub fn for_each_shard_cst<F: FnMut(ShardCst)>(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: &PipelineOptions,
    consume: F,
) -> PipelineStats {
    for_each_shard_cst_planned(q, g, tree, options, None, consume)
}

/// Runs the sharded build and hands every shard CST to `consume` **on the
/// caller's thread, in shard order**, while worker threads keep building
/// later shards. This is the streaming (overlapped) mode: `consume`
/// typically partitions the shard and offloads/books partitions, so the
/// device receives work while the host is still constructing.
///
/// With `threads <= 1` no threads are spawned; build and consumption
/// interleave sequentially with identical output.
///
/// `plan_override` is an optional precomputed [`ShardPlan`]: a cache-hit
/// serving path hands the plan back in and it is replayed as is. The plan
/// must have been produced for the same `(q, g, tree, options)` — its
/// [`provenance`](ShardPlan::provenance) fingerprint is checked against
/// the freshly derived root candidate list and plan-relevant options, and
/// a stale or foreign plan (hand-built plans included — their provenance
/// is 0) is silently replanned: a wrong plan must never corrupt results,
/// only cost time.
pub fn for_each_shard_cst_planned<F: FnMut(ShardCst)>(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: &PipelineOptions,
    plan_override: Option<&ShardPlan>,
    mut consume: F,
) -> PipelineStats {
    let roots = root_candidates(q, g, tree, options.cst);
    let plan_t0 = Instant::now();
    let plan = match plan_override {
        Some(p)
            if p.provenance != 0
                && p.provenance == plan_provenance(&roots, options)
                && !p.ranges.is_empty() =>
        {
            p.clone()
        }
        _ => plan_pipeline_shards(&roots, options),
    };
    let plan_time = plan_t0.elapsed();
    let shards = plan.shard_count();
    // Chunk extraction is part of planning, not of any shard's build time.
    let chunks: Vec<Vec<VertexId>> = plan
        .ranges
        .iter()
        .map(|r| roots[r.clone()].to_vec())
        .collect();
    let wall0 = Instant::now();
    let mut stats = PipelineStats {
        shards,
        plan,
        plan_time,
        threads: options.threads.max(1).min(shards),
        root_candidates: roots.len(),
        shard_reports: Vec::with_capacity(shards),
        build_wall: Duration::ZERO,
        build_cpu: Duration::ZERO,
        topdown_entries: 0,
    };

    let mut take = |shard: ShardCst, stats: &mut PipelineStats| {
        stats.build_cpu += shard.report.build_time;
        stats.topdown_entries += shard.stats.topdown_entries;
        stats.shard_reports.push(shard.report.clone());
        consume(shard);
    };

    if stats.threads <= 1 {
        let mut scratch = BuildScratch::default();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let shard = build_shard(q, g, tree, options.cst, chunk, i, &mut scratch);
            stats.build_wall = wall0.elapsed();
            take(shard, &mut stats);
        }
        return stats;
    }

    let next = AtomicUsize::new(0);
    // Latest build-completion timestamp across workers — consumer-side
    // partitioning of earlier shards must not count as build time.
    let build_done: Mutex<Duration> = Mutex::new(Duration::ZERO);
    let (tx, rx) = mpsc::channel::<ShardCst>();
    // Each chunk is consumed exactly once by whichever worker claims it.
    let chunks: Vec<Mutex<Option<Vec<VertexId>>>> =
        chunks.into_iter().map(|chunk| Mutex::new(Some(chunk))).collect();
    let chunks_ref = &chunks;
    std::thread::scope(|scope| {
        for _ in 0..stats.threads {
            let tx = tx.clone();
            let next = &next;
            let build_done = &build_done;
            scope.spawn(move || {
                let mut scratch = BuildScratch::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks_ref.len() {
                        return;
                    }
                    let chunk = chunks_ref[i]
                        .lock()
                        .expect("shard chunk lock")
                        .take()
                        .expect("each shard chunk claimed once");
                    let shard = build_shard(q, g, tree, options.cst, chunk, i, &mut scratch);
                    let done = wall0.elapsed();
                    let mut latest = build_done.lock().expect("timestamp lock");
                    if done > *latest {
                        *latest = done;
                    }
                    drop(latest);
                    if tx.send(shard).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);

        // Consume in shard order: out-of-order arrivals wait in `pending`.
        let mut pending: std::collections::BTreeMap<usize, ShardCst> =
            std::collections::BTreeMap::new();
        let mut want = 0usize;
        while want < shards {
            let shard = match pending.remove(&want) {
                Some(s) => s,
                None => {
                    let s = rx.recv().expect("worker panicked before finishing shards");
                    if s.report.shard != want {
                        pending.insert(s.report.shard, s);
                        continue;
                    }
                    s
                }
            };
            want += 1;
            take(shard, &mut stats);
        }
    });
    stats.build_wall = *build_done.lock().expect("timestamp lock");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_cst, build_cst_with_stats};
    use crate::testing::count_matches;
    use graph_core::generators::random_labelled_graph;
    use graph_core::{Label, MatchingOrder, QueryGraph, QueryVertexId};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn setup() -> (QueryGraph, Graph, BfsTree, MatchingOrder) {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let g = random_labelled_graph(90, 0.12, 2, 77);
        let tree = BfsTree::new(&q, QueryVertexId::from_index(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
        (q, g, tree, order)
    }

    #[test]
    fn single_shard_is_bit_identical_to_sequential() {
        let (q, g, tree, _) = setup();
        let (seq, seq_stats) = build_cst_with_stats(&q, &g, &tree, CstOptions::default());
        let opts = PipelineOptions::sequential(CstOptions::default());
        let mut shards = Vec::new();
        let stats = for_each_shard_cst(&q, &g, &tree, &opts, |s| shards.push(s));
        assert_eq!(stats.shards, 1);
        assert_eq!(shards.len(), 1);
        assert_eq!(*shards[0].cst, seq);
        assert_eq!(shards[0].stats, seq_stats);
        assert_eq!(stats.total_adjacency_entries(), seq_stats.adjacency_entries);
    }

    #[test]
    fn sharded_counts_match_sequential_for_all_shard_counts() {
        let (q, g, tree, order) = setup();
        let seq = build_cst(&q, &g, &tree);
        let whole = count_matches(&seq, &q, &order);
        for shards in [1, 2, 3, 5, 8, 64] {
            let opts = PipelineOptions {
                threads: 2,
                shards: Some(shards),
                cst: CstOptions::default(),
            };
            let mut sum = 0u64;
            let stats = for_each_shard_cst(&q, &g, &tree, &opts, |s| {
                s.cst.validate(&q).unwrap();
                sum += count_matches(&s.cst, &q, &order);
            });
            assert_eq!(sum, whole, "shards={shards}");
            assert_eq!(stats.shards, shards.min(stats.root_candidates));
            assert_eq!(
                stats.shard_reports.iter().map(|r| r.roots).sum::<usize>(),
                stats.root_candidates
            );
        }
    }

    #[test]
    fn streaming_sum_matches_sequential() {
        let (q, g, tree, order) = setup();
        let seq = build_cst(&q, &g, &tree);
        let whole = count_matches(&seq, &q, &order);
        for threads in [1, 4] {
            let opts = PipelineOptions {
                threads,
                shards: Some(6),
                cst: CstOptions::default(),
            };
            let mut sum = 0u64;
            let mut seen = Vec::new();
            let stats = for_each_shard_cst(&q, &g, &tree, &opts, |s| {
                seen.push(s.report.shard);
                sum += count_matches(&s.cst, &q, &order);
            });
            assert_eq!(sum, whole, "threads={threads}");
            assert_eq!(seen, (0..stats.shards).collect::<Vec<_>>());
        }
    }

    #[test]
    fn plan_override_replays_and_stale_plans_are_replanned() {
        let (q, g, tree, _) = setup();
        let opts = PipelineOptions {
            threads: 1,
            shards: Some(4),
            ..PipelineOptions::default()
        };
        // A fresh run yields the plan the pipeline would cache.
        let fresh = for_each_shard_cst(&q, &g, &tree, &opts, |_| {});
        assert_ne!(fresh.plan.provenance, 0, "pipeline plans carry provenance");

        // Replaying it executes the same decomposition.
        let replay =
            for_each_shard_cst_planned(&q, &g, &tree, &opts, Some(&fresh.plan), |_| {});
        assert_eq!(replay.plan, fresh.plan);

        // A plan for *different options* (same root set) must be rejected
        // and replanned, not silently executed.
        let other_opts = PipelineOptions {
            shards: Some(2),
            ..opts
        };
        let replanned =
            for_each_shard_cst_planned(&q, &g, &tree, &other_opts, Some(&fresh.plan), |_| {});
        assert_ne!(replanned.plan.provenance, fresh.plan.provenance);
        assert_eq!(
            replanned.shards,
            other_opts.resolve_shards(fresh.root_candidates),
            "stale plan must not override the options"
        );

        // Hand-built plans (provenance 0) are never trusted.
        let hand_built = ShardPlan::contiguous(fresh.root_candidates, 4);
        let guarded =
            for_each_shard_cst_planned(&q, &g, &tree, &opts, Some(&hand_built), |_| {});
        assert_eq!(guarded.plan, fresh.plan, "replanned from scratch");
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for count in [0usize, 1, 5, 16, 17, 100] {
            for shards in [1usize, 2, 7, 16, 200] {
                let ranges = shard_ranges(count, shards);
                let mut total = 0usize;
                let mut prev_end = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, prev_end);
                    prev_end = r.end;
                    total += r.len();
                }
                assert_eq!(total, count, "count={count} shards={shards}");
            }
        }
    }
}
