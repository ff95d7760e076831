//! Sharded, multi-threaded host-side CST pipeline.
//!
//! The paper's Remark (Section V-A) stresses that the FPGA sits idle while
//! the CPU builds and partitions the CST, and the `probe` time split shows
//! build + partition dominating host time at the larger datasets. This
//! module parallelises and *overlaps* that host work:
//!
//! * the root candidate set is split into `shards` chunks — the same axis
//!   the parallel baselines (`DAF-8`/`CECI-8`) and the multi-FPGA
//!   extension shard on; *where* the boundaries fall (and how many shards
//!   a query gets) is decided by the shard planner (`cst::planner`) before
//!   any build starts;
//! * worker threads ([`std::thread::scope`]) run Algorithm 1 per shard:
//!   the top-down phase restricted from the planner's probe (or scanned
//!   from the shard's roots when the plan has no probe), then bottom-up
//!   refinement and non-tree-edge population;
//! * finished shard CSTs are consumed **in shard order** on the caller's
//!   thread — either merged back into one CST ([`build_cst_sharded`]) or
//!   streamed straight into the partitioner ([`for_each_shard_cst`]) so
//!   partitions reach the device while later shards are still being built.
//!
//! # Determinism
//!
//! Every shard CST depends only on `(q, g, tree, options, shard index,
//! shard plan)` — the plan itself is a pure function of everything but the
//! thread count — and shards are consumed in index order. The output (merged CST, shard stream, and everything
//! downstream: partition sequence, `ShareScheduler` bookings, embedding
//! counts) is therefore **bit-identical for every thread count** at a fixed
//! shard count. The default shard count is a thread-independent constant
//! for exactly this reason. `tests/prop_pipeline_parallel.rs` enforces it.
//!
//! # Soundness of the shard decomposition
//!
//! Every embedding maps the root to exactly one root candidate, so shard
//! search spaces are disjoint (the Example 3 argument at order position 0)
//! and their union covers the sequential search space: per-shard bottom-up
//! refinement sees smaller candidate sets and may prune *more* than the
//! sequential pass, but never a candidate participating in an embedding
//! rooted in the shard. Summed (or merged) embedding counts are identical
//! to the sequential pipeline's.

use crate::construct::{root_candidates, BuildScratch, BuildStats, CstOptions};
use crate::planner::{plan_pipeline_shards, RootProfile, SeedMasks, ShardPlan};
use crate::structure::{CsrAdj, Cst};
use graph_core::{BfsTree, Graph, QueryGraph, QueryVertexId, VertexId};
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
    /// Shard (batch) count cap; `None` resolves to [`DEFAULT_SHARDS`].
    /// Clamped to the root candidate count; the planner may choose fewer
    /// shards. Must not be derived from `threads` — see the module docs on
    /// determinism.
    pub shards: Option<usize>,
    /// CST construction pruning strength, forwarded to Algorithm 1.
    pub cst: CstOptions,
    /// The device's δ_S payload threshold (bytes per partition) when the
    /// caller knows it. Feeds the planner's per-query partition/build
    /// ratio estimate (`cst::planner::estimated_partition_ratio`); `None`
    /// keeps the calibrated constant ρ. Thread-count independent by
    /// construction (a device property).
    pub partition_hint: Option<usize>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            threads: 1,
            shards: None,
            cst: CstOptions::default(),
            partition_hint: None,
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
    /// Whether this shard was built from the probe's memoised candidate
    /// space (`build_cst_seeded`) instead of a cold top-down scan.
    pub seeded: bool,
}

/// Aggregate statistics of a sharded pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Effective shard count after clamping and planning.
    pub shards: usize,
    /// The shard plan the pipeline executed (boundaries, planned
    /// workloads, estimated duplication, probe work).
    pub plan: ShardPlan,
    /// Wall time spent planning (root probe + boundary search); ~0 for a
    /// single shard, which is not probed.
    pub plan_time: Duration,
    /// Wall time spent deriving per-shard seeds from the probe's candidate
    /// space (`RootProfile::seed_chunks` — the integer mask sweep); zero
    /// when builds run cold (no probe).
    pub seed_time: Duration,
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
    /// Shards built from the probe seed (either 0 or
    /// [`shards`](Self::shards): a plan with a probe seeds every shard).
    pub seeded_shards: usize,
    /// Phase-1 scan work across shard builds (neighbour visits, each a
    /// filter evaluation — the same unit as `ShardPlan::probe_entries`).
    /// 0 when every shard was seeded: the probe's single pass replaced the
    /// per-shard scans.
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
/// boundaries (the same even-split rule as Algorithm 2 line 4). Shared with
/// `WorkloadEstimate::shard_workloads` so the skew diagnostic always splits
/// exactly like the pipeline.
pub(crate) fn shard_ranges(count: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
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

/// One shard's build input: the root chunk for a cold top-down scan (a
/// single-shard plan, or one without a probe), or the chunk plus the
/// shared probe/mask artifacts for a seeded build (the
/// shard's phase-1 candidate sets are extracted lazily on the building
/// thread — `RootProfile::seed_shard` — so peak memory is bounded by the
/// in-flight shards, not all shards' duplicated candidate space). Either
/// way the shard CST is a pure function of `(q, g, tree, options, input)` —
/// and the two variants produce **bit-identical** CSTs for the same shard
/// (`tests/prop_seeded_build.rs`) — so the pipeline's determinism anchor
/// is unchanged.
enum ShardInput {
    /// Sorted root chunk; the build runs the full top-down scan.
    Roots(Vec<VertexId>),
    /// Sorted root chunk plus the probe's memoised candidate space and the
    /// propagated shard masks; the build extracts its phase-1 sets and
    /// skips straight to refinement + adjacency materialisation.
    Seed {
        chunk: Vec<VertexId>,
        probe: Arc<RootProfile>,
        masks: Arc<SeedMasks>,
    },
}

/// Builds the shard with the given index. Pure function of its arguments
/// (`scratch` is clear between builds) — the pipeline's determinism anchor.
fn build_shard(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
    input: ShardInput,
    shard: usize,
    scratch: &mut BuildScratch,
) -> ShardCst {
    let mut span = obs::span_cat("build_shard", "build");
    span.arg_u64("shard", shard as u64);
    let t0 = Instant::now();
    let (seeded, root_count, cst, stats) = match input {
        ShardInput::Roots(chunk) => {
            let roots = chunk.len();
            let (cst, stats) = scratch.build_from_roots(q, g, tree, options, chunk);
            (false, roots, cst, stats)
        }
        ShardInput::Seed { chunk, probe, masks } => {
            let roots = chunk.len();
            let seed = probe.seed_shard(&masks, chunk, shard);
            let (cst, stats) = scratch.build_seeded(q, g, tree, options, seed);
            (true, roots, cst, stats)
        }
    };
    let build_time = t0.elapsed();
    span.arg_u64("roots", root_count as u64);
    span.arg_u64("seeded", seeded as u64);
    ShardCst {
        report: ShardReport {
            shard,
            roots: root_count,
            build_time,
            adjacency_entries: stats.adjacency_entries,
            seeded,
        },
        cst: Arc::new(cst),
        stats,
    }
}

/// [`for_each_shard_cst_planned`] without a precomputed plan — the spelling
/// the property suites and [`build_cst_sharded`] use.
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
/// serving path hands the plan back in and the probe/boundary search is
/// skipped entirely (`plan_time` ≈ 0). The plan must have been produced for
/// the same `(q, g, tree, options)` — its
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
                && p.provenance == crate::cache::plan_provenance(&roots, options)
                && !p.ranges.is_empty() =>
        {
            p.clone()
        }
        _ => plan_pipeline_shards(q, g, tree, options, &roots),
    };
    let plan_time = plan_t0.elapsed();
    let shards = plan.shard_count();
    // Seed-mask derivation (whenever the plan carries a probe): one
    // integer mask sweep per 64 shards over the probed candidate space,
    // replacing every shard's top-down scan. The per-shard candidate-set
    // extraction happens lazily on the *building* thread
    // (`ShardInput::Seed`), so peak memory stays bounded by the in-flight
    // shards instead of all shards' duplicated candidate space.
    let seed_t0 = Instant::now();
    let seed_artifacts: Option<(Arc<RootProfile>, Arc<SeedMasks>)> =
        plan.probe.as_ref().and_then(|probe| {
            probe
                .seed_masks(&plan, &roots)
                .map(|masks| (Arc::clone(probe), Arc::new(masks)))
        });
    let seed_time = if seed_artifacts.is_some() {
        seed_t0.elapsed()
    } else {
        Duration::ZERO
    };
    let seeded_shards = if seed_artifacts.is_some() { shards } else { 0 };
    // Chunk extraction is part of planning, not of any shard's build time.
    let inputs: Vec<ShardInput> = (0..shards)
        .map(|s| {
            let chunk = plan.chunk_roots(&roots, s);
            match &seed_artifacts {
                Some((probe, masks)) => ShardInput::Seed {
                    chunk,
                    probe: Arc::clone(probe),
                    masks: Arc::clone(masks),
                },
                None => ShardInput::Roots(chunk),
            }
        })
        .collect();
    let wall0 = Instant::now();
    let mut stats = PipelineStats {
        shards,
        plan,
        plan_time,
        seed_time,
        threads: options.threads.max(1).min(shards),
        root_candidates: roots.len(),
        shard_reports: Vec::with_capacity(shards),
        build_wall: Duration::ZERO,
        build_cpu: Duration::ZERO,
        seeded_shards,
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
        for (i, input) in inputs.into_iter().enumerate() {
            let shard = build_shard(q, g, tree, options.cst, input, i, &mut scratch);
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
    // Each input is consumed exactly once by whichever worker claims it.
    let inputs: Vec<Mutex<Option<ShardInput>>> =
        inputs.into_iter().map(|input| Mutex::new(Some(input))).collect();
    let inputs_ref = &inputs;
    std::thread::scope(|scope| {
        for _ in 0..stats.threads {
            let tx = tx.clone();
            let next = &next;
            let build_done = &build_done;
            scope.spawn(move || {
                let mut scratch = BuildScratch::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= inputs_ref.len() {
                        return;
                    }
                    let input = inputs_ref[i]
                        .lock()
                        .expect("shard input lock")
                        .take()
                        .expect("each shard input claimed once");
                    let shard = build_shard(q, g, tree, options.cst, input, i, &mut scratch);
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

/// Builds the CST with the sharded parallel pipeline and **merges** the
/// shard CSTs back into a single CST.
///
/// With one shard the result is exactly `build_cst_with_stats`. With
/// several, the merged CST can be *smaller* (per-shard refinement prunes
/// more), but it contains every embedding: counts are identical to the
/// sequential pipeline, and the merge is deterministic for every thread
/// count at a fixed shard count.
pub fn build_cst_sharded(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: &PipelineOptions,
) -> (Cst, PipelineStats) {
    let mut shards: Vec<ShardCst> = Vec::new();
    let stats = for_each_shard_cst(q, g, tree, options, |s| shards.push(s));
    let merged = merge_shard_csts(shards.iter().map(|s| s.cst.as_ref()));
    (merged, stats)
}

/// Merges shard CSTs (disjoint at the root, overlapping elsewhere) into one
/// CST: candidate sets are sorted unions, adjacency lists are per-candidate
/// unions remapped to merged indices.
pub fn merge_shard_csts<'a, I>(shards: I) -> Cst
where
    I: IntoIterator<Item = &'a Cst>,
{
    let shards: Vec<&Cst> = shards.into_iter().collect();
    assert!(!shards.is_empty(), "need at least one shard CST");
    if shards.len() == 1 {
        return shards[0].clone();
    }
    let n = shards[0].query_vertex_count();

    // Merged candidate sets: sorted union per query vertex.
    let mut merged_candidates: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    for u in 0..n {
        let qu = QueryVertexId::from_index(u);
        let mut all: Vec<VertexId> = shards
            .iter()
            .flat_map(|s| s.candidates(qu).iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        merged_candidates.push(all);
    }

    // Shard-local index → merged index, per shard per query vertex. Both
    // lists are sorted and the shard list is a subset of the merged one, so
    // a single two-pointer merge resolves every index in O(k + n) instead
    // of O(k log n) binary searches.
    let remap: Vec<Vec<Vec<u32>>> = shards
        .iter()
        .map(|s| {
            (0..n)
                .map(|u| {
                    let qu = QueryVertexId::from_index(u);
                    let merged = &merged_candidates[u];
                    let mut j = 0usize;
                    s.candidates(qu)
                        .iter()
                        .map(|v| {
                            while merged[j] < *v {
                                j += 1;
                            }
                            debug_assert_eq!(merged[j], *v, "shard candidate in merged set");
                            let out = j as u32;
                            j += 1;
                            out
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    // Merged adjacency: union of remapped shard lists per merged candidate.
    let mut pairs = Vec::new();
    for (a, b) in shards[0].directed_edges() {
        let src_count = merged_candidates[a.index()].len();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); src_count];
        for (si, s) in shards.iter().enumerate() {
            let adj = s.adjacency(a, b);
            let map_a = &remap[si][a.index()];
            let map_b = &remap[si][b.index()];
            for i in 0..adj.source_count() {
                let list = &mut lists[map_a[i] as usize];
                for &t in adj.neighbors(i) {
                    list.push(map_b[t as usize]);
                }
            }
        }
        let mut offsets = Vec::with_capacity(src_count + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for mut list in lists {
            list.sort_unstable();
            list.dedup();
            targets.extend_from_slice(&list);
            offsets.push(targets.len() as u32);
        }
        pairs.push(((a, b), CsrAdj { offsets, targets }));
    }
    Cst::from_parts(n, merged_candidates, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_cst, build_cst_with_stats};
    use crate::enumerate::count_embeddings;
    use graph_core::generators::random_labelled_graph;
    use graph_core::{Label, MatchingOrder, QueryGraph};

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
        let (par, stats) = build_cst_sharded(&q, &g, &tree, &opts);
        assert_eq!(stats.shards, 1);
        for u in q.vertices() {
            assert_eq!(seq.candidates(u), par.candidates(u));
        }
        assert_eq!(seq.total_adjacency_entries(), par.total_adjacency_entries());
        assert_eq!(stats.total_adjacency_entries(), seq_stats.adjacency_entries);
    }

    #[test]
    fn sharded_counts_match_sequential_for_all_shard_counts() {
        let (q, g, tree, order) = setup();
        let seq = build_cst(&q, &g, &tree);
        let whole = count_embeddings(&seq, &q, &order);
        for shards in [1, 2, 3, 5, 8, 64] {
            let opts = PipelineOptions {
                threads: 2,
                shards: Some(shards),
                cst: CstOptions::default(),
                ..PipelineOptions::default()
            };
            let (merged, stats) = build_cst_sharded(&q, &g, &tree, &opts);
            merged.validate(&q).unwrap();
            assert_eq!(
                count_embeddings(&merged, &q, &order),
                whole,
                "shards={shards}"
            );
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
        let whole = count_embeddings(&seq, &q, &order);
        for threads in [1, 4] {
            let opts = PipelineOptions {
                threads,
                shards: Some(6),
                cst: CstOptions::default(),
                ..PipelineOptions::default()
            };
            let mut sum = 0u64;
            let mut seen = Vec::new();
            let stats = for_each_shard_cst(&q, &g, &tree, &opts, |s| {
                seen.push(s.report.shard);
                sum += count_embeddings(&s.cst, &q, &order);
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

        // Replaying it skips planning and executes the same decomposition.
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
        assert!(replanned.shards <= 2, "stale plan must not override the options");

        // Hand-built plans (provenance 0) are never trusted.
        let hand_built = ShardPlan::contiguous(fresh.plan.order.len(), 4);
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
