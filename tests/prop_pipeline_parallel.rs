//! Property-based tests of the sharded parallel CST pipeline
//! (`cst::pipeline`): for arbitrary graphs and queries, the pipeline's
//! output is **identical for every thread count** at a fixed shard count,
//! and its embedding counts are identical to the sequential pipeline for
//! every shard count — the correctness bar of the overlapped host path.

use cst::{
    build_cst, build_cst_from_roots, build_cst_with_stats, for_each_shard_cst,
    for_each_shard_cst_planned, plan_pipeline_shards, plan_provenance, root_candidates, Cst,
    CstOptions, PipelineOptions, PipelineStats, ShardPlan,
};
use fast::{run_fast, FastConfig, Variant};
use graph_core::generators::{random_labelled_graph, random_power_law_graph};
use graph_core::{BfsTree, Graph, Label, MatchingOrder, QueryGraph, QueryVertexId};
use matching::{run_backtrack, vf2_count, AnchorPolicy, ExtensionMethod, RunLimits};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A connected query on `n` vertices over two labels: a random spanning
/// tree plus each further edge with probability 0.3, drawn from `seed`.
fn seeded_query(n: usize, seed: u64) -> QueryGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    let labels: Vec<Label> = (0..n).map(|_| Label::new(rng.gen_range(0..2))).collect();
    let mut edges = Vec::new();
    for i in 1..n {
        edges.push((rng.gen_range(0..i), i));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(0.3) {
                edges.push((a, b));
            }
        }
    }
    QueryGraph::new(labels, &edges).expect("connected by construction")
}

/// Embeddings of `cst`, counted by the CPU engine's CST search (the
/// FAST-SHARE CPU share's method).
fn engine_count(q: &QueryGraph, g: &Graph, cst: &Cst, order: &MatchingOrder) -> u64 {
    let method = ExtensionMethod::EdgeVerification(AnchorPolicy::MinList);
    run_backtrack(q, g, cst, order, method, &RunLimits::unlimited()).1.embeddings
}

fn arb_query() -> impl Strategy<Value = QueryGraph> {
    (3usize..=5, any::<u64>()).prop_map(|(n, seed)| seeded_query(n, seed))
}

/// Structural equality of two CSTs: same candidate sets and same adjacency
/// lists for every directed query edge.
fn csts_identical(a: &cst::Cst, b: &cst::Cst) -> bool {
    if a.query_vertex_count() != b.query_vertex_count() {
        return false;
    }
    for u in 0..a.query_vertex_count() {
        let qu = QueryVertexId::from_index(u);
        if a.candidates(qu) != b.candidates(qu) {
            return false;
        }
    }
    let edges_a: Vec<_> = a.directed_edges().collect();
    let edges_b: Vec<_> = b.directed_edges().collect();
    if edges_a != edges_b {
        return false;
    }
    for &(x, y) in &edges_a {
        let aa = a.adjacency(x, y);
        let bb = b.adjacency(x, y);
        if aa.offsets != bb.offsets || aa.targets != bb.targets {
            return false;
        }
    }
    true
}

/// The shard CSTs the pipeline streams, in consumption order, with its
/// statistics.
fn shard_stream(
    q: &QueryGraph,
    g: &graph_core::Graph,
    tree: &BfsTree,
    opts: &PipelineOptions,
) -> (Vec<Arc<Cst>>, PipelineStats) {
    let mut csts = Vec::new();
    let stats = for_each_shard_cst(q, g, tree, opts, |s| csts.push(s.cst));
    (csts, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// The shard stream is bit-identical, shard by shard, across thread
    /// counts {1, 2, 4, 8} at a fixed shard count, its shards cover every
    /// root exactly once, and its summed embedding count matches the
    /// sequential build for every shard count.
    #[test]
    fn thread_count_never_changes_the_output(
        q in arb_query(),
        graph_seed in 0u64..300,
        shards in 1usize..12,
    ) {
        let g = random_labelled_graph(45, 0.15, 2, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let sequential = build_cst(&q, &g, &tree);
        let whole = engine_count(&q, &g, &sequential, &order);
        prop_assert_eq!(whole, vf2_count(&q, &g));

        let mut reference: Option<Vec<Arc<Cst>>> = None;
        for threads in [1usize, 2, 4, 8] {
            let opts = PipelineOptions {
                threads,
                shards: Some(shards),
                cst: CstOptions::default(),
            };
            let (stream, stats) = shard_stream(&q, &g, &tree, &opts);
            let mut sum = 0u64;
            for shard in &stream {
                prop_assert!(shard.validate(&q).is_ok());
                sum += engine_count(&q, &g, shard, &order);
            }
            prop_assert_eq!(sum, whole, "threads {} shards {}", threads, shards);
            prop_assert_eq!(stats.shards, shards.min(stats.root_candidates.max(1)));
            prop_assert_eq!(
                stats.shard_reports.iter().map(|r| r.roots).sum::<usize>(),
                stats.root_candidates
            );
            match &reference {
                None => reference = Some(stream),
                Some(r) => {
                    prop_assert_eq!(r.len(), stream.len());
                    for (s, (a, b)) in r.iter().zip(&stream).enumerate() {
                        prop_assert!(
                            csts_identical(a, b),
                            "threads {} produced a different CST for shard {}",
                            threads,
                            s
                        );
                    }
                }
            }
        }
        // One shard reproduces the sequential CST exactly (not just its
        // counts).
        let opts = PipelineOptions {
            threads: 4,
            shards: Some(1),
            cst: CstOptions::default(),
        };
        let (single, _) = shard_stream(&q, &g, &tree, &opts);
        prop_assert_eq!(single.len(), 1);
        let (expected, _) = build_cst_with_stats(&q, &g, &tree, CstOptions::default());
        prop_assert!(csts_identical(&expected, &single[0]));
    }

    /// The same bar on hub-heavy power-law graphs, where sharding
    /// duplicates the most interior work: the shard stream's summed
    /// embedding count matches the sequential build, and the stream is
    /// bit-identical, shard by shard, across thread counts at a fixed
    /// shard count.
    #[test]
    fn planners_preserve_counts_and_thread_invariance(
        q in arb_query(),
        graph_seed in 0u64..200,
        shards in 2usize..10,
    ) {
        let g = random_power_law_graph(160, 3, 2, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let sequential = build_cst(&q, &g, &tree);
        let whole = engine_count(&q, &g, &sequential, &order);
        let mut reference: Option<Vec<Arc<Cst>>> = None;
        for threads in [1usize, 4] {
            let opts = PipelineOptions {
                threads,
                shards: Some(shards),
                cst: CstOptions::default(),
            };
            let (stream, stats) = shard_stream(&q, &g, &tree, &opts);
            let mut sum = 0u64;
            for shard in &stream {
                prop_assert!(shard.validate(&q).is_ok());
                sum += engine_count(&q, &g, shard, &order);
            }
            prop_assert_eq!(sum, whole, "threads {} shards {}", threads, shards);
            prop_assert_eq!(stats.shards, shards.min(stats.root_candidates.max(1)));
            match &reference {
                None => reference = Some(stream),
                Some(r) => {
                    prop_assert_eq!(r.len(), stream.len());
                    for (s, (a, b)) in r.iter().zip(&stream).enumerate() {
                        prop_assert!(
                            csts_identical(a, b),
                            "threads {} produced a different CST for shard {}",
                            threads,
                            s
                        );
                    }
                }
            }
        }
    }

    /// The one cut above one thread: at `threads ∈ {2, 4}` and a fixed
    /// shard count `S`, the pipeline reports exactly `min(S, |C(root)|)`
    /// shards; shard `s` is built from exactly the `s`-th equal-count
    /// chunk of the sorted root list (the first `|C(root)| mod S` chunks
    /// one root longer), in index order; and the builds scan top-down
    /// whenever a root exists.
    #[test]
    fn threaded_hosts_cut_the_roots_evenly(
        q in arb_query(),
        graph_seed in 0u64..200,
        shards in 1usize..12,
    ) {
        let g = random_power_law_graph(160, 3, 2, graph_seed);
        let tree = BfsTree::new(&q, QueryVertexId::new(0));
        let roots = root_candidates(&q, &g, &tree, CstOptions::default());
        let expected_shards = shards.min(roots.len()).max(1);
        let (base, extra) = (roots.len() / expected_shards, roots.len() % expected_shards);
        for threads in [2usize, 4] {
            let opts = PipelineOptions {
                threads,
                shards: Some(shards),
                cst: CstOptions::default(),
            };
            let mut seen = Vec::new();
            let mut start = 0usize;
            let stats = for_each_shard_cst(&q, &g, &tree, &opts, |s| {
                let len = base + usize::from(s.report.shard < extra);
                let chunk = roots[start..start + len].to_vec();
                start += len;
                let (expected, _) = build_cst_from_roots(&q, &g, &tree, opts.cst, chunk);
                let identical = csts_identical(&expected, &s.cst);
                seen.push((s.report.shard, s.report.roots == len, identical));
            });
            prop_assert_eq!(stats.shards, expected_shards, "threads {}", threads);
            prop_assert_eq!(start, roots.len());
            for (i, (shard, roots_match, cst_match)) in seen.iter().enumerate() {
                prop_assert_eq!(*shard, i, "consumed in index order");
                prop_assert!(*roots_match && *cst_match, "shard {} is not its chunk", i);
            }
            if !roots.is_empty() {
                prop_assert!(stats.topdown_entries > 0, "threads {}", threads);
            }
        }
    }

    /// The full pipelined host driver (partition → schedule → kernel/CPU
    /// share) reports identical embeddings and identical downstream counts
    /// for every thread count.
    #[test]
    fn pipelined_host_is_thread_count_invariant(
        graph_seed in 0u64..200,
        shards in 2usize..8,
    ) {
        let q = QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(1)],
            &[(0, 1), (1, 2), (0, 2)],
        ).expect("triangle");
        let g = random_labelled_graph(50, 0.2, 2, graph_seed);
        let sequential = run_fast(&q, &g, &FastConfig::test_small(Variant::Share)).expect("run");
        let mut fingerprints = Vec::new();
        for threads in [2usize, 4] {
            let mut config = FastConfig::test_small(Variant::Share);
            config.host_threads = threads;
            config.pipeline_shards = Some(shards);
            let r = run_fast(&q, &g, &config).expect("run");
            prop_assert_eq!(r.embeddings, sequential.embeddings, "threads {}", threads);
            fingerprints.push((
                r.fpga_partitions,
                r.cpu_partitions,
                r.stolen,
                r.transfer_bytes,
                r.kernel_cycles,
                r.counts.n,
                r.counts.m,
            ));
        }
        prop_assert_eq!(fingerprints[0], fingerprints[1]);
    }
}

/// A query whose label exists nowhere in the graph: the root candidate set
/// is empty, every shard is empty, and the pipeline reports zero work.
#[test]
fn empty_root_candidate_set() {
    let q = QueryGraph::new(vec![Label::new(9), Label::new(1)], &[(0, 1)]).unwrap();
    let g = random_labelled_graph(30, 0.3, 2, 11);
    let tree = BfsTree::new(&q, QueryVertexId::new(0));
    let opts = PipelineOptions {
        threads: 4,
        shards: Some(8),
        cst: CstOptions::default(),
    };
    let mut seen = 0usize;
    let stats = for_each_shard_cst(&q, &g, &tree, &opts, |s| {
        seen += 1;
        assert!(s.cst.any_empty());
    });
    assert_eq!(stats.root_candidates, 0);
    assert_eq!(stats.shards, 1, "zero roots collapse to one (empty) shard");
    assert_eq!(seen, 1);
}

/// One root per shard: handed a plan that cuts every root into a shard of
/// its own, the pipeline builds exactly that many one-root shards and the
/// shard counts still sum to the sequential count. (The pipeline's own
/// clamp of the shard count to the root count is
/// `planner_edge_cases_end_to_end`.)
#[test]
fn singleton_root_shards() {
    let q = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap();
    let g = random_labelled_graph(25, 0.3, 2, 13);
    let tree = BfsTree::new(&q, QueryVertexId::new(0));
    let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
    let sequential = build_cst(&q, &g, &tree);
    let whole = engine_count(&q, &g, &sequential, &order);
    let opts = PipelineOptions {
        threads: 4,
        shards: Some(64),
        cst: CstOptions::default(),
    };
    let roots = root_candidates(&q, &g, &tree, opts.cst);
    assert!(
        roots.len() >= 2,
        "test graph must have several root candidates"
    );
    let plan = ShardPlan {
        provenance: plan_provenance(&roots, &opts),
        ..ShardPlan::contiguous(roots.len(), roots.len())
    };
    let mut sum = 0u64;
    let stats = for_each_shard_cst_planned(&q, &g, &tree, &opts, Some(&plan), |s| {
        assert_eq!(s.report.roots, 1);
        sum += engine_count(&q, &g, &s.cst, &order);
    });
    assert_eq!(stats.shards, roots.len());
    assert_eq!(stats.plan, plan, "the handed-in plan is used as is");
    assert_eq!(sum, whole);
}

/// Plan edge cases through the whole pipeline: empty root sets, a single
/// root candidate, and more shards than candidates.
#[test]
fn planner_edge_cases_end_to_end() {
    let g = random_labelled_graph(25, 0.3, 2, 13);
    // A label absent from the graph (zero roots) and a normal triangle
    // query.
    let absent = QueryGraph::new(vec![Label::new(9), Label::new(1)], &[(0, 1)]).unwrap();
    let triangle = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap();
    // Zero roots: one empty shard.
    let tree = BfsTree::new(&absent, QueryVertexId::new(0));
    let opts = PipelineOptions {
        threads: 2,
        shards: Some(8),
        cst: CstOptions::default(),
    };
    let stats = for_each_shard_cst(&absent, &g, &tree, &opts, |s| {
        assert!(s.cst.any_empty());
    });
    assert_eq!(stats.shards, 1, "zero roots collapse to one shard");

    // Triangle query: shards > roots clamps, counts preserved.
    let tree = BfsTree::new(&triangle, QueryVertexId::new(0));
    let order = MatchingOrder::new(&triangle, tree.bfs_order().to_vec()).unwrap();
    let whole = engine_count(&triangle, &g, &build_cst(&triangle, &g, &tree), &order);
    let roots = cst::root_candidates(&triangle, &g, &tree, CstOptions::default()).len();
    let opts = PipelineOptions {
        threads: 2,
        shards: Some(roots * 5),
        cst: CstOptions::default(),
    };
    let (stream, stats) = shard_stream(&triangle, &g, &tree, &opts);
    assert_eq!(stats.shards, roots, "clamped to the root count");
    let sum: u64 = stream
        .iter()
        .map(|shard| engine_count(&triangle, &g, shard, &order))
        .sum();
    assert_eq!(sum, whole);

    // Single root candidate: the plan degenerates to one shard.
    let first = root_candidates(&triangle, &g, &tree, CstOptions::default())[..1].to_vec();
    assert_eq!(plan_pipeline_shards(&first, &opts).shard_count(), 1);
}
