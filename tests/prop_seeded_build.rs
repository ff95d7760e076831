//! Property-based tests of probe-seeded shard builds: a shard build that
//! starts from the planner probe's memoised candidate space
//! (`cst::build_cst_seeded`, `RootProfile::seed_chunks`) must be
//! **bit-identical** to the cold top-down build — same CSTs, same partition
//! sequence, same embedding counts — for every planner and thread count;
//! and a probe whose provenance does not match the pipeline's freshly
//! derived inputs must be discarded and recomputed, never trusted.

use cst::{
    build_cst_from_roots, build_cst_seeded, build_cst_sharded, count_embeddings,
    for_each_shard_cst_planned, plan_pipeline_shards, root_candidates, BuildStats,
    CandidateFilter, Cst, CstOptions, PipelineOptions, ShardPlanner,
};
use fast::{run_fast, FastConfig, Variant};
use graph_core::generators::{random_labelled_graph, random_power_law_graph};
use graph_core::{BfsTree, Graph, Label, MatchingOrder, QueryGraph, QueryVertexId, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_query() -> impl Strategy<Value = QueryGraph> {
    (3usize..=5, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let labels: Vec<Label> = (0..n).map(|_| Label::new(rng.gen_range(0..2))).collect();
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((rng.gen_range(0..i), i));
        }
        for a in 0..n {
            for b in (a + 1)..n {
                // Denser than the pipeline tests: non-tree edges are where a
                // seeded build could go wrong if it trusted the probe's
                // stride-sampled edge estimates instead of re-materialising.
                if rng.gen_bool(0.4) {
                    edges.push((a, b));
                }
            }
        }
        QueryGraph::new(labels, &edges).expect("connected by construction")
    })
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

fn options(planner: ShardPlanner, threads: usize, shards: usize, seed: bool) -> PipelineOptions {
    PipelineOptions {
        threads,
        shards: Some(shards),
        planner,
        cst: CstOptions::default(),
        seed_builds: seed,
        ..PipelineOptions::default()
    }
}

/// Algorithm 1 read as a definition, with no bitmap, rank table, transpose
/// or index arithmetic — every set is a filter over `g.vertices()` in id
/// order and every adjacency question is `g.has_edge`. Shares only the
/// local filter (`CandidateFilter`) with `cst::construct`. Checks the built
/// CST, list by list, and the three `BuildStats` identities.
///
/// Mutations of `cst::construct` each shown failing here (PR 23): rank
/// table not un-written between targets; transpose placing by descending
/// source; forward built from the larger-index endpoint but stored under
/// the smaller's slot; per-target counts off by one at the last target;
/// candidates read off the bitmap before phase 1's last `set`;
/// `adjacency_entries` counting one direction only.
fn assert_is_the_definition(
    (cst, stats): &(Cst, BuildStats),
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
    roots: &[VertexId],
) {
    cst.validate(q).expect("structurally valid");
    let passes = |u: QueryVertexId, w: VertexId| {
        let filter = CandidateFilter::new(q, u);
        if options.use_nlf {
            filter.passes(g, w, &mut Vec::new())
        } else {
            filter.passes_basic(g, w)
        }
    };
    let mut c: Vec<Vec<VertexId>> = vec![Vec::new(); q.vertex_count()];
    c[tree.root().index()] = roots.to_vec();
    for &u in &tree.bfs_order()[1..] {
        let parent = tree.parent(u).expect("non-root");
        c[u.index()] = g
            .vertices()
            .filter(|&w| passes(u, w) && c[parent.index()].iter().any(|&vp| g.has_edge(vp, w)))
            .collect();
    }
    let before: Vec<usize> = c.iter().map(Vec::len).collect();
    if options.refine {
        for u in tree.bottom_up_order() {
            let kept: Vec<VertexId> = c[u.index()]
                .iter()
                .copied()
                .filter(|&v| {
                    tree.children(u)
                        .iter()
                        .all(|&uc| c[uc.index()].iter().any(|&w| g.has_edge(v, w)))
                })
                .collect();
            c[u.index()] = kept;
        }
    }
    let mut entries = 0usize;
    for u in q.vertices() {
        assert_eq!(cst.candidates(u), c[u.index()], "C({u:?})");
        for un in q.neighbors(u) {
            for (i, &v) in c[u.index()].iter().enumerate() {
                let expected: Vec<u32> = (0..c[un.index()].len() as u32)
                    .filter(|&j| g.has_edge(v, c[un.index()][j as usize]))
                    .collect();
                assert_eq!(
                    cst.neighbors(u, i as u32, un),
                    expected,
                    "N^{u:?}_{un:?}[{i}]"
                );
                entries += expected.len();
            }
        }
    }
    assert_eq!(stats.adjacency_entries, entries);
    assert_eq!(stats.candidates_before_refine, before);
    for u in q.vertices() {
        assert_eq!(
            before[u.index()] - stats.removed_by_refine[u.index()],
            c[u.index()].len()
        );
    }
}

/// Every pruning strength the crate names, plus NLF without refinement.
const STRENGTHS: [CstOptions; 3] = [
    CstOptions {
        use_nlf: true,
        refine: true,
    },
    CstOptions {
        use_nlf: false,
        refine: false,
    },
    CstOptions {
        use_nlf: true,
        refine: false,
    },
];

/// The whole-root-set build and the build of every root chunk (down to one
/// root per shard when `shards` is large) against the definition.
fn assert_builds_are_the_definition(q: &QueryGraph, g: &Graph, shards: usize) {
    let tree = BfsTree::new(q, QueryVertexId::new(0));
    for options in STRENGTHS {
        let roots = root_candidates(q, g, &tree, options);
        let whole = build_cst_from_roots(q, g, &tree, options, roots.clone());
        assert_is_the_definition(&whole, q, g, &tree, options, &roots);
        for chunk in roots.chunks(roots.len().div_ceil(shards).max(1)) {
            let shard = build_cst_from_roots(q, g, &tree, options, chunk.to_vec());
            assert_is_the_definition(&shard, q, g, &tree, options, chunk);
        }
    }
}

/// The shapes phase 3 can take; the smaller candidate set of an edge is
/// the one scanned, so the label shares below decide every scan side.
#[test]
fn construct_shapes_match_the_definition() {
    let l = Label::new;
    let query = |labels: &[u16], edges: &[(usize, usize)]| {
        QueryGraph::new(labels.iter().map(|&x| l(x)).collect(), edges).expect("connected")
    };
    let shapes = [
        // Triangle: every vertex is a source for one edge and a target for
        // another.
        query(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]),
        // Same label all round: scan sides fall back to the index order.
        query(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
        // u1 is the larger endpoint of two of its three edges under NLF
        // (|C| = 25, 11, 8, 8) and of all three without (26, 28, 14, 14):
        // its rank table is filled once and read by two or three scans.
        query(&[1, 0, 2, 2], &[(0, 1), (1, 2), (1, 3), (2, 3)]),
        // A path: every interior vertex is refined; no non-tree edge.
        query(&[2, 0, 1, 0], &[(0, 1), (1, 2), (2, 3)]),
    ];
    // Label 0 on about half the vertices, 1 on a third, 2 on a sixth.
    let g = {
        let base = random_power_law_graph(72, 4, 6, 11);
        let mut b = graph_core::GraphBuilder::new();
        for v in base.vertices() {
            b.add_vertex(l([0, 0, 0, 1, 1, 2][base.label(v).index()]));
        }
        for (x, y) in base.edges() {
            b.add_edge(x, y).expect("copied edge");
        }
        b.build()
    };
    for q in shapes {
        // 1 shard, a few, and one root per shard.
        for shards in [1, 3, usize::MAX] {
            assert_builds_are_the_definition(&q, &g, shards);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Generated queries × both random graph families: the built CST is
    /// the definition's, whole and per root chunk, at every strength.
    #[test]
    fn built_csts_match_the_definition(
        q in arb_query(),
        graph_seed in 0u64..200,
        shards in 1usize..6,
    ) {
        assert_builds_are_the_definition(&q, &random_labelled_graph(45, 0.15, 2, graph_seed), shards);
        assert_builds_are_the_definition(&q, &random_power_law_graph(60, 3, 3, graph_seed), shards);
    }

    /// Seeded and cold shard builds produce bit-identical CSTs (per shard
    /// *and* merged) and identical embedding counts, for all four planners
    /// across thread counts {1, 2, 4, 8}.
    #[test]
    fn seeded_builds_are_bit_identical_to_cold(
        q in arb_query(),
        graph_seed in 0u64..200,
        shards in 2usize..10,
    ) {
        let g = random_labelled_graph(45, 0.15, 2, graph_seed);
        let tree = BfsTree::new(&q, QueryVertexId::new(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let sequential = cst::build_cst(&q, &g, &tree);
        let whole = count_embeddings(&sequential, &q, &order);
        for planner in [
            ShardPlanner::Contiguous,
            ShardPlanner::WorkloadBalanced,
            ShardPlanner::OverlapAware,
            ShardPlanner::Auto,
        ] {
            // Cold reference at one thread, then every seeded thread count
            // must reproduce it bit for bit.
            let (cold, cold_stats) =
                build_cst_sharded(&q, &g, &tree, &options(planner, 1, shards, false));
            prop_assert_eq!(cold_stats.seeded_shards, 0, "{}: seeding was disabled", planner);
            for threads in [1usize, 2, 4, 8] {
                let opts = options(planner, threads, shards, true);
                let (seeded, stats) = build_cst_sharded(&q, &g, &tree, &opts);
                prop_assert!(
                    csts_identical(&cold, &seeded),
                    "{} threads {} seeded CST differs",
                    planner,
                    threads
                );
                prop_assert_eq!(
                    count_embeddings(&seeded, &q, &order),
                    whole,
                    "{} threads {}",
                    planner,
                    threads
                );
                // Non-contiguous planners probe (except in the degenerate
                // ≤1-root case, where planning short-circuits), so their
                // builds must have been seeded — and seeded builds do no
                // top-down scanning.
                if planner != ShardPlanner::Contiguous && stats.root_candidates > 1 {
                    prop_assert_eq!(stats.seeded_shards, stats.shards, "{}", planner);
                    prop_assert_eq!(stats.topdown_entries, 0usize, "{}", planner);
                } else if planner == ShardPlanner::Contiguous {
                    prop_assert_eq!(stats.seeded_shards, 0usize, "{}", planner);
                }
            }
        }
    }

    /// Per-shard bit-identity straight at the construct layer: every shard's
    /// seeded build equals the cold `build_cst_from_roots` on the same chunk
    /// — including the non-tree adjacency, which the seed must re-materialise
    /// from the graph (the probe's stride-sampled non-tree edges are a
    /// counting estimate, never exact candidates).
    #[test]
    fn seed_chunks_reproduce_every_shard(
        q in arb_query(),
        graph_seed in 0u64..200,
        shards in 2usize..8,
    ) {
        let g = random_labelled_graph(40, 0.18, 2, graph_seed);
        let tree = BfsTree::new(&q, QueryVertexId::new(0));
        let opts = options(ShardPlanner::OverlapAware, 1, shards, true);
        let roots = root_candidates(&q, &g, &tree, opts.cst);
        if roots.len() <= 1 {
            return Ok(()); // degenerate: the pipeline never probes
        }
        let plan = plan_pipeline_shards(&q, &g, &tree, &opts, &roots);
        let probe = plan.probe.as_ref().expect("probing planner retains its probe");
        let seeds = probe
            .seed_chunks(&plan, &roots)
            .expect("probe carries the candidate space");
        prop_assert_eq!(seeds.len(), plan.shard_count());
        for (s, seed) in seeds.into_iter().enumerate() {
            let chunk = plan.chunk_roots(&roots, s);
            let (cold, cold_stats) =
                build_cst_from_roots(&q, &g, &tree, opts.cst, chunk);
            let (warm, warm_stats) = build_cst_seeded(&q, &g, &tree, opts.cst, seed);
            prop_assert!(csts_identical(&cold, &warm), "shard {} differs", s);
            prop_assert_eq!(
                &cold_stats.candidates_before_refine,
                &warm_stats.candidates_before_refine,
                "shard {} phase-1 sets differ", s
            );
            prop_assert_eq!(cold_stats.adjacency_entries, warm_stats.adjacency_entries);
            prop_assert_eq!(warm_stats.topdown_entries, 0usize, "seeded build scanned");
        }
    }

    /// The full host driver (partition → schedule → kernel) is unchanged by
    /// seeding: identical embeddings and identical downstream partition /
    /// transfer / kernel counts with `seed_from_probe` on and off.
    #[test]
    fn host_driver_downstream_is_identical_with_and_without_seeding(
        graph_seed in 0u64..150,
        shards in 2usize..8,
    ) {
        let q = QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(1)],
            &[(0, 1), (1, 2), (0, 2)],
        ).expect("triangle");
        let g = random_labelled_graph(50, 0.2, 2, graph_seed);
        let mut fingerprints = Vec::new();
        for seed in [false, true] {
            let mut config = FastConfig::test_small(Variant::Share);
            config.host_threads = 2;
            config.pipeline_shards = Some(shards);
            config.shard_planner = ShardPlanner::Auto;
            config.seed_from_probe = seed;
            let r = run_fast(&q, &g, &config).expect("run");
            fingerprints.push((
                r.embeddings,
                r.fpga_partitions,
                r.cpu_partitions,
                r.stolen,
                r.transfer_bytes,
                r.kernel_cycles,
                r.counts.n,
                r.counts.m,
                r.pipeline_shards,
            ));
        }
        prop_assert_eq!(fingerprints[0], fingerprints[1]);
    }
}

/// A stale or foreign probe must be discarded with its plan: handing the
/// pipeline a plan (and probe) computed for different options replans and
/// re-probes instead of trusting the mismatched candidate space.
#[test]
fn foreign_probe_is_discarded_and_recomputed() {
    let q = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap();
    let g = random_labelled_graph(60, 0.2, 2, 7);
    let tree = BfsTree::new(&q, QueryVertexId::new(0));
    let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
    let whole = count_embeddings(&cst::build_cst(&q, &g, &tree), &q, &order);

    let opts = options(ShardPlanner::WorkloadBalanced, 1, 4, true);
    let fresh = for_each_shard_cst_planned(&q, &g, &tree, &opts, None, |_| {});
    assert!(fresh.plan.probe.is_some(), "probing planner retains its probe");
    assert_eq!(fresh.seeded_shards, fresh.shards, "fresh run seeds from its probe");

    // Same root set, different plan-relevant options: provenance mismatch.
    // The stale plan (and the probe inside it) must be replanned, and the
    // replanned run still seeds — from the *new* probe.
    let other = options(ShardPlanner::WorkloadBalanced, 1, 2, true);
    let mut sum = 0u64;
    let replanned =
        for_each_shard_cst_planned(&q, &g, &tree, &other, Some(&fresh.plan), |s| {
            sum += count_embeddings(&s.cst, &q, &order);
        });
    assert_eq!(replanned.shards, 2, "stale plan must not override the options");
    assert_eq!(replanned.seeded_shards, 2, "replanned run seeds from the fresh probe");
    assert_eq!(sum, whole);

    // A tampered plan (provenance zeroed) is never trusted — even though it
    // still carries a plausible probe.
    let mut tampered = fresh.plan.clone();
    tampered.provenance = 0;
    let mut sum2 = 0u64;
    let guarded = for_each_shard_cst_planned(&q, &g, &tree, &opts, Some(&tampered), |s| {
        sum2 += count_embeddings(&s.cst, &q, &order);
    });
    assert_eq!(guarded.plan.planner, ShardPlanner::WorkloadBalanced);
    assert_ne!(guarded.plan.provenance, 0, "replanned plan carries provenance");
    assert_eq!(sum2, whole);
}

/// Disabling seeding falls back to cold builds without touching results.
#[test]
fn seeding_knob_off_runs_cold() {
    let q = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(0)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap();
    let g = random_labelled_graph(50, 0.22, 2, 21);
    let tree = BfsTree::new(&q, QueryVertexId::new(0));
    let on = build_cst_sharded(&q, &g, &tree, &options(ShardPlanner::Auto, 2, 4, true));
    let off = build_cst_sharded(&q, &g, &tree, &options(ShardPlanner::Auto, 2, 4, false));
    assert!(csts_identical(&on.0, &off.0));
    assert!(on.1.seeded_shards == on.1.shards || on.1.shards == 1);
    assert_eq!(off.1.seeded_shards, 0);
    assert!(off.1.topdown_entries > 0, "cold builds scan top-down");
}
