//! Property-based tests of probe-seeded shard builds: a shard build that
//! starts from the planner probe's memoised candidate space
//! (`cst::build_cst_seeded`, `RootProfile::seed_chunks`) must be
//! **bit-identical** to the cold top-down build of the same root chunk
//! (`cst::build_cst_from_roots`) — same CSTs, same partition sequence, same
//! embedding counts — at every thread count; and a probe whose provenance
//! does not match the pipeline's freshly derived inputs must be discarded
//! and recomputed, never trusted.

use cst::{
    build_cst_from_roots, build_cst_seeded, count_embeddings, for_each_shard_cst,
    for_each_shard_cst_planned, plan_pipeline_shards, root_candidates, BuildStats, CandidateFilter,
    Cst, CstOptions, PipelineOptions, ShardCst,
};
use fast::{run_fast, FastConfig, ShardPlan, Variant};
use graph_core::generators::{random_labelled_graph, random_power_law_graph};
use graph_core::{
    select_root, BfsTree, Graph, Label, MatchingOrder, QueryGraph, QueryVertexId, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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

fn options(threads: usize, shards: usize) -> PipelineOptions {
    PipelineOptions {
        threads,
        shards: Some(shards),
        cst: CstOptions::default(),
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

    /// Every shard CST the pipeline emits equals the cold
    /// `build_cst_from_roots` on the same root chunk, bit for bit, at
    /// thread counts {1, 2, 4, 8}: a probed plan seeds every shard, and
    /// seeded builds scan nothing top-down while the cold builds do. The
    /// plan and the summed embedding count are the same at every thread
    /// count.
    #[test]
    fn seeded_builds_are_bit_identical_to_cold(
        q in arb_query(),
        graph_seed in 0u64..200,
        shards in 2usize..10,
    ) {
        let g = random_labelled_graph(45, 0.15, 2, graph_seed);
        let tree = BfsTree::new(&q, QueryVertexId::new(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let whole = count_embeddings(&cst::build_cst(&q, &g, &tree), &q, &order);
        let roots = root_candidates(&q, &g, &tree, CstOptions::default());
        let mut first_plan = None;
        for threads in [1usize, 2, 4, 8] {
            let mut built: Vec<ShardCst> = Vec::new();
            let stats = for_each_shard_cst(&q, &g, &tree, &options(threads, shards), |s| {
                built.push(s)
            });
            prop_assert_eq!(built.len(), stats.shards);
            let probed = stats.plan.probe.is_some();
            // The pipeline probes exactly when it cuts more than one shard's
            // worth of roots, and a probed plan seeds every shard.
            prop_assert_eq!(probed, roots.len() > 1, "threads {}", threads);
            if probed {
                prop_assert_eq!(stats.seeded_shards, stats.shards, "threads {}", threads);
                prop_assert_eq!(stats.topdown_entries, 0usize, "threads {}", threads);
            }
            let (mut sum, mut cold_scans) = (0u64, 0usize);
            for (s, shard) in built.iter().enumerate() {
                let chunk = stats.plan.chunk_roots(&roots, s);
                let (cold, cold_stats) =
                    build_cst_from_roots(&q, &g, &tree, CstOptions::default(), chunk);
                prop_assert!(
                    csts_identical(&cold, &shard.cst),
                    "threads {} shard {} differs from its cold build",
                    threads,
                    s
                );
                prop_assert_eq!(shard.report.seeded, probed);
                cold_scans += cold_stats.topdown_entries;
                sum += count_embeddings(&shard.cst, &q, &order);
            }
            prop_assert_eq!(sum, whole, "threads {}", threads);
            if !roots.is_empty() {
                prop_assert!(cold_scans > 0, "cold builds scan top-down");
            }
            match &first_plan {
                None => first_plan = Some(stats.plan),
                Some(p) => prop_assert_eq!(p, &stats.plan, "threads {} replanned", threads),
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
        let opts = options(1, shards);
        let roots = root_candidates(&q, &g, &tree, opts.cst);
        if roots.len() <= 1 {
            return Ok(()); // degenerate: the pipeline never probes
        }
        let plan = plan_pipeline_shards(&q, &g, &tree, &opts, &roots);
        let probe = plan.probe.as_ref().expect("a multi-shard plan retains its probe");
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
    /// transfer / kernel counts whether the shards are seeded from the
    /// plan's probe or built cold from the same plan handed back without
    /// it (`FastConfig::shard_plan`).
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
        let mut config = FastConfig::test_small(Variant::Share);
        config.host_threads = 2;
        config.pipeline_shards = Some(shards);
        let tree = BfsTree::new(&q, select_root(&q, &g));
        let options = config.pipeline_options(q.vertex_count());
        let roots = root_candidates(&q, &g, &tree, options.cst);
        let plan = plan_pipeline_shards(&q, &g, &tree, &options, &roots);
        let mut fingerprints = Vec::new();
        for probe in [None, plan.probe.clone()] {
            let seeds = probe.is_some();
            config.shard_plan = Some(Arc::new(ShardPlan { probe, ..plan.clone() }));
            let r = run_fast(&q, &g, &config).expect("run");
            prop_assert_eq!(r.seeded_shards > 0, seeds);
            if !roots.is_empty() {
                prop_assert_eq!(
                    r.build_topdown_entries == 0,
                    seeds,
                    "seeded builds and only they skip the scan"
                );
            }
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

    let opts = options(1, 4);
    let fresh = for_each_shard_cst_planned(&q, &g, &tree, &opts, None, |_| {});
    assert!(
        fresh.plan.probe.is_some(),
        "a multi-shard plan retains its probe"
    );
    assert_eq!(fresh.seeded_shards, fresh.shards, "fresh run seeds from its probe");

    // Same root set, different plan-relevant options: provenance mismatch.
    // The stale plan (and the probe inside it) must be replanned, and the
    // replanned run still seeds — from the *new* probe.
    let other = options(1, 2);
    let mut sum = 0u64;
    let replanned =
        for_each_shard_cst_planned(&q, &g, &tree, &other, Some(&fresh.plan), |s| {
            sum += count_embeddings(&s.cst, &q, &order);
        });
    assert_ne!(replanned.plan.provenance, fresh.plan.provenance);
    assert!(
        replanned.shards <= 2,
        "stale plan must not override the options"
    );
    assert_eq!(
        replanned.seeded_shards, replanned.shards,
        "replanned run seeds from the fresh probe"
    );
    assert_eq!(sum, whole);

    // A tampered plan (provenance zeroed) is never trusted — even though it
    // still carries a plausible probe.
    let mut tampered = fresh.plan.clone();
    tampered.provenance = 0;
    let mut sum2 = 0u64;
    let guarded = for_each_shard_cst_planned(&q, &g, &tree, &opts, Some(&tampered), |s| {
        sum2 += count_embeddings(&s.cst, &q, &order);
    });
    assert_eq!(guarded.plan, fresh.plan, "replanned from scratch");
    assert_ne!(guarded.plan.provenance, 0, "replanned plan carries provenance");
    assert_eq!(sum2, whole);
}

/// Switching seeding off — replaying a plan without its probe — falls back
/// to cold builds without touching results.
#[test]
fn seeding_knob_off_runs_cold() {
    let q = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(0)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap();
    let g = random_labelled_graph(50, 0.22, 2, 21);
    let tree = BfsTree::new(&q, QueryVertexId::new(0));
    let opts = options(2, 4);
    let mut on: Vec<ShardCst> = Vec::new();
    let seeded = for_each_shard_cst(&q, &g, &tree, &opts, |s| on.push(s));
    let cold_plan = ShardPlan {
        probe: None,
        ..seeded.plan.clone()
    };
    let mut off: Vec<ShardCst> = Vec::new();
    let cold = for_each_shard_cst_planned(&q, &g, &tree, &opts, Some(&cold_plan), |s| off.push(s));
    assert!(seeded.shards > 1, "a multi-shard plan");
    assert_eq!(seeded.seeded_shards, seeded.shards);
    assert_eq!(cold.seeded_shards, 0);
    assert!(cold.topdown_entries > 0, "cold builds scan top-down");
    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(&off) {
        assert!(csts_identical(&a.cst, &b.cst), "shard {}", a.report.shard);
    }
}
