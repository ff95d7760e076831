//! Property-based tests of CST construction against its definition: every
//! CST `cst::build_cst_with_stats` builds is Algorithm 1 read literally
//! (`assert_is_the_definition`), list by list, root set included, at every
//! pruning strength.

use cst::{build_cst_with_stats, BuildStats, CandidateFilter, Cst, CstOptions};
use graph_core::generators::{random_labelled_graph, random_power_law_graph};
use graph_core::{BfsTree, Graph, Label, QueryGraph, QueryVertexId, VertexId};
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
                // Denser than the pipeline tests: non-tree edges are where
                // phase 3 materialises most of a CST's entries.
                if rng.gen_bool(0.4) {
                    edges.push((a, b));
                }
            }
        }
        QueryGraph::new(labels, &edges).expect("connected by construction")
    })
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
    let root = tree.root();
    c[root.index()] = g.vertices().filter(|&w| passes(root, w)).collect();
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

/// The build at every strength against the definition.
fn assert_builds_are_the_definition(q: &QueryGraph, g: &Graph) {
    let tree = BfsTree::new(q, QueryVertexId::new(0));
    for options in STRENGTHS {
        let built = build_cst_with_stats(q, g, &tree, options);
        assert_is_the_definition(&built, q, g, &tree, options);
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
        assert_builds_are_the_definition(&q, &g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Generated queries × both random graph families: the built CST is
    /// the definition's at every strength.
    #[test]
    fn built_csts_match_the_definition(q in arb_query(), graph_seed in 0u64..200) {
        assert_builds_are_the_definition(&q, &random_labelled_graph(45, 0.15, 2, graph_seed));
        assert_builds_are_the_definition(&q, &random_power_law_graph(60, 3, 3, graph_seed));
    }
}
