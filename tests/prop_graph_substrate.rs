//! Property-based tests of the graph substrate: CSR invariants, I/O
//! round-trips, order validity, and workload-estimation consistency.

use cst::{build_cst, estimate_workload, Cst};
use graph_core::generators::random_labelled_graph;
use graph_core::{
    io, random_connected_order, BfsTree, Graph, MatchingOrder, QueryGraph, QueryVertexId,
};
use matching::{run_backtrack, vf2_count, AnchorPolicy, ExtensionMethod, RunLimits};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Embeddings of `cst`, counted by the CPU engine's CST search (the
/// FAST-SHARE CPU share's method).
fn engine_count(q: &QueryGraph, g: &Graph, cst: &Cst, order: &MatchingOrder) -> u64 {
    let method = ExtensionMethod::EdgeVerification(AnchorPolicy::MinList);
    run_backtrack(q, g, cst, order, method, &RunLimits::unlimited()).1.embeddings
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// CSR structural invariants on arbitrary random graphs.
    #[test]
    fn csr_invariants(n in 1usize..80, p in 0.0f64..0.4, labels in 1u16..5, seed: u64) {
        let g = random_labelled_graph(n, p, labels, seed);
        // Degree sums to twice the edge count.
        let degree_sum: u64 = g.vertices().map(|v| g.degree(v) as u64).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count() as u64);
        // Adjacency symmetric and sorted.
        for v in g.vertices() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            for &w in ns {
                prop_assert!(g.has_edge(w, v));
            }
        }
        // Label index partitions the vertex set.
        let total: usize = (0..g.label_count())
            .map(|l| g.vertices_with_label(graph_core::Label::new(l as u16)).len())
            .sum();
        prop_assert_eq!(total, g.vertex_count());
    }

    /// Text serialisation round-trips exactly.
    #[test]
    fn io_roundtrip(n in 1usize..60, p in 0.0f64..0.3, seed: u64) {
        let g = random_labelled_graph(n, p, 4, seed);
        let mut buf = Vec::new();
        io::write_graph_text(&g, &mut buf).expect("write");
        let g2 = io::read_graph_text(&buf[..]).expect("read");
        prop_assert_eq!(g.vertex_count(), g2.vertex_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        for v in g.vertices() {
            prop_assert_eq!(g.neighbors(v), g2.neighbors(v));
            prop_assert_eq!(g.label(v), g2.label(v));
        }
    }

    /// Random connected orders always validate and start at the seed vertex.
    #[test]
    fn random_orders_always_valid(order_seed: u64) {
        let q = graph_core::benchmark_query(6);
        let mut rng = StdRng::seed_from_u64(order_seed);
        let o = random_connected_order(&q, QueryVertexId::new(0), &mut rng);
        prop_assert_eq!(o.first(), QueryVertexId::new(0));
        // Re-validate through the public constructor.
        prop_assert!(MatchingOrder::new(&q, o.as_slice().to_vec()).is_ok());
    }

    /// The workload DP upper-bounds the true embedding count (it ignores
    /// injectivity and non-tree edges, both of which only prune).
    #[test]
    fn workload_estimate_upper_bounds_embeddings(seed in 0u64..300) {
        let q = graph_core::benchmark_query(2);
        let g = graph_core::generators::generate_ldbc(
            &graph_core::generators::LdbcParams::with_scale_factor(0.03),
            seed,
        );
        let root = graph_core::select_root(&q, &g);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let cst = build_cst(&q, &g, &tree);
        let w = estimate_workload(&cst, &tree);
        let exact = engine_count(&q, &g, &cst, &order);
        prop_assert_eq!(exact, vf2_count(&q, &g));
        prop_assert!(
            w.total + 0.5 >= exact as f64,
            "estimate {} < exact {}", w.total, exact
        );
    }

    /// Edge sampling preserves subgraph relation: sampled-graph matches are
    /// a subset count of full-graph matches.
    #[test]
    fn sampling_is_monotone(seed in 0u64..200, fraction in 0.2f64..0.9) {
        let q = graph_core::benchmark_query(0);
        let g = graph_core::generators::generate_ldbc(
            &graph_core::generators::LdbcParams::with_scale_factor(0.03),
            seed,
        );
        let s = graph_core::sample_edges(&g, fraction, seed ^ 0xABCD);
        let count = |graph: &graph_core::Graph| {
            let root = graph_core::select_root(&q, graph);
            let tree = BfsTree::new(&q, root);
            let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
            let cst = build_cst(&q, graph, &tree);
            engine_count(&q, graph, &cst, &order)
        };
        prop_assert!(count(&s) <= count(&g));
    }
}

/// Deterministic generation: the dataset ladder must be bit-stable, since
/// every experiment in EXPERIMENTS.md depends on it.
#[test]
fn dataset_generation_is_deterministic() {
    use graph_core::generators::{generate_ldbc, LdbcParams};
    let a = generate_ldbc(&LdbcParams::with_scale_factor(0.1), 99);
    let b = generate_ldbc(&LdbcParams::with_scale_factor(0.1), 99);
    assert_eq!(a.vertex_count(), b.vertex_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for v in a.vertices() {
        assert_eq!(a.neighbors(v), b.neighbors(v));
    }
}

/// The CST of a query with no matching labels is empty but well-formed.
#[test]
fn empty_search_spaces_are_handled() {
    let q = QueryGraph::new(
        vec![graph_core::Label::new(9), graph_core::Label::new(9)],
        &[(0, 1)],
    )
    .unwrap();
    let g = random_labelled_graph(20, 0.3, 2, 7);
    let tree = BfsTree::new(&q, QueryVertexId::new(0));
    let cst = build_cst(&q, &g, &tree);
    assert!(cst.any_empty());
    let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
    assert_eq!(engine_count(&q, &g, &cst, &order), 0);
}
