//! Edge cases and failure-injection across the whole stack.

use fast::{run_fast, FastConfig, KernelPlan, PlanError, Variant, MAX_KERNEL_QUERY};
use graph_core::{
    BfsTree, GraphBuilder, Label, MatchingOrder, QueryGraph, QueryVertexId, VertexId,
};
use matching::{run_baseline, Baseline, RunLimits};

fn l(x: u16) -> Label {
    Label::new(x)
}

/// A single-vertex query is a degenerate but legal input everywhere.
#[test]
fn single_vertex_query_end_to_end() {
    let mut b = GraphBuilder::new();
    for i in 0..10 {
        b.add_vertex(l(u16::from(i % 2 == 0)));
    }
    // Give the graph some edges so degree filters have something to see.
    for i in 1..10u32 {
        b.add_edge(VertexId::new(0), VertexId::new(i)).unwrap();
    }
    let g = b.build();
    let q = QueryGraph::new(vec![l(0)], &[]).unwrap();
    let report = run_fast(&q, &g, &FastConfig::default()).unwrap();
    // Vertices with label 0 (even ids): 0,2,4,6,8 → but degree filter needs
    // degree >= 0, so all five match.
    assert_eq!(report.embeddings, 5);
}

/// Queries above the kernel register budget are rejected, not mangled.
#[test]
fn oversized_query_is_a_clean_error() {
    let n = MAX_KERNEL_QUERY + 1;
    let labels = vec![l(0); n];
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let q = QueryGraph::new(labels, &edges).unwrap();
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(l(0));
    let v1 = b.add_vertex(l(0));
    b.add_edge(v0, v1).unwrap();
    let g = b.build();

    let tree = BfsTree::new(&q, QueryVertexId::new(0));
    let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
    assert_eq!(
        KernelPlan::new(&q, &order, &tree).unwrap_err(),
        PlanError::QueryTooLarge(n)
    );
    assert!(run_fast(&q, &g, &FastConfig::default()).is_err());
}

/// A graph where every vertex shares one label: candidate sets are maximal
/// and the visited validator does all the pruning.
#[test]
fn uniform_label_clique() {
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..6).map(|_| b.add_vertex(l(0))).collect();
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            b.add_edge(vs[i], vs[j]).unwrap();
        }
    }
    let g = b.build();
    // Triangle query on a 6-clique: 6·5·4 = 120 embeddings.
    let q = QueryGraph::new(vec![l(0); 3], &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let report = run_fast(&q, &g, &FastConfig::default()).unwrap();
    assert_eq!(report.embeddings, 120);
    let ceci = run_baseline(Baseline::Ceci, &q, &g, &RunLimits::unlimited());
    assert_eq!(ceci.embeddings, 120);
}

/// Star query against a hub: exercises the resume-offset slicing in the
/// Generator (candidate lists far longer than N_o).
#[test]
fn hub_fanout_exceeding_no() {
    let mut b = GraphBuilder::new();
    let hub = b.add_vertex(l(0));
    let leaves: Vec<VertexId> = (0..500).map(|_| b.add_vertex(l(1))).collect();
    for &leaf in &leaves {
        b.add_edge(hub, leaf).unwrap();
    }
    let g = b.build();
    let q = QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (0, 2)]).unwrap();

    // Tiny No forces hundreds of slicing rounds.
    let mut config = FastConfig::test_small(Variant::Basic);
    config.spec.no = 4;
    let report = run_fast(&q, &g, &config).unwrap();
    // Ordered pairs of distinct leaves: 500·499.
    assert_eq!(report.embeddings, 500 * 499);
}

/// Isolated vertices (degree 0) must be ignored gracefully.
#[test]
fn isolated_vertices_do_not_match_connected_queries() {
    let mut b = GraphBuilder::new();
    let a = b.add_vertex(l(0));
    let c = b.add_vertex(l(1));
    b.add_edge(a, c).unwrap();
    for _ in 0..20 {
        b.add_vertex(l(0)); // isolated
        b.add_vertex(l(1)); // isolated
    }
    let g = b.build();
    let q = QueryGraph::new(vec![l(0), l(1)], &[(0, 1)]).unwrap();
    let report = run_fast(&q, &g, &FastConfig::default()).unwrap();
    assert_eq!(report.embeddings, 1);
}

/// An empty graph returns zero embeddings without panicking anywhere.
#[test]
fn empty_graph_everywhere() {
    let g = GraphBuilder::new().build();
    let q = QueryGraph::new(vec![l(0), l(1)], &[(0, 1)]).unwrap();
    let report = run_fast(&q, &g, &FastConfig::default()).unwrap();
    assert_eq!(report.embeddings, 0);
    for baseline in Baseline::ALL {
        let r = run_baseline(baseline, &q, &g, &RunLimits::unlimited());
        assert_eq!(r.embeddings, 0, "{}", baseline.name());
    }
}

/// Self-consistency under an adversarial spec: 1-byte δ_S budget forces the
/// partitioner to its singleton floor, yet counts must hold.
#[test]
fn pathological_bram_budget_still_correct() {
    use graph_core::generators::random_labelled_graph;
    let g = random_labelled_graph(30, 0.25, 2, 77);
    let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let expected = matching::vf2_count(&q, &g);

    let mut config = FastConfig::test_small(Variant::Sep);
    config.spec.bram_bytes = 4096; // leaves almost nothing after the buffer
    config.spec.no = 2;
    let report = run_fast(&q, &g, &config).unwrap();
    assert_eq!(report.embeddings, expected);
}
