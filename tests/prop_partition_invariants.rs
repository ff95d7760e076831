//! Property-based tests of the CST partitioner (paper Algorithm 2,
//! Example 3): partitions are disjoint, complete, and threshold-respecting
//! for arbitrary graphs, queries, and thresholds.

use cst::{build_cst, fits, partition_cst, Cst, PartitionConfig};
use graph_core::generators::random_labelled_graph;
use graph_core::{BfsTree, Graph, Label, MatchingOrder, QueryGraph, QueryVertexId};
use matching::{run_backtrack, vf2_count, AnchorPolicy, ExtensionMethod, RunLimits};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Embeddings of `cst`, counted by the CPU engine's CST search (the
/// FAST-SHARE CPU share's method).
fn engine_count(q: &QueryGraph, g: &Graph, cst: &Cst, order: &MatchingOrder) -> u64 {
    let method = ExtensionMethod::EdgeVerification(AnchorPolicy::MinList);
    run_backtrack(q, g, cst, order, method, &RunLimits::unlimited())
        .1
        .embeddings
}

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
                if rng.gen_bool(0.35) {
                    edges.push((a, b));
                }
            }
        }
        QueryGraph::new(labels, &edges).expect("connected by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The union of partition embedding counts equals the whole-CST count —
    /// no results lost, none duplicated (Example 3).
    #[test]
    fn partition_union_is_exact(
        q in arb_query(),
        graph_seed in 0u64..400,
        size_divisor in 2usize..10,
        fixed_k in proptest::option::of(2u32..6),
    ) {
        let g = random_labelled_graph(40, 0.15, 2, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let cst = build_cst(&q, &g, &tree);
        let whole = engine_count(&q, &g, &cst, &order);
        prop_assert_eq!(whole, vf2_count(&q, &g));

        let config = PartitionConfig {
            delta_s: cst.size_bytes() / size_divisor + 64,
            delta_d: u32::MAX,
            footprint_budget: None,
            fixed_k,
            root_fanout: 1,
        };
        let (parts, stats) = partition_cst(&cst, &order, &config);
        let sum: u64 = parts.iter().map(|p| engine_count(&q, &g, p, &order)).sum();
        prop_assert_eq!(sum, whole, "divisor {} k {:?}", size_divisor, fixed_k);
        prop_assert_eq!(stats.forced, 0);
    }

    /// Every emitted partition satisfies the thresholds and is structurally
    /// valid (symmetric candidate adjacency, sorted lists).
    #[test]
    fn partitions_fit_and_validate(
        q in arb_query(),
        graph_seed in 0u64..400,
        size_divisor in 2usize..8,
    ) {
        let g = random_labelled_graph(40, 0.15, 2, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let cst = build_cst(&q, &g, &tree);

        let config = PartitionConfig {
            delta_s: cst.size_bytes() / size_divisor + 64,
            delta_d: u32::MAX,
            footprint_budget: None,
            fixed_k: None,
            root_fanout: 1,
        };
        let (parts, _) = partition_cst(&cst, &order, &config);
        for p in &parts {
            prop_assert!(fits(p, &config));
            prop_assert!(p.validate(&q).is_ok());
            prop_assert!(!p.any_empty());
        }
    }

    /// Degree thresholds are honoured: partitioning under δ_D caps the
    /// maximum candidate adjacency list.
    #[test]
    fn degree_threshold_is_enforced(
        q in arb_query(),
        graph_seed in 0u64..200,
    ) {
        let g = random_labelled_graph(50, 0.2, 2, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let cst = build_cst(&q, &g, &tree);
        let d = cst.max_candidate_degree();
        prop_assume!(d >= 4);

        let config = PartitionConfig {
            delta_s: usize::MAX,
            delta_d: d / 2,
            footprint_budget: None,
            fixed_k: None,
            root_fanout: 1,
        };
        let (parts, stats) = partition_cst(&cst, &order, &config);
        let whole = engine_count(&q, &g, &cst, &order);
        let sum: u64 = parts.iter().map(|p| engine_count(&q, &g, p, &order)).sum();
        prop_assert_eq!(sum, whole);
        if stats.forced == 0 {
            for p in &parts {
                prop_assert!(p.max_candidate_degree() <= d / 2);
            }
        }
    }

    /// Every partition keeps the definition's edges (Definition 2): for
    /// each query edge `(u, u')` and each candidate pair `(i, j)`, the
    /// partition's `(u → u')` adjacency holds `j` under `i` iff `G` has the
    /// edge `(C(u)[i], C(u')[j])`. The CPU engine's edge verification
    /// probes the CST instead of `G` on exactly this invariant. Checked on
    /// the whole CST and on every partition, with and without the root
    /// fan-out, under a tight `δ_S`.
    ///
    /// A partitioner mutation that fails it: `remap_edge` writing each
    /// renumbered list without its last kept target (`cursor -= 1` after
    /// the loop whenever the list kept anything).
    #[test]
    fn partitions_keep_the_definitions_edges(
        q in arb_query(),
        graph_seed in 0u64..400,
        size_divisor in 4usize..10,
    ) {
        let g = random_labelled_graph(40, 0.15, 2, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs");
        let cst = build_cst(&q, &g, &tree);
        let mut checked = vec![cst.clone()];
        for root_fanout in [1, 16] {
            let config = PartitionConfig {
                delta_s: cst.size_bytes() / size_divisor + 64,
                delta_d: u32::MAX,
                footprint_budget: None,
                fixed_k: None,
                root_fanout,
            };
            checked.extend(partition_cst(&cst, &order, &config).0);
        }
        for (k, p) in checked.iter().enumerate() {
            for u in q.vertices() {
                for w in q.neighbors(u) {
                    for (i, &a) in p.candidates(u).iter().enumerate() {
                        for (j, &b) in p.candidates(w).iter().enumerate() {
                            prop_assert_eq!(
                                p.has_candidate_edge(u, i as u32, w, j as u32),
                                g.has_edge(a, b),
                                "CST {} edge {:?} -> {:?} pair ({}, {})", k, u, w, i, j
                            );
                        }
                    }
                }
            }
        }
    }
}
