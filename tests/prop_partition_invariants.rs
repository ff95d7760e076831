//! Property-based tests of the CST partitioner (paper Algorithm 2,
//! Example 3): partitions are disjoint, complete, and threshold-respecting
//! for arbitrary graphs, queries, and thresholds.

use cst::{build_cst, count_embeddings, fits, partition_cst, PartitionConfig};
use graph_core::generators::random_labelled_graph;
use graph_core::{BfsTree, Label, MatchingOrder, QueryGraph, QueryVertexId};
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
        let whole = count_embeddings(&cst, &q, &order);

        let config = PartitionConfig {
            delta_s: cst.size_bytes() / size_divisor + 64,
            delta_d: u32::MAX,
            footprint_budget: None,
            fixed_k,
        };
        let (parts, stats) = partition_cst(&cst, &order, &config);
        let sum: u64 = parts.iter().map(|p| count_embeddings(p, &q, &order)).sum();
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
        };
        let (parts, stats) = partition_cst(&cst, &order, &config);
        let whole = count_embeddings(&cst, &q, &order);
        let sum: u64 = parts.iter().map(|p| count_embeddings(p, &q, &order)).sum();
        prop_assert_eq!(sum, whole);
        if stats.forced == 0 {
            for p in &parts {
                prop_assert!(p.max_candidate_degree() <= d / 2);
            }
        }
    }
}
