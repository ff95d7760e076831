//! CST-only embedding enumeration (paper Theorem 1).
//!
//! Given a sound CST, *all* embeddings of `q` in `G` can be computed by
//! traversing only the CST. This module is the CPU-side reference
//! implementation of that traversal — the "basic backtracking subgraph
//! matching algorithm" the host uses for its CPU share (Section V-C), and
//! the correctness oracle the kernel simulator is tested against.

use crate::structure::Cst;
use graph_core::{MatchingOrder, QueryGraph, QueryVertexId, VertexId};

/// Per-depth expansion plan derived from a matching order.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    /// `order[d]` = query vertex matched at depth `d`.
    order: Vec<QueryVertexId>,
    /// For each depth `d ≥ 1`: positions (depths) of all backward neighbours
    /// of `order[d]`, i.e. query neighbours already matched.
    backward: Vec<Vec<usize>>,
}

impl MatchPlan {
    /// Builds the plan for `q` under `order`.
    pub fn new(q: &QueryGraph, order: &MatchingOrder) -> Self {
        let seq = order.as_slice().to_vec();
        let backward = seq
            .iter()
            .map(|&u| {
                order
                    .backward_neighbors(q, u)
                    .iter()
                    .map(|&b| order.position_of(b))
                    .collect()
            })
            .collect();
        MatchPlan {
            order: seq,
            backward,
        }
    }

    /// The query vertex at depth `d`.
    #[inline]
    pub fn vertex_at(&self, d: usize) -> QueryVertexId {
        self.order[d]
    }

    /// Depths of backward neighbours of the vertex at depth `d`.
    #[inline]
    pub fn backward(&self, d: usize) -> &[usize] {
        &self.backward[d]
    }

    /// Number of depths (query vertices).
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the plan is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Counters describing an enumeration run (the software analogue of the
/// kernel's `N` and `M`, Section VI-B).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumerationStats {
    /// Embeddings reported.
    pub embeddings: u64,
    /// Partial results generated (`N`): every candidate expansion attempted.
    pub partials_generated: u64,
    /// Edge-validation tasks performed (`M`): per expansion, one check per
    /// backward non-anchor neighbour.
    pub edge_validations: u64,
    /// Expansions rejected by the visited (injectivity) check.
    pub visited_rejections: u64,
    /// Expansions rejected by edge validation.
    pub edge_rejections: u64,
}

/// Enumerates all embeddings of `q` encoded in `cst` under `order`.
///
/// `on_embedding` receives the embedding **indexed by query vertex id**
/// (`embedding[u] = M(u)`); return `false` from the callback to stop early.
/// Returns run statistics.
pub fn enumerate_embeddings<F>(
    cst: &Cst,
    q: &QueryGraph,
    order: &MatchingOrder,
    mut on_embedding: F,
) -> EnumerationStats
where
    F: FnMut(&[VertexId]) -> bool,
{
    let plan = MatchPlan::new(q, order);
    let mut stats = EnumerationStats::default();
    let n = plan.len();
    if n == 0 {
        return stats;
    }
    // mapping[d] = candidate index (into C(order[d])) chosen at depth d.
    let mut mapping = vec![0u32; n];
    // mapped[d] = data vertex chosen at depth d (for injectivity checks).
    let mut mapped = vec![VertexId::new(0); n];
    // embedding[u] = data vertex assigned to query vertex u.
    let mut embedding = vec![VertexId::new(0); n];

    let root = plan.vertex_at(0);
    let root_count = cst.candidate_count(root) as u32;
    let mut stopped = false;
    for i in 0..root_count {
        if stopped {
            break;
        }
        stats.partials_generated += 1;
        mapping[0] = i;
        mapped[0] = cst.candidate(root, i);
        embedding[root.index()] = mapped[0];
        stopped = !descend(
            cst,
            &plan,
            1,
            &mut mapping,
            &mut mapped,
            &mut embedding,
            &mut stats,
            &mut on_embedding,
        );
    }
    stats
}

/// Counts all embeddings (convenience wrapper).
pub fn count_embeddings(cst: &Cst, q: &QueryGraph, order: &MatchingOrder) -> u64 {
    enumerate_embeddings(cst, q, order, |_| true).embeddings
}

/// Recursive expansion; returns `false` if the callback requested a stop.
#[allow(clippy::too_many_arguments)]
fn descend<F>(
    cst: &Cst,
    plan: &MatchPlan,
    depth: usize,
    mapping: &mut [u32],
    mapped: &mut [VertexId],
    embedding: &mut [VertexId],
    stats: &mut EnumerationStats,
    on_embedding: &mut F,
) -> bool
where
    F: FnMut(&[VertexId]) -> bool,
{
    if depth == plan.len() {
        stats.embeddings += 1;
        return on_embedding(embedding);
    }
    let u = plan.vertex_at(depth);
    let backward = plan.backward(depth);
    debug_assert!(!backward.is_empty(), "connected order has an anchor");

    // Anchor: the backward neighbour with the smallest adjacency list from
    // its chosen candidate (cheapest generator, same as the kernel picking
    // the parent list; any anchor is correct since the CST stores adjacency
    // for every query edge in both directions).
    let (anchor_pos, anchor_list) = backward
        .iter()
        .map(|&bd| {
            let bu = plan.vertex_at(bd);
            let list = cst.neighbors(bu, mapping[bd], u);
            (bd, list)
        })
        .min_by_key(|(_, list)| list.len())
        .expect("backward non-empty");

    for &j in anchor_list {
        stats.partials_generated += 1;
        let v = cst.candidate(u, j);
        // Visited validation (injectivity).
        if mapped[..depth].contains(&v) {
            stats.visited_rejections += 1;
            continue;
        }
        // Edge validation against every other backward neighbour.
        let mut ok = true;
        for &bd in backward {
            if bd == anchor_pos {
                continue;
            }
            stats.edge_validations += 1;
            let bu = plan.vertex_at(bd);
            if !cst.has_candidate_edge(bu, mapping[bd], u, j) {
                ok = false;
                stats.edge_rejections += 1;
                break;
            }
        }
        if !ok {
            continue;
        }
        mapping[depth] = j;
        mapped[depth] = v;
        embedding[u.index()] = v;
        if !descend(
            cst,
            plan,
            depth + 1,
            mapping,
            mapped,
            embedding,
            stats,
            on_embedding,
        ) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_cst, build_cst_with_stats, CstOptions};
    use graph_core::generators::random_labelled_graph;
    use graph_core::{BfsTree, GraphBuilder, Label};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    /// Paper Example 1: the Fig. 1 query has exactly 2 embeddings in the
    /// Fig. 1 data graph.
    #[test]
    fn fig1_has_two_embeddings() {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(2), l(3)],
            &[(0, 1), (0, 2), (1, 2), (2, 3)],
        )
        .unwrap();
        let mut b = GraphBuilder::new();
        let labels = [
            l(9),
            l(0),
            l(0),
            l(2),
            l(1),
            l(2),
            l(1),
            l(2),
            l(3),
            l(3),
            l(3),
            l(4),
            l(4),
        ];
        for &lab in &labels {
            b.add_vertex(lab);
        }
        for (a, bb) in [
            (1, 4),
            (1, 3),
            (2, 6),
            (2, 5),
            (2, 7),
            (4, 3),
            (6, 5),
            (6, 7),
            (3, 9),
            (5, 10),
            (8, 1),
            (7, 11),
            (9, 12),
        ] {
            b.add_edge(VertexId::new(a), VertexId::new(bb)).unwrap();
        }
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        let cst = build_cst(&q, &g, &tree);
        let order = MatchingOrder::new(&q, vec![qv(0), qv(1), qv(2), qv(3)]).unwrap();
        let mut found = Vec::new();
        enumerate_embeddings(&cst, &q, &order, |m| {
            found.push(m.to_vec());
            true
        });
        // {(u0,v1),(u1,v4),(u2,v3),(u3,v9)} and {(u0,v2),(u1,v6),(u2,v5),(u3,v10)}.
        assert_eq!(found.len(), 2);
        let v = VertexId::new;
        assert!(found.contains(&vec![v(1), v(4), v(3), v(9)]));
        assert!(found.contains(&vec![v(2), v(6), v(5), v(10)]));
    }

    /// Theorem 1: results must be identical for every sound CST
    /// configuration and every connected matching order.
    #[test]
    fn counts_invariant_across_options_and_orders() {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
        .unwrap();
        let g = random_labelled_graph(35, 0.2, 2, 23);
        let tree = BfsTree::new(&q, qv(0));
        let mut counts = std::collections::HashSet::new();
        for opts in [CstOptions::default(), CstOptions::minimal()] {
            let (cst, _) = build_cst_with_stats(&q, &g, &tree, opts);
            for order in graph_core::all_connected_orders(&q, qv(0)) {
                counts.insert(count_embeddings(&cst, &q, &order));
            }
        }
        assert_eq!(counts.len(), 1, "counts differ: {counts:?}");
    }

    #[test]
    fn early_stop_via_callback() {
        let q = QueryGraph::new(vec![l(0), l(1)], &[(0, 1)]).unwrap();
        let g = random_labelled_graph(60, 0.4, 2, 2);
        let tree = BfsTree::new(&q, qv(0));
        let cst = build_cst(&q, &g, &tree);
        let order = MatchingOrder::new(&q, vec![qv(0), qv(1)]).unwrap();
        let total = count_embeddings(&cst, &q, &order);
        assert!(total > 3);
        let mut seen = 0;
        enumerate_embeddings(&cst, &q, &order, |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn injectivity_enforced() {
        // Query: two vertices of the same label joined to a middle vertex.
        // Data: middle vertex with ONE same-labelled neighbour (plus an
        // unrelated neighbour so the degree filter passes) — the only
        // candidate would have to be used twice, so there is no embedding.
        let q = QueryGraph::new(vec![l(1), l(0), l(1)], &[(0, 1), (1, 2)]).unwrap();
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(l(1));
        let m = b.add_vertex(l(0));
        let y = b.add_vertex(l(2));
        b.add_edge(x, m).unwrap();
        b.add_edge(m, y).unwrap();
        let g = b.build();
        let tree = BfsTree::new(&q, qv(1));
        // NLF would already prune m (it needs two l1 neighbours); disable it
        // so the *enumerator's* visited check is what rejects the reuse.
        let opts = CstOptions {
            use_nlf: false,
            refine: true,
        };
        let (cst, _) = build_cst_with_stats(&q, &g, &tree, opts);
        let order = MatchingOrder::new(&q, vec![qv(1), qv(0), qv(2)]).unwrap();
        let stats = enumerate_embeddings(&cst, &q, &order, |_| true);
        assert_eq!(stats.embeddings, 0);
        assert!(stats.visited_rejections > 0);
    }

    #[test]
    fn stats_track_generated_and_validated() {
        let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = random_labelled_graph(30, 0.3, 2, 8);
        let tree = BfsTree::new(&q, qv(0));
        let cst = build_cst(&q, &g, &tree);
        let order = MatchingOrder::new(&q, vec![qv(0), qv(1), qv(2)]).unwrap();
        let stats = enumerate_embeddings(&cst, &q, &order, |_| true);
        // The triangle's closing edge forces edge validations.
        assert!(stats.partials_generated >= stats.embeddings);
        if stats.embeddings > 0 {
            assert!(stats.edge_validations > 0);
        }
    }
}
