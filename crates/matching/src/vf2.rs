//! A VF2-style reference matcher.
//!
//! Deliberately simple (label + degree pruning only, no index): used as the
//! ground-truth oracle in tests for every other matcher in the workspace.
//! Exponential and allocation-light; keep inputs small.

use graph_core::{Graph, QueryGraph, QueryVertexId, VertexId};

/// Counts all subgraph-isomorphism embeddings of `q` in `g` by plain
/// backtracking over the data graph.
pub fn vf2_count(q: &QueryGraph, g: &Graph) -> u64 {
    let n = q.vertex_count();
    if n == 0 {
        return 0;
    }
    // Order: BFS from vertex 0 (query is connected by construction).
    let tree = graph_core::BfsTree::new(q, QueryVertexId::new(0));
    let order = tree.bfs_order().to_vec();
    let mut backward: Vec<Vec<usize>> = Vec::with_capacity(n);
    for (d, &u) in order.iter().enumerate() {
        let mut b = Vec::new();
        for (e, &w) in order.iter().enumerate().take(d) {
            if q.has_edge(u, w) {
                b.push(e);
            }
        }
        backward.push(b);
    }

    let mut mapped = vec![VertexId::new(0); n];
    let mut count = 0u64;

    fn descend(
        q: &QueryGraph,
        g: &Graph,
        order: &[QueryVertexId],
        backward: &[Vec<usize>],
        depth: usize,
        mapped: &mut [VertexId],
        count: &mut u64,
    ) {
        if depth == order.len() {
            *count += 1;
            return;
        }
        let u = order[depth];
        let candidates: Vec<VertexId> = if backward[depth].is_empty() {
            g.vertices_with_label(q.label(u)).to_vec()
        } else {
            // Expand from the first backward neighbour's data adjacency.
            let anchor = mapped[backward[depth][0]];
            g.neighbors(anchor).to_vec()
        };
        for v in candidates {
            if g.label(v) != q.label(u) || g.degree(v) < q.degree(u) {
                continue;
            }
            if mapped[..depth].contains(&v) {
                continue;
            }
            if backward[depth].iter().all(|&bd| g.has_edge(mapped[bd], v)) {
                mapped[depth] = v;
                descend(q, g, order, backward, depth + 1, mapped, count);
            }
        }
    }

    descend(q, g, &order, &backward, 0, &mut mapped, &mut count);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::generators::random_labelled_graph;
    use graph_core::{GraphBuilder, Label};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    #[test]
    fn triangle_in_triangle() {
        let q = QueryGraph::new(vec![l(0), l(0), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex(l(0))).collect();
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[1], v[2]).unwrap();
        b.add_edge(v[0], v[2]).unwrap();
        let g = b.build();
        // 3! automorphic embeddings.
        assert_eq!(vf2_count(&q, &g), 6);
    }

    #[test]
    fn labels_restrict_matches() {
        let q = QueryGraph::new(vec![l(0), l(1)], &[(0, 1)]).unwrap();
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(l(0));
        let c = b.add_vertex(l(1));
        let d = b.add_vertex(l(2));
        b.add_edge(a, c).unwrap();
        b.add_edge(a, d).unwrap();
        let g = b.build();
        assert_eq!(vf2_count(&q, &g), 1);
    }

    #[test]
    fn no_match_when_structure_absent() {
        let q = QueryGraph::new(vec![l(0), l(0), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        // A path has no triangle.
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex(l(0))).collect();
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[1], v[2]).unwrap();
        let g = b.build();
        assert_eq!(vf2_count(&q, &g), 0);
    }

    #[test]
    fn path_count_on_random_graph_is_stable() {
        let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2)]).unwrap();
        let g = random_labelled_graph(25, 0.3, 2, 77);
        let c1 = vf2_count(&q, &g);
        let c2 = vf2_count(&q, &g);
        assert_eq!(c1, c2);
    }
}
