//! Random labelled graphs for tests and property-based fuzzing.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::types::{Label, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Labelled Erdős–Rényi graph: `n` vertices, each of the `n*(n-1)/2`
/// possible edges present with probability `p`, labels uniform in
/// `0..num_labels`.
pub fn random_labelled_graph(n: usize, p: f64, num_labels: u16, seed: u64) -> Graph {
    assert!(num_labels > 0, "need at least one label");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, ((n * n) as f64 * p / 2.0) as usize);
    for _ in 0..n {
        b.add_vertex(Label::new(rng.gen_range(0..num_labels)));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(VertexId::from_index(i), VertexId::from_index(j))
                    .unwrap();
            }
        }
    }
    b.build()
}

/// Labelled power-law graph via preferential attachment: each new vertex
/// attaches `m` edges to earlier vertices chosen degree-proportionally.
pub fn random_power_law_graph(n: usize, m: usize, num_labels: u16, seed: u64) -> Graph {
    assert!(num_labels > 0, "need at least one label");
    assert!(m >= 1, "attachment count must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * m);
    for _ in 0..n {
        b.add_vertex(Label::new(rng.gen_range(0..num_labels)));
    }
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    let seedlings = n.min(m + 1);
    for i in 0..seedlings {
        for j in 0..i {
            b.add_edge(VertexId::from_index(i), VertexId::from_index(j))
                .unwrap();
            endpoints.push(i as u32);
            endpoints.push(j as u32);
        }
    }
    for i in seedlings..n {
        let mut added = 0;
        let mut guard = 0;
        while added < m && guard < 10 * m {
            guard += 1;
            let t = if endpoints.is_empty() {
                rng.gen_range(0..i) as u32
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if t as usize != i {
                b.add_edge(VertexId::from_index(i), VertexId::new(t))
                    .unwrap();
                endpoints.push(i as u32);
                endpoints.push(t);
                added += 1;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_graph_shape() {
        let g = random_labelled_graph(50, 0.2, 4, 1);
        assert_eq!(g.vertex_count(), 50);
        assert!(g.edge_count() > 0);
        assert!(g.label_count() <= 4);
    }

    #[test]
    fn er_graph_deterministic() {
        let g1 = random_labelled_graph(30, 0.3, 3, 9);
        let g2 = random_labelled_graph(30, 0.3, 3, 9);
        assert_eq!(g1.edge_count(), g2.edge_count());
        for v in g1.vertices() {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn power_law_graph_has_skew() {
        let g = random_power_law_graph(500, 3, 2, 4);
        assert!(g.max_degree() as f64 > 3.0 * g.avg_degree());
    }

    #[test]
    fn zero_probability_gives_no_edges() {
        let g = random_labelled_graph(10, 0.0, 2, 0);
        assert_eq!(g.edge_count(), 0);
    }
}
