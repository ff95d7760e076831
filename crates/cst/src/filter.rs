//! Local candidate filters ("local features" of Algorithm 1, lines 2/4).
//!
//! A data vertex `v` is a candidate for query vertex `u` only if:
//! 1. `l_G(v) = l_q(u)` (label filter);
//! 2. `d_G(v) ≥ d_q(u)` (degree filter);
//! 3. for every label `l` among `u`'s neighbours, `v` has at least as many
//!    neighbours with label `l` as `u` does (NLF, neighbour label frequency).
//!
//! These are the standard filters used by CFL/CECI/DAF, which the paper's
//! CST construction follows.

use graph_core::{Graph, QueryGraph, QueryVertexId, VertexId};

/// Precomputed per-query-vertex filter.
#[derive(Debug, Clone)]
pub struct CandidateFilter {
    degree: u32,
    label: graph_core::Label,
    /// Sorted `(label, min_count)` requirements.
    nlf: Vec<(graph_core::Label, u32)>,
}

impl CandidateFilter {
    /// Builds the filter for query vertex `u`.
    pub fn new(q: &QueryGraph, u: QueryVertexId) -> Self {
        CandidateFilter {
            degree: q.degree(u),
            label: q.label(u),
            nlf: q.neighbor_label_counts(u),
        }
    }

    /// Whether `v` passes label and degree checks (cheap pre-filter).
    #[inline]
    pub fn passes_basic(&self, g: &Graph, v: VertexId) -> bool {
        g.label(v) == self.label && g.degree(v) >= self.degree
    }

    /// Whether `v` passes the full filter including NLF. The query vertex's
    /// needs are counted *down* while walking `v`'s neighbours, returning
    /// the moment all are met: a hub that needs two neighbours answers after
    /// a handful of reads, while a failing vertex costs its degree.
    /// `remaining` is a reusable buffer for the per-label countdown.
    pub fn passes(&self, g: &Graph, v: VertexId, remaining: &mut Vec<u32>) -> bool {
        if !self.passes_basic(g, v) {
            return false;
        }
        remaining.clear();
        remaining.extend(self.nlf.iter().map(|&(_, need)| need));
        let mut unmet: u32 = remaining.iter().sum();
        if unmet == 0 {
            return true;
        }
        for &n in g.neighbors(v) {
            let label = g.label(n);
            if let Some(i) = self.nlf.iter().position(|&(l, _)| l == label) {
                if remaining[i] > 0 {
                    remaining[i] -= 1;
                    unmet -= 1;
                    if unmet == 0 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Collects all candidates of `u` from the graph's label index.
    pub fn candidates(&self, g: &Graph) -> Vec<VertexId> {
        let mut remaining = Vec::new();
        g.vertices_with_label(self.label)
            .iter()
            .copied()
            .filter(|&v| self.passes(g, v, &mut remaining))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::{GraphBuilder, Label};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    /// Data graph: hub h(l0) connected to two l1 and one l2 vertex;
    /// lone vertex a(l0) connected to one l1 vertex.
    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        let h = b.add_vertex(l(0));
        let a = b.add_vertex(l(0));
        let x1 = b.add_vertex(l(1));
        let x2 = b.add_vertex(l(1));
        let y = b.add_vertex(l(2));
        let x3 = b.add_vertex(l(1));
        b.add_edge(h, x1).unwrap();
        b.add_edge(h, x2).unwrap();
        b.add_edge(h, y).unwrap();
        b.add_edge(a, x3).unwrap();
        b.build()
    }

    /// Query: u0(l0) adjacent to two l1 vertices.
    fn query_two_l1() -> QueryGraph {
        QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (0, 2)]).unwrap()
    }

    #[test]
    fn nlf_rejects_undersupplied_neighbourhoods() {
        let g = graph();
        let q = query_two_l1();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        let cands = f.candidates(&g);
        // Only the hub has two l1 neighbours; `a` has one.
        assert_eq!(cands, vec![VertexId::new(0)]);
    }

    #[test]
    fn degree_filter() {
        let g = graph();
        let q = QueryGraph::new(vec![l(1), l(0), l(0)], &[(0, 1), (0, 2)]).unwrap();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        // l1 vertices all have degree 1 < 2 → no candidates.
        assert!(f.candidates(&g).is_empty());
    }

    #[test]
    fn label_filter() {
        let g = graph();
        let q = QueryGraph::new(vec![l(2), l(0)], &[(0, 1)]).unwrap();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        assert_eq!(f.candidates(&g), vec![VertexId::new(4)]);
    }

    /// What `passes` decides, without the early exit: label and degree
    /// match, and every required label occurs at least as often as needed.
    fn by_definition(f: &CandidateFilter, g: &Graph, v: VertexId) -> bool {
        f.passes_basic(g, v)
            && f.nlf.iter().all(|&(label, need)| {
                let have = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&n| g.label(n) == label)
                    .count();
                have as u32 >= need
            })
    }

    #[test]
    fn passes_is_the_definition_on_every_vertex_of_random_graphs() {
        use graph_core::generators::{random_labelled_graph, random_power_law_graph};
        let queries = [
            QueryGraph::new(
                vec![l(0), l(1), l(1), l(2)],
                &[(0, 1), (0, 2), (0, 3), (1, 2)],
            )
            .unwrap(),
            QueryGraph::new(vec![l(1), l(0), l(0), l(0)], &[(0, 1), (0, 2), (0, 3)]).unwrap(),
            QueryGraph::new(vec![l(2), l(2), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap(),
        ];
        let mut scratch = Vec::new();
        let (mut accepted, mut rejected_by_nlf) = (0, 0);
        for seed in 0..12 {
            let g = if seed % 2 == 0 {
                random_labelled_graph(80, 0.08, 3, seed)
            } else {
                random_power_law_graph(150, 3, 3, seed)
            };
            for q in &queries {
                for u in q.vertices() {
                    let f = CandidateFilter::new(q, u);
                    for v in g.vertices() {
                        let expected = by_definition(&f, &g, v);
                        assert_eq!(
                            f.passes(&g, v, &mut scratch),
                            expected,
                            "seed {seed} {u:?} {v:?}"
                        );
                        accepted += usize::from(expected);
                        rejected_by_nlf += usize::from(!expected && f.passes_basic(&g, v));
                    }
                }
            }
        }
        assert!(
            accepted > 0 && rejected_by_nlf > 0,
            "both verdicts exercised"
        );
    }

    #[test]
    fn passes_at_the_edges_of_the_countdown() {
        let mut scratch = Vec::new();
        let g = graph();
        let (h, a, x1) = (VertexId::new(0), VertexId::new(1), VertexId::new(2));
        // Need two l1: exactly one present fails, exactly two passes.
        let f = CandidateFilter::new(&query_two_l1(), QueryVertexId::new(0));
        assert!(!f.passes(&g, a, &mut scratch));
        assert!(f.passes(&g, h, &mut scratch));
        // Degree equal to the query degree: every neighbour must count.
        let q = QueryGraph::new(vec![l(0), l(1), l(1), l(2)], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        assert_eq!(g.degree(h), q.degree(QueryVertexId::new(0)));
        assert!(f.passes(&g, h, &mut scratch));
        // A required label the neighbourhood lacks, at sufficient degree.
        let q = QueryGraph::new(vec![l(0), l(1), l(3)], &[(0, 1), (0, 2)]).unwrap();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        assert!(f.passes_basic(&g, h) && !f.passes(&g, h, &mut scratch));
        // No needs at all: label and degree decide.
        let f = CandidateFilter::new(
            &QueryGraph::new(vec![l(1)], &[]).unwrap(),
            QueryVertexId::new(0),
        );
        assert!(f.nlf.is_empty());
        assert!(f.passes(&g, x1, &mut scratch) && !f.passes(&g, h, &mut scratch));
    }

    #[test]
    fn passes_basic_is_a_superset_of_passes() {
        let g = graph();
        let q = query_two_l1();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        let mut scratch = Vec::new();
        for v in g.vertices() {
            if f.passes(&g, v, &mut scratch) {
                assert!(f.passes_basic(&g, v));
            }
        }
    }
}
