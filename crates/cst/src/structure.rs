//! The CST data structure (paper Definition 2).
//!
//! A `Cst` is a graph isomorphic to the query `q`: each query vertex `u`
//! carries a candidate set `C(u)`, and for every query edge `(u, u')` there
//! is an edge between `v ∈ C(u)` and `v' ∈ C(u')` iff `(v, v') ∈ E(G)`.
//!
//! Layout notes:
//! * Candidate sets are sorted `Vec<VertexId>`.
//! * Adjacency `N^u_{u'}(v)` is stored **per directed query edge** in CSR
//!   form, with targets as *indices into `C(u')`* rather than raw vertex ids.
//!   Index-based targets keep the kernel's edge-existence check a dense
//!   array probe (the FPGA's array-partitioned BRAM lookup) and make
//!   partition-time re-indexing cheap.

use graph_core::{QueryGraph, QueryVertexId, VertexId};

/// CSR adjacency for one directed query edge `(u → u')`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrAdj {
    /// `offsets[i]..offsets[i+1]` indexes `targets` for the `i`-th candidate
    /// of `u`. Length `|C(u)| + 1`.
    pub offsets: Vec<u32>,
    /// Sorted indices into `C(u')`.
    pub targets: Vec<u32>,
}

impl CsrAdj {
    /// Adjacency list of the `i`-th candidate of the source vertex.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of the `i`-th source candidate under this edge.
    #[inline]
    pub fn degree(&self, i: usize) -> u32 {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Number of source candidates covered.
    #[inline]
    pub fn source_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Largest adjacency list length (contributes to `D_CST`).
    pub fn max_degree(&self) -> u32 {
        (0..self.source_count())
            .map(|i| self.degree(i))
            .max()
            .unwrap_or(0)
    }

    /// O(log d) membership test.
    #[inline]
    pub fn has_edge(&self, i: usize, j: u32) -> bool {
        self.neighbors(i).binary_search(&j).is_ok()
    }

    /// The reverse direction `(u' → u)` of this `(u → u')` adjacency, where
    /// `target_count` is `|C(u')|`: a counting sort of the entries by
    /// target. Sources are placed in ascending order, so every reverse list
    /// comes out sorted.
    pub(crate) fn transpose(&self, target_count: usize) -> CsrAdj {
        let mut offsets = vec![0u32; target_count + 1];
        for &j in &self.targets {
            offsets[j as usize + 1] += 1;
        }
        for j in 0..target_count {
            offsets[j + 1] += offsets[j];
        }
        self.scatter(offsets)
    }

    /// [`transpose`](Self::transpose) given the entries per target,
    /// `counts[j]` being the length of target `j`'s reverse list (one slot
    /// per target): the counting sort without its counting pass.
    pub(crate) fn transpose_counted(&self, counts: &[u32]) -> CsrAdj {
        let mut offsets = vec![0u32; counts.len() + 1];
        for (j, &n) in counts.iter().enumerate() {
            offsets[j + 1] = offsets[j] + n;
        }
        self.scatter(offsets)
    }

    /// The counting sort's placement pass: each source, ascending, into its
    /// targets' reverse lists, whose bounds are `offsets`.
    fn scatter(&self, offsets: Vec<u32>) -> CsrAdj {
        let mut next = offsets.clone();
        let mut targets = vec![0u32; self.targets.len()];
        for i in 0..self.source_count() {
            for &j in self.neighbors(i) {
                let at = &mut next[j as usize];
                targets[*at as usize] = i as u32;
                *at += 1;
            }
        }
        CsrAdj { offsets, targets }
    }
}

/// The candidate search tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cst {
    /// Candidate sets, indexed by query vertex; each sorted by vertex id.
    candidates: Vec<Vec<VertexId>>,
    /// Directed-edge adjacency, indexed by [`Cst::edge_slot`].
    adjacency: Vec<CsrAdj>,
    /// `edge_slot[u][u']` = index into `adjacency`, or `NO_EDGE`.
    edge_slot: Vec<Vec<u32>>,
}

const NO_EDGE: u32 = u32::MAX;

/// The three sizes the partition thresholds are checked against, measured
/// in one pass over a CST ([`Cst::metrics`]) or produced by the
/// partitioner as a by-product of writing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CstMetrics {
    /// [`Cst::payload_bytes`].
    pub payload_bytes: usize,
    /// [`Cst::scaffold_bytes`].
    pub scaffold_bytes: usize,
    /// [`Cst::max_candidate_degree`].
    pub max_degree: u32,
}

impl CstMetrics {
    /// [`Cst::size_bytes`].
    pub fn size_bytes(&self) -> usize {
        self.payload_bytes + self.scaffold_bytes
    }
}

impl Cst {
    /// Assembles a CST from parts. `adjacency_pairs` holds
    /// `((u, u'), adj)` for every **directed** query edge.
    pub fn from_parts(
        query_vertex_count: usize,
        candidates: Vec<Vec<VertexId>>,
        adjacency_pairs: Vec<((QueryVertexId, QueryVertexId), CsrAdj)>,
    ) -> Self {
        assert_eq!(candidates.len(), query_vertex_count);
        let mut edge_slot = vec![vec![NO_EDGE; query_vertex_count]; query_vertex_count];
        let mut adjacency = Vec::with_capacity(adjacency_pairs.len());
        for ((u, v), adj) in adjacency_pairs {
            debug_assert_eq!(adj.source_count(), candidates[u.index()].len());
            edge_slot[u.index()][v.index()] = adjacency.len() as u32;
            adjacency.push(adj);
        }
        Cst {
            candidates,
            adjacency,
            edge_slot,
        }
    }

    /// Number of query vertices.
    #[inline]
    pub fn query_vertex_count(&self) -> usize {
        self.candidates.len()
    }

    /// The candidate set `C(u)`, sorted by vertex id.
    #[inline]
    pub fn candidates(&self, u: QueryVertexId) -> &[VertexId] {
        &self.candidates[u.index()]
    }

    /// `|C(u)|`.
    #[inline]
    pub fn candidate_count(&self, u: QueryVertexId) -> usize {
        self.candidates[u.index()].len()
    }

    /// The candidate of `u` at index `i`.
    #[inline]
    pub fn candidate(&self, u: QueryVertexId, i: u32) -> VertexId {
        self.candidates[u.index()][i as usize]
    }

    /// Index of data vertex `v` within `C(u)`, if present.
    #[inline]
    pub fn candidate_index(&self, u: QueryVertexId, v: VertexId) -> Option<u32> {
        self.candidates[u.index()]
            .binary_search(&v)
            .ok()
            .map(|i| i as u32)
    }

    /// Whether the directed query edge `(u → u')` has adjacency stored.
    #[inline]
    pub fn has_adjacency(&self, u: QueryVertexId, v: QueryVertexId) -> bool {
        self.edge_slot[u.index()][v.index()] != NO_EDGE
    }

    /// The adjacency CSR of directed edge `(u → u')`.
    ///
    /// # Panics
    /// Panics if `(u, u')` is not a query edge.
    #[inline]
    pub fn adjacency(&self, u: QueryVertexId, v: QueryVertexId) -> &CsrAdj {
        let slot = self.edge_slot[u.index()][v.index()];
        assert!(slot != NO_EDGE, "no CST adjacency for ({u:?} -> {v:?})");
        &self.adjacency[slot as usize]
    }

    /// `N^u_{u'}(v)` as candidate indices into `C(u')`, where `v` is the
    /// `i`-th candidate of `u`.
    #[inline]
    pub fn neighbors(&self, u: QueryVertexId, i: u32, v: QueryVertexId) -> &[u32] {
        self.adjacency(u, v).neighbors(i as usize)
    }

    /// Edge-existence check between the `i`-th candidate of `u` and the
    /// `j`-th candidate of `u'` (the Edge Validator's probe, Algorithm 7).
    #[inline]
    pub fn has_candidate_edge(&self, u: QueryVertexId, i: u32, v: QueryVertexId, j: u32) -> bool {
        self.adjacency(u, v).has_edge(i as usize, j)
    }

    /// Total in-memory footprint of the CST: candidate arrays plus all CSR
    /// adjacency including `offsets` bookkeeping. This is the number used by
    /// the PCIe transfer model and the baselines' peak-memory accounting —
    /// everything here really is stored and shipped.
    pub fn size_bytes(&self) -> usize {
        self.payload_bytes() + self.scaffold_bytes()
    }

    /// The CSR `offsets` bookkeeping bytes: the part of
    /// [`size_bytes`](Self::size_bytes) excluded from
    /// [`payload_bytes`](Self::payload_bytes).
    pub fn scaffold_bytes(&self) -> usize {
        self.adjacency
            .iter()
            .map(|a| a.offsets.len() * std::mem::size_of::<u32>())
            .sum()
    }

    /// `|CST|` as checked against the δ_S partition threshold (Section V-B):
    /// candidate arrays plus adjacency *entries*, excluding the CSR `offsets`
    /// scaffold. Offsets carry an irreducible floor — even a fully-split
    /// partition with one candidate per vertex keeps `2 × 4 bytes` of them
    /// per directed query edge — so charging them to δ_S would make small
    /// but legal thresholds unattainable and force the partitioner's
    /// oversized-emit escape hatch. Against the payload metric, splitting
    /// can always reach any threshold ≥ one candidate per vertex. Callers
    /// deriving δ_S from a hard BRAM budget should reserve headroom for the
    /// scaffold: its exact size is `4 × Σ_e (|C(src(e))| + 1)` bytes over the
    /// directed query edges — each source vertex's candidate count is paid
    /// once per *outgoing* edge — which shrinks with the candidate sets as
    /// partitions split (see `FastConfig::partition_config` for the budget
    /// split used by the FPGA flow).
    pub fn payload_bytes(&self) -> usize {
        let cand: usize = self
            .candidates
            .iter()
            .map(|c| c.len() * std::mem::size_of::<VertexId>())
            .sum();
        let adj: usize = self
            .adjacency
            .iter()
            .map(|a| a.targets.len() * std::mem::size_of::<u32>())
            .sum();
        cand + adj
    }

    /// `D_CST`: the maximum candidate adjacency-list length, bounded by the
    /// FPGA's `Port_max` via the δ_D partition threshold (Section VI-A).
    pub fn max_candidate_degree(&self) -> u32 {
        self.adjacency
            .iter()
            .map(CsrAdj::max_degree)
            .max()
            .unwrap_or(0)
    }

    /// Payload, scaffold and `D_CST` together. `D_CST` scans every
    /// `offsets` array, so callers that check a CST more than once measure
    /// it here once and carry the value.
    pub(crate) fn metrics(&self) -> CstMetrics {
        CstMetrics {
            payload_bytes: self.payload_bytes(),
            scaffold_bytes: self.scaffold_bytes(),
            max_degree: self.max_candidate_degree(),
        }
    }

    /// The candidate sets and the adjacency CSRs, in slot order.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&[Vec<VertexId>], &[CsrAdj]) {
        (&self.candidates, &self.adjacency)
    }

    /// Total number of candidates across all query vertices.
    pub fn total_candidates(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }

    /// Total number of directed candidate-edge entries.
    pub fn total_adjacency_entries(&self) -> usize {
        self.adjacency.iter().map(|a| a.targets.len()).sum()
    }

    /// Whether any candidate set is empty (no embedding can exist).
    pub fn any_empty(&self) -> bool {
        self.candidates.iter().any(Vec::is_empty)
    }

    /// Iterates the directed query edges with stored adjacency.
    pub fn directed_edges(&self) -> impl Iterator<Item = (QueryVertexId, QueryVertexId)> + '_ {
        let n = self.query_vertex_count();
        (0..n).flat_map(move |a| {
            (0..n)
                .filter(move |&b| self.edge_slot[a][b] != NO_EDGE)
                .map(move |b| (QueryVertexId::from_index(a), QueryVertexId::from_index(b)))
        })
    }

    /// Debug-level structural validation: candidate sets strictly ascending
    /// by vertex id ([`candidate_index`](Self::candidate_index) and the
    /// kernel's visited search binary-search them), offsets monotone,
    /// targets sorted and in range, and the `(u → u')` / `(u' → u)` lists
    /// mutually consistent. Used by tests (the partitioner's own debug
    /// assertions check only the CSR shape it writes, which needs no query
    /// graph).
    pub fn validate(&self, q: &QueryGraph) -> Result<(), String> {
        for (u, c) in self.candidates.iter().enumerate() {
            if !c.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("candidate set of query vertex {u} not ascending"));
            }
        }
        for (u, v) in self.directed_edges() {
            if !q.has_edge(u, v) {
                return Err(format!("CST stores adjacency for non-edge ({u:?},{v:?})"));
            }
            let adj = self.adjacency(u, v);
            if adj.source_count() != self.candidate_count(u) {
                return Err(format!(
                    "adjacency ({u:?}->{v:?}) covers {} sources, expected {}",
                    adj.source_count(),
                    self.candidate_count(u)
                ));
            }
            let target_len = self.candidate_count(v) as u32;
            for i in 0..adj.source_count() {
                let ns = adj.neighbors(i);
                if !ns.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("unsorted adjacency ({u:?}->{v:?}) src {i}"));
                }
                if ns.iter().any(|&t| t >= target_len) {
                    return Err(format!("target out of range in ({u:?}->{v:?}) src {i}"));
                }
                for &t in ns {
                    if !self.adjacency(v, u).has_edge(t as usize, i as u32) {
                        return Err(format!(
                            "asymmetric candidate edge ({u:?}[{i}] -> {v:?}[{t}])"
                        ));
                    }
                }
            }
        }
        for &(a, b) in q.edges() {
            if !self.has_adjacency(a, b) || !self.has_adjacency(b, a) {
                return Err(format!("query edge ({a:?},{b:?}) missing CST adjacency"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::Label;

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    fn dv(x: u32) -> VertexId {
        VertexId::new(x)
    }

    /// Hand-built CST matching the paper's Fig. 3(b):
    /// C(u0)={v1,v2}, C(u1)={v4,v6}, C(u2)={v3,v5,v7}, C(u3)={v9,v10}.
    fn fig3_cst() -> Cst {
        let candidates = vec![
            vec![dv(1), dv(2)],
            vec![dv(4), dv(6)],
            vec![dv(3), dv(5), dv(7)],
            vec![dv(9), dv(10)],
        ];
        // Data edges (Fig. 1(b)): v1-v4, v2-v6, v1-v3, v2-v5, v2-v7,
        // v4-v3, v6-v5, v6-v7, v3-v9, v5-v10, (v7-v11 not in C(u3)).
        let mk = |offsets: Vec<u32>, targets: Vec<u32>| CsrAdj { offsets, targets };
        let pairs = vec![
            // u0 -> u1: v1:{v4}, v2:{v6}
            ((qv(0), qv(1)), mk(vec![0, 1, 2], vec![0, 1])),
            // u1 -> u0
            ((qv(1), qv(0)), mk(vec![0, 1, 2], vec![0, 1])),
            // u0 -> u2: v1:{v3}, v2:{v5,v7}
            ((qv(0), qv(2)), mk(vec![0, 1, 3], vec![0, 1, 2])),
            // u2 -> u0: v3:{v1}, v5:{v2}, v7:{v2}
            ((qv(2), qv(0)), mk(vec![0, 1, 2, 3], vec![0, 1, 1])),
            // u1 -> u2 (non-tree): v4:{v3}, v6:{v5,v7}
            ((qv(1), qv(2)), mk(vec![0, 1, 3], vec![0, 1, 2])),
            // u2 -> u1: v3:{v4}, v5:{v6}, v7:{v6}
            ((qv(2), qv(1)), mk(vec![0, 1, 2, 3], vec![0, 1, 1])),
            // u2 -> u3: v3:{v9}, v5:{v10}, v7:{}
            ((qv(2), qv(3)), mk(vec![0, 1, 2, 2], vec![0, 1])),
            // u3 -> u2: v9:{v3}, v10:{v5}
            ((qv(3), qv(2)), mk(vec![0, 1, 2], vec![0, 1])),
        ];
        Cst::from_parts(4, candidates, pairs)
    }

    fn fig1_query() -> QueryGraph {
        QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(2), Label::new(3)],
            &[(0, 1), (0, 2), (1, 2), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let cst = fig3_cst();
        assert_eq!(cst.query_vertex_count(), 4);
        assert_eq!(cst.candidate_count(qv(2)), 3);
        assert_eq!(cst.candidate(qv(2), 1), dv(5));
        assert_eq!(cst.candidate_index(qv(2), dv(7)), Some(2));
        assert_eq!(cst.candidate_index(qv(2), dv(4)), None);
    }

    #[test]
    fn neighbors_match_paper_example_2() {
        let cst = fig3_cst();
        // N^{u1}_{u2}(v6) = {v5, v7} → target indices {1, 2} in C(u2).
        let v6 = cst.candidate_index(qv(1), dv(6)).unwrap();
        assert_eq!(cst.neighbors(qv(1), v6, qv(2)), &[1, 2]);
        // N^{u2}_{u3}(v3) = {v9} → index 0 in C(u3).
        let v3 = cst.candidate_index(qv(2), dv(3)).unwrap();
        assert_eq!(cst.neighbors(qv(2), v3, qv(3)), &[0]);
    }

    #[test]
    fn candidate_edge_probe() {
        let cst = fig3_cst();
        assert!(cst.has_candidate_edge(qv(1), 1, qv(2), 1)); // v6-v5
        assert!(!cst.has_candidate_edge(qv(1), 0, qv(2), 1)); // v4-v5 absent
    }

    #[test]
    fn size_and_degree_models() {
        let cst = fig3_cst();
        assert!(cst.size_bytes() > 0);
        // Largest list: v6's or v2's 2-entry lists → D_CST = 2.
        assert_eq!(cst.max_candidate_degree(), 2);
        assert_eq!(cst.total_candidates(), 9);
    }

    #[test]
    fn validate_passes_for_consistent_cst() {
        let cst = fig3_cst();
        cst.validate(&fig1_query()).unwrap();
    }

    #[test]
    fn validate_catches_asymmetry() {
        let mut candidates = vec![vec![dv(0)], vec![dv(1)]];
        candidates[0].sort();
        let pairs = vec![
            (
                (qv(0), qv(1)),
                CsrAdj {
                    offsets: vec![0, 1],
                    targets: vec![0],
                },
            ),
            (
                (qv(1), qv(0)),
                CsrAdj {
                    offsets: vec![0, 0],
                    targets: vec![],
                },
            ),
        ];
        let cst = Cst::from_parts(2, candidates, pairs);
        let q = QueryGraph::new(vec![Label::new(0), Label::new(1)], &[(0, 1)]).unwrap();
        assert!(cst.validate(&q).is_err());
    }

    #[test]
    fn validate_catches_unsorted_candidates() {
        // Both candidates of u0 are adjacent to u1's only one, and the two
        // directions agree, so the order of C(u0) is all that can be wrong.
        let cst_with = |c0: Vec<VertexId>| {
            let pairs = vec![
                (
                    (qv(0), qv(1)),
                    CsrAdj {
                        offsets: vec![0, 1, 2],
                        targets: vec![0, 0],
                    },
                ),
                (
                    (qv(1), qv(0)),
                    CsrAdj {
                        offsets: vec![0, 2],
                        targets: vec![0, 1],
                    },
                ),
            ];
            Cst::from_parts(2, vec![c0, vec![dv(1)]], pairs)
        };
        let q = QueryGraph::new(vec![Label::new(0), Label::new(1)], &[(0, 1)]).unwrap();
        cst_with(vec![dv(3), dv(5)]).validate(&q).unwrap();
        let err = cst_with(vec![dv(5), dv(3)]).validate(&q).unwrap_err();
        assert!(err.contains("not ascending"), "{err}");
        // A repeated candidate is not *strictly* ascending either.
        assert!(cst_with(vec![dv(3), dv(3)]).validate(&q).is_err());
    }

    /// Brute-force reverse of `a`: target `j` lists every source `i` with
    /// `j ∈ a.neighbors(i)`, ascending.
    fn reverse_by_definition(a: &CsrAdj, target_count: usize) -> CsrAdj {
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        for j in 0..target_count as u32 {
            targets.extend(
                (0..a.source_count())
                    .filter(|&i| a.has_edge(i, j))
                    .map(|i| i as u32),
            );
            offsets.push(targets.len() as u32);
        }
        CsrAdj { offsets, targets }
    }

    #[test]
    fn transpose_is_the_reverse_adjacency() {
        let mk = |offsets: Vec<u32>, targets: Vec<u32>| CsrAdj { offsets, targets };
        let cases = [
            // (forward, |targets|)
            (mk(vec![0], vec![]), 3),                 // empty source set
            (mk(vec![0, 0, 0], vec![]), 0),           // empty target set
            (mk(vec![0, 2, 2, 3], vec![0, 2, 1]), 3), // source 1 has no hits
            // Source 1 is a hub adjacent to every target; the last target is
            // reached by the hub alone and the first by every source.
            (mk(vec![0, 1, 5, 7], vec![0, 0, 1, 2, 3, 0, 2]), 4),
        ];
        for (forward, target_count) in cases {
            let reverse = forward.transpose(target_count);
            assert_eq!(reverse, reverse_by_definition(&forward, target_count));
            assert_eq!(reverse.source_count(), target_count);
            assert_eq!(reverse.transpose(forward.source_count()), forward);
            // The partitioner's path: the entries per target given, as the
            // reverse lists' lengths.
            let counts: Vec<u32> = (0..target_count).map(|j| reverse.degree(j)).collect();
            assert_eq!(forward.transpose_counted(&counts), reverse);
        }
    }

    #[test]
    fn empty_candidate_detection() {
        let cst = Cst::from_parts(1, vec![vec![]], vec![]);
        assert!(cst.any_empty());
        let cst2 = Cst::from_parts(1, vec![vec![dv(0)]], vec![]);
        assert!(!cst2.any_empty());
    }
}
