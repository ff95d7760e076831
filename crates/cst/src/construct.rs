//! CST construction (paper Algorithm 1).
//!
//! Three phases, mirroring the paper:
//! 1. **Top-down construction** (lines 3-7): candidates of each query vertex
//!    are computed by local features (label / degree, optionally NLF) and
//!    restricted to vertices adjacent to at least one candidate of the
//!    BFS-tree parent.
//! 2. **Bottom-up refinement** (lines 8-14): a candidate `v` of `u` is valid
//!    only if, for every child `u_c` of `u` in `t_q`, `v` has at least one
//!    neighbour among `C(u_c)`. Invalid candidates are removed.
//! 3. **Non-tree edges** (lines 15-19): adjacency lists are populated for
//!    every query edge (tree *and* non-tree) between the surviving sets —
//!    this is what makes the CST a *complete* search space (unlike CPI) and
//!    therefore partitionable (Section V-A, Remark). Each *undirected* edge
//!    costs one scan of `g.neighbors(v)`, over the smaller candidate set: a
//!    dense `rank[w] → index in C(u') | NONE` table, filled once per target
//!    `u'`, turns a neighbour into its CSR entry with one load, and
//!    `(u' → u)` is the counting-sort transpose of `(u → u')`
//!    (`CsrAdj::transpose`) — no second scan, no search. (A bitmap plus
//!    prefix popcount is smaller, but the default x86-64 target has no
//!    POPCNT; PR 17 measured that trade for the partitioner.)
//!
//! The paper's Remark stresses the trade-off between search-space size and
//! construction cost (the FPGA is idle while the CPU builds the CST), so the
//! pruning strength is configurable via [`CstOptions`]: the `ablation`
//! figure weighs NLF and refinement against end-to-end time.

use crate::filter::CandidateFilter;
use crate::structure::{CsrAdj, Cst};
use graph_core::{BfsTree, Graph, QueryGraph, VertexId};

/// Pruning knobs for CST construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CstOptions {
    /// Apply the neighbour-label-frequency filter on top of label/degree.
    pub use_nlf: bool,
    /// Run the bottom-up refinement pass (the paper's CST does, per the
    /// Remark in Section V-A). The pass visits children before parents, so
    /// one pass is already the fixpoint of the child-only rule: a second
    /// would remove nothing.
    pub refine: bool,
}

impl Default for CstOptions {
    fn default() -> Self {
        CstOptions {
            use_nlf: true,
            refine: true,
        }
    }
}

impl CstOptions {
    /// Label/degree filtering only, no refinement — the weakest sound
    /// configuration (what the paper's Fig. 3(b) illustration shows).
    pub fn minimal() -> Self {
        CstOptions {
            use_nlf: false,
            refine: false,
        }
    }
}

/// Statistics of a CST construction run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Candidates right after top-down construction, per query vertex.
    pub candidates_before_refine: Vec<usize>,
    /// Candidates removed by the bottom-up refinement, per query vertex.
    pub removed_by_refine: Vec<usize>,
    /// Total directed adjacency entries in the final CST.
    pub adjacency_entries: usize,
    /// Neighbour visits (each a candidate filter evaluation) of the
    /// top-down pass — the phase-1 scan work.
    pub topdown_entries: usize,
}

/// Builds the CST of `q` over `g` with default (strongest) pruning.
pub fn build_cst(q: &QueryGraph, g: &Graph, tree: &BfsTree) -> Cst {
    build_cst_with_stats(q, g, tree, CstOptions::default()).0
}

/// Computes the root candidate set (phase 1 for the root only): every data
/// vertex passing the root's local filters, sorted by vertex id.
pub(crate) fn root_candidates(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
) -> Vec<VertexId> {
    let root = tree.root();
    let filter = CandidateFilter::new(q, root);
    let mut scratch = Vec::new();
    let mut cands: Vec<VertexId> = g
        .vertices_with_label(q.label(root))
        .iter()
        .copied()
        .filter(|&v| {
            if options.use_nlf {
                filter.passes(g, v, &mut scratch)
            } else {
                filter.passes_basic(g, v)
            }
        })
        .collect();
    cands.sort_unstable();
    cands
}

/// [`build_cst`] with explicit options and construction statistics.
pub fn build_cst_with_stats(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
) -> (Cst, BuildStats) {
    let roots = root_candidates(q, g, tree, options);
    build_cst_from_roots(q, g, tree, options, roots)
}

/// Builds the CST whose root candidate set is exactly `roots` (sorted,
/// deduplicated, and a subset of [`root_candidates`]): phases 1-3 of
/// Algorithm 1 below the root. [`build_cst_with_stats`] passes the whole
/// root candidate list.
pub(crate) fn build_cst_from_roots(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
    roots: Vec<VertexId>,
) -> (Cst, BuildStats) {
    BuildScratch::default().build_from_roots(q, g, tree, options, roots)
}

/// "Not a candidate of the current target" in [`BuildScratch::rank`].
const NONE: u32 = u32::MAX;

/// The per-vertex tables of a build. A build leaves them as it found them
/// — bits clear, ranks [`NONE`] — by un-writing exactly what it wrote, so a
/// scratch reused for a build with a handful of candidates zeroes no
/// `|V(G)|`-sized table.
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    /// Membership bitmaps over data vertices, one per query vertex.
    member: Vec<Vec<u64>>,
    /// `rank[w]` = index of `w` in the candidate set of the query vertex
    /// phase 3 is currently building edges *into*, or [`NONE`].
    rank: Vec<u32>,
}

fn set(bits: &mut [u64], v: VertexId) {
    bits[v.index() / 64] |= 1 << (v.index() % 64);
}

fn clear(bits: &mut [u64], v: VertexId) {
    bits[v.index() / 64] &= !(1 << (v.index() % 64));
}

fn test(bits: &[u64], v: VertexId) -> bool {
    bits[v.index() / 64] >> (v.index() % 64) & 1 == 1
}

impl BuildScratch {
    /// Grows the tables to `n` query vertices over `g` (new entries clear).
    fn fit(&mut self, n: usize, g: &Graph) {
        let vertices = g.vertex_count();
        self.member.resize_with(self.member.len().max(n), Vec::new);
        for bits in &mut self.member[..n] {
            bits.resize(bits.len().max(vertices.div_ceil(64)), 0);
        }
        self.rank.resize(self.rank.len().max(vertices), NONE);
    }

    /// [`build_cst_from_roots`] on this scratch.
    pub(crate) fn build_from_roots(
        &mut self,
        q: &QueryGraph,
        g: &Graph,
        tree: &BfsTree,
        options: CstOptions,
        roots: Vec<VertexId>,
    ) -> (Cst, BuildStats) {
        let n = q.vertex_count();
        self.fit(n, g);
        let mut candidates: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut topdown_entries = 0usize;
        let mut scratch = Vec::new();

        // --- Phase 1: top-down construction (root seeded by the caller). ---
        debug_assert!(roots.windows(2).all(|w| w[0] < w[1]), "roots sorted+dedup");
        for &v in &roots {
            set(&mut self.member[tree.root().index()], v);
        }
        candidates[tree.root().index()] = roots;
        for &u in &tree.bfs_order()[1..] {
            let up = tree.parent(u).expect("non-root has a parent");
            let filter = CandidateFilter::new(q, u);
            let passes = |w: VertexId, scratch: &mut Vec<_>| {
                if options.use_nlf {
                    filter.passes(g, w, scratch)
                } else {
                    filter.passes_basic(g, w)
                }
            };
            let member_u = &mut self.member[u.index()];
            let mut found = 0usize;
            for &vp in &candidates[up.index()] {
                let neighbors = g.neighbors(vp);
                topdown_entries += neighbors.len();
                for &w in neighbors {
                    if !test(member_u, w) && passes(w, &mut scratch) {
                        set(member_u, w);
                        found += 1;
                    }
                }
            }
            // C(u) in id order is the bitmap read left to right: no sort.
            let mut cands = Vec::with_capacity(found);
            for (i, &word) in member_u.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    cands.push(VertexId::new(i as u32 * 64 + rest.trailing_zeros()));
                    rest &= rest - 1;
                }
            }
            candidates[u.index()] = cands;
        }
        self.refine_and_materialise(q, g, tree, options, candidates, topdown_entries)
    }

    /// Phases 2-3 of Algorithm 1: bottom-up refinement of the phase-1
    /// candidate sets (their bitmaps set in `self`), then the adjacency of
    /// every directed query edge. Clears the scratch.
    fn refine_and_materialise(
        &mut self,
        q: &QueryGraph,
        g: &Graph,
        tree: &BfsTree,
        options: CstOptions,
        mut candidates: Vec<Vec<VertexId>>,
        topdown_entries: usize,
    ) -> (Cst, BuildStats) {
        let n = q.vertex_count();
        let mut stats = BuildStats {
            candidates_before_refine: candidates.iter().map(Vec::len).collect(),
            removed_by_refine: vec![0; n],
            adjacency_entries: 0,
            topdown_entries,
        };

        // --- Phase 2: bottom-up refinement, children before parents. ---
        if options.refine {
            for u in tree.bottom_up_order() {
                let children = tree.children(u);
                if children.is_empty() {
                    continue;
                }
                let ui = u.index();
                // u is not its own child, so its bitmap can follow the
                // removals while the children's are being read.
                let mut member_u = std::mem::take(&mut self.member[ui]);
                let before = candidates[ui].len();
                candidates[ui].retain(|&v| {
                    let keep = children.iter().all(|&uc| {
                        let member_c = &self.member[uc.index()];
                        g.neighbors(v).iter().any(|&w| test(member_c, w))
                    });
                    if !keep {
                        clear(&mut member_u, v);
                    }
                    keep
                });
                self.member[ui] = member_u;
                stats.removed_by_refine[ui] = before - candidates[ui].len();
            }
        }

        // Refinement leaves each set its phase-1 capacity; the CST keeps
        // exactly its candidates.
        for cands in &mut candidates {
            cands.shrink_to_fit();
        }

        // --- Phase 3: adjacency for every directed query edge: one scan per
        //     undirected edge, from the endpoint with fewer candidates into
        //     the other; the opposite direction is the transpose. ---
        let mut built: Vec<Option<CsrAdj>> = vec![None; n * n];
        for t in q.vertices() {
            let ti = t.index();
            for (j, &w) in candidates[ti].iter().enumerate() {
                self.rank[w.index()] = j as u32;
            }
            for si in q.neighbors(t).map(|s| s.index()) {
                if (candidates[si].len(), si) < (candidates[ti].len(), ti) {
                    let forward = forward_adjacency(g, &candidates[si], &self.rank);
                    built[ti * n + si] = Some(forward.transpose(candidates[ti].len()));
                    built[si * n + ti] = Some(forward);
                }
            }
            for &w in &candidates[ti] {
                self.rank[w.index()] = NONE;
            }
        }
        let mut pairs = Vec::with_capacity(q.edge_count() * 2);
        for u in q.vertices() {
            for un in q.neighbors(u) {
                let slot = &mut built[u.index() * n + un.index()];
                let adj = slot.take().expect("every query edge was scanned");
                stats.adjacency_entries += adj.targets.len();
                pairs.push(((u, un), adj));
            }
        }

        for (bits, cands) in self.member.iter_mut().zip(&candidates) {
            for &v in cands {
                clear(bits, v);
            }
        }
        (Cst::from_parts(n, candidates, pairs), stats)
    }
}

/// The CSR adjacency `N^u_{u'}` of the sorted `sources` into the candidate
/// set `rank` indexes. Ranks ascend with vertex id, as graph adjacency does,
/// so every list comes out ascending.
fn forward_adjacency(g: &Graph, sources: &[VertexId], rank: &[u32]) -> CsrAdj {
    let mut offsets = Vec::with_capacity(sources.len() + 1);
    let mut targets = Vec::new();
    offsets.push(0u32);
    for &v in sources {
        let ranks = g.neighbors(v).iter().map(|w| rank[w.index()]);
        targets.extend(ranks.filter(|&j| j != NONE));
        offsets.push(targets.len() as u32);
    }
    // `targets` grew by doubling; the CST holds exactly its entries.
    targets.shrink_to_fit();
    CsrAdj { offsets, targets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::{GraphBuilder, Label, QueryVertexId};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    fn dv(x: u32) -> VertexId {
        VertexId::new(x)
    }

    /// The paper's running example: Fig. 1 query + data graph.
    /// Labels: A=0, B=1, C=2, D=3, E=4.
    fn fig1() -> (QueryGraph, Graph, BfsTree) {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(2), l(3)],
            &[(0, 1), (0, 2), (1, 2), (2, 3)],
        )
        .unwrap();
        // Data graph of Fig. 1(b): v1,v2 (A); v4,v6 (B); v3,v5,v7 (C);
        // v8,v9,v10 (D); v11,v12 (E). Index 0 is an unused decoy.
        let mut b = GraphBuilder::new();
        let labels = [
            l(9),
            l(0), // v1 A
            l(0), // v2 A
            l(2), // v3 C
            l(1), // v4 B
            l(2), // v5 C
            l(1), // v6 B
            l(2), // v7 C
            l(3), // v8 D
            l(3), // v9 D
            l(3), // v10 D
            l(4), // v11 E
            l(4), // v12 E
        ];
        for &lab in &labels {
            b.add_vertex(lab);
        }
        let edges = [
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
        ];
        for (a, bb) in edges {
            b.add_edge(dv(a), dv(bb)).unwrap();
        }
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        (q, g, tree)
    }

    #[test]
    fn fig1_minimal_options_match_fig3_illustration() {
        // With label/degree filtering only and no refinement, the CST matches
        // the paper's Fig. 3(b) exactly — including the false-positive v7,
        // which has no D-labelled neighbour.
        let (q, g, tree) = fig1();
        let (cst, _) = build_cst_with_stats(&q, &g, &tree, CstOptions::minimal());
        cst.validate(&q).unwrap();
        assert_eq!(cst.candidates(qv(0)), &[dv(1), dv(2)]);
        assert_eq!(cst.candidates(qv(1)), &[dv(4), dv(6)]);
        assert_eq!(cst.candidates(qv(2)), &[dv(3), dv(5), dv(7)]);
        assert_eq!(cst.candidates(qv(3)), &[dv(9), dv(10)]);
        // Example 2: N^{u1}_{u2}(v6) = {v5, v7}.
        let i = cst.candidate_index(qv(1), dv(6)).unwrap();
        let ns: Vec<VertexId> = cst
            .neighbors(qv(1), i, qv(2))
            .iter()
            .map(|&j| cst.candidate(qv(2), j))
            .collect();
        assert_eq!(ns, vec![dv(5), dv(7)]);
        // Example 2: N^{u2}_{u3}(v3) = {v9}.
        let i3 = cst.candidate_index(qv(2), dv(3)).unwrap();
        let ns3: Vec<VertexId> = cst
            .neighbors(qv(2), i3, qv(3))
            .iter()
            .map(|&j| cst.candidate(qv(3), j))
            .collect();
        assert_eq!(ns3, vec![dv(9)]);
    }

    #[test]
    fn fig1_default_options_prune_v7() {
        // Full pruning removes v7 (no D neighbour ⇒ fails both NLF and the
        // bottom-up refinement). The CST stays sound: v7 is in no embedding.
        let (q, g, tree) = fig1();
        let (cst, stats) = build_cst_with_stats(&q, &g, &tree, CstOptions::default());
        cst.validate(&q).unwrap();
        assert_eq!(cst.candidates(qv(2)), &[dv(3), dv(5)]);
        assert_eq!(cst.candidates(qv(3)), &[dv(9), dv(10)]);
        assert!(stats.adjacency_entries > 0);
    }

    #[test]
    fn refinement_removes_leafless_candidates() {
        // Path query A-B-C; data has an A-B pair without any C below it.
        let q = QueryGraph::new(vec![l(0), l(1), l(2)], &[(0, 1), (1, 2)]).unwrap();
        let mut b = GraphBuilder::new();
        let a1 = b.add_vertex(l(0));
        let b1 = b.add_vertex(l(1));
        let c1 = b.add_vertex(l(2));
        let a2 = b.add_vertex(l(0));
        let b2 = b.add_vertex(l(1)); // b2 has no C neighbour
        b.add_edge(a1, b1).unwrap();
        b.add_edge(b1, c1).unwrap();
        b.add_edge(a2, b2).unwrap();
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        let opts = CstOptions {
            use_nlf: false,
            refine: true,
        };
        let (cst, stats) = build_cst_with_stats(&q, &g, &tree, opts);
        // b2 never enters C(u1): the degree filter rejects it top-down.
        assert_eq!(cst.candidates(qv(1)), &[b1]);
        // a2's only B neighbour is gone, so bottom-up refinement removes a2.
        assert_eq!(cst.candidates(qv(0)), &[a1]);
        assert_eq!(stats.removed_by_refine.iter().sum::<usize>(), 1);
    }

    #[test]
    fn removed_by_refine_counts_every_pass() {
        // Path A-B-C-D. The chain a2-b2-c2 dead-ends (c2's second neighbour
        // is not a D), so the one reverse-BFS pass removes c2, then b2, then
        // a2, and counts each removal at its own query vertex.
        let q = QueryGraph::new(vec![l(0), l(1), l(2), l(3)], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut b = GraphBuilder::new();
        let ids: Vec<VertexId> = [0, 1, 2, 3, 0, 1, 2, 9]
            .iter()
            .map(|&x| b.add_vertex(l(x)))
            .collect();
        for (x, y) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)] {
            b.add_edge(ids[x], ids[y]).unwrap();
        }
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        let opts = CstOptions {
            use_nlf: false,
            refine: true,
        };
        let (cst, stats) = build_cst_with_stats(&q, &g, &tree, opts);
        assert_eq!(stats.candidates_before_refine, [2, 2, 2, 1]);
        assert_eq!(stats.removed_by_refine, [1, 1, 1, 0]);
        for u in q.vertices() {
            assert_eq!(
                stats.candidates_before_refine[u.index()] - stats.removed_by_refine[u.index()],
                cst.candidate_count(u)
            );
        }
    }

    #[test]
    fn one_refinement_pass_is_the_fixpoint() {
        // After the pass, every candidate of every query vertex with tree
        // children still has a neighbour in each child's candidate set — so
        // a second pass would remove nothing.
        use graph_core::all_benchmark_queries;
        use graph_core::generators::random_labelled_graph;
        let (mut removed, mut kept) = (0, 0);
        for seed in 0..4 {
            // The benchmark queries use labels 0..9.
            let g = random_labelled_graph(300, 0.04, 9, seed);
            for (qi, q) in all_benchmark_queries().iter().enumerate() {
                let tree = BfsTree::new(q, qv(0));
                for use_nlf in [false, true] {
                    let opts = CstOptions {
                        use_nlf,
                        refine: true,
                    };
                    let (cst, stats) = build_cst_with_stats(q, &g, &tree, opts);
                    removed += stats.removed_by_refine.iter().sum::<usize>();
                    kept += cst.total_candidates();
                    for u in q.vertices() {
                        for &uc in tree.children(u) {
                            let child = cst.candidates(uc);
                            for &v in cst.candidates(u) {
                                assert!(
                                    g.neighbors(v)
                                        .iter()
                                        .any(|w| child.binary_search(w).is_ok()),
                                    "seed {seed} q{qi} nlf={use_nlf}: {v:?} in C({u:?}) \
                                     has no neighbour in C({uc:?})"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(
            removed > 0 && kept > 0,
            "the pass had work: {removed} removed, {kept} kept"
        );
    }

    #[test]
    fn a_scratch_is_clear_between_builds() {
        // Two copies of one graph side by side (vertices 0..20 and 20..40,
        // no edge between them), built through one scratch one after the
        // other. The second region shares no vertex with the first, so
        // nothing the second build writes would cover a bit or a rank the
        // first left behind.
        use graph_core::generators::random_labelled_graph;
        let half = random_labelled_graph(20, 0.35, 2, 17);
        let mut b = GraphBuilder::new();
        for shift in [0, 20] {
            for v in half.vertices() {
                b.add_vertex(half.label(v));
            }
            for (x, y) in half.edges() {
                b.add_edge(dv(x.index() as u32 + shift), dv(y.index() as u32 + shift))
                    .unwrap();
            }
        }
        let g = b.build();
        let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let tree = BfsTree::new(&q, qv(0));
        let opts = CstOptions::default();
        let roots = root_candidates(&q, &g, &tree, opts);
        let (low, high): (Vec<_>, Vec<_>) = roots.iter().partition(|v| v.index() < 20);
        let mut scratch = BuildScratch::default();
        let assert_clear = |scratch: &BuildScratch| {
            assert!(scratch.member.iter().flatten().all(|&word| word == 0));
            assert!(scratch.rank.iter().all(|&r| r == NONE));
        };
        let mut built = Vec::new();
        for chunk in [low, high] {
            let fresh = build_cst_from_roots(&q, &g, &tree, opts, chunk.clone());
            assert!(fresh.1.adjacency_entries > 0, "the region reaches phase 3");
            assert_eq!(scratch.build_from_roots(&q, &g, &tree, opts, chunk), fresh);
            assert_clear(&scratch);
            built.push(fresh.0);
        }
        // The two regions are the same graph: same lists, ids 20 apart.
        for (u, un) in built[0].directed_edges() {
            assert_eq!(built[0].adjacency(u, un), built[1].adjacency(u, un));
            let shifted: Vec<_> = built[0]
                .candidates(u)
                .iter()
                .map(|v| dv(v.index() as u32 + 20))
                .collect();
            assert_eq!(built[1].candidates(u), shifted);
        }
    }

    #[test]
    fn soundness_every_embedding_is_in_cst() {
        // Random graph; check the soundness constraint (Section V-A) by
        // brute-force triangle enumeration over G.
        use graph_core::generators::random_labelled_graph;
        let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = random_labelled_graph(40, 0.25, 2, 17);
        let tree = BfsTree::new(&q, qv(0));
        for opts in [CstOptions::default(), CstOptions::minimal()] {
            let (cst, _) = build_cst_with_stats(&q, &g, &tree, opts);
            cst.validate(&q).unwrap();
            for a in g.vertices() {
                for bb in g.vertices() {
                    for c in g.vertices() {
                        let distinct = a != bb && bb != c && a != c;
                        if distinct
                            && g.label(a) == l(0)
                            && g.label(bb) == l(1)
                            && g.label(c) == l(0)
                            && g.has_edge(a, bb)
                            && g.has_edge(bb, c)
                            && g.has_edge(a, c)
                        {
                            assert!(cst.candidate_index(qv(0), a).is_some());
                            assert!(cst.candidate_index(qv(1), bb).is_some());
                            assert!(cst.candidate_index(qv(2), c).is_some());
                            // The candidate edges must be present too.
                            let ia = cst.candidate_index(qv(0), a).unwrap();
                            let ib = cst.candidate_index(qv(1), bb).unwrap();
                            let ic = cst.candidate_index(qv(2), c).unwrap();
                            assert!(cst.has_candidate_edge(qv(0), ia, qv(1), ib));
                            assert!(cst.has_candidate_edge(qv(1), ib, qv(2), ic));
                            assert!(cst.has_candidate_edge(qv(0), ia, qv(2), ic));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_when_label_missing() {
        let q = QueryGraph::new(vec![l(7), l(1)], &[(0, 1)]).unwrap();
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(l(0));
        let y = b.add_vertex(l(1));
        b.add_edge(x, y).unwrap();
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        let cst = build_cst(&q, &g, &tree);
        assert!(cst.any_empty());
    }

    #[test]
    fn stronger_pruning_never_grows_the_cst() {
        use graph_core::generators::random_labelled_graph;
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let g = random_labelled_graph(60, 0.15, 2, 3);
        let tree = BfsTree::new(&q, qv(0));
        let (full, _) = build_cst_with_stats(&q, &g, &tree, CstOptions::default());
        let (min, _) = build_cst_with_stats(&q, &g, &tree, CstOptions::minimal());
        assert!(full.total_candidates() <= min.total_candidates());
        assert!(full.size_bytes() <= min.size_bytes());
    }

    /// A built CST holds no slack: every candidate set and every CSR vector
    /// has exactly the capacity of its length, with and without refinement
    /// (which shrinks the sets after phase 1 sized them).
    #[test]
    fn built_vectors_have_exact_capacity() {
        use graph_core::generators::random_labelled_graph;
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
        .unwrap();
        let g = random_labelled_graph(200, 0.02, 2, 11);
        let tree = BfsTree::new(&q, qv(0));
        for options in [CstOptions::default(), CstOptions::minimal()] {
            let (cst, stats) = build_cst_with_stats(&q, &g, &tree, options);
            assert!(cst.total_adjacency_entries() > 0, "{options:?}: empty CST");
            if options.refine {
                let removed: usize = stats.removed_by_refine.iter().sum();
                assert!(removed > 0, "refinement removed nothing to shrink");
            }
            let (candidates, adjacency) = cst.parts();
            for (u, c) in candidates.iter().enumerate() {
                assert_eq!(c.capacity(), c.len(), "{options:?}: C(u{u})");
            }
            for (slot, adj) in adjacency.iter().enumerate() {
                assert_eq!(
                    adj.offsets.capacity(),
                    adj.offsets.len(),
                    "{options:?}: {slot}"
                );
                assert_eq!(
                    adj.targets.capacity(),
                    adj.targets.len(),
                    "{options:?}: {slot}"
                );
            }
        }
    }
}
