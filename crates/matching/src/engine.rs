//! The one CPU backtracking engine: the CPU baselines, the CPU backend and
//! FAST-SHARE's CPU share all run it.
//!
//! CFL-Match, DAF, and CECI differ (for the purposes of the paper's
//! evaluation) along three axes:
//!
//! 1. the auxiliary index (CPI vs CS vs the CECI index) — modelled by how
//!    the [`cst::Cst`] is built (refinement passes, filters);
//! 2. the matching order heuristic — supplied as a [`MatchingOrder`];
//! 3. the candidate-extension method — **edge verification** (CFL: expand
//!    from one backward list and verify the remaining query edges) vs
//!    **intersection** (CECI/DAF: intersect the candidate lists of all
//!    backward neighbours), the distinction Section VII-C highlights.
//!
//! This engine implements both extension methods over a CST index with
//! timeout/memory/result limits, so each baseline is a thin configuration;
//! the CPU share is `EdgeVerification(MinList)`, Theorem 1's CST-only
//! backtracking. It counts ([`run_backtrack`]) or also hands every
//! embedding to a sink ([`run_backtrack_with_sink`]); the search and its
//! counters are the same either way.
//!
//! A search resolves its depths once: per depth, `C(u)` as a slice and one
//! `(backward depth, CsrAdj)` pair per backward neighbour, so a node reads
//! its lists without a CST lookup.
//!
//! ## Closing runs
//!
//! The last depth `n − 1` *closes a cycle* when it has exactly two backward
//! neighbours — the anchor at depth `n − 2` and one earlier validator — and
//! `C(u)`'s vertex-id range lies apart from every earlier depth's (q1's
//! Comment, closing the Person–Person–Post–Comment 4-cycle). In an
//! intersection search with no sink and no result limit, depth `n − 2` then
//! does not descend candidate by candidate: after its usual partial count,
//! limit poll and visited check it counts its surviving *siblings* into the
//! last depth at once ([`cst::count_run`], the emulated kernel's run
//! counter): `x` in the validator's list survives under sibling `j` iff `j`
//! is in `x`'s reverse `(u → anchor)` list (CST symmetry). A sibling's
//! `intersection_elements` is `min(|N(anchor → u)(j)|, |validator list|)`,
//! what the pairwise merge charges; its survivors are partials and
//! embeddings, and none is visited, as the id ranges lie apart. When the
//! reverse walk is longer than the siblings' windows together, depth
//! `n − 2` descends per sibling after all. Every [`EngineStats`] field is
//! the per-partial path's; only a timeout can stop the two at different
//! points (a bulk add polls the deadline when it crosses a poll boundary).

use crate::limits::{Outcome, RunLimits};
use cst::{count_run, seek, CsrAdj, Cst};
use graph_core::{Graph, MatchingOrder, QueryGraph, VertexId, MAX_QUERY_VERTICES};
use std::time::Instant;

/// Candidate-extension strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtensionMethod {
    /// Expand from one backward adjacency list; verify every other backward
    /// query edge with an `O(log d)` probe into the CST's `(u_b → u)` list
    /// (Algorithm 7's edge validator), which holds exactly `G`'s edges
    /// between the two candidate sets (Theorem 1): CFL's check and price.
    EdgeVerification(AnchorPolicy),
    /// Intersect the backward candidate lists (sorted u32 merges), as the
    /// intersection-based algorithms do.
    Intersection,
}

/// Which backward list the edge-verification expansion anchors on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorPolicy {
    /// The earliest backward neighbour in the order (the tree parent for
    /// BFS-derived orders) — what CFL's CPI supports, since it stores
    /// adjacency for tree edges only.
    FirstBackward,
    /// The dynamically smallest backward list, the first on ties (a
    /// modernised improvement, and what the FAST CPU share uses).
    MinList,
}

/// Counters from an engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub embeddings: u64,
    pub partials_generated: u64,
    pub edge_verifications: u64,
    pub intersection_elements: u64,
    pub visited_rejections: u64,
}

/// How often the timeout is polled (in partials).
const TIMEOUT_POLL_MASK: u64 = (1 << 14) - 1;

/// Receives every embedding, indexed by query vertex id.
type Sink<'s> = &'s mut dyn FnMut(&[VertexId]);

/// One depth of the search, resolved against the CST.
struct Depth<'a> {
    /// `C(u)` of the query vertex `u` matched at this depth.
    candidates: &'a [VertexId],
    /// `(depth, (u_depth → u) adjacency)` per backward neighbour, in
    /// [`MatchingOrder::backward_neighbors`] order.
    backward: Vec<(usize, &'a CsrAdj)>,
}

/// A cycle-closing last depth (module docs).
#[derive(Clone, Copy)]
struct Closing<'a> {
    /// `(u_{n−2} → u)`: a sibling's window.
    anchor: &'a CsrAdj,
    /// The validator's depth and its `(u_b → u)` adjacency.
    validator: (usize, &'a CsrAdj),
    /// `(u → u_{n−2})`, the reverse of `anchor`.
    rev: &'a CsrAdj,
}

impl<'a> Closing<'a> {
    /// The last depth of `depths`, if it closes a cycle.
    fn of(cst: &'a Cst, order: &MatchingOrder, depths: &[Depth<'a>]) -> Option<Self> {
        let n = depths.len();
        let last = depths.last()?;
        let (anchor, validator) = match *last.backward.as_slice() {
            [a, b] | [b, a] if a.0 == n - 2 => (a.1, b),
            _ => return None,
        };
        let (lo, hi) = (last.candidates.first(), last.candidates.last());
        let apart = |d: &Depth<'_>| d.candidates.last() < lo || d.candidates.first() > hi;
        depths[..n - 1].iter().all(apart).then(|| Closing {
            anchor,
            validator,
            rev: cst.adjacency(order.vertex_at(n - 1), order.vertex_at(n - 2)),
        })
    }
}

struct Search<'a, 's> {
    sink: Option<Sink<'s>>,
    /// The sink's row buffer (`row[u] = M(u)`).
    row: Vec<VertexId>,
    depths: &'a [Depth<'a>],
    /// Set when depth `n − 2` counts its siblings into the last depth.
    closing: Option<Closing<'a>>,
    g: &'a Graph,
    order: &'a MatchingOrder,
    extension: ExtensionMethod,
    deadline: Option<(Instant, std::time::Duration)>,
    max_results: u64,
    stats: EngineStats,
    mapping: Vec<u32>,
    mapped: Vec<VertexId>,
    /// Reusable intersection buffers, one per depth.
    scratch: Vec<Vec<u32>>,
    /// Closing runs `[counted, declined by the walk guard]`.
    runs: [u64; 2],
}

/// Runs the backtracking search; returns the outcome and statistics.
pub fn run_backtrack(
    q: &QueryGraph,
    g: &Graph,
    cst: &Cst,
    order: &MatchingOrder,
    extension: ExtensionMethod,
    limits: &RunLimits,
) -> (Outcome, EngineStats) {
    let (outcome, stats, _) = backtrack(q, g, cst, order, extension, limits, None);
    (outcome, stats)
}

/// [`run_backtrack`] that also hands every embedding to `sink`, **indexed by
/// query vertex id** (`row[u] = M(u)`), in search order: depth first,
/// candidates in ascending index. Statistics are those of the counting run.
pub fn run_backtrack_with_sink(
    q: &QueryGraph,
    g: &Graph,
    cst: &Cst,
    order: &MatchingOrder,
    extension: ExtensionMethod,
    limits: &RunLimits,
    sink: &mut dyn FnMut(&[VertexId]),
) -> (Outcome, EngineStats) {
    let (outcome, stats, _) = backtrack(q, g, cst, order, extension, limits, Some(sink));
    (outcome, stats)
}

/// The search behind both entry points; also returns the closing runs
/// `[counted, declined]`.
fn backtrack(
    q: &QueryGraph,
    g: &Graph,
    cst: &Cst,
    order: &MatchingOrder,
    extension: ExtensionMethod,
    limits: &RunLimits,
    sink: Option<Sink<'_>>,
) -> (Outcome, EngineStats, [u64; 2]) {
    let depths: Vec<Depth<'_>> = order
        .as_slice()
        .iter()
        .map(|&u| Depth {
            candidates: cst.candidates(u),
            backward: order
                .backward_neighbors(q, u)
                .into_iter()
                .map(|b| (order.position_of(b), cst.adjacency(b, u)))
                .collect(),
        })
        .collect();
    let n = depths.len();
    let max_results = limits.max_results.unwrap_or(u64::MAX);
    let counting = sink.is_none() && max_results == u64::MAX;
    let closing = match extension {
        ExtensionMethod::Intersection if counting => Closing::of(cst, order, &depths),
        _ => None,
    };
    let row = match sink {
        Some(_) => vec![VertexId::new(0); n],
        None => Vec::new(),
    };
    let mut search = Search {
        sink,
        row,
        depths: &depths,
        closing,
        g,
        order,
        extension,
        deadline: limits.timeout.map(|t| (Instant::now(), t)),
        max_results,
        stats: EngineStats::default(),
        mapping: vec![0u32; n],
        mapped: vec![VertexId::new(0); n],
        scratch: vec![Vec::new(); n],
        runs: [0; 2],
    };
    let Some(root) = depths.first() else {
        return (Outcome::Completed, search.stats, search.runs);
    };
    for (i, &v) in root.candidates.iter().enumerate() {
        search.stats.partials_generated += 1;
        search.mapping[0] = i as u32;
        search.mapped[0] = v;
        if let Flow::Stop(outcome) = search.descend(1) {
            return (outcome, search.stats, search.runs);
        }
    }
    (Outcome::Completed, search.stats, search.runs)
}

enum Flow {
    Continue,
    Stop(Outcome),
}

/// Size ratio above which the larger list is galloped instead of merged:
/// `log2` probes per element beat a linear scan once the partner list is
/// ~32× longer (skips amortise past the binary-search constant factor).
const GALLOP_RATIO: usize = 32;

/// In-place intersection of sorted `result` with sorted `other`: a linear
/// two-pointer merge when the sizes are comparable, galloping
/// ([`cst::seek`]) into `other` when it is `GALLOP_RATIO`× longer. Callers
/// sort lists ascending by length, so `result` is never the longer side.
fn intersect_sorted(result: &mut Vec<u32>, other: &[u32]) {
    let gallop = other.len() / GALLOP_RATIO > result.len();
    let mut w = 0usize; // write cursor (w ≤ read cursor always)
    let mut o = 0usize; // cursor into `other`
    for r in 0..result.len() {
        let x = result[r];
        if gallop {
            o += seek(&other[o..], x);
        } else {
            while o < other.len() && other[o] < x {
                o += 1;
            }
        }
        if o == other.len() {
            break;
        }
        if other[o] == x {
            result[w] = x;
            w += 1;
            o += 1;
        }
    }
    result.truncate(w);
}

impl<'a> Search<'a, '_> {
    fn timed_out(&self) -> bool {
        self.deadline
            .is_some_and(|(start, budget)| start.elapsed() > budget)
    }

    fn check_limits(&self) -> Option<Outcome> {
        if self.stats.embeddings >= self.max_results {
            return Some(Outcome::ResultLimit);
        }
        if self.stats.partials_generated & TIMEOUT_POLL_MASK == 0 && self.timed_out() {
            return Some(Outcome::Timeout);
        }
        None
    }

    fn descend(&mut self, depth: usize) -> Flow {
        if depth == self.depths.len() {
            if let Some(sink) = self.sink.as_mut() {
                for (d, &v) in self.mapped.iter().enumerate() {
                    self.row[self.order.vertex_at(d).index()] = v;
                }
                sink(&self.row);
            }
            self.stats.embeddings += 1;
            if self.stats.embeddings >= self.max_results {
                return Flow::Stop(Outcome::ResultLimit);
            }
            return Flow::Continue;
        }
        // The resolved depths outlive `self`'s borrows, so lists taken from
        // them stay valid across recursive calls.
        let step: &'a Depth<'a> = &self.depths[depth];
        debug_assert!(!step.backward.is_empty());

        match self.extension {
            ExtensionMethod::EdgeVerification(policy) => {
                let mapping = &self.mapping;
                let list =
                    |&(bd, adj): &(usize, &'a CsrAdj)| (bd, adj.neighbors(mapping[bd] as usize));
                let (anchor_pos, anchor_list) = match policy {
                    AnchorPolicy::FirstBackward => list(&step.backward[0]),
                    AnchorPolicy::MinList => step
                        .backward
                        .iter()
                        .map(list)
                        .min_by_key(|(_, l)| l.len())
                        .expect("backward non-empty"),
                };

                for &j in anchor_list {
                    self.stats.partials_generated += 1;
                    if let Some(outcome) = self.check_limits() {
                        return Flow::Stop(outcome);
                    }
                    let v = step.candidates[j as usize];
                    if self.mapped[..depth].contains(&v) {
                        self.stats.visited_rejections += 1;
                        continue;
                    }
                    let mut ok = true;
                    for &(bd, adj) in &step.backward {
                        if bd == anchor_pos {
                            continue;
                        }
                        self.stats.edge_verifications += 1;
                        // Algorithm 7's edge validator: probe the CST, whose
                        // candidate adjacency is `G`'s (Theorem 1).
                        let edge = adj.has_edge(self.mapping[bd] as usize, j);
                        debug_assert_eq!(edge, self.g.has_edge(self.mapped[bd], v));
                        if !edge {
                            ok = false;
                            break;
                        }
                    }
                    if !ok {
                        continue;
                    }
                    self.mapping[depth] = j;
                    self.mapped[depth] = v;
                    if let Flow::Stop(o) = self.descend(depth + 1) {
                        return Flow::Stop(o);
                    }
                }
            }
            ExtensionMethod::Intersection => {
                // Intersect all backward candidate lists, smallest first.
                let mut lists: [&[u32]; MAX_QUERY_VERTICES] = [&[]; MAX_QUERY_VERTICES];
                for (l, &(bd, adj)) in lists.iter_mut().zip(&step.backward) {
                    *l = adj.neighbors(self.mapping[bd] as usize);
                }
                let lists = &mut lists[..step.backward.len()];
                lists.sort_by_key(|l| l.len());

                let mut result = std::mem::take(&mut self.scratch[depth]);
                result.clear();
                result.extend_from_slice(lists[0]);
                for other in &lists[1..] {
                    if result.is_empty() {
                        break;
                    }
                    // Cost unit: one per element of the current (smaller)
                    // list per intersected partner — identical for both
                    // strategies below, so the modelled time does not
                    // depend on which one ran.
                    self.stats.intersection_elements += result.len() as u64;
                    intersect_sorted(&mut result, other);
                }

                // At depth n − 2 of a closing search, the candidates that
                // pass stay in `result` as the run's siblings.
                let closing = self.closing.filter(|_| depth + 2 == self.depths.len());
                let mut siblings = 0;
                let mut flow = Flow::Continue;
                for r in 0..result.len() {
                    let j = result[r];
                    self.stats.partials_generated += 1;
                    if let Some(outcome) = self.check_limits() {
                        flow = Flow::Stop(outcome);
                        break;
                    }
                    let v = step.candidates[j as usize];
                    if self.mapped[..depth].contains(&v) {
                        self.stats.visited_rejections += 1;
                        continue;
                    }
                    if closing.is_some() {
                        result[siblings] = j;
                        siblings += 1;
                        continue;
                    }
                    self.mapping[depth] = j;
                    self.mapped[depth] = v;
                    if let Flow::Stop(o) = self.descend(depth + 1) {
                        flow = Flow::Stop(o);
                        break;
                    }
                }
                if let (Some(run), Flow::Continue) = (closing, &flow) {
                    flow = self.close(depth, run, &result[..siblings]);
                }
                self.scratch[depth] = result;
                return flow;
            }
        }
        Flow::Continue
    }

    /// Expands the siblings `members` (ascending candidate indices mapped
    /// at depth `depth = n − 2`, none visited) into the closing last depth:
    /// counted at once, or one by one when the guard declines the run.
    fn close(&mut self, depth: usize, run: Closing<'a>, members: &[u32]) -> Flow {
        let (vd, validator) = run.validator;
        let validator = validator.neighbors(self.mapping[vd] as usize);
        let (mut window, mut elements) = (0usize, 0usize);
        for &j in members {
            let len = run.anchor.degree(j as usize) as usize;
            window += len;
            elements += len.min(validator.len());
        }
        let member = |m: usize| members[m];
        let Some(survivors) = count_run(&mut [validator], run.rev, members.len(), member, window)
        else {
            self.runs[1] += 1;
            let candidates = self.depths[depth].candidates;
            for &j in members {
                self.mapping[depth] = j;
                self.mapped[depth] = candidates[j as usize];
                if let Flow::Stop(o) = self.descend(depth + 1) {
                    return Flow::Stop(o);
                }
            }
            return Flow::Continue;
        };
        self.runs[0] += 1;
        let before = self.stats.partials_generated;
        self.stats.intersection_elements += elements as u64;
        self.stats.partials_generated += survivors as u64;
        self.stats.embeddings += survivors as u64;
        // Past the next multiple of the poll interval?
        let crossed = (before | TIMEOUT_POLL_MASK) < self.stats.partials_generated;
        if crossed && self.timed_out() {
            return Flow::Stop(Outcome::Timeout);
        }
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2::vf2_count;
    use cst::{build_cst, build_cst_with_stats, CstOptions};
    use graph_core::generators::random_labelled_graph;
    use graph_core::{all_connected_orders, BfsTree, GraphBuilder, Label, QueryVertexId};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    fn setup(seed: u64) -> (QueryGraph, Graph, MatchingOrder, Cst) {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
        .unwrap();
        let g = random_labelled_graph(50, 0.18, 2, seed);
        let tree = BfsTree::new(&q, qv(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
        let cst = build_cst(&q, &g, &tree);
        (q, g, order, cst)
    }

    const METHODS: [ExtensionMethod; 2] = [
        ExtensionMethod::EdgeVerification(AnchorPolicy::MinList),
        ExtensionMethod::Intersection,
    ];

    #[test]
    fn both_methods_agree_with_cst_enumeration() {
        for seed in [3, 7, 11, 19] {
            let (q, g, order, cstx) = setup(seed);
            let oracle = vf2_count(&q, &g);
            for method in METHODS {
                let (o, s) = run_backtrack(&q, &g, &cstx, &order, method, &RunLimits::unlimited());
                assert_eq!(o, Outcome::Completed);
                assert_eq!(s.embeddings, oracle, "{method:?} seed {seed}");
            }
        }
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
        let labels = [9, 0, 0, 2, 1, 2, 1, 2, 3, 3, 3, 4, 4];
        for lab in labels {
            b.add_vertex(l(lab));
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
        // {(u0,v1),(u1,v4),(u2,v3),(u3,v9)} and {(u0,v2),(u1,v6),(u2,v5),(u3,v10)}.
        let v = VertexId::new;
        let expected = vec![vec![v(1), v(4), v(3), v(9)], vec![v(2), v(6), v(5), v(10)]];
        let unlimited = RunLimits::unlimited();
        for method in METHODS {
            let mut found = Vec::new();
            let mut sink = |row: &[VertexId]| found.push(row.to_vec());
            let (_, stats) =
                run_backtrack_with_sink(&q, &g, &cst, &order, method, &unlimited, &mut sink);
            assert_eq!(stats.embeddings, 2, "{method:?}");
            assert_eq!(found, expected, "{method:?}");
        }
    }

    /// Theorem 1: results must be identical for every sound CST
    /// configuration, every connected matching order and both extension
    /// methods.
    #[test]
    fn counts_invariant_across_options_and_orders() {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
        .unwrap();
        let g = random_labelled_graph(35, 0.2, 2, 23);
        let tree = BfsTree::new(&q, qv(0));
        let unlimited = RunLimits::unlimited();
        let mut counts = std::collections::HashSet::new();
        for opts in [CstOptions::default(), CstOptions::minimal()] {
            let (cst, _) = build_cst_with_stats(&q, &g, &tree, opts);
            for order in all_connected_orders(&q, qv(0)) {
                for method in METHODS {
                    let (_, s) = run_backtrack(&q, &g, &cst, &order, method, &unlimited);
                    counts.insert(s.embeddings);
                }
            }
        }
        assert_eq!(counts.len(), 1, "counts differ: {counts:?}");
        assert!(counts.contains(&vf2_count(&q, &g)));
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
        // so the engine's visited check is what rejects the reuse.
        let opts = CstOptions {
            use_nlf: false,
            refine: true,
        };
        let (cst, _) = build_cst_with_stats(&q, &g, &tree, opts);
        let order = MatchingOrder::new(&q, vec![qv(1), qv(0), qv(2)]).unwrap();
        for method in METHODS {
            let (_, stats) = run_backtrack(&q, &g, &cst, &order, method, &RunLimits::unlimited());
            assert_eq!(stats.embeddings, 0, "{method:?}");
            assert!(stats.visited_rejections > 0, "{method:?}");
        }
    }

    /// The CPU share's counters on a triangle: every root candidate and
    /// every `(u0 → u1)` entry is a partial; at the last depth every
    /// partial is either a visited rejection or one check of the closing
    /// edge against the CST; no list is intersected.
    #[test]
    fn stats_track_generated_and_validated() {
        let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = random_labelled_graph(30, 0.3, 2, 8);
        let tree = BfsTree::new(&q, qv(0));
        let cst = build_cst(&q, &g, &tree);
        let order = MatchingOrder::new(&q, vec![qv(0), qv(1), qv(2)]).unwrap();
        let method = ExtensionMethod::EdgeVerification(AnchorPolicy::MinList);
        let (_, stats) = run_backtrack(&q, &g, &cst, &order, method, &RunLimits::unlimited());
        assert!(stats.embeddings > 0, "degenerate instance");
        assert_eq!(stats.embeddings, vf2_count(&q, &g));
        let adj = cst.adjacency(qv(0), qv(1));
        let depth1: usize = (0..adj.source_count()).map(|i| adj.neighbors(i).len()).sum();
        let depth2 = stats.edge_verifications + stats.visited_rejections;
        let partials = cst.candidate_count(qv(0)) + depth1 + depth2 as usize;
        assert_eq!(stats.partials_generated, partials as u64);
        assert!(stats.edge_verifications >= stats.embeddings);
        assert_eq!(stats.intersection_elements, 0);
    }

    #[test]
    fn result_limit_stops_early() {
        let (q, g, order, cstx) = setup(5);
        let total = vf2_count(&q, &g);
        if total < 2 {
            return;
        }
        let limits = RunLimits {
            max_results: Some(1),
            ..RunLimits::unlimited()
        };
        for method in METHODS {
            let (o, s) = run_backtrack(&q, &g, &cstx, &order, method, &limits);
            assert_eq!(o, Outcome::ResultLimit, "{method:?}");
            assert_eq!(s.embeddings, 1, "{method:?}");
        }
    }

    /// A result limit stops the search after exactly that many rows have
    /// reached the sink, under both extension methods.
    #[test]
    fn early_stop_via_callback() {
        let q = QueryGraph::new(vec![l(0), l(1)], &[(0, 1)]).unwrap();
        let g = random_labelled_graph(60, 0.4, 2, 2);
        let tree = BfsTree::new(&q, qv(0));
        let cst = build_cst(&q, &g, &tree);
        let order = MatchingOrder::new(&q, vec![qv(0), qv(1)]).unwrap();
        assert!(vf2_count(&q, &g) > 3);
        let limits = RunLimits {
            max_results: Some(3),
            ..RunLimits::unlimited()
        };
        for method in METHODS {
            let mut seen = 0;
            let mut sink = |_: &[VertexId]| seen += 1;
            let (o, stats) =
                run_backtrack_with_sink(&q, &g, &cst, &order, method, &limits, &mut sink);
            assert_eq!(o, Outcome::ResultLimit, "{method:?}");
            assert_eq!(stats.embeddings, 3, "{method:?}");
            assert_eq!(seen, 3, "{method:?}");
        }
    }

    #[test]
    fn intersect_sorted_matches_naive_for_both_strategies() {
        let naive = |a: &[u32], b: &[u32]| -> Vec<u32> {
            a.iter().copied().filter(|x| b.contains(x)).collect()
        };
        // Comparable sizes → merge path.
        let mut r = vec![1u32, 3, 5, 7, 9, 11];
        let other = vec![2u32, 3, 4, 7, 8, 11, 12];
        let expect = naive(&r, &other);
        intersect_sorted(&mut r, &other);
        assert_eq!(r, expect);
        // Wildly unbalanced sizes → gallop path (other is 1000× longer).
        let big: Vec<u32> = (0..4000).map(|i| i * 3).collect();
        for small in [vec![], vec![9u32], vec![0, 2, 9, 3000, 11997, 11998]] {
            let mut r = small.clone();
            let expect = naive(&r, &big);
            assert!(big.len() / GALLOP_RATIO > r.len(), "gallop branch taken");
            intersect_sorted(&mut r, &big);
            assert_eq!(r, expect, "input {small:?}");
        }
        // Element past the end of `other`.
        let mut r = vec![100_000u32];
        intersect_sorted(&mut r, &big);
        assert!(r.is_empty());
    }

    #[test]
    fn intersection_counts_work() {
        let (q, g, order, cstx) = setup(13);
        let (_, s) = run_backtrack(
            &q,
            &g,
            &cstx,
            &order,
            ExtensionMethod::Intersection,
            &RunLimits::unlimited(),
        );
        // The 5-edge query on 4 vertices has two backward neighbours at the
        // last depths, so intersections must have occurred whenever partials
        // were expanded past depth 1.
        if s.partials_generated > cstx.candidate_count(qv(0)) as u64 {
            assert!(s.intersection_elements > 0);
        }
    }

    /// SplitMix64, the seeded stream behind [`label_blocked_graph`].
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// `true` with probability `p`.
        fn chance(&mut self, p: f64) -> bool {
            ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
        }
    }

    /// A graph whose labels each hold one contiguous block of ids,
    /// `sizes[label]` vertices, so candidates of different labels never
    /// interleave by id (what a closing run needs, and what
    /// [`random_labelled_graph`] never gives). Vertices of labels `a` and
    /// `b` are joined with probability `p(a, b)`; for each `(a, b)` in
    /// `one_of`, every label-`a` vertex gets one label-`b` neighbour (LDBC's
    /// reply-of and has-creator links).
    fn label_blocked_graph(
        seed: u64,
        sizes: &[u32],
        p: impl Fn(u16, u16) -> f64,
        one_of: &[(u16, u16)],
    ) -> Graph {
        let mut rng = SplitMix(seed);
        let mut b = GraphBuilder::new();
        let blocks: Vec<std::ops::Range<u32>> = (0..sizes.len())
            .map(|label| {
                let first = b.add_vertices(sizes[label] as usize, l(label as u16));
                first.raw()..first.raw() + sizes[label]
            })
            .collect();
        let label_of = |v: u32| blocks.iter().position(|r| r.contains(&v)).unwrap() as u16;
        let n = b.vertex_count() as u32;
        for i in 0..n {
            for j in i + 1..n {
                if rng.chance(p(label_of(i), label_of(j))) {
                    b.add_edge(VertexId::new(i), VertexId::new(j)).unwrap();
                }
            }
        }
        for &(a, to) in one_of {
            let to = &blocks[to as usize];
            for v in blocks[a as usize].clone() {
                let w = to.start + (rng.next() % to.len() as u64) as u32;
                b.add_edge(VertexId::new(v), VertexId::new(w)).unwrap();
            }
        }
        b.build()
    }

    /// Cycle queries on [`label_blocked_graph`]s. Whether the last depth
    /// closes a cycle depends on the root and the order; the test tries them
    /// all.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// A 4-cycle of four labels over sparse label pairs.
        Square,
        /// q1's shape: Person knows Person, one wrote a Post, the other a
        /// Comment replying to it. Every Comment has one Post and one
        /// creator, so a closing Comment's reverse list has one entry.
        ReplyOf,
        /// A 4-cycle over dense label pairs: reverse lists as long as the
        /// windows, so the walk guard declines runs.
        Dense,
        /// A 4-cycle labelled 0, 1, 0, 1: an earlier depth shares the last
        /// depth's label, so the id ranges overlap, and its vertex lies in
        /// every last-depth intersection (a visited rejection each time).
        Alternating,
    }

    impl Shape {
        const ALL: [Shape; 4] = [
            Shape::Square,
            Shape::ReplyOf,
            Shape::Dense,
            Shape::Alternating,
        ];

        fn instance(self, seed: u64) -> (QueryGraph, Graph) {
            let ring: [(usize, usize); 4] = [(0, 1), (1, 2), (2, 3), (3, 0)];
            let sizes: Vec<u32> = (0..4).map(|i| 12 + ((seed + i) % 7) as u32).collect();
            let (labels, edges, g) = match self {
                Shape::Square => {
                    let p = |a: u16, b: u16| if a == b { 0.0 } else { 0.15 };
                    (
                        vec![0, 1, 2, 3],
                        ring,
                        label_blocked_graph(seed, &sizes, p, &[]),
                    )
                }
                // Labels: 0 Person (knows), 1 Post, 2 Comment.
                Shape::ReplyOf => {
                    let p = |a: u16, b: u16| match (a.min(b), a.max(b)) {
                        (0, 0) => 0.3,
                        (0, 1) => 0.1,
                        _ => 0.0,
                    };
                    let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
                    let g = label_blocked_graph(seed, &sizes[..3], p, &[(2, 1), (2, 0)]);
                    (vec![0, 0, 1, 2], edges, g)
                }
                Shape::Dense => {
                    let p = |a: u16, b: u16| if a.abs_diff(b) % 2 == 1 { 0.6 } else { 0.0 };
                    (
                        vec![0, 1, 2, 3],
                        ring,
                        label_blocked_graph(seed, &sizes, p, &[]),
                    )
                }
                Shape::Alternating => {
                    let p = |a: u16, b: u16| if a == b { 0.05 } else { 0.2 };
                    (
                        vec![0, 1, 0, 1],
                        ring,
                        label_blocked_graph(seed, &sizes[..2], p, &[]),
                    )
                }
            };
            (
                QueryGraph::new(labels.into_iter().map(l).collect(), &edges).unwrap(),
                g,
            )
        }
    }

    /// A count-only intersection search counts sibling runs wherever the
    /// last depth closes a cycle; a no-op sink forces the same search down
    /// the per-partial path. Every [`EngineStats`] field must agree on every
    /// [`Shape`] under every root and connected order, and each shape must
    /// see what it is there for: runs counted on `Square` and `ReplyOf`,
    /// runs declined by the walk guard on `Dense`.
    ///
    /// Mutations of [`Search::close`] that fail it: `intersection_elements`
    /// taken as the anchor's degree instead of its minimum with the
    /// validator list; the walk guard dropped (`Dense` declines nothing);
    /// runs allowed when an earlier depth's id range overlaps `C(u)`
    /// (`Alternating`'s visited rejections become embeddings).
    #[test]
    fn closing_runs_match_the_per_partial_path() {
        let unlimited = RunLimits::unlimited();
        for shape in Shape::ALL {
            let mut runs = [0u64; 2];
            for seed in 0..8 {
                let (q, g) = shape.instance(seed);
                let oracle = vf2_count(&q, &g);
                for root in q.vertices() {
                    let tree = BfsTree::new(&q, root);
                    let cst = build_cst(&q, &g, &tree);
                    for order in all_connected_orders(&q, root) {
                        let at = format!("{shape:?} seed {seed} order {:?}", order.as_slice());
                        let method = ExtensionMethod::Intersection;
                        let counted = backtrack(&q, &g, &cst, &order, method, &unlimited, None);
                        let mut noop = |_: &[VertexId]| {};
                        let sink = Some(&mut noop as Sink<'_>);
                        let per_partial = backtrack(&q, &g, &cst, &order, method, &unlimited, sink);
                        assert_eq!(per_partial.2, [0, 0], "{at}: a sink takes no runs");
                        assert_eq!(counted.0, Outcome::Completed, "{at}");
                        assert_eq!(counted.1, per_partial.1, "{at}");
                        assert_eq!(counted.1.embeddings, oracle, "{at}");
                        runs[0] += counted.2[0];
                        runs[1] += counted.2[1];
                    }
                }
            }
            match shape {
                Shape::Square | Shape::ReplyOf => assert!(runs[0] > 0, "{shape:?} {runs:?}"),
                Shape::Dense => assert!(runs[1] > 0, "{shape:?} {runs:?}"),
                Shape::Alternating => {}
            }
        }
    }

    /// With a zero budget, a search past the first poll stops with
    /// `Timeout`, both when it counts closing runs and down the per-partial
    /// path. On this shape only the last depth crosses a poll boundary
    /// (1,884 partials above it, 20,736 at it), so the counted search stops
    /// only if a bulk add polls the deadline: dropping that poll from
    /// [`Search::close`] fails this test.
    #[test]
    fn zero_timeout_stops_at_the_first_poll_on_either_path() {
        // Four blocks of 12, each joined to the next around the ring.
        let ring = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let q = QueryGraph::new((0..4).map(l).collect(), &ring).unwrap();
        let p = |a: u16, b: u16| {
            if (a + 1) % 4 == b || (b + 1) % 4 == a {
                1.0
            } else {
                0.0
            }
        };
        let g = label_blocked_graph(0, &[12; 4], p, &[]);
        let tree = BfsTree::new(&q, qv(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
        let cst = build_cst(&q, &g, &tree);
        let method = ExtensionMethod::Intersection;

        let (outcome, stats, runs) =
            backtrack(&q, &g, &cst, &order, method, &RunLimits::unlimited(), None);
        assert_eq!(outcome, Outcome::Completed);
        assert_eq!(stats.embeddings, 12u64.pow(4));
        assert_eq!(runs, [144, 0], "every depth-2 node counts its 12 siblings");
        assert!(stats.partials_generated - stats.embeddings < TIMEOUT_POLL_MASK);
        assert!(stats.partials_generated > TIMEOUT_POLL_MASK);

        let zero = RunLimits {
            timeout: Some(std::time::Duration::ZERO),
            ..RunLimits::unlimited()
        };
        let (outcome, _, runs) = backtrack(&q, &g, &cst, &order, method, &zero, None);
        assert_eq!(outcome, Outcome::Timeout);
        assert!(runs[0] > 0);
        let (outcome, _) =
            run_backtrack_with_sink(&q, &g, &cst, &order, method, &zero, &mut |_| {});
        assert_eq!(outcome, Outcome::Timeout);
    }
}
