//! The shared backtracking engine behind the CPU baselines.
//!
//! CFL-Match, DAF, and CECI differ (for the purposes of the paper's
//! evaluation) along three axes:
//!
//! 1. the auxiliary index (CPI vs CS vs the CECI index) — modelled by how
//!    the [`cst::Cst`] is built (refinement passes, filters);
//! 2. the matching order heuristic — supplied as a [`MatchingOrder`];
//! 3. the candidate-extension method — **edge verification** (CFL: expand
//!    from one backward list and verify the remaining query edges against
//!    `G`) vs **intersection** (CECI/DAF: intersect the candidate lists of
//!    all backward neighbours), the distinction Section VII-C highlights.
//!
//! This engine implements both extension methods over a CST index with
//! timeout/memory/result limits, so each baseline is a thin configuration.
//! It counts ([`run_backtrack`]) or also hands every embedding to a sink
//! ([`run_backtrack_with_sink`]); the search and its counters are the same
//! either way.

use crate::limits::{Outcome, RunLimits};
use cst::{seek, Cst, MatchPlan};
use graph_core::{Graph, MatchingOrder, QueryGraph, VertexId};
use std::time::Instant;

/// Candidate-extension strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtensionMethod {
    /// Expand from one backward adjacency list; verify every other backward
    /// query edge with an `O(log d)` probe into `G`.
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
    /// The dynamically smallest backward list (a modernised improvement,
    /// and what the FAST CPU share uses).
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

struct Search<'a, 's> {
    sink: Option<Sink<'s>>,
    /// The sink's row buffer (`row[u] = M(u)`).
    row: Vec<VertexId>,
    cst: &'a Cst,
    g: &'a Graph,
    plan: &'a MatchPlan,
    extension: ExtensionMethod,
    deadline: Option<(Instant, std::time::Duration)>,
    max_results: u64,
    stats: EngineStats,
    mapping: Vec<u32>,
    mapped: Vec<VertexId>,
    /// Reusable intersection buffers, one pair per depth.
    scratch: Vec<Vec<u32>>,
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
    backtrack(q, g, cst, order, extension, limits, None)
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
    backtrack(q, g, cst, order, extension, limits, Some(sink))
}

fn backtrack(
    q: &QueryGraph,
    g: &Graph,
    cst: &Cst,
    order: &MatchingOrder,
    extension: ExtensionMethod,
    limits: &RunLimits,
    sink: Option<Sink<'_>>,
) -> (Outcome, EngineStats) {
    let plan = MatchPlan::new(q, order);
    let n = plan.len();
    let row = match sink {
        Some(_) => vec![VertexId::new(0); n],
        None => Vec::new(),
    };
    let mut search = Search {
        sink,
        row,
        cst,
        g,
        plan: &plan,
        extension,
        deadline: limits.timeout.map(|t| (Instant::now(), t)),
        max_results: limits.max_results.unwrap_or(u64::MAX),
        stats: EngineStats::default(),
        mapping: vec![0u32; n],
        mapped: vec![VertexId::new(0); n],
        scratch: vec![Vec::new(); n],
    };
    if n == 0 {
        return (Outcome::Completed, search.stats);
    }
    let root = plan.vertex_at(0);
    let root_count = cst.candidate_count(root) as u32;
    for i in 0..root_count {
        search.stats.partials_generated += 1;
        search.mapping[0] = i;
        search.mapped[0] = cst.candidate(root, i);
        match search.descend(1) {
            Flow::Continue => {}
            Flow::Stop(outcome) => return (outcome, search.stats),
        }
    }
    (Outcome::Completed, search.stats)
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
    fn check_limits(&self) -> Option<Outcome> {
        if self.stats.embeddings >= self.max_results {
            return Some(Outcome::ResultLimit);
        }
        if self.stats.partials_generated & TIMEOUT_POLL_MASK == 0 {
            if let Some((start, budget)) = self.deadline {
                if start.elapsed() > budget {
                    return Some(Outcome::Timeout);
                }
            }
        }
        None
    }

    fn descend(&mut self, depth: usize) -> Flow {
        if depth == self.plan.len() {
            if let Some(sink) = self.sink.as_mut() {
                for (d, &v) in self.mapped.iter().enumerate() {
                    self.row[self.plan.vertex_at(d).index()] = v;
                }
                sink(&self.row);
            }
            self.stats.embeddings += 1;
            if self.stats.embeddings >= self.max_results {
                return Flow::Stop(Outcome::ResultLimit);
            }
            return Flow::Continue;
        }
        let u = self.plan.vertex_at(depth);
        let backward = self.plan.backward(depth);
        debug_assert!(!backward.is_empty());

        // The CST reference outlives `self`'s borrows, so slices taken from
        // it stay valid across recursive calls.
        let cst: &'a Cst = self.cst;

        match self.extension {
            ExtensionMethod::EdgeVerification(policy) => {
                let (anchor_pos, anchor_list) = match policy {
                    AnchorPolicy::FirstBackward => {
                        let bd = backward[0];
                        let bu = self.plan.vertex_at(bd);
                        (bd, cst.neighbors(bu, self.mapping[bd], u))
                    }
                    AnchorPolicy::MinList => backward
                        .iter()
                        .map(|&bd| {
                            let bu = self.plan.vertex_at(bd);
                            (bd, cst.neighbors(bu, self.mapping[bd], u))
                        })
                        .min_by_key(|(_, list)| list.len())
                        .expect("backward non-empty"),
                };

                for &j in anchor_list {
                    self.stats.partials_generated += 1;
                    if let Some(outcome) = self.check_limits() {
                        return Flow::Stop(outcome);
                    }
                    let v = cst.candidate(u, j);
                    if self.mapped[..depth].contains(&v) {
                        self.stats.visited_rejections += 1;
                        continue;
                    }
                    let mut ok = true;
                    for &bd in backward {
                        if bd == anchor_pos {
                            continue;
                        }
                        self.stats.edge_verifications += 1;
                        // Verify against the data graph (CFL's method).
                        if !self.g.has_edge(self.mapped[bd], v) {
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
                let mut lists: Vec<&[u32]> = backward
                    .iter()
                    .map(|&bd| {
                        let bu = self.plan.vertex_at(bd);
                        cst.neighbors(bu, self.mapping[bd], u)
                    })
                    .collect();
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

                for &j in &result {
                    self.stats.partials_generated += 1;
                    if let Some(outcome) = self.check_limits() {
                        self.scratch[depth] = result;
                        return Flow::Stop(outcome);
                    }
                    let v = cst.candidate(u, j);
                    if self.mapped[..depth].contains(&v) {
                        self.stats.visited_rejections += 1;
                        continue;
                    }
                    self.mapping[depth] = j;
                    self.mapped[depth] = v;
                    if let Flow::Stop(o) = self.descend(depth + 1) {
                        self.scratch[depth] = result;
                        return Flow::Stop(o);
                    }
                }
                self.scratch[depth] = result;
            }
        }
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst::build_cst;
    use graph_core::generators::random_labelled_graph;
    use graph_core::{BfsTree, Label, QueryVertexId};

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

    #[test]
    fn both_methods_agree_with_cst_enumeration() {
        for seed in [3, 7, 11, 19] {
            let (q, g, order, cstx) = setup(seed);
            let oracle = cst::count_embeddings(&cstx, &q, &order);
            let (o1, s1) = run_backtrack(
                &q,
                &g,
                &cstx,
                &order,
                ExtensionMethod::EdgeVerification(AnchorPolicy::MinList),
                &RunLimits::unlimited(),
            );
            let (o2, s2) = run_backtrack(
                &q,
                &g,
                &cstx,
                &order,
                ExtensionMethod::Intersection,
                &RunLimits::unlimited(),
            );
            assert_eq!(o1, Outcome::Completed);
            assert_eq!(o2, Outcome::Completed);
            assert_eq!(s1.embeddings, oracle, "edge-verification seed {seed}");
            assert_eq!(s2.embeddings, oracle, "intersection seed {seed}");
        }
    }

    #[test]
    fn result_limit_stops_early() {
        let (q, g, order, cstx) = setup(5);
        let total = cst::count_embeddings(&cstx, &q, &order);
        if total < 2 {
            return;
        }
        let limits = RunLimits {
            max_results: Some(1),
            ..RunLimits::unlimited()
        };
        let (o, s) = run_backtrack(
            &q,
            &g,
            &cstx,
            &order,
            ExtensionMethod::Intersection,
            &limits,
        );
        assert_eq!(o, Outcome::ResultLimit);
        assert_eq!(s.embeddings, 1);
    }

    #[test]
    fn zero_timeout_reports_timeout() {
        let (q, g, order, cstx) = setup(9);
        let limits = RunLimits {
            timeout: Some(std::time::Duration::ZERO),
            ..RunLimits::unlimited()
        };
        // With a zero budget the first poll must trip (poll happens at the
        // first partial because partials_generated starts at multiples of
        // the mask + 1... force many partials by running the search).
        let (o, _) = run_backtrack(
            &q,
            &g,
            &cstx,
            &order,
            ExtensionMethod::Intersection,
            &limits,
        );
        // Tiny searches may finish before the first poll; accept either but
        // require no panic. Larger searches are covered by baseline tests.
        assert!(matches!(o, Outcome::Completed | Outcome::Timeout));
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
}
