//! The FAST matching kernel (paper Algorithms 4-8), software-emulated.
//!
//! The kernel decomposes backtracking into pipelineable steps: a
//! **Generator** expands up to `N_o` partial results per round from the
//! deepest buffer level (Algorithm 5), a **Visited Validator** rejects
//! mappings that reuse a data vertex (Algorithm 6), an **Edge Validator**
//! probes the CST for the non-anchor backward edges (Algorithm 7), and a
//! **Synchronizer** routes surviving partials back into the BRAM-only buffer
//! or out as complete embeddings (Algorithm 8).
//!
//! The emulation is *functionally exact* (it produces the same embeddings a
//! real kernel would) and *workload exact*: it counts `N` (partial results
//! generated) and `M` (edge-validation tasks) — the two quantities the
//! paper's cycle equations (1)-(4) consume — plus every CST/buffer memory
//! touch for the BRAM/DRAM accounting of Fig. 7.
//!
//! ## The partial-results buffer `P` (Section VI-B)
//!
//! Partial results never spill to DRAM: `P` reserves `(|V(q)|-1) × N_o`
//! slots of [`PARTIAL_SLOT_BYTES`] in BRAM, and every round expands the
//! partials with the **largest** mapped-vertex count first, which bounds
//! the live population of each level `n ∈ [1, |V(q)|-1]` by `N_o` —
//! complete results leave the buffer immediately.
//!
//! The emulator holds level `n` as one flat `Vec<u32>` arena of stride `n`
//! (candidate indices, one per mapped depth) with a head cursor. Under
//! deepest-first a level is only ever filled from empty — by one round of
//! the level below, or by a root injection — and then drained to empty
//! before it is filled again, so a FIFO cursor is all the queue it needs.
//! A partial whose candidate list outlasts the round budget ("the rest
//! candidates will be mapped later") simply stays at the head; since only
//! a head can be cut short, its resume offset is one scalar per level.
//!
//! ## What is resolved when
//!
//! The hardware does one O(1) array probe per task; the emulator gets the same
//! effect by hoisting every lookup to the coarsest scope it is invariant over.
//! Per *partition*: the plan's query vertices become candidate slices and
//! [`CsrAdj`] references, and the last depth is **closing** (keeping its
//! reverse `(u → anchor)` adjacency) when anchored at the newest depth,
//! validated against earlier ones only (one or more), with `C(u)`'s id range
//! apart from every earlier depth's. Per *partial*: its mapped data vertices,
//! the budget-cut window of its anchor list, the validators' neighbour lists —
//! and then two set operations on those sorted lists in place of a walk. The
//! **visited** are the ≤ 15 mapped vertices that occur in the window, each
//! found by a range test and a binary search keyed by vertex id; the
//! **survivors** are the window ∩ every validator's list less the visited, one
//! [`cst::intersect_each`] driven from the shortest list (a validator's list of
//! two or three entries against a window of eighty costs a handful of seeks,
//! not eighty probes), each survivor buffered, collected or merely counted as
//! it is found; the **broken** are the rest of the window — a visited failure
//! takes precedence over an edge failure, as in the Synchronizer. Per
//! *candidate* nothing remains.
//!
//! Per *run*, at a closing level with nothing to emit: siblings (partials one
//! parent pushed, contiguous, ascending in their last index) share the
//! validators' intersection `C`; `x ∈ C` survives in member `s` iff (CST
//! symmetry, [`Cst::validate`]) `s` is in `x`'s reverse list. Two or more with
//! whole windows resolve at once, nothing visited as the id ranges lie apart.
//!
//! `N`, `M` and the memory-touch counters are added per partial (or run)
//! from window lengths: they are the hardware's, which fetches every
//! candidate, evaluates every comparison and emits every `t_n`
//! (Algorithm 5 lines 10-12) with no short-circuiting, however few of them
//! the host touches.

use crate::plan::{KernelPlan, MAX_KERNEL_QUERY};
use cst::{count_run, intersect_each, CsrAdj, Cst};
use fpga_sim::WorkloadCounts;
use graph_core::VertexId;

/// Modelled BRAM bytes of one slot of the partial-results buffer: the
/// fixed-width [`MAX_KERNEL_QUERY`] × `u32` mapping registers plus a level
/// word and a resume-offset word. Sizes δ_S (and through it every partition
/// count and modelled second), so it is a device constant — not the size of
/// whatever the emulator happens to store.
pub const PARTIAL_SLOT_BYTES: usize = 72;

/// What to do with complete embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectMode {
    /// Count only (the benchmark configuration).
    CountOnly,
    /// Keep up to the given number of embeddings.
    Collect(usize),
}

/// Counters and results of one kernel run over one CST partition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelOutput {
    /// Embeddings found.
    pub embeddings: u64,
    /// Collected embeddings (query-vertex indexed), if requested.
    pub collected: Vec<Vec<VertexId>>,
    /// `N` and `M` for the cycle model.
    pub counts: WorkloadCounts,
    /// Rounds executed (outer `while P ≠ ∅` iterations, Algorithm 4).
    pub rounds: u64,
    /// CST reads (adjacency fetches + edge probes) — BRAM or DRAM resident
    /// depending on the variant.
    pub cst_reads: u64,
    /// Buffer reads/writes (`P` traffic).
    pub buffer_reads: u64,
    pub buffer_writes: u64,
    /// Expansions rejected by visited validation.
    pub visited_rejections: u64,
    /// Expansions rejected by edge validation.
    pub edge_rejections: u64,
    /// Peak per-level buffer occupancy.
    pub buffer_high_water: Vec<usize>,
}

/// One matching-order depth `d ≥ 1` of the plan, resolved against a
/// partition: what expanding a level-`d` partial needs.
struct Expansion<'a> {
    /// `C(u)` of the query vertex `u` matched at this depth.
    candidates: &'a [VertexId],
    /// Depth of the anchor and its `(anchor → u)` adjacency: the
    /// Generator's candidate fetch (Algorithm 5 line 5).
    anchor_depth: usize,
    anchor: &'a CsrAdj,
    /// At a closing depth (module docs), the reverse `(u → anchor)` one.
    closing: Option<&'a CsrAdj>,
    /// `(depth, (u_depth → u) adjacency)` per Edge Validator probe.
    validate: Vec<(usize, &'a CsrAdj)>,
}

/// Resolves the run at the head of `cur` (closing depth `step`, reverse
/// adjacency `rev`): the partials sharing the head's first `level - 1`
/// indices while each whole window fits `budget`, if two or more and no
/// shorter than their reverse lists ([`count_run`], which the CPU engine
/// shares); else `Err(members)`. Not inlined: that slows every level's
/// per-partial loop by a few per cent.
#[inline(never)]
fn sibling_run(
    cur: &mut Level,
    level: usize,
    step: &Expansion<'_>,
    rev: &CsrAdj,
    budget: &mut usize,
    out: &mut KernelOutput,
) -> Result<(), usize> {
    let slots = &cur.slots[cur.head * level..];
    let prefix = &slots[..level - 1];
    let (mut members, mut window) = (0, 0);
    for pi in slots.chunks_exact(level) {
        let len = step.anchor.degree(pi[level - 1] as usize) as usize;
        if window == *budget || len > *budget - window || pi[..level - 1] != *prefix {
            break;
        }
        members += 1;
        window += len;
    }
    if members < 2 {
        return Err(members);
    }
    let probes = step.validate.len();
    let mut lists: [&[u32]; MAX_KERNEL_QUERY] = [&[]; MAX_KERNEL_QUERY];
    for (l, &(bd, adj)) in lists.iter_mut().zip(&step.validate) {
        *l = adj.neighbors(prefix[bd] as usize);
    }
    // Siblings leave their parent ascending in their last index.
    let run = &slots[..members * level];
    let last = |m: usize| run[m * level + level - 1];
    let Some(survivors) = count_run(&mut lists[..probes], rev, members, last, window) else {
        return Err(members);
    };
    // With the ids apart, none is visited.
    out.buffer_reads += members as u64;
    out.counts.n += window as u64;
    out.counts.m += (window * probes) as u64;
    out.cst_reads += (members + window * (1 + probes)) as u64;
    out.edge_rejections += (window - survivors) as u64;
    out.embeddings += survivors as u64;
    *budget -= window;
    cur.head += members;
    Ok(())
}

/// One buffer level: partials of `stride` candidate indices each, live
/// from `head` on; `resume` is the head's offset into its anchor list.
#[derive(Default)]
struct Level {
    slots: Vec<u32>,
    head: usize,
    resume: usize,
}

/// Runs the kernel over one CST partition.
///
/// `no` is the per-round expansion budget `N_o`; the partial-results buffer
/// holds `(|V(q)|-1) × N_o` slots in BRAM and never spills (Section VI-B).
///
/// # Panics
/// `no >= 1` is a precondition (a zero budget can never drain the buffer);
/// configurations are checked by [`FastConfig::validate`](crate::FastConfig::validate)
/// before they reach the kernel.
pub fn run_kernel(cst: &Cst, plan: &KernelPlan, no: u32, mode: CollectMode) -> KernelOutput {
    assert!(no >= 1, "N_o must be positive");
    let no = no as usize;
    let qlen = plan.len();
    let mut out = KernelOutput::default();
    if qlen == 0 {
        return out;
    }
    let cap = match mode {
        CollectMode::CountOnly => 0,
        CollectMode::Collect(cap) => cap,
    };
    // Candidate set per depth.
    let candidates: Vec<&[VertexId]> = (0..qlen)
        .map(|d| cst.candidates(plan.depth(d).vertex))
        .collect();
    let root_count = candidates[0].len();
    if qlen == 1 {
        // Degenerate single-vertex query: every root candidate is complete.
        out.embeddings = root_count as u64;
        out.counts.n = root_count as u64;
        out.collected = candidates[0].iter().take(cap).map(|&v| vec![v]).collect();
        return out;
    }

    // expansions[l - 1] extends a level-l partial to depth l.
    let expansions: Vec<Expansion<'_>> = (1..qlen)
        .map(|d| {
            let step = plan.depth(d);
            let u = step.vertex;
            let anchor = plan.depth(step.anchor_depth).vertex;
            // No earlier depth's vertex can lie in a list of `C(u)`'s.
            let (lo, hi) = (candidates[d].first(), candidates[d].last());
            let apart = |e: &&[VertexId]| e.last() < lo || e.first() > hi;
            let closing = d == qlen - 1
                && step.anchor_depth == d - 1
                && !step.validate_depths.is_empty()
                && step.validate_depths.iter().all(|&bd| bd < d - 1)
                && candidates[..d].iter().all(apart);
            Expansion {
                candidates: candidates[d],
                anchor_depth: step.anchor_depth,
                anchor: cst.adjacency(anchor, u),
                closing: closing.then(|| cst.adjacency(u, anchor)),
                validate: step
                    .validate_depths
                    .iter()
                    .map(|&bd| (bd, cst.adjacency(plan.depth(bd).vertex, u)))
                    .collect(),
            }
        })
        .collect();

    // levels[l - 1] holds the level-l partials, l in 1..qlen.
    let mut levels: Vec<Level> = (1..qlen).map(|_| Level::default()).collect();
    out.buffer_high_water = vec![0; qlen - 1];
    let mut root_cursor = 0usize;
    // Deepest level that may be non-empty; 0 once P has drained.
    let mut top = 0usize;

    loop {
        while top > 0 && levels[top - 1].slots.is_empty() {
            top -= 1;
        }
        // --- Root injection: when P drains, map the next N_o root
        //     candidates (Algorithm 4 lines 2-3, sliced to respect the
        //     buffer's per-level bound). ---
        if top == 0 {
            if root_cursor >= root_count {
                break;
            }
            let end = (root_cursor + no).min(root_count);
            levels[0].slots.extend(root_cursor as u32..end as u32);
            let injected = end - root_cursor;
            out.counts.n += injected as u64;
            out.buffer_writes += injected as u64;
            out.buffer_high_water[0] = out.buffer_high_water[0].max(injected);
            root_cursor = end;
            out.rounds += 1;
            top = 1;
            continue;
        }

        // --- One Generator round: expand partials of the deepest level
        //     (they all map the same next query vertex, as required for the
        //     fixed-function candidate fetch). The deeper partials produced
        //     this round wait for the next round. ---
        out.rounds += 1;
        let level = top;
        let step = &expansions[level - 1];
        let probes = step.validate.len();
        let (lower, upper) = levels.split_at_mut(level);
        let cur = &mut lower[level - 1];
        // `None` at the last level: survivors are complete embeddings and
        // stream to DRAM instead of being buffered.
        let mut next = upper.first_mut();
        debug_assert!(next.as_ref().is_none_or(|l| l.slots.is_empty()));
        let mut budget = no;
        // Partials left to the per-partial path before the next run.
        let mut solo = 0usize;

        loop {
            if cur.head * level == cur.slots.len() {
                cur.slots.clear();
                cur.head = 0;
                break;
            }
            if budget == 0 {
                break;
            }
            if let Some(rev) = step.closing {
                if solo > 0 {
                    solo -= 1;
                } else if cur.resume == 0 && out.collected.len() >= cap {
                    match sibling_run(cur, level, step, rev, &mut budget, &mut out) {
                        Ok(()) => continue,
                        Err(members) => solo = members.saturating_sub(1),
                    }
                }
            }
            out.buffer_reads += 1;
            let pi = &cur.slots[cur.head * level..(cur.head + 1) * level];
            let mut mapped = [VertexId::new(0); MAX_KERNEL_QUERY];
            for (m, (&i, c)) in mapped.iter_mut().zip(pi.iter().zip(&candidates)) {
                *m = c[i as usize];
            }
            let mapped = &mapped[..level];
            // Candidate list from the anchor's CST adjacency.
            let list = step.anchor.neighbors(pi[step.anchor_depth] as usize);
            let start = cur.resume;
            let take = (list.len() - start).min(budget);
            budget -= take;
            let window = &list[start..start + take];
            // Intersection operands: each validator's neighbour list, then
            // the window.
            let mut rest: [&[u32]; MAX_KERNEL_QUERY] = [&[]; MAX_KERNEL_QUERY];
            for (r, &(bd, adj)) in rest.iter_mut().zip(&step.validate) {
                *r = adj.neighbors(pi[bd] as usize);
            }
            rest[probes] = window;

            // The hardware's work for these `take` expansions: one list
            // header fetch, then per candidate one word fetch, a full
            // visited comparison tree, and one t_n probe per validator.
            out.counts.n += take as u64;
            out.counts.m += (take * probes) as u64;
            out.cst_reads += 1 + (take * (1 + probes)) as u64;

            // Visited Validator: the mapped data vertices that occur in the
            // window, as candidate indices. `C(u)` ascends by vertex id and
            // the window by index, so the window ascends by vertex id too.
            let id = |&j: &u32| step.candidates[j as usize];
            let mut seen = [0u32; MAX_KERNEL_QUERY];
            let mut visited = 0usize;
            if let (Some(first), Some(last)) = (window.first(), window.last()) {
                let span = id(first)..=id(last);
                for v in mapped.iter().filter(|v| span.contains(v)) {
                    if let Ok(at) = window.binary_search_by_key(v, id) {
                        seen[visited] = window[at];
                        visited += 1;
                    }
                }
            }
            let seen = &seen[..visited];

            // Edge Validator + Synchronizer (Algorithm 8): survivors are the
            // window ∩ every validator's list, less the visited; a visited
            // failure takes precedence over an edge failure, so the broken
            // are whatever remains. With no validator and nowhere to emit
            // to, every unvisited candidate survives unseen.
            let emits = next.is_some() || out.collected.len() < cap;
            let mut survivors = 0usize;
            if probes == 0 && !emits {
                survivors = take - visited;
            } else {
                intersect_each(&mut rest[..=probes], |j| {
                    if seen.contains(&j) {
                        return;
                    }
                    survivors += 1;
                    match &mut next {
                        Some(next) => {
                            next.slots.extend_from_slice(pi);
                            next.slots.push(j);
                        }
                        None if out.collected.len() < cap => {
                            // Query-vertex indexed; the mapped depths
                            // overwrite every slot but the new vertex's own.
                            let mut emb = vec![id(&j); qlen];
                            for (d, &m) in mapped.iter().enumerate() {
                                emb[plan.depth(d).vertex.index()] = m;
                            }
                            out.collected.push(emb);
                        }
                        None => {}
                    }
                });
            }
            out.visited_rejections += visited as u64;
            out.edge_rejections += (take - visited - survivors) as u64;
            if next.is_some() {
                out.buffer_writes += survivors as u64;
            } else {
                out.embeddings += survivors as u64;
            }

            if start + take < list.len() {
                // Round budget exhausted mid-list: the partial stays at the
                // head and resumes from here next round.
                cur.resume = start + take;
                break;
            }
            cur.head += 1;
            cur.resume = 0;
        }

        if let Some(next) = next {
            let occupancy = next.slots.len() / (level + 1);
            debug_assert!(
                occupancy <= no,
                "BRAM buffer overflow at level {}: deepest-first policy violated",
                level + 1
            );
            out.buffer_high_water[level] = out.buffer_high_water[level].max(occupancy);
            top = level + 1;
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst::build_cst;
    use graph_core::generators::random_labelled_graph;
    use graph_core::{BfsTree, Label, MatchingOrder, QueryGraph, QueryVertexId};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    fn build(
        labels: Vec<Label>,
        edges: &[(usize, usize)],
        n: usize,
        p: f64,
        seed: u64,
    ) -> (QueryGraph, graph_core::Graph, BfsTree, MatchingOrder, Cst) {
        let q = QueryGraph::new(labels, edges).unwrap();
        let g = random_labelled_graph(n, p, 3, seed);
        let tree = BfsTree::new(&q, qv(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
        let cst = build_cst(&q, &g, &tree);
        (q, g, tree, order, cst)
    }

    #[test]
    fn partial_slot_bytes_is_pinned() {
        // δ_S, every partition count and every modelled second hang off
        // this value: 16 × u32 mapping + level word + resume-offset word.
        assert_eq!(PARTIAL_SLOT_BYTES, 72);
        assert_eq!(PARTIAL_SLOT_BYTES, (MAX_KERNEL_QUERY + 2) * 4);
    }

    #[test]
    fn kernel_matches_cst_enumeration() {
        for seed in [1, 2, 3, 4, 5] {
            let (q, g, tree, order, cstx) = build(
                vec![l(0), l(1), l(0), l(1)],
                &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
                45,
                0.2,
                seed,
            );
            let expected = matching::vf2_count(&q, &g);
            let plan = KernelPlan::new(&q, &order, &tree).unwrap();
            for no in [1, 2, 7, 64, 4096] {
                let out = run_kernel(&cstx, &plan, no, CollectMode::CountOnly);
                assert_eq!(out.embeddings, expected, "seed {seed} no {no}");
            }
        }
    }

    #[test]
    fn collected_embeddings_are_valid() {
        let (q, g, tree, order, cstx) = build(
            vec![l(0), l(1), l(1)],
            &[(0, 1), (1, 2), (0, 2)],
            40,
            0.25,
            9,
        );
        let plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let out = run_kernel(&cstx, &plan, 16, CollectMode::Collect(1000));
        assert_eq!(out.collected.len() as u64, out.embeddings.min(1000));
        for emb in &out.collected {
            // Injective and edge-respecting.
            for a in q.vertices() {
                for b in q.vertices() {
                    if a != b {
                        assert_ne!(emb[a.index()], emb[b.index()]);
                    }
                }
            }
            for &(a, b) in q.edges() {
                assert!(g.has_edge(emb[a.index()], emb[b.index()]));
            }
        }
    }

    #[test]
    fn buffer_levels_bounded_by_no() {
        let (_, _, tree, order, cstx) = build(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
            60,
            0.15,
            11,
        );
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let plan = KernelPlan::new(&q, &order, &tree).unwrap();
        for no in [1u32, 3, 8, 64] {
            let out = run_kernel(&cstx, &plan, no, CollectMode::CountOnly);
            for (lvl, &hw) in out.buffer_high_water.iter().enumerate() {
                assert!(
                    hw <= no as usize,
                    "level {} high water {hw} exceeds No {no}",
                    lvl + 1
                );
            }
        }
    }

    #[test]
    fn counts_are_no_invariant() {
        // N and M are properties of the search space, not of the round size.
        let (q, _, tree, order, cstx) = build(
            vec![l(0), l(1), l(0)],
            &[(0, 1), (1, 2), (0, 2)],
            50,
            0.2,
            13,
        );
        let plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let base = run_kernel(&cstx, &plan, 1, CollectMode::CountOnly);
        for no in [2u32, 16, 256] {
            let out = run_kernel(&cstx, &plan, no, CollectMode::CountOnly);
            assert_eq!(out.counts, base.counts, "no={no}");
            assert_eq!(out.embeddings, base.embeddings);
        }
        let _ = q;
    }

    #[test]
    fn smaller_no_means_more_rounds() {
        let (_, _, tree, order, cstx) = build(
            vec![l(0), l(1), l(0)],
            &[(0, 1), (1, 2), (0, 2)],
            50,
            0.25,
            17,
        );
        let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let small = run_kernel(&cstx, &plan, 1, CollectMode::CountOnly);
        let large = run_kernel(&cstx, &plan, 1024, CollectMode::CountOnly);
        assert!(small.rounds >= large.rounds);
    }

    #[test]
    fn empty_cst_returns_zero() {
        let q = QueryGraph::new(vec![l(9), l(1)], &[(0, 1)]).unwrap();
        let g = random_labelled_graph(20, 0.2, 2, 23);
        let tree = BfsTree::new(&q, qv(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
        let cstx = build_cst(&q, &g, &tree);
        let plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let out = run_kernel(&cstx, &plan, 64, CollectMode::CountOnly);
        assert_eq!(out.embeddings, 0);
    }

    #[test]
    fn memory_traffic_reported() {
        let (_, _, tree, order, cstx) = build(
            vec![l(0), l(1), l(0)],
            &[(0, 1), (1, 2), (0, 2)],
            50,
            0.25,
            29,
        );
        let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let plan = KernelPlan::new(&q, &order, &tree).unwrap();
        let out = run_kernel(&cstx, &plan, 64, CollectMode::CountOnly);
        if out.counts.n > 0 {
            assert!(out.cst_reads >= out.counts.n);
            assert!(out.buffer_writes > 0);
        }
    }
}
