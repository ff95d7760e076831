//! Property-based tests: the emulated kernel is an exact subgraph matcher.
//!
//! For random labelled graphs, random small queries, random matching orders,
//! and random `N_o`, the kernel must produce exactly the embeddings VF2
//! produces, and the BRAM buffer bound of Section VI-B must hold.
//!
//! Every *counter* is checked too: [`reference_kernel`] is the literal
//! Algorithm 4-8 loop — one partial struct per slot, a `VecDeque` per
//! level, every lookup and every counter bump per candidate — written
//! against the public `Cst`/`KernelPlan` accessors only, so it shares no
//! code with `fast::kernel`. All ten `KernelOutput` fields must agree.

use cst::{build_cst, Cst};
use fast::{run_kernel, CollectMode, KernelOutput, KernelPlan};
use graph_core::generators::random_labelled_graph;
use graph_core::{
    all_connected_orders, random_connected_order, BfsTree, Graph, GraphBuilder, Label,
    MatchingOrder, QueryGraph, QueryVertexId, VertexId,
};
use matching::vf2_count;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// A partial result as the hardware registers hold it: candidate indices
/// for the first `mapping.len()` depths plus the resume offset into the
/// anchor's adjacency list.
#[derive(Clone)]
struct Partial {
    mapping: Vec<u32>,
    resume_offset: usize,
}

/// Algorithms 4-8, one step at a time (see the module docs).
///
/// # Mutations a rewrite of `run_kernel` should re-run
///
/// Each of these, made to `fast::kernel`, must fail a test in this file.
/// Counters (the PR 14 rewrite): drop `counts.m`; drop the per-partial
/// `counts.n`; drop the list-header `1 +` in `cst_reads`; drop
/// `buffer_reads`; drop the visited count; drop the broken count; drop
/// `buffer_writes += survivors`; drop the round count; drop the high-water
/// update. (Dropping the `cur.resume` store livelocks: it is control state,
/// not a counter.) Expansion by intersection (the PR 21 rewrite): visited
/// found but not taken out of the survivors; a visited candidate that also
/// fails an edge counted as broken; intersecting with the anchor's whole
/// list instead of the budget-cut window; `cst::seek` returning `len - 1`
/// instead of `len` past the end; the driver chosen but the window left out
/// of the lists it seeks in; the `probes == 0` count arm taken while
/// `Collect` still has room. Sibling runs at a closing last level (each
/// fails `kernel_agrees_with_reference_on_closing_levels`, and so does
/// making the run branch `panic!`): the run extended across a prefix
/// change; a budget-cut member taken into the run; the reverse walk not
/// clipped to the run's first and last member; `buffer_reads` or the
/// `cst_reads` list header counted once per run instead of once per
/// member; the branch taken while `Collect` has room; the branch taken
/// when an earlier depth's id range overlaps `C(u)`.
fn reference_kernel(cst: &Cst, plan: &KernelPlan, no: u32, mode: CollectMode) -> KernelOutput {
    let qlen = plan.len();
    let mut out = KernelOutput::default();
    if qlen == 0 {
        return out;
    }
    let root = plan.root();
    let root_count = cst.candidate_count(root) as u32;
    if qlen == 1 {
        out.embeddings = root_count as u64;
        out.counts.n = root_count as u64;
        if let CollectMode::Collect(cap) = mode {
            for i in 0..root_count.min(cap as u32) {
                out.collected.push(vec![cst.candidate(root, i)]);
            }
        }
        return out;
    }

    // P: one queue per level 1..qlen (index = level - 1).
    let mut levels: Vec<VecDeque<Partial>> = vec![VecDeque::new(); qlen - 1];
    let mut high_water = vec![0usize; qlen - 1];
    let mut root_cursor = 0u32;

    loop {
        if levels.iter().all(VecDeque::is_empty) {
            if root_cursor >= root_count {
                break;
            }
            let end = (root_cursor + no).min(root_count);
            for i in root_cursor..end {
                levels[0].push_back(Partial {
                    mapping: vec![i],
                    resume_offset: 0,
                });
                high_water[0] = high_water[0].max(levels[0].len());
                out.counts.n += 1;
                out.buffer_writes += 1;
            }
            root_cursor = end;
            out.rounds += 1;
            continue;
        }

        out.rounds += 1;
        let mut produced = 0u32;
        let round_level = (1..qlen)
            .rev()
            .find(|&l| !levels[l - 1].is_empty())
            .unwrap();
        let depth_plan = plan.depth(round_level);
        let u = depth_plan.vertex;
        let anchor_u = plan.depth(depth_plan.anchor_depth).vertex;

        while let Some(pi) = levels[round_level - 1].pop_front() {
            out.buffer_reads += 1;
            let list = cst.neighbors(anchor_u, pi.mapping[depth_plan.anchor_depth], u);
            out.cst_reads += 1;
            let start = pi.resume_offset;
            let take = (list.len() - start).min((no - produced) as usize);
            for &j in &list[start..start + take] {
                produced += 1;
                out.counts.n += 1;
                out.cst_reads += 1;
                let v = cst.candidate(u, j);

                let mut visited_ok = true;
                for d in 0..round_level {
                    if cst.candidate(plan.depth(d).vertex, pi.mapping[d]) == v {
                        visited_ok = false;
                    }
                }
                let mut edges_ok = true;
                for &bd in &depth_plan.validate_depths {
                    out.counts.m += 1;
                    out.cst_reads += 1;
                    if !cst.has_candidate_edge(plan.depth(bd).vertex, pi.mapping[bd], u, j) {
                        edges_ok = false;
                    }
                }
                if !visited_ok {
                    out.visited_rejections += 1;
                    continue;
                }
                if !edges_ok {
                    out.edge_rejections += 1;
                    continue;
                }

                let mut po = pi.mapping.clone();
                po.push(j);
                if po.len() == qlen {
                    out.embeddings += 1;
                    if matches!(mode, CollectMode::Collect(cap) if out.collected.len() < cap) {
                        let mut emb = vec![VertexId::new(0); qlen];
                        for (d, &i) in po.iter().enumerate() {
                            let ud = plan.depth(d).vertex;
                            emb[ud.index()] = cst.candidate(ud, i);
                        }
                        out.collected.push(emb);
                    }
                } else {
                    let next = &mut levels[round_level];
                    next.push_back(Partial {
                        mapping: po,
                        resume_offset: 0,
                    });
                    high_water[round_level] = high_water[round_level].max(next.len());
                    out.buffer_writes += 1;
                }
            }

            if start + take < list.len() {
                // Budget ran out mid-list: back to the front of its level.
                let mut rest = pi;
                rest.resume_offset = start + take;
                levels[round_level - 1].push_front(rest);
                break;
            }
            if produced >= no {
                break;
            }
        }
    }

    out.buffer_high_water = high_water;
    out
}

/// `N_o` values of the differential tests: 1 and 2 cut every list short,
/// 7 some, 64 and 512 (the device default) few or none.
const ROUND_BUDGETS: [u32; 5] = [1, 2, 7, 64, 512];

/// A hub (vertex 0, label 0) adjacent to `spokes` label-1 vertices that
/// form a ring, so the triangle and the hub-rooted 4-clique-minus-an-edge
/// both have the hub's long adjacency list at more than one level.
fn wheel(spokes: u32) -> Graph {
    let mut b = GraphBuilder::new();
    let hub = b.add_vertex(Label::new(0));
    let rim = b.add_vertices(spokes as usize, Label::new(1)).raw();
    for i in 0..spokes {
        let spoke = VertexId::new(rim + i);
        b.add_edge(hub, spoke).unwrap();
        b.add_edge(spoke, VertexId::new(rim + (i + 1) % spokes))
            .unwrap();
    }
    b.build()
}

fn bfs_plan(q: &QueryGraph, g: &Graph) -> (Cst, KernelPlan) {
    let tree = BfsTree::new(q, QueryVertexId::new(0));
    let order = MatchingOrder::new(q, tree.bfs_order().to_vec()).expect("bfs order");
    let plan = KernelPlan::new(q, &order, &tree).expect("small query");
    (build_cst(q, g, &tree), plan)
}

/// Both `u1` and `u2` hang off the hub, whose 40-entry list is longer than
/// `N_o` at levels 1 and 2: every round is cut short and resumed.
#[test]
fn hub_longer_than_no_resumes_at_two_levels() {
    let l = Label::new;
    let q = QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (0, 2), (1, 2)]).unwrap();
    let (cst, plan) = bfs_plan(&q, &wheel(40));
    assert_eq!(plan.depth(1).anchor_depth, 0);
    assert_eq!(plan.depth(2).anchor_depth, 0);
    for no in [1, 3, 7, 39] {
        let out = run_kernel(&cst, &plan, no, CollectMode::CountOnly);
        let reference = reference_kernel(&cst, &plan, no, CollectMode::CountOnly);
        assert_eq!(out, reference, "no={no}");
        // Each spoke pairs with its two ring neighbours.
        assert_eq!(out.embeddings, 80);
        // 1 root + 40 level-1 + 40 × 40 level-2 expansions, N_o at a time.
        assert_eq!(out.counts.n, 1 + 40 + 1600);
        // 41 partials are expanded, and each is cut short at least once.
        assert!(
            out.buffer_reads >= 2 * 41,
            "no={no}: {} reads",
            out.buffer_reads
        );
    }
}

/// `Collect(cap)` below the embedding count keeps the first `cap` in
/// generation order and still counts them all.
#[test]
fn collect_cap_below_embedding_count_keeps_the_first() {
    let l = Label::new;
    let q = QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (0, 2), (1, 2)]).unwrap();
    let (cst, plan) = bfs_plan(&q, &wheel(12));
    let all = run_kernel(&cst, &plan, 5, CollectMode::Collect(usize::MAX));
    assert_eq!(all.embeddings, 24);
    assert_eq!(all.collected.len(), 24);
    for cap in [0, 1, 7, 23] {
        let out = run_kernel(&cst, &plan, 5, CollectMode::Collect(cap));
        let reference = reference_kernel(&cst, &plan, 5, CollectMode::Collect(cap));
        assert_eq!(out, reference, "cap={cap}");
        assert_eq!(out.embeddings, 24, "cap={cap}");
        assert_eq!(out.collected, all.collected[..cap], "cap={cap}");
    }
}

/// A mapped vertex inside the window is a *visited* rejection whatever the
/// Edge Validator says about it: not a survivor when it passes every probe,
/// not an edge rejection when it fails one.
///
/// `u3` (label 0, like `u0`) is anchored at `u1` and validated against `u2`.
/// With `u1 = c` the window is `{a, b}` and holds `u0`'s vertex every time;
/// `d` is adjacent to `b` only and `e` to `a` only, so of the four level-3
/// partials two see their visited vertex pass the probe (the other one
/// breaks) and two see it fail (the other one survives).
#[test]
fn visited_takes_precedence_over_either_edge_verdict() {
    let l = Label::new;
    let q = QueryGraph::new(
        vec![l(0), l(1), l(2), l(0)],
        &[(0, 1), (1, 2), (1, 3), (2, 3)],
    )
    .unwrap();
    let mut b = GraphBuilder::new();
    let [a, bb, c, d, e] = [l(0), l(0), l(1), l(2), l(2)].map(|label| b.add_vertex(label));
    for (x, y) in [(a, c), (bb, c), (c, d), (c, e), (bb, d), (a, e)] {
        b.add_edge(x, y).unwrap();
    }
    let g = b.build();
    let (cst, plan) = bfs_plan(&q, &g);
    assert_eq!(plan.depth(3).anchor_depth, 1);
    assert_eq!(plan.depth(3).validate_depths, [2]);
    for no in ROUND_BUDGETS {
        for mode in [CollectMode::CountOnly, CollectMode::Collect(8)] {
            let out = run_kernel(&cst, &plan, no, mode);
            let reference = reference_kernel(&cst, &plan, no, mode);
            assert_eq!(out, reference, "no={no} {mode:?}");
            assert_eq!(out.embeddings, vf2_count(&q, &g));
            assert_eq!(
                (out.embeddings, out.visited_rejections, out.edge_rejections),
                (2, 4, 2),
                "no={no} {mode:?}"
            );
        }
    }
}

/// `hubs` vertices each adjacent to every one of 64-70 vertices of a single
/// label (so a hub's CST list towards that label is long, and two hubs on
/// the same label have near-equal lists), over a sparse random remainder
/// (lists of one to three). Which of window and validator list is the long
/// one then depends on where the order puts the hub.
fn hub_heavy_graph(seed: u64) -> Graph {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let mut by_label: Vec<Vec<VertexId>> = Vec::new();
    for label in 0..3 {
        let first = b.add_vertices(rng.gen_range(64..=70), Label::new(label));
        let end = b.vertex_count() as u32;
        by_label.push((first.raw()..end).map(VertexId::new).collect());
    }
    let n = b.vertex_count() as u32;
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(0.015) {
                b.add_edge(VertexId::new(i), VertexId::new(j)).unwrap();
            }
        }
    }
    for _ in 0..rng.gen_range(6..=9) {
        let hub = b.add_vertex(Label::new(rng.gen_range(0..3)));
        for &v in &by_label[rng.gen_range(0..3)] {
            b.add_edge(hub, v).unwrap();
        }
    }
    b.build()
}

/// A graph whose labels each hold one contiguous block of ids: vertices are
/// added label by label, 12-18 to a label, and each block's first vertex is
/// a hub of the block's own label. Candidates of different labels then
/// never interleave by id — what `run_kernel` needs before it resolves a
/// cycle-closing last level by sibling runs, and what neither
/// [`random_labelled_graph`] (labels drawn per vertex) nor
/// [`hub_heavy_graph`] (hubs of random labels appended after the blocks)
/// ever gives it. Vertices of labels `a` and `b` are joined with
/// probability `p(a, b)`; a label-`a` hub is joined to every vertex of
/// label `a + 1` (mod `labels`) when `p(a, a + 1) > 0`; and for each
/// `(a, b)` in `one_of` every label-`a` vertex gets exactly one label-`b`
/// neighbour (LDBC's reply-of and has-creator links).
fn label_blocked_graph(
    seed: u64,
    labels: u16,
    p: impl Fn(u16, u16) -> f64,
    one_of: &[(u16, u16)],
) -> Graph {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let blocks: Vec<std::ops::Range<u32>> = (0..labels)
        .map(|label| {
            let first = b.add_vertices(rng.gen_range(12..=18), Label::new(label));
            first.raw()..b.vertex_count() as u32
        })
        .collect();
    let label_of = |v: u32| blocks.iter().position(|r| r.contains(&v)).unwrap() as u16;
    let n = b.vertex_count() as u32;
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(p(label_of(i), label_of(j))) {
                b.add_edge(VertexId::new(i), VertexId::new(j)).unwrap();
            }
        }
    }
    for a in 0..labels {
        let next = (a + 1) % labels;
        if p(a, next) > 0.0 {
            let hub = VertexId::new(blocks[a as usize].start);
            for v in blocks[next as usize].clone() {
                b.add_edge(hub, VertexId::new(v)).unwrap();
            }
        }
    }
    for &(a, to) in one_of {
        for v in blocks[a as usize].clone() {
            let w = rng.gen_range(blocks[to as usize].clone());
            b.add_edge(VertexId::new(v), VertexId::new(w)).unwrap();
        }
    }
    b.build()
}

/// Cycle queries on [`label_blocked_graph`]s. Whether the last depth is a
/// closing one (anchored at the newest depth, validated against earlier
/// ones only) depends on the root and the order; the test tries them all.
#[derive(Debug, Clone, Copy)]
enum Cycle {
    /// A 4-cycle of four labels.
    Square,
    /// A 5-cycle of five labels.
    Pentagon,
    /// q1's shape: Person knows Person, one wrote a Post, the other a
    /// Comment replying to it. Every Comment has one Post and one creator,
    /// so a closing Comment's reverse list has one entry.
    ReplyOf,
    /// A 4-cycle over dense label pairs: reverse lists as long as the
    /// windows, validators' lists long too, so the cost test declines
    /// most runs.
    Dense,
    /// A 4-cycle labelled 0, 1, 0, 1: the last vertex shares its block
    /// with an earlier depth's, so the last depth is never closing, and
    /// that depth's vertex lies in the last depth's windows.
    Alternating,
}

impl Cycle {
    const ALL: [Cycle; 5] = [
        Cycle::Square,
        Cycle::Pentagon,
        Cycle::ReplyOf,
        Cycle::Dense,
        Cycle::Alternating,
    ];

    fn instance(self, seed: u64) -> (QueryGraph, Graph) {
        let l = Label::new;
        let ring = |n: usize| (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>();
        let q = match self {
            Cycle::Square | Cycle::Dense => QueryGraph::new(vec![l(0), l(1), l(2), l(3)], &ring(4)),
            Cycle::Pentagon => QueryGraph::new((0..5).map(l).collect(), &ring(5)),
            Cycle::ReplyOf => {
                let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
                QueryGraph::new(vec![l(0), l(0), l(1), l(2)], &edges)
            }
            Cycle::Alternating => QueryGraph::new(vec![l(0), l(1), l(0), l(1)], &ring(4)),
        };
        let distinct = |a: u16, b: u16| if a == b { 0.0 } else { 0.12 };
        let g = match self {
            Cycle::Square => label_blocked_graph(seed, 4, distinct, &[]),
            Cycle::Pentagon => label_blocked_graph(seed, 5, distinct, &[]),
            // Labels: 0 Person (knows), 1 Post, 2 Comment.
            Cycle::ReplyOf => {
                let p = |a: u16, b: u16| match (a.min(b), a.max(b)) {
                    (0, 0) => 0.3,
                    (0, 1) => 0.1,
                    _ => 0.0,
                };
                label_blocked_graph(seed, 3, p, &[(2, 1), (2, 0)])
            }
            Cycle::Dense => {
                let p = |a: u16, b: u16| if a.abs_diff(b) % 2 == 1 { 0.6 } else { 0.0 };
                label_blocked_graph(seed, 4, p, &[])
            }
            Cycle::Alternating => {
                let p = |a: u16, b: u16| if a == b { 0.05 } else { 0.2 };
                label_blocked_graph(seed, 2, p, &[])
            }
        };
        (q.unwrap(), g)
    }
}

/// Strategy: a random connected query of 2-5 vertices over ≤3 labels.
fn arb_query() -> impl Strategy<Value = QueryGraph> {
    arb_query_up_to(5)
}

/// [`arb_query`] with at most `max` vertices.
fn arb_query_up_to(max: usize) -> impl Strategy<Value = QueryGraph> {
    (2usize..=max, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let labels: Vec<Label> = (0..n).map(|_| Label::new(rng.gen_range(0..3))).collect();
        // Random spanning tree + random extra edges keeps it connected.
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((rng.gen_range(0..i), i));
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(0.3) {
                    edges.push((a, b));
                }
            }
        }
        QueryGraph::new(labels, &edges).expect("construction keeps connectivity")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_matches_vf2_on_random_inputs(
        q in arb_query(),
        graph_seed in 0u64..1_000,
        order_seed in 0u64..1_000,
        no in 1u32..64,
    ) {
        let g = random_labelled_graph(30, 0.2, 3, graph_seed);
        let expected = vf2_count(&q, &g);

        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let mut rng = StdRng::seed_from_u64(order_seed);
        let order = random_connected_order(&q, root, &mut rng);

        let cst = build_cst(&q, &g, &tree);
        let plan = KernelPlan::new(&q, &order, &tree).expect("small query");
        let out = run_kernel(&cst, &plan, no, CollectMode::CountOnly);

        prop_assert_eq!(out.embeddings, expected);
        // Section VI-B: no buffer level ever exceeds N_o.
        for (lvl, &hw) in out.buffer_high_water.iter().enumerate() {
            prop_assert!(hw <= no as usize, "level {} high-water {} > No {}", lvl + 1, hw, no);
        }
    }

    #[test]
    fn kernel_agrees_with_reference_on_every_counter(
        q in arb_query(),
        graph_seed in 0u64..1_000,
        order_seed in 0u64..1_000,
        no_index in 0usize..ROUND_BUDGETS.len(),
        cap in proptest::option::of(0usize..40),
    ) {
        let g = random_labelled_graph(30, 0.2, 3, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let mut rng = StdRng::seed_from_u64(order_seed);
        let order = random_connected_order(&q, root, &mut rng);
        let cst = build_cst(&q, &g, &tree);
        let plan = KernelPlan::new(&q, &order, &tree).expect("small query");
        let no = ROUND_BUDGETS[no_index];
        let mode = cap.map_or(CollectMode::CountOnly, CollectMode::Collect);

        let out = run_kernel(&cst, &plan, no, mode);
        let reference = reference_kernel(&cst, &plan, no, mode);
        prop_assert_eq!(out, reference);
    }

    /// The same equality where the lists are long and lopsided: on
    /// [`hub_heavy_graph`]s the window is the short side of the intersection
    /// at some levels and the long side at others, seeks double more than
    /// once, and `N_o` of 1, 2 and 7 cuts windows mid-list.
    #[test]
    fn kernel_agrees_with_reference_on_hub_heavy_graphs(
        q in arb_query_up_to(4),
        graph_seed in 0u64..1_000,
        order_seed in 0u64..1_000,
        no_index in 0usize..ROUND_BUDGETS.len(),
        cap in proptest::option::of(0usize..40),
    ) {
        let g = hub_heavy_graph(graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let mut rng = StdRng::seed_from_u64(order_seed);
        let order = random_connected_order(&q, root, &mut rng);
        let cst = build_cst(&q, &g, &tree);
        let plan = KernelPlan::new(&q, &order, &tree).expect("small query");
        let no = ROUND_BUDGETS[no_index];
        let mode = cap.map_or(CollectMode::CountOnly, CollectMode::Collect);

        let out = run_kernel(&cst, &plan, no, mode);
        let reference = reference_kernel(&cst, &plan, no, mode);
        prop_assert_eq!(out, reference);
    }

    #[test]
    fn kernel_counts_are_order_of_rounds_invariant(
        q in arb_query(),
        graph_seed in 0u64..500,
    ) {
        let g = random_labelled_graph(25, 0.25, 3, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs order");
        let cst = build_cst(&q, &g, &tree);
        let plan = KernelPlan::new(&q, &order, &tree).expect("small query");

        // N and M are search-space properties: independent of N_o.
        let a = run_kernel(&cst, &plan, 1, CollectMode::CountOnly);
        let b = run_kernel(&cst, &plan, 1024, CollectMode::CountOnly);
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.embeddings, b.embeddings);
        prop_assert!(a.rounds >= b.rounds);
    }

    #[test]
    fn collected_embeddings_are_genuine(
        q in arb_query(),
        graph_seed in 0u64..500,
    ) {
        let g = random_labelled_graph(25, 0.25, 3, graph_seed);
        let root = QueryVertexId::new(0);
        let tree = BfsTree::new(&q, root);
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).expect("bfs order");
        let cst = build_cst(&q, &g, &tree);
        let plan = KernelPlan::new(&q, &order, &tree).expect("small query");
        let out = run_kernel(&cst, &plan, 16, CollectMode::Collect(64));

        for emb in &out.collected {
            // Labels match.
            for u in q.vertices() {
                prop_assert_eq!(g.label(emb[u.index()]), q.label(u));
            }
            // Injectivity.
            for a in q.vertices() {
                for b in q.vertices() {
                    if a != b {
                        prop_assert_ne!(emb[a.index()], emb[b.index()]);
                    }
                }
            }
            // Every query edge is a data edge.
            for &(a, b) in q.edges() {
                prop_assert!(g.has_edge(emb[a.index()], emb[b.index()]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same equality on cycle-closing last levels, where `run_kernel`
    /// counts a run of siblings at once from the reverse adjacency: every
    /// [`Cycle`] on its [`label_blocked_graph`] under every root and every
    /// connected order (only some make the last depth a closing one), a
    /// random round budget, and `Collect` with room to the end or with its
    /// cap reached half-way (a run is taken only once nothing is emitted).
    #[test]
    fn kernel_agrees_with_reference_on_closing_levels(
        shape in 0usize..Cycle::ALL.len(),
        graph_seed in 0u64..1_000,
        no_index in 0usize..ROUND_BUDGETS.len(),
        collect in 0usize..3,
    ) {
        let (q, g) = Cycle::ALL[shape].instance(graph_seed);
        let no = ROUND_BUDGETS[no_index];
        for root in q.vertices() {
            let tree = BfsTree::new(&q, root);
            let cst = build_cst(&q, &g, &tree);
            for order in all_connected_orders(&q, root) {
                let plan = KernelPlan::new(&q, &order, &tree).expect("small query");
                let count = reference_kernel(&cst, &plan, no, CollectMode::CountOnly).embeddings;
                let mode = [
                    CollectMode::CountOnly,
                    CollectMode::Collect(count as usize / 2),
                    CollectMode::Collect(count as usize + 1),
                ][collect];

                let out = run_kernel(&cst, &plan, no, mode);
                let reference = reference_kernel(&cst, &plan, no, mode);
                prop_assert_eq!(out, reference, "root {:?} order {:?}", root, order.as_slice());
            }
        }
    }
}
