//! Pins the partition stream of `cst::partition` to a reference that shares
//! no code with its emitter: the per-child keep-mask rebuild the partitioner
//! used before it split a CST in one labelled pass, kept here verbatim as the
//! oracle. Both must emit the same partitions in the same order — every
//! candidate set and every `CsrAdj` equal — with equal `PartitionStats` and
//! the same sequence of CSTs offered to the steal hook, over generated
//! queries × graphs × configurations.

use cst::{
    build_cst, partition_cst_with_steal, shard_at_vertex, CsrAdj, Cst, PartitionConfig,
    PartitionStats,
};
use graph_core::generators::random_labelled_graph;
use graph_core::{BfsTree, Label, MatchingOrder, QueryGraph, QueryVertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod oracle {
    //! `cst::partition` as it stood before the labelled split: `recurse` +
    //! `rebuild_partition` + `rebuild_with_keep` (+ the mask form of
    //! `shard_at_vertex`), unedited.

    use super::*;

    fn fits(cst: &Cst, config: &PartitionConfig) -> bool {
        cst.payload_bytes() <= config.delta_s
            && cst.max_candidate_degree() <= config.delta_d
            && config
                .footprint_budget
                .is_none_or(|budget| cst.size_bytes() <= budget)
    }

    pub fn partition_cst_with_steal(
        cst: &Cst,
        order: &MatchingOrder,
        config: &PartitionConfig,
        steal: &mut dyn FnMut(&Cst) -> bool,
        sink: &mut dyn FnMut(Cst),
    ) -> PartitionStats {
        let mut stats = PartitionStats::default();
        recurse(cst.clone(), order, config, 0, steal, sink, &mut stats);
        stats
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        cst: Cst,
        order: &MatchingOrder,
        config: &PartitionConfig,
        index: usize,
        steal: &mut dyn FnMut(&Cst) -> bool,
        sink: &mut dyn FnMut(Cst),
        stats: &mut PartitionStats,
    ) {
        stats.max_index = stats.max_index.max(index);
        if cst.any_empty() {
            stats.skipped_empty += 1;
            return;
        }
        if fits(&cst, config) {
            stats.partitions += 1;
            sink(cst);
            return;
        }
        if steal(&cst) {
            stats.stolen += 1;
            return;
        }
        if index >= order.len() {
            // Cannot split further; emit as-is (callers surface `forced`).
            stats.partitions += 1;
            stats.forced += 1;
            sink(cst);
            return;
        }
        let u = order.vertex_at(index);
        let count = cst.candidate_count(u);
        if count <= 1 {
            recurse(cst, order, config, index + 1, steal, sink, stats);
            return;
        }

        // k ← max(|CST|/δS, D_CST/δD), clamped to [2, |C(u)|] (Alg. 2 lines 2-3).
        // A footprint budget adds its own ratio so scaffold-heavy CSTs split
        // aggressively enough to reach the BRAM-exact bound.
        let k = match config.fixed_k {
            Some(k) => k as usize,
            None => {
                let by_size = cst.payload_bytes().div_ceil(config.delta_s);
                let by_degree =
                    (cst.max_candidate_degree() as usize).div_ceil(config.delta_d as usize);
                let by_footprint = config
                    .footprint_budget
                    .map_or(0, |budget| cst.size_bytes().div_ceil(budget.max(1)));
                by_size.max(by_degree).max(by_footprint)
            }
        }
        .clamp(2, count);

        // Even split of C(u) into k chunks (Alg. 2 line 4).
        let base = count / k;
        let extra = count % k;
        let mut start = 0usize;
        for part in 0..k {
            let len = base + usize::from(part < extra);
            if len == 0 {
                continue;
            }
            let range = start as u32..(start + len) as u32;
            start += len;
            let sub = rebuild_partition(&cst, order, index, range);
            if sub.any_empty() {
                stats.skipped_empty += 1;
                continue;
            }
            if fits(&sub, config) {
                stats.partitions += 1;
                sink(sub);
            } else if sub.candidate_count(u) <= 1 {
                recurse(sub, order, config, index + 1, steal, sink, stats);
            } else {
                recurse(sub, order, config, index, steal, sink, stats);
            }
        }
    }

    /// Rebuilds a CST keeping, for the order vertex at `index`, only candidates
    /// with indices in `chunk`; vertices preceding `index` keep all candidates,
    /// vertices following it keep candidates reachable through already-rebuilt
    /// neighbours (Alg. 2 lines 5-13).
    fn rebuild_partition(
        cst: &Cst,
        order: &MatchingOrder,
        index: usize,
        chunk: std::ops::Range<u32>,
    ) -> Cst {
        let n = cst.query_vertex_count();
        // keep[u] = boolean per old candidate index.
        let mut keep: Vec<Vec<bool>> = (0..n)
            .map(|u| vec![true; cst.candidate_count(graph_core::QueryVertexId::from_index(u))])
            .collect();
        let split_vertex = order.vertex_at(index);
        for (i, flag) in keep[split_vertex.index()].iter_mut().enumerate() {
            *flag = chunk.contains(&(i as u32));
        }

        // Top-down reachability filter along the order.
        for pos in (index + 1)..order.len() {
            let u = order.vertex_at(pos);
            // Earlier-rebuilt query neighbours: those with order position < pos
            // and >= index (sets before `index` are unchanged ⇒ no constraint).
            let constraining: Vec<graph_core::QueryVertexId> = cst
                .directed_edges()
                .filter(|&(a, _)| a == u)
                .map(|(_, b)| b)
                .filter(|&b| {
                    let p = order.position_of(b);
                    (index..pos).contains(&p)
                })
                .collect();
            if constraining.is_empty() {
                continue;
            }
            let mut flags = std::mem::take(&mut keep[u.index()]);
            for (i, flag) in flags.iter_mut().enumerate() {
                if !*flag {
                    continue;
                }
                let reachable = constraining.iter().all(|&b| {
                    cst.neighbors(u, i as u32, b)
                        .iter()
                        .any(|&t| keep[b.index()][t as usize])
                });
                if !reachable {
                    *flag = false;
                }
            }
            keep[u.index()] = flags;
        }

        rebuild_with_keep(cst, &keep)
    }

    pub fn shard_at_vertex(
        cst: &Cst,
        vertex: graph_core::QueryVertexId,
        range: std::ops::Range<u32>,
    ) -> Cst {
        let n = cst.query_vertex_count();
        let mut keep: Vec<Vec<bool>> = (0..n)
            .map(|u| vec![true; cst.candidate_count(graph_core::QueryVertexId::from_index(u))])
            .collect();
        for (i, flag) in keep[vertex.index()].iter_mut().enumerate() {
            *flag = range.contains(&(i as u32));
        }
        rebuild_with_keep(cst, &keep)
    }

    /// Rebuilds a CST dropping candidates whose `keep` flag is false, remapping
    /// every adjacency list.
    fn rebuild_with_keep(cst: &Cst, keep: &[Vec<bool>]) -> Cst {
        let n = cst.query_vertex_count();
        // Old-index → new-index maps.
        const DROPPED: u32 = u32::MAX;
        let mut remap: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut new_candidates = Vec::with_capacity(n);
        for (u, keep_u) in keep.iter().enumerate() {
            let qu = graph_core::QueryVertexId::from_index(u);
            let mut map = vec![DROPPED; keep_u.len()];
            let mut cands = Vec::new();
            for (i, &kept) in keep_u.iter().enumerate() {
                if kept {
                    map[i] = cands.len() as u32;
                    cands.push(cst.candidate(qu, i as u32));
                }
            }
            remap.push(map);
            new_candidates.push(cands);
        }

        // Rebuild adjacency CSRs restricted to kept candidates.
        let mut pairs = Vec::new();
        for (a, b) in cst.directed_edges() {
            let old = cst.adjacency(a, b);
            let mut offsets = Vec::with_capacity(new_candidates[a.index()].len() + 1);
            let mut targets = Vec::new();
            offsets.push(0u32);
            for (i, &kept) in keep[a.index()].iter().enumerate() {
                if !kept {
                    continue;
                }
                for &t in old.neighbors(i) {
                    let nt = remap[b.index()][t as usize];
                    if nt != DROPPED {
                        targets.push(nt);
                    }
                }
                offsets.push(targets.len() as u32);
            }
            pairs.push(((a, b), CsrAdj { offsets, targets }));
        }

        Cst::from_parts(n, new_candidates, pairs)
    }
}

fn arb_query() -> impl Strategy<Value = QueryGraph> {
    (3usize..=6, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<Label> = (0..n).map(|_| Label::new(rng.gen_range(0..2))).collect();
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
        QueryGraph::new(labels, &edges).expect("connected by construction")
    })
}

/// One run of a partitioner: what it emitted, what it was offered, what it
/// counted.
#[derive(Debug, PartialEq)]
struct Stream {
    parts: Vec<Cst>,
    offered: Vec<Cst>,
    stats: PartitionStats,
}

type Partitioner = fn(
    &Cst,
    &MatchingOrder,
    &PartitionConfig,
    &mut dyn FnMut(&Cst) -> bool,
    &mut dyn FnMut(Cst),
) -> PartitionStats;

/// Runs `partitioner` with a steal hook that takes every `steal_every`-th
/// offer (0 = never steals, but still records what it is offered).
fn stream(
    partitioner: Partitioner,
    cst: &Cst,
    order: &MatchingOrder,
    config: &PartitionConfig,
    steal_every: usize,
) -> Stream {
    let mut parts = Vec::new();
    let mut offered = Vec::new();
    let stats = partitioner(
        cst,
        order,
        config,
        &mut |oversized| {
            offered.push(oversized.clone());
            steal_every != 0 && offered.len() % steal_every == 0
        },
        &mut |part| parts.push(part),
    );
    Stream {
        parts,
        offered,
        stats,
    }
}

/// Field-by-field comparison first, so a failure names the partition and
/// the edge instead of dumping two streams.
fn assert_same_stream(new: &Stream, old: &Stream, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&new.stats, &old.stats, "stats, {}", what);
    prop_assert_eq!(
        new.parts.len(),
        old.parts.len(),
        "partition count, {}",
        what
    );
    prop_assert_eq!(new.offered.len(), old.offered.len(), "offers, {}", what);
    for (which, news, olds) in [
        ("partition", &new.parts, &old.parts),
        ("offer", &new.offered, &old.offered),
    ] {
        for (i, (a, b)) in news.iter().zip(olds).enumerate() {
            assert_same_cst(a, b, &format!("{which} {i}, {what}"))?;
        }
    }
    prop_assert!(new == old, "streams differ, {}", what);
    Ok(())
}

fn assert_same_cst(new: &Cst, old: &Cst, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.query_vertex_count(), old.query_vertex_count());
    for u in (0..old.query_vertex_count()).map(QueryVertexId::from_index) {
        prop_assert_eq!(
            new.candidates(u),
            old.candidates(u),
            "C({:?}) of {}",
            u,
            what
        );
    }
    let edges: Vec<_> = old.directed_edges().collect();
    prop_assert_eq!(new.directed_edges().collect::<Vec<_>>(), edges.clone());
    for (a, b) in edges {
        prop_assert_eq!(
            new.adjacency(a, b),
            old.adjacency(a, b),
            "adjacency ({:?} -> {:?}) of {}",
            a,
            b,
            what
        );
    }
    prop_assert!(new == old, "{} differs", what);
    Ok(())
}

struct Case {
    cst: Cst,
    order: MatchingOrder,
}

fn case(q: &QueryGraph, vertices: usize, density: f64, graph_seed: u64) -> Case {
    let g = random_labelled_graph(vertices, density, 2, graph_seed);
    let tree = BfsTree::new(q, QueryVertexId::new(0));
    let order = MatchingOrder::new(q, tree.bfs_order().to_vec()).expect("bfs");
    let cst = build_cst(q, &g, &tree);
    Case { cst, order }
}

fn check(case: &Case, config: &PartitionConfig, steal_every: usize) -> Result<(), TestCaseError> {
    let what = format!("{config:?} steal_every {steal_every}");
    let new = stream(
        partition_cst_with_steal,
        &case.cst,
        &case.order,
        config,
        steal_every,
    );
    let old = stream(
        oracle::partition_cst_with_steal,
        &case.cst,
        &case.order,
        config,
        steal_every,
    );
    assert_same_stream(&new, &old, &what)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Greedy `k` under δ_S (with and without the footprint budget), with
    /// and without a stealing hook.
    #[test]
    fn greedy_stream_matches_the_rebuild_oracle(
        q in arb_query(),
        graph_seed in 0u64..400,
        size_divisor in 2usize..24,
        footprint in any::<bool>(),
        steal_every in 0usize..4,
    ) {
        let case = case(&q, 48, 0.15, graph_seed);
        let config = PartitionConfig {
            delta_s: case.cst.payload_bytes() / size_divisor + 16,
            delta_d: u32::MAX,
            footprint_budget: footprint.then(|| case.cst.size_bytes() / size_divisor + 64),
            fixed_k: None,
            root_fanout: 1,
        };
        check(&case, &config, steal_every)?;
    }

    /// δ_D-driven splits: the degree ratio picks `k`, and splits go deep
    /// along the order because only short lists fit.
    #[test]
    fn degree_driven_stream_matches_the_rebuild_oracle(
        q in arb_query(),
        graph_seed in 0u64..400,
        degree_divisor in 2u32..8,
        steal_every in 0usize..4,
    ) {
        let case = case(&q, 56, 0.2, graph_seed);
        let d = case.cst.max_candidate_degree();
        prop_assume!(d >= 4);
        let config = PartitionConfig {
            delta_s: usize::MAX,
            delta_d: d / degree_divisor,
            footprint_budget: None,
            fixed_k: None,
            root_fanout: 1,
        };
        check(&case, &config, steal_every)?;
    }

    /// Fixed `k`, including factors past one 64-wide label batch (which
    /// need a split vertex with more than 64 candidates: a denser, larger
    /// graph).
    #[test]
    fn fixed_k_stream_matches_the_rebuild_oracle(
        q in arb_query(),
        graph_seed in 0u64..400,
        k_index in 0usize..5,
        size_divisor in 2usize..40,
        steal_every in 0usize..4,
    ) {
        let k = [2u32, 7, 64, 65, 200][k_index];
        let case = case(&q, 420, 0.02, graph_seed);
        if k > 64 {
            let root = case.order.vertex_at(0);
            prop_assume!(case.cst.candidate_count(root) > k as usize);
        }
        let config = PartitionConfig {
            delta_s: case.cst.payload_bytes() / size_divisor + 16,
            delta_d: u32::MAX,
            footprint_budget: None,
            fixed_k: Some(k),
            root_fanout: 1,
        };
        check(&case, &config, steal_every)?;
    }

    /// Zero and tiny thresholds: every leaf is forced and the recursion
    /// runs the whole order.
    #[test]
    fn degenerate_configs_match_the_rebuild_oracle(
        q in arb_query(),
        graph_seed in 0u64..400,
        steal_every in 0usize..4,
    ) {
        let case = case(&q, 24, 0.2, graph_seed);
        let config = PartitionConfig {
            delta_s: 8,
            delta_d: 1,
            footprint_budget: Some(1),
            fixed_k: None,
            root_fanout: 1,
        };
        check(&case, &config, steal_every)?;
    }

    /// `shard_at_vertex` against the old mask rebuild: any vertex, any
    /// range (empty and out-of-range included).
    #[test]
    fn shard_at_vertex_matches_the_mask_rebuild(
        q in arb_query(),
        graph_seed in 0u64..400,
        vertex in 0usize..6,
        lo in 0u32..40,
        len in 0u32..40,
    ) {
        let case = case(&q, 60, 0.15, graph_seed);
        let vertex = QueryVertexId::from_index(vertex % q.vertex_count());
        let range = lo..lo + len;
        let new = shard_at_vertex(&case.cst, vertex, range.clone());
        let old = oracle::shard_at_vertex(&case.cst, vertex, range.clone());
        assert_same_cst(&new, &old, &format!("shard {vertex:?} {range:?}"))?;
    }
}
