//! CST partitioning (paper Algorithm 2, Section V-B).
//!
//! The FPGA's BRAM (35 MB on the Alveo U200) cannot hold large CSTs, and its
//! array-partitioned edge-check limits the maximum candidate adjacency list
//! to `Port_max`. The host therefore splits the CST along the matching order:
//! the candidate set of the current order vertex is divided into `k` even
//! chunks, and each chunk induces a smaller CST that keeps, for later order
//! vertices, only candidates that can still reach the chunk. The search
//! spaces of sibling partitions are disjoint (Example 3), so results are
//! never duplicated.
//!
//! The greedy `k = max(|CST|/δ_S, D_CST/δ_D)` is the paper's default; a
//! fixed-`k` mode reproduces the Fig. 8 ablation. A *root fan-out* `S`
//! ([`PartitionConfig::root_fanout`]) raises the first split, at order
//! position 0, to at least `min(S, |C(root)|)` chunks even when the CST
//! fits: root-localised partitions for a device pool to spread, obtained
//! from one build. Deeper splits stay greedy.
//!
//! A split costs one pass over the parent plus the children it emits
//! (DESIGN.md §3): `label` marks every candidate with the set of children
//! that keep it — up to 64 per sweep, one bit each — and `Emitter` writes
//! each child from those labels, reading only the kept sources' adjacency
//! lists and measuring the child as it goes, so no node is scanned again to
//! decide whether it fits or how to split it. A split reads only the
//! backward direction of each query edge (from the later to the earlier
//! vertex in the matching order), so a child that does not fit is kept as
//! that half; a child that fits is emitted whole, its forward lists the
//! transposes of its backward ones. Labels, selections and the scratch
//! buffer are owned by the [`partition_cst_with_steal`] call and reused down
//! the recursion; the root CST is borrowed.

use crate::structure::{CsrAdj, Cst, CstMetrics};
use crate::workload::{self, TreeLists, WorkloadEstimate};
use graph_core::{BfsTree, MatchingOrder, QueryVertexId, VertexId};
use std::borrow::Cow;
use std::ops::Range;

/// Partition thresholds and policy.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// δ_S: maximum CST size in bytes that fits the kernel's BRAM budget.
    pub delta_s: usize,
    /// δ_D: maximum candidate adjacency-list length (`Port_max`).
    pub delta_d: u32,
    /// Hard cap on the *full* in-BRAM footprint of an emitted partition
    /// ([`Cst::size_bytes`]: payload **plus** the CSR offsets scaffold).
    /// δ_S deliberately checks only [`Cst::payload_bytes`] (see there), so
    /// a scaffold-heavy partition could otherwise exceed the physical BRAM
    /// budget by up to the scaffold's share; this post-fit check re-splits
    /// such partitions. `None` disables the check (pure paper behaviour).
    pub footprint_budget: Option<usize>,
    /// `Some(k)` forces a fixed partition factor (Fig. 8); `None` uses the
    /// paper's greedy ratio rule.
    pub fixed_k: Option<u32>,
    /// Root fan-out `S`: the first split, at order position 0, cuts the
    /// root's candidates into `k = max(k, S)` chunks (at most `|C(root)|`),
    /// and happens even when the CST fits, so one build reaches the
    /// devices as up to `S` root-localised children. Only that split fans
    /// out. `1` is Algorithm 2 as published.
    pub root_fanout: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            // Mirrors the kernel defaults in `fpga-sim::FpgaSpec` (35 MB BRAM
            // with headroom for the partial-results buffer).
            delta_s: 16 << 20,
            delta_d: 4096,
            footprint_budget: None,
            fixed_k: None,
            root_fanout: 1,
        }
    }
}

/// Outcome counters of a partition run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Partitions emitted.
    pub partitions: usize,
    /// Partitions emitted despite violating a threshold because no further
    /// split was possible (all order vertices reduced to one candidate).
    pub forced: usize,
    /// Deepest recursion (order index reached).
    pub max_index: usize,
    /// Partitions skipped because a candidate set became empty.
    pub skipped_empty: usize,
    /// Oversized CSTs consumed by the steal hook instead of being split
    /// (FAST-SHARE's partition-cost reduction, paper Section VII-B).
    pub stolen: usize,
}

/// Whether `cst` satisfies the thresholds. δ_S is checked against
/// [`Cst::payload_bytes`] (see there for why the CSR offsets scaffold is
/// excluded from the partitioning metric); the optional
/// [`footprint_budget`](PartitionConfig::footprint_budget) additionally
/// bounds the full scaffold-inclusive footprint, making the check
/// BRAM-exact for scaffold-heavy partitions.
pub fn fits(cst: &Cst, config: &PartitionConfig) -> bool {
    metrics_fit(&cst.metrics(), config)
}

fn metrics_fit(metrics: &CstMetrics, config: &PartitionConfig) -> bool {
    metrics.payload_bytes <= config.delta_s
        && metrics.max_degree <= config.delta_d
        && config
            .footprint_budget
            .is_none_or(|budget| metrics.size_bytes() <= budget)
}

/// Partitions `cst` until every part satisfies `config`, streaming parts into
/// `sink`. Returns statistics.
pub fn partition_cst_into(
    cst: &Cst,
    order: &MatchingOrder,
    config: &PartitionConfig,
    sink: &mut dyn FnMut(Cst),
) -> PartitionStats {
    partition_cst_with_steal(cst, order, config, &mut |_| false, sink)
}

/// Like [`partition_cst_into`], but consults `steal` before splitting an
/// oversized CST; returning `true` consumes it (the caller processes it,
/// e.g. on the CPU, from [`Oversized::to_cst`]) and skips the split. This is
/// FAST-SHARE's optimisation: "we may directly assign it to CPU, reducing
/// the cost of partitioning".
///
/// `cst` must hold both directions of every query edge, mutually
/// consistent ([`Cst::validate`]), as every built CST does: below the root
/// the partitioner keeps one direction and derives the other.
pub fn partition_cst_with_steal(
    cst: &Cst,
    order: &MatchingOrder,
    config: &PartitionConfig,
    steal: &mut dyn FnMut(&Oversized<'_>) -> bool,
    sink: &mut dyn FnMut(Cst),
) -> PartitionStats {
    let mut stats = PartitionStats::default();
    if cst.any_empty() {
        stats.skipped_empty = 1;
        return stats;
    }
    let metrics = cst.metrics();
    let fanout = config.root_fanout.min(cst.candidate_count(order.first()));
    if fanout <= 1 && metrics_fit(&metrics, config) {
        stats.partitions = 1;
        sink(cst.clone());
        return stats;
    }
    let layout = Layout::new(cst, |v| order.position_of(v));
    let root = Node::borrow(cst, &layout);
    let mut splitter = Splitter {
        order,
        config,
        steal,
        sink,
        stats,
        earlier: layout.earlier_neighbours(order),
        layout,
        emitter: Emitter::default(),
        planes: Vec::new(),
    };
    if splitter.visit(&root, metrics, 0, fanout) {
        (splitter.sink)(cst.clone());
    }
    splitter.stats
}

/// Convenience wrapper collecting partitions into a `Vec`.
pub fn partition_cst(
    cst: &Cst,
    order: &MatchingOrder,
    config: &PartitionConfig,
) -> (Vec<Cst>, PartitionStats) {
    let mut out = Vec::new();
    let stats = partition_cst_into(cst, order, config, &mut |p| out.push(p));
    (out, stats)
}

/// Restricts a CST to candidates of `vertex` whose indices fall in `range`,
/// leaving every other candidate set untouched (adjacency into/out of
/// `vertex` is re-filtered). Used by root-candidate work sharding (the
/// parallel baselines and the multi-FPGA extension); unlike
/// [`partition_cst`], no reachability pruning is applied, which is sound but
/// keeps slightly larger partitions.
pub fn shard_at_vertex(cst: &Cst, vertex: QueryVertexId, range: Range<u32>) -> Cst {
    let mut plane: LabelPlane = vec![Vec::new(); cst.query_vertex_count()];
    plane[vertex.index()] = (0..cst.candidate_count(vertex) as u32)
        .map(|i| u64::from(range.contains(&i)))
        .collect();
    // Any ranking picks one direction per edge; vertex ids will do.
    let layout = Layout::new(cst, QueryVertexId::index);
    let whole = Node::borrow(cst, &layout);
    let mut emitter = Emitter::default();
    emitter.scan(&whole, &layout, &plane, 0);
    emitter.build(&whole, &layout)
}

/// A CST that does not fit, offered to [`partition_cst_with_steal`]'s steal
/// hook before it is split. Below the root the partitioner holds such a CST
/// as one direction per query edge, so the handle estimates its workload on
/// that direction and builds the whole CST only for a hook that takes it.
pub struct Oversized<'a> {
    node: &'a Node<'a>,
    layout: &'a Layout,
}

impl Oversized<'_> {
    /// [`estimate_workload`](crate::estimate_workload) of the whole CST,
    /// bit for bit, computed on the direction the partitioner holds: under
    /// the path-based order (tree parents first) each tree edge child →
    /// parent; under other connected orders (`run_fast_with_order`) some
    /// parent → child.
    pub fn estimate_workload(&self, tree: &BfsTree) -> WorkloadEstimate {
        let node = self.node;
        workload::estimate(
            node.candidates.len(),
            |u| node.candidate_count(u),
            tree,
            |u, child| {
                let (edge, from_u) = self.layout.stored_between(u, child);
                if from_u {
                    TreeLists::Down(&node.stored[edge])
                } else {
                    TreeLists::Up(&node.stored[edge])
                }
            },
        )
    }

    /// [`Cst::total_adjacency_entries`] of the whole CST: both directions of
    /// every query edge.
    pub fn total_adjacency_entries(&self) -> usize {
        let stored: usize = self.node.stored.iter().map(|adj| adj.targets.len()).sum();
        2 * stored
    }

    /// The whole CST, both directions of every query edge.
    pub fn to_cst(&self) -> Cst {
        self.node.to_cst(self.layout)
    }
}

/// A query edge `(from, to)`.
type Edge = (QueryVertexId, QueryVertexId);

/// Which direction of each query edge a split reads and writes, and how a
/// whole CST is assembled from those directions.
#[derive(Debug)]
struct Layout {
    /// The directed query edges, in the slot order every emitted CST has.
    directed: Vec<Edge>,
    /// One direction per query edge, from the endpoint ranked later to the
    /// one ranked earlier: under the matching order, the backward edges
    /// `label` and [`Emitter::scan`] read.
    stored: Vec<Edge>,
    /// Per directed edge, the stored edge it runs along and whether it runs
    /// against it.
    slots: Vec<(usize, bool)>,
}

impl Layout {
    fn new(cst: &Cst, rank: impl Fn(QueryVertexId) -> usize) -> Self {
        let directed: Vec<Edge> = cst.directed_edges().collect();
        let stored: Vec<Edge> = directed
            .iter()
            .copied()
            .filter(|&(a, b)| rank(a) > rank(b))
            .collect();
        let mut layout = Layout {
            directed,
            stored,
            slots: Vec::new(),
        };
        layout.slots = layout
            .directed
            .iter()
            .map(|&(a, b)| layout.stored_between(a, b))
            .map(|(edge, along)| (edge, !along))
            .collect();
        layout
    }

    /// The stored edge joining `u` and `w`, and whether it runs `u → w`.
    fn stored_between(&self, u: QueryVertexId, w: QueryVertexId) -> (usize, bool) {
        self.stored
            .iter()
            .position(|&edge| edge == (u, w) || edge == (w, u))
            .map(|edge| (edge, self.stored[edge].0 == u))
            .expect("a CST holds both directions of every query edge")
    }

    /// For each order position, the query neighbours placed before it, with
    /// their positions and the stored edge to them. A split at position
    /// `index` constrains a later vertex through those at `index` or after.
    fn earlier_neighbours(&self, order: &MatchingOrder) -> Vec<Vec<(QueryVertexId, usize, usize)>> {
        let mut earlier = vec![Vec::new(); order.len()];
        for (edge, &(a, b)) in self.stored.iter().enumerate() {
            earlier[order.position_of(a)].push((b, order.position_of(b), edge));
        }
        earlier
    }

    /// The whole CST of `candidates` and the [`stored`](Self::stored)
    /// direction of each query edge: every other direction is the
    /// counting-sort transpose of its stored one, which by CST symmetry is
    /// exactly the list that remapping it from the parent would give.
    /// `counts`, when given, holds each stored edge's entries per target in
    /// turn (the reverse lists' lengths, as [`Emitter::scan`] counts them),
    /// so the transposes do not count them again.
    fn assemble(
        &self,
        candidates: Vec<Vec<VertexId>>,
        mut stored: Vec<CsrAdj>,
        counts: Option<&[u32]>,
    ) -> Cst {
        let mut counted = 0;
        let mut reverse: Vec<CsrAdj> = self
            .stored
            .iter()
            .zip(&stored)
            .map(|(&(_, to), adj)| {
                let target_count = candidates[to.index()].len();
                match counts {
                    Some(counts) => {
                        counted += target_count;
                        adj.transpose_counted(&counts[counted - target_count..counted])
                    }
                    None => adj.transpose(target_count),
                }
            })
            .collect();
        let pairs = self
            .directed
            .iter()
            .zip(&self.slots)
            .map(|(&edge, &(stored_edge, against))| {
                let adj = if against {
                    &mut reverse[stored_edge]
                } else {
                    &mut stored[stored_edge]
                };
                (edge, std::mem::take(adj))
            })
            .collect();
        Cst::from_parts(candidates.len(), candidates, pairs)
    }
}

/// A node of Algorithm 2's recursion as a split reads it: every candidate
/// set and the [`Layout::stored`] direction of every query edge. The root
/// borrows them from the whole CST; a node that does not fit is written as
/// this half and owns it.
#[derive(Debug)]
struct Node<'a> {
    candidates: Vec<Cow<'a, [VertexId]>>,
    stored: Vec<Cow<'a, CsrAdj>>,
}

impl<'a> Node<'a> {
    fn borrow(cst: &'a Cst, layout: &Layout) -> Self {
        Node {
            candidates: (0..cst.query_vertex_count())
                .map(|v| Cow::Borrowed(cst.candidates(QueryVertexId::from_index(v))))
                .collect(),
            stored: layout
                .stored
                .iter()
                .map(|&(a, b)| Cow::Borrowed(cst.adjacency(a, b)))
                .collect(),
        }
    }

    fn candidate_count(&self, v: QueryVertexId) -> usize {
        self.candidates[v.index()].len()
    }

    fn to_cst(&self, layout: &Layout) -> Cst {
        layout.assemble(
            self.candidates.iter().map(|c| c.to_vec()).collect(),
            self.stored.iter().map(|adj| CsrAdj::clone(adj)).collect(),
            None,
        )
    }
}

/// The labels of one split: `plane[v][i]` has bit `c` set iff child `c` of
/// the current batch keeps candidate `i` of query vertex `v`. A vertex the
/// split leaves whole (every child keeps all of its candidates) has an
/// empty vector instead of all-ones words.
type LabelPlane = Vec<Vec<u64>>;

/// Children labelled per sweep: one bit of a label word each.
const BATCH: usize = u64::BITS as usize;

/// The state of one [`partition_cst_with_steal`] call: Algorithm 2's
/// recursion, with everything a split allocates owned here and reused.
struct Splitter<'a> {
    order: &'a MatchingOrder,
    config: &'a PartitionConfig,
    steal: &'a mut dyn FnMut(&Oversized<'_>) -> bool,
    sink: &'a mut dyn FnMut(Cst),
    stats: PartitionStats,
    layout: Layout,
    /// [`Layout::earlier_neighbours`] under the matching order.
    earlier: Vec<Vec<(QueryVertexId, usize, usize)>>,
    emitter: Emitter,
    /// Label planes not in use. A split holds its plane while its children's
    /// subtrees run (siblings are emitted after them), so the stack hands
    /// each recursion depth the plane that depth used last.
    planes: Vec<LabelPlane>,
}

impl Splitter<'_> {
    /// Algorithm 2 for a non-empty `node` that does not fit, from order
    /// position `index`: offers it to the steal hook, then splits it at the
    /// first position from `index` with more than one candidate, re-offering
    /// it at every position it passes. Returns `true` when no position is
    /// left and the caller has to emit `node` itself (counted as `forced`).
    /// `fanout` is the split's lower bound on `k`: the root fan-out for the
    /// whole CST's first split (whose root has that many candidates), 1
    /// below it.
    fn visit(&mut self, node: &Node, metrics: CstMetrics, mut index: usize, fanout: usize) -> bool {
        let (vertex, count) = loop {
            self.stats.max_index = self.stats.max_index.max(index);
            let offer = Oversized {
                node,
                layout: &self.layout,
            };
            if (self.steal)(&offer) {
                self.stats.stolen += 1;
                return false;
            }
            if index >= self.order.len() {
                self.stats.partitions += 1;
                self.stats.forced += 1;
                return true;
            }
            let vertex = self.order.vertex_at(index);
            let count = node.candidate_count(vertex);
            if count > 1 {
                break (vertex, count);
            }
            index += 1;
        };

        // k ← max(|CST|/δS, D_CST/δD), clamped to [2, |C(u)|] (Alg. 2 lines 2-3).
        // A footprint budget adds its own ratio so scaffold-heavy CSTs split
        // aggressively enough to reach the BRAM-exact bound. A zero threshold
        // divides as 1: nothing fits it either way.
        let k = match self.config.fixed_k {
            Some(k) => k as usize,
            None => {
                let by_size = metrics.payload_bytes.div_ceil(self.config.delta_s.max(1));
                let by_degree =
                    (metrics.max_degree as usize).div_ceil(self.config.delta_d.max(1) as usize);
                let by_footprint = self
                    .config
                    .footprint_budget
                    .map_or(0, |budget| metrics.size_bytes().div_ceil(budget.max(1)));
                by_size.max(by_degree).max(by_footprint)
            }
        }
        .max(fanout)
        .clamp(2, count);

        let mut plane = self.planes.pop().unwrap_or_default();
        self.split(node, index, vertex, k, &mut plane);
        self.planes.push(plane);
        false
    }

    /// Splits `C(vertex)` of `node` evenly into `k` chunks (Alg. 2 line 4)
    /// and handles the children in chunk order, [`BATCH`] of them per label
    /// sweep. A child that fits is emitted whole; one that does not is
    /// written as a half [`Node`] and split in turn.
    fn split(
        &mut self,
        node: &Node,
        index: usize,
        vertex: QueryVertexId,
        k: usize,
        plane: &mut LabelPlane,
    ) {
        let count = node.candidate_count(vertex);
        let (base, extra) = (count / k, count % k);
        // The first `extra` chunks are one candidate longer.
        let chunk_start = |chunk: usize| chunk * base + chunk.min(extra);
        for first in (0..k).step_by(BATCH) {
            let width = (k - first).min(BATCH);
            let bounds: Vec<usize> = (first..=first + width).map(chunk_start).collect();
            let alive = label(node, self.order, &self.earlier, index, &bounds, plane);
            for child in 0..width {
                if alive >> child & 1 == 0 {
                    self.stats.skipped_empty += 1;
                    continue;
                }
                let metrics = self.emitter.scan(node, &self.layout, plane, child as u32);
                if metrics_fit(&metrics, self.config) {
                    self.stats.partitions += 1;
                    (self.sink)(self.emitter.build(node, &self.layout));
                    continue;
                }
                let sub = self.emitter.half(node);
                let next = index + usize::from(sub.candidate_count(vertex) <= 1);
                if self.visit(&sub, metrics, next, 1) {
                    (self.sink)(sub.to_cst(&self.layout));
                }
            }
        }
    }
}

/// Labels every candidate of `node` with the children that keep it, for the
/// chunks `bounds[c]..bounds[c + 1]` of the candidates of the vertex at order
/// position `index` (Alg. 2 lines 5-13 for all of them at once). Vertices
/// before `index` are whole; the split vertex's candidates carry their
/// chunk's bit; a later vertex `w` keeps candidate `i` in child `c` iff every
/// neighbour `b` of `w` placed in `index..position(w)` has a candidate
/// adjacent to `i` that `c` keeps:
/// `label[w][i] = AND over b of (OR over t ∈ N(w, i, b) of label[b][t])`,
/// one pass over each such (stored, backward) adjacency, no branch per
/// entry. Returns the children that keep at least one candidate of every
/// vertex.
fn label(
    node: &Node,
    order: &MatchingOrder,
    earlier: &[Vec<(QueryVertexId, usize, usize)>],
    index: usize,
    bounds: &[usize],
    plane: &mut LabelPlane,
) -> u64 {
    plane.resize_with(node.candidates.len(), Vec::new);
    for position in 0..index {
        plane[order.vertex_at(position).index()].clear();
    }
    let vertex = order.vertex_at(index);
    let labels = &mut plane[vertex.index()];
    labels.clear();
    labels.resize(node.candidate_count(vertex), 0);
    for (child, chunk) in bounds.windows(2).enumerate() {
        labels[chunk[0]..chunk[1]].fill(1 << child);
    }

    let mut alive = u64::MAX;
    for (position, earlier) in earlier.iter().enumerate().skip(index + 1) {
        let w = order.vertex_at(position);
        let mut labels = std::mem::take(&mut plane[w.index()]);
        labels.clear();
        let constraining = earlier.iter().filter(|&&(_, p, _)| p >= index);
        for (n, &(b, _, edge)) in constraining.enumerate() {
            if n == 0 {
                labels.resize(node.candidate_count(w), u64::MAX);
            }
            let adj = &node.stored[edge];
            let reach = &plane[b.index()];
            if reach.is_empty() {
                // `b` is whole: any neighbour at all reaches every child.
                for (i, label) in labels.iter_mut().enumerate() {
                    *label &= if adj.degree(i) > 0 { u64::MAX } else { 0 };
                }
            } else {
                for (i, label) in labels.iter_mut().enumerate() {
                    *label &= adj
                        .neighbors(i)
                        .iter()
                        .fold(0, |any, &t| any | reach[t as usize]);
                }
            }
        }
        if !labels.is_empty() {
            alive &= labels.iter().fold(0, |any, &label| any | label);
        }
        plane[w.index()] = labels;
    }
    alive
}

/// Which candidates of one query vertex a child keeps, in the two forms the
/// adjacency pass reads: the kept parent indices in ascending order (the
/// sources whose lists are walked) and a table from parent index to child
/// index (the renumbering of targets).
#[derive(Debug, Default)]
struct Select {
    sources: Vec<u32>,
    /// `renumber[t]` is the child's index of parent candidate `t`, or
    /// [`DROPPED`].
    renumber: Vec<u32>,
    kept: usize,
    /// Every candidate is kept (`sources`/`renumber` are not filled in):
    /// the mapping is the identity and lists are copied, not filtered.
    whole: bool,
}

const DROPPED: u32 = u32::MAX;

impl Select {
    /// Selects the candidates whose label has `bit` set; an empty `labels`
    /// ([`LabelPlane`]) selects all `count`.
    fn derive(&mut self, labels: &[u64], count: usize, bit: u32) {
        self.whole = labels.is_empty();
        if self.whole {
            self.kept = count;
            return;
        }
        self.sources.resize(count, 0);
        self.renumber.resize(count, 0);
        let mut kept = 0usize;
        for (i, (&label, renumber)) in labels.iter().zip(&mut self.renumber).enumerate() {
            let keep = label >> bit & 1 == 1;
            *renumber = if keep { kept as u32 } else { DROPPED };
            self.sources[kept] = i as u32;
            kept += usize::from(keep);
        }
        self.sources.truncate(kept);
        self.kept = kept;
        self.whole = kept == count;
    }

    /// Calls `f` with each kept candidate index, ascending.
    fn for_each_kept(&self, mut f: impl FnMut(usize)) {
        if self.whole {
            (0..self.kept).for_each(f);
        } else {
            self.sources.iter().for_each(|&i| f(i as usize));
        }
    }
}

/// Where [`Emitter::scan`] left one stored edge's CSR in the scratch buffer.
#[derive(Debug, Clone, Copy)]
struct EdgeSpan {
    start: usize,
    offsets: usize,
    targets: usize,
}

/// Writes one child of a labelled node. [`scan`](Self::scan) reads the kept
/// sources' stored lists of the parent once, remaps them into one reused
/// scratch buffer and measures the whole child on the way;
/// [`build`](Self::build) and [`half`](Self::half) copy the result into
/// buffers of exactly its size. Between the two the caller knows whether
/// the child fits — whether it is handed away whole for good or is about
/// to be split again, for which its stored half is all that is read.
#[derive(Debug, Default)]
struct Emitter {
    /// Per query vertex, the selection of the child last scanned.
    select: Vec<Select>,
    /// Per stored edge, its CSR of the child last scanned: `offsets` then
    /// `targets`.
    scratch: Vec<u32>,
    spans: Vec<EdgeSpan>,
    /// Per stored edge in turn, per kept target, its entries: the length of
    /// its list in the reverse direction.
    counts: Vec<u32>,
}

impl Emitter {
    /// Selects child `bit` of `plane` from `parent` and writes the stored
    /// direction of each query edge into the scratch buffer: only the kept
    /// sources' lists are read, each target is stored unconditionally at
    /// the write cursor and the cursor advances by whether the target is
    /// kept. Returns the whole child's sizes: by CST symmetry each reverse
    /// direction has as many entries as its stored one, and its scaffold
    /// follows from the kept counts. The entries per kept target are the
    /// reverse lists' lengths, so `D_CST` is the larger of the longest
    /// stored list and the largest of those counts.
    fn scan(&mut self, parent: &Node, layout: &Layout, plane: &LabelPlane, bit: u32) -> CstMetrics {
        self.select
            .resize_with(parent.candidates.len(), Select::default);
        let mut candidates = 0;
        for ((select, labels), all) in self.select.iter_mut().zip(plane).zip(&parent.candidates) {
            select.derive(labels, all.len(), bit);
            candidates += select.kept;
        }

        // A child's CSRs are no longer than its parent's.
        let room: usize = parent
            .stored
            .iter()
            .map(|adj| adj.offsets.len() + adj.targets.len())
            .sum();
        if self.scratch.len() < room {
            self.scratch = vec![0; room];
        }

        self.spans.clear();
        self.counts.clear();
        let (mut start, mut offsets, mut targets, mut max_degree) = (0, 0, 0, 0);
        for (&(a, b), adj) in layout.stored.iter().zip(&parent.stored) {
            let (source, target) = (&self.select[a.index()], &self.select[b.index()]);
            let (out_offsets, out_targets) = self.scratch[start..].split_at_mut(source.kept + 1);
            let (len, longest) = remap_edge(adj, source, target, out_offsets, out_targets);
            let counted = self.counts.len();
            self.counts.resize(counted + target.kept, 0);
            let counts = &mut self.counts[counted..];
            for &t in &out_targets[..len] {
                counts[t as usize] += 1;
            }
            max_degree = counts.iter().fold(max_degree, |max, &n| max.max(n));
            self.spans.push(EdgeSpan {
                start,
                offsets: source.kept + 1,
                targets: len,
            });
            start += source.kept + 1 + len;
            offsets += source.kept + 1 + target.kept + 1;
            targets += 2 * len;
            max_degree = max_degree.max(longest);
        }
        CstMetrics {
            payload_bytes: candidates * std::mem::size_of::<VertexId>()
                + targets * std::mem::size_of::<u32>(),
            scaffold_bytes: offsets * std::mem::size_of::<u32>(),
            max_degree,
        }
    }

    /// The child last scanned as a whole CST, in vectors of exactly its
    /// size.
    fn build(&self, parent: &Node, layout: &Layout) -> Cst {
        layout.assemble(self.candidates(parent), self.stored(), Some(&self.counts))
    }

    /// The child last scanned as a half node, in vectors of exactly its
    /// size.
    fn half(&self, parent: &Node) -> Node<'static> {
        Node {
            candidates: self
                .candidates(parent)
                .into_iter()
                .map(Cow::Owned)
                .collect(),
            stored: self.stored().into_iter().map(Cow::Owned).collect(),
        }
    }

    fn candidates(&self, parent: &Node) -> Vec<Vec<VertexId>> {
        parent
            .candidates
            .iter()
            .zip(&self.select)
            .map(|(all, select)| {
                if select.whole {
                    all.to_vec()
                } else {
                    select.sources.iter().map(|&i| all[i as usize]).collect()
                }
            })
            .collect()
    }

    fn stored(&self) -> Vec<CsrAdj> {
        self.spans
            .iter()
            .map(|span| {
                let (offsets, targets) = self.scratch[span.start..][..span.offsets + span.targets]
                    .split_at(span.offsets);
                debug_assert_eq!(offsets[span.offsets - 1] as usize, targets.len());
                CsrAdj {
                    offsets: offsets.to_vec(),
                    targets: targets.to_vec(),
                }
            })
            .collect()
    }
}

/// Writes the CSR of one directed edge of a child: for each kept source of
/// `adj`, its list restricted to kept targets and renumbered. `out_offsets`
/// has one slot per kept source plus one; `out_targets` has room for every
/// entry read. Returns the number of targets written and the longest list.
fn remap_edge(
    adj: &CsrAdj,
    source: &Select,
    target: &Select,
    out_offsets: &mut [u32],
    out_targets: &mut [u32],
) -> (usize, u32) {
    if source.whole && target.whole {
        out_offsets.copy_from_slice(&adj.offsets);
        out_targets[..adj.targets.len()].copy_from_slice(&adj.targets);
        return (adj.targets.len(), adj.max_degree());
    }
    let (offsets, targets) = (&adj.offsets[..], &adj.targets[..]);
    let (mut cursor, mut longest, mut slot) = (0usize, 0usize, 0usize);
    out_offsets[0] = 0;
    // Lists are short (a handful of entries), so the per-list work is most
    // of the cost: one loop per case measures ~20 % faster than one loop
    // that picks the case per list.
    if target.whole {
        source.for_each_kept(|i| {
            let list = &targets[offsets[i] as usize..offsets[i + 1] as usize];
            out_targets[cursor..cursor + list.len()].copy_from_slice(list);
            cursor += list.len();
            longest = longest.max(list.len());
            slot += 1;
            out_offsets[slot] = cursor as u32;
        });
    } else {
        let renumber = &target.renumber[..];
        source.for_each_kept(|i| {
            let list = &targets[offsets[i] as usize..offsets[i + 1] as usize];
            let start = cursor;
            for &t in list {
                let renumbered = renumber[t as usize];
                out_targets[cursor] = renumbered;
                cursor += usize::from(renumbered != DROPPED);
            }
            longest = longest.max(cursor - start);
            slot += 1;
            out_offsets[slot] = cursor as u32;
        });
    }
    (cursor, longest as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_cst, build_cst_with_stats, CstOptions};
    use crate::testing::count_matches;
    use graph_core::generators::random_labelled_graph;
    use graph_core::{BfsTree, Label, QueryGraph, QueryVertexId};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    fn setup() -> (QueryGraph, graph_core::Graph, BfsTree, MatchingOrder, Cst) {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let g = random_labelled_graph(80, 0.12, 2, 31);
        let tree = BfsTree::new(&q, qv(0));
        let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
        let cst = build_cst(&q, &g, &tree);
        (q, g, tree, order, cst)
    }

    #[test]
    fn partitions_respect_thresholds() {
        let (_, _, _, order, cst) = setup();
        let config = PartitionConfig {
            delta_s: cst.size_bytes() / 4 + 64,
            delta_d: u32::MAX,
            footprint_budget: None,
            fixed_k: None,
            root_fanout: 1,
        };
        let (parts, stats) = partition_cst(&cst, &order, &config);
        assert!(parts.len() >= 2, "expected a real split");
        assert_eq!(stats.forced, 0);
        for p in &parts {
            assert!(fits(p, &config));
        }
    }

    #[test]
    fn partition_union_preserves_embedding_count() {
        // The core disjointness/completeness property (Example 3): summing
        // embeddings over partitions equals the whole-CST count.
        let (q, _, _, order, cst) = setup();
        let whole = count_matches(&cst, &q, &order);
        for delta_div in [2, 4, 8] {
            let config = PartitionConfig {
                delta_s: cst.size_bytes() / delta_div + 64,
                delta_d: u32::MAX,
                footprint_budget: None,
                fixed_k: None,
                root_fanout: 1,
            };
            let (parts, _) = partition_cst(&cst, &order, &config);
            let sum: u64 = parts.iter().map(|p| count_matches(p, &q, &order)).sum();
            assert_eq!(sum, whole, "delta_div={delta_div}");
        }
    }

    #[test]
    fn fixed_k_union_also_preserves_count() {
        let (q, _, _, order, cst) = setup();
        let whole = count_matches(&cst, &q, &order);
        for k in [2, 4, 6] {
            let config = PartitionConfig {
                delta_s: cst.size_bytes() / 3 + 64,
                delta_d: u32::MAX,
                footprint_budget: None,
                fixed_k: Some(k),
                root_fanout: 1,
            };
            let (parts, _) = partition_cst(&cst, &order, &config);
            let sum: u64 = parts.iter().map(|p| count_matches(p, &q, &order)).sum();
            assert_eq!(sum, whole, "k={k}");
        }
    }

    #[test]
    fn degree_threshold_triggers_partitioning() {
        let (_, _, _, order, cst) = setup();
        let d = cst.max_candidate_degree();
        if d < 2 {
            return; // graph too sparse to exercise this
        }
        let config = PartitionConfig {
            delta_s: usize::MAX,
            delta_d: d / 2,
            footprint_budget: None,
            fixed_k: None,
            root_fanout: 1,
        };
        let (parts, _) = partition_cst(&cst, &order, &config);
        assert!(!parts.is_empty());
        // Either all parts satisfy the degree bound or they were forced.
        for p in &parts {
            assert!(p.max_candidate_degree() <= d);
        }
    }

    #[test]
    fn already_fitting_cst_is_returned_unchanged() {
        let (_, _, _, order, cst) = setup();
        let config = PartitionConfig::default();
        let (parts, stats) = partition_cst(&cst, &order, &config);
        assert_eq!(parts.len(), 1);
        assert_eq!(stats.partitions, 1);
        assert_eq!(parts[0].total_candidates(), cst.total_candidates());
    }

    #[test]
    fn partitions_are_structurally_valid() {
        let (q, _, _, order, cst) = setup();
        let config = PartitionConfig {
            delta_s: cst.size_bytes() / 6 + 64,
            delta_d: u32::MAX,
            footprint_budget: None,
            fixed_k: None,
            root_fanout: 1,
        };
        let (parts, _) = partition_cst(&cst, &order, &config);
        for p in &parts {
            p.validate(&q).unwrap();
        }
    }

    #[test]
    fn greedy_emits_no_more_partitions_than_small_fixed_k() {
        // Fig. 8's observation: the greedy rule needs the fewest partitions.
        let (_, _, _, order, cst) = setup();
        let delta_s = cst.size_bytes() / 4 + 64;
        let mk = |fixed_k| PartitionConfig {
            delta_s,
            delta_d: u32::MAX,
            footprint_budget: None,
            fixed_k,
            root_fanout: 1,
        };
        let (greedy, _) = partition_cst(&cst, &order, &mk(None));
        let (k2, _) = partition_cst(&cst, &order, &mk(Some(2)));
        assert!(
            greedy.len() <= k2.len() + 1,
            "{} vs {}",
            greedy.len(),
            k2.len()
        );
    }

    #[test]
    fn footprint_budget_bounds_full_size() {
        // Against payload-only δ_S, a partition's scaffold-inclusive size
        // can exceed the intended BRAM budget; with `footprint_budget` set,
        // every non-forced partition obeys the exact bound.
        let (q, _, _, order, cst) = setup();
        let budget = cst.size_bytes() / 4 + 96;
        let config = PartitionConfig {
            // δ_S generous on purpose: only the footprint check forces
            // further splits here.
            delta_s: cst.payload_bytes(),
            delta_d: u32::MAX,
            footprint_budget: Some(budget),
            fixed_k: None,
            root_fanout: 1,
        };
        let (parts, stats) = partition_cst(&cst, &order, &config);
        assert!(parts.len() >= 2, "footprint check must trigger a split");
        if stats.forced == 0 {
            for p in &parts {
                assert!(
                    p.size_bytes() <= budget,
                    "footprint {} exceeds budget {budget}",
                    p.size_bytes()
                );
            }
        }
        // Disjointness/completeness is preserved under the extra splits.
        let whole = count_matches(&cst, &q, &order);
        let sum: u64 = parts.iter().map(|p| count_matches(p, &q, &order)).sum();
        assert_eq!(sum, whole);
    }

    /// A zero threshold fits nothing; the partitioner still terminates with
    /// a disjoint, complete set of (forced) partitions instead of dividing
    /// by it.
    fn assert_total_under(config: PartitionConfig) {
        let (q, _, _, order, cst) = setup();
        let whole = count_matches(&cst, &q, &order);
        let (parts, stats) = partition_cst(&cst, &order, &config);
        assert_eq!(stats.partitions, parts.len());
        let sum: u64 = parts.iter().map(|p| count_matches(p, &q, &order)).sum();
        assert_eq!(sum, whole);
        let unfit = parts.iter().filter(|p| !fits(p, &config)).count();
        assert_eq!(unfit, stats.forced);
    }

    #[test]
    fn zero_delta_s_does_not_panic() {
        assert_total_under(PartitionConfig {
            delta_s: 0,
            delta_d: u32::MAX,
            ..PartitionConfig::default()
        });
    }

    #[test]
    fn zero_delta_d_does_not_panic() {
        assert_total_under(PartitionConfig {
            delta_s: usize::MAX,
            delta_d: 0,
            ..PartitionConfig::default()
        });
    }

    /// Embeddings of `q` in `g` by definition: injective, label-preserving
    /// maps keeping every query edge, extended along `order` (whose every
    /// vertex after the first has an earlier neighbour). The same count as
    /// `matching::vf2_count`, which this crate cannot depend on.
    fn count_by_definition(q: &QueryGraph, g: &graph_core::Graph, order: &MatchingOrder) -> u64 {
        fn extend(
            q: &QueryGraph,
            g: &graph_core::Graph,
            order: &MatchingOrder,
            at: usize,
            mapped: &mut [Option<VertexId>],
        ) -> u64 {
            if at == order.len() {
                return 1;
            }
            let u = order.vertex_at(at);
            let anchor = q.neighbors(u).find_map(|w| mapped[w.index()]);
            let pool: Vec<VertexId> = match anchor {
                Some(v) => g.neighbors(v).to_vec(),
                None => g.vertices().collect(),
            };
            let mut total = 0;
            for v in pool {
                let fits = g.label(v) == q.label(u)
                    && !mapped.contains(&Some(v))
                    && q.neighbors(u)
                        .all(|w| mapped[w.index()].is_none_or(|m| g.has_edge(v, m)));
                if fits {
                    mapped[u.index()] = Some(v);
                    total += extend(q, g, order, at + 1, mapped);
                    mapped[u.index()] = None;
                }
            }
            total
        }
        extend(q, g, order, 0, &mut vec![None; q.vertex_count()])
    }

    /// The root fan-out (`PartitionConfig::root_fanout`) on generated
    /// graphs, from every root, for S ∈ {1, 2, 3, 16, 64}:
    ///
    /// * under thresholds that everything fits, the first split still cuts
    ///   `C(root)` into `min(S, |C(root)|)` even chunks, in order, each a
    ///   child's whole root set (a chunk whose child is empty is counted as
    ///   skipped), so the chunks are disjoint and cover `C(root)`;
    /// * under thresholds that force recursion, the stream is the first
    ///   split's children, each partitioned greedily with no fan-out;
    /// * with S = 1 `partition_cst_with_steal` is Algorithm 2 as published,
    ///   bit for bit: a fitting CST whole, otherwise the identity above
    ///   with the greedy first split;
    /// * every stream's embeddings sum to the whole CST's count and to the
    ///   definition's count over `G`.
    ///
    /// Mutations it catches: no fan-out when the CST fits (one partition
    /// instead of the chunks), an off-by-one chunk bound (chunks of the
    /// wrong size or count, or a candidate in no chunk), the fan-out
    /// re-applied below the first split (a child re-split at its root into
    /// S chunks instead of greedily), and a fitting CST split at S = 1.
    #[test]
    fn root_fanout_cuts_the_first_split_only() {
        let queries = [
            QueryGraph::new(
                vec![l(0), l(1), l(0), l(1)],
                &[(0, 1), (1, 2), (2, 3), (3, 0)],
            )
            .unwrap(),
            QueryGraph::new(
                vec![l(0), l(1), l(1), l(0)],
                &[(0, 1), (1, 2), (0, 2), (2, 3)],
            )
            .unwrap(),
        ];
        let collect = |cst: &Cst, order: &MatchingOrder, config: &PartitionConfig| {
            let mut parts = Vec::new();
            let stats = partition_cst_with_steal(cst, order, config, &mut |_| false, &mut |p| {
                parts.push(p)
            });
            (parts, stats)
        };
        let mut fanned_out = 0;
        for (qi, q) in queries.iter().enumerate() {
            for seed in [31, 32] {
                let g = random_labelled_graph(80, 0.12, 2, seed);
                for root in q.vertices() {
                    let tree = BfsTree::new(q, root);
                    let order = MatchingOrder::new(q, tree.bfs_order().to_vec()).unwrap();
                    let cst = build_cst(q, &g, &tree);
                    let whole = count_matches(&cst, q, &order);
                    assert_eq!(
                        whole,
                        count_by_definition(q, &g, &order),
                        "q{qi} seed {seed}"
                    );
                    let roots = cst.candidate_count(root);
                    let loose = PartitionConfig {
                        delta_s: usize::MAX,
                        delta_d: u32::MAX,
                        ..PartitionConfig::default()
                    };
                    let tight = PartitionConfig {
                        delta_s: cst.payload_bytes().div_ceil(8).max(1),
                        ..loose.clone()
                    };
                    let greedy = cst.payload_bytes().div_ceil(tight.delta_s);
                    for fanout in [1, 2, 3, 16, 64] {
                        let case = format!("q{qi} seed {seed} root {root:?} S={fanout}");
                        let with = |config: &PartitionConfig, root_fanout| PartitionConfig {
                            root_fanout,
                            ..config.clone()
                        };
                        for config in [&loose, &tight] {
                            let (parts, _) = collect(&cst, &order, &with(config, fanout));
                            let sum: u64 = parts.iter().map(|p| count_matches(p, q, &order)).sum();
                            assert_eq!(sum, whole, "{case}");
                        }
                        if fanout == 1 {
                            // Algorithm 2 as published: a CST that fits is
                            // emitted whole.
                            let (parts, stats) = collect(&cst, &order, &loose);
                            assert_eq!(stats.partitions, 1, "{case}");
                            assert_eq!(parts, std::slice::from_ref(&cst), "{case}");
                        }
                        if roots < 2 {
                            continue;
                        }
                        if fanout > 1 {
                            // The first split, on a CST that fits: even chunks.
                            let (children, stats) = collect(&cst, &order, &with(&loose, fanout));
                            let k = fanout.min(roots);
                            assert_eq!(stats.partitions + stats.skipped_empty, k, "{case}");
                            let all = cst.candidates(root);
                            let mut chunks = (0..k).map(|c| {
                                let start = |c: usize| c * (roots / k) + c.min(roots % k);
                                &all[start(c)..start(c + 1)]
                            });
                            for child in &children {
                                let own = child.candidates(root);
                                assert!(
                                    chunks.by_ref().any(|chunk| chunk == own),
                                    "{case}: {own:?} is not the next chunk"
                                );
                            }
                            fanned_out += 1;
                        }

                        // Below the first split (`max(greedy k, S)` chunks)
                        // each child splits greedily, with no fan-out; at
                        // S = 1 this is the whole greedy recursion.
                        let first = with(&loose, greedy.max(fanout));
                        let expected: Vec<Cst> = collect(&cst, &order, &first)
                            .0
                            .iter()
                            .flat_map(|child| collect(child, &order, &tight).0)
                            .collect();
                        assert_eq!(
                            collect(&cst, &order, &with(&tight, fanout)).0,
                            expected,
                            "{case}"
                        );
                    }
                }
            }
        }
        assert!(fanned_out > 20, "too few fan-outs exercised: {fanned_out}");
    }

    /// `W_CST` by its definition: each sum gathered from the forward list
    /// `N^u_{u_c}(v)` with `Iterator::sum`.
    fn estimate_by_definition(cst: &Cst, tree: &BfsTree) -> WorkloadEstimate {
        let mut c: Vec<Vec<f64>> = vec![Vec::new(); cst.query_vertex_count()];
        for u in tree.bottom_up_order() {
            let values = (0..cst.candidate_count(u))
                .map(|i| {
                    let mut product = 1.0f64;
                    for &uc in tree.children(u) {
                        let sum: f64 = cst
                            .neighbors(u, i as u32, uc)
                            .iter()
                            .map(|&j| c[uc.index()][j as usize])
                            .sum();
                        product *= sum;
                        if product == 0.0 {
                            break;
                        }
                    }
                    product
                })
                .collect();
            c[u.index()] = values;
        }
        let per_root_candidate = std::mem::take(&mut c[tree.root().index()]);
        WorkloadEstimate {
            total: per_root_candidate.iter().sum(),
            per_root_candidate,
        }
    }

    /// `W_CST` of a node through the direction it stores, and
    /// `estimate_workload` of its whole CST, against the definition: the
    /// same bits, total and per root candidate. Returns how many per-root
    /// values are `-0.0` (a candidate whose list to a tree child is empty),
    /// where only the summation's starting zero decides the sign.
    fn assert_same_estimate(offer: &Oversized, whole: &Cst, tree: &BfsTree, case: &str) -> usize {
        let definition = estimate_by_definition(whole, tree);
        let bits = |w: &WorkloadEstimate| {
            let per_root = w.per_root_candidate.iter().map(|v| v.to_bits());
            (w.total.to_bits(), per_root.collect::<Vec<_>>())
        };
        let stored = offer.estimate_workload(tree);
        assert_eq!(bits(&stored), bits(&definition), "{case}: stored");
        let forward = crate::estimate_workload(whole, tree);
        assert_eq!(bits(&forward), bits(&definition), "{case}: whole");
        assert_eq!(
            offer.total_adjacency_entries(),
            whole.total_adjacency_entries(),
            "{case}"
        );
        definition
            .per_root_candidate
            .iter()
            .filter(|v| **v == 0.0 && v.is_sign_negative())
            .count()
    }

    /// The stored-direction estimate ([`Oversized::estimate_workload`]) and
    /// `estimate_workload` are bit-identical to the definition on generated
    /// CSTs with and without refinement (unrefined sets keep candidates
    /// with empty lists), under every connected order from the tree's root
    /// (some place a tree child before its parent, so that tree edge is
    /// stored parent → child); on every node the partitioner offers; and on
    /// every partition it emits.
    #[test]
    fn stored_direction_estimate_is_bit_identical() {
        let queries = [
            QueryGraph::new(
                vec![l(0), l(1), l(0), l(1)],
                &[(0, 1), (1, 2), (2, 3), (3, 0)],
            )
            .unwrap(),
            QueryGraph::new(
                vec![l(0), l(1), l(1), l(0), l(1)],
                &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
            )
            .unwrap(),
            // A centre whose candidates often lack a leaf-label neighbour:
            // from a leaf root, two tree children with empty lists.
            QueryGraph::new(vec![l(0), l(1), l(3), l(3)], &[(0, 1), (1, 2), (1, 3)]).unwrap(),
        ];
        let (mut offers, mut negative_zeros, mut child_first) = (0, 0, 0);
        for (qi, q) in queries.iter().enumerate() {
            for seed in [31, 32] {
                let labels = q.vertices().map(|v| q.label(v).raw() + 1).max().unwrap();
                let g = random_labelled_graph(80, 0.12, labels, seed);
                for root in q.vertices() {
                    let tree = BfsTree::new(q, root);
                    for order in graph_core::all_connected_orders(q, root) {
                        let parent_first = q.vertices().all(|v| {
                            tree.parent(v)
                                .is_none_or(|p| order.position_of(p) < order.position_of(v))
                        });
                        child_first += usize::from(!parent_first);
                        for options in [CstOptions::default(), CstOptions::minimal()] {
                            let case = format!("q{qi} seed {seed} {order:?} {options:?}");
                            let (cst, _) = build_cst_with_stats(q, &g, &tree, options);
                            if cst.any_empty() {
                                continue;
                            }
                            let check = |whole: &Cst, case: &str| {
                                let layout = Layout::new(whole, |v| order.position_of(v));
                                let node = Node::borrow(whole, &layout);
                                let offer = Oversized {
                                    node: &node,
                                    layout: &layout,
                                };
                                assert_same_estimate(&offer, whole, &tree, case)
                            };
                            negative_zeros += check(&cst, &case);
                            let config = PartitionConfig {
                                delta_s: cst.payload_bytes().div_ceil(8).max(1),
                                delta_d: u32::MAX,
                                footprint_budget: None,
                                fixed_k: None,
                                root_fanout: 1,
                            };
                            let mut parts = Vec::new();
                            partition_cst_with_steal(
                                &cst,
                                &order,
                                &config,
                                &mut |offer| {
                                    offers += 1;
                                    let whole = offer.to_cst();
                                    negative_zeros +=
                                        assert_same_estimate(offer, &whole, &tree, &case);
                                    false
                                },
                                &mut |p| parts.push(p),
                            );
                            for (i, part) in parts.iter().enumerate() {
                                negative_zeros += check(part, &format!("{case} partition {i}"));
                            }
                        }
                    }
                }
            }
        }
        assert!(offers > 20, "too few offers exercised: {offers}");
        assert!(negative_zeros > 0, "no -0.0 estimate exercised");
        assert!(
            child_first > 0,
            "no order stores a tree edge parent → child"
        );
    }
}
