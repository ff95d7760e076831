//! Workload-aware shard planning for the host CST pipeline.
//!
//! The pipeline's original sharding rule (`shard_ranges`) splits the root
//! candidate list into contiguous *equal-count* chunks. EXPERIMENTS.md §13
//! shows what that costs: interior candidates reachable from several shards
//! are rebuilt per shard, and on hub-dominated queries the duplication
//! factor reaches 2.7–4.6× at 16 shards — the host-side mirror of the
//! substream-partitioning observation (how you cut the stream determines
//! both balance and redundancy) and of the paper's Fig. 14 commentary on
//! the root-sharded DAF-8/CECI-8 baselines.
//!
//! This module plans the shard decomposition instead of splitting blindly.
//! There is one planner; its steps are:
//!
//! 1. **Probe** ([`RootProfile::probe`]): one top-down pass of
//!    Algorithm 1 (tree edges, no refinement; the candidate filter is
//!    evaluated once per `(level, data vertex)`, not once per visit)
//!    memoises the candidate space as per-level CSR, computes exact
//!    per-root `W_CST` weights — the planner's
//!    `WorkloadEstimate::per_root_candidate`, available *before* any shard
//!    build — plus a stride-sampled count of the non-tree candidate edges
//!    (where dense queries keep most of their CST entries). The probe
//!    rides with the plan and seeds every shard build.
//! 2. **Two cuts per candidate shard count.** The contiguous equal-count
//!    cut, and — only where that one duplicates noticeably — an
//!    overlap-aware cut: roots re-ordered so that roots sharing their
//!    dominant hub neighbour land in the same shard (hub-clustered order),
//!    boundaries placed by prefix sums over the weights (every shard
//!    within 2× of the mean workload when no weight exceeds the mean; see
//!    `balanced_boundaries`) and each locally refined to the cut with the
//!    smallest shared 1-hop frontier between the adjacent ranges. Both are
//!    scored by the **overlap cost model** ([`estimated_duplication`]): a
//!    per-shard bitmask is OR-propagated down the probed candidate space,
//!    and every refinement-surviving candidate edge counts once per shard
//!    that reaches both endpoints — the modelled total-entries-built over
//!    the sequential build, accurate to a few percent on the benchmark
//!    queries (EXPERIMENTS.md §13). Decompositions of the same roots share
//!    a sweep, each in its own bit field of the mask word. Shard root sets
//!    are arbitrary subsets (the pipeline's soundness argument only needs
//!    them disjoint and complete), so the planner is free to permute.
//! 3. **Shard-count selection**: the less duplicating cut at each
//!    candidate count is scored with the overlapped host model
//!    (`fill + max(build_par − fill, partition)` plus a contention charge
//!    for duplicated build work) using its estimated duplication
//!    ([`ShardPlan::estimated_duplication`]), so flat queries keep the
//!    requested shard count while hub-dominated ones drop to the count that
//!    minimises modelled prepare time.
//!
//! # Determinism
//!
//! A plan is a pure function of `(q, g, tree, CstOptions, requested
//! shards, δ_S hint)`. In particular `REFERENCE_THREADS` is a
//! **constant**, never the pipeline's actual thread count: the shard
//! decomposition — and everything downstream of it — must stay
//! bit-identical for every thread count (see `cst::pipeline` module docs).

use crate::construct::{CstOptions, TopDownSeed};
use crate::filter::CandidateFilter;
use crate::pipeline::{shard_ranges, PipelineOptions};
use graph_core::{BfsTree, Graph, QueryGraph, VertexId};
use std::ops::Range;
use std::sync::Arc;

/// The shard planner. There is one — per-query shard-count selection over
/// contiguous and overlap-aware cuts (module docs) — so this type has
/// nothing to choose; it stays only because the benchmark assigns
/// `fast::FastConfig::shard_planner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlanner {
    /// The one planner ([`plan_shards`]).
    #[default]
    Auto,
}

// Constants of the planner's cost model. All values are deliberately
// thread-count independent (see the module docs on determinism).

/// Reference host parallelism for the score — the paper's 8-core Xeon.
/// **Never** the pipeline's actual thread count.
const REFERENCE_THREADS: f64 = 8.0;

/// Parallel efficiency of the reference host (mirrors
/// `matching::CpuCostModel::parallel_efficiency`).
const PARALLEL_EFFICIENCY: f64 = 0.75;

/// Modelled partition-to-build work ratio ρ: the partition phase that
/// `fill + max(build_par − fill, partition)` overlaps against, in units of
/// the sequential build (calibrated from the `probe` split, where
/// partitioning is 1–2× the build on the larger datasets). This is the
/// *saturated* value — what partition-dominated queries pay — and the
/// fallback when no probe or δ_S hint is available; per query,
/// [`estimated_partition_ratio`] scales it by the partition count the
/// probed candidate mass implies under the δ_S hint.
const PARTITION_BUILD_RATIO: f64 = 1.0;

/// Contention charge κ per unit of *duplicated* build work. Duplicated
/// shard work competes with the overlapped partition/offload consumer for
/// the socket's memory bandwidth, so it is charged near its full serial
/// cost; 0.7 places the chosen shard counts at the measured per-query
/// optima of the DG03 duplication table (EXPERIMENTS.md §13).
const DUPLICATION_CHARGE: f64 = 0.7;

/// Boundary-refinement balance slack: a refined boundary may not push an
/// adjacent shard beyond `slack × mean` planned workload.
const BALANCE_SLACK: f64 = 2.0;

/// The contiguous cut is kept without trying an overlap-aware one when its
/// estimated duplication stays at or below this threshold (flat queries
/// must not pay reordering churn for nothing).
const OVERLAP_FALLBACK: f64 = 1.05;

/// Modelled bytes per CST adjacency entry: the `u32` target plus its share
/// of the CSR offsets scaffold (`Cst::payload_bytes` averages ≈ 5 bytes per
/// entry on the benchmark queries).
const BYTES_PER_ENTRY: f64 = 5.0;

/// Per-query estimate of the partition/build work ratio ρ from the probe:
/// the probed candidate mass ([`RootProfile::entry_mass`]) implies a
/// partition count `P = ⌈mass · bytes / δ_S⌉` under the device's δ_S
/// payload threshold (`delta_s_hint`, bytes per partition), and the
/// greedy partitioner's work grows with the recursion depth `log₂ P` —
/// a CST that fits whole (`P = 1`) pays only the fits-check scan, while one
/// that splits ≥ 16 ways pays the full calibrated `PARTITION_BUILD_RATIO`.
/// Falls back to that calibrated constant when the profile carries no
/// candidate mass or no hint was given.
pub fn estimated_partition_ratio(profile: &RootProfile, delta_s_hint: Option<usize>) -> f64 {
    let Some(delta_s) = delta_s_hint else {
        return PARTITION_BUILD_RATIO;
    };
    if profile.entry_mass <= 0.0 || delta_s == 0 {
        return PARTITION_BUILD_RATIO;
    }
    let bytes = profile.entry_mass * BYTES_PER_ENTRY;
    let partitions = (bytes / delta_s as f64).ceil().max(1.0);
    // Depth factor: 0.2 at P = 1 (one streaming fits-check), saturating at
    // 1 once the split recursion is ≥ 4 levels deep, capped at 1.5 for
    // pathological split counts (the host model's flat 2× entries charge
    // stops growing there too).
    let depth = ((1.0 + partitions.log2()) / 5.0).clamp(0.2, 1.5);
    PARTITION_BUILD_RATIO * depth
}

/// One non-root query vertex's slice of the probed candidate space: the
/// tree-edge adjacency from the parent's candidates to this vertex's, in
/// CSR form over *candidate indices* (discovery order).
#[derive(Debug, Clone, PartialEq)]
struct ProbeLevel {
    /// The query vertex this level belongs to (index into `q`).
    vertex: usize,
    /// Mask index of the parent query vertex's level: 0 = the root level,
    /// else its index into `RootProfile::levels` plus one (BFS order, so the
    /// parent level always precedes this one).
    parent_level: usize,
    /// `offsets[i]..offsets[i+1]` slices `targets` for the parent's `i`-th
    /// candidate.
    offsets: Vec<u32>,
    /// Candidate indices at this level (not sorted — discovery order).
    targets: Vec<u32>,
    /// The candidate data vertices, indexed by candidate index (discovery
    /// order) — the memoised phase-1 sets seeded shard builds restrict
    /// ([`RootProfile::seed_chunks`]).
    candidates: Vec<VertexId>,
}

impl ProbeLevel {
    /// Candidate indices at this level reachable from the parent level's
    /// `pi`-th candidate.
    fn slice(&self, pi: usize) -> &[u32] {
        &self.targets[self.offsets[pi] as usize..self.offsets[pi + 1] as usize]
    }
}

/// The candidate vertices behind mask index `mask`: the roots for 0, else
/// probe level `mask − 1`'s.
fn candidates_at<'a>(
    roots: &'a [VertexId],
    levels: &'a [ProbeLevel],
    mask: usize,
) -> &'a [VertexId] {
    match mask {
        0 => roots,
        m => &levels[m - 1].candidates,
    }
}

/// One non-tree query edge's sampled candidate edges: `(i, j)` pairs of
/// candidate indices at the two endpoint levels, every `stride`-th edge of
/// the scan kept.
#[derive(Debug, Clone, PartialEq)]
struct NonTreeSample {
    /// Mask index of the first endpoint (0 = root, else level index + 1).
    a_mask: usize,
    /// Mask index of the second endpoint.
    b_mask: usize,
    /// Each kept pair stands for this many scanned candidate edges.
    stride: usize,
    pairs: Vec<(u32, u32)>,
}

/// Shard-reachability masks over the probed candidate space — stage 1 of
/// seed derivation ([`RootProfile::seed_masks`]): `chunks[c][level][cand]`
/// carries bit `s − 64·c` for every shard `s` whose roots reach the
/// candidate. One `u64` per candidate per 64-shard chunk.
#[derive(Debug)]
pub struct SeedMasks {
    /// Per 64-shard chunk, per probe level (root level excluded), the
    /// candidate masks.
    chunks: Vec<Vec<Vec<u64>>>,
    /// Shard count the masks were derived for.
    shards: usize,
}

/// Cap on kept pairs per non-tree edge; reaching it halves the sample and
/// doubles the stride (deterministic — no RNG).
const NONTREE_SAMPLE_CAP: usize = 1 << 18;

/// Neighbour-visit budget of one non-tree edge's scan. Candidate sets
/// whose degree sum exceeds it are source-sampled (every k-th candidate),
/// so the probe's non-tree pass stays a bounded fraction of the build the
/// plan is for.
const NONTREE_SCAN_BUDGET: usize = 1 << 20;

/// Per-root probe results: the unrefined tree-edge candidate space (one
/// top-down pass of Algorithm 1, memoised as per-level CSR **with the
/// discovered candidate vertices**, so shard builds can be seeded from it —
/// [`RootProfile::seed_chunks`]), per-root workload weights from the
/// `W_CST` dynamic program over that space, and per-root dominant hubs for
/// clustering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RootProfile {
    /// `W_CST` per root candidate over the probed (unrefined, tree-edge)
    /// candidate space — the planner's incarnation of
    /// `WorkloadEstimate::per_root_candidate`, computable before any shard
    /// build starts.
    pub weights: Vec<f64>,
    /// Non-root levels in BFS order. The first one always hangs off the
    /// root: it is the root's level-1 adjacency (the "CST root adjacency"
    /// the hub and boundary scores read).
    levels: Vec<ProbeLevel>,
    /// Index of the root query vertex.
    root_vertex: usize,
    /// Dominant hub per root: the root's level-1 candidate shared with the
    /// most other roots (ties → smallest candidate index); `None` when the
    /// root reaches nothing.
    hubs: Vec<Option<u32>>,
    /// Modelled CST entries per candidate, per level (`[0]` = the root
    /// level, then in step with `levels`): 0 for a candidate whose DP
    /// subtree count is zero — exactly the candidates one bottom-up
    /// refinement pass removes — else 1 plus its tree-adjacency entries
    /// towards surviving children, mirroring the sequential build the
    /// actual duplication factors divide by. Computed once per probe; every
    /// decomposition the planner scores reads this table.
    entry_weights: Vec<Vec<u32>>,
    /// Sampled non-tree candidate edges. Tree reachability alone misses
    /// the entry mass of dense queries (a clique hanging off the tree
    /// stores most of its CST in non-tree adjacency), so the probe counts
    /// those edges too — stride-sampled with a deterministic cap.
    nontree: Vec<NonTreeSample>,
    /// Neighbour visits of the probe (tree pass plus non-tree scans) — its
    /// work unit for cost accounting (`FastReport::modeled_plan_sec`) and
    /// the unit of `BuildStats::topdown_entries`.
    pub probe_entries: usize,
    /// Candidate-filter evaluations of the tree pass: one per distinct
    /// `(level, data vertex)` pair among the visits — a vertex reached from
    /// many parents is decided on first sight and remembered.
    pub filter_evaluations: usize,
    /// Modelled sequential CST entry mass: refinement-surviving candidates
    /// plus their tree-adjacency entries towards surviving children and the
    /// (stride-weighted) surviving non-tree candidate edges — the same
    /// denominator [`estimated_duplication`] normalises by, available
    /// without a plan. Feeds the per-query ρ estimate
    /// ([`estimated_partition_ratio`]).
    pub entry_mass: f64,
}

impl RootProfile {
    /// Runs the probe: phase 1 of Algorithm 1 (top-down construction, no
    /// refinement, tree edges only), recording per-level candidate
    /// adjacency. Every interior vertex is expanded exactly once — unlike
    /// the shard builds whose duplication this estimates — and every
    /// `(level, data vertex)` pair is put to the candidate filter exactly
    /// once, however many parents reach it
    /// ([`filter_evaluations`](Self::filter_evaluations) ≤
    /// [`probe_entries`](Self::probe_entries)). The cost is one scan of the
    /// tree-edge candidate space, a fraction of the full build (which
    /// additionally refines and materialises adjacency for *all* query
    /// edges in both directions).
    pub fn probe(
        q: &QueryGraph,
        g: &Graph,
        tree: &BfsTree,
        options: CstOptions,
        roots: &[VertexId],
    ) -> RootProfile {
        let root = tree.root();
        // Mask index per query vertex: 0 = root, else probe level + 1.
        let mut level_of = vec![0usize; q.vertex_count()];
        for (li, &u) in tree.bfs_order()[1..].iter().enumerate() {
            level_of[u.index()] = li + 1;
        }
        let mut levels: Vec<ProbeLevel> = Vec::with_capacity(q.vertex_count() - 1);
        let (mut probe_entries, mut filter_evaluations) = (0usize, 0usize);
        let mut scratch = Vec::new();

        // `slot` maps data vertex → its state at the level currently being
        // built: unseen, rejected, or its candidate index. The filter runs
        // on first sight only; both kinds of decision are reset to unseen
        // once the level is done.
        const UNSEEN: u32 = u32::MAX;
        const REJECTED: u32 = u32::MAX - 1;
        let mut slot = vec![UNSEEN; g.vertex_count()];
        let mut rejected: Vec<VertexId> = Vec::new();

        for &u in &tree.bfs_order()[1..] {
            let parent = tree.parent(u).expect("non-root has a parent");
            let parent_level = level_of[parent.index()];
            let parents = candidates_at(roots, &levels, parent_level);
            let filter = CandidateFilter::new(q, u);
            let mut offsets = Vec::with_capacity(parents.len() + 1);
            let mut targets = Vec::new();
            let mut discovered: Vec<VertexId> = Vec::new();
            offsets.push(0);
            for &vp in parents {
                for &w in g.neighbors(vp) {
                    probe_entries += 1;
                    let idx = match slot[w.index()] {
                        REJECTED => continue,
                        UNSEEN => {
                            filter_evaluations += 1;
                            let passes = if options.use_nlf {
                                filter.passes(g, w, &mut scratch)
                            } else {
                                filter.passes_basic(g, w)
                            };
                            if !passes {
                                slot[w.index()] = REJECTED;
                                rejected.push(w);
                                continue;
                            }
                            let idx = discovered.len() as u32;
                            slot[w.index()] = idx;
                            discovered.push(w);
                            idx
                        }
                        idx => idx,
                    };
                    targets.push(idx);
                }
                offsets.push(targets.len() as u32);
            }
            for w in discovered.iter().chain(&rejected) {
                slot[w.index()] = UNSEEN;
            }
            rejected.clear();
            levels.push(ProbeLevel {
                vertex: u.index(),
                parent_level,
                offsets,
                targets,
                candidates: discovered,
            });
        }

        // Sample the non-tree candidate edges: for every non-tree query
        // edge, scan one endpoint's candidates against the other's
        // membership, keeping every `stride`-th hit (stride doubles when
        // the cap is reached — deterministic). This is a counting scan of
        // the adjacency the build's phase 3 will materialise per shard;
        // dense queries keep most of their CST entries here.
        let candidates_at = |mask: usize| candidates_at(roots, &levels, mask);
        let mut nontree = Vec::new();
        for &(a, b) in q.edges() {
            if tree.is_tree_edge(a, b) {
                continue;
            }
            let (ma, mb) = (level_of[a.index()], level_of[b.index()]);
            // Scan the smaller candidate side.
            let (a_mask, b_mask) = if candidates_at(ma).len() <= candidates_at(mb).len() {
                (ma, mb)
            } else {
                (mb, ma)
            };
            let (sources, members) = (candidates_at(a_mask), candidates_at(b_mask));
            for (wi, &x) in members.iter().enumerate() {
                slot[x.index()] = wi as u32;
            }
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            // Source-sample when the scan would blow the budget: every
            // `source_stride`-th source is scanned, each kept pair standing
            // for `source_stride` sources' worth of edges.
            let deg_sum: usize = sources.iter().map(|&v| g.degree(v) as usize).sum();
            let source_stride = deg_sum.div_ceil(NONTREE_SCAN_BUDGET).max(1);
            let mut hit_stride = 1usize;
            let mut seen = 0usize;
            for (ui, &v) in sources.iter().enumerate().step_by(source_stride) {
                for &x in g.neighbors(v) {
                    probe_entries += 1;
                    let wi = slot[x.index()];
                    if wi == UNSEEN {
                        continue;
                    }
                    if seen.is_multiple_of(hit_stride) {
                        if pairs.len() == NONTREE_SAMPLE_CAP {
                            // Halve the sample, double the stride.
                            let mut keep = 0usize;
                            for i in (0..pairs.len()).step_by(2) {
                                pairs[keep] = pairs[i];
                                keep += 1;
                            }
                            pairs.truncate(keep);
                            hit_stride *= 2;
                        }
                        if seen.is_multiple_of(hit_stride) {
                            pairs.push((ui as u32, wi));
                        }
                    }
                    seen += 1;
                }
            }
            for &x in members {
                slot[x.index()] = UNSEEN;
            }
            nontree.push(NonTreeSample {
                a_mask,
                b_mask,
                stride: source_stride * hit_stride,
                pairs,
            });
        }

        let mut profile = RootProfile {
            levels,
            root_vertex: root.index(),
            nontree,
            probe_entries,
            filter_evaluations,
            ..RootProfile::from_weights(vec![1.0; roots.len()])
        };
        profile.compute_weights();
        profile.compute_hubs();
        profile
    }

    /// Bottom-up `W_CST` dynamic program over the probed levels:
    /// `c_u(v) = Π_{children} Σ_{targets} c_child`, roots last. A zero DP
    /// value is exactly "no support under some child" — what one bottom-up
    /// refinement pass removes — so refinement survival falls out for free,
    /// and with it the per-candidate entry weights and their total, the
    /// modelled sequential entry mass.
    fn compute_weights(&mut self) {
        let mut c: Vec<Vec<f64>> = Vec::with_capacity(self.levels.len() + 1);
        c.push(std::mem::take(&mut self.weights));
        c.extend(self.levels.iter().map(|l| vec![1.0; l.candidates.len()]));
        // Levels are in BFS order, so reverse order is bottom-up. Each
        // level folds its DP values into its parent's product.
        for (li, level) in self.levels.iter().enumerate().rev() {
            let (upper, lower) = c.split_at_mut(li + 1);
            let child_c = &lower[0];
            for (pi, v) in upper[level.parent_level].iter_mut().enumerate() {
                let sum: f64 = level.slice(pi).iter().map(|&t| child_c[t as usize]).sum();
                *v *= sum;
            }
        }
        // Entry weights, top-down: a survivor counts itself, then every
        // child level adds the surviving targets of its slice.
        self.weights = c.remove(0);
        let survivors = |values: &[f64]| values.iter().map(|&v| u32::from(v > 0.0)).collect();
        let mut entries: Vec<Vec<u32>> = vec![survivors(&self.weights)];
        entries.extend(c.into_iter().map(|values| survivors(&values)));
        for (li, level) in self.levels.iter().enumerate() {
            let (upper, lower) = entries.split_at_mut(li + 1);
            let child = &lower[0];
            for (pi, e) in upper[level.parent_level].iter_mut().enumerate() {
                if *e > 0 {
                    let live = level.slice(pi).iter().filter(|&&t| child[t as usize] > 0);
                    *e += live.count() as u32;
                }
            }
        }
        let mut mass: u64 = entries.iter().flatten().map(|&e| u64::from(e)).sum();
        for sample in &self.nontree {
            let (ea, eb) = (&entries[sample.a_mask], &entries[sample.b_mask]);
            let live = sample
                .pairs
                .iter()
                .filter(|&&(i, j)| ea[i as usize] > 0 && eb[j as usize] > 0);
            mass += (live.count() * sample.stride) as u64;
        }
        self.entry_mass = if self.has_levels() { mass as f64 } else { 0.0 };
        self.entry_weights = entries;
    }

    /// Dominant hub per root: the level-1 candidate shared with the most
    /// roots (by in-degree over the root adjacency), ties → smallest
    /// index. Roots sharing their dominant hub are the ones whose shard
    /// separation duplicates that hub's whole subtree.
    fn compute_hubs(&mut self) {
        let Some(level1) = self.levels.first() else {
            return;
        };
        let mut indeg = vec![0u32; level1.candidates.len()];
        for &t in &level1.targets {
            indeg[t as usize] += 1;
        }
        for (i, hub) in self.hubs.iter_mut().enumerate() {
            *hub = level1.slice(i).iter().copied().max_by(|&a, &b| {
                indeg[a as usize]
                    .cmp(&indeg[b as usize])
                    .then_with(|| b.cmp(&a)) // ties → smallest index wins
            });
        }
    }

    /// A profile carrying only workload weights (no candidate-space
    /// information) — what planning from an exact
    /// `WorkloadEstimate::per_root_candidate` vector looks like. Overlap
    /// estimates degrade to 1.0.
    pub fn from_weights(weights: Vec<f64>) -> RootProfile {
        RootProfile {
            hubs: vec![None; weights.len()],
            weights,
            ..RootProfile::default()
        }
    }

    /// OR-propagates per-root masks down the probed tree-edge CSR: a
    /// candidate carries every bit some candidate parent of it carries.
    /// Returns the masks per level, root level first (BFS order, so a
    /// level's parent masks are complete when it is reached).
    fn propagate(&self, root_masks: Vec<u64>) -> Vec<Vec<u64>> {
        let mut masks = Vec::with_capacity(self.levels.len() + 1);
        masks.push(root_masks);
        for level in &self.levels {
            let mut mine = vec![0u64; level.candidates.len()];
            for (pi, &m) in masks[level.parent_level].iter().enumerate() {
                if m != 0 {
                    for &t in level.slice(pi) {
                        mine[t as usize] |= m;
                    }
                }
            }
            masks.push(mine);
        }
        masks
    }

    /// Stage 1 of seed derivation: shard-reachability masks over the
    /// memoised candidate space. Shard masks are OR-propagated down the
    /// probed tree-edge CSR (one integer sweep per 64 shards — no graph
    /// access, no filter evaluations): shard `s` reaches a candidate iff
    /// some candidate parent of it carries bit `s`. The masks are shared
    /// by every shard's [`seed_shard`](Self::seed_shard) extraction — one
    /// `u64` per candidate per 64-shard chunk, far smaller than
    /// materialising all shards' candidate sets upfront.
    ///
    /// Returns `None` when the profile carries no candidate space
    /// (weights-only profiles) or was probed over a different root list —
    /// the caller must fall back to cold builds.
    pub fn seed_masks(&self, plan: &ShardPlan, roots: &[VertexId]) -> Option<SeedMasks> {
        if !self.has_levels()
            || self.weights.len() != roots.len()
            || plan.order.len() != roots.len()
        {
            return None;
        }
        let shards = plan.shard_count();
        // One 64-wide mask sweep per chunk of shards (no saturation — every
        // shard gets its own bit, unlike the duplication estimate).
        let mut chunks = Vec::with_capacity(shards.div_ceil(64));
        for base in (0..shards).step_by(64) {
            let width = (shards - base).min(64);
            let mut root_masks = vec![0u64; roots.len()];
            for s in base..base + width {
                let bit = 1u64 << (s - base);
                for &i in &plan.order[plan.ranges[s].clone()] {
                    root_masks[i as usize] |= bit;
                }
            }
            let mut masks = self.propagate(root_masks);
            // Drop the root-level masks: extraction never reads them (the
            // root level of a seed is the shard's own chunk).
            masks.remove(0);
            chunks.push(masks);
        }
        Some(SeedMasks { chunks, shards })
    }

    /// Stage 2 of seed derivation: extracts shard `s`'s phase-1 candidate
    /// sets from the propagated `masks`. Each level's reached candidates
    /// are **exactly** the set the shard's own top-down pass would
    /// discover, because every shard parent candidate is a member of the
    /// probed space with the identical (filtered) target list. The
    /// resulting [`TopDownSeed`] feeds
    /// [`crate::construct::build_cst_seeded`]; seeded builds are
    /// bit-identical to cold ones (`tests/prop_seeded_build.rs`). Note the
    /// probe's stride-sampled non-tree edges play no part here: seeds
    /// carry only the tree-edge candidate *sets*, and the build
    /// re-materialises every adjacency list from the graph.
    ///
    /// `chunk` is the shard's sorted root chunk (`ShardPlan::chunk_roots`);
    /// runs on whichever thread builds the shard, so extraction
    /// parallelises with the builds.
    pub fn seed_shard(&self, masks: &SeedMasks, chunk: Vec<VertexId>, s: usize) -> TopDownSeed {
        assert!(s < masks.shards, "shard index within the planned count");
        let n = self.levels.len() + 1; // the BFS tree spans every query vertex
        let mut seed = TopDownSeed {
            candidates: vec![Vec::new(); n],
        };
        seed.candidates[self.root_vertex] = chunk;
        let level_masks = &masks.chunks[s / 64];
        let bit = 1u64 << (s % 64);
        for (li, level) in self.levels.iter().enumerate() {
            let mut cands: Vec<VertexId> = level
                .candidates
                .iter()
                .zip(&level_masks[li])
                .filter(|&(_, &m)| m & bit != 0)
                .map(|(&v, _)| v)
                .collect();
            // Discovery order → the sorted order the top-down pass emits
            // (candidate vertices are distinct by construction).
            cands.sort_unstable();
            seed.candidates[level.vertex] = cands;
        }
        seed
    }

    /// Derives every shard's phase-1 candidate sets at once —
    /// [`seed_masks`](Self::seed_masks) + [`seed_shard`](Self::seed_shard)
    /// per shard. The pipeline itself extracts lazily per shard (bounding
    /// peak memory to the in-flight shards); this convenience form backs
    /// the tests.
    pub fn seed_chunks(&self, plan: &ShardPlan, roots: &[VertexId]) -> Option<Vec<TopDownSeed>> {
        let masks = self.seed_masks(plan, roots)?;
        Some(
            (0..plan.shard_count())
                .map(|s| self.seed_shard(&masks, plan.chunk_roots(roots, s), s))
                .collect(),
        )
    }

    /// Drops the planner-only payloads — non-tree edge samples (up to
    /// 2¹⁸ pairs per non-tree query edge), dominant hubs, entry weights
    /// — keeping exactly what seed derivation reads: the
    /// per-level candidate CSR (with candidate vertices) and the root
    /// weights (whose length gates [`seed_masks`](Self::seed_masks)).
    /// Applied before the probe is attached to a [`ShardPlan`], so a plan
    /// cache pins only the seed-relevant data.
    fn into_seed_profile(mut self) -> RootProfile {
        self.nontree = Vec::new();
        self.hubs = Vec::new();
        self.entry_weights = Vec::new();
        self
    }

    /// Whether the profile carries candidate-space information.
    fn has_levels(&self) -> bool {
        !self.levels.is_empty()
    }
}

/// A planned shard decomposition of the root candidate list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardPlan {
    /// Root indices (into the sorted root candidate list) in assignment
    /// order; shard `s` owns `order[ranges[s]]`. Identity for contiguous
    /// cuts.
    pub order: Vec<u32>,
    /// Shard boundaries over `order`.
    pub ranges: Vec<Range<usize>>,
    /// Planned workload per shard (sums of the probed weights; root counts
    /// when no weights were available).
    pub shard_weights: Vec<f64>,
    /// Estimated duplication of this decomposition
    /// ([`estimated_duplication`]): modelled CST entries built across all
    /// shards over the sequential build's — every probed level and the
    /// sampled non-tree edges, each entry counted once per shard reaching
    /// it (1.0 for one shard or when no candidate space was probed).
    pub estimated_duplication: f64,
    /// The partition/build ratio ρ the planner's score used
    /// ([`estimated_partition_ratio`]): per-query from the probed candidate
    /// mass when a δ_S hint was available, otherwise the calibrated
    /// constant (1.0).
    pub partition_ratio: f64,
    /// Probe work behind the plan (0 for contiguous plans).
    pub probe_entries: usize,
    /// Fingerprint of the planning inputs ([`crate::cache::plan_provenance`]):
    /// set by [`plan_pipeline_shards`], 0 for hand-built plans. A supplied
    /// plan is only trusted by `for_each_shard_cst_planned` when this
    /// matches the freshly derived inputs.
    pub provenance: u64,
    /// The probe behind the plan, when one ran: the memoised per-level
    /// candidate space shard builds are seeded from
    /// ([`RootProfile::seed_chunks`]). Rides with the plan through the
    /// pipeline and any plan cache, so a warm-cache session skips the
    /// global top-down scan entirely. `None` for single-shard plans (no
    /// probe) and hand-built plans; covered by the same
    /// [`provenance`](Self::provenance) trust check as the boundaries —
    /// a foreign probe is discarded with its plan, never seeded from.
    pub probe: Option<Arc<RootProfile>>,
}

impl ShardPlan {
    /// The blind equal-count plan over `count` roots — the pipeline's
    /// original rule, with no probe cost.
    pub fn contiguous(count: usize, shards: usize) -> ShardPlan {
        let ranges = shard_ranges(count, shards);
        let shard_weights = ranges.iter().map(|r| r.len() as f64).collect();
        ShardPlan {
            order: (0..count as u32).collect(),
            ranges,
            shard_weights,
            estimated_duplication: 1.0,
            partition_ratio: 1.0,
            probe_entries: 0,
            provenance: 0,
            probe: None,
        }
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The root candidates of shard `s`, sorted by vertex id (the form
    /// `build_cst_from_roots` requires).
    pub fn chunk_roots(&self, roots: &[VertexId], s: usize) -> Vec<VertexId> {
        let mut chunk: Vec<VertexId> = self.order[self.ranges[s].clone()]
            .iter()
            .map(|&i| roots[i as usize])
            .collect();
        chunk.sort_unstable();
        chunk
    }

    /// Load-imbalance diagnostic: `max / mean` of the planned shard
    /// workloads (1.0 for ≤ 1 shard or zero total).
    pub fn workload_skew(&self) -> f64 {
        if self.shard_weights.len() <= 1 {
            return 1.0;
        }
        let total: f64 = self.shard_weights.iter().sum();
        if total <= 0.0 {
            return 1.0;
        }
        let mean = total / self.shard_weights.len() as f64;
        self.shard_weights.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Plans the pipeline's shard decomposition for `roots` under `options` —
/// the entry point `cst::pipeline` calls before spawning workers. Probes
/// only when there is something to cut: more than one root and more than
/// one requested shard; otherwise the plan is one contiguous shard with no
/// probe.
pub fn plan_pipeline_shards(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: &PipelineOptions,
    roots: &[VertexId],
) -> ShardPlan {
    let shards = options.resolve_shards(roots.len());
    let provenance = crate::cache::plan_provenance(roots, options);
    if roots.len() <= 1 || shards <= 1 {
        let mut plan = ShardPlan::contiguous(roots.len(), shards);
        plan.provenance = provenance;
        return plan;
    }
    let profile = RootProfile::probe(q, g, tree, options.cst, roots);
    let mut plan = plan_shards(&profile, shards, options.partition_hint);
    plan.provenance = provenance;
    // The probe is a first-class artifact: it rides with the plan so shard
    // builds are seeded from its candidate space instead of re-running the
    // top-down scan per shard (and so a plan cache retains it) —
    // trimmed to the seed-relevant fields first, so caches don't pin the
    // planner-only payloads.
    plan.probe = Some(Arc::new(profile.into_seed_profile()));
    plan
}

/// Builds a plan from an explicit root order: balanced boundaries, each
/// refined to its best seam. The duplication estimate is left at 1.0 for
/// [`estimate_duplication`] to fill in, so several plans can share a sweep.
fn assemble(profile: &RootProfile, order: Vec<u32>, shards: usize) -> ShardPlan {
    let mut ranges = balanced_boundaries(&profile.weights, &order, shards);
    refine_boundaries(profile, &order, &mut ranges);
    let shard_weights: Vec<f64> = ranges
        .iter()
        .map(|r| {
            order[r.clone()]
                .iter()
                .map(|&i| profile.weights[i as usize])
                .sum()
        })
        .collect();
    ShardPlan {
        order,
        ranges,
        shard_weights,
        estimated_duplication: 1.0,
        partition_ratio: 1.0,
        ..ShardPlan::default()
    }
}

/// Places `shards` boundaries over `order` by prefix sums of the weights
/// (first-crossing rule): shard `k` closes at the first position whose
/// cumulative weight reaches `total · (k+1) / S`.
///
/// Guarantee: when every weight is ≤ the mean shard workload
/// (`total / S`), every shard's planned workload is < 2× the mean — the
/// prefix at each boundary overshoots its target by less than one weight.
/// Degenerate weight vectors (zero total) fall back to equal-count chunks.
fn balanced_boundaries(weights: &[f64], order: &[u32], shards: usize) -> Vec<Range<usize>> {
    let n = order.len();
    let shards = shards.clamp(1, n.max(1));
    let total: f64 = order.iter().map(|&i| weights[i as usize]).sum();
    if shards <= 1 || n == 0 || total <= 0.0 || !total.is_finite() {
        return shard_ranges(n, shards);
    }
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut cum = 0.0f64;
    for s in 0..shards {
        let remaining_shards = shards - s;
        // Reserve at least one root for every later shard.
        let max_end = n - (remaining_shards - 1);
        let mut end = start;
        if s + 1 == shards {
            end = n;
        } else {
            let target = total * (s + 1) as f64 / shards as f64;
            while end < max_end {
                cum += weights[order[end] as usize];
                end += 1;
                if cum >= target {
                    break;
                }
            }
            end = end.max(start + 1).min(max_end);
        }
        ranges.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, n);
    ranges
}

/// The boundary score of the overlap cost model: the number of level-1
/// candidates reached both from the `SPAN` roots just left and from the
/// `SPAN` roots just right of a cut at `pos`. Low values mean the two sides
/// expand into mostly different interior vertices. `stamp` (one slot per
/// level-1 candidate) marks the left side with a fresh `tick` per call, so
/// nothing is collected, sorted or cleared per cut.
fn boundary_overlap(
    level1: &ProbeLevel,
    order: &[u32],
    pos: usize,
    stamp: &mut [u32],
    tick: &mut u32,
) -> usize {
    const SPAN: usize = 4;
    *tick += 2; // `tick` = reached from the left, `tick + 1` = already counted
    let (left, counted) = (*tick, *tick + 1);
    for &i in &order[pos.saturating_sub(SPAN)..pos] {
        for &t in level1.slice(i as usize) {
            stamp[t as usize] = left;
        }
    }
    let mut shared = 0;
    for &i in &order[pos..(pos + SPAN).min(order.len())] {
        for &t in level1.slice(i as usize) {
            if stamp[t as usize] == left {
                stamp[t as usize] = counted;
                shared += 1;
            }
        }
    }
    shared
}

/// Locally moves each interior boundary to the candidate cut with the
/// smallest shared 1-hop frontier ([`boundary_overlap`]), subject to the
/// balance slack: neither adjacent shard may exceed `slack × mean` planned
/// workload. Ties prefer the balanced position (then the smaller index)
/// for determinism.
fn refine_boundaries(profile: &RootProfile, order: &[u32], ranges: &mut [Range<usize>]) {
    let Some(level1) = profile.levels.first() else {
        return;
    };
    if ranges.len() <= 1 {
        return;
    }
    let n = order.len();
    let shards = ranges.len();
    let total: f64 = order.iter().map(|&i| profile.weights[i as usize]).sum();
    let mean = if total > 0.0 {
        total / shards as f64
    } else {
        0.0
    };
    let cap = BALANCE_SLACK * mean;
    let window = (n / (4 * shards)).clamp(2, 32);
    let weight_of =
        |r: Range<usize>| -> f64 { order[r].iter().map(|&i| profile.weights[i as usize]).sum() };
    let (mut stamp, mut tick) = (vec![0u32; level1.candidates.len()], 0u32);
    let mut overlap = |pos: usize| boundary_overlap(level1, order, pos, &mut stamp, &mut tick);
    for k in 1..shards {
        let b = ranges[k].start;
        let lo = (ranges[k - 1].start + 1).max(b.saturating_sub(window));
        let hi = (ranges[k].end.saturating_sub(1)).min(b + window);
        if lo > hi {
            continue;
        }
        let mut best = b;
        let mut best_score = (overlap(b), 0usize, b);
        for j in lo..=hi {
            if j == b {
                continue;
            }
            if mean > 0.0 {
                let left = weight_of(ranges[k - 1].start..j);
                let right = weight_of(j..ranges[k].end);
                if left > cap || right > cap {
                    continue;
                }
            }
            let score = (overlap(j), b.abs_diff(j), j);
            if score < best_score {
                best_score = score;
                best = j;
            }
        }
        if best != b {
            ranges[k - 1].end = best;
            ranges[k].start = best;
        }
    }
}

/// Estimated interior-candidate duplication of a decomposition: a shard
/// mask is OR-propagated down the probed candidate space (shard `s`
/// reaches candidate `v` iff some candidate parent of `v` carries bit
/// `s`), and every refinement-surviving candidate is weighted by the
/// tree-adjacency entries it sources (`RootProfile::entry_weights`), so the
/// ratio
///
/// ```text
/// Σ_v popcount(mask(v)) · entries(v)  /  Σ_v entries(v)
/// ```
///
/// — plus, per sampled non-tree candidate edge, one stride per shard that
/// reaches *both* endpoints — is the modelled total-entries-built over the
/// sequential build, across **all** levels, not just the 1-hop frontier.
/// Refinement beyond the first pass is not modelled (it is what makes
/// actual duplication drop below 1 on refinement-heavy queries — the
/// estimate is an upper structure). Shard counts beyond 64 saturate the
/// top mask bit, slightly underestimating very fine decompositions.
pub fn estimated_duplication(profile: &RootProfile, order: &[u32], ranges: &[Range<usize>]) -> f64 {
    let mut plan = ShardPlan {
        order: order.to_vec(),
        ranges: ranges.to_vec(),
        ..ShardPlan::default()
    };
    estimate_duplication(profile, std::slice::from_mut(&mut plan));
    plan.estimated_duplication
}

/// Sets [`ShardPlan::estimated_duplication`] ([`estimated_duplication`]) of
/// several decompositions of the same roots at once. Each gets its own bit
/// field of the `u64` mask (`min(shards, 64)` bits — the candidates
/// {1, 2, 4, 8, 16} of the default cap take 31), so one propagation scores
/// as many of them as fit in a word, with a further sweep per 64 bits
/// beyond. Exact, not approximate: every term is an integer count times an
/// integer stride, so the per-field sums equal the ones a sweep per
/// decomposition would give.
fn estimate_duplication(profile: &RootProfile, plans: &mut [ShardPlan]) {
    if !profile.has_levels() {
        plans.iter_mut().for_each(|p| p.estimated_duplication = 1.0);
        return;
    }
    let mut start = 0;
    while start < plans.len() {
        // Fields of this sweep: `(first bit, field mask)` per decomposition.
        let mut fields: Vec<(usize, u64)> = Vec::new();
        let mut used = 0usize;
        let mut root_masks = vec![0u64; profile.weights.len()];
        for plan in &plans[start..] {
            let width = plan.shard_count().min(64);
            if used + width > 64 {
                break;
            }
            for (s, r) in plan.ranges.iter().enumerate() {
                let bit = 1u64 << (used + s.min(63));
                for &i in &plan.order[r.clone()] {
                    root_masks[i as usize] |= bit;
                }
            }
            fields.push((used, u64::MAX.checked_shr(64 - width as u32).unwrap_or(0)));
            used += width;
        }
        let masks = profile.propagate(root_masks);
        // Per field: Σ popcount · entries, and Σ entries over what it reaches.
        let mut duplicated = vec![0u64; fields.len()];
        let mut sequential = vec![0u64; fields.len()];
        for (level_masks, entries) in masks.iter().zip(&profile.entry_weights) {
            for (&m, &e) in level_masks.iter().zip(entries) {
                if m == 0 || e == 0 {
                    continue;
                }
                for (k, &(shift, field)) in fields.iter().enumerate() {
                    let reached = (m >> shift) & field;
                    if reached != 0 {
                        duplicated[k] += u64::from(reached.count_ones()) * u64::from(e);
                        sequential[k] += u64::from(e);
                    }
                }
            }
        }
        // Non-tree entries: a shard materialises a sampled candidate edge
        // iff it reaches *both* endpoints — the AND of the endpoint masks.
        // The sequential build materialises every surviving one.
        let mut nontree = 0u64;
        for sample in &profile.nontree {
            let (am, bm) = (&masks[sample.a_mask], &masks[sample.b_mask]);
            let ae = &profile.entry_weights[sample.a_mask];
            let be = &profile.entry_weights[sample.b_mask];
            let stride = sample.stride as u64;
            for &(i, j) in &sample.pairs {
                let (i, j) = (i as usize, j as usize);
                if ae[i] == 0 || be[j] == 0 {
                    continue;
                }
                nontree += stride;
                let m = am[i] & bm[j];
                for (k, &(shift, field)) in fields.iter().enumerate() {
                    duplicated[k] += u64::from(((m >> shift) & field).count_ones()) * stride;
                }
            }
        }
        for (k, plan) in plans[start..start + fields.len()].iter_mut().enumerate() {
            let total = sequential[k] + nontree;
            plan.estimated_duplication = if total > 0 {
                (duplicated[k] as f64 / total as f64).max(1.0)
            } else {
                1.0
            };
        }
        start += fields.len();
    }
}

/// Hub-clustered root order: roots sorted by their dominant hub neighbour
/// (then by root index), so that all roots expanding into the same hub
/// land in one contiguous run and the hub's subtree is built once instead
/// of once per shard. Hubless roots (empty frontiers) sort last.
fn cluster_order(profile: &RootProfile) -> Vec<u32> {
    let mut order: Vec<u32> = (0..profile.weights.len() as u32).collect();
    order.sort_by_key(|&i| {
        let hub = profile.hubs[i as usize];
        (hub.is_none(), hub, i)
    });
    order
}

/// Scores a candidate plan with the overlapped host model, in units of the
/// sequential build:
///
/// ```text
/// d         = estimated duplication of the plan
/// build_par = d · max(1 / (T_ref · e), max planned shard share)
/// fill      = min(d / shards, build_par)
/// score     = fill + max(build_par − fill, ρ) + κ · (d − 1)
/// ```
///
/// `ρ` is the partition phase the pipeline overlaps against — per query
/// from [`estimated_partition_ratio`] — and `κ` charges duplicated build
/// work for contending with the consumer thread on the reference socket.
fn plan_score(plan: &ShardPlan, rho: f64) -> f64 {
    let d = plan.estimated_duplication.max(1.0);
    let total: f64 = plan.shard_weights.iter().sum();
    let shards = plan.shard_count().max(1) as f64;
    let max_share = if total > 0.0 {
        plan.shard_weights.iter().cloned().fold(0.0, f64::max) / total
    } else {
        1.0 / shards
    };
    let effective = (REFERENCE_THREADS * PARALLEL_EFFICIENCY).max(1.0);
    // LPT bound: the build wall cannot beat the largest shard on one core.
    let build_par = d * (1.0 / effective).max(max_share);
    let fill = (d / shards).min(build_par);
    fill + (build_par - fill).max(rho) + DUPLICATION_CHARGE * (d - 1.0)
}

/// Candidate shard counts for auto selection: powers of two up to the cap,
/// plus the cap itself.
fn candidate_shard_counts(cap: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut s = 1usize;
    while s < cap {
        out.push(s);
        s *= 2;
    }
    out.push(cap);
    out
}

/// Plans a shard decomposition from a probed (or synthetic) profile: scores
/// every candidate shard count up to `cap` (clamped to the root count) and
/// keeps the best plan (ties prefer more shards — more overlap at equal
/// modelled cost). At each count the contiguous cut is kept when its
/// estimated duplication is at most `OVERLAP_FALLBACK`, so flat queries
/// reproduce the contiguous decomposition exactly. `delta_s_hint` is the
/// device's δ_S payload threshold when the caller knows it
/// ([`estimated_partition_ratio`]).
pub fn plan_shards(profile: &RootProfile, cap: usize, delta_s_hint: Option<usize>) -> ShardPlan {
    let n = profile.weights.len();
    let cap = cap.clamp(1, n.max(1));
    let rho = estimated_partition_ratio(profile, delta_s_hint);
    // The contiguous decomposition at every candidate count, all scored
    // in one mask sweep.
    let mut contiguous: Vec<ShardPlan> = candidate_shard_counts(cap)
        .into_iter()
        .map(|s| {
            let mut p = ShardPlan::contiguous(n, s);
            p.shard_weights = p
                .ranges
                .iter()
                .map(|r| profile.weights[r.clone()].iter().sum())
                .collect();
            p
        })
        .collect();
    estimate_duplication(profile, &mut contiguous);
    // The overlap-aware alternative wherever the contiguous cut duplicates
    // noticeably, scored in a second sweep. The hub-clustered order does
    // not depend on the shard count.
    let duplicating = |p: &ShardPlan| p.estimated_duplication > OVERLAP_FALLBACK;
    let mut clustered: Option<Vec<u32>> = None;
    let mut overlap: Vec<ShardPlan> = contiguous
        .iter()
        .filter(|p| duplicating(p))
        .map(|p| {
            let order = clustered
                .get_or_insert_with(|| cluster_order(profile))
                .clone();
            assemble(profile, order, p.shard_count())
        })
        .collect();
    estimate_duplication(profile, &mut overlap);
    let mut overlap = overlap.into_iter();
    let mut best: Option<(f64, ShardPlan)> = None;
    for contiguous in contiguous {
        let candidate = if duplicating(&contiguous) {
            let overlap = overlap
                .next()
                .expect("one overlap plan per duplicating count");
            if overlap.estimated_duplication < contiguous.estimated_duplication {
                overlap
            } else {
                contiguous
            }
        } else {
            contiguous
        };
        let score = plan_score(&candidate, rho);
        match &best {
            Some((best_score, _)) if *best_score < score => {}
            _ => best = Some((score, candidate)),
        }
    }
    let mut plan = best.expect("at least one candidate shard count").1;
    plan.probe_entries = profile.probe_entries;
    plan.partition_ratio = rho;
    plan
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::root_candidates;
    use graph_core::generators::{random_labelled_graph, random_power_law_graph};
    use graph_core::{Label, QueryVertexId};

    fn profile(weights: Vec<f64>) -> RootProfile {
        RootProfile::from_weights(weights)
    }

    /// Deterministic input stream (splitmix64) — the crate has no RNG
    /// dependency.
    fn draw(state: &mut u64, below: usize) -> usize {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % below as u64) as usize
    }

    /// One generated planning input: a connected query (a random spanning
    /// tree plus non-tree edges) rooted at a random vertex, over a random
    /// labelled graph (even cases) or a hub-heavy power-law one (odd
    /// cases), with enough roots on most cases for the 64/65-shard caps.
    fn case(index: u64) -> (QueryGraph, Graph, BfsTree) {
        let mut state = index.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed;
        let labels = 2 + draw(&mut state, 2) as u16;
        let n = 3 + draw(&mut state, 4);
        let query_labels = (0..n)
            .map(|_| Label::new(draw(&mut state, labels as usize) as u16))
            .collect();
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (draw(&mut state, i), i)).collect();
        for a in 0..n {
            for b in a + 1..n {
                if draw(&mut state, 10) < 3 {
                    edges.push((a, b));
                }
            }
        }
        let q = QueryGraph::new(query_labels, &edges).expect("connected by construction");
        let g = if index.is_multiple_of(2) {
            random_labelled_graph(120 + draw(&mut state, 120), 0.05, labels, index)
        } else {
            random_power_law_graph(
                200 + draw(&mut state, 200),
                2 + draw(&mut state, 3),
                labels,
                index,
            )
        };
        let tree = BfsTree::new(&q, QueryVertexId::from_index(draw(&mut state, n)));
        (q, g, tree)
    }

    const CASES: u64 = 40;

    /// The rewritten probe, scoring and seed derivation against the
    /// previous edition kept in `reference`: equal profiles, equal plans
    /// at every cap (one shard, odd counts, the default 16, one past it, a
    /// full mask word, one past that), equal seeds.
    #[test]
    fn rewritten_planner_reproduces_the_reference() {
        let (mut overlap_wins, mut wide) = (0, 0);
        for index in 0..CASES {
            let (q, g, tree) = case(index);
            for use_nlf in [true, false] {
                let options = CstOptions {
                    use_nlf,
                    ..CstOptions::default()
                };
                let roots = root_candidates(&q, &g, &tree, options);
                let new = RootProfile::probe(&q, &g, &tree, options, &roots);
                let old = reference::RootProfile::probe(&q, &g, &tree, options, &roots);
                old.assert_same(&new);
                wide += usize::from(roots.len() > 65);
                // With and without a δ_S hint, so ρ takes both routes.
                let hint = index.is_multiple_of(3).then_some(4096);
                for cap in [1usize, 2, 3, 6, 16, 17, 64, 65] {
                    let plan = plan_shards(&new, cap, hint);
                    let expected = reference::plan_shards(&old, cap, hint);
                    assert_eq!(plan, expected, "case {index} nlf {use_nlf} cap {cap}");
                    assert_eq!(
                        estimated_duplication(&new, &plan.order, &plan.ranges).to_bits(),
                        reference::estimated_duplication(&old, &plan.order, &plan.ranges).to_bits(),
                        "case {index} nlf {use_nlf} cap {cap}"
                    );
                    let seeds = |s: Option<Vec<TopDownSeed>>| {
                        s.map(|s| s.into_iter().map(|s| s.candidates).collect::<Vec<_>>())
                    };
                    assert_eq!(
                        seeds(new.seed_chunks(&plan, &roots)),
                        seeds(old.seed_chunks(&plan, &roots)),
                        "case {index} nlf {use_nlf} cap {cap}"
                    );
                    let identity = plan.order.iter().enumerate().all(|(i, &o)| i as u32 == o);
                    overlap_wins += usize::from(!identity);
                }
            }
        }
        // The generator reaches the branches the comparison is for.
        assert!(
            overlap_wins > 0,
            "no case where the planner keeps an overlap-aware plan"
        );
        assert!(
            wide > CASES as usize / 2,
            "too few cases with more than 65 roots"
        );
    }

    /// "Once" as a count: the tree pass evaluates the filter once per
    /// distinct `(level, data vertex)` pair — per level, the number of
    /// distinct neighbours of the parent level's candidates, straight from
    /// the graph — however many visits reach the pair.
    #[test]
    fn probe_decides_each_level_vertex_pair_once() {
        let mut repeated_visits = 0;
        for index in 0..CASES {
            let (q, g, tree) = case(index);
            for use_nlf in [true, false] {
                let options = CstOptions {
                    use_nlf,
                    ..CstOptions::default()
                };
                let roots = root_candidates(&q, &g, &tree, options);
                let profile = RootProfile::probe(&q, &g, &tree, options, &roots);
                let (mut distinct, mut visits) = (0, 0);
                for level in &profile.levels {
                    let parents = candidates_at(&roots, &profile.levels, level.parent_level);
                    let reached: std::collections::BTreeSet<VertexId> = parents
                        .iter()
                        .flat_map(|&vp| g.neighbors(vp).iter().copied())
                        .collect();
                    distinct += reached.len();
                    visits += parents
                        .iter()
                        .map(|&vp| g.degree(vp) as usize)
                        .sum::<usize>();
                }
                assert_eq!(
                    profile.filter_evaluations, distinct,
                    "case {index} nlf {use_nlf}"
                );
                assert!(visits <= profile.probe_entries);
                repeated_visits += visits - distinct;
            }
        }
        assert!(
            repeated_visits > 0,
            "no case reaches a vertex from two parents"
        );
    }

    fn coverage_ok(plan: &ShardPlan, n: usize) {
        let mut seen: Vec<u32> = plan
            .ranges
            .iter()
            .flat_map(|r| plan.order[r.clone()].iter().copied())
            .collect();
        assert_eq!(seen.len(), n, "every root assigned exactly once");
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &v)| i as u32 == v));
        let mut prev_end = 0usize;
        for r in &plan.ranges {
            assert_eq!(r.start, prev_end);
            prev_end = r.end;
        }
        assert_eq!(prev_end, n);
    }

    /// The balanced cut over the identity order (weights-only profiles
    /// have no seams to refine).
    fn balanced(weights: Vec<f64>, shards: usize) -> ShardPlan {
        let n = weights.len() as u32;
        assemble(&profile(weights), (0..n).collect(), shards)
    }

    #[test]
    fn balanced_respects_weights() {
        // One heavy root at the front: equal-count halves would put 5 roots
        // in each shard; balanced puts the heavy root alone.
        let w = vec![100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let plan = balanced(w, 2);
        coverage_ok(&plan, 10);
        assert_eq!(plan.ranges[0], 0..1);
        assert_eq!(plan.shard_weights, vec![100.0, 9.0]);
    }

    #[test]
    fn balanced_two_x_mean_guarantee() {
        // Uniform-ish weights where max ≤ mean shard workload.
        let w: Vec<f64> = (0..64).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
        for shards in [2usize, 3, 4, 8] {
            let plan = balanced(w.clone(), shards);
            coverage_ok(&plan, 64);
            let total: f64 = w.iter().sum();
            let mean = total / shards as f64;
            for sw in &plan.shard_weights {
                assert!(*sw < 2.0 * mean, "shard {sw} vs mean {mean} (S={shards})");
            }
        }
    }

    /// The same guarantee over random weight vectors: 1..=120 roots, about
    /// a quarter of them weightless, 1..=12 shards. Whenever no weight
    /// exceeds the mean shard workload, every shard stays strictly below
    /// 2× the mean.
    #[test]
    fn balanced_two_x_mean_guarantee_on_random_weights() {
        let mut state = 0x0ba1_a9ce_u64;
        let mut bounded = 0;
        for _ in 0..500 {
            let n = 1 + draw(&mut state, 120);
            let shards = 1 + draw(&mut state, 12);
            let w: Vec<f64> = (0..n)
                .map(|_| match draw(&mut state, 4) {
                    0 => 0.0,
                    _ => draw(&mut state, 1000) as f64 / 16.0,
                })
                .collect();
            let plan = balanced(w.clone(), shards);
            coverage_ok(&plan, n);
            let effective = plan.shard_count();
            assert_eq!(effective, shards.min(n));
            let total: f64 = w.iter().sum();
            let mean = total / effective as f64;
            let max_weight = w.iter().cloned().fold(0.0, f64::max);
            if total > 0.0 && max_weight <= mean {
                bounded += 1;
                for sw in &plan.shard_weights {
                    assert!(
                        *sw < 2.0 * mean,
                        "shard {sw} vs mean {mean} (n={n} S={effective})"
                    );
                }
            }
        }
        assert!(bounded > 100, "only {bounded} cases reach the bound");
    }

    #[test]
    fn zero_workload_roots_fall_back_to_equal_count() {
        let plan = balanced(vec![0.0; 12], 4);
        coverage_ok(&plan, 12);
        assert!(plan.ranges.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn single_root_collapses_to_one_shard() {
        let plan = plan_shards(&profile(vec![3.0]), 8, None);
        assert_eq!(plan.shard_count(), 1);
        coverage_ok(&plan, 1);
        assert_eq!(plan.estimated_duplication, 1.0);
    }

    #[test]
    fn more_shards_than_roots_clamp() {
        let plan = plan_shards(&profile(vec![1.0, 2.0, 3.0]), 100, None);
        assert_eq!(plan.shard_count(), 3);
        coverage_ok(&plan, 3);
        assert!(plan.ranges.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn auto_without_frontiers_keeps_the_cap_on_flat_weights() {
        // No frontier info ⇒ duplication 1.0 everywhere ⇒ the score is
        // minimised by the largest shard count (smallest fill).
        let plan = plan_shards(&profile(vec![1.0; 64]), 16, None);
        assert_eq!(plan.shard_count(), 16);
        coverage_ok(&plan, 64);
    }

    #[test]
    fn workload_skew_diagnostic() {
        let plan = ShardPlan {
            shard_weights: vec![1.0, 3.0],
            ..ShardPlan::contiguous(2, 2)
        };
        assert!((plan.workload_skew() - 1.5).abs() < 1e-12);
        assert_eq!(ShardPlan::contiguous(0, 1).workload_skew(), 1.0);
    }

    #[test]
    fn partition_ratio_falls_back_without_hint_or_mass() {
        let p = profile(vec![1.0; 8]);
        // No hint: the calibrated constant.
        assert_eq!(estimated_partition_ratio(&p, None), PARTITION_BUILD_RATIO);
        // Hint but no probed mass (weights-only profile): same fallback.
        assert_eq!(
            estimated_partition_ratio(&p, Some(1 << 16)),
            PARTITION_BUILD_RATIO
        );
    }

    #[test]
    fn partition_ratio_scales_with_candidate_mass() {
        let hint = Some(10_000);
        let mut p = profile(vec![1.0; 8]);
        // Fits in one partition: only the fits-check share of ρ.
        p.entry_mass = 100.0;
        let fits = estimated_partition_ratio(&p, hint);
        assert!((fits - 0.2 * PARTITION_BUILD_RATIO).abs() < 1e-12, "{fits}");
        // Hundreds of partitions: saturates above the calibrated constant.
        p.entry_mass = 1e9;
        let split = estimated_partition_ratio(&p, hint);
        assert!(
            (split - 1.5 * PARTITION_BUILD_RATIO).abs() < 1e-12,
            "{split}"
        );
        // Monotone in the candidate mass between the clamps.
        let mut prev = 0.0;
        for mass in [1e3, 1e4, 1e5, 1e6, 1e7] {
            p.entry_mass = mass;
            let rho = estimated_partition_ratio(&p, hint);
            assert!(rho >= prev, "ρ must not decrease with mass");
            prev = rho;
        }
    }

    #[test]
    fn plans_carry_the_ratio_they_scored_with() {
        let hint = Some(1_000);
        let mut p = profile(vec![1.0; 16]);
        p.entry_mass = 5e5;
        let expected = estimated_partition_ratio(&p, hint);
        let plan = plan_shards(&p, 8, hint);
        assert!(
            (plan.partition_ratio - expected).abs() < 1e-12,
            "{} vs {}",
            plan.partition_ratio,
            expected
        );
    }

    #[test]
    fn candidate_counts_cover_cap() {
        assert_eq!(candidate_shard_counts(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(candidate_shard_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(candidate_shard_counts(1), vec![1]);
    }
}
