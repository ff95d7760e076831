//! The planner as it stood before each thing was made to happen once: the
//! probe's tree pass puts every neighbour *visit* to the candidate filter,
//! every scoring call rebuilds its own level index (`HashMap` / `position`)
//! and its own entry weights, `Auto` sweeps the masks once per candidate
//! decomposition and every boundary cut re-sorts both of its windows. Kept
//! verbatim (doc comments aside) in the old data layout — `parent`/`count`
//! per level, `alive` bitmaps — so the tests can hold the rewritten path to
//! it: [`RootProfile::assert_same`] for profiles, plain `==` for the
//! [`ShardPlan`]s and seeds. Only what the rewrite left untouched is shared
//! (`balanced_boundaries`, `plan_score`, `candidate_shard_counts`, the
//! cost-model constants, the sample and seed types). Planning is trimmed
//! to the one planner the rewrite kept.

use super::{
    balanced_boundaries, candidate_shard_counts, plan_score, NonTreeSample, SeedMasks, ShardPlan,
    BALANCE_SLACK, NONTREE_SAMPLE_CAP, NONTREE_SCAN_BUDGET, OVERLAP_FALLBACK,
};
use crate::construct::{CstOptions, TopDownSeed};
use crate::filter::CandidateFilter;
use graph_core::{BfsTree, Graph, QueryGraph, VertexId};
use std::ops::Range;

#[derive(Debug, Clone, PartialEq)]
struct ProbeLevel {
    vertex: usize,
    parent: usize,
    count: usize,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    candidates: Vec<VertexId>,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct RootProfile {
    pub weights: Vec<f64>,
    levels: Vec<ProbeLevel>,
    root_vertex: usize,
    hubs: Vec<Option<u32>>,
    alive: Vec<Vec<bool>>,
    nontree: Vec<NonTreeSample>,
    pub probe_entries: usize,
    pub entry_mass: f64,
}

impl RootProfile {
    /// Holds the rewritten probe's profile to this one, field by field: the
    /// two layouts say the same thing when every level's `parent_level` is
    /// the old `position` lookup and every entry weight is the old
    /// per-candidate recount (0 = not alive).
    pub fn assert_same(&self, new: &super::RootProfile) {
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&new.weights), bits(&self.weights), "weights");
        assert_eq!(new.root_vertex, self.root_vertex);
        assert_eq!(new.hubs, self.hubs, "hubs");
        assert_eq!(new.nontree, self.nontree, "non-tree samples");
        assert_eq!(new.probe_entries, self.probe_entries, "probe_entries");
        assert_eq!(
            new.entry_mass.to_bits(),
            self.entry_mass.to_bits(),
            "entry_mass"
        );
        assert_eq!(new.levels.len(), self.levels.len());
        let mask_of = |vertex: usize| match self.levels.iter().position(|l| l.vertex == vertex) {
            Some(li) => li + 1,
            None => 0,
        };
        for (li, (n, o)) in new.levels.iter().zip(&self.levels).enumerate() {
            assert_eq!(n.vertex, o.vertex, "level {li}");
            assert_eq!(n.parent_level, mask_of(o.parent), "level {li} parent");
            assert_eq!(n.offsets, o.offsets, "level {li} offsets");
            assert_eq!(n.targets, o.targets, "level {li} targets");
            assert_eq!(n.candidates, o.candidates, "level {li} candidates");
            assert_eq!(o.count, o.candidates.len());
        }
        if !self.has_levels() {
            return;
        }
        for mask in 0..=self.levels.len() {
            let vertex = if mask == 0 {
                self.root_vertex
            } else {
                self.levels[mask - 1].vertex
            };
            let expected: Vec<u32> = (0..self.alive[mask].len())
                .map(|vi| {
                    if !self.alive[mask][vi] {
                        return 0;
                    }
                    let mut entries = 1;
                    for (ci, child) in self.levels.iter().enumerate() {
                        if child.parent == vertex {
                            let r = child.offsets[vi] as usize..child.offsets[vi + 1] as usize;
                            let live = child.targets[r]
                                .iter()
                                .filter(|&&t| self.alive[ci + 1][t as usize]);
                            entries += live.count() as u32;
                        }
                    }
                    entries
                })
                .collect();
            assert_eq!(
                new.entry_weights[mask], expected,
                "entry weights at mask {mask}"
            );
        }
    }

    /// `estimated_partition_ratio` reads nothing but the entry mass.
    fn partition_ratio(&self, delta_s_hint: Option<usize>) -> f64 {
        let carrier = super::RootProfile {
            entry_mass: self.entry_mass,
            ..Default::default()
        };
        super::estimated_partition_ratio(&carrier, delta_s_hint)
    }

    pub fn probe(
        q: &QueryGraph,
        g: &Graph,
        tree: &BfsTree,
        options: CstOptions,
        roots: &[VertexId],
    ) -> RootProfile {
        let root = tree.root();
        let mut profile = RootProfile {
            weights: vec![1.0; roots.len()],
            levels: Vec::new(),
            root_vertex: root.index(),
            hubs: vec![None; roots.len()],
            alive: Vec::new(),
            nontree: Vec::new(),
            probe_entries: 0,
            entry_mass: 0.0,
        };
        let mut scratch = Vec::new();

        // Candidate vertex lists per query vertex (root seeded by caller);
        // `slot` maps data vertex → candidate index at the level currently
        // being built (u32::MAX = absent), reset between levels.
        let mut candidates: Vec<Vec<VertexId>> = vec![Vec::new(); q.vertex_count()];
        candidates[root.index()] = roots.to_vec();
        let mut slot = vec![u32::MAX; g.vertex_count()];

        for &u in &tree.bfs_order()[1..] {
            let parent = tree.parent(u).expect("non-root has a parent");
            let filter = CandidateFilter::new(q, u);
            let mut level = ProbeLevel {
                vertex: u.index(),
                parent: parent.index(),
                count: 0,
                offsets: Vec::with_capacity(candidates[parent.index()].len() + 1),
                targets: Vec::new(),
                candidates: Vec::new(),
            };
            level.offsets.push(0);
            let mut discovered: Vec<VertexId> = Vec::new();
            for vp in candidates[parent.index()].iter().copied() {
                for &w in g.neighbors(vp) {
                    profile.probe_entries += 1;
                    let passes = if options.use_nlf {
                        filter.passes(g, w, &mut scratch)
                    } else {
                        filter.passes_basic(g, w)
                    };
                    if !passes {
                        continue;
                    }
                    let idx = if slot[w.index()] == u32::MAX {
                        let idx = discovered.len() as u32;
                        slot[w.index()] = idx;
                        discovered.push(w);
                        idx
                    } else {
                        slot[w.index()]
                    };
                    level.targets.push(idx);
                }
                level.offsets.push(level.targets.len() as u32);
            }
            for &w in &discovered {
                slot[w.index()] = u32::MAX;
            }
            level.count = discovered.len();
            level.candidates = discovered.clone();
            candidates[u.index()] = discovered;
            profile.levels.push(level);
        }

        // Sample the non-tree candidate edges: for every non-tree query
        // edge, scan one endpoint's candidates against the other's
        // membership, keeping every `stride`-th hit (stride doubles when
        // the cap is reached — deterministic). This is a counting scan of
        // the adjacency the build's phase 3 will materialise per shard;
        // dense queries keep most of their CST entries here.
        let mask_index = |v: usize| -> usize {
            if v == root.index() {
                0
            } else {
                1 + profile
                    .levels
                    .iter()
                    .position(|l| l.vertex == v)
                    .expect("every non-root query vertex has a probe level")
            }
        };
        for &(a, b) in q.edges() {
            if tree.is_tree_edge(a, b) {
                continue;
            }
            let (ca, cb) = (&candidates[a.index()], &candidates[b.index()]);
            // Scan the smaller candidate side.
            let (u, w) = if ca.len() <= cb.len() { (a, b) } else { (b, a) };
            for (wi, &x) in candidates[w.index()].iter().enumerate() {
                slot[x.index()] = wi as u32;
            }
            let mut sample = NonTreeSample {
                a_mask: mask_index(u.index()),
                b_mask: mask_index(w.index()),
                stride: 1,
                pairs: Vec::new(),
            };
            // Source-sample when the scan would blow the budget: every
            // `source_stride`-th candidate of `u` is scanned, each kept
            // pair standing for `source_stride` sources' worth of edges.
            let deg_sum: usize = candidates[u.index()]
                .iter()
                .map(|&v| g.degree(v) as usize)
                .sum();
            let source_stride = deg_sum.div_ceil(NONTREE_SCAN_BUDGET).max(1);
            let mut hit_stride = 1usize;
            let mut seen = 0usize;
            for (ui, &v) in candidates[u.index()].iter().enumerate() {
                if !ui.is_multiple_of(source_stride) {
                    continue;
                }
                for &x in g.neighbors(v) {
                    profile.probe_entries += 1;
                    let wi = slot[x.index()];
                    if wi == u32::MAX {
                        continue;
                    }
                    if seen.is_multiple_of(hit_stride) {
                        if sample.pairs.len() == NONTREE_SAMPLE_CAP {
                            // Halve the sample, double the stride.
                            let mut keep = 0usize;
                            for i in (0..sample.pairs.len()).step_by(2) {
                                sample.pairs[keep] = sample.pairs[i];
                                keep += 1;
                            }
                            sample.pairs.truncate(keep);
                            hit_stride *= 2;
                        }
                        if seen.is_multiple_of(hit_stride) {
                            sample.pairs.push((ui as u32, wi));
                        }
                    }
                    seen += 1;
                }
            }
            sample.stride = source_stride * hit_stride;
            for &x in candidates[w.index()].iter() {
                slot[x.index()] = u32::MAX;
            }
            profile.nontree.push(sample);
        }

        profile.compute_weights();
        profile.compute_hubs();
        profile.compute_entry_mass();
        profile
    }

    fn compute_weights(&mut self) {
        let mut c: Vec<Vec<f64>> = self.levels.iter().map(|l| vec![1.0; l.count]).collect();
        // Levels are in BFS order, so reverse order is bottom-up. Each
        // level folds its DP values into its parent's product.
        for li in (0..self.levels.len()).rev() {
            let level = &self.levels[li];
            let child_c = std::mem::take(&mut c[li]);
            let parent_count = level.offsets.len() - 1;
            let mut sums = vec![0.0f64; parent_count];
            for (pi, sum) in sums.iter_mut().enumerate() {
                let r = level.offsets[pi] as usize..level.offsets[pi + 1] as usize;
                *sum = level.targets[r].iter().map(|&t| child_c[t as usize]).sum();
            }
            if level.parent == self.root_vertex {
                for (w, s) in self.weights.iter_mut().zip(&sums) {
                    *w *= s;
                }
            } else {
                let parent_li = self
                    .levels
                    .iter()
                    .position(|l| l.vertex == level.parent)
                    .expect("parent level precedes child in BFS order");
                for (v, s) in c[parent_li].iter_mut().zip(&sums) {
                    *v *= s;
                }
            }
            c[li] = child_c;
        }
        self.alive = Vec::with_capacity(self.levels.len() + 1);
        self.alive
            .push(self.weights.iter().map(|&w| w > 0.0).collect());
        for values in &c {
            self.alive.push(values.iter().map(|&v| v > 0.0).collect());
        }
    }

    fn compute_hubs(&mut self) {
        let Some(level1) = self.levels.iter().find(|l| l.parent == self.root_vertex) else {
            return;
        };
        let mut indeg = vec![0u32; level1.count];
        for &t in &level1.targets {
            indeg[t as usize] += 1;
        }
        for (i, hub) in self.hubs.iter_mut().enumerate() {
            let r = level1.offsets[i] as usize..level1.offsets[i + 1] as usize;
            *hub = level1.targets[r].iter().copied().max_by(|&a, &b| {
                indeg[a as usize]
                    .cmp(&indeg[b as usize])
                    .then_with(|| b.cmp(&a)) // ties → smallest index wins
            });
        }
    }

    fn compute_entry_mass(&mut self) {
        if !self.has_levels() {
            self.entry_mass = 0.0;
            return;
        }
        let mut mass = 0.0f64;
        for li in 0..=self.levels.len() {
            let (vertex, count) = if li == 0 {
                (self.root_vertex, self.weights.len())
            } else {
                (self.levels[li - 1].vertex, self.levels[li - 1].count)
            };
            let alive = &self.alive[li];
            for (vi, &live) in alive.iter().enumerate().take(count) {
                if !live {
                    continue;
                }
                let mut entries = 1.0f64;
                for (ci, child) in self.levels.iter().enumerate() {
                    if child.parent != vertex {
                        continue;
                    }
                    let child_alive = &self.alive[ci + 1];
                    let r = child.offsets[vi] as usize..child.offsets[vi + 1] as usize;
                    entries += child.targets[r]
                        .iter()
                        .filter(|&&t| child_alive[t as usize])
                        .count() as f64;
                }
                mass += entries;
            }
        }
        for sample in &self.nontree {
            let (aa, ba) = (&self.alive[sample.a_mask], &self.alive[sample.b_mask]);
            let stride = sample.stride as f64;
            for &(i, j) in &sample.pairs {
                if aa[i as usize] && ba[j as usize] {
                    mass += stride;
                }
            }
        }
        self.entry_mass = mass;
    }

    pub fn seed_masks(&self, plan: &ShardPlan, roots: &[VertexId]) -> Option<SeedMasks> {
        if !self.has_levels()
            || self.weights.len() != roots.len()
            || plan.order.len() != roots.len()
        {
            return None;
        }
        let shards = plan.shard_count();
        let level_index: std::collections::HashMap<usize, usize> = self
            .levels
            .iter()
            .enumerate()
            .map(|(li, l)| (l.vertex, li + 1))
            .collect();
        // One 64-wide mask sweep per chunk of shards (no saturation — every
        // shard gets its own bit, unlike the duplication estimate).
        let mut chunks = Vec::with_capacity(shards.div_ceil(64));
        for base in (0..shards).step_by(64) {
            let width = (shards - base).min(64);
            let mut masks: Vec<Vec<u64>> = Vec::with_capacity(self.levels.len() + 1);
            let mut root_masks = vec![0u64; roots.len()];
            for s in base..base + width {
                let bit = 1u64 << (s - base);
                for &i in &plan.order[plan.ranges[s].clone()] {
                    root_masks[i as usize] |= bit;
                }
            }
            masks.push(root_masks);
            for level in &self.levels {
                let parent_masks: &Vec<u64> = if level.parent == self.root_vertex {
                    &masks[0]
                } else {
                    &masks[level_index[&level.parent]]
                };
                let mut mine = vec![0u64; level.count];
                for (pi, &m) in parent_masks.iter().enumerate() {
                    if m == 0 {
                        continue;
                    }
                    let r = level.offsets[pi] as usize..level.offsets[pi + 1] as usize;
                    for &t in &level.targets[r] {
                        mine[t as usize] |= m;
                    }
                }
                masks.push(mine);
            }
            // Drop the root-level masks: extraction never reads them (the
            // root level of a seed is the shard's own chunk).
            masks.remove(0);
            chunks.push(masks);
        }
        Some(SeedMasks { chunks, shards })
    }

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

    pub fn seed_chunks(&self, plan: &ShardPlan, roots: &[VertexId]) -> Option<Vec<TopDownSeed>> {
        let masks = self.seed_masks(plan, roots)?;
        Some(
            (0..plan.shard_count())
                .map(|s| self.seed_shard(&masks, plan.chunk_roots(roots, s), s))
                .collect(),
        )
    }

    fn level1(&self, i: usize) -> &[u32] {
        match self.levels.iter().find(|l| l.parent == self.root_vertex) {
            Some(l) => &l.targets[l.offsets[i] as usize..l.offsets[i + 1] as usize],
            None => &[],
        }
    }

    fn has_levels(&self) -> bool {
        !self.levels.is_empty()
    }
}

pub fn plan_shards(profile: &RootProfile, shards: usize, delta_s_hint: Option<usize>) -> ShardPlan {
    let n = profile.weights.len();
    let shards = shards.clamp(1, n.max(1));
    let mut plan = auto_plan(profile, shards, delta_s_hint);
    plan.probe_entries = profile.probe_entries;
    plan.partition_ratio = profile.partition_ratio(delta_s_hint);
    plan
}

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
    let estimated_duplication = estimated_duplication(profile, &order, &ranges);
    ShardPlan {
        order,
        ranges,
        shard_weights,
        estimated_duplication,
        partition_ratio: 1.0,
        probe_entries: profile.probe_entries,
        provenance: 0,
        probe: None,
    }
}

fn boundary_overlap(profile: &RootProfile, order: &[u32], pos: usize) -> usize {
    const SPAN: usize = 4;
    let lo = pos.saturating_sub(SPAN);
    let hi = (pos + SPAN).min(order.len());
    let mut left: Vec<u32> = order[lo..pos]
        .iter()
        .flat_map(|&i| profile.level1(i as usize).iter().copied())
        .collect();
    left.sort_unstable();
    left.dedup();
    let mut right: Vec<u32> = order[pos..hi]
        .iter()
        .flat_map(|&i| profile.level1(i as usize).iter().copied())
        .collect();
    right.sort_unstable();
    right.dedup();
    sorted_intersection_len(&left, &right)
}

fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

fn refine_boundaries(profile: &RootProfile, order: &[u32], ranges: &mut [Range<usize>]) {
    if !profile.has_levels() || ranges.len() <= 1 {
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
    for k in 1..shards {
        let b = ranges[k].start;
        let lo = (ranges[k - 1].start + 1).max(b.saturating_sub(window));
        let hi = (ranges[k].end.saturating_sub(1)).min(b + window);
        if lo > hi {
            continue;
        }
        let mut best = b;
        let mut best_score = (boundary_overlap(profile, order, b), 0usize, b);
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
            let score = (boundary_overlap(profile, order, j), b.abs_diff(j), j);
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

pub fn estimated_duplication(profile: &RootProfile, order: &[u32], ranges: &[Range<usize>]) -> f64 {
    if !profile.has_levels() || ranges.len() <= 1 {
        return 1.0;
    }
    // Root shard masks from the plan.
    let n_roots = order.len();
    let mut masks: Vec<Vec<u64>> = Vec::with_capacity(profile.levels.len() + 1);
    let mut root_masks = vec![0u64; n_roots];
    for (s, r) in ranges.iter().enumerate() {
        let bit = 1u64 << s.min(63);
        for &i in &order[r.clone()] {
            root_masks[i as usize] = bit;
        }
    }
    // Propagate level by level (BFS order ⇒ parents are already done).
    // `masks` is indexed in step with `profile.levels`, root first.
    let level_index: std::collections::HashMap<usize, usize> = profile
        .levels
        .iter()
        .enumerate()
        .map(|(li, l)| (l.vertex, li + 1))
        .collect();
    masks.push(root_masks);
    for level in &profile.levels {
        let parent_masks: &Vec<u64> = if level.parent == profile.root_vertex {
            &masks[0]
        } else {
            &masks[level_index[&level.parent]]
        };
        let mut mine = vec![0u64; level.count];
        for (pi, &m) in parent_masks.iter().enumerate() {
            if m == 0 {
                continue;
            }
            let r = level.offsets[pi] as usize..level.offsets[pi + 1] as usize;
            for &t in &level.targets[r] {
                mine[t as usize] |= m;
            }
        }
        masks.push(mine);
    }
    // Entry weights: each *refinement-surviving* candidate sources its
    // outgoing tree-adjacency lists towards surviving children (its slices
    // of the child levels' CSRs) plus itself — mirroring the sequential
    // build's post-refinement entry count the actual factors divide by.
    let mut duplicated = 0.0f64;
    let mut sequential = 0.0f64;
    for (li, level_masks) in masks.iter().enumerate() {
        let vertex = if li == 0 {
            profile.root_vertex
        } else {
            profile.levels[li - 1].vertex
        };
        let alive = &profile.alive[li];
        for (vi, &m) in level_masks.iter().enumerate() {
            if m == 0 || !alive[vi] {
                continue;
            }
            let mut entries = 1.0f64;
            for (ci, child) in profile.levels.iter().enumerate() {
                if child.parent != vertex {
                    continue;
                }
                let child_alive = &profile.alive[ci + 1];
                let r = child.offsets[vi] as usize..child.offsets[vi + 1] as usize;
                entries += child.targets[r]
                    .iter()
                    .filter(|&&t| child_alive[t as usize])
                    .count() as f64;
            }
            duplicated += m.count_ones() as f64 * entries;
            sequential += entries;
        }
    }
    // Non-tree entries: a shard materialises a sampled candidate edge iff
    // it reaches *both* endpoints — the AND of the endpoint masks.
    for sample in &profile.nontree {
        let (am, bm) = (&masks[sample.a_mask], &masks[sample.b_mask]);
        let (aa, ba) = (&profile.alive[sample.a_mask], &profile.alive[sample.b_mask]);
        let stride = sample.stride as f64;
        for &(i, j) in &sample.pairs {
            if !aa[i as usize] || !ba[j as usize] {
                continue;
            }
            let m = am[i as usize] & bm[j as usize];
            duplicated += m.count_ones() as f64 * stride;
            sequential += stride;
        }
    }
    if sequential <= 0.0 {
        return 1.0;
    }
    (duplicated / sequential).max(1.0)
}

fn cluster_order(profile: &RootProfile) -> Vec<u32> {
    let mut order: Vec<u32> = (0..profile.weights.len() as u32).collect();
    order.sort_by_key(|&i| {
        let hub = profile.hubs[i as usize];
        (hub.is_none(), hub, i)
    });
    order
}

fn auto_plan(profile: &RootProfile, cap: usize, delta_s_hint: Option<usize>) -> ShardPlan {
    let n = profile.weights.len();
    let cap = cap.clamp(1, n.max(1));
    let rho = profile.partition_ratio(delta_s_hint);
    let mut best: Option<(f64, ShardPlan)> = None;
    for s in candidate_shard_counts(cap) {
        let contiguous = {
            let mut p = ShardPlan::contiguous(n, s);
            p.shard_weights = p
                .ranges
                .iter()
                .map(|r| profile.weights[r.clone()].iter().sum())
                .collect();
            p.estimated_duplication = estimated_duplication(profile, &p.order, &p.ranges);
            p
        };
        let candidate = if contiguous.estimated_duplication <= OVERLAP_FALLBACK {
            contiguous
        } else {
            let overlap = assemble(profile, cluster_order(profile), s);
            if overlap.estimated_duplication < contiguous.estimated_duplication {
                overlap
            } else {
                contiguous
            }
        };
        let score = plan_score(&candidate, rho);
        match &best {
            Some((best_score, _)) if *best_score < score => {}
            _ => best = Some((score, candidate)),
        }
    }
    let mut plan = best.expect("at least one candidate shard count").1;
    plan.probe_entries = profile.probe_entries;
    plan
}
