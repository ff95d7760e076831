//! Cache-key derivation for the serving layer's caches, and the shard plan
//! its tier-1 cache holds.
//!
//! Every host flow builds one CST per query (`build_cst_with_stats`), a
//! pure function of `(q, g, tree, CstOptions)`, and so is the plan of that
//! build ([`plan_pipeline_shards`]: the whole sorted root candidate list as
//! one range), so a serving layer can cache both across repeated queries.
//! This module derives the cache key: a structural fingerprint of the query
//! and BFS tree, a *graph epoch* supplied by the owner of the loaded graph
//! (bumped whenever the graph changes, so stale entries can never be
//! served), and a fingerprint of the [`CstOptions`] the build runs with.
//! A new build knob must be folded into [`PlanKey::derive`] next to the
//! existing ones.

use crate::construct::CstOptions;
use graph_core::{BfsTree, QueryGraph, VertexId};
use std::ops::Range;

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over `u64` words — deterministic across processes
/// (unlike `std`'s `DefaultHasher`, whose seeds are unspecified), which a
/// persistent or cross-session cache needs.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Folds one word into the fingerprint.
    pub fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Structural fingerprint of `(q, tree)`: labels in vertex order, the sorted
/// edge list, and the BFS-tree root + parent array. Two queries collide only
/// if they are structurally identical for planning purposes (same labels,
/// same edges, same tree shape) — in which case sharing a plan is exactly
/// the point.
pub fn query_fingerprint(q: &QueryGraph, tree: &BfsTree) -> u64 {
    let mut f = Fingerprint::new();
    f.mix(q.vertex_count() as u64);
    for u in q.vertices() {
        f.mix(u64::from(q.label(u).index() as u32));
    }
    f.mix(q.edge_count() as u64);
    for &(a, b) in q.edges() {
        f.mix(((a.index() as u64) << 32) | b.index() as u64);
    }
    f.mix(tree.root().index() as u64);
    for &u in tree.bfs_order() {
        let parent = tree
            .parent(u)
            .map(|p| p.index() as u64 + 1)
            .unwrap_or(0);
        f.mix(((u.index() as u64) << 32) | parent);
    }
    f.finish()
}

/// The full cache key of a query's build: query structure, graph epoch,
/// and build options. `Hash`/`Eq` so it drops straight into a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`query_fingerprint`] of `(q, tree)`.
    pub query: u64,
    /// Epoch of the loaded data graph (owner-assigned; bump on any change).
    pub graph_epoch: u64,
    /// Fingerprint of the [`CstOptions`] the CST is built with.
    pub options: u64,
}

impl PlanKey {
    /// Derives the key for building `(q, tree)` against the graph at
    /// `graph_epoch` under `options`.
    pub fn derive(
        q: &QueryGraph,
        tree: &BfsTree,
        options: &CstOptions,
        graph_epoch: u64,
    ) -> PlanKey {
        let CstOptions { use_nlf, refine } = *options;
        let mut f = Fingerprint::new();
        f.mix(u64::from(use_nlf));
        f.mix(u64::from(refine));
        PlanKey {
            query: query_fingerprint(q, tree),
            graph_epoch,
            options: f.finish(),
        }
    }
}

/// Default cap of `fast::prepare_partitions`' root fan-out
/// (`fast::FastConfig::pipeline_shards` = `None`).
pub const DEFAULT_SHARDS: usize = 16;

/// Inert: there is one plan, the whole root list, so this type has nothing
/// to choose. It stays only because the benchmark assigns
/// `fast::FastConfig::shard_planner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlanner {
    /// The one plan ([`plan_pipeline_shards`]).
    #[default]
    Auto,
}

/// A decomposition of the sorted root candidate list: shard `s` owns
/// `roots[ranges[s]]`. What a serving layer's tier-1 cache holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPlan {
    /// Contiguous shard boundaries over the sorted root candidate list.
    pub ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// The equal-count cut of `count` roots into `shards` chunks, clamped
    /// to `[1, count]` (the even split of Algorithm 2 line 4): the first
    /// `count % shards` chunks are one root longer.
    pub fn contiguous(count: usize, shards: usize) -> ShardPlan {
        let shards = shards.clamp(1, count.max(1));
        let (base, extra) = (count / shards, count % shards);
        let mut start = 0usize;
        let ranges = (0..shards)
            .map(|s| {
                let len = base + usize::from(s < extra);
                start += len;
                start - len..start
            })
            .collect();
        ShardPlan { ranges }
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }
}

/// The plan of the one build every host flow runs: all of `roots` as one
/// range.
pub fn plan_pipeline_shards(roots: &[VertexId]) -> ShardPlan {
    ShardPlan::contiguous(roots.len(), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::{Label, QueryVertexId};

    fn q1() -> QueryGraph {
        QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(2)],
            &[(0, 1), (1, 2)],
        )
        .unwrap()
    }

    #[test]
    fn same_inputs_same_key() {
        let q = q1();
        let tree = BfsTree::new(&q, QueryVertexId::new(0));
        let opts = CstOptions::default();
        let a = PlanKey::derive(&q, &tree, &opts, 7);
        let b = PlanKey::derive(&q, &tree, &opts, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn structure_root_epoch_and_options_all_discriminate() {
        let q = q1();
        let tree = BfsTree::new(&q, QueryVertexId::new(0));
        let opts = CstOptions::default();
        let base = PlanKey::derive(&q, &tree, &opts, 0);

        // Different labels.
        let q2 = QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(1)],
            &[(0, 1), (1, 2)],
        )
        .unwrap();
        let tree2 = BfsTree::new(&q2, QueryVertexId::new(0));
        assert_ne!(base.query, PlanKey::derive(&q2, &tree2, &opts, 0).query);

        // Different tree root over the same query.
        let other_root = BfsTree::new(&q, QueryVertexId::new(1));
        assert_ne!(base.query, query_fingerprint(&q, &other_root));

        // Epoch bump invalidates.
        assert_ne!(base, PlanKey::derive(&q, &tree, &opts, 1));

        // Every build knob discriminates.
        for changed in [
            CstOptions {
                use_nlf: !opts.use_nlf,
                ..opts
            },
            CstOptions {
                refine: !opts.refine,
                ..opts
            },
        ] {
            let key = PlanKey::derive(&q, &tree, &changed, 0);
            assert_ne!(base.options, key.options, "{changed:?}");
        }
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for count in [0usize, 1, 5, 16, 17, 100] {
            for shards in [1usize, 2, 7, 16, 200] {
                let plan = ShardPlan::contiguous(count, shards);
                assert_eq!(plan.shard_count(), shards.clamp(1, count.max(1)));
                let mut total = 0usize;
                let mut prev_end = 0usize;
                for r in &plan.ranges {
                    assert_eq!(r.start, prev_end);
                    prev_end = r.end;
                    total += r.len();
                }
                assert_eq!(total, count, "count={count} shards={shards}");
            }
        }
        for count in [0u32, 1, 5] {
            let roots: Vec<VertexId> = (0..count).map(VertexId::new).collect();
            let plan = plan_pipeline_shards(&roots);
            assert_eq!(plan.shard_count(), 1);
            assert_eq!(plan.ranges[0], 0..roots.len());
        }
    }
}
