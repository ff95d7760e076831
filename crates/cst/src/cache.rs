//! Cache-key derivation for shard plans and the artifacts built from them.
//!
//! A [`ShardPlan`](crate::ShardPlan) is a pure function of
//! `(q, g, tree, PipelineOptions)` (see `cst::pipeline`), and so is every
//! shard CST built under it, so a serving layer can cache both across
//! repeated queries. This module derives the cache key: a structural
//! fingerprint of the query and BFS tree, a *graph epoch* supplied by the
//! owner of the loaded graph (bumped whenever the graph changes, so stale
//! plans can never be served), and a fingerprint of every
//! [`PipelineOptions`] knob that influences planning.
//!
//! The key deliberately lives here rather than in the serving crate: the
//! set of plan-relevant inputs is a property of the pipeline, and any new
//! `PipelineOptions` knob must be folded into
//! [`PipelineOptions::plan_fingerprint`] next to the knob itself.

use crate::construct::CstOptions;
use crate::pipeline::PipelineOptions;
use graph_core::{BfsTree, QueryGraph};

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

impl PipelineOptions {
    /// Fingerprint of every knob the shard plan depends on. `threads` is
    /// deliberately excluded: plans are thread-count independent (the
    /// pipeline's determinism contract), so runs at different thread counts
    /// share cache entries.
    pub fn plan_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.mix(self.shards.map(|s| s as u64 + 1).unwrap_or(0));
        let CstOptions { use_nlf, refine } = self.cst;
        f.mix(u64::from(use_nlf));
        f.mix(u64::from(refine));
        f.finish()
    }
}

/// Fingerprint of the exact planning inputs a [`crate::ShardPlan`] was
/// derived from: the root candidate list (which already encodes `(q, g,
/// tree, CstOptions)`) plus the plan-relevant options. Stored on the plan
/// as [`crate::ShardPlan::provenance`] by `plan_pipeline_shards`, and
/// checked by `for_each_shard_cst_planned` before trusting a supplied
/// plan — a stale or foreign plan (even one with a coincidentally equal
/// root count) is detected and replanned.
pub fn plan_provenance(
    roots: &[graph_core::VertexId],
    options: &PipelineOptions,
) -> u64 {
    let mut f = Fingerprint::new();
    f.mix(roots.len() as u64);
    for &v in roots {
        f.mix(v.index() as u64);
    }
    f.mix(options.plan_fingerprint());
    let out = f.finish();
    // 0 is reserved for "hand-built plan, unknown provenance".
    if out == 0 {
        1
    } else {
        out
    }
}

/// The full cache key of a shard plan: query structure, graph epoch, and
/// planning options. `Hash`/`Eq` so it drops straight into a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`query_fingerprint`] of `(q, tree)`.
    pub query: u64,
    /// Epoch of the loaded data graph (owner-assigned; bump on any change).
    pub graph_epoch: u64,
    /// [`PipelineOptions::plan_fingerprint`].
    pub options: u64,
}

impl PlanKey {
    /// Derives the key for planning `(q, tree)` against the graph at
    /// `graph_epoch` under `options`.
    pub fn derive(
        q: &QueryGraph,
        tree: &BfsTree,
        options: &PipelineOptions,
        graph_epoch: u64,
    ) -> PlanKey {
        PlanKey {
            query: query_fingerprint(q, tree),
            graph_epoch,
            options: options.plan_fingerprint(),
        }
    }
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
        let opts = PipelineOptions::default();
        let a = PlanKey::derive(&q, &tree, &opts, 7);
        let b = PlanKey::derive(&q, &tree, &opts, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn structure_root_epoch_and_options_all_discriminate() {
        let q = q1();
        let tree = BfsTree::new(&q, QueryVertexId::new(0));
        let opts = PipelineOptions::default();
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

        // Any planning knob discriminates.
        for changed in [
            PipelineOptions {
                shards: Some(4),
                ..opts
            },
            PipelineOptions {
                cst: CstOptions::minimal(),
                ..opts
            },
        ] {
            assert_ne!(
                opts.plan_fingerprint(),
                changed.plan_fingerprint(),
                "{changed:?}"
            );
        }
    }

    #[test]
    fn threads_do_not_change_the_key() {
        let a = PipelineOptions {
            threads: 1,
            ..PipelineOptions::default()
        };
        let b = PipelineOptions {
            threads: 8,
            ..PipelineOptions::default()
        };
        assert_eq!(a.plan_fingerprint(), b.plan_fingerprint());
    }
}
