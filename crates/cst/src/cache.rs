//! Cache-key derivation for a query's build.
//!
//! Every host flow builds one CST per query (`build_cst_with_stats`), a
//! pure function of `(q, g, CstOptions)`: the BFS tree and matching order
//! it is built under are themselves functions of `(q, g)`. So a serving
//! layer can cache a build's result across repeated queries under a key of
//! three parts: a structural fingerprint of the query, a *graph epoch*
//! supplied by the owner of the loaded graph (bumped whenever the graph
//! changes, so stale entries can never be served), and a fingerprint of the
//! [`CstOptions`] the build runs with. A new build knob must be folded into
//! [`PlanKey::derive`] next to the existing ones.

use crate::construct::CstOptions;
use graph_core::QueryGraph;

/// Incremental FNV-1a over `u64` words ([`Fingerprint::mix`]) —
/// deterministic across processes (unlike `std`'s `DefaultHasher`, whose
/// seeds are unspecified), which a persistent or cross-session cache needs.
/// The one FNV implementation, shared with the snapshot format.
pub use graph_core::snapshot::Fnv as Fingerprint;

/// Structural fingerprint of `q`: labels in vertex order and the sorted
/// edge list (`QueryGraph::edges` holds each edge once as a sorted
/// `(min, max)` pair). Two queries collide only if they have the same
/// labels and the same edges, however those edges were listed — in which
/// case sharing a build is exactly the point.
pub fn query_fingerprint(q: &QueryGraph) -> u64 {
    let mut f = Fingerprint::new();
    f.mix(q.vertex_count() as u64);
    for u in q.vertices() {
        f.mix(u64::from(q.label(u).index() as u32));
    }
    f.mix(q.edge_count() as u64);
    for &(a, b) in q.edges() {
        f.mix(((a.index() as u64) << 32) | b.index() as u64);
    }
    f.finish()
}

/// The full cache key of a query's build: query structure, graph epoch,
/// and build options. `Hash`/`Eq` so it drops straight into a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`query_fingerprint`] of `q`.
    pub query: u64,
    /// Epoch of the loaded data graph (owner-assigned; bump on any change).
    pub graph_epoch: u64,
    /// Fingerprint of the [`CstOptions`] the CST is built with.
    pub options: u64,
}

impl PlanKey {
    /// Derives the key for building `q` against the graph at
    /// `graph_epoch` under `options`.
    pub fn derive(q: &QueryGraph, options: &CstOptions, graph_epoch: u64) -> PlanKey {
        let CstOptions { use_nlf, refine } = *options;
        let mut f = Fingerprint::new();
        f.mix(u64::from(use_nlf));
        f.mix(u64::from(refine));
        PlanKey {
            query: query_fingerprint(q),
            graph_epoch,
            options: f.finish(),
        }
    }
}

/// Default cap of `fast::prepare_partitions`' root fan-out
/// (`fast::FastConfig::pipeline_shards` = `None`).
pub const DEFAULT_SHARDS: usize = 16;

/// Inert: every flow builds one CST over the whole root list, so this type
/// has nothing to choose. It stays only because the benchmark assigns
/// `fast::FastConfig::shard_planner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlanner {
    /// The one plan: the whole root list.
    #[default]
    Auto,
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::Label;

    fn q1() -> QueryGraph {
        QueryGraph::new(
            vec![Label::new(0), Label::new(1), Label::new(2)],
            &[(0, 1), (1, 2)],
        )
        .unwrap()
    }

    /// A key recorded before `Fingerprint` became graph-core's `Fnv`.
    #[test]
    fn key_is_pinned() {
        let key = PlanKey::derive(&q1(), &CstOptions::default(), 7);
        let pinned = PlanKey {
            query: 0x998a_672d_5506_3ed5,
            graph_epoch: 7,
            options: 0x581c_d0fa_58d9_9645,
        };
        assert_eq!(key, pinned);
    }

    #[test]
    fn same_inputs_same_key() {
        let q = q1();
        let opts = CstOptions::default();
        let a = PlanKey::derive(&q, &opts, 7);
        let b = PlanKey::derive(&q, &opts, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_edges_epoch_and_options_all_discriminate() {
        let query = |labels: &[u16], edges: &[(usize, usize)]| {
            QueryGraph::new(labels.iter().map(|&l| Label::new(l)).collect(), edges).unwrap()
        };
        let opts = CstOptions::default();
        let base = PlanKey::derive(&q1(), &opts, 0);

        // Equal labelled edge sets give equal keys, whatever order and
        // orientation the edges were listed in.
        let listed =
            |edges: &[(usize, usize)]| PlanKey::derive(&query(&[0, 1, 2, 1], edges), &opts, 0);
        let square = listed(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(square, listed(&[(3, 0), (2, 1), (0, 1), (3, 2)]));
        assert_ne!(base, square);

        // Different labels over the same edges.
        let relabelled = query(&[0, 1, 1], &[(0, 1), (1, 2)]);
        assert_ne!(base.query, PlanKey::derive(&relabelled, &opts, 0).query);

        // Different edges over the same labels.
        let triangle = query(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        assert_ne!(base.query, PlanKey::derive(&triangle, &opts, 0).query);
        let other_path = query(&[0, 1, 2], &[(0, 2), (1, 2)]);
        assert_ne!(base.query, PlanKey::derive(&other_path, &opts, 0).query);

        // Epoch bump invalidates.
        assert_ne!(base, PlanKey::derive(&q1(), &opts, 1));

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
            let key = PlanKey::derive(&q1(), &changed, 0);
            assert_ne!(base.options, key.options, "{changed:?}");
        }
    }
}
