//! The paper's CPU baselines as engine configurations.
//!
//! | baseline | index | order | extension | memory model |
//! |----------|-------|-------|-----------|--------------|
//! | CFL-Match | CPI-like (refined) | core-forest-leaf | edge verification via an **adjacency matrix** | `|V|²/8` bytes for the matrix — the reason CFL goes OOM on DG60 (Section VII-D) |
//! | DAF | CS (refined; a second pass would remove nothing) | candidate-size first | intersection | index only |
//! | CECI | BFS-tree index | BFS order | intersection | index only |
//!
//! Simplifications vs the original systems (documented in DESIGN.md): DAF's
//! failing-set pruning and CECI's embedding-cluster compression are omitted;
//! both accelerate the originals by constant-to-moderate factors without
//! changing the relative picture the paper reports at our scale.

use crate::cost_model::CpuCostModel;
use crate::engine::{run_backtrack, AnchorPolicy, ExtensionMethod};
use crate::limits::{MatchResult, Outcome, RunLimits};
use cst::{build_cst_with_stats, CstOptions};
use graph_core::{
    cfl_style_order, ceci_style_order, daf_style_order, select_root, BfsTree, Graph,
    MatchingOrder, QueryGraph,
};
use std::time::Instant;

/// Which baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    Cfl,
    Daf,
    Ceci,
}

impl Baseline {
    /// Table label.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::Cfl => "CFL",
            Baseline::Daf => "DAF",
            Baseline::Ceci => "CECI",
        }
    }

    /// All baselines.
    pub const ALL: [Baseline; 3] = [Baseline::Cfl, Baseline::Daf, Baseline::Ceci];
}

/// Modelled peak memory of a baseline on graph `g` (index + verification
/// structures), in bytes.
pub fn modelled_memory_bytes(baseline: Baseline, g: &Graph, index_bytes: usize) -> usize {
    match baseline {
        // CFL's released implementation uses an adjacency-matrix edge oracle;
        // |V|² bits. This is what kills it on billion-scale graphs.
        Baseline::Cfl => {
            let n = g.vertex_count();
            index_bytes + n.saturating_mul(n) / 8
        }
        Baseline::Daf | Baseline::Ceci => index_bytes,
    }
}

/// Index construction options of every baseline: none of the original
/// systems applies the NLF (neighbour label frequency) filter FAST's CST
/// construction uses. DAF's CS refines repeatedly, but under the child-only
/// rule one bottom-up pass is already the fixpoint, so all three refine once.
pub const BASELINE_INDEX_OPTIONS: CstOptions = CstOptions {
    use_nlf: false,
    refine: true,
};

/// The extension method of each original system: CFL expands from the CPI
/// tree-parent list and verifies the other backward edges, each an
/// `O(log d)` probe into the CST that answers as `G` would (Theorem 1),
/// priced as CFL's check; DAF and CECI intersect.
pub fn baseline_extension(baseline: Baseline) -> ExtensionMethod {
    match baseline {
        Baseline::Cfl => ExtensionMethod::EdgeVerification(AnchorPolicy::FirstBackward),
        Baseline::Daf | Baseline::Ceci => ExtensionMethod::Intersection,
    }
}

/// The matching order each baseline uses.
pub fn baseline_order(baseline: Baseline, q: &QueryGraph, g: &Graph, tree: &BfsTree) -> MatchingOrder {
    match baseline {
        Baseline::Cfl => cfl_style_order(q, tree),
        Baseline::Daf => daf_style_order(q, g, tree.root()),
        Baseline::Ceci => ceci_style_order(q, tree),
    }
}

/// Runs a baseline end-to-end (index construction + enumeration).
pub fn run_baseline(
    baseline: Baseline,
    q: &QueryGraph,
    g: &Graph,
    limits: &RunLimits,
) -> MatchResult {
    let build_start = Instant::now();
    let root = select_root(q, g);
    let tree = BfsTree::new(q, root);
    let (index, build_stats) = build_cst_with_stats(q, g, &tree, BASELINE_INDEX_OPTIONS);
    let build_time = build_start.elapsed();
    let cost = CpuCostModel::default();
    let modeled_build_sec = cost.index_time_sec(build_stats.adjacency_entries);

    let peak_memory = modelled_memory_bytes(baseline, g, index.size_bytes());
    if let Some(cap) = limits.memory_cap {
        if peak_memory > cap {
            return MatchResult {
                algorithm: baseline.name().to_string(),
                outcome: Outcome::OutOfMemory,
                embeddings: 0,
                build_time,
                match_time: std::time::Duration::ZERO,
                peak_memory_bytes: peak_memory,
                partials_generated: 0,
                modeled_build_sec,
                modeled_match_sec: 0.0,
            };
        }
    }

    let order = baseline_order(baseline, q, g, &tree);
    let extension = baseline_extension(baseline);

    let match_start = Instant::now();
    let (outcome, stats) = run_backtrack(q, g, &index, &order, extension, limits);
    let match_time = match_start.elapsed();

    MatchResult {
        algorithm: baseline.name().to_string(),
        outcome,
        embeddings: stats.embeddings,
        build_time,
        match_time,
        peak_memory_bytes: peak_memory,
        partials_generated: stats.partials_generated,
        modeled_build_sec,
        modeled_match_sec: cost.search_time_sec(&stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2::vf2_count;
    use graph_core::generators::random_labelled_graph;
    use graph_core::Label;

    fn queries() -> Vec<QueryGraph> {
        let l = Label::new;
        vec![
            // Path.
            QueryGraph::new(vec![l(0), l(1), l(2)], &[(0, 1), (1, 2)]).unwrap(),
            // Triangle.
            QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (1, 2), (0, 2)]).unwrap(),
            // Square with chord.
            QueryGraph::new(
                vec![l(0), l(1), l(0), l(1)],
                &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn all_baselines_match_vf2() {
        for (qi, q) in queries().into_iter().enumerate() {
            let g = random_labelled_graph(40, 0.2, 3, 100 + qi as u64);
            let expected = vf2_count(&q, &g);
            for b in Baseline::ALL {
                let r = run_baseline(b, &q, &g, &RunLimits::unlimited());
                assert_eq!(r.outcome, Outcome::Completed, "{:?} q{qi}", b);
                assert_eq!(
                    r.embeddings,
                    expected,
                    "{} disagrees with VF2 on q{qi}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn cfl_memory_model_includes_matrix() {
        let g = random_labelled_graph(1000, 0.01, 3, 5);
        let matrix_bytes = 1000 * 1000 / 8;
        assert!(modelled_memory_bytes(Baseline::Cfl, &g, 0) >= matrix_bytes);
        assert_eq!(modelled_memory_bytes(Baseline::Daf, &g, 123), 123);
    }

    #[test]
    fn cfl_ooms_under_cap() {
        let q = queries().remove(0);
        let g = random_labelled_graph(2000, 0.005, 3, 6);
        let limits = RunLimits {
            memory_cap: Some(100_000), // far below the 500 KB matrix
            ..RunLimits::unlimited()
        };
        let r = run_baseline(Baseline::Cfl, &q, &g, &limits);
        assert_eq!(r.outcome, Outcome::OutOfMemory);
        // Intersection-based baselines survive the same cap.
        let r2 = run_baseline(Baseline::Ceci, &q, &g, &limits);
        assert_eq!(r2.outcome, Outcome::Completed);
    }

    #[test]
    fn result_reports_positive_times() {
        let q = queries().remove(1);
        let g = random_labelled_graph(60, 0.2, 2, 8);
        let r = run_baseline(Baseline::Daf, &q, &g, &RunLimits::unlimited());
        assert!(r.total_time() >= r.build_time);
        assert!(r.partials_generated > 0 || r.embeddings == 0);
    }
}
