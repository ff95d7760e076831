//! # join-baselines
//!
//! The paper's GPU competitors, GpSM and GSI, re-expressed as breadth-first
//! join algorithms with a **device-memory model** (paper Section III-A /
//! VII-C). No GPU is used — the paper's observations about these systems are
//! memory-capacity and join-strategy effects, which survive the translation
//! to a memory-capped CPU implementation (DESIGN.md §1):
//!
//! * both materialise *all* partial results of each level before starting
//!   the next (breadth-first), so intermediate tables can explode;
//! * **GpSM** joins twice per level (a count pass, then a fill pass) to
//!   avoid write conflicts — lower memory, more work;
//! * **GSI** uses Prealloc-Combine: one pass into a pre-allocated output
//!   sized by the worst-case fan-out — faster, but with the higher peak
//!   memory the paper calls out ("GSI pre-allocates enough memory space
//!   instead of joining twice like GpSM").
//!
//! Runs abort with `OOM` when the modelled device memory (16 GB on the
//! paper's Tesla V100; configurable) is exceeded — reproducing why "both
//! fail to solve all the queries" (Fig. 14).

use graph_core::{BfsTree, Graph, MatchingOrder, QueryGraph, VertexId};
use matching::{GpuCostModel, MatchResult, Outcome, RunLimits};
use std::time::Instant;

/// Which GPU-style baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinBaseline {
    /// Edge-join with two-pass (count + fill) writes.
    GpSm,
    /// Vertex-join with Prealloc-Combine single-pass writes.
    Gsi,
}

impl JoinBaseline {
    /// Table label.
    pub fn name(&self) -> &'static str {
        match self {
            JoinBaseline::GpSm => "GpSM",
            JoinBaseline::Gsi => "GSI",
        }
    }

    /// Both baselines.
    pub const ALL: [JoinBaseline; 2] = [JoinBaseline::GpSm, JoinBaseline::Gsi];
}

/// Device parameters for the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Modelled device (GPU) memory in bytes. Tesla V100: 16 GB.
    pub memory_bytes: usize,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec {
            memory_bytes: 16 << 30,
        }
    }
}

/// Runs a GPU-style join baseline end-to-end.
///
/// `limits.timeout` applies; `limits.memory_cap` is ignored in favour of the
/// device memory model in `device`.
pub fn run_join_baseline(
    baseline: JoinBaseline,
    q: &QueryGraph,
    g: &Graph,
    device: &DeviceSpec,
    limits: &RunLimits,
) -> MatchResult {
    let build_start = Instant::now();
    let root = graph_core::select_root(q, g);
    let tree = BfsTree::new(q, root);
    let order =
        MatchingOrder::new(q, tree.bfs_order().to_vec()).expect("BFS order is always connected");
    // The data graph resides in device memory for both systems.
    let graph_bytes = g.memory_bytes();
    let build_time = build_start.elapsed();

    let match_start = Instant::now();
    let n = order.len();
    let row_bytes = |width: usize| width * std::mem::size_of::<VertexId>();

    // Backward neighbours per depth.
    let backward: Vec<Vec<usize>> = order
        .as_slice()
        .iter()
        .map(|&u| {
            order
                .backward_neighbors(q, u)
                .iter()
                .map(|&b| order.position_of(b))
                .collect()
        })
        .collect();

    // Level 0: candidate vertices of the root.
    let mut table: Vec<VertexId> = g
        .vertices_with_label(q.label(order.first()))
        .iter()
        .copied()
        .filter(|&v| g.degree(v) >= q.degree(order.first()))
        .collect();
    let mut width = 1usize;
    let mut peak_memory = graph_bytes + table.len() * row_bytes(1);
    let mut partials = table.len() as u64;
    // Device-side work counters for the GPU cost model.
    let mut probe_ops = table.len() as u64;
    let mut output_rows = table.len() as u64;
    let mut levels = 1u32;
    let gpu = GpuCostModel::default();

    let deadline = limits.timeout.map(|t| (Instant::now(), t));
    let fail = |outcome: Outcome, emb, peak, partials, match_start: Instant| MatchResult {
        algorithm: baseline.name().to_string(),
        outcome,
        embeddings: emb,
        build_time,
        match_time: match_start.elapsed(),
        peak_memory_bytes: peak,
        partials_generated: partials,
        modeled_build_sec: 0.0,
        modeled_match_sec: 0.0,
    };

    #[allow(clippy::needless_range_loop)] // depth also drives `order` and the loop exit
    for depth in 1..n {
        let u = order.vertex_at(depth);
        let label = q.label(u);
        let min_degree = q.degree(u);
        let back = &backward[depth];
        let anchor = back[0];
        let rows = table.len() / width;

        // --- Pass 1 (both systems): measure fan-out. GpSM uses it as the
        //     exact output size; GSI uses the worst-case upper bound for
        //     pre-allocation. ---
        let mut exact_out = 0usize;
        let mut prealloc_rows = 0usize;
        for r in 0..rows {
            let row = &table[r * width..(r + 1) * width];
            let av = row[anchor];
            prealloc_rows += g.degree(av) as usize;
            probe_ops += g.degree(av) as u64;
            for &v in g.neighbors(av) {
                if g.label(v) == label
                    && g.degree(v) >= min_degree
                    && !row.contains(&v)
                    && back[1..].iter().all(|&bd| g.has_edge(row[bd], v))
                {
                    exact_out += 1;
                }
            }
            if let Some((start, budget)) = deadline {
                if r % 4096 == 0 && start.elapsed() > budget {
                    return fail(Outcome::Timeout, 0, peak_memory, partials, match_start);
                }
            }
        }
        partials += exact_out as u64;

        // --- Memory model for this level. ---
        let new_width = width + 1;
        let out_rows_for_memory = match baseline {
            JoinBaseline::GpSm => exact_out,
            JoinBaseline::Gsi => prealloc_rows,
        };
        let level_memory = graph_bytes
            + table.len() * std::mem::size_of::<VertexId>()
            + out_rows_for_memory * row_bytes(new_width);
        peak_memory = peak_memory.max(level_memory);
        if level_memory > device.memory_bytes {
            return fail(Outcome::OutOfMemory, 0, peak_memory, partials, match_start);
        }

        // --- Pass 2: materialise. For GpSM this is genuinely the second
        //     walk over the probe space (the "joining twice" cost); GSI
        //     combined counting with writing, so its fill pass is the only
        //     full pass and pass 1's work models the prealloc sizing scan. ---
        let mut next = Vec::with_capacity(exact_out * new_width);
        for r in 0..rows {
            let row = &table[r * width..(r + 1) * width];
            let av = row[anchor];
            for &v in g.neighbors(av) {
                if g.label(v) == label
                    && g.degree(v) >= min_degree
                    && !row.contains(&v)
                    && back[1..].iter().all(|&bd| g.has_edge(row[bd], v))
                {
                    next.extend_from_slice(row);
                    next.push(v);
                }
            }
            if let Some((start, budget)) = deadline {
                if r % 4096 == 0 && start.elapsed() > budget {
                    return fail(Outcome::Timeout, 0, peak_memory, partials, match_start);
                }
            }
        }
        output_rows += exact_out as u64;
        levels += 1;
        if baseline == JoinBaseline::GpSm {
            // Second (fill) pass re-probes the whole space.
            probe_ops += prealloc_rows as u64;
        }
        table = next;
        width = new_width;
        if table.is_empty() {
            break;
        }
    }

    let embeddings = if width == n {
        (table.len() / width) as u64
    } else {
        0
    };
    MatchResult {
        algorithm: baseline.name().to_string(),
        outcome: Outcome::Completed,
        embeddings,
        build_time,
        match_time: match_start.elapsed(),
        peak_memory_bytes: peak_memory,
        partials_generated: partials,
        modeled_build_sec: graph_bytes as f64 / gpu.transfer_bandwidth,
        modeled_match_sec: gpu.join_time_sec(probe_ops, output_rows, levels, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::generators::random_labelled_graph;
    use graph_core::Label;
    use matching::vf2_count;

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn queries() -> Vec<QueryGraph> {
        vec![
            QueryGraph::new(vec![l(0), l(1), l(2)], &[(0, 1), (1, 2)]).unwrap(),
            QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (1, 2), (0, 2)]).unwrap(),
            QueryGraph::new(
                vec![l(0), l(1), l(0), l(1)],
                &[(0, 1), (1, 2), (2, 3), (3, 0)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn join_counts_match_vf2() {
        for (qi, q) in queries().into_iter().enumerate() {
            let g = random_labelled_graph(40, 0.2, 3, 200 + qi as u64);
            let expected = vf2_count(&q, &g);
            for b in JoinBaseline::ALL {
                let r =
                    run_join_baseline(b, &q, &g, &DeviceSpec::default(), &RunLimits::unlimited());
                assert_eq!(r.outcome, Outcome::Completed, "{b:?} q{qi}");
                assert_eq!(r.embeddings, expected, "{} q{qi}", b.name());
            }
        }
    }

    #[test]
    fn gsi_peak_memory_at_least_gpsm() {
        // The Prealloc-Combine upper bound dominates the exact output size.
        let q = queries().remove(2);
        let g = random_labelled_graph(80, 0.15, 2, 300);
        let gpsm = run_join_baseline(
            JoinBaseline::GpSm,
            &q,
            &g,
            &DeviceSpec::default(),
            &RunLimits::unlimited(),
        );
        let gsi = run_join_baseline(
            JoinBaseline::Gsi,
            &q,
            &g,
            &DeviceSpec::default(),
            &RunLimits::unlimited(),
        );
        assert!(gsi.peak_memory_bytes >= gpsm.peak_memory_bytes);
    }

    #[test]
    fn tiny_device_memory_reports_oom() {
        let q = queries().remove(1);
        let g = random_labelled_graph(100, 0.2, 2, 301);
        let device = DeviceSpec { memory_bytes: 64 };
        let r = run_join_baseline(JoinBaseline::Gsi, &q, &g, &device, &RunLimits::unlimited());
        assert_eq!(r.outcome, Outcome::OutOfMemory);
        assert_eq!(r.outcome.table_marker(), "OOM");
    }

    #[test]
    fn empty_result_when_label_absent() {
        let q = QueryGraph::new(vec![l(9), l(1)], &[(0, 1)]).unwrap();
        let g = random_labelled_graph(30, 0.2, 2, 302);
        let r = run_join_baseline(
            JoinBaseline::GpSm,
            &q,
            &g,
            &DeviceSpec::default(),
            &RunLimits::unlimited(),
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.embeddings, 0);
    }
}
