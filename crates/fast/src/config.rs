//! Configuration of the co-designed framework.

use crate::host::FastError;
use crate::kernel::{CollectMode, PARTIAL_SLOT_BYTES};
use crate::variants::Variant;
use cst::{CstOptions, PartitionConfig, ShardPlan, ShardPlanner};
use fpga_sim::{FpgaSpec, StageLatencies};
use std::sync::Arc;

/// Full configuration for a FAST run.
#[derive(Debug, Clone)]
pub struct FastConfig {
    /// Device parameters (Alveo U200 defaults).
    pub spec: FpgaSpec,
    /// Which variant to run (the paper's final algorithm is FAST-SHARE).
    pub variant: Variant,
    /// CPU workload share `δ` (only used by FAST-SHARE; the paper's best
    /// value is 0.1, Fig. 13).
    pub delta: f64,
    /// CST construction pruning strength.
    pub cst_options: CstOptions,
    /// What to do with embeddings.
    pub collect: CollectMode,
    /// Host-side worker threads building shard CSTs (`cst::pipeline`).
    /// Every flow is the same build → shard → partition stream under one
    /// rule, [`build_options`](Self::build_options): `1` (default) builds
    /// one contiguous shard — the paper's Fig. 2 — and `> 1` builds
    /// [`pipeline_shards`](Self::pipeline_shards) contiguous equal-count
    /// shards on worker threads so offload overlaps construction. At `1`,
    /// `prepare_partitions` (serving, `run_multi_fpga`) gets the shards'
    /// root localisation from the partitioner instead: its first split fans
    /// the root out into at most `pipeline_shards` chunks
    /// (`cst::PartitionConfig::root_fanout`). Embedding counts are identical
    /// for every value (`tests/prop_pipeline_parallel.rs`).
    pub host_threads: usize,
    /// Shard (batch) count of the host pipeline; `None` resolves to
    /// `cst::DEFAULT_SHARDS`. Deliberately **not** derived from
    /// `host_threads`, so the shards do not depend on how many threads
    /// build them. At `host_threads > 1` this is the exact shard count,
    /// `min(pipeline_shards, |C(root)|)`; at `1` it caps
    /// `prepare_partitions`' root fan-out, which cuts at most
    /// `⌊W_CST / N_o⌋` chunks (at least 1) so that no chunk carries less
    /// than one kernel round of estimated work (`run_fast` builds one shard
    /// and does not fan out).
    pub pipeline_shards: Option<usize>,
    /// Inert: the pipeline has one cut (contiguous equal-count shards), so
    /// this field chooses nothing. It stays only because the benchmark
    /// assigns it.
    pub shard_planner: ShardPlanner,
    /// Optional precomputed shard plan. A [`ShardPlan`] is a pure function
    /// of `(q, g, tree, options)`, so a serving layer that caches plans by
    /// [`cst::PlanKey`] hands the hit back through this field and the run
    /// replays it (the cache path and the one-shot path share the same
    /// pipeline entry, `cst::for_each_shard_cst_planned`). Must have been
    /// planned for the same query/graph/options; a mismatched plan is
    /// detected and silently replanned. `None` (default) plans fresh.
    pub shard_plan: Option<Arc<ShardPlan>>,
    /// Capture this build's [`crate::PreparedCsts`] on
    /// `prepare_partitions` (returned on `PreparePhase::prepared`) so a
    /// serving layer can insert it into a tier-2 cache. Off by default:
    /// capture clones shard/partition `Arc`s and keeps payloads alive past
    /// the run.
    pub capture_prepared: bool,
}

impl Default for FastConfig {
    fn default() -> Self {
        FastConfig {
            spec: FpgaSpec::default(),
            variant: Variant::Share,
            delta: 0.1,
            cst_options: CstOptions::default(),
            collect: CollectMode::CountOnly,
            host_threads: 1,
            pipeline_shards: None,
            shard_planner: ShardPlanner::Auto,
            shard_plan: None,
            capture_prepared: false,
        }
    }
}

impl FastConfig {
    /// Default configuration for a specific variant. Non-SHARE variants get
    /// `δ = 0` (no CPU sharing).
    pub fn for_variant(variant: Variant) -> Self {
        FastConfig {
            variant,
            delta: if variant.shares_with_cpu() { 0.1 } else { 0.0 },
            ..Default::default()
        }
    }

    /// A small-device configuration for tests: tiny BRAM so partitioning
    /// actually triggers on test-sized graphs.
    pub fn test_small(variant: Variant) -> Self {
        FastConfig {
            spec: FpgaSpec::test_small(),
            variant,
            delta: if variant.shares_with_cpu() { 0.1 } else { 0.0 },
            ..Default::default()
        }
    }

    /// Derives the CST partition thresholds from the device spec: δ_S is the
    /// BRAM budget left after reserving the `(|V(q)|-1) × N_o` partial-result
    /// buffer; δ_D is `Port_max`.
    ///
    /// δ_S is checked against `Cst::payload_bytes`, which excludes the CSR
    /// offsets scaffold, while BRAM must hold the full footprint. The grant
    /// therefore scales the budget by the CST's measured payload share
    /// (`payload / footprint`) — the greedy split target — and additionally
    /// sets `footprint_budget` to the **raw** budget, so the partitioner's
    /// post-fit check re-splits any partition whose scaffold-inclusive
    /// `Cst::size_bytes` would overflow the physical BRAM. The average-share
    /// δ_S alone is not a per-partition bound (a partition whose adjacency
    /// prunes faster than its candidate sets is scaffold-heavier than the
    /// whole CST); the footprint check closes exactly that gap without the
    /// `budget / |V(q)|` conservatism that would explode partition counts.
    pub fn partition_config(&self, query_len: usize, cst: &cst::Cst) -> PartitionConfig {
        let budget = self.spec.cst_bram_budget(query_len, PARTIAL_SLOT_BYTES);
        let payload = cst.payload_bytes();
        let footprint = payload + cst.scaffold_bytes();
        let delta_s = if footprint == 0 {
            budget
        } else {
            (budget as u128 * payload as u128 / footprint as u128) as usize
        };
        PartitionConfig {
            delta_s: delta_s.max(1),
            delta_d: self.spec.port_max,
            footprint_budget: Some(budget.max(1)),
            // Greedy; the Fig. 8 ablation sets its `k` on this type itself.
            fixed_k: None,
            // Only `prepare_partitions` fans out, and only at T = 1.
            root_fanout: 1,
        }
    }

    /// The options every host flow builds with — the T = 1 rule: one
    /// contiguous shard at `host_threads = 1`, `pipeline_shards`
    /// contiguous shards on `host_threads` workers above that.
    /// `run_fast`, `prepare_partitions` and a serving layer's plan-cache key
    /// all derive from it, so they cannot disagree.
    pub fn build_options(&self) -> cst::PipelineOptions {
        if self.host_threads > 1 {
            cst::PipelineOptions {
                threads: self.host_threads,
                shards: self.pipeline_shards,
                cst: self.cst_options,
            }
        } else {
            cst::PipelineOptions::sequential(self.cst_options)
        }
    }

    /// Refuses a configuration no device can run, so that entry points
    /// (`run_fast`, `run_multi_fpga`, a serving layer's constructor) return
    /// a typed error where the cycle model, the kernel and the share
    /// scheduler would panic.
    pub fn validate(&self) -> Result<(), FastError> {
        if self.spec.no == 0 {
            return Err(FastError::ZeroRoundBudget);
        }
        if self.spec.port_max == 0 {
            return Err(FastError::ZeroPortMax);
        }
        // `contains` is false for NaN too.
        if !(0.0..=1.0).contains(&self.delta) {
            return Err(FastError::DeltaOutOfRange);
        }
        Ok(())
    }

    /// The cycle model induced by this configuration, at the default stage
    /// latencies `L1..L6`.
    ///
    /// # Panics
    /// If `spec.no == 0`; see [`validate`](Self::validate).
    pub fn cycle_model(&self) -> fpga_sim::CycleModel {
        fpga_sim::CycleModel::new(
            StageLatencies::default(),
            self.spec.no,
            self.spec.bram_read_latency,
            self.spec.dram_read_latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_share_with_paper_delta() {
        let c = FastConfig::default();
        assert_eq!(c.variant, Variant::Share);
        assert!((c.delta - 0.1).abs() < 1e-12);
    }

    #[test]
    fn non_share_variants_disable_delta() {
        let c = FastConfig::for_variant(Variant::Basic);
        assert_eq!(c.delta, 0.0);
        let s = FastConfig::for_variant(Variant::Share);
        assert!(s.delta > 0.0);
    }

    #[test]
    fn partition_config_reserves_buffer() {
        use graph_core::{BfsTree, Label, QueryGraph, QueryVertexId};
        let q = QueryGraph::new(vec![Label::new(0), Label::new(1)], &[(0, 1)]).unwrap();
        let g = graph_core::generators::random_labelled_graph(30, 0.2, 2, 5);
        let tree = BfsTree::new(&q, QueryVertexId::new(0));
        let cst = cst::build_cst(&q, &g, &tree);

        let c = FastConfig::default();
        let p6 = c.partition_config(6, &cst);
        let p2 = c.partition_config(2, &cst);
        assert!(p6.delta_s < p2.delta_s, "bigger queries reserve more buffer");
        assert_eq!(p6.delta_d, c.spec.port_max);
        // The grant never exceeds the raw budget (scaffold share is reserved)
        // and never hits zero for a non-degenerate CST.
        assert!(p2.delta_s <= c.spec.cst_bram_budget(2, PARTIAL_SLOT_BYTES));
        assert!(p2.delta_s >= 1);
    }

    #[test]
    fn cycle_model_uses_spec() {
        let c = FastConfig::default();
        let m = c.cycle_model();
        assert_eq!(m.no, c.spec.no);
        assert_eq!(m.dram_read_latency, c.spec.dram_read_latency);
    }
}
