//! Configuration of the co-designed framework.

use crate::host::FastError;
use crate::kernel::{CollectMode, PARTIAL_SLOT_BYTES};
use crate::variants::Variant;
use cst::{CstOptions, PartitionConfig, ShardPlanner};
use fpga_sim::{FpgaSpec, StageLatencies};

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
    /// Cap of [`prepare_partitions`](crate::prepare_partitions)' root
    /// fan-out: the partitioner's first split cuts the one CST's root
    /// candidates into at most this many and at most `⌊W_CST / N_o⌋`
    /// chunks (at least 1), so that no chunk carries less than one kernel
    /// round of estimated work (`cst::PartitionConfig::root_fanout`).
    /// `None` resolves to `cst::DEFAULT_SHARDS`; `run_fast` does not fan
    /// out.
    pub pipeline_shards: Option<usize>,
    /// Inert: every flow builds one CST, so this field chooses nothing. It
    /// stays only because the benchmark assigns it.
    pub shard_planner: ShardPlanner,
    /// Capture this build's [`crate::PreparedCsts`] on
    /// `prepare_partitions` (returned on `PreparePhase::prepared`). Only
    /// the benchmark's probe sets it, to read the root CST's size; serving
    /// caches the jobs it staged instead. Off by default: capture clones
    /// partition `Arc`s and keeps the whole CST alive past partitioning.
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
            pipeline_shards: None,
            shard_planner: ShardPlanner::Auto,
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
            // Only `prepare_partitions` fans out.
            root_fanout: 1,
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
        assert!(
            p6.delta_s < p2.delta_s,
            "bigger queries reserve more buffer"
        );
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
