//! Multi-FPGA extension (paper Section VII-E).
//!
//! "Each CST structure is an independent and complete search space. Combined
//! with our workload estimation method, the CPU can assign the CST structure
//! to the FPGA with the minimum total workload and collect final results
//! after all the FPGAs complete their tasks."
//!
//! This module implements exactly that: least-loaded assignment of the
//! host's partition stream ([`prepare_partitions`]) across `k` emulated
//! cards, with per-card cycle totals and the resulting makespan/speedup.

use crate::backend::FpgaBackend;
use crate::config::FastConfig;
use crate::host::{prepare_partitions, FastError};
use crate::kernel::CollectMode;
use crate::plan::KernelPlan;
use graph_core::{path_based_order, select_root, BfsTree, Graph, QueryGraph};

/// Report of a multi-card run.
#[derive(Debug, Clone)]
pub struct MultiFpgaReport {
    /// Cards used.
    pub cards: usize,
    /// Total embeddings across cards.
    pub embeddings: u64,
    /// Estimated workload booked per card.
    pub per_card_workload: Vec<f64>,
    /// Modelled kernel cycles per card (sum over its partitions).
    pub per_card_cycles: Vec<u64>,
    /// Partitions assigned per card.
    pub per_card_partitions: Vec<usize>,
    /// Makespan: the slowest card's cycles.
    pub makespan_cycles: u64,
    /// Aggregate cycles a single card would need.
    pub single_card_cycles: u64,
}

impl MultiFpgaReport {
    /// Parallel speedup over a single card.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            1.0
        } else {
            self.single_card_cycles as f64 / self.makespan_cycles as f64
        }
    }

    /// Load imbalance: max/mean booked workload.
    pub fn imbalance(&self) -> f64 {
        let max = self.per_card_workload.iter().cloned().fold(0.0, f64::max);
        let mean: f64 =
            self.per_card_workload.iter().sum::<f64>() / self.per_card_workload.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Runs the workload-aware multi-FPGA assignment over `cards` emulated
/// cards; `cards == 0` is the typed [`FastError::NoCards`].
pub fn run_multi_fpga(
    q: &QueryGraph,
    g: &Graph,
    config: &FastConfig,
    cards: usize,
) -> Result<MultiFpgaReport, FastError> {
    if cards == 0 {
        return Err(FastError::NoCards);
    }
    config.validate()?;
    let root = select_root(q, g);
    let tree = BfsTree::new(q, root);
    let order = path_based_order(q, &tree, g);
    let plan = KernelPlan::new(q, &order, &tree)?;
    // Every card runs the same spec and variant: one backend stands for all.
    let backend = FpgaBackend::from_config(config);

    let mut per_card_workload = vec![0.0f64; cards];
    let mut per_card_cycles = vec![0u64; cards];
    let mut per_card_partitions = vec![0usize; cards];
    let mut embeddings = 0u64;

    prepare_partitions(q, g, config, &tree, &order, &mut |job| {
        // Least-loaded card by booked workload (ties → lowest index).
        let card = (0..cards)
            .min_by(|&a, &b| per_card_workload[a].total_cmp(&per_card_workload[b]))
            .expect("cards >= 1");
        per_card_workload[card] += job.workload;
        per_card_partitions[card] += 1;
        let out = backend.run(&job.cst, &plan, CollectMode::CountOnly);
        embeddings += out.embeddings;
        per_card_cycles[card] += backend.price_cycles(out.counts);
    });

    let makespan_cycles = per_card_cycles.iter().copied().max().unwrap_or(0);
    let single_card_cycles = per_card_cycles.iter().sum();

    Ok(MultiFpgaReport {
        cards,
        embeddings,
        per_card_workload,
        per_card_cycles,
        per_card_partitions,
        makespan_cycles,
        single_card_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;
    use graph_core::generators::random_labelled_graph;
    use graph_core::Label;
    use matching::vf2_count;

    fn setup() -> (QueryGraph, Graph) {
        let l = Label::new;
        let q = QueryGraph::new(
            vec![l(0), l(1), l(0), l(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let g = random_labelled_graph(90, 0.15, 2, 600);
        (q, g)
    }

    #[test]
    fn multi_card_count_matches_vf2() {
        let (q, g) = setup();
        let expected = vf2_count(&q, &g);
        for cards in [1, 2, 4] {
            let config = FastConfig::test_small(Variant::Sep);
            let report = run_multi_fpga(&q, &g, &config, cards).unwrap();
            assert_eq!(report.embeddings, expected, "cards={cards}");
        }
    }

    #[test]
    fn more_cards_do_not_increase_makespan() {
        let (q, g) = setup();
        let config = FastConfig::test_small(Variant::Sep);
        let one = run_multi_fpga(&q, &g, &config, 1).unwrap();
        let four = run_multi_fpga(&q, &g, &config, 4).unwrap();
        assert!(four.makespan_cycles <= one.makespan_cycles);
        assert!(four.speedup() >= 1.0);
        assert_eq!(one.single_card_cycles, one.makespan_cycles);
    }

    #[test]
    fn workload_split_is_reasonably_balanced() {
        let (q, g) = setup();
        let config = FastConfig::test_small(Variant::Sep);
        let report = run_multi_fpga(&q, &g, &config, 2).unwrap();
        // Only meaningful with enough partitions to balance.
        if report.per_card_partitions.iter().sum::<usize>() >= 8 {
            assert!(report.imbalance() < 3.0, "imbalance {}", report.imbalance());
        }
    }
}
