//! Design-choice ablations beyond the paper's figures (DESIGN.md §4).
//!
//! * `N_o` sweep — Section VI-B's guidance: small `N_o` inflates the
//!   pipelined-fill term of Eq. (2); past the knee, returns diminish.
//! * CST pruning sweep — the Remark of Section V-A: stronger pruning (NLF +
//!   refinement) shrinks the search space but costs host time the FPGA
//!   spends idle; the sweep quantifies the trade-off.

use crate::harness::{experiment_config, DatasetCache};
use cst::CstOptions;
use fast::{run_fast, Variant};
use graph_core::{benchmark_query, DatasetId};

/// One `N_o` point.
#[derive(Debug, Clone)]
pub struct NoRow {
    pub no: u32,
    pub kernel_cycles: u64,
}

/// Sweeps `N_o` for FAST-BASIC on one query (Eq. (2)'s 1/N_o term).
pub fn sweep_no(cache: &mut DatasetCache, dataset: DatasetId, query: usize) -> Vec<NoRow> {
    let g = cache.get(dataset);
    let q = benchmark_query(query);
    [4u32, 16, 64, 256, 1024, 4096]
        .iter()
        .map(|&no| {
            let mut config = experiment_config(Variant::Basic);
            config.spec.no = no;
            let report = run_fast(&q, g, &config).unwrap();
            NoRow {
                no,
                kernel_cycles: report.kernel_cycles,
            }
        })
        .collect()
}

/// One CST-pruning point.
#[derive(Debug, Clone)]
pub struct PruneRow {
    pub label: &'static str,
    pub build_sec: f64,
    pub kernel_cycles: u64,
    pub total_sec: f64,
}

/// Sweeps CST construction strength (Section V-A Remark trade-off).
pub fn sweep_pruning(cache: &mut DatasetCache, dataset: DatasetId, query: usize) -> Vec<PruneRow> {
    let g = cache.get(dataset);
    let q = benchmark_query(query);
    let options = [
        ("minimal (label+degree)", CstOptions::minimal()),
        ("paper CST (refined)", CstOptions::default()),
    ];
    options
        .iter()
        .map(|(label, opts)| {
            let mut config = experiment_config(Variant::Sep);
            config.cst_options = *opts;
            let report = run_fast(&q, g, &config).unwrap();
            PruneRow {
                label,
                build_sec: report.build_time.as_secs_f64(),
                kernel_cycles: report.kernel_cycles,
                total_sec: report.modeled_total_sec(),
            }
        })
        .collect()
}

/// Renders both sweeps.
pub fn render(no_rows: &[NoRow], prune_rows: &[PruneRow]) -> String {
    let mut out = String::from("Ablation A: N_o sweep (FAST-BASIC kernel cycles)\n");
    out.push_str(&crate::harness::render_table(
        &["N_o".to_string(), "kernel cycles".to_string()],
        &no_rows
            .iter()
            .map(|r| vec![r.no.to_string(), r.kernel_cycles.to_string()])
            .collect::<Vec<_>>(),
    ));
    out.push_str("\nAblation B: CST pruning strength (Section V-A Remark)\n");
    out.push_str(&crate::harness::render_table(
        &[
            "construction".to_string(),
            "build".to_string(),
            "kernel cycles".to_string(),
            "total".to_string(),
        ],
        &prune_rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    crate::harness::fmt_time(r.build_sec),
                    r.kernel_cycles.to_string(),
                    crate::harness::fmt_time(r.total_sec),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full figure run; covered by the release-mode CI test step"
    )]
    fn no_sweep_is_monotone_decreasing() {
        let mut cache = DatasetCache::new();
        let rows = sweep_no(&mut cache, DatasetId::Dg01, 2);
        for w in rows.windows(2) {
            assert!(
                w[0].kernel_cycles >= w[1].kernel_cycles,
                "N_o={} gave {} cycles but N_o={} gave {}",
                w[0].no,
                w[0].kernel_cycles,
                w[1].no,
                w[1].kernel_cycles
            );
        }
    }

    #[test]
    fn stronger_pruning_never_increases_kernel_cycles() {
        let mut cache = DatasetCache::new();
        let rows = sweep_pruning(&mut cache, DatasetId::Dg01, 6);
        assert!(rows[0].kernel_cycles >= rows[1].kernel_cycles);
    }
}
