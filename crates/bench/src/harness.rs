//! Shared experiment infrastructure.
//!
//! The paper's hardware is an Alveo U200 against LDBC graphs of 17M-1.25B
//! edges; this reproduction scales both down together (DESIGN.md §6): the
//! dataset ladder is ~100x smaller, so `experiment_spec` scales the BRAM
//! budget down equivalently, keeping the *relative* partitioning pressure —
//! the number of CST partitions, the δ_S/δ_D triggers, the PCIe-to-kernel
//! time ratios — in the regime the paper evaluates.

use fast::{CollectMode, FastConfig, Variant};
use fpga_sim::FpgaSpec;
use graph_core::{DatasetId, Graph};
use matching::RunLimits;
use std::collections::HashMap;
use std::time::Duration;

/// The scaled device used by all experiments: an Alveo U200 with its 35 MB
/// BRAM scaled by the same ~128x factor as the dataset ladder.
fn experiment_spec() -> FpgaSpec {
    FpgaSpec {
        // The dataset ladder is ~100x smaller than the paper's, but BRAM
        // cannot scale as far: the (|V(q)|-1)·N_o partial-result buffer is a
        // fixed reservation. 2 MB keeps the partition counts (Fig. 9) and
        // the partition-time-to-kernel-time ratio in the paper's regime.
        bram_bytes: 2 << 20,
        no: 512,
        port_max: 2048,
        fifo_depth: 128,
        ..FpgaSpec::default()
    }
}

/// FAST configuration for a variant under the scaled device.
pub fn experiment_config(variant: Variant) -> FastConfig {
    FastConfig {
        spec: experiment_spec(),
        variant,
        delta: if variant.shares_with_cpu() { 0.1 } else { 0.0 },
        collect: CollectMode::CountOnly,
        ..FastConfig::default()
    }
}

/// Limits applied to the CPU/GPU baselines (the paper uses 3 h and 250 GB /
/// 16 GB; we scale the timeout to minutes and the device memory with the
/// dataset ladder).
pub fn baseline_limits() -> RunLimits {
    RunLimits {
        timeout: Some(Duration::from_secs(60)),
        memory_cap: Some(2 << 30),
        max_results: None,
    }
}

/// Scaled GPU device memory for the join baselines (16 GB / 128).
pub fn gpu_device() -> join_baselines::DeviceSpec {
    join_baselines::DeviceSpec {
        memory_bytes: 128 << 20,
    }
}

/// Lazily generated, cached datasets shared across experiments.
#[derive(Default)]
pub struct DatasetCache {
    graphs: HashMap<DatasetId, Graph>,
}

impl DatasetCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (generating on first use) the dataset.
    pub fn get(&mut self, id: DatasetId) -> &Graph {
        self.graphs.entry(id).or_insert_with(|| {
            eprintln!("[harness] generating {id} ...");
            id.generate()
        })
    }
}

/// Formats seconds in the paper's style (ms below 1 s, otherwise s).
pub fn fmt_time(sec: f64) -> String {
    if sec.is_infinite() {
        "INF".to_string()
    } else if sec < 1.0 {
        format!("{:.1}ms", sec * 1e3)
    } else {
        format!("{sec:.2}s")
    }
}

/// Formats a ratio as `12.3x`.
pub fn fmt_speedup(r: f64) -> String {
    if r.is_finite() {
        format!("{r:.1}x")
    } else {
        "INF".to_string()
    }
}

/// Geometric mean of positive values (0 for empty input).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Renders a simple aligned table.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_scaled_down() {
        let s = experiment_spec();
        assert!(s.bram_bytes < FpgaSpec::default().bram_bytes);
        assert_eq!(s.clock_mhz, 300.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_time(0.5), "500.0ms");
        assert_eq!(fmt_time(2.0), "2.00s");
        assert_eq!(fmt_time(f64::INFINITY), "INF");
        assert_eq!(fmt_speedup(12.34), "12.3x");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("333"));
        assert!(t.lines().count() == 4);
    }
}
