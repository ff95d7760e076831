//! Fig. 9: the number and total size of partitioned CST.
//!
//! Per query and dataset: the number of CST partitions and the ratio
//! `S_CST / S_G` (total partition bytes over data-graph bytes). The paper
//! observes #CST growing with the dataset while `S_CST/S_G` stays below 60%
//! and roughly stable — except q7, whose embedding explosion from DG03 to
//! DG10 inflates it.

use crate::harness::{experiment_config, DatasetCache};
use fast::{run_fast, Variant};
use graph_core::{benchmark_query, DatasetId};

/// One (query, dataset) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    pub query: usize,
    pub dataset: DatasetId,
    pub partitions: usize,
    pub cst_bytes: usize,
    pub graph_bytes: usize,
}

impl Row {
    /// `S_CST / S_G`.
    pub fn size_ratio(&self) -> f64 {
        self.cst_bytes as f64 / self.graph_bytes as f64
    }
}

/// The queries the paper plots in Fig. 9.
pub const QUERIES: [usize; 6] = [0, 1, 2, 4, 7, 8];

/// Runs the measurement for the given datasets.
pub fn run(cache: &mut DatasetCache, datasets: &[DatasetId]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &d in datasets {
        let g = cache.get(d);
        let graph_bytes = g.memory_bytes();
        for &qi in &QUERIES {
            let q = benchmark_query(qi);
            let report = run_fast(&q, g, &experiment_config(Variant::Sep))
                .expect("benchmark query fits the kernel");
            rows.push(Row {
                query: qi,
                dataset: d,
                partitions: report.fpga_partitions + report.cpu_partitions,
                cst_bytes: report.transfer_bytes,
                graph_bytes,
            });
        }
    }
    rows
}

/// Renders the figure.
pub fn render(rows: &[Row]) -> String {
    let header = vec![
        "query".to_string(),
        "dataset".to_string(),
        "#CST".to_string(),
        "S_CST/S_G".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("q{}", r.query),
                r.dataset.to_string(),
                r.partitions.to_string(),
                format!("{:.1}%", r.size_ratio() * 100.0),
            ]
        })
        .collect();
    format!(
        "Fig. 9: number and total size of partitioned CST\n{}",
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full figure run; covered by the release-mode CI test step"
    )]
    fn partitions_grow_with_dataset() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, &[DatasetId::Dg01, DatasetId::Dg03]);
        let total = |d: DatasetId| -> usize {
            rows.iter()
                .filter(|r| r.dataset == d)
                .map(|r| r.partitions)
                .sum()
        };
        assert!(total(DatasetId::Dg03) >= total(DatasetId::Dg01));
        for r in &rows {
            assert!(r.partitions >= 1);
            assert!(
                r.size_ratio() < 2.0,
                "q{} ratio {}",
                r.query,
                r.size_ratio()
            );
        }
    }
}
