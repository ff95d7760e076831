//! Fig. 10: partition time per embedding as the data graph grows.
//!
//! The paper reports the partition time normalised by the number of
//! embeddings staying near-flat (1.09-2.15 ns/embedding from DG01 to DG60),
//! demonstrating the partition mechanism scales with the workload.

use crate::harness::{experiment_config, DatasetCache};
use fast::{run_fast, Variant};
use graph_core::{benchmark_query, DatasetId};

/// One (query, dataset) point.
#[derive(Debug, Clone)]
pub struct Row {
    pub query: usize,
    pub dataset: DatasetId,
    pub embeddings: u64,
    pub partition_time_sec: f64,
}

impl Row {
    /// Seconds of partitioning per embedding.
    pub fn time_per_embedding(&self) -> f64 {
        if self.embeddings == 0 {
            f64::INFINITY
        } else {
            self.partition_time_sec / self.embeddings as f64
        }
    }
}

/// The queries the paper plots in Fig. 10.
pub const QUERIES: [usize; 6] = [0, 1, 2, 4, 7, 8];

/// Runs the measurement.
pub fn run(cache: &mut DatasetCache, datasets: &[DatasetId]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &d in datasets {
        let g = cache.get(d);
        for &qi in &QUERIES {
            let q = benchmark_query(qi);
            let report = run_fast(&q, g, &experiment_config(Variant::Sep))
                .expect("benchmark query fits the kernel");
            rows.push(Row {
                query: qi,
                dataset: d,
                embeddings: report.embeddings,
                partition_time_sec: report.modeled_partition_sec,
            });
        }
    }
    rows
}

/// Renders the figure, with per-dataset averages.
pub fn render(rows: &[Row]) -> String {
    let header = vec![
        "query".to_string(),
        "dataset".to_string(),
        "#embeddings".to_string(),
        "partition time".to_string(),
        "per embedding".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("q{}", r.query),
                r.dataset.to_string(),
                r.embeddings.to_string(),
                crate::harness::fmt_time(r.partition_time_sec),
                if r.time_per_embedding().is_finite() {
                    format!("{:.2}ns", r.time_per_embedding() * 1e9)
                } else {
                    "-".to_string()
                },
            ]
        })
        .collect();
    let mut out = format!(
        "Fig. 10: partition time per embedding\n{}",
        crate::harness::render_table(&header, &body)
    );
    for d in graph_core::DatasetId::ALL {
        let per: Vec<f64> = rows
            .iter()
            .filter(|r| r.dataset == d && r.embeddings > 0)
            .map(Row::time_per_embedding)
            .collect();
        if !per.is_empty() {
            out.push_str(&format!(
                "average {d}: {:.2}ns/embedding\n",
                crate::harness::geomean(&per) * 1e9
            ));
        }
    }
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
    fn rows_have_embeddings() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, &[DatasetId::Dg01]);
        assert_eq!(rows.len(), QUERIES.len());
        assert!(rows.iter().any(|r| r.embeddings > 0));
    }
}
