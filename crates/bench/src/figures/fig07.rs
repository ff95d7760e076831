//! Fig. 7: elapsed time of FAST-DRAM vs FAST-BASIC.
//!
//! The paper compares the two on DG10 for q2, q3, q5, q6, q7, q8 and reports
//! ~5x average acceleration, "close to the ratio of the read latency", with
//! the speedup *growing* with dataset size (4.50x DG01, 5.18x DG03, 5.93x
//! DG10) as the fixed transfer overhead amortises.

use crate::harness::{experiment_config, DatasetCache};
use fast::{run_fast, Variant};
use graph_core::{benchmark_query, DatasetId};

/// One row of the figure.
#[derive(Debug, Clone)]
pub struct Row {
    pub query: usize,
    pub dram_sec: f64,
    pub basic_sec: f64,
}

impl Row {
    /// The acceleration ratio FAST-BASIC achieves over FAST-DRAM.
    pub fn speedup(&self) -> f64 {
        self.dram_sec / self.basic_sec
    }
}

/// The queries the paper plots in Fig. 7.
pub const QUERIES: [usize; 6] = [2, 3, 5, 6, 7, 8];

/// Runs the comparison on one dataset.
pub fn run(cache: &mut DatasetCache, dataset: DatasetId) -> Vec<Row> {
    let g = cache.get(dataset);
    QUERIES
        .iter()
        .map(|&qi| {
            let q = benchmark_query(qi);
            let dram = run_fast(&q, g, &experiment_config(Variant::Dram))
                .expect("benchmark query fits the kernel");
            let basic = run_fast(&q, g, &experiment_config(Variant::Basic))
                .expect("benchmark query fits the kernel");
            Row {
                query: qi,
                dram_sec: dram.modeled_total_sec(),
                basic_sec: basic.modeled_total_sec(),
            }
        })
        .collect()
}

/// Renders rows plus the average acceleration.
pub fn render(dataset: DatasetId, rows: &[Row]) -> String {
    let header = vec![
        "query".to_string(),
        "FAST-DRAM".to_string(),
        "FAST-BASIC".to_string(),
        "accel".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("q{}", r.query),
                crate::harness::fmt_time(r.dram_sec),
                crate::harness::fmt_time(r.basic_sec),
                crate::harness::fmt_speedup(r.speedup()),
            ]
        })
        .collect();
    let avg = crate::harness::geomean(&rows.iter().map(Row::speedup).collect::<Vec<_>>());
    format!(
        "Fig. 7: FAST-DRAM vs FAST-BASIC on {dataset}\n{}average acceleration: {:.2}x\n",
        crate::harness::render_table(&header, &body),
        avg
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
    fn basic_beats_dram_on_dg01() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg01);
        assert_eq!(rows.len(), QUERIES.len());
        for r in &rows {
            assert!(
                r.speedup() > 1.0,
                "q{}: DRAM {} vs BASIC {}",
                r.query,
                r.dram_sec,
                r.basic_sec
            );
        }
    }
}
