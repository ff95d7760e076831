//! Fig. 13: effectiveness of the software scheduler — δ sweep.
//!
//! "We evaluate the effectiveness of the software scheduler by varying δ.
//! … this optimization achieves biggest improvements when δ = 0.1 (e.g. 20%
//! for DG01) … the CPU becomes the bottleneck when δ > 0.15."
//!
//! The sweep measures FAST-SHARE's modelled end-to-end time against the
//! δ = 0 baseline (pure FAST-SEP) averaged over the benchmark queries.

use crate::harness::{experiment_config, DatasetCache};
use fast::{run_fast, Variant};
use graph_core::{benchmark_query, DatasetId};

/// One δ point on one dataset.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: DatasetId,
    pub delta: f64,
    /// Average acceleration vs δ = 0 (positive = faster).
    pub avg_gain: f64,
}

/// The δ values of the paper's sweep.
pub const DELTAS: [f64; 7] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30];

/// Queries averaged over.
pub const QUERIES: [usize; 6] = [1, 2, 3, 5, 7, 8];

/// Runs the sweep on the given datasets.
pub fn run(cache: &mut DatasetCache, datasets: &[DatasetId]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &d in datasets {
        let g = cache.get(d);
        // Baseline: δ = 0.
        let base: Vec<f64> = QUERIES
            .iter()
            .map(|&qi| {
                let q = benchmark_query(qi);
                run_fast(&q, g, &experiment_config(Variant::Sep))
                    .unwrap()
                    .modeled_total_sec()
            })
            .collect();
        for &delta in &DELTAS {
            if delta == 0.0 {
                rows.push(Row {
                    dataset: d,
                    delta,
                    avg_gain: 0.0,
                });
                continue;
            }
            let gains: Vec<f64> = QUERIES
                .iter()
                .zip(&base)
                .map(|(&qi, &base_sec)| {
                    let q = benchmark_query(qi);
                    let mut config = experiment_config(Variant::Share);
                    config.delta = delta;
                    let t = run_fast(&q, g, &config).unwrap().modeled_total_sec();
                    1.0 - t / base_sec
                })
                .collect();
            rows.push(Row {
                dataset: d,
                delta,
                avg_gain: gains.iter().sum::<f64>() / gains.len() as f64,
            });
        }
    }
    rows
}

/// Renders the sweep.
pub fn render(rows: &[Row]) -> String {
    let header = vec![
        "dataset".to_string(),
        "delta".to_string(),
        "avg acceleration".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!("{:.2}", r.delta),
                format!("{:+.1}%", r.avg_gain * 100.0),
            ]
        })
        .collect();
    format!(
        "Fig. 13: average acceleration of FAST-SHARE varying delta (vs delta=0)\n{}",
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
    fn moderate_delta_does_not_catastrophically_regress() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, &[DatasetId::Dg01]);
        let at = |d: f64| {
            rows.iter()
                .find(|r| (r.delta - d).abs() < 1e-9)
                .unwrap()
                .avg_gain
        };
        assert_eq!(at(0.0), 0.0);
        // δ = 0.1 must not lose more than a few percent (it usually gains).
        assert!(at(0.10) > -0.25, "delta=0.1 gain {}", at(0.10));
    }
}
