//! Fig. 11 and Fig. 12: the hardware-optimisation ladder.
//!
//! Fig. 11 compares FAST-BASIC with FAST-TASK (task parallelism, up to 50%
//! improvement, lower for queries whose `N/M` is high); Fig. 12 compares
//! FAST-TASK with FAST-SEP (separated task generators, 30-40%, best when
//! `N/M > 1`). Both run q2, q3, q5, q6, q7, q8 on DG10 in the paper.

use crate::harness::{experiment_config, DatasetCache};
use fast::{run_fast, Variant};
use graph_core::{benchmark_query, DatasetId};

/// One query's measurements across the three variants.
#[derive(Debug, Clone)]
pub struct Row {
    pub query: usize,
    pub basic_sec: f64,
    pub task_sec: f64,
    pub sep_sec: f64,
    /// `N / M` from the kernel counters (drives where the gains land).
    pub n_over_m: f64,
}

impl Row {
    /// Fig. 11's acceleration ratio: the improvement of TASK over BASIC.
    pub fn task_gain(&self) -> f64 {
        1.0 - self.task_sec / self.basic_sec
    }

    /// Fig. 12's acceleration ratio: the improvement of SEP over TASK.
    pub fn sep_gain(&self) -> f64 {
        1.0 - self.sep_sec / self.task_sec
    }
}

/// The queries the paper plots.
pub const QUERIES: [usize; 6] = [2, 3, 5, 6, 7, 8];

/// Runs the ladder on `dataset`.
pub fn run(cache: &mut DatasetCache, dataset: DatasetId) -> Vec<Row> {
    let g = cache.get(dataset);
    QUERIES
        .iter()
        .map(|&qi| {
            let q = benchmark_query(qi);
            let basic = run_fast(&q, g, &experiment_config(Variant::Basic)).unwrap();
            let task = run_fast(&q, g, &experiment_config(Variant::Task)).unwrap();
            let sep = run_fast(&q, g, &experiment_config(Variant::Sep)).unwrap();
            let n_over_m = if sep.counts.m == 0 {
                f64::INFINITY
            } else {
                sep.counts.n as f64 / sep.counts.m as f64
            };
            Row {
                query: qi,
                basic_sec: basic.kernel_time_sec,
                task_sec: task.kernel_time_sec,
                sep_sec: sep.kernel_time_sec,
                n_over_m,
            }
        })
        .collect()
}

/// Renders both figures from one run.
pub fn render(dataset: DatasetId, rows: &[Row]) -> String {
    let header = vec![
        "query".to_string(),
        "BASIC".to_string(),
        "TASK".to_string(),
        "SEP".to_string(),
        "N/M".to_string(),
        "Fig11 gain".to_string(),
        "Fig12 gain".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("q{}", r.query),
                crate::harness::fmt_time(r.basic_sec),
                crate::harness::fmt_time(r.task_sec),
                crate::harness::fmt_time(r.sep_sec),
                if r.n_over_m.is_finite() {
                    format!("{:.2}", r.n_over_m)
                } else {
                    "inf".to_string()
                },
                format!("{:.0}%", r.task_gain() * 100.0),
                format!("{:.0}%", r.sep_gain() * 100.0),
            ]
        })
        .collect();
    format!(
        "Fig. 11/12: task parallelism and generator separation on {dataset} (kernel time)\n{}",
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
    fn gains_within_theory_bounds() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg01);
        for r in &rows {
            // Section VI-C: TASK ≤ 50%+ε over BASIC; Section VI-D: SEP ≤ 33%.
            assert!(
                r.task_gain() <= 0.52 && r.task_gain() >= 0.0,
                "q{}: task gain {}",
                r.query,
                r.task_gain()
            );
            assert!(
                r.sep_gain() <= 1.0 / 3.0 + 0.02 && r.sep_gain() >= 0.0,
                "q{}: sep gain {}",
                r.query,
                r.sep_gain()
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: full figure run; covered by the release-mode CI test step"
    )]
    fn low_m_queries_gain_less_from_task_parallelism() {
        // The paper: q3's acceleration is much lower because its N/M is
        // high. Verify the correlation on our counts: the row with the
        // highest N/M must not have the highest task gain.
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, DatasetId::Dg01);
        let max_nm = rows
            .iter()
            .max_by(|a, b| a.n_over_m.total_cmp(&b.n_over_m))
            .unwrap();
        let max_gain = rows
            .iter()
            .max_by(|a, b| a.task_gain().total_cmp(&b.task_gain()))
            .unwrap();
        assert_ne!(max_nm.query, max_gain.query);
    }
}
