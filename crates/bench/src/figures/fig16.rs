//! Fig. 16: scalability with the scale factor (DG01 → DG60).
//!
//! The paper runs all queries on all four datasets with FAST — the only
//! algorithm to complete DG60 — and shows elapsed time growing linearly
//! with the number of embeddings.

use crate::harness::{experiment_config, DatasetCache};
use fast::{run_fast, Variant};
use graph_core::{benchmark_query, DatasetId};

/// One (query, dataset) point.
#[derive(Debug, Clone)]
pub struct Row {
    pub query: usize,
    pub dataset: DatasetId,
    pub embeddings: u64,
    pub elapsed_sec: f64,
}

/// The queries plotted (paper: q0-q8 minus q4, which Fig. 16 omits).
pub const QUERIES: [usize; 8] = [0, 1, 2, 3, 5, 6, 7, 8];

/// Runs FAST across the dataset ladder.
pub fn run(cache: &mut DatasetCache, datasets: &[DatasetId], queries: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &d in datasets {
        let g = cache.get(d);
        for &qi in queries {
            let q = benchmark_query(qi);
            let report = run_fast(&q, g, &experiment_config(Variant::Share)).unwrap();
            rows.push(Row {
                query: qi,
                dataset: d,
                embeddings: report.embeddings,
                elapsed_sec: report.modeled_total_sec(),
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
        "#embeddings".to_string(),
        "elapsed".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("q{}", r.query),
                r.dataset.to_string(),
                r.embeddings.to_string(),
                crate::harness::fmt_time(r.elapsed_sec),
            ]
        })
        .collect();
    format!(
        "Fig. 16: scalability of FAST varying the scale factor\n{}",
        crate::harness::render_table(&header, &body)
    )
}

/// Linear-growth check: fits elapsed ≈ a + b·embeddings per query and
/// returns the R² of the fit over the dataset ladder.
pub fn linearity_r2(rows: &[Row], query: usize) -> Option<f64> {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.query == query && r.embeddings > 0)
        .map(|r| (r.embeddings as f64, r.elapsed_sec))
        .collect();
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = pts.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = pts.iter().map(|p| (p.1 - (a + b * p.0)).powi(2)).sum();
    if ss_tot < 1e-18 {
        return None;
    }
    Some(1.0 - ss_res / ss_tot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ladder_runs() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, &[DatasetId::Dg01, DatasetId::Dg03], &[0, 4, 7]);
        assert_eq!(rows.len(), 6);
        // Larger datasets find at least as many embeddings for these
        // monotone queries.
        for qi in [0, 7] {
            let small = rows
                .iter()
                .find(|r| r.query == qi && r.dataset == DatasetId::Dg01)
                .unwrap();
            let large = rows
                .iter()
                .find(|r| r.query == qi && r.dataset == DatasetId::Dg03)
                .unwrap();
            assert!(large.embeddings >= small.embeddings);
        }
    }
}
