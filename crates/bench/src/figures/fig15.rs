//! Fig. 15: the impact of matching orders.
//!
//! The paper runs FAST under CFL's, DAF's, CECI's, and random connected
//! orders, reporting BEST / AVG / WORST alongside the named heuristics.
//! Even FAST-WORST beats the CPU baselines (by 9.6-36.3x), showing the
//! co-design is robust to order choice. We sample random connected orders
//! (the full order space is factorial) and aggregate over the queries.

use crate::harness::{experiment_config, DatasetCache};
use fast::{run_fast_with_order, Variant};
use graph_core::{
    benchmark_query, ceci_style_order, cfl_style_order, daf_style_order, random_connected_order,
    select_root, BfsTree, DatasetId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Aggregated elapsed time per order policy.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: DatasetId,
    pub policy: String,
    pub avg_sec: f64,
}

/// Number of random orders sampled per query.
pub const RANDOM_ORDERS: usize = 6;

/// Queries aggregated over (skipping q1, whose worst orders explode at the
/// larger datasets; documented in EXPERIMENTS.md).
pub const QUERIES: [usize; 6] = [0, 2, 4, 5, 6, 8];

/// Runs the order sweep on the given datasets.
pub fn run(cache: &mut DatasetCache, datasets: &[DatasetId]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &d in datasets {
        let g = cache.get(d);
        let config = experiment_config(Variant::Sep);
        // Per policy, accumulate elapsed over queries.
        let mut named_totals: Vec<(String, f64)> = vec![
            ("FAST-CFL".to_string(), 0.0),
            ("FAST-DAF".to_string(), 0.0),
            ("FAST-CECI".to_string(), 0.0),
        ];
        let mut best_total = 0.0f64;
        let mut avg_total = 0.0f64;
        let mut worst_total = 0.0f64;

        for &qi in &QUERIES {
            let q = benchmark_query(qi);
            let root = select_root(&q, g);
            let tree = BfsTree::new(&q, root);
            let mut rng = StdRng::seed_from_u64(1000 + qi as u64);

            let named = [
                cfl_style_order(&q, &tree),
                daf_style_order(&q, g, root),
                ceci_style_order(&q, &tree),
            ];
            let mut all_times = Vec::new();
            for (i, order) in named.iter().enumerate() {
                let t = run_fast_with_order(&q, g, &config, order)
                    .unwrap()
                    .modeled_total_sec();
                named_totals[i].1 += t;
                all_times.push(t);
            }
            for _ in 0..RANDOM_ORDERS {
                let order = random_connected_order(&q, root, &mut rng);
                let t = run_fast_with_order(&q, g, &config, &order)
                    .unwrap()
                    .modeled_total_sec();
                all_times.push(t);
            }
            best_total += all_times.iter().cloned().fold(f64::INFINITY, f64::min);
            worst_total += all_times.iter().cloned().fold(0.0, f64::max);
            avg_total += all_times.iter().sum::<f64>() / all_times.len() as f64;
        }

        rows.push(Row {
            dataset: d,
            policy: "FAST-BEST".into(),
            avg_sec: best_total / QUERIES.len() as f64,
        });
        for (name, total) in named_totals {
            rows.push(Row {
                dataset: d,
                policy: name,
                avg_sec: total / QUERIES.len() as f64,
            });
        }
        rows.push(Row {
            dataset: d,
            policy: "FAST-AVG".into(),
            avg_sec: avg_total / QUERIES.len() as f64,
        });
        rows.push(Row {
            dataset: d,
            policy: "FAST-WORST".into(),
            avg_sec: worst_total / QUERIES.len() as f64,
        });
    }
    rows
}

/// Renders the figure.
pub fn render(rows: &[Row]) -> String {
    let header = vec![
        "policy".to_string(),
        "dataset".to_string(),
        "avg elapsed".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.dataset.to_string(),
                crate::harness::fmt_time(r.avg_sec),
            ]
        })
        .collect();
    format!(
        "Fig. 15: elapsed time of FAST with different matching orders\n{}",
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
    fn best_le_avg_le_worst() {
        let mut cache = DatasetCache::new();
        let rows = run(&mut cache, &[DatasetId::Dg01]);
        let at = |p: &str| rows.iter().find(|r| r.policy == p).unwrap().avg_sec;
        assert!(at("FAST-BEST") <= at("FAST-AVG") + 1e-9);
        assert!(at("FAST-AVG") <= at("FAST-WORST") + 1e-9);
        // Named heuristics sit between BEST and WORST.
        for p in ["FAST-CFL", "FAST-DAF", "FAST-CECI"] {
            assert!(at(p) >= at("FAST-BEST") - 1e-9, "{p}");
            assert!(at(p) <= at("FAST-WORST") + 1e-9, "{p}");
        }
    }
}
