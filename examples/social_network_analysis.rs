//! Social-network analysis scenario: community patterns in an LDBC-like
//! graph — the workload class the paper's introduction motivates.
//!
//! Finds (1) friend triangles co-located in a city, (2) friend triangles
//! across two cities of a country, and (3) discussion patterns (a person's
//! post with a comment by a friend), comparing FAST against a CPU baseline.
//!
//! ```sh
//! cargo run --release --example social_network_analysis
//! ```

use fast::{run_fast, FastConfig};
use graph_core::benchmark_query;
use graph_core::generators::{generate_ldbc, LdbcParams};
use matching::{run_baseline, Baseline, RunLimits};

fn main() {
    let graph = generate_ldbc(&LdbcParams::with_scale_factor(0.5), 7);
    println!(
        "social network: {} vertices / {} edges\n",
        graph.vertex_count(),
        graph.edge_count()
    );

    let scenarios = [
        (6usize, "friend triangle in one city (q6)"),
        (
            7usize,
            "friend triangle across two cities of a country (q7)",
        ),
        (2usize, "post-and-reply between friends, tagged (q2)"),
    ];

    println!(
        "{:<52} {:>12} {:>12} {:>12}",
        "pattern", "matches", "FAST", "CECI"
    );
    for (qi, description) in scenarios {
        let query = benchmark_query(qi);
        let fast_report =
            run_fast(&query, &graph, &FastConfig::default()).expect("query fits kernel");
        let ceci = run_baseline(Baseline::Ceci, &query, &graph, &RunLimits::default());
        assert_eq!(
            fast_report.embeddings, ceci.embeddings,
            "FAST and CECI must agree"
        );
        println!(
            "{:<52} {:>12} {:>10.2}ms {:>10.2}ms",
            description,
            fast_report.embeddings,
            fast_report.modeled_total_sec() * 1e3,
            ceci.modeled_total_sec() * 1e3,
        );
    }

    println!(
        "\n(times are modelled on the paper's platforms: Alveo U200 @ 300 MHz vs Xeon E5-2620 v4)"
    );
}
