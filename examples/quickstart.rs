//! Quickstart: match one benchmark query against a small LDBC-like graph.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fast::{run_fast, CollectMode, FastConfig};
use graph_core::benchmark_query;
use graph_core::generators::{generate_ldbc, label_name, LdbcParams};

fn main() {
    // A small synthetic social network (~3K vertices): Person/City/Post/
    // Comment/Tag/... with power-law hubs, like the paper's LDBC datasets.
    let graph = generate_ldbc(&LdbcParams::with_scale_factor(0.1), 42);
    println!(
        "data graph: {} vertices, {} edges, {} labels",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    // q1: two persons who know each other; one wrote a post, the other a
    // comment replying to it (paper Fig. 6).
    let query = benchmark_query(1);
    println!(
        "query q1: {} vertices, {} edges",
        query.vertex_count(),
        query.edge_count()
    );

    // Run the full co-designed pipeline: CST construction + partitioning on
    // the host, the pipelined kernel on the emulated FPGA. Collect a few
    // embeddings so we can print them.
    let config = FastConfig {
        collect: CollectMode::Collect(3),
        ..FastConfig::default()
    };
    let report = run_fast(&query, &graph, &config).expect("query fits the kernel");

    println!(
        "\n{} found {} embeddings",
        report.variant, report.embeddings
    );
    println!(
        "kernel workload: N = {} partial results, M = {} edge validations",
        report.counts.n, report.counts.m
    );
    println!(
        "modelled elapsed: {:.3} ms  (CST build {:.3} ms, kernel {:.3} ms at 300 MHz, PCIe {:.3} ms)",
        report.modeled_total_sec() * 1e3,
        report.modeled_build_sec * 1e3,
        report.kernel_time_sec * 1e3,
        report.transfer_time_sec * 1e3,
    );

    for (i, emb) in report.collected.iter().enumerate() {
        let described: Vec<String> = emb
            .iter()
            .enumerate()
            .map(|(u, v)| {
                format!(
                    "u{u}({})->v{}",
                    label_name(query.label(graph_core::QueryVertexId::from_index(u))),
                    v.raw()
                )
            })
            .collect();
        println!("embedding {}: {}", i + 1, described.join(", "));
    }
}
