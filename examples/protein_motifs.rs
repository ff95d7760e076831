//! Protein-interaction-style motif search — the paper's other motivating
//! domain (protein-protein interaction network analysis, graphlet counting).
//!
//! Builds a labelled power-law "interaction network" (labels = protein
//! families) and counts classic 3- and 4-node motifs with FAST, verifying
//! each count against the VF2 oracle.
//!
//! ```sh
//! cargo run --release --example protein_motifs
//! ```

use fast::{run_fast, FastConfig, Variant};
use graph_core::generators::random_power_law_graph;
use graph_core::{Label, QueryGraph};
use matching::vf2_count;

fn motif(name: &str, labels: &[u16], edges: &[(usize, usize)]) -> (String, QueryGraph) {
    let q = QueryGraph::new(labels.iter().map(|&l| Label::new(l)).collect(), edges)
        .expect("motif is well-formed");
    (name.to_string(), q)
}

fn main() {
    // 4 protein families over a scale-free interaction network.
    let network = random_power_law_graph(4000, 5, 4, 2024);
    println!(
        "interaction network: {} proteins, {} interactions, max degree {}\n",
        network.vertex_count(),
        network.edge_count(),
        network.max_degree()
    );

    let motifs = vec![
        motif(
            "feed-forward triangle (A-B-C)",
            &[0, 1, 2],
            &[(0, 1), (1, 2), (0, 2)],
        ),
        motif(
            "bi-fan (A-B pair over C-D pair)",
            &[0, 0, 1, 1],
            &[(0, 2), (0, 3), (1, 2), (1, 3)],
        ),
        motif("tagged 4-path", &[0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3)]),
        motif(
            "4-cycle with chord",
            &[0, 1, 0, 1],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        ),
    ];

    let config = FastConfig::for_variant(Variant::Sep);
    println!(
        "{:<36} {:>12} {:>14} {:>12}",
        "motif", "occurrences", "kernel cycles", "modelled"
    );
    for (name, query) in motifs {
        let report = run_fast(&query, &network, &config).expect("motif fits the kernel");
        let oracle = vf2_count(&query, &network);
        assert_eq!(
            report.embeddings, oracle,
            "kernel disagrees with VF2 on {name}"
        );
        println!(
            "{:<36} {:>12} {:>14} {:>10.2}ms",
            name,
            report.embeddings,
            report.kernel_cycles,
            report.modeled_total_sec() * 1e3
        );
    }
    println!("\nall motif counts verified against the VF2 oracle");
}
