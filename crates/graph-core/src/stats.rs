//! Dataset statistics (paper Table III).

use crate::csr::Graph;

/// The per-dataset characteristics reported in Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub name: String,
    pub vertices: usize,
    pub edges: usize,
    pub avg_degree: f64,
    pub max_degree: u32,
    pub labels: usize,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn compute(name: impl Into<String>, g: &Graph) -> Self {
        // Count only labels that actually occur.
        let labels = (0..g.label_count())
            .filter(|&l| {
                !g.vertices_with_label(crate::types::Label::new(l as u16))
                    .is_empty()
            })
            .count();
        GraphStats {
            name: name.into(),
            vertices: g.vertex_count(),
            edges: g.edge_count(),
            avg_degree: g.avg_degree(),
            max_degree: g.max_degree(),
            labels,
        }
    }

    /// Formats one row in the style of Table III.
    pub fn table_row(&self) -> String {
        format!(
            "{:<8} {:>10} {:>12} {:>8.2} {:>10} {:>8}",
            self.name,
            format_count(self.vertices),
            format_count(self.edges),
            self.avg_degree,
            format_count(self.max_degree as usize),
            self.labels
        )
    }

    /// The Table III header matching [`GraphStats::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<8} {:>10} {:>12} {:>8} {:>10} {:>8}",
            "Name", "|V_G|", "|E_G|", "d_G", "D_G", "#Labels"
        )
    }
}

/// Human-readable counts in the paper's style: `3.18M`, `1.25B`, `464,368`.
pub fn format_count(n: usize) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}B", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_labelled_graph;

    #[test]
    fn stats_match_graph_accessors() {
        let g = random_labelled_graph(60, 0.1, 4, 2);
        let s = GraphStats::compute("test", &g);
        assert_eq!(s.vertices, g.vertex_count());
        assert_eq!(s.edges, g.edge_count());
        assert_eq!(s.max_degree, g.max_degree());
        assert!(s.labels <= 4);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(format_count(999), "999");
        assert_eq!(format_count(31_800), "31.8K");
        assert_eq!(format_count(3_180_000), "3.18M");
        assert_eq!(format_count(1_250_000_000), "1.25B");
    }

    #[test]
    fn table_row_contains_name() {
        let g = random_labelled_graph(10, 0.2, 2, 1);
        let s = GraphStats::compute("DG01", &g);
        assert!(s.table_row().starts_with("DG01"));
        assert!(GraphStats::table_header().contains("|V_G|"));
    }
}
