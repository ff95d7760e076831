//! Text serialisation in the de-facto subgraph-matching benchmark format.
//!
//! The format used by CFL-Match, CECI, DAF and the in-memory matching survey:
//!
//! ```text
//! t <num_vertices> <num_edges>
//! v <vertex_id> <label> <degree>
//! ...
//! e <vertex_a> <vertex_b>
//! ...
//! ```
//!
//! Vertex ids must be dense `0..n`, one `v` record each; ids and counts
//! must fit `u32`. The degree column is advisory and re-derived on load.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::query::{QueryGraph, QueryError};
use crate::types::{Label, VertexId};
use std::cmp::Ordering;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::str::{FromStr, SplitAsciiWhitespace};

/// Errors raised while parsing the text format.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number (0 for a defect of
    /// the whole file, such as a missing or duplicate vertex).
    Parse { line: usize, message: String },
    /// The parsed query graph failed validation.
    Query(QueryError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Query(e) => write!(f, "invalid query graph: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

/// The next field of record line `line`, parsed as a `T`.
fn field<T: FromStr>(
    parts: &mut SplitAsciiWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<T, IoError> {
    let token = parts
        .next()
        .ok_or_else(|| parse_err(line, format!("missing {what}")))?;
    token
        .parse()
        .map_err(|_| parse_err(line, format!("bad {what} '{token}'")))
}

/// Parsed raw content shared by graph and query readers.
struct RawGraph {
    labels: Vec<Label>,
    edges: Vec<(usize, usize)>,
}

/// Parses the records. Memory is proportional to the input, whatever the
/// header declares: `v` records are collected as `(id, label)` pairs and
/// checked for density only at the end.
fn read_raw<R: Read>(reader: R) -> Result<RawGraph, IoError> {
    let reader = BufReader::new(reader);
    let mut vertices: Vec<(u32, Label)> = Vec::new();
    let mut edges = Vec::new();
    let mut declared: Option<(u32, u32)> = None;

    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("t") => {
                let n = field(&mut parts, lineno, "vertex count")?;
                let m = field(&mut parts, lineno, "edge count")?;
                declared = Some((n, m));
            }
            Some("v") => {
                let id = field(&mut parts, lineno, "vertex id")?;
                let label = field(&mut parts, lineno, "label")?;
                vertices.push((id, Label::new(label)));
            }
            Some("e") => {
                let a: u32 = field(&mut parts, lineno, "edge endpoint")?;
                let b: u32 = field(&mut parts, lineno, "edge endpoint")?;
                edges.push((a as usize, b as usize));
            }
            Some(other) => {
                return Err(parse_err(lineno, format!("unknown record type '{other}'")))
            }
            None => {}
        }
    }

    vertices.sort_unstable_by_key(|&(id, _)| id);
    let labels: Vec<Label> = vertices
        .iter()
        .enumerate()
        .map(|(i, &(id, label))| match (id as usize).cmp(&i) {
            Ordering::Equal => Ok(label),
            Ordering::Less => Err(parse_err(0, format!("vertex {id} has two 'v' records"))),
            Ordering::Greater => Err(parse_err(0, format!("vertex {i} missing 'v' record"))),
        })
        .collect::<Result<_, _>>()?;

    if let Some((n, m)) = declared {
        if labels.len() != n as usize {
            return Err(parse_err(
                0,
                format!("header declares {n} vertices but {} found", labels.len()),
            ));
        }
        if edges.len() != m as usize {
            return Err(parse_err(
                0,
                format!("header declares {m} edges but {} found", edges.len()),
            ));
        }
    }
    Ok(RawGraph { labels, edges })
}

/// Reads a data graph from the text format.
pub fn read_graph_text<R: Read>(reader: R) -> Result<Graph, IoError> {
    let raw = read_raw(reader)?;
    let mut b = GraphBuilder::with_capacity(raw.labels.len(), raw.edges.len());
    for l in &raw.labels {
        b.add_vertex(*l);
    }
    for (i, &(a, b_)) in raw.edges.iter().enumerate() {
        b.add_edge(VertexId::from_index(a), VertexId::from_index(b_))
            .map_err(|e| parse_err(0, format!("edge {i}: {e}")))?;
    }
    Ok(b.build())
}

/// Reads a query graph from the text format.
pub fn read_query_text<R: Read>(reader: R) -> Result<QueryGraph, IoError> {
    let raw = read_raw(reader)?;
    QueryGraph::new(raw.labels, &raw.edges).map_err(IoError::Query)
}

/// Writes a data graph in the text format.
pub fn write_graph_text<W: Write>(g: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "t {} {}", g.vertex_count(), g.edge_count())?;
    for v in g.vertices() {
        writeln!(w, "v {} {} {}", v.raw(), g.label(v).raw(), g.degree(v))?;
    }
    for (a, b) in g.edges() {
        writeln!(w, "e {} {}", a.raw(), b.raw())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a query graph in the text format.
pub fn write_query_text<W: Write>(q: &QueryGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "t {} {}", q.vertex_count(), q.edge_count())?;
    for u in q.vertices() {
        writeln!(w, "v {} {} {}", u.raw(), q.label(u).raw(), q.degree(u))?;
    }
    for &(a, b) in q.edges() {
        writeln!(w, "e {} {}", a.raw(), b.raw())?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_labelled_graph;
    use crate::queries::all_benchmark_queries;

    #[test]
    fn graph_roundtrip() {
        let g = random_labelled_graph(40, 0.15, 5, 3);
        let mut buf = Vec::new();
        write_graph_text(&g, &mut buf).unwrap();
        let g2 = read_graph_text(&buf[..]).unwrap();
        assert_eq!(g.vertex_count(), g2.vertex_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
            assert_eq!(g.label(v), g2.label(v));
        }
    }

    #[test]
    fn query_roundtrip_all_benchmarks() {
        for q in all_benchmark_queries() {
            let mut buf = Vec::new();
            write_query_text(&q, &mut buf).unwrap();
            let q2 = read_query_text(&buf[..]).unwrap();
            assert_eq!(q, q2);
        }
    }

    #[test]
    fn parses_with_comments_and_blank_lines() {
        let text = "# comment\n\nt 2 1\nv 0 0 1\nv 1 1 1\n% another\ne 0 1\n";
        let g = read_graph_text(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_header_mismatch() {
        let text = "t 3 1\nv 0 0 1\nv 1 1 1\ne 0 1\n";
        assert!(read_graph_text(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_missing_vertex_record() {
        let text = "v 0 0 1\nv 2 0 0\ne 0 2\n";
        assert!(read_graph_text(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_unknown_record() {
        let text = "x 1 2 3\n";
        assert!(read_graph_text(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_malformed_numbers() {
        assert!(read_graph_text("t x 1\n".as_bytes()).is_err());
        assert!(read_graph_text("v a 0 0\n".as_bytes()).is_err());
        assert!(read_graph_text("e 0 q\n".as_bytes()).is_err());
    }

    fn parse_error(text: &str) -> bool {
        matches!(read_graph_text(text.as_bytes()), Err(IoError::Parse { .. }))
    }

    #[test]
    fn huge_header_allocates_nothing() {
        // One line declaring u32::MAX vertices must not reserve them.
        assert!(parse_error("t 4294967295 0\n"));
        assert!(parse_error("t 4294967296 0\n"));
        assert!(parse_error("t 0 99999999999999999999\n"));
    }

    #[test]
    fn rejects_vertex_id_beyond_u32() {
        assert!(parse_error("v 18446744073709551615 0 0\n"));
        assert!(parse_error("v 4294967296 0 0\n"));
    }

    #[test]
    fn rejects_edge_endpoint_beyond_u32() {
        // 2^32 + 1 would truncate to vertex 1, a valid edge 0-1.
        assert!(parse_error("v 0 0 1\nv 1 0 1\ne 0 4294967297\n"));
    }

    #[test]
    fn rejects_duplicate_vertex_record() {
        assert!(parse_error("v 0 0 1\nv 1 0 1\nv 0 1 1\ne 0 1\n"));
        assert!(parse_error("t 2 1\nv 0 0 1\nv 0 1 1\ne 0 1\n"));
    }

    #[test]
    fn query_reader_validates_connectivity() {
        let text = "t 3 1\nv 0 0 1\nv 1 0 1\nv 2 0 0\ne 0 1\n";
        assert!(matches!(
            read_query_text(text.as_bytes()),
            Err(IoError::Query(_))
        ));
    }
}
