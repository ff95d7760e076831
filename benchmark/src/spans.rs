//! Spans of the traced run: kept in memory, written out at exit.
//!
//! Every span carries the operation it belongs to. Timestamps are
//! `obs::now_ns()` so the benchmark's own spans and the service's `obs`
//! spans share one clock. Parents are derived by containment within an
//! operation; a span's self time is its duration minus the part of that
//! interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operation identifier shared by all spans of one request.
    pub op: u64,
    /// Index of the enclosing span, set by [`assign_parents`].
    pub parent: Option<usize>,
}

#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            op,
            parent: None,
        });
    }

    /// Runs `f` under a span; returns its result and its wall in seconds.
    pub fn timed<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = obs::now_ns();
        let out = f();
        let end = obs::now_ns();
        self.record(name, op, start, end);
        (out, (end - start) as f64 * 1e-9)
    }
}

/// Sets each span's parent to the smallest span of the same operation that
/// contains it (of two identical intervals, the earlier-recorded is the
/// parent).
pub fn assign_parents(spans: &mut [Span]) {
    let mut by_op: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_op.entry(s.op).or_default().push(i);
    }
    for indices in by_op.values_mut() {
        indices.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns), i));
        let mut open: Vec<usize> = Vec::new();
        for &i in indices.iter() {
            while open
                .last()
                .is_some_and(|&top| spans[top].end_ns < spans[i].end_ns)
            {
                open.pop();
            }
            spans[i].parent = open.last().copied();
            open.push(i);
        }
    }
}

/// Self time of every span in nanoseconds (parents must be assigned).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: how many spans, and their summed self time in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        let row = out.entry(s.name).or_default();
        row.0 += 1;
        row.1 += ns as f64 * 1e-9;
    }
    out
}

/// Writes the spans as a JSON array, one object per line.
pub fn write_json(w: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    writeln!(w, "]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(rows: &[(&'static str, u64, u64, u64)]) -> Vec<Span> {
        let mut l = SpanLog::default();
        for &(name, op, start, end) in rows {
            l.record(name, op, start, end);
        }
        assign_parents(&mut l.spans);
        l.spans
    }

    #[test]
    fn parents_follow_containment_within_an_operation() {
        let spans = log(&[
            ("op", 1, 0, 100),
            ("build", 1, 10, 60),
            ("execute", 1, 20, 30),
            ("execute", 1, 40, 50),
            ("queue_wait", 1, 0, 5),
            ("op", 2, 0, 100),
            ("build", 2, 10, 60),
        ]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            [None, Some(0), Some(1), Some(1), Some(0), None, Some(5)]
        );
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = log(&[
            ("op", 1, 0, 100),
            ("build", 1, 10, 60),
            ("execute", 1, 20, 30),
            ("execute", 1, 40, 50),
            // Overlapping siblings are covered once.
            ("a", 1, 70, 90),
            ("b", 1, 80, 95),
        ]);
        // "b" is not contained in "a" (it ends later): both are children of op.
        assert_eq!(spans[5].parent, Some(0));
        let own = self_times_ns(&spans);
        assert_eq!(own, [100 - 50 - 25, 50 - 20, 10, 10, 20, 15]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["execute"].0, 2);
        assert!((by_name["execute"].1 - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn json_round_trips_through_the_repo_parser() {
        let spans = log(&[("op", 7, 5, 9), ("build", 7, 6, 8)]);
        let mut text = Vec::new();
        write_json(&mut text, &spans).unwrap();
        let doc = obs::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let obs::json::Json::Arr(rows) = doc else {
            panic!("not an array")
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(rows[1].get("name").and_then(|n| n.as_str()), Some("build"));
        assert_eq!(rows[0].get("op").and_then(|n| n.as_f64()), Some(7.0));
    }
}
