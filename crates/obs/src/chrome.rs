//! Chrome `trace_event` JSON export (the JSON-array flavour Perfetto
//! and `chrome://tracing` load directly) plus a self-validation pass
//! used by CI and the examples.
//!
//! Spans render as `ph:"X"` complete events, instant events as
//! `ph:"i"`, and every track gets a `thread_name` metadata record.
//! Timestamps are microseconds with nanosecond precision (`ts` is a
//! float with three decimals); within a track, timestamps are made
//! **strictly** monotonic by nudging ties forward one nanosecond —
//! parents sort before their children, so nesting survives the nudge.

use crate::json::{self, Json};
use crate::trace::{
    ArgValue, EventRecord, SpanRecord, DEVICE_BASE, SESSION_BASE, THREAD_BASE, TRACK_HOST,
};

/// The single `pid` every record carries (one process).
const PID: u64 = 1;

/// Human-readable name of a track, emitted as `thread_name` metadata.
pub fn track_name(track: u64) -> String {
    if track == TRACK_HOST {
        "host".to_string()
    } else if (DEVICE_BASE..THREAD_BASE).contains(&track) {
        format!("device {}", track - DEVICE_BASE)
    } else if (THREAD_BASE..SESSION_BASE).contains(&track) {
        format!("builder {}", track - THREAD_BASE)
    } else if track >= SESSION_BASE {
        format!("session {}", track - SESSION_BASE)
    } else {
        format!("track {track}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; that is still valid
        // JSON, so keep it.
        s
    } else {
        // JSON has no inf/nan; clamp to a sentinel.
        "0".to_string()
    }
}

fn args_json(args: &[(&'static str, ArgValue)]) -> String {
    if args.is_empty() {
        return String::new();
    }
    let body: Vec<String> = args
        .iter()
        .map(|(k, v)| {
            let vs = match v {
                ArgValue::U64(n) => n.to_string(),
                ArgValue::F64(f) => fmt_f64(*f),
                ArgValue::Str(s) => format!("\"{}\"", escape(s)),
            };
            format!("\"{}\":{vs}", escape(k))
        })
        .collect();
    format!(",\"args\":{{{}}}", body.join(","))
}

/// Microseconds with ns precision, e.g. `12.345`.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

enum Item<'a> {
    Span(&'a SpanRecord),
    Event(&'a EventRecord),
}

impl Item<'_> {
    fn ts(&self) -> u64 {
        match self {
            Item::Span(s) => s.start_ns,
            Item::Event(e) => e.ts_ns,
        }
    }
    /// Sort key: by timestamp; ties put longer spans first so parents
    /// precede children and instant events come last.
    fn tiebreak(&self) -> u64 {
        match self {
            Item::Span(s) => u64::MAX - (s.end_ns - s.start_ns),
            Item::Event(_) => u64::MAX,
        }
    }
}

/// Renders spans and events as a Chrome `trace_event` JSON array with
/// strictly monotonic per-track timestamps.
pub fn render(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    let mut tracks: Vec<u64> = spans
        .iter()
        .map(|s| s.track)
        .chain(events.iter().map(|e| e.track))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();

    let mut lines: Vec<String> = Vec::with_capacity(tracks.len() + spans.len() + events.len());
    for &track in &tracks {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{track},\"args\":{{\"name\":\"{}\"}}}}",
            escape(&track_name(track))
        ));
    }

    for &track in &tracks {
        let mut items: Vec<Item> = spans
            .iter()
            .filter(|s| s.track == track)
            .map(Item::Span)
            .chain(events.iter().filter(|e| e.track == track).map(Item::Event))
            .collect();
        items.sort_by_key(|i| (i.ts(), i.tiebreak()));
        let mut last_ts: Option<u64> = None;
        for item in items {
            // Strict per-track monotonicity: nudge ties forward 1 ns.
            // Children keep their original end, so they stay inside
            // their (earlier-sorted) parent.
            let mut ts = item.ts();
            if let Some(prev) = last_ts {
                if ts <= prev {
                    ts = prev + 1;
                }
            }
            last_ts = Some(ts);
            match item {
                Item::Span(s) => {
                    let dur_ns = s.end_ns.saturating_sub(ts);
                    lines.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{PID},\"tid\":{}{}}}",
                        escape(s.name),
                        escape(s.cat),
                        ts_us(ts),
                        ts_us(dur_ns),
                        s.track,
                        args_json(&s.args)
                    ));
                }
                Item::Event(e) => {
                    lines.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{PID},\"tid\":{}{}}}",
                        escape(e.name),
                        escape(e.cat),
                        ts_us(ts),
                        e.track,
                        args_json(&e.args)
                    ));
                }
            }
        }
    }
    format!("[{}]\n", lines.join(",\n"))
}

/// Summary of a validated trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Non-metadata events in the document.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks seen.
    pub tracks: usize,
}

/// Parses a Chrome trace JSON document and checks the invariants the
/// export promises: a top-level array of objects each carrying
/// `name`/`ph`/`ts`/`pid`/`tid`, with **strictly increasing** `ts`
/// per `(pid, tid)` track across non-metadata events.
pub fn validate(doc: &str) -> Result<TraceStats, String> {
    let parsed = json::parse(doc)?;
    let Json::Arr(items) = parsed else {
        return Err("top level is not an array".into());
    };
    let mut last: Vec<((u64, u64), f64)> = Vec::new();
    let mut events = 0usize;
    for (i, item) in items.iter().enumerate() {
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = item
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing ph"))?;
        let pid = item
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing pid"))? as u64;
        let tid = item
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing tid"))? as u64;
        if ph == "M" {
            continue;
        }
        let ts = item
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
        if ph == "X" && item.get("dur").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i} ({name}): X event missing dur"));
        }
        events += 1;
        let key = (pid, tid);
        match last.iter_mut().find(|(k, _)| *k == key) {
            Some((_, prev)) => {
                if ts <= *prev {
                    return Err(format!(
                        "track {key:?}: ts {ts} not strictly after {prev} (event {i}, {name})"
                    ));
                }
                *prev = ts;
            }
            None => last.push((key, ts)),
        }
    }
    Ok(TraceStats {
        events,
        tracks: last.len(),
    })
}

/// Checks span containment along a named chain: for every consecutive
/// pair `(outer, inner)` in `chain`, each `inner` span on a track that
/// carries at least one `outer` span must lie inside some `outer` span
/// on that track. Used to assert `session ⊇ build ⊇ execute`.
pub fn check_nesting(spans: &[SpanRecord], chain: &[&str]) -> Result<(), String> {
    for pair in chain.windows(2) {
        let (outer, inner) = (pair[0], pair[1]);
        let mut tracks: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == outer)
            .map(|s| s.track)
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        for &track in &tracks {
            let outers: Vec<&SpanRecord> = spans
                .iter()
                .filter(|s| s.track == track && s.name == outer)
                .collect();
            for s in spans.iter().filter(|s| s.track == track && s.name == inner) {
                let contained = outers
                    .iter()
                    .any(|o| o.start_ns <= s.start_ns && s.end_ns <= o.end_ns);
                if !contained {
                    return Err(format!(
                        "track {track} ({}): {inner} span [{}, {}] ns escapes every {outer} span",
                        track_name(track),
                        s.start_ns,
                        s.end_ns
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{session_track, ArgValue};

    fn span(track: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            track,
            name,
            cat: "test",
            start_ns: start,
            end_ns: end,
            args: vec![("k", ArgValue::Str("v"))],
        }
    }

    #[test]
    fn render_validates_and_ties_are_nudged() {
        let t = session_track(7);
        let spans = vec![
            span(t, "session", 1000, 9000),
            span(t, "build", 1000, 5000), // same start as its parent
            span(t, "execute", 2000, 4000),
            span(t, "execute", 2000, 3000), // tied start with sibling
        ];
        let events = vec![EventRecord {
            track: t,
            name: "retry",
            cat: "fault",
            ts_ns: 2000,
            args: vec![],
        }];
        let doc = render(&spans, &events);
        let stats = validate(&doc).expect("export must self-validate");
        assert_eq!(stats.events, 5);
        assert_eq!(stats.tracks, 1);
        check_nesting(&spans, &["session", "build", "execute"]).unwrap();
    }

    #[test]
    fn nesting_violations_are_caught() {
        let t = session_track(1);
        let spans = vec![span(t, "session", 1000, 2000), span(t, "build", 1500, 2500)];
        assert!(check_nesting(&spans, &["session", "build"]).is_err());
        // A build on a track with no session span is not checked.
        let orphan = vec![span(session_track(2), "build", 0, 10)];
        assert!(check_nesting(&orphan, &["session", "build"]).is_ok());
    }

    #[test]
    fn validate_rejects_non_monotonic() {
        let doc = r#"[
            {"name":"a","ph":"i","s":"t","ts":5,"pid":1,"tid":1},
            {"name":"b","ph":"i","s":"t","ts":5,"pid":1,"tid":1}
        ]"#;
        assert!(validate(doc).is_err());
        let ok = r#"[
            {"name":"a","ph":"i","s":"t","ts":5,"pid":1,"tid":1},
            {"name":"b","ph":"i","s":"t","ts":5,"pid":1,"tid":2}
        ]"#;
        assert!(validate(ok).is_ok());
    }
}
