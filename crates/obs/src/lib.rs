//! `obs` — low-overhead observability for the FAST serving stack
//! (DESIGN.md §10).
//!
//! Three pieces, one process-wide state:
//!
//! - **Metrics** ([`mod@registry`]): named atomic [`Counter`]s and
//!   [`Gauge`]s plus log-bucketed [`Histogram`]s (the histograms are
//!   plain values owned by their call sites — `serve` keeps them inside
//!   its own metrics state so window deltas and lifetime reports come
//!   from one source of truth).
//! - **Tracing** ([`span`], [`event`], [`record_span`]): bounded
//!   in-memory buffers of spans/instant events on per-concern *tracks*
//!   (host, devices, builder threads, one track per serving session).
//! - **Exports**: Chrome `trace_event` JSON ([`chrome_trace_json`],
//!   Perfetto-loadable, self-validating via [`chrome::validate`]) and a
//!   Prometheus text exposition ([`Registry::prometheus_text`]).
//!
//! Cost model: tracing is **off by default** — every recording entry
//! point first reads one relaxed atomic ([`enabled`]); when disabled, a
//! [`SpanGuard`] is inert (no clock read, no allocation). Counters and
//! gauges are single relaxed atomic ops.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use hist::Histogram;
pub use registry::{Counter, Gauge, Registry};
pub use trace::{
    device_track, session_track, ArgValue, Args, EventRecord, SpanGuard, SpanRecord, Tracer,
    DEVICE_BASE, SESSION_BASE, THREAD_BASE, TRACK_HOST,
};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide observability state.
pub struct Obs {
    enabled: AtomicBool,
    epoch: Instant,
    pub(crate) tracer: Tracer,
    registry: Registry,
}

static OBS: OnceLock<Obs> = OnceLock::new();

/// The global [`Obs`] instance (created on first use; the trace epoch
/// is the moment of that first use).
pub fn obs() -> &'static Obs {
    OBS.get_or_init(|| Obs {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        tracer: Tracer::default(),
        registry: Registry::default(),
    })
}

/// Turns trace recording on.
pub fn enable() {
    obs().enabled.store(true, Ordering::Release);
}

/// Turns trace recording off (buffers are kept; see [`reset`]).
pub fn disable() {
    obs().enabled.store(false, Ordering::Release);
}

/// Whether trace recording is currently on. One relaxed atomic load —
/// this is the hot-path gate.
#[inline]
pub fn enabled() -> bool {
    obs().enabled.load(Ordering::Relaxed)
}

/// Clears trace buffers and zeroes every registered metric (handles
/// stay valid). Used between measurement arms and by tests.
pub fn reset() {
    let o = obs();
    o.tracer.clear();
    o.registry.reset();
}

/// Nanoseconds since the obs epoch.
#[inline]
pub fn now_ns() -> u64 {
    obs().epoch.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Tracks
// ---------------------------------------------------------------------

static NEXT_THREAD_TRACK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Explicit track override (set by [`set_track`]); `u64::MAX` = unset.
    static CURRENT: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Lazily assigned per-thread fallback track.
    static THREAD_TRACK: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// The track new spans/events land on: the innermost [`set_track`]
/// override, else a per-thread builder track assigned on first use.
pub fn current_track() -> u64 {
    let c = CURRENT.get();
    if c != u64::MAX {
        return c;
    }
    let t = THREAD_TRACK.get();
    if t != u64::MAX {
        return t;
    }
    let t = THREAD_BASE + NEXT_THREAD_TRACK.fetch_add(1, Ordering::Relaxed);
    THREAD_TRACK.set(t);
    t
}

/// Restores the previous track override on drop (see [`set_track`]).
#[must_use = "dropping the guard immediately undoes the track override"]
pub struct TrackGuard {
    prev: u64,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        CURRENT.set(self.prev);
    }
}

/// Routes this thread's subsequent spans/events onto `track` until the
/// returned guard drops. Nests (the guard restores the previous
/// override). The serving worker sets the session track here so spans
/// recorded anywhere down the call stack — backend executes, shard
/// builds — land on the session's timeline.
pub fn set_track(track: u64) -> TrackGuard {
    TrackGuard {
        prev: CURRENT.replace(track),
    }
}

// ---------------------------------------------------------------------
// Spans and events
// ---------------------------------------------------------------------

/// Opens an RAII span named `name` (category `"span"`) on the current
/// track. Inert when tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_cat(name, "span")
}

/// Opens an RAII span with an explicit category on the current track.
#[inline]
pub fn span_cat(name: &'static str, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: false,
            track: 0,
            name,
            cat,
            start_ns: 0,
            args: Vec::new(),
        };
    }
    SpanGuard {
        active: true,
        track: current_track(),
        name,
        cat,
        start_ns: now_ns(),
        args: Vec::new(),
    }
}

/// Records a completed span whose interval was measured externally
/// (e.g. a session span closed at completion with the submit time as
/// its start).
pub fn record_span(
    track: u64,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    end_ns: u64,
    args: Args,
) {
    if !enabled() {
        return;
    }
    obs().tracer.record_span(SpanRecord {
        track,
        name,
        cat,
        start_ns,
        end_ns: end_ns.max(start_ns),
        args,
    });
}

/// Records an instant event on the current track.
pub fn event(name: &'static str, cat: &'static str, args: Args) {
    if !enabled() {
        return;
    }
    event_on(current_track(), name, cat, args);
}

/// Records an instant event on an explicit track.
pub fn event_on(track: u64, name: &'static str, cat: &'static str, args: Args) {
    if !enabled() {
        return;
    }
    obs().tracer.record_event(EventRecord {
        track,
        name,
        cat,
        ts_ns: now_ns(),
        args,
    });
}

/// Copies out the buffered spans and events.
pub fn trace_snapshot() -> (Vec<SpanRecord>, Vec<EventRecord>) {
    obs().tracer.snapshot()
}

/// Records dropped past the trace buffer cap since the last [`reset`].
pub fn trace_dropped() -> u64 {
    obs().tracer.dropped()
}

/// Renders the buffered trace as Chrome `trace_event` JSON
/// (Perfetto-loadable; see [`chrome::render`] for the format).
pub fn chrome_trace_json() -> String {
    let (spans, events) = trace_snapshot();
    chrome::render(&spans, &events)
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// The global metrics [`Registry`].
pub fn registry() -> &'static Registry {
    &obs().registry
}

/// Shorthand for [`Registry::counter`] on the global registry.
pub fn counter(name: &'static str, help: &'static str) -> std::sync::Arc<Counter> {
    registry().counter(name, help)
}

/// Shorthand for [`Registry::gauge`] on the global registry.
pub fn gauge(name: &'static str, help: &'static str) -> std::sync::Arc<Gauge> {
    registry().gauge(name, help)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obs state is process-global; this test exercises the whole
    /// enable → record → export → reset cycle in one place to avoid
    /// ordering hazards with other tests in this crate (none of which
    /// enable tracing).
    #[test]
    fn end_to_end_record_export_reset() {
        reset();
        // Disabled: spans are inert.
        {
            let _s = span("ignored");
        }
        assert_eq!(trace_snapshot().0.len(), 0);

        enable();
        let t = session_track(3);
        {
            let _g = set_track(t);
            let start = now_ns();
            {
                let mut s = span_cat("session", "serve");
                s.arg_u64("tenant", 0);
                {
                    let mut b = span_cat("build", "serve");
                    b.arg_str("outcome", "cold");
                    let _e = span_cat("execute", "exec");
                }
            }
            event("retry", "fault", vec![("device", ArgValue::U64(1))]);
            record_span(t, "queue_wait", "serve", start, now_ns(), vec![]);
        }
        disable();

        let (spans, events) = trace_snapshot();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.track == t));
        assert_eq!(events.len(), 1);
        chrome::check_nesting(&spans, &["session", "build", "execute"]).unwrap();
        let doc = chrome_trace_json();
        let stats = chrome::validate(&doc).unwrap();
        assert_eq!(stats.events, 5);

        reset();
        assert_eq!(trace_snapshot().0.len(), 0);
        assert_eq!(trace_dropped(), 0);
    }

    #[test]
    fn thread_tracks_are_distinct() {
        let here = current_track();
        let other = std::thread::spawn(current_track).join().unwrap();
        assert_ne!(here, other);
    }
}
