//! Span-based tracing: bounded in-memory buffers of spans and instant
//! events, organised into *tracks* (Chrome trace "threads").
//!
//! Tracks give every concern its own timeline: track 0 is the host,
//! devices and builder threads get small fixed ranges, and every serving
//! session gets its own track keyed by session id — so a session's
//! `session ⊇ build ⊇ execute` spans nest on one line in Perfetto no
//! matter which OS thread ran them.

use std::sync::Mutex;

/// Track id of the host/main timeline.
pub const TRACK_HOST: u64 = 0;
/// First device track; device `i` records on `DEVICE_BASE + i`.
pub const DEVICE_BASE: u64 = 0x100;
/// First auto-assigned per-thread track (CST builder workers).
pub const THREAD_BASE: u64 = 0x1_0000;
/// First per-session track; session `id` records on `SESSION_BASE + id`.
pub const SESSION_BASE: u64 = 1 << 32;

/// Track for a serving session. Ids past `u64::MAX - SESSION_BASE` share
/// the last track rather than wrapping below `SESSION_BASE`.
#[inline]
pub fn session_track(session_id: u64) -> u64 {
    SESSION_BASE.saturating_add(session_id)
}

/// Track for a pool device.
#[inline]
pub fn device_track(device_index: usize) -> u64 {
    DEVICE_BASE + device_index as u64
}

/// A typed span/event argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Float argument.
    F64(f64),
    /// Static string argument.
    Str(&'static str),
}

/// Argument list attached to a span or event.
pub type Args = Vec<(&'static str, ArgValue)>;

/// A completed span: a named interval on a track.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Track (Chrome `tid`) the span renders on.
    pub track: u64,
    /// Span name.
    pub name: &'static str,
    /// Category (Chrome `cat`).
    pub cat: &'static str,
    /// Start, nanoseconds since the obs epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the obs epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Typed arguments.
    pub args: Args,
}

/// An instant event: a named point on a track.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Track (Chrome `tid`) the event renders on.
    pub track: u64,
    /// Event name.
    pub name: &'static str,
    /// Category (Chrome `cat`).
    pub cat: &'static str,
    /// Timestamp, nanoseconds since the obs epoch.
    pub ts_ns: u64,
    /// Typed arguments.
    pub args: Args,
}

/// Cap on buffered spans (and, separately, events). Sized for hours of
/// serving; on overflow new records are counted into `dropped` instead
/// of growing without bound.
const CAP: usize = 1 << 18;

#[derive(Default)]
struct TraceBuf {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    dropped: u64,
}

/// The bounded trace sink. One lives in the global [`Obs`](crate::Obs)
/// state; recording takes a short mutex hold (the hot path never holds
/// it while timing anything).
#[derive(Default)]
pub struct Tracer {
    buf: Mutex<TraceBuf>,
}

impl Tracer {
    pub(crate) fn record_span(&self, span: SpanRecord) {
        let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if b.spans.len() < CAP {
            b.spans.push(span);
        } else {
            b.dropped += 1;
        }
    }

    pub(crate) fn record_event(&self, ev: EventRecord) {
        let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if b.events.len() < CAP {
            b.events.push(ev);
        } else {
            b.dropped += 1;
        }
    }

    /// Copies out the buffered spans and events.
    pub fn snapshot(&self) -> (Vec<SpanRecord>, Vec<EventRecord>) {
        let b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        (b.spans.clone(), b.events.clone())
    }

    /// Records dropped past the buffer cap.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Clears the buffers and the drop counter.
    pub fn clear(&self) {
        let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        b.spans.clear();
        b.events.clear();
        b.dropped = 0;
    }
}

/// RAII span: created by [`span`](crate::span)/[`span_cat`](crate::span_cat),
/// records the interval on drop. Inert (no allocation, no clock read)
/// when tracing is disabled.
#[must_use = "a span records its interval when dropped"]
pub struct SpanGuard {
    pub(crate) active: bool,
    pub(crate) track: u64,
    pub(crate) name: &'static str,
    pub(crate) cat: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) args: Args,
}

impl SpanGuard {
    /// Attaches an integer argument (no-op on an inert span).
    pub fn arg_u64(&mut self, key: &'static str, v: u64) {
        if self.active {
            self.args.push((key, ArgValue::U64(v)));
        }
    }

    /// Attaches a float argument (no-op on an inert span).
    pub fn arg_f64(&mut self, key: &'static str, v: f64) {
        if self.active {
            self.args.push((key, ArgValue::F64(v)));
        }
    }

    /// Attaches a string argument (no-op on an inert span).
    pub fn arg_str(&mut self, key: &'static str, v: &'static str) {
        if self.active {
            self.args.push((key, ArgValue::Str(v)));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            crate::obs().tracer.record_span(SpanRecord {
                track: self.track,
                name: self.name,
                cat: self.cat,
                start_ns: self.start_ns,
                end_ns: crate::now_ns(),
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_tracks_stay_at_or_above_the_base_without_overflow() {
        assert_eq!(session_track(0), SESSION_BASE);
        assert_eq!(session_track(7), SESSION_BASE + 7);
        // The largest id that still has a track of its own, and the first
        // one past it.
        let last_own = u64::MAX - SESSION_BASE;
        assert_eq!(session_track(last_own), u64::MAX);
        assert_eq!(session_track(last_own + 1), u64::MAX);
        assert_eq!(session_track(u64::MAX), u64::MAX);
    }
}
