//! Named metrics: atomic counters behind a process-wide registry, rendered as a Prometheus-style text exposition.
//!
//! Handles are `Arc`s cached by the instrumented code, so the hot path
//! is a single relaxed atomic op — the registry lock is only taken at
//! registration and render time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing `u64` metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter in place (handles stay valid) — used by
    /// [`reset`](crate::reset) between measurement arms.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// The process-wide named-counter table. Obtain via
/// [`registry`](crate::registry()) (or [`counter`](crate::counter)
/// directly).
#[derive(Default)]
pub struct Registry {
    /// Name → (help text, counter).
    counters: RwLock<BTreeMap<&'static str, (&'static str, Arc<Counter>)>>,
}

impl Registry {
    /// Returns the counter registered under `name`, creating it (with
    /// `help` text) on first use.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        if let Some((_, c)) = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut w = self.counters.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(&w.entry(name).or_insert_with(|| (help, Arc::default())).1)
    }

    /// Zeroes every registered counter in place; handles stay valid.
    pub fn reset(&self) {
        for (_, c) in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.reset();
        }
    }

    /// Prometheus text exposition (format 0.0.4) of every registered
    /// counter, sorted by name.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, (help, c)) in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                c.get()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once() {
        let r = Registry::default();
        let a = r.counter("t_total", "a test counter");
        let b = r.counter("t_total", "ignored duplicate help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE t_total counter"));
        assert!(text.contains("t_total 3"));
        r.reset();
        assert_eq!(a.get(), 0);
    }
}
