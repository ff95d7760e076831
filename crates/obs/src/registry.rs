//! Named metrics: atomic counters and gauges behind a process-wide
//! registry, rendered as a Prometheus-style text exposition.
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

/// A point-in-time `f64` metric (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Zeroes the gauge in place.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter { help: &'static str, c: Arc<Counter> },
    Gauge { help: &'static str, g: Arc<Gauge> },
}

/// The process-wide named-metric table. Obtain via
/// [`registry`](crate::registry()) (or [`counter`](crate::counter) /
/// [`gauge`](crate::gauge) directly).
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<&'static str, Metric>>,
}

impl Registry {
    /// Returns the counter registered under `name`, creating it (with
    /// `help` text) on first use. Panics if `name` is already a gauge.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        if let Some(Metric::Counter { c, .. }) = self
            .metrics
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut w = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        match w.entry(name).or_insert_with(|| Metric::Counter {
            help,
            c: Arc::default(),
        }) {
            Metric::Counter { c, .. } => Arc::clone(c),
            Metric::Gauge { .. } => panic!("metric {name} already registered as a gauge"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use. Panics if `name` is already a counter.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        if let Some(Metric::Gauge { g, .. }) = self
            .metrics
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(g);
        }
        let mut w = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        match w.entry(name).or_insert_with(|| Metric::Gauge {
            help,
            g: Arc::default(),
        }) {
            Metric::Gauge { g, .. } => Arc::clone(g),
            Metric::Counter { .. } => panic!("metric {name} already registered as a counter"),
        }
    }

    /// Zeroes every registered metric in place; handles stay valid.
    pub fn reset(&self) {
        for m in self
            .metrics
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            match m {
                Metric::Counter { c, .. } => c.reset(),
                Metric::Gauge { g, .. } => g.reset(),
            }
        }
    }

    /// Prometheus text exposition (format 0.0.4) of every registered
    /// metric, sorted by name.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, m) in self
            .metrics
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            match m {
                Metric::Counter { help, c } => {
                    out.push_str(&format!(
                        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                        c.get()
                    ));
                }
                Metric::Gauge { help, g } => {
                    out.push_str(&format!(
                        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
                        g.get()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let r = Registry::default();
        let a = r.counter("t_total", "a test counter");
        let b = r.counter("t_total", "ignored duplicate help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = r.gauge("t_gauge", "a test gauge");
        g.set(1.5);
        assert_eq!(r.gauge("t_gauge", "").get(), 1.5);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE t_total counter"));
        assert!(text.contains("t_total 3"));
        assert!(text.contains("t_gauge 1.5"));
        r.reset();
        assert_eq!(a.get(), 0);
        assert_eq!(g.get(), 0.0);
    }
}
