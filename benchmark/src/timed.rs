//! What a run's timed phase yields.

use crate::probe::Layers;
use crate::spans::SpanLog;

/// What a timed phase did.
#[derive(Debug, Default)]
pub struct Timed {
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a count other
    /// than the golden one.
    pub failed: u64,
    /// Wall seconds of every operation, call → return.
    pub latencies: Vec<f64>,
    pub wall_s: f64,
}

impl Timed {
    /// Counts an operation that is not a latency sample (a layer probe).
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn record(&mut self, latency_s: f64, ok: bool) {
        self.count(ok);
        self.latencies.push(latency_s);
    }

    pub fn absorb(&mut self, other: Timed) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.latencies.extend(other.latencies);
    }

    /// Completed, count-verified operations ÷ wall of the timed phase.
    pub fn throughput_qps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }
}

/// What a traced run yields beside its operations.
pub struct Traced {
    pub timed: Timed,
    pub layers: Layers,
    pub log: SpanLog,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_verified_completions_only() {
        let mut timed = Timed::default();
        for i in 0..100 {
            timed.record(0.5, i >= 10);
        }
        timed.wall_s = 2.0;
        assert_eq!((timed.attempted, timed.failed), (100, 10));
        assert_eq!(timed.throughput_qps(), 45.0);
    }
}
