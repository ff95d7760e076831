//! The analytic cycle model (paper Section VI-B/C/D, Equations 1-4).
//!
//! The paper derives the total kernel cycles from two workload counters:
//! `N` — the number of partial results (`p_o`) generated, and `M` — the
//! number of edge-validation tasks (`t_n`). Six per-stage latencies `L1..L6`
//! cover: (1) read from the intermediate results buffer, (2) expand a
//! partial result and emit its visited-validation task, (3) visited
//! validation, (4) collection, (5) edge-validation task generation,
//! (6) edge validation. With `L_f = L1+..+L4` and `L_t = L5+L6`:
//!
//! * Eq. (1) `L_serial = N·L_f + M·L_t` — no pipelining;
//! * Eq. (2) `L_basic ≈ (N·L_f + M·L_t)/N_o + 4N + 2M` — loop pipelining,
//!   modules still serialised;
//! * Eq. (3) `L_task ≈ 2N + max(N, M)` — task parallelism (Fig. 5(b));
//! * Eq. (4) `L_sep ≈ N + max(N, M)` — separated task generators
//!   (Fig. 5(c)).
//!
//! FAST-DRAM has no equation in the paper; we model it as the basic design
//! with every buffer/CST touch paying the DRAM read latency instead of the
//! BRAM's single cycle (Fig. 7 measures the resulting ~5x gap).

/// Per-stage latencies `L1..L6` (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageLatencies {
    pub l1: u32,
    pub l2: u32,
    pub l3: u32,
    pub l4: u32,
    pub l5: u32,
    pub l6: u32,
}

impl Default for StageLatencies {
    fn default() -> Self {
        // Representative HLS latencies: a buffer read, an expansion (BRAM
        // adjacency fetch + bounds checks), a parallel compare, a collect,
        // a task emit, and an O(1) partitioned-array edge probe.
        StageLatencies {
            l1: 2,
            l2: 4,
            l3: 2,
            l4: 2,
            l5: 2,
            l6: 3,
        }
    }
}

impl StageLatencies {
    /// `L_f = L1 + L2 + L3 + L4`.
    #[inline]
    pub fn lf(&self) -> u64 {
        (self.l1 + self.l2 + self.l3 + self.l4) as u64
    }

    /// `L_t = L5 + L6`.
    #[inline]
    pub fn lt(&self) -> u64 {
        (self.l5 + self.l6) as u64
    }
}

/// Workload counters measured by the kernel during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadCounts {
    /// `N`: partial results generated.
    pub n: u64,
    /// `M`: edge-validation tasks generated.
    pub m: u64,
}

/// The analytic cycle model.
#[derive(Debug, Clone, Copy)]
pub struct CycleModel {
    pub latencies: StageLatencies,
    /// `N_o`: partial results expanded per round.
    pub no: u32,
    /// BRAM read latency (cycles).
    pub bram_read_latency: u32,
    /// DRAM read latency (cycles).
    pub dram_read_latency: u32,
}

impl CycleModel {
    /// Builds a model from a device spec.
    pub fn new(
        latencies: StageLatencies,
        no: u32,
        bram_read_latency: u32,
        dram_read_latency: u32,
    ) -> Self {
        assert!(no > 0, "N_o must be positive");
        CycleModel {
            latencies,
            no,
            bram_read_latency,
            dram_read_latency,
        }
    }

    /// Eq. (1): fully serial execution.
    pub fn serial(&self, w: WorkloadCounts) -> u64 {
        w.n * self.latencies.lf() + w.m * self.latencies.lt()
    }

    /// Eq. (2): loop-pipelined modules executed one after another
    /// (FAST-BASIC).
    pub fn basic(&self, w: WorkloadCounts) -> u64 {
        self.serial(w) / self.no as u64 + 4 * w.n + 2 * w.m
    }

    /// FAST-DRAM: the basic design with CST and intermediate results in
    /// DRAM — each of the four per-`p_o` steps and two per-`t_n` steps pays
    /// the DRAM read latency instead of one BRAM cycle.
    pub fn dram(&self, w: WorkloadCounts) -> u64 {
        let r = self.dram_read_latency.max(self.bram_read_latency) as u64;
        self.serial(w) / self.no as u64 + r * (4 * w.n + 2 * w.m)
    }

    /// Eq. (3): task parallelism between modules (FAST-TASK).
    pub fn task(&self, w: WorkloadCounts) -> u64 {
        2 * w.n + w.n.max(w.m)
    }

    /// Eq. (4): separated `t_v`/`t_n` generators (FAST-SEP).
    pub fn sep(&self, w: WorkloadCounts) -> u64 {
        w.n + w.n.max(w.m)
    }

    /// The paper's guidance on choosing `N_o` (Section VI-B): it must
    /// dominate the pipelined-fill term, `N_o >> (N·L_f + M·L_t)/(4N + 2M)`.
    /// Returns the right-hand side for a given workload.
    pub fn no_lower_bound(&self, w: WorkloadCounts) -> f64 {
        let denom = (4 * w.n + 2 * w.m) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.serial(w) as f64 / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CycleModel {
        CycleModel::new(StageLatencies::default(), 1024, 1, 8)
    }

    fn w(n: u64, m: u64) -> WorkloadCounts {
        WorkloadCounts { n, m }
    }

    #[test]
    fn serial_matches_equation_1() {
        let m = model();
        let lat = m.latencies;
        assert_eq!(m.serial(w(10, 4)), 10 * lat.lf() + 4 * lat.lt());
    }

    #[test]
    fn basic_matches_equation_2() {
        let m = model();
        let counts = w(1000, 500);
        let expected = m.serial(counts) / 1024 + 4 * 1000 + 2 * 500;
        assert_eq!(m.basic(counts), expected);
    }

    #[test]
    fn task_and_sep_match_equations_3_and_4() {
        let m = model();
        assert_eq!(m.task(w(100, 250)), 200 + 250);
        assert_eq!(m.task(w(100, 50)), 200 + 100);
        assert_eq!(m.sep(w(100, 250)), 100 + 250);
        assert_eq!(m.sep(w(100, 50)), 100 + 100);
    }

    #[test]
    fn ordering_serial_ge_basic_ge_task_ge_sep() {
        // The optimisation ladder must never invert for realistic workloads
        // (N_o chosen per the paper's rule).
        let m = model();
        for (n, mm) in [(1000u64, 800u64), (5000, 12000), (100, 100), (10_000, 3000)] {
            let c = w(n, mm);
            assert!(m.serial(c) >= m.basic(c), "serial<basic at {n},{mm}");
            assert!(m.basic(c) >= m.task(c), "basic<task at {n},{mm}");
            assert!(m.task(c) >= m.sep(c), "task<sep at {n},{mm}");
        }
    }

    #[test]
    fn dram_to_basic_ratio_near_latency_ratio() {
        // Fig. 7: FAST-BASIC ≈ 5x faster than FAST-DRAM, "close to the ratio
        // of the read latency" (8). With the fill term amortised the model
        // approaches r; with overheads it sits below it.
        let m = model();
        let c = w(1_000_000, 1_000_000);
        let ratio = m.dram(c) as f64 / m.basic(c) as f64;
        assert!(ratio > 4.0 && ratio <= 8.0, "ratio {ratio}");
    }

    #[test]
    fn task_improvement_bounded_by_50_percent() {
        // Section VI-C: "this optimization can achieve up to 50% performance
        // improvement in theory" over basic.
        let m = model();
        for (n, mm) in [(1000u64, 1000u64), (1000, 4000), (4000, 1000)] {
            let c = w(n, mm);
            let gain = 1.0 - m.task(c) as f64 / m.basic(c) as f64;
            assert!(gain <= 0.51, "gain {gain} at {n},{mm}");
        }
    }

    #[test]
    fn sep_improvement_bounded_by_33_percent() {
        // Section VI-D: at most 33% over task.
        let m = model();
        for (n, mm) in [(1000u64, 1000u64), (1000, 4000), (4000, 1000), (2000, 1999)] {
            let c = w(n, mm);
            let gain = 1.0 - m.sep(c) as f64 / m.task(c) as f64;
            assert!(gain <= 1.0 / 3.0 + 1e-9, "gain {gain} at {n},{mm}");
        }
    }

    #[test]
    fn sep_gain_maximised_when_n_dominates() {
        // Section VI-D: "when N/M > 1, Task Generator Separation achieves the
        // best improvements" — gain = N/(2N+max(N,M)) grows with N/M.
        let m = model();
        let gain = |c: WorkloadCounts| 1.0 - m.sep(c) as f64 / m.task(c) as f64;
        assert!(gain(w(4000, 1000)) > gain(w(1000, 4000)));
    }

    #[test]
    fn no_lower_bound_sane() {
        let m = model();
        let c = w(1000, 1000);
        let bound = m.no_lower_bound(c);
        // L_f=10, L_t=5 with defaults → (10N + 5M)/(4N + 2M) = 2.5.
        assert!((bound - 2.5).abs() < 1e-9);
        assert_eq!(m.no_lower_bound(w(0, 0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_no_rejected() {
        CycleModel::new(StageLatencies::default(), 0, 1, 8);
    }
}
