//! The host-side workload scheduler (paper Algorithm 3, Section V-C).
//!
//! After partitioning, the CPU would otherwise sit idle; FAST-SHARE assigns
//! it a bounded share of the matching work. For each valid CST, the
//! estimated workload `W_CST` is computed and the partition goes to the CPU
//! only while `(W_C + W_CST) < δ · (W_C + W_F + W_CST)` — keeping the CPU's
//! share of total estimated work below `δ` (the paper finds `δ ≈ 0.1` best,
//! with the CPU becoming the bottleneck past ~0.15, Fig. 13).
//!
//! The decision is *stream-order dependent*: assignments depend on the
//! workloads booked so far. The host books partitions in the partitioner's
//! emission order, which is deterministic, so the booking sequence — and
//! with it every count in the report — is too.

/// Where a CST partition is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    Cpu,
    Fpga,
}

/// Algorithm 3 state.
#[derive(Debug, Clone)]
pub struct ShareScheduler {
    delta: f64,
    w_cpu: f64,
    w_fpga: f64,
    cpu_partitions: usize,
    fpga_partitions: usize,
}

impl ShareScheduler {
    /// Creates a scheduler with CPU-share threshold `δ ∈ [0, 1]`.
    pub fn new(delta: f64) -> Self {
        assert!((0.0..=1.0).contains(&delta), "δ must be in [0, 1]");
        ShareScheduler {
            delta,
            w_cpu: 0.0,
            w_fpga: 0.0,
            cpu_partitions: 0,
            fpga_partitions: 0,
        }
    }

    /// Whether a partition of workload `w_cst` would go to the CPU under
    /// Algorithm 3's condition, without booking it. Used by the partition
    /// steal hook, which must not double-book workloads.
    pub fn would_assign_cpu(&self, w_cst: f64) -> bool {
        let total = self.w_cpu + self.w_fpga + w_cst;
        self.delta > 0.0 && self.w_cpu + w_cst < self.delta * total
    }

    /// Whether any workload `W ≥ 0` could still go to the CPU. In exact
    /// arithmetic that is `(1 − δ)·W_C < δ·W_F`, i.e. `W_C < δ·(W_C + W_F)`;
    /// the relative margin of 8 ε covers the rounding of
    /// [`would_assign_cpu`](Self::would_assign_cpu)'s three operations, so
    /// `false` here proves it is `false` for every `W ≥ 0`, `inf` included.
    /// Lets a caller skip estimating a workload that cannot be taken.
    pub fn can_take_any(&self) -> bool {
        self.delta > 0.0
            && self.w_cpu < self.delta * (self.w_cpu + self.w_fpga) * (1.0 + 8.0 * f64::EPSILON)
    }

    /// Books a partition to the CPU unconditionally.
    pub fn book_cpu(&mut self, w_cst: f64) {
        self.w_cpu += w_cst;
        self.cpu_partitions += 1;
    }

    /// Decides where a partition with estimated workload `w_cst` runs and
    /// books the workload (Algorithm 3 lines 2-7).
    pub fn assign(&mut self, w_cst: f64) -> Assignment {
        if self.would_assign_cpu(w_cst) {
            self.book_cpu(w_cst);
            Assignment::Cpu
        } else {
            self.w_fpga += w_cst;
            self.fpga_partitions += 1;
            Assignment::Fpga
        }
    }

    /// Total workload booked to the CPU (`W_C`).
    pub fn cpu_workload(&self) -> f64 {
        self.w_cpu
    }

    /// Total workload booked to the FPGA (`W_F`).
    pub fn fpga_workload(&self) -> f64 {
        self.w_fpga
    }

    /// Partitions assigned to the CPU.
    pub fn cpu_partitions(&self) -> usize {
        self.cpu_partitions
    }

    /// Partitions assigned to the FPGA.
    pub fn fpga_partitions(&self) -> usize {
        self.fpga_partitions
    }

    /// The configured threshold δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Actual CPU fraction of the booked workload.
    pub fn cpu_fraction(&self) -> f64 {
        let total = self.w_cpu + self.w_fpga;
        if total == 0.0 {
            0.0
        } else {
            self.w_cpu / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_zero_sends_everything_to_fpga() {
        let mut s = ShareScheduler::new(0.0);
        for _ in 0..100 {
            assert_eq!(s.assign(10.0), Assignment::Fpga);
        }
        assert_eq!(s.cpu_partitions(), 0);
        assert_eq!(s.fpga_workload(), 1000.0);
    }

    #[test]
    fn cpu_fraction_respects_delta() {
        // Uniform workloads: the CPU share must converge below δ.
        for delta in [0.05, 0.1, 0.2, 0.3] {
            let mut s = ShareScheduler::new(delta);
            for _ in 0..10_000 {
                s.assign(1.0);
            }
            assert!(
                s.cpu_fraction() <= delta + 1e-6,
                "fraction {} exceeds δ {delta}",
                s.cpu_fraction()
            );
            // And it should not be vacuously zero for δ > 0.
            assert!(s.cpu_fraction() > delta / 2.0, "δ={delta}");
        }
    }

    #[test]
    fn failed_bound_takes_no_workload() {
        let workloads = [
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            1e-9,
            0.5,
            1.0,
            3.0,
            1e6,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let check = |s: &ShareScheduler| {
            let delta = s.delta();
            let bound_fails = (1.0 - delta) * s.cpu_workload() >= delta * s.fpga_workload();
            if bound_fails || !s.can_take_any() {
                for w in workloads {
                    assert!(
                        !s.would_assign_cpu(w),
                        "δ={delta} took W={w} past the bound"
                    );
                }
            }
            !s.can_take_any()
        };
        // Exactly at the bound: (1 − δ)·W_C = δ·W_F.
        let mut s = ShareScheduler::new(0.5);
        s.book_cpu(1.0);
        assert_eq!(s.assign(1.0), Assignment::Fpga);
        check(&s);
        let mut failed = 0;
        for delta in [0.0, 1e-3, 0.05, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0] {
            let mut s = ShareScheduler::new(delta);
            // A mixed stream that crosses the bound both ways.
            for i in 0..400u64 {
                failed += usize::from(check(&s));
                let w = match i % 7 {
                    0 => 1000.0,
                    1 => 0.0,
                    _ => 1.0 + (i % 13) as f64 / 3.0,
                };
                s.assign(w);
            }
        }
        assert!(failed > 0, "the bound never failed");
    }

    #[test]
    fn skewed_workloads_still_bounded() {
        let mut s = ShareScheduler::new(0.1);
        // Power-law-ish workload stream.
        for i in 1..=2000u64 {
            let w = if i % 97 == 0 { 1000.0 } else { 1.0 };
            s.assign(w);
        }
        assert!(s.cpu_fraction() <= 0.1 + 1e-6);
    }

    #[test]
    fn first_partition_goes_to_fpga_for_small_delta() {
        // (0 + w) < δ(0 + 0 + w) is false for δ < 1, so the FPGA seeds first.
        let mut s = ShareScheduler::new(0.1);
        assert_eq!(s.assign(5.0), Assignment::Fpga);
        // Later small partitions can then flow to the CPU.
        let mut saw_cpu = false;
        for _ in 0..100 {
            if s.assign(1.0) == Assignment::Cpu {
                saw_cpu = true;
            }
        }
        assert!(saw_cpu);
    }

    #[test]
    #[should_panic(expected = "δ must be in")]
    fn invalid_delta_rejected() {
        ShareScheduler::new(1.5);
    }
}
