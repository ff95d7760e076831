//! The five FAST variants of the evaluation (paper Section VII).
//!
//! | variant | design | cycle model |
//! |---------|--------|-------------|
//! | FAST-DRAM | CST + intermediates in DRAM | basic model at DRAM latency |
//! | FAST-BASIC | BRAM-resident, loop pipelining only (Fig. 5(a)) | Eq. (2) |
//! | FAST-TASK | + task parallelism via FIFOs (Fig. 5(b)) | Eq. (3) |
//! | FAST-SEP | + separated `t_v`/`t_n` generators (Fig. 5(c)) | Eq. (4) |
//! | FAST-SHARE | FAST-SEP + CPU work sharing (Alg. 3) | Eq. (4) on the FPGA share |
//!
//! The paper picks FAST-SHARE as the final algorithm, "denoted as FAST".

use fpga_sim::{CycleModel, WorkloadCounts};

/// A FAST variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    Dram,
    Basic,
    Task,
    Sep,
    Share,
}

impl Variant {
    /// The paper's name for the variant.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Dram => "FAST-DRAM",
            Variant::Basic => "FAST-BASIC",
            Variant::Task => "FAST-TASK",
            Variant::Sep => "FAST-SEP",
            Variant::Share => "FAST-SHARE",
        }
    }

    /// All variants in the paper's optimisation order.
    pub const ALL: [Variant; 5] = [
        Variant::Dram,
        Variant::Basic,
        Variant::Task,
        Variant::Sep,
        Variant::Share,
    ];

    /// Whether this variant gives matching work to the CPU (Algorithm 3).
    pub fn shares_with_cpu(&self) -> bool {
        matches!(self, Variant::Share)
    }

    /// Kernel cycles for a measured workload under this variant.
    pub fn kernel_cycles(&self, model: &CycleModel, counts: WorkloadCounts) -> u64 {
        match self {
            Variant::Dram => model.dram(counts),
            Variant::Basic => model.basic(counts),
            Variant::Task => model.task(counts),
            // SHARE runs the SEP kernel on the FPGA side.
            Variant::Sep | Variant::Share => model.sep(counts),
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_sim::StageLatencies;

    fn model() -> CycleModel {
        CycleModel::new(StageLatencies::default(), 1024, 1, 8)
    }

    #[test]
    fn variant_ladder_is_monotone() {
        let m = model();
        let counts = WorkloadCounts {
            n: 50_000,
            m: 40_000,
        };
        let cycles: Vec<u64> = Variant::ALL
            .iter()
            .map(|v| v.kernel_cycles(&m, counts))
            .collect();
        // DRAM ≥ BASIC ≥ TASK ≥ SEP = SHARE.
        assert!(cycles[0] >= cycles[1]);
        assert!(cycles[1] >= cycles[2]);
        assert!(cycles[2] >= cycles[3]);
        assert_eq!(cycles[3], cycles[4]);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Variant::Dram.name(), "FAST-DRAM");
        assert_eq!(Variant::Share.name(), "FAST-SHARE");
        assert!(Variant::Share.shares_with_cpu());
        assert!(!Variant::Sep.shares_with_cpu());
    }
}
