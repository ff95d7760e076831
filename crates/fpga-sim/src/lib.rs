//! # fpga-sim
//!
//! Software emulation of the FPGA substrate the FAST paper runs on (a Xilinx
//! Alveo U200). No FPGA toolchain is used; instead the crate models the
//! performance-relevant mechanisms the paper's design exploits:
//!
//! * [`FpgaSpec`] / [`PcieSpec`] — device parameters (35 MB BRAM, 64 GB
//!   DRAM, 300 MHz, PCIe gen3 x16);
//! * [`Fifo`] — the bounded inter-module streams of Fig. 5(b)/(c);
//! * [`CycleModel`] — the paper's closed-form cycle equations (1)-(4);
//! * [`des`] — a discrete-event pipeline simulator (stages with latency and
//!   initiation interval, backpressure) used to cross-validate the closed
//!   forms.

pub mod cycles;
pub mod des;
pub mod fifo;
pub mod spec;

pub use cycles::{CycleModel, StageLatencies, WorkloadCounts};
pub use des::{EdgeId, Pipeline, PipelineBuilder, RunReport, StageId};
pub use fifo::Fifo;
pub use spec::{FpgaSpec, PcieSpec};
