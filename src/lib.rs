//! Umbrella crate re-exporting the FAST reproduction workspace.
//!
//! See README.md for the quickstart and DESIGN.md for the architecture.

pub use cst;
pub use fast;
pub use fpga_sim;
pub use graph_core;
pub use matching;
pub use obs;
pub use serve;
