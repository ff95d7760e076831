//! # bench
//!
//! The experiment harness regenerating every table and figure of the FAST
//! paper's evaluation section (Section VII): Table III, Figs. 7–17 and the
//! ablations, in modelled seconds. Run `cargo run --release -p bench --bin
//! experiments -- all` (or a specific target such as `fig14`). Wall-clock
//! claims about serving live in the benchmark (`BENCHMARK.json`), not here.
//!
//! The scaled device/dataset regime is documented in [`harness`] and
//! DESIGN.md §6; EXPERIMENTS.md records paper-vs-measured for every target.

pub mod figures;
pub mod harness;
