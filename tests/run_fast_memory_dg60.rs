//! `tests/run_fast_memory.rs`'s bound at the paper's largest in-repo scale:
//! the peak live heap of one `run_fast` call over the heap before it, on
//! DG60 (1.97 M vertices, the top of the SF ladder), against the query's
//! root CST (`Cst::size_bytes`), under the same `< 5 ×` bound. The host
//! holds the graph, one CST and a bounded partitioning working set
//! (Section V-B), whatever the graph's scale.
//!
//! Release only and `#[ignore]`d: generating DG60 and running q0-q8 takes
//! about 10 s in release (`cargo test --release -- --include-ignored`). One
//! `#[test]` in its own binary: no other test allocates while the counters
//! run (`run_fast_peak`).
#![cfg(not(debug_assertions))]

mod run_fast_peak;

use graph_core::DatasetId;

/// The bound on one call's peak above the heap before it, in root CSTs:
/// `tests/run_fast_memory.rs`'s. Measured: at most 3.27 x (q2; q8 3.16 x).
const BOUND: f64 = 5.0;

#[test]
#[ignore = "DG60: about 10 s in release; run with --include-ignored"]
fn run_fast_peak_stays_near_the_root_cst_on_dg60() {
    let (readings, worst) = run_fast_peak::run_fast_peaks(&DatasetId::Dg60.generate());
    println!("peak above the heap before the call, in root CSTs: {readings:?}");
    assert!(
        worst < BOUND,
        "peak above the heap before the call, in root CSTs: {readings:?} (bound {BOUND} x)"
    );
}
