//! The host's working set around one `run_fast` call, measured by a
//! counting global allocator: the peak live heap over the heap before the
//! call, against the query's root CST (`Cst::size_bytes`). `run_fast` hands
//! the root to the partitioner, which keeps only one direction of each query
//! edge and frees it after the first split; below the root a split writes
//! its children before descending, so the recursion holds pending siblings
//! and one label plane, not every ancestor and a plane per level. What the
//! bound leaves room for beyond that is the ready queue: partitions booked
//! but not yet run by either drainer, which depends on thread timing.
//!
//! One `#[test]` in its own binary: no other test allocates while the
//! counters run (`run_fast_peak`).

mod run_fast_peak;

use graph_core::DatasetId;

/// The bound on one call's peak above the heap before it, in root CSTs.
/// Measured: at most 3.62 x (q2; q3 3.59 x), the ready queue's backlog
/// included. A partitioner that keeps the root whole to the end, every
/// ancestor's half on the path and a label plane per level reads 7.95 x on
/// q3 and 7.21 x on q2, and fails it.
const BOUND: f64 = 5.0;

#[test]
fn run_fast_peak_stays_near_the_root_cst() {
    // On DG03 the CSTs of q0-q3 and q8 are split (3 to 47 partitions, two
    // of q2's nodes stolen), the others fit whole.
    let (readings, worst) = run_fast_peak::run_fast_peaks(&DatasetId::Dg03.generate());
    assert!(
        worst < BOUND,
        "peak above the heap before the call, in root CSTs: {readings:?} (bound {BOUND} x)"
    );
}
