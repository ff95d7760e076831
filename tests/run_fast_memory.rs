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
//! counters run.

use cst::build_cst_with_stats;
use fast::{run_fast, FastConfig, Variant};
use fpga_sim::FpgaSpec;
use graph_core::{benchmark_query, select_root, BfsTree, DatasetId, QUERY_COUNT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bound on one call's peak above the heap before it, in root CSTs.
/// Measured: at most 3.62 x (q2; q3 3.59 x), the ready queue's backlog
/// included. A partitioner that keeps the root whole to the end, every
/// ancestor's half on the path and a label plane per level reads 7.95 x on
/// q3 and 7.21 x on q2, and fails it.
const BOUND: f64 = 5.0;

#[test]
fn run_fast_peak_stays_near_the_root_cst() {
    // The benchmark's device (2 MiB of BRAM, N_o = 512, Port_max = 2048),
    // FAST-SHARE with δ = 0.1: on DG03 the CSTs of q0-q3 and q8 are split
    // (3 to 47 partitions, two of q2's nodes stolen), the others fit whole.
    let g = DatasetId::Dg03.generate();
    let config = FastConfig {
        spec: FpgaSpec {
            bram_bytes: 2 << 20,
            no: 512,
            port_max: 2048,
            fifo_depth: 128,
            ..FpgaSpec::default()
        },
        ..FastConfig::for_variant(Variant::Share)
    };
    let (mut readings, mut worst) = (Vec::new(), 0.0f64);
    for i in 0..QUERY_COUNT {
        let q = benchmark_query(i);
        // The CST `run_fast` builds: the same root, tree and options.
        let tree = BfsTree::new(&q, select_root(&q, &g));
        let root = build_cst_with_stats(&q, &g, &tree, config.cst_options)
            .0
            .size_bytes();

        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let report = run_fast(&q, &g, &config).expect("every benchmark query runs");
        let above = PEAK.load(Ordering::Relaxed) - base;

        assert!(report.embeddings > 0, "q{i} matches nothing");
        let parts = report.fpga_partitions + report.cpu_partitions;
        let ratio = above as f64 / root as f64;
        readings.push(format!("q{i}: {ratio:.2} x, {parts} partitions"));
        worst = worst.max(ratio);
    }
    assert!(
        worst < BOUND,
        "peak above the heap before the call, in root CSTs: {readings:?} (bound {BOUND} x)"
    );
}
