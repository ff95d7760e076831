//! The measurement behind `run_fast_memory.rs` (DG03) and
//! `run_fast_memory_dg60.rs`: a counting global allocator, and one
//! `run_fast` per benchmark query read as the peak live heap above the heap
//! before the call, in root CSTs (`Cst::size_bytes`). Each test includes
//! this as a module of its own binary: the counters are process-global, so
//! no other test may allocate while they run.

use cst::build_cst_with_stats;
use fast::{run_fast, FastConfig, Variant};
use fpga_sim::FpgaSpec;
use graph_core::{benchmark_query, select_root, BfsTree, Graph, QUERY_COUNT};
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

/// Runs `run_fast` on every benchmark query over `g`, on the benchmark's
/// device (2 MiB of BRAM, N_o = 512, Port_max = 2048) under FAST-SHARE with
/// δ = 0.1. Returns a reading per query and the worst ratio of the peak
/// above the heap before the call to the query's root CST.
pub fn run_fast_peaks(g: &Graph) -> (Vec<String>, f64) {
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
        let tree = BfsTree::new(&q, select_root(&q, g));
        let root = build_cst_with_stats(&q, g, &tree, config.cst_options)
            .0
            .size_bytes();

        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let report = run_fast(&q, g, &config).expect("every benchmark query runs");
        let above = PEAK.load(Ordering::Relaxed) - base;

        assert!(report.embeddings > 0, "q{i} matches nothing");
        let parts = report.fpga_partitions + report.cpu_partitions;
        let ratio = above as f64 / root as f64;
        readings.push(format!(
            "q{i}: {ratio:.2} x ({above} B over {root} B), {parts} partitions"
        ));
        worst = worst.max(ratio);
    }
    (readings, worst)
}
