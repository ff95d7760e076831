//! The measurement behind `run_fast_memory.rs` (DG03, a hub graph) and
//! `run_fast_memory_dg60.rs`: a counting global allocator, and one
//! `run_fast` per query read as the peak live heap above the heap before
//! the call, in root CSTs (`Cst::size_bytes`). Each test binary includes
//! this as a module of its own: the counters are process-global, so its
//! tests run one at a time ([`alone`]) and no other binary's share them.

use cst::build_cst_with_stats;
use fast::{run_fast, FastConfig, Variant};
use fpga_sim::FpgaSpec;
use graph_core::{benchmark_query, select_root, BfsTree, Graph, QueryGraph, QUERY_COUNT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Serialises the tests of one binary: the counters are process-global, so
/// each test holds this from its first allocation to its last reading.
pub fn alone() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns its result with the peak live heap above the heap
/// before it.
pub fn peak_above<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// The benchmark's device (N_o = 512, Port_max = 2048) with `bram_bytes`
/// of BRAM, under FAST-SHARE with δ = 0.1.
pub fn device_config(bram_bytes: usize) -> FastConfig {
    FastConfig {
        spec: FpgaSpec {
            bram_bytes,
            no: 512,
            port_max: 2048,
            fifo_depth: 128,
            ..FpgaSpec::default()
        },
        ..FastConfig::for_variant(Variant::Share)
    }
}

/// `Cst::size_bytes` of the root CST `run_fast` and `prepare_partitions`
/// build for `q` under `tree`: the same root, tree and options.
pub fn root_cst_bytes(q: &QueryGraph, g: &Graph, tree: &BfsTree, config: &FastConfig) -> usize {
    build_cst_with_stats(q, g, tree, config.cst_options)
        .0
        .size_bytes()
}

/// Runs `run_fast` on each of `queries` over `g`. Returns a reading per
/// query and the worst ratio of the peak above the heap before the call to
/// the query's root CST.
pub fn run_fast_peaks(
    g: &Graph,
    queries: &[QueryGraph],
    config: &FastConfig,
) -> (Vec<String>, f64) {
    let (mut readings, mut worst) = (Vec::new(), 0.0f64);
    for (i, q) in queries.iter().enumerate() {
        let tree = BfsTree::new(q, select_root(q, g));
        let root = root_cst_bytes(q, g, &tree, config);
        let (report, above) = peak_above(|| run_fast(q, g, config));
        let report = report.expect("every query runs");

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

/// [`run_fast_peaks`] for the benchmark queries on the benchmark's device
/// (2 MiB of BRAM).
pub fn benchmark_peaks(g: &Graph) -> (Vec<String>, f64) {
    let queries: Vec<QueryGraph> = (0..QUERY_COUNT).map(benchmark_query).collect();
    run_fast_peaks(g, &queries, &device_config(2 << 20))
}
