//! The partitioner's working set, measured by a counting global allocator:
//! what `cst::partition` holds above the borrowed root while it splits a
//! CST whose children keep splitting at the same order position. Below the
//! root a node that does not fit is held as one direction per query edge,
//! and a split writes all its children before it descends and then drops
//! itself, so the recursion holds each level's pending siblings (never an
//! ancestor), one label plane and one scratch buffer sized by the node
//! being split: the peak stays a small multiple of the root however deep
//! the cascade goes.
//!
//! One `#[test]` in its own binary: no other test allocates while the
//! counters run.

use cst::{build_cst, partition_cst_into, PartitionConfig};
use graph_core::generators::random_labelled_graph;
use graph_core::{BfsTree, Label, MatchingOrder, QueryGraph, QueryVertexId};
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

#[test]
fn partition_working_set_stays_near_the_root() {
    // A 4-cycle with a chord on a dense two-label graph: every root chunk
    // keeps most of the later candidates, so a child that does not fit
    // splits again at the root, many levels deep.
    let q = QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(0), Label::new(1)],
        &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
    )
    .unwrap();
    let g = random_labelled_graph(600, 0.05, 2, 7);
    let tree = BfsTree::new(&q, QueryVertexId::new(0));
    let order = MatchingOrder::new(&q, tree.bfs_order().to_vec()).unwrap();
    let root = build_cst(&q, &g, &tree);
    let config = PartitionConfig {
        delta_s: root.payload_bytes() / 64,
        delta_d: u32::MAX,
        footprint_budget: None,
        fixed_k: Some(2),
        root_fanout: 1,
    };

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut partitions = 0usize;
    let stats = partition_cst_into(&root, &order, &config, &mut |_| partitions += 1);
    let above = PEAK.load(Ordering::Relaxed) - base;

    // Measured: 2.02 × the root, set at the root's split (a scratch of the
    // root's stored half and the two children written from it; below it,
    // the pending sibling halves on the path and one label plane). Holding
    // each intermediate whole as well, as both directions, reads 3.4 × or
    // more.
    let ratio = above as f64 / root.size_bytes() as f64;
    assert_eq!(stats.forced, 0);
    assert_eq!(stats.max_index, 0, "every split is at the root");
    assert!(
        partitions >= 64,
        "{partitions} partitions: the cascade is too shallow"
    );
    assert!(
        ratio < 2.5,
        "peak above the root {above} B = {ratio:.2} x its {} B",
        root.size_bytes()
    );
}
