//! Serving quickstart: a [`serve::FastService`] holding one loaded graph,
//! serving a concurrent stream of repeated queries across a pool of
//! emulated FPGA devices, with plan caching amortising the shard
//! probe/boundary search across repeats.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::benchmark_query;
use graph_core::generators::{generate_ldbc, LdbcParams};
use serve::{FastService, ServeConfig, SessionEvent};

fn main() {
    let graph = generate_ldbc(&LdbcParams::with_scale_factor(1.0), 7);
    println!(
        "serving a graph of {} vertices / {} edges\n",
        graph.vertex_count(),
        graph.edge_count()
    );

    let mut fast = FastConfig::for_variant(Variant::Sep);
    fast.shard_planner = ShardPlanner::Auto;
    let service = FastService::new(
        graph,
        ServeConfig {
            fast,
            devices: 4,
            extra_devices: Vec::new(),
            workers: 4,
            cache_capacity: 32,
            cst_cache_bytes: ServeConfig::default().cst_cache_bytes,
            max_in_flight: 8,
            ..ServeConfig::default()
        },
    );

    // One session up close: per-partition results stream back as device
    // kernels drain.
    let handle = service.submit(benchmark_query(1));
    let mut parts = 0usize;
    loop {
        match handle.next_event().expect("session alive") {
            SessionEvent::Partition(u) => {
                parts += 1;
                if parts <= 3 {
                    println!(
                        "  partition {:>3} -> device {} : {:>6} embeddings ({} cycles)",
                        u.index, u.device, u.embeddings, u.kernel_cycles
                    );
                }
            }
            SessionEvent::Done(r) => {
                println!(
                    "  ... q1 done: {} embeddings over {} partitions, plan {:?} ({})\n",
                    r.embeddings,
                    r.partitions,
                    r.plan_time,
                    if r.cache_hit { "cache hit" } else { "cold plan" },
                );
                break;
            }
            SessionEvent::Failed(e) => panic!("session failed: {e}"),
        }
    }

    // A burst of repeated queries: plans come from the cache, partitions
    // are multiplexed across all four devices.
    let mix = [0usize, 1, 2, 1, 0, 1, 2, 1, 1, 2, 0, 1];
    let handles: Vec<_> = mix.iter().map(|&qi| service.submit(benchmark_query(qi))).collect();
    for (qi, h) in mix.iter().zip(handles) {
        let r = h.wait().expect("session completes");
        println!(
            "q{qi}: {:>8} embeddings  latency {:>9.3?}  queue {:>9.3?}  plan {:>9.3?}  {}",
            r.embeddings,
            r.latency,
            r.queue_wait,
            r.plan_time,
            if r.cache_hit { "hit" } else { "miss" },
        );
    }

    let report = service.shutdown();
    println!(
        "\nserved {} sessions at {:.1} QPS | latency p50 {:.1}ms p99 {:.1}ms | tier-2 hit rate {:.0}% ({} resident bytes) | {} devices, imbalance {:.2}x",
        report.completed,
        report.qps,
        report.latency_p50 * 1e3,
        report.latency_p99 * 1e3,
        report.cst_cache.hit_rate() * 100.0,
        report.cst_resident_bytes,
        report.devices.len(),
        report.device_imbalance,
    );
    for (i, d) in report.devices.iter().enumerate() {
        println!(
            "  device {i}: {:>4} partitions, {:>10} cycles",
            d.partitions, d.cycles
        );
    }
    assert!(
        report.cst_cache.hits > 0,
        "repeats must hit the tier-2 shard-CST cache"
    );
}
