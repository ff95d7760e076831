//! Observability quickstart: the serving stack with tracing on — a mixed
//! two-tenant workload traced end-to-end, rolling metrics windows pulled
//! while the load runs, a Prometheus text snapshot, and a Chrome
//! `trace_event` profile written to `target/observability.trace.json`
//! (load it in Perfetto or `chrome://tracing`).
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use fast::{FastConfig, Variant};
use graph_core::benchmark_query;
use graph_core::generators::{generate_ldbc, LdbcParams};
use serve::{FastService, ServeConfig, TenantConfig};

fn main() {
    // Tracing is off by default (every hook is one relaxed atomic load);
    // turn it on before the service starts so construction is covered.
    obs::enable();

    let graph = generate_ldbc(&LdbcParams::with_scale_factor(0.5), 7);
    let fast = FastConfig::for_variant(Variant::Sep);
    let service = FastService::new(
        graph,
        ServeConfig {
            fast,
            devices: 4,
            workers: 4,
            max_in_flight: 8,
            ..ServeConfig::default()
        },
    );
    // A second tenant with its own graph and triple the fair-share quota:
    // the trace carries every session's tenant id.
    let g2 = generate_ldbc(&LdbcParams::with_scale_factor(0.3), 11);
    let t2 = service
        .add_tenant(
            g2,
            TenantConfig {
                quota: 3,
                ..TenantConfig::default()
            },
        )
        .expect("second tenant");

    // A mixed closed-loop burst: both tenants, repeated queries (warm
    // cache replays), with a rolling window pulled between waves.
    let mix = [0usize, 1, 2, 1, 0, 2, 1, 1];
    for wave in 0..3 {
        let handles: Vec<_> = mix
            .iter()
            .enumerate()
            .map(|(k, &qi)| {
                if k % 2 == 0 {
                    service.submit(benchmark_query(qi))
                } else {
                    service
                        .submit_for(t2, benchmark_query(qi))
                        .expect("tenant submit")
                }
            })
            .collect();
        for h in handles {
            h.wait().expect("session completes");
        }
        let w = service.report_window();
        let info = w.window.expect("window stamp");
        println!(
            "window {}: {:>2} sessions in {:.3}s ({:.1} QPS) | p99 {:.1}ms | \
             cache {} hits / {} misses | retries {}",
            info.seq,
            w.completed,
            info.wall_sec,
            w.qps,
            w.latency_hist.quantile(0.99) * 1e3,
            w.cst_cache.hits,
            w.cst_cache.misses,
            w.retries,
        );
        let _ = wave;
    }

    // Prometheus text exposition: the live device and backend registry
    // counters plus the serve_* families derived from the report.
    let prom = service.prometheus_text();
    println!(
        "\nprometheus snapshot ({} lines), head:",
        prom.lines().count()
    );
    for line in prom.lines().take(8) {
        println!("  {line}");
    }

    let report = service.shutdown();
    obs::disable();
    println!(
        "\nserved {} sessions at {:.1} QPS | latency p50 {:.1}ms p99 {:.1}ms | \
         cache hit rate {:.0}%",
        report.completed,
        report.qps,
        report.latency_hist.quantile(0.50) * 1e3,
        report.latency_hist.quantile(0.99) * 1e3,
        report.cst_cache.hit_rate() * 100.0,
    );

    // Export the trace and prove it loads: well-formed JSON, strictly
    // monotonic per-track timestamps, session ⊇ build ⊇ execute nesting.
    let (spans, events) = obs::trace_snapshot();
    let doc = obs::chrome_trace_json();
    let stats = obs::chrome::validate(&doc).expect("export self-validates");
    obs::chrome::check_nesting(&spans, &["session", "build", "execute"])
        .expect("spans nest: session ⊇ build ⊇ execute");
    assert_eq!(
        spans.iter().filter(|s| s.name == "session").count() as u64,
        report.submitted,
        "one session span per submission"
    );
    let path = std::path::Path::new("target").join("observability.trace.json");
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write(&path, &doc).expect("write trace");
    println!(
        "\nwrote {} ({} events on {} tracks, {} instant events) — load it in Perfetto",
        path.display(),
        stats.events,
        stats.tracks,
        events.len(),
    );
}
