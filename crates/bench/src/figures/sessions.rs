//! Session-scalability study (`sessions` figure target): what the
//! event-driven executor buys over thread-per-session serving.
//!
//! Each level keeps `in_flight` sessions outstanding on **two** executor
//! threads and serves the same seeded workload two ways:
//!
//! * **event** — the new model: non-blocking `submit` from one driver
//!   thread, a sliding window of outstanding handles. 10,000 concurrent
//!   sessions cost 10,000 slab entries and channels — no stacks.
//! * **threaded** — the old model, reconstructed client-side: one OS
//!   thread per outstanding session, each blocking in `wait`.
//!
//! The workload is deliberately tiny per session (a triangle query on a
//! small graph, served warm through tier 2), so the measured quantity is
//! session *machinery* — admission, scheduling, wakeups — not kernel
//! throughput. The run self-asserts the acceptance bar: every session
//! completes with the `run_fast` oracle's exact count at every level and
//! mode, event QPS is within 5% of the threaded baseline at 64
//! outstanding, strictly better at 10,000, and the event run's peak-RSS
//! growth at 10,000 outstanding stays bounded (no thread-per-session).

use fast::{FastConfig, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::{Graph, Label, QueryGraph};
use serve::{FastService, ServeConfig, SessionHandle};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One concurrency level's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Outstanding (admitted, unfinished) sessions held at once.
    pub in_flight: usize,
    /// Total sessions served per mode at this level.
    pub total: usize,
    /// Sustained QPS of the event-driven driver (best of its rounds).
    pub event_qps: f64,
    /// Sustained QPS of the thread-per-session baseline (best of rounds).
    pub threaded_qps: f64,
    /// Per-session embedding count (identical across modes and levels).
    pub embeddings: u64,
    /// Peak-RSS growth (bytes) observed across the event run at this
    /// level; 0 where the platform exposes no VmHWM.
    pub rss_growth: u64,
}

/// The per-session query: a labelled triangle — small enough that session
/// machinery, not kernel work, dominates the wall.
fn triangle() -> QueryGraph {
    QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .expect("triangle query")
}

/// Two executor threads, a permit bound that admits the whole level, and
/// warm caches so repeats are tier-2 replays.
fn config(in_flight: usize) -> ServeConfig {
    let fast = FastConfig::test_small(Variant::Sep);
    ServeConfig {
        fast,
        devices: 2,
        extra_devices: Vec::new(),
        workers: 2,
        cache_capacity: 16,
        cst_cache_bytes: 16 << 20,
        max_in_flight: in_flight,
        ..ServeConfig::default()
    }
}

/// Linux peak-RSS high-water mark (bytes); 0 elsewhere.
fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
}

/// Event-driven driver: one thread keeps `in_flight` sessions outstanding
/// via non-blocking `submit`, draining the oldest when the window fills.
/// Returns (QPS, per-session count).
fn drive_event(g: &Arc<Graph>, in_flight: usize, total: usize, oracle: u64) -> f64 {
    let service = FastService::new(Arc::clone(g), config(in_flight));
    service.submit(triangle()).wait().expect("prime the caches");
    let t0 = Instant::now();
    let mut window: VecDeque<SessionHandle> = VecDeque::new();
    for _ in 0..total {
        if window.len() == in_flight {
            let report = window.pop_front().unwrap().wait().expect("session");
            assert_eq!(report.embeddings, oracle, "event mode changed the count");
        }
        window.push_back(service.submit(triangle()));
    }
    for handle in window {
        let report = handle.wait().expect("session");
        assert_eq!(report.embeddings, oracle, "event mode changed the count");
    }
    let wall = t0.elapsed();
    let report = service.shutdown();
    assert_eq!(report.completed, total as u64 + 1, "event sessions lost");
    assert_eq!(report.failed, 0);
    total as f64 / wall.as_secs_f64()
}

/// Thread-per-session baseline: `in_flight` OS threads (small stacks so
/// 10,000 of them fit), each blocking in `submit(..).wait()` — the old
/// serving model reconstructed client-side against the same service.
fn drive_threaded(g: &Arc<Graph>, in_flight: usize, total: usize, oracle: u64) -> f64 {
    let service = FastService::new(Arc::clone(g), config(in_flight));
    service.submit(triangle()).wait().expect("prime the caches");
    let per = total / in_flight;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..in_flight {
            let service = &service;
            std::thread::Builder::new()
                .stack_size(128 << 10)
                .spawn_scoped(scope, move || {
                    for _ in 0..per {
                        let report = service.submit(triangle()).wait().expect("session");
                        assert_eq!(report.embeddings, oracle, "threaded mode changed the count");
                    }
                })
                .expect("spawn client thread");
        }
    });
    let wall = t0.elapsed();
    let report = service.shutdown();
    assert_eq!(report.completed, (per * in_flight) as u64 + 1);
    assert_eq!(report.failed, 0);
    (per * in_flight) as f64 / wall.as_secs_f64()
}

/// Runs the sweep and self-asserts the acceptance bar. `quick` shrinks
/// the per-level totals, not the levels — the 10,000-outstanding point is
/// the one CI must witness.
pub fn run(quick: bool) -> Vec<Row> {
    let g = Arc::new(random_labelled_graph(300, 0.04, 3, 7));
    let oracle = fast::run_fast(&triangle(), &g, &FastConfig::test_small(Variant::Sep))
        .expect("oracle run")
        .embeddings;
    assert!(oracle > 0, "degenerate workload");
    // (outstanding, total sessions per mode, comparison rounds)
    let levels: &[(usize, usize, usize)] = if quick {
        &[(64, 1024, 2), (1_000, 2_000, 1), (10_000, 10_000, 1)]
    } else {
        &[(64, 4096, 3), (1_000, 4_000, 2), (10_000, 10_000, 1)]
    };
    let mut rows = Vec::new();
    for &(in_flight, total, rounds) in levels {
        // Event first so its peak-RSS growth is measured before the
        // baseline's 10,000 thread stacks can raise the high-water mark.
        let rss_before = peak_rss_bytes();
        let mut event_qps = 0f64;
        for _ in 0..rounds {
            event_qps = event_qps.max(drive_event(&g, in_flight, total, oracle));
        }
        let rss_growth = peak_rss_bytes().saturating_sub(rss_before);
        let mut threaded_qps = 0f64;
        for _ in 0..rounds {
            threaded_qps = threaded_qps.max(drive_threaded(&g, in_flight, total, oracle));
        }
        rows.push(Row {
            in_flight,
            total,
            event_qps,
            threaded_qps,
            embeddings: oracle,
            rss_growth,
        });
    }
    // The acceptance bar, asserted inside the run so the CI figure step
    // fails loudly.
    let at64 = rows.iter().find(|r| r.in_flight == 64).expect("64 level");
    assert!(
        at64.event_qps >= 0.95 * at64.threaded_qps,
        "event {:.0} QPS fell more than 5% below the threaded baseline {:.0} at 64 outstanding",
        at64.event_qps,
        at64.threaded_qps
    );
    let at10k = rows
        .iter()
        .find(|r| r.in_flight == 10_000)
        .expect("10k level");
    assert!(
        at10k.event_qps > at10k.threaded_qps,
        "event {:.0} QPS must beat thread-per-session {:.0} at 10,000 outstanding",
        at10k.event_qps,
        at10k.threaded_qps
    );
    assert!(
        at10k.rss_growth < 512 << 20,
        "10,000 outstanding sessions grew peak RSS by {} bytes — not bounded",
        at10k.rss_growth
    );
    rows
}

/// Renders the scalability table.
pub fn render(rows: &[Row]) -> String {
    let header: Vec<String> = [
        "outstanding",
        "sessions",
        "event QPS",
        "threaded QPS",
        "event/threaded",
        "peak-RSS growth",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.in_flight.to_string(),
                r.total.to_string(),
                format!("{:.0}", r.event_qps),
                format!("{:.0}", r.threaded_qps),
                format!("{:.2}x", r.event_qps / r.threaded_qps),
                format!("{:.1} MiB", r.rss_growth as f64 / (1024.0 * 1024.0)),
            ]
        })
        .collect();
    format!(
        "Session scalability on 2 executor threads (event = non-blocking submit window, \
         threaded = one 128 KiB-stack OS thread per outstanding session; \
         every session bit-identical to the run_fast oracle)\n{}",
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The session-scalability acceptance bar: 10,000 concurrent
    /// outstanding sessions complete on 2 executor threads with bounded
    /// memory and oracle-identical counts, no slower than thread-per-
    /// session at 64 outstanding and strictly faster at 10,000. All the
    /// assertions live inside `run`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: serves tens of thousands of sessions; covered by the release-mode CI step"
    )]
    fn ten_thousand_sessions_on_two_executors() {
        let rows = run(true);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.embeddings > 0));
    }
}
