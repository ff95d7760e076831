//! The two figure bars that compare wall-clock readings of phases timed
//! one after the other (cold then warm serving, seeded then cold builds).
//! Run beside the other figure tests, whatever those happen to be doing
//! lands on one phase and not the other, and the comparison measures the
//! neighbours. Cargo runs test binaries one at a time, so the bars live in
//! a binary of their own, and [`serial`] keeps the two from timing each
//! other. Everything deterministic they assert holds under any load.

use bench::figures::{host_scaling, serving};
use bench::harness::DatasetCache;
use fast::ShardPlanner;
use graph_core::DatasetId;
use serve::ServeConfig;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn serial() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The serving acceptance bar: on a repeated query mix the warm tier-2
/// cache hits ≥ 90%, hit-path build time collapses to exactly 0,
/// sustained QPS is strictly above cold at the same offered load, and
/// every cached result is bit-identical to the cold run's. On DG03, the
/// graph the full sweep serves, where warm over cold reads 1.3–1.7×; on
/// DG01 the hub queries' kernel time is nearly all of a session, cached or
/// not, and the same ratio reads 1.07–1.30×.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug: full serving sweep; covered by the release-mode CI test step"
)]
fn warm_cache_beats_cold_with_identical_results() {
    let _serial = serial();
    let mut cache = DatasetCache::new();
    let rows = serving::run(&mut cache, DatasetId::Dg03, &[4], 30);
    let r = &rows[0];
    // Bit-identity is asserted inside `run`; re-check visibly here.
    assert_eq!(r.cold.embeddings, r.warm.embeddings);
    assert!(!r.warm.embeddings.is_empty());
    let hit_rate = r.warm.report.cst_cache.hit_rate();
    assert!(hit_rate >= 0.9, "tier-2 hit rate {hit_rate}");
    assert_eq!(
        r.warm.report.build_hit_mean_sec, 0.0,
        "a tier-2 hit replays the artifact — it must build nothing",
    );
    assert!(
        r.warm.report.build_miss_mean_sec > 0.0,
        "cold sessions must pay a measurable build",
    );
    assert!(
        r.warm.report.cst_resident_bytes > 0
            && r.warm.report.cst_resident_bytes <= ServeConfig::default().cst_cache_bytes,
        "resident {} bytes must stay under the budget",
        r.warm.report.cst_resident_bytes
    );
    assert!(
        r.warm.report.qps > r.cold.report.qps,
        "warm {:.2} QPS vs cold {:.2} QPS",
        r.warm.report.qps,
        r.cold.report.qps
    );
    assert_eq!(r.cold.report.completed, 120);
    assert_eq!(r.warm.report.completed, 120);
    assert_eq!(r.cold.report.cache.hits, 0, "capacity 0 must never hit");
    assert_eq!(r.cold.report.cst_cache.hits, 0, "budget 0 must never hit");
}

/// The probe-seeded build acceptance bar on the hostscale target:
/// auto-planned (probing) rows build from the probe's candidate space —
/// zero top-down scan work where the cold reruns scan millions of
/// entries — so the probe is absorbed (plan overhead 0) and per-query
/// prepare work strictly drops (`run` itself asserts the per-query
/// seeded ≤ cold bar). Measured build CPU gets a generous noise margin;
/// the deterministic counters carry the hard claim.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug: full figure run; covered by the release-mode CI test step"
)]
fn seeded_prepare_beats_cold_prepare() {
    let _serial = serial();
    let mut cache = DatasetCache::new();
    let rows = host_scaling::run(&mut cache, DatasetId::Dg03, &host_scaling::QUERIES);
    // threads == 1 runs the sequential (unplanned, unseeded) flow —
    // only the pipelined rows carry a probe to seed from.
    for r in rows
        .iter()
        .filter(|r| r.planner != ShardPlanner::Contiguous && r.threads > 1)
    {
        assert_eq!(
            r.topdown_entries, 0,
            "{} at {} threads: seeded builds must not scan top-down",
            r.planner, r.threads
        );
        assert!(
            r.cold_topdown_entries > 0,
            "{} at {} threads: cold builds scan top-down",
            r.planner, r.threads
        );
        assert_eq!(
            r.modeled_plan_sec, 0.0,
            "{} at {} threads: the probe is absorbed into seeded builds",
            r.planner, r.threads
        );
        assert!(
            r.build_cpu_sec <= r.build_cpu_cold_sec * 1.10,
            "{} at {} threads: seeded build CPU {:.4}s vs cold {:.4}s",
            r.planner, r.threads, r.build_cpu_sec, r.build_cpu_cold_sec
        );
    }
}
