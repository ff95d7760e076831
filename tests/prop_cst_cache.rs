//! Tier-2 shard-CST cache harness: the byte-budget/LRU/rejection
//! semantics of `serve::SizedCache` proved against a reference model over
//! randomized operation sequences, plus the service-level exactly-once
//! and epoch-isolation guarantees of the tier-2 cache.

use fast::{FastConfig, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::{Label, QueryGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{CacheStats, FastService, ServeConfig, SizedCache, TenantConfig, TenantId};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Model-based property tests of the size-aware LRU both tiers share.
// ---------------------------------------------------------------------------

/// Reference model of `SizedCache`: a recency list (front = least recently
/// used) with the same budget/rejection/replacement rules, written the
/// obvious O(n) way so divergence pinpoints a real cache bug.
struct Model {
    budget: usize,
    /// `(key, weight, value)`, ordered least- to most-recently used.
    list: Vec<(u8, usize, u64)>,
    used: usize,
    stats: CacheStats,
}

impl Model {
    fn new(budget: usize) -> Self {
        Model {
            budget,
            list: Vec::new(),
            used: 0,
            stats: CacheStats::default(),
        }
    }

    fn get(&mut self, key: u8) -> Option<u64> {
        match self.list.iter().position(|e| e.0 == key) {
            Some(pos) => {
                let entry = self.list.remove(pos);
                self.list.push(entry);
                self.stats.hits += 1;
                Some(entry.2)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u8, value: u64, weight: usize) {
        if self.budget == 0 {
            return;
        }
        if weight > self.budget {
            self.stats.rejected += 1;
            return;
        }
        if let Some(pos) = self.list.iter().position(|e| e.0 == key) {
            let old = self.list.remove(pos);
            self.used -= old.1;
        }
        while self.used + weight > self.budget {
            let victim = self.list.remove(0);
            self.used -= victim.1;
            self.stats.evictions += 1;
        }
        self.list.push((key, weight, value));
        self.used += weight;
        self.stats.insertions += 1;
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert under a small key space (collisions exercise replacement);
    /// weights range past the budget so rejection is exercised too.
    Insert(u8, usize),
    Get(u8),
}

/// Seeded random operation sequence over 12 keys with weights up to 64 —
/// past any budget in range, so rejection is exercised alongside
/// eviction, replacement, and recency refresh.
fn random_ops(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                Op::Insert(rng.gen_range(0..12), rng.gen_range(0..=64))
            } else {
                Op::Get(rng.gen_range(0..12))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over any operation sequence the cache agrees with the reference
    /// model on every lookup result, the resident weight, the entry
    /// count, and every counter — and the resident weight **never**
    /// exceeds the budget (the tier-2 memory guarantee).
    #[test]
    fn sized_cache_matches_reference_model(
        budget in 0usize..=48,
        seed in any::<u64>(),
        len in 1usize..150,
    ) {
        let ops = random_ops(seed, len);
        let mut cache: SizedCache<u8, u64> = SizedCache::new(budget);
        let mut model = Model::new(budget);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(key, weight) => {
                    // A fresh value per insert so a stale survivor would
                    // surface as a wrong lookup result, not a silent pass.
                    let value = i as u64;
                    cache.insert(key, value, weight);
                    model.insert(key, value, weight);
                }
                Op::Get(key) => {
                    prop_assert_eq!(
                        cache.get(&key), model.get(key),
                        "op {}: lookup diverged from the model", i
                    );
                }
            }
            prop_assert!(
                cache.used() <= budget,
                "op {}: resident weight {} exceeds budget {}", i, cache.used(), budget
            );
            prop_assert_eq!(cache.used(), model.used, "op {}: resident weight", i);
            prop_assert_eq!(cache.len(), model.list.len(), "op {}: entry count", i);
            prop_assert_eq!(cache.stats(), model.stats, "op {}: counters", i);
        }
    }

    /// LRU order: after inserting unit-weight entries filling the budget
    /// and touching a chosen subset, one more insert evicts exactly the
    /// least-recently-used untouched entry.
    #[test]
    fn unit_weight_eviction_removes_the_lru_entry(
        seed in any::<u64>(),
        touches in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let touched: Vec<u8> = (0..touches).map(|_| rng.gen_range(0..4)).collect();
        let mut cache: SizedCache<u8, u64> = SizedCache::new(4);
        for k in 0u8..4 {
            cache.insert(k, u64::from(k), 1);
        }
        for &k in &touched {
            prop_assert!(cache.get(&k).is_some());
        }
        // Track recency directly: front of the list is the next victim.
        let mut recency: Vec<u8> = (0u8..4).collect();
        for &k in &touched {
            recency.retain(|&x| x != k);
            recency.push(k);
        }
        let expected_victim = recency[0];
        cache.insert(9, 99, 1);
        prop_assert!(cache.get(&9).is_some(), "new entry resident");
        prop_assert!(
            cache.get(&expected_victim).is_none(),
            "victim must be the LRU entry {}", expected_victim
        );
        prop_assert_eq!(cache.stats().evictions, 1);
    }

    /// An entry heavier than the whole budget is rejected without evicting
    /// anything, no matter what working set precedes it.
    #[test]
    fn oversized_insert_never_disturbs_the_working_set(
        seed in any::<u64>(),
        entries in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<usize> = (0..entries).map(|_| rng.gen_range(1..=8)).collect();
        let budget: usize = 64;
        let mut cache: SizedCache<u8, u64> = SizedCache::new(budget);
        for (i, &w) in weights.iter().enumerate() {
            cache.insert(i as u8, i as u64, w);
        }
        let (len, used) = (cache.len(), cache.used());
        cache.insert(200, 1, budget + 1);
        prop_assert_eq!(cache.len(), len, "rejection must not evict");
        prop_assert_eq!(cache.used(), used, "rejection must not change residency");
        prop_assert_eq!(cache.stats().rejected, 1);
        prop_assert_eq!(cache.stats().evictions, 0);
        prop_assert!(cache.get(&200).is_none());
        for i in 0..weights.len() {
            prop_assert_eq!(cache.get(&(i as u8)), Some(i as u64), "survivor {}", i);
        }
    }
}

// ---------------------------------------------------------------------------
// Service-level tier-2 guarantees: exactly-once builds and epoch isolation.
// ---------------------------------------------------------------------------

fn triangle() -> QueryGraph {
    QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap()
}

fn config(workers: usize, cst_bytes: usize) -> ServeConfig {
    let fast = FastConfig::test_small(Variant::Sep);
    ServeConfig {
        fast,
        devices: 2,
        extra_devices: Vec::new(),
        workers,
        cache_capacity: 16,
        cst_cache_bytes: cst_bytes,
        max_in_flight: 8,
        ..ServeConfig::default()
    }
}

/// N identical concurrent cold sessions build the shard CSTs exactly once:
/// the single-flight gate is held through the build and the artifact is
/// published before release, so every waiter wakes into a tier-2 hit.
#[test]
fn concurrent_identical_cold_sessions_build_exactly_once() {
    let g = Arc::new(random_labelled_graph(60, 0.2, 2, 42));
    let service = FastService::new(Arc::clone(&g), config(4, 16 << 20));
    let handles: Vec<_> = (0..6).map(|_| service.submit(triangle())).collect();
    let counts: Vec<u64> = handles
        .into_iter()
        .map(|h| h.wait().expect("session").embeddings)
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "identical sessions disagree: {counts:?}"
    );
    let report = service.shutdown();
    assert_eq!(report.completed, 6);
    assert_eq!(
        report.cst_cache.insertions, 1,
        "six identical sessions must build exactly once"
    );
    assert_eq!(report.cst_cache.misses, 1, "only the builder misses");
    assert_eq!(report.cst_cache.hits, 5, "every waiter wakes into a hit");
    assert!(report.cst_resident_bytes > 0);
}

/// `bump_epoch` drops tier-2 artifacts for that tenant **only**: the
/// bumped tenant rebuilds, the other tenant stays fully warm.
#[test]
fn epoch_bump_drops_tier2_for_that_tenant_only() {
    let g = Arc::new(random_labelled_graph(60, 0.2, 2, 11));
    let service = FastService::new(Arc::clone(&g), config(2, 16 << 20));
    let b = service
        .add_tenant(Arc::clone(&g), TenantConfig::default())
        .unwrap();

    // Warm both tenants' tier-2 partitions and verify the warmth.
    for _ in 0..2 {
        service.submit(triangle()).wait().unwrap();
        service.submit_for(b, triangle()).unwrap().wait().unwrap();
    }
    assert_eq!(service.bump_epoch(TenantId::DEFAULT).unwrap(), 1);

    let a_after = service.submit(triangle()).wait().unwrap();
    let b_after = service.submit_for(b, triangle()).unwrap().wait().unwrap();
    assert!(
        !a_after.cst_cache_hit,
        "bumped tenant must rebuild its artifacts"
    );
    assert!(
        a_after.build_time > std::time::Duration::ZERO,
        "the rebuild must pay real build wall"
    );
    assert!(
        b_after.cst_cache_hit,
        "the other tenant's artifacts must stay warm"
    );
    assert_eq!(b_after.build_time, std::time::Duration::ZERO);
    assert_eq!(a_after.embeddings, b_after.embeddings);

    let report = service.shutdown();
    assert_eq!(report.tenants[0].epoch, 1);
    assert!(
        report.tenants[0].cst_resident_bytes > 0,
        "the rebuilt artifact is re-cached under the new epoch"
    );
    assert!(report.tenants[1].cst_resident_bytes > 0);
}

/// A budget too small for even one artifact rejects every insert (counted,
/// working set untouched), keeps zero resident bytes, and still serves
/// bit-identical results — warm sessions just fall back to a plan hit and
/// a rebuild.
#[test]
fn tiny_budget_rejects_artifacts_but_serves_correctly() {
    let g = Arc::new(random_labelled_graph(60, 0.2, 2, 7));
    let service = FastService::new(Arc::clone(&g), config(1, 8));
    let cold = service.submit(triangle()).wait().unwrap();
    let warm = service.submit(triangle()).wait().unwrap();
    assert!(!cold.cst_cache_hit && !warm.cst_cache_hit);
    assert!(warm.cache_hit, "the plan tier still hits");
    assert_eq!(cold.embeddings, warm.embeddings);
    let report = service.shutdown();
    assert_eq!(report.cst_cache.insertions, 0);
    assert_eq!(report.cst_cache.rejected, 2, "both builds outweigh the budget");
    assert_eq!(report.cst_resident_bytes, 0);
}

/// A budget of half the working set churns — every round of two distinct
/// queries evicts or rejects an artifact — yet resident bytes never exceed
/// the budget and every count matches the generous budget's.
#[test]
fn half_working_set_budget_churns_within_the_budget() {
    let g = Arc::new(random_labelled_graph(60, 0.2, 2, 5));
    let path = QueryGraph::new(
        vec![Label::new(1), Label::new(0), Label::new(1)],
        &[(0, 1), (1, 2)],
    )
    .unwrap();
    let queries = [triangle(), path];
    let serve_all = |budget: usize, rounds: usize| {
        let service = FastService::new(Arc::clone(&g), config(1, budget));
        let counts: Vec<u64> = (0..rounds)
            .flat_map(|_| queries.iter())
            .map(|q| service.submit(q.clone()).wait().unwrap().embeddings)
            .collect();
        (counts, service.shutdown())
    };
    let (generous, full) = serve_all(16 << 20, 1);
    let working_set = full.cst_resident_bytes;
    assert!(working_set > 0, "the generous budget keeps both artifacts");
    let budget = (working_set / 2).max(1);
    let (tight, report) = serve_all(budget, 3);
    assert_eq!(tight, generous.repeat(3), "the byte budget changed a count");
    assert!(
        report.cst_cache.evictions + report.cst_cache.rejected > 0,
        "half the working set must evict or reject"
    );
    assert!(
        report.cst_resident_bytes <= budget,
        "resident {} bytes exceed the {budget} byte budget",
        report.cst_resident_bytes
    );
    assert_eq!(report.failed, 0);
}
