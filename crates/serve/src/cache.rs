//! The serving layer's two cache tiers, unified on one size-aware LRU.
//!
//! [`SizedCache`] is the shared machinery: a *weight*-budgeted LRU map —
//! every entry carries a caller-supplied weight, eviction removes
//! least-recently-used entries until the resident weight fits the budget,
//! and an entry heavier than the whole budget is **rejected** without
//! disturbing the working set. Entry-count capacity is the degenerate case
//! (every weight 1), so both tiers share one implementation:
//!
//! * [`PlanCache`] (tier 1): [`cst::PlanKey`] → [`Arc<ShardPlan>`] — the
//!   probe/boundary-search result, bounded by an entry count.
//! * [`CstCache`] (tier 2): [`cst::PlanKey`] → [`Arc<fast::PreparedCsts>`]
//!   — the refined shard CSTs *and* their partition decomposition, weighed
//!   by `PreparedCsts::payload_bytes`. A hit makes a warm serve pure
//!   dispatch + kernel: no top-down, no refinement, no materialisation, no
//!   partitioning.
//!
//! Both tiers are partitioned per tenant (`tenant::TenantState`), counted
//! by [`CacheStats`], and disabled by a zero budget (every lookup misses,
//! nothing is stored) — the "cold" arms of the serving benchmarks.

use cst::{PlanKey, ShardPlan};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Hit/miss accounting of a cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (including all lookups at budget 0).
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Insertions refused because the entry alone exceeds the whole budget
    /// (the working set is left untouched; evicting everything for an
    /// entry that still cannot fit would be pure loss).
    pub rejected: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another cache's counters into this one — how the service
    /// report aggregates the per-tenant cache partitions.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.rejected += other.rejected;
    }

    /// Counters accumulated since `base` was captured — the rolling-window
    /// delta. Every field is monotone, so the subtraction is exact;
    /// `saturating_sub` guards against a mismatched base.
    pub fn delta(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            insertions: self.insertions.saturating_sub(base.insertions),
            evictions: self.evictions.saturating_sub(base.evictions),
            rejected: self.rejected.saturating_sub(base.rejected),
        }
    }
}

struct Entry<V> {
    value: V,
    weight: usize,
    last_used: u64,
}

/// A weight-budgeted LRU map: resident weight never exceeds `budget`.
///
/// The caller supplies each entry's weight at insertion (bytes for the
/// byte-budgeted tiers, 1 for entry-count capacity); a hit refreshes
/// recency. Budget 0 disables the cache. Victim selection is an O(n) scan —
/// serving caches hold tens of entries, not millions, so a linked-list LRU
/// would be pure overhead.
pub struct SizedCache<K, V> {
    budget: usize,
    used: usize,
    tick: u64,
    entries: HashMap<K, Entry<V>>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Copy, V: Clone> SizedCache<K, V> {
    /// Creates a cache whose resident weight is bounded by `budget`
    /// (0 = disabled).
    pub fn new(budget: usize) -> Self {
        SizedCache {
            budget,
            used: 0,
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit. Counts the outcome.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `value` under `key` with the given eviction `weight`,
    /// evicting least-recently-used entries until it fits. An entry heavier
    /// than the whole budget is rejected — counted, working set untouched.
    /// A no-op at budget 0.
    pub fn insert(&mut self, key: K, value: V, weight: usize) {
        if self.budget == 0 {
            return;
        }
        if weight > self.budget {
            self.stats.rejected += 1;
            return;
        }
        self.tick += 1;
        // Replacing an entry releases its weight before fit is judged.
        if let Some(old) = self.entries.remove(&key) {
            self.used -= old.weight;
        }
        while self.used + weight > self.budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("over budget implies a resident entry");
            let evicted = self.entries.remove(&victim).expect("victim resident");
            self.used -= evicted.weight;
            self.stats.evictions += 1;
        }
        let tick = self.tick;
        self.entries.insert(
            key,
            Entry {
                value,
                weight,
                last_used: tick,
            },
        );
        self.used += weight;
        self.stats.insertions += 1;
    }

    /// Drops every entry (epoch invalidation) — not counted as eviction:
    /// invalidation is correctness, not cache pressure.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident weight (bytes for byte-budgeted tiers).
    pub fn used(&self) -> usize {
        self.used
    }

    /// Configured weight budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Tier 1: an entry-count LRU map `PlanKey → Arc<ShardPlan>`.
pub struct PlanCache {
    inner: SizedCache<PlanKey, Arc<ShardPlan>>,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: SizedCache::new(capacity),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit. Counts the outcome.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<ShardPlan>> {
        self.inner.get(key)
    }

    /// Stores `plan` under `key`, evicting LRU entries if over capacity.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<ShardPlan>) {
        self.inner.insert(key, plan, 1);
    }

    /// Drops every entry (epoch invalidation).
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.inner.budget()
    }

    /// Resident entries.
    pub fn used(&self) -> usize {
        self.inner.used()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// Tier 2: a byte-budgeted LRU map `PlanKey → Arc<fast::PreparedCsts>` —
/// refined shard CSTs plus partition decomposition, weighed by
/// `PreparedCsts::payload_bytes`. A hit skips *all* build work; resident
/// bytes never exceed the budget (`tests/prop_cst_cache.rs` proves the
/// invariant over randomized sequences).
pub struct CstCache {
    inner: SizedCache<PlanKey, Arc<fast::PreparedCsts>>,
}

impl CstCache {
    /// Creates a cache bounded by `budget_bytes` resident payload bytes
    /// (0 = tier 2 disabled).
    pub fn new(budget_bytes: usize) -> Self {
        CstCache {
            inner: SizedCache::new(budget_bytes),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit. Counts the outcome.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<fast::PreparedCsts>> {
        self.inner.get(key)
    }

    /// Stores `artifact` under `key`, weighed by its payload bytes.
    pub fn insert(&mut self, key: PlanKey, artifact: Arc<fast::PreparedCsts>) {
        let weight = artifact.payload_bytes().max(1);
        self.inner.insert(key, artifact, weight);
    }

    /// Drops every entry — `bump_epoch`'s tier-2 invalidation. (Tier 1
    /// needs no clearing: the epoch is *inside* the `PlanKey`, so stale
    /// plans age out; tier-2 payloads are megabytes, so stale artifacts
    /// are dropped eagerly instead of squatting the byte budget.)
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.inner.budget()
    }

    /// Resident payload bytes.
    pub fn resident_bytes(&self) -> usize {
        self.inner.used()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: u64) -> PlanKey {
        PlanKey {
            query: q,
            graph_epoch: crate::tenant::INITIAL_GRAPH_EPOCH,
            options: 0,
        }
    }

    fn plan(shards: usize) -> Arc<ShardPlan> {
        Arc::new(ShardPlan::contiguous(shards * 4, shards))
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = PlanCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), plan(2));
        let hit = c.get(&key(1)).expect("cached");
        assert_eq!(hit.shard_count(), 2);
        assert_eq!(
            c.stats(),
            CacheStats { hits: 1, misses: 1, insertions: 1, evictions: 0, rejected: 0 }
        );
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert(key(1), plan(1));
        c.insert(key(2), plan(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), plan(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let mut c = PlanCache::new(1);
        c.insert(key(1), plan(1));
        c.insert(key(1), plan(3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&key(1)).unwrap().shard_count(), 3);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = PlanCache::new(0);
        c.insert(key(1), plan(1));
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn oversized_entry_rejected_without_eviction() {
        let mut c: SizedCache<u64, u64> = SizedCache::new(10);
        c.insert(1, 10, 4);
        c.insert(2, 20, 4);
        c.insert(3, 30, 100);
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.stats().evictions, 0, "working set untouched");
        assert_eq!(c.len(), 2);
        assert!(c.get(&3).is_none());
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&2), Some(20));
    }

    #[test]
    fn replacing_heavier_value_releases_old_weight_first() {
        let mut c: SizedCache<u64, u64> = SizedCache::new(10);
        c.insert(1, 10, 6);
        // Same key, heavier value: old 6 released, new 9 fits alone —
        // no other entry exists, so no eviction.
        c.insert(1, 11, 9);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.used(), 9);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn clear_resets_residency_but_not_counters() {
        let mut c: SizedCache<u64, u64> = SizedCache::new(10);
        c.insert(1, 10, 4);
        assert!(c.get(&1).is_some());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
        assert_eq!(c.stats().insertions, 1);
        assert_eq!(c.stats().evictions, 0, "invalidation is not eviction");
        assert!(c.get(&1).is_none(), "cleared entries miss");
    }
}
