//! The serving layer's one cache: a size-aware LRU of query builds.
//!
//! [`CstCache`] is a *weight*-budgeted LRU map — every entry carries a
//! caller-supplied weight, eviction removes least-recently-used entries
//! until the resident weight fits the budget, and an entry heavier than
//! the whole budget is **rejected** without disturbing the working set.
//!
//! The service keys it by [`cst::PlanKey`] (query fingerprint × tenant
//! graph epoch × build options). An entry holds what a build resolved: the
//! session plan (matching order, kernel plan) next to the partition
//! stream ([`fast::PreparedCsts`], without the whole CST),
//! weighed by `PreparedCsts::payload_bytes`. A hit makes a warm serve pure
//! dispatch + kernel: no plan derivation, no top-down, no refinement, no
//! materialisation, no partitioning.
//!
//! The cache is partitioned per tenant (`TenantState`), counted by
//! [`CacheStats`], and disabled by a zero budget (every lookup misses,
//! nothing is stored) — the "cold" arms of the serving benchmarks.

use std::collections::HashMap;
use std::hash::Hash;

/// Hit/miss accounting of a cache.
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

/// A weight-budgeted LRU map: resident weight never exceeds `budget`
/// (`tests/prop_cst_cache.rs` proves the invariant against a reference
/// model over randomized sequences).
///
/// The caller supplies each entry's weight at insertion (the service
/// weighs a build by its payload bytes); a hit refreshes recency. Budget 0
/// disables the cache. Victim selection is an O(n) scan — serving caches
/// hold tens of entries, not millions, so a linked-list LRU would be pure
/// overhead.
pub struct CstCache<K, V> {
    budget: usize,
    used: usize,
    tick: u64,
    entries: HashMap<K, Entry<V>>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Copy, V: Clone> CstCache<K, V> {
    /// Creates a cache whose resident weight is bounded by `budget`
    /// (0 = disabled).
    pub fn new(budget: usize) -> Self {
        CstCache {
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

    /// Drops every entry — `bump_epoch`'s invalidation, not counted as
    /// eviction: invalidation is correctness, not cache pressure.
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

    /// Resident weight (payload bytes in the service).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c: CstCache<u64, u64> = CstCache::new(4);
        assert!(c.get(&1).is_none());
        c.insert(1, 20, 1);
        assert_eq!(c.get(&1), Some(20));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                insertions: 1,
                evictions: 0,
                rejected: 0
            }
        );
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: CstCache<u64, u64> = CstCache::new(2);
        c.insert(1, 10, 1);
        c.insert(2, 20, 1);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&1).is_some());
        c.insert(3, 30, 1);
        assert_eq!(c.len(), 2);
        assert!(c.get(&2).is_none(), "LRU entry evicted");
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let mut c: CstCache<u64, u64> = CstCache::new(1);
        c.insert(1, 10, 1);
        c.insert(1, 30, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&1), Some(30));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: CstCache<u64, u64> = CstCache::new(0);
        c.insert(1, 10, 1);
        assert!(c.is_empty());
        assert!(c.get(&1).is_none());
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn oversized_entry_rejected_without_eviction() {
        let mut c: CstCache<u64, u64> = CstCache::new(10);
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
        let mut c: CstCache<u64, u64> = CstCache::new(10);
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
        let mut c: CstCache<u64, u64> = CstCache::new(10);
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
