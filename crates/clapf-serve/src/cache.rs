//! A sharded, generation-stamped top-k cache.
//!
//! The cache maps `(user, k)` to a ranked item list. Two properties matter
//! more than hit rate:
//!
//! * **Generation safety.** Every entry is stamped with the model generation
//!   it was computed under. A lookup supplies the generation of the model
//!   the caller has already pinned; an entry from another generation is a
//!   miss. After a hot-swap the publisher bumps the cache's current
//!   generation, which atomically invalidates every older entry — no
//!   scan, no flush, no window where a stale list can be served. `put`
//!   double-checks the stamp against the current generation so a slow
//!   writer that computed under the old model cannot resurrect it.
//! * **Low contention.** Entries are spread over `N` independently locked
//!   shards by a multiplicative hash of the user id, so concurrent readers
//!   on different users rarely touch the same mutex.
//!
//! Eviction is LRU per shard via a monotone use-tick; capacity 0 disables
//! the cache entirely (every lookup is a miss, every insert a no-op), which
//! is how the load generator measures the uncached baseline. Concurrent
//! misses on one key are coalesced before they reach the scorer, by the
//! event loop's `pending` map (see [`crate::transport`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Key: dense user id and requested list length.
type Key = (u32, usize);

struct Entry {
    generation: u64,
    last_used: u64,
    items: Arc<Vec<u32>>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    tick: u64,
}

/// Sharded top-k result cache with generation-stamped entries.
pub struct TopKCache {
    shards: Vec<Mutex<Shard>>,
    generation: AtomicU64,
    per_shard_capacity: usize,
}

impl TopKCache {
    /// Creates a cache holding at most `capacity` entries spread over
    /// `shards` locks (both rounded up to at least 1 shard; capacity 0
    /// disables caching).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n_shards = shards.max(1);
        TopKCache {
            shards: (0..n_shards).map(|_| Mutex::new(Shard::default())).collect(),
            generation: AtomicU64::new(0),
            per_shard_capacity: capacity.div_ceil(n_shards) * usize::from(capacity > 0),
        }
    }

    /// The current model generation. Entries stamped lower are dead.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidates every entry of the previous generation by advancing the
    /// current one. Called by the hot-swap publisher *after* the new model
    /// is visible, and returns the new generation.
    pub fn bump_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn shard(&self, user: u32) -> &Mutex<Shard> {
        // Fibonacci-style multiplicative hash: user ids are dense and
        // sequential, so modulo alone would stripe poorly.
        let h = (u64::from(user)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// Looks up `(user, k)` computed under generation `generation`.
    /// Entries from any other generation are treated as absent.
    pub fn get(&self, user: u32, k: usize, generation: u64) -> Option<Arc<Vec<u32>>> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let mut shard = self.shard(user).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(&(user, k))?;
        if entry.generation != generation {
            return None;
        }
        entry.last_used = tick;
        Some(Arc::clone(&entry.items))
    }

    /// Inserts a list computed under `generation`. Discarded when that is no
    /// longer the current generation — the result was computed against a
    /// model that has since been swapped out.
    pub fn put(&self, user: u32, k: usize, generation: u64, items: Arc<Vec<u32>>) {
        if self.per_shard_capacity == 0 || generation != self.generation() {
            return;
        }
        let mut shard = self.shard(user).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if shard.map.len() >= self.per_shard_capacity && !shard.map.contains_key(&(user, k)) {
            // Evict the least-recently used entry; stale-generation entries
            // are ideal victims, so prefer them regardless of age.
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| (e.generation == generation, e.last_used))
                .map(|(k, _)| *k)
            {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(
            (user, k),
            Entry {
                generation,
                last_used: tick,
                items,
            },
        );
    }

    /// Number of live entries across all shards (any generation).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(items: &[u32]) -> Arc<Vec<u32>> {
        Arc::new(items.to_vec())
    }

    #[test]
    fn hit_after_put_same_generation() {
        let c = TopKCache::new(16, 4);
        let g = c.generation();
        assert!(c.get(7, 10, g).is_none());
        c.put(7, 10, g, list(&[3, 1, 2]));
        assert_eq!(c.get(7, 10, g).as_deref(), Some(&vec![3, 1, 2]));
        // Different k is a different key.
        assert!(c.get(7, 5, g).is_none());
    }

    #[test]
    fn bump_invalidates_all_prior_entries() {
        let c = TopKCache::new(16, 4);
        let g0 = c.generation();
        c.put(1, 10, g0, list(&[9]));
        let g1 = c.bump_generation();
        assert_eq!(g1, g0 + 1);
        // The old entry is dead under the new generation…
        assert!(c.get(1, 10, g1).is_none());
        // …while a reader that still pins the old model can keep hitting it
        // (the list is consistent with the model that reader holds).
        assert_eq!(c.get(1, 10, g0).as_deref(), Some(&vec![9]));
        // A fresh entry under g1 works.
        c.put(1, 10, g1, list(&[4]));
        assert_eq!(c.get(1, 10, g1).as_deref(), Some(&vec![4]));
    }

    #[test]
    fn put_from_stale_generation_is_discarded() {
        let c = TopKCache::new(16, 4);
        let g0 = c.generation();
        let g1 = c.bump_generation();
        // A slow writer that computed under g0 must not insert.
        c.put(2, 10, g0, list(&[1]));
        assert!(c.get(2, 10, g0).is_none());
        assert!(c.get(2, 10, g1).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let c = TopKCache::new(0, 4);
        let g = c.generation();
        c.put(1, 10, g, list(&[1]));
        assert!(c.get(1, 10, g).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used_within_a_shard() {
        // One shard makes eviction order deterministic.
        let c = TopKCache::new(2, 1);
        let g = c.generation();
        c.put(1, 10, g, list(&[1]));
        c.put(2, 10, g, list(&[2]));
        // Touch user 1 so user 2 becomes the LRU victim.
        assert!(c.get(1, 10, g).is_some());
        c.put(3, 10, g, list(&[3]));
        assert_eq!(c.len(), 2);
        assert!(c.get(1, 10, g).is_some());
        assert!(c.get(2, 10, g).is_none());
        assert!(c.get(3, 10, g).is_some());
    }

    #[test]
    fn stale_entries_are_preferred_eviction_victims() {
        let c = TopKCache::new(2, 1);
        let g0 = c.generation();
        c.put(1, 10, g0, list(&[1]));
        let g1 = c.bump_generation();
        c.put(2, 10, g1, list(&[2]));
        // Shard is full: one stale (user 1, g0) and one live entry. The
        // stale one must go even though it is not the oldest by tick order
        // after touching it is impossible (it is dead anyway).
        c.put(3, 10, g1, list(&[3]));
        assert!(c.get(2, 10, g1).is_some());
        assert!(c.get(3, 10, g1).is_some());
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_entries() {
        let c = Arc::new(TopKCache::new(1024, 8));
        let g = c.generation();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for u in 0..200u32 {
                        let user = t * 1000 + u;
                        c.put(user, 10, g, list(&[user]));
                        assert_eq!(c.get(user, 10, g).as_deref(), Some(&vec![user]));
                    }
                });
            }
        });
        assert_eq!(c.len(), 800);
    }
}
