//! The in-memory intermediate cache.
//!
//! Spark uncaches via LRU; HELIX "improves upon the performance by actively
//! managing the set of data to evict from cache … Once an operator has
//! finished running, HELIX analyzes the DAG to uncache newly out-of-scope
//! nodes" (paper §5.4, Cache Pruning). [`SharedValueCache`] has no
//! eviction policy of its own: the engine evicts a node exactly when its
//! finalize decision commits, and nothing else ever removes a value.

use helix_data::{ByteSized, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A thread-safe node-id-keyed cache of operator outputs.
///
/// Concurrent workers `get` parent values and `put` their own outputs
/// while the coordinator evicts out-of-scope nodes, so the map is sharded
/// by node id (16 mutexes) with byte/count totals in atomics — reads of
/// different nodes never contend.
pub struct SharedValueCache {
    shards: Vec<Mutex<ShardMap>>,
    bytes: AtomicU64,
    count: AtomicUsize,
}

/// One shard's map: node id → (value, cached byte size).
type ShardMap = HashMap<u32, (Arc<Value>, u64)>;

const SHARD_COUNT: usize = 16;

impl Default for SharedValueCache {
    fn default() -> SharedValueCache {
        SharedValueCache::new()
    }
}

impl SharedValueCache {
    /// New empty cache.
    pub fn new() -> SharedValueCache {
        SharedValueCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            bytes: AtomicU64::new(0),
            count: AtomicUsize::new(0),
        }
    }

    fn shard(&self, node: u32) -> MutexGuard<'_, ShardMap> {
        self.shards[node as usize % SHARD_COUNT].lock().expect("cache shard poisoned")
    }

    /// Insert (or replace) the value for a node. `size` must be
    /// `value.byte_size()`: the engine needs that figure for its own
    /// accounting anyway, and walking a large collection twice per
    /// insert is measurable on the load path.
    pub fn put(&self, node: u32, value: Arc<Value>, size: u64) {
        debug_assert_eq!(size, value.byte_size(), "cache put with a stale size");
        let mut shard = self.shard(node);
        if let Some((_, old)) = shard.insert(node, (value, size)) {
            self.bytes.fetch_sub(old, Ordering::Relaxed);
        } else {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes.fetch_add(size, Ordering::Relaxed);
    }

    /// Fetch a value.
    pub fn get(&self, node: u32) -> Option<Arc<Value>> {
        self.shard(node).get(&node).map(|(v, _)| Arc::clone(v))
    }

    /// Whether a node is resident.
    pub fn contains(&self, node: u32) -> bool {
        self.shard(node).contains_key(&node)
    }

    /// Eager out-of-scope eviction; returns the bytes freed.
    pub fn evict(&self, node: u32) -> u64 {
        match self.shard(node).remove(&node) {
            Some((_, size)) => {
                self.bytes.fetch_sub(size, Ordering::Relaxed);
                self.count.fetch_sub(1, Ordering::Relaxed);
                size
            }
            None => 0,
        }
    }

    /// Resident bytes across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of resident values.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_data::Scalar;

    fn value_of_size(bytes: usize) -> Arc<Value> {
        Arc::new(Value::Scalar(Scalar::Text("x".repeat(bytes))))
    }

    fn shared_put(cache: &SharedValueCache, node: u32, value: Arc<Value>) {
        let size = value.byte_size();
        cache.put(node, value, size);
    }

    #[test]
    fn shared_cache_matches_value_cache_semantics() {
        let cache = SharedValueCache::new();
        assert!(cache.is_empty());
        shared_put(&cache, 1, value_of_size(100));
        shared_put(&cache, 2, value_of_size(200));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(1));
        let before = cache.resident_bytes();
        assert!(before >= 300);
        // Replacement adjusts accounting.
        shared_put(&cache, 1, value_of_size(10));
        assert!(cache.resident_bytes() < before);
        assert_eq!(cache.len(), 2);
        let freed = cache.evict(1);
        assert!(freed >= 10);
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert_eq!(cache.evict(1), 0, "double evict is a no-op");
        cache.evict(2);
        assert_eq!(cache.resident_bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_cache_is_concurrency_safe() {
        let cache = SharedValueCache::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let node = t * 1_000 + i;
                        shared_put(cache, node, value_of_size(10));
                        assert!(cache.get(node).is_some());
                        if i % 2 == 0 {
                            cache.evict(node);
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4 * 100);
        assert_eq!(cache.resident_bytes(), {
            // Every resident value is the same size; totals must agree.
            let per = value_of_size(10).byte_size();
            4 * 100 * per
        });
    }
}
