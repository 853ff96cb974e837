//! The in-memory intermediate cache.
//!
//! Spark uncaches via LRU; HELIX "improves upon the performance by actively
//! managing the set of data to evict from cache … Once an operator has
//! finished running, HELIX analyzes the DAG to uncache newly out-of-scope
//! nodes" (paper §5.4, Cache Pruning). [`ValueCache`] implements both
//! policies: `Eager` is HELIX's; `Lru` is the Spark-style baseline kept for
//! the ablation benchmarks.

use helix_data::{ByteSized, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Cache eviction policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// HELIX: values are evicted exactly when the engine declares them
    /// out-of-scope; the byte budget is a safety net only.
    Eager,
    /// Spark-like: values stay until the byte budget forces out the least
    /// recently used.
    Lru { budget_bytes: u64 },
}

struct Slot {
    value: Arc<Value>,
    bytes: u64,
    last_touch: u64,
}

/// A node-id-keyed cache of operator outputs.
pub struct ValueCache {
    policy: CachePolicy,
    slots: HashMap<u32, Slot>,
    clock: u64,
    bytes: u64,
}

impl ValueCache {
    /// New cache under `policy`.
    pub fn new(policy: CachePolicy) -> ValueCache {
        ValueCache { policy, slots: HashMap::new(), clock: 0, bytes: 0 }
    }

    /// Insert (or replace) the value for a node.
    pub fn put(&mut self, node: u32, value: Arc<Value>) {
        let bytes = value.byte_size();
        self.insert(node, value, bytes);
    }

    /// [`put`](Self::put) with the value's `byte_size()` already known.
    fn insert(&mut self, node: u32, value: Arc<Value>, bytes: u64) {
        self.clock += 1;
        if let Some(old) = self.slots.insert(node, Slot { value, bytes, last_touch: self.clock }) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        if let CachePolicy::Lru { budget_bytes } = self.policy {
            self.evict_lru_to(budget_bytes, node);
        }
    }

    /// Fetch a value, updating recency.
    pub fn get(&mut self, node: u32) -> Option<Arc<Value>> {
        self.clock += 1;
        let clock = self.clock;
        self.slots.get_mut(&node).map(|slot| {
            slot.last_touch = clock;
            Arc::clone(&slot.value)
        })
    }

    /// Whether a node is resident.
    pub fn contains(&self, node: u32) -> bool {
        self.slots.contains_key(&node)
    }

    /// HELIX's eager eviction: drop a node the moment it goes out of scope.
    /// Returns the bytes freed.
    pub fn evict(&mut self, node: u32) -> u64 {
        match self.slots.remove(&node) {
            Some(slot) => {
                self.bytes -= slot.bytes;
                slot.bytes
            }
            None => 0,
        }
    }

    /// Evict everything (end of iteration).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.bytes = 0;
    }

    /// Resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of resident values.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The policy in force.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    fn evict_lru_to(&mut self, budget: u64, just_inserted: u32) {
        while self.bytes > budget && self.slots.len() > 1 {
            // Never evict the value we just inserted — its consumer is
            // about to run.
            let victim = self
                .slots
                .iter()
                .filter(|(id, _)| **id != just_inserted)
                .min_by_key(|(_, slot)| slot.last_touch)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    self.evict(id);
                }
                None => break,
            }
        }
    }
}

/// A thread-safe cache for the parallel engine.
///
/// Concurrent workers `get` parent values and `put` their own outputs
/// while the coordinator evicts out-of-scope nodes, so the map is sharded
/// by node id (16 mutexes) with byte/count totals in atomics — reads of
/// different nodes never contend. Under `CachePolicy::Lru` the sharded
/// fast path cannot maintain a global recency order, so the cache falls
/// back to one [`ValueCache`] behind a single lock (the LRU baseline is
/// an ablation configuration, not the HELIX hot path).
pub struct SharedValueCache {
    policy: CachePolicy,
    inner: SharedImpl,
}

/// One shard: node id → (value, cached byte size).
type Shard = Mutex<HashMap<u32, (Arc<Value>, u64)>>;

enum SharedImpl {
    Sharded { shards: Vec<Shard>, bytes: AtomicU64, count: AtomicUsize },
    Locked(Mutex<ValueCache>),
}

const SHARD_COUNT: usize = 16;

impl SharedValueCache {
    /// New shared cache under `policy`.
    pub fn new(policy: CachePolicy) -> SharedValueCache {
        let inner = match policy {
            CachePolicy::Eager => SharedImpl::Sharded {
                shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
                bytes: AtomicU64::new(0),
                count: AtomicUsize::new(0),
            },
            CachePolicy::Lru { .. } => SharedImpl::Locked(Mutex::new(ValueCache::new(policy))),
        };
        SharedValueCache { policy, inner }
    }

    fn shard(shards: &[Shard], node: u32) -> &Shard {
        &shards[node as usize % SHARD_COUNT]
    }

    /// Insert (or replace) the value for a node. `size` must be
    /// `value.byte_size()`: the engine needs that figure for its own
    /// accounting anyway, and walking a large collection twice per
    /// insert is measurable on the load path.
    pub fn put(&self, node: u32, value: Arc<Value>, size: u64) {
        debug_assert_eq!(size, value.byte_size(), "cache put with a stale size");
        match &self.inner {
            SharedImpl::Sharded { shards, bytes, count } => {
                let mut shard = Self::shard(shards, node).lock().unwrap();
                if let Some((_, old)) = shard.insert(node, (value, size)) {
                    bytes.fetch_sub(old, Ordering::Relaxed);
                } else {
                    count.fetch_add(1, Ordering::Relaxed);
                }
                bytes.fetch_add(size, Ordering::Relaxed);
            }
            SharedImpl::Locked(cache) => cache.lock().unwrap().insert(node, value, size),
        }
    }

    /// Fetch a value.
    pub fn get(&self, node: u32) -> Option<Arc<Value>> {
        match &self.inner {
            SharedImpl::Sharded { shards, .. } => {
                Self::shard(shards, node).lock().unwrap().get(&node).map(|(v, _)| Arc::clone(v))
            }
            SharedImpl::Locked(cache) => cache.lock().unwrap().get(node),
        }
    }

    /// Whether a node is resident.
    pub fn contains(&self, node: u32) -> bool {
        match &self.inner {
            SharedImpl::Sharded { shards, .. } => {
                Self::shard(shards, node).lock().unwrap().contains_key(&node)
            }
            SharedImpl::Locked(cache) => cache.lock().unwrap().contains(node),
        }
    }

    /// Eager out-of-scope eviction; returns the bytes freed.
    pub fn evict(&self, node: u32) -> u64 {
        match &self.inner {
            SharedImpl::Sharded { shards, bytes, count } => {
                match Self::shard(shards, node).lock().unwrap().remove(&node) {
                    Some((_, size)) => {
                        bytes.fetch_sub(size, Ordering::Relaxed);
                        count.fetch_sub(1, Ordering::Relaxed);
                        size
                    }
                    None => 0,
                }
            }
            SharedImpl::Locked(cache) => cache.lock().unwrap().evict(node),
        }
    }

    /// Resident bytes across all shards.
    pub fn resident_bytes(&self) -> u64 {
        match &self.inner {
            SharedImpl::Sharded { bytes, .. } => bytes.load(Ordering::Relaxed),
            SharedImpl::Locked(cache) => cache.lock().unwrap().resident_bytes(),
        }
    }

    /// Number of resident values.
    pub fn len(&self) -> usize {
        match &self.inner {
            SharedImpl::Sharded { count, .. } => count.load(Ordering::Relaxed),
            SharedImpl::Locked(cache) => cache.lock().unwrap().len(),
        }
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evict everything (end of iteration).
    pub fn clear(&self) {
        match &self.inner {
            SharedImpl::Sharded { shards, bytes, count } => {
                for shard in shards {
                    shard.lock().unwrap().clear();
                }
                bytes.store(0, Ordering::Relaxed);
                count.store(0, Ordering::Relaxed);
            }
            SharedImpl::Locked(cache) => cache.lock().unwrap().clear(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> CachePolicy {
        self.policy
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
    fn put_get_evict_accounting() {
        let mut cache = ValueCache::new(CachePolicy::Eager);
        cache.put(1, value_of_size(100));
        cache.put(2, value_of_size(200));
        assert!(cache.contains(1));
        assert_eq!(cache.len(), 2);
        let before = cache.resident_bytes();
        assert!(before >= 300);
        let freed = cache.evict(1);
        assert!(freed >= 100);
        assert_eq!(cache.resident_bytes(), before - freed);
        assert!(!cache.contains(1));
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert_eq!(cache.evict(1), 0, "double evict is a no-op");
    }

    #[test]
    fn replacement_updates_bytes() {
        let mut cache = ValueCache::new(CachePolicy::Eager);
        cache.put(1, value_of_size(1000));
        let big = cache.resident_bytes();
        cache.put(1, value_of_size(10));
        assert!(cache.resident_bytes() < big);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Budget fits ~2 of the 3 values.
        let mut cache = ValueCache::new(CachePolicy::Lru { budget_bytes: 2_200 });
        cache.put(1, value_of_size(1000));
        cache.put(2, value_of_size(1000));
        // Touch 1 so 2 becomes the LRU victim.
        cache.get(1);
        cache.put(3, value_of_size(1000));
        assert!(cache.contains(1), "recently used survives");
        assert!(!cache.contains(2), "LRU victim evicted");
        assert!(cache.contains(3), "new value survives");
    }

    #[test]
    fn lru_never_evicts_fresh_insert() {
        let mut cache = ValueCache::new(CachePolicy::Lru { budget_bytes: 10 });
        cache.put(1, value_of_size(1000));
        assert!(cache.contains(1), "sole oversized value stays resident");
        cache.put(2, value_of_size(1000));
        assert!(cache.contains(2));
        assert!(!cache.contains(1));
    }

    #[test]
    fn shared_cache_matches_value_cache_semantics() {
        let cache = SharedValueCache::new(CachePolicy::Eager);
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
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_cache_lru_falls_back_to_locked_value_cache() {
        let cache = SharedValueCache::new(CachePolicy::Lru { budget_bytes: 2_200 });
        shared_put(&cache, 1, value_of_size(1000));
        shared_put(&cache, 2, value_of_size(1000));
        cache.get(1);
        shared_put(&cache, 3, value_of_size(1000));
        assert!(cache.contains(1), "recently used survives");
        assert!(!cache.contains(2), "LRU victim evicted");
        assert!(cache.contains(3));
    }

    #[test]
    fn shared_cache_is_concurrency_safe() {
        let cache = SharedValueCache::new(CachePolicy::Eager);
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

    #[test]
    fn eager_policy_ignores_budget() {
        let mut cache = ValueCache::new(CachePolicy::Eager);
        for i in 0..10 {
            cache.put(i, value_of_size(1_000));
        }
        assert_eq!(cache.len(), 10, "eager eviction is driven by scope, not size");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }
}
