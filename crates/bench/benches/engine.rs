//! Engine infrastructure benches: HELIX's eager cache eviction (paper
//! §5.4) and worker-pool scaling (the substrate of Figure 7b).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use helix_data::{ByteSized, Scalar, Value};
use helix_exec::{SharedValueCache, WorkerPool};
use std::hint::black_box;
use std::sync::Arc;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    let payload: Arc<Value> = Arc::new(Value::Scalar(Scalar::Text("x".repeat(10_000))));
    let size = payload.byte_size();
    group.bench_function("eager_put_evict", |b| {
        b.iter(|| {
            let cache = SharedValueCache::new();
            for i in 0..100u32 {
                cache.put(i, Arc::clone(&payload), size);
                if i >= 2 {
                    cache.evict(i - 2);
                }
            }
            black_box(cache.resident_bytes())
        })
    });
    group.finish();
}

fn bench_pool_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_map");
    let items: Vec<u64> = (0..10_000).collect();
    let work = |x: &u64| -> u64 {
        let mut acc = *x;
        for i in 0..500u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    };
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let pool = WorkerPool::new(w);
            b.iter(|| black_box(pool.map(&items, work).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cache, bench_pool_scaling);
criterion_main!(benches);
