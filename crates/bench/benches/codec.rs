//! Micro-benchmarks for the storage codec and catalog: the cost of
//! materializing and reloading intermediates is the `l_i` side of every
//! OEP/OMP trade-off.
//!
//! The `read_path` group isolates the three CPU layers of a catalog load
//! on an unthrottled disk — CRC-32, payload decode, encode — on the two
//! payload shapes that dominate reuse: a batch of slim inference
//! examples (empty features, label, prediction) and a dense-f64 model.
//!
//! ```text
//! cargo bench -p helix-bench --bench codec
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use helix_common::crc32::crc32;
use helix_common::hash::Signature;
use helix_common::SplitMix64;
use helix_data::{Example, ExampleBatch, FeatureVector, LinearModel, Model, Split, Value};
use helix_storage::{decode_value, encode_value, DiskProfile, MaterializationCatalog};
use std::hint::black_box;

fn example_batch(n: usize, dim: u32, nnz: usize) -> Value {
    let mut rng = SplitMix64::new(11);
    let examples: Vec<Example> = (0..n)
        .map(|i| {
            let pairs: Vec<(u32, f64)> =
                (0..nnz).map(|_| (rng.next_below(dim as u64) as u32, rng.next_f64())).collect();
            Example::new(
                FeatureVector::sparse_from_pairs(dim, pairs),
                Some((i % 2) as f64),
                Split::Train,
            )
        })
        .collect();
    Value::examples(ExampleBatch::dense(examples))
}

fn bench_encode_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for n in [100usize, 1_000, 10_000] {
        let value = example_batch(n, 1_000, 20);
        let encoded = encode_value(&value);
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", n), &n, |b, _| {
            b.iter(|| black_box(encode_value(&value).len()))
        });
        group.bench_with_input(BenchmarkId::new("decode", n), &n, |b, _| {
            b.iter(|| black_box(decode_value(&encoded).unwrap()))
        });
    }
    group.finish();
}

/// `n` scored inference examples with no features left — the shape of
/// a reloaded `predictions` artifact.
fn slim_inference_batch(n: usize) -> Value {
    let examples: Vec<Example> = (0..n)
        .map(|i| Example {
            features: FeatureVector::Dense(Vec::new()),
            label: Some((i % 2) as f64),
            split: if i % 5 == 0 { Split::Test } else { Split::Train },
            prediction: Some(i as f64 / n as f64),
            tag: None,
        })
        .collect();
    Value::examples(ExampleBatch::dense(examples))
}

/// A linear model with `classes × dim` dense weights.
fn dense_model(classes: usize, dim: usize) -> Value {
    let mut rng = SplitMix64::new(5);
    Value::Model(Model::Linear(LinearModel {
        weights: (0..classes).map(|_| (0..dim).map(|_| rng.next_f64() - 0.5).collect()).collect(),
        bias: vec![0.0; classes],
        dim: dim as u32,
    }))
}

fn bench_read_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_path");
    group.sample_size(20);
    let shapes = [
        ("slim_examples_120k", slim_inference_batch(120_000)),
        ("dense_model_4x65536", dense_model(4, 65_536)),
    ];
    for (name, value) in &shapes {
        let encoded = encode_value(value);
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| black_box(decode_value(&encoded).unwrap()))
        });
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| black_box(encode_value(value).len()))
        });
    }
    let mut rng = SplitMix64::new(3);
    let raw: Vec<u8> = (0..4 << 20).map(|_| rng.next_below(256) as u8).collect();
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("crc32/4MiB", |b| b.iter(|| black_box(crc32(&raw))));
    group.finish();
}

fn bench_catalog(c: &mut Criterion) {
    let catalog = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
    let value = example_batch(1_000, 1_000, 20);
    c.bench_function("catalog_store_1k_examples", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let sig = Signature::of_str(&format!("bench-{i}"));
            i += 1;
            black_box(catalog.store(sig, "bench", 0, &value).unwrap())
        })
    });
    let sig = Signature::of_str("bench-load");
    catalog.store(sig, "bench", 0, &value).unwrap();
    c.bench_function("catalog_load_1k_examples", |b| {
        b.iter(|| black_box(catalog.load(sig).unwrap().1))
    });
}

criterion_group!(benches, bench_encode_decode, bench_read_path, bench_catalog);
criterion_main!(benches);
