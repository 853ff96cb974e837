//! The benchmark's metric catalogue and the report that fills it.
//!
//! Every gated workload emits every metric of the mode it runs in: the
//! end-to-end set without tracing, the per-layer set with it. The
//! service set is `tenants-open`'s own addition to the per-layer set
//! (solo workloads never call `helix-serve`). Per-layer values that a
//! workload's structure makes zero are shares, not times: warm-reuse
//! computes no DPR node and writes no artifact.
//!
//! What each layer should move, and where (the prediction a change to
//! that layer is judged against; "none" rows are honesty checks):
//!
//! | layer | metrics | should move | on | ~no effect on |
//! |---|---|---|---|---|
//! | core (dsl, track, plan, session) | `core.dsl.build_ms`, `core.session.prepare_ms`, `core.track.signatures_us`, `core.plan.solve_us`, `core.iter.residual_us` | `ppr_iter_ms`, `iter_p50_ms` | warm-reuse, tenants-open | paper-mix |
//! | core engine + ml | `engine.compute_ms`, `engine.compute_share.{dpr,li,ppr}`, `engine.unattributed_ms` | `cumulative_s`, `setup_s` | paper-mix | warm-reuse |
//! | storage read | `engine.load_ms`, `engine.load_cpu_ms`, `engine.loaded_mb`, `storage.catalog.load_mb_s`, `storage.codec.decode_mb_s`, `common.crc32_mb_s` | `ppr_iter_ms`, `cumulative_s` | warm-reuse | tenants-open |
//! | storage write | `engine.materialize_share`, `engine.materialized_mb`, `storage.codec.encode_mb_s`, `core.session.sync_ms`, `storage.materialized_loaded_frac`, `storage.catalog_mb` | `cumulative_s`, `setup_s` | paper-mix | warm-reuse |
//! | exec | `exec.peak_cache_mb`, `exec.peak_rss_mb`, `exec.cores_busy_frac` | `cumulative_s`, `serve.sustained_jobs_per_s` | paper-mix, tenants-open | warm-reuse |
//! | serve | `serve.submit_us`, `serve.queue_wait_ms`, `serve.run_ms`, `serve.backlog_max`, `serve.cross_hit_rate`, `serve.refused`, `serve.job_*.high`, `serve.sustained_jobs_per_s` | `iter_p50_ms` | tenants-open | paper-mix, warm-reuse |
//! | obs / bench | `obs.trace_overhead_frac`, `bench.gen_late_ms`, `bench.threads_max` | none | all | — |
//!
//! When nothing else contends, a layer can save at most its share of
//! its row's end-to-end metric.

use crate::stats;
use std::collections::BTreeMap;

/// Which run reports a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced run: what a user of the system sees.
    EndToEnd,
    /// Traced run: one layer's share.
    Layer,
    /// Traced run of `tenants-open` only: the service layer.
    Service,
}

/// One named metric.
pub struct MetricDef {
    /// Stable name (later changes refer to it).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The run that reports it.
    pub mode: Mode,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, mode: Mode::EndToEnd }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, mode: Mode::Layer }
}

const fn service(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, mode: Mode::Service }
}

/// Every metric the benchmark emits, in print order.
pub const METRICS: &[MetricDef] = &[
    // Set-up: median over several set-ups in one run.
    e2e("setup_s", "s"),
    // Wall seconds of one pass (see each workload for what a pass is).
    e2e("cumulative_s", "s"),
    // Per-iteration wall (solo) or due-to-done job latency at `low`.
    e2e("iter_p50_ms", "ms"),
    e2e("ppr_iter_ms", "ms"),
    // core
    layer("core.dsl.build_ms", "ms"),
    layer("core.dsl.build_ms.tail", "ms"),
    layer("core.session.prepare_ms", "ms"),
    layer("core.session.prepare_ms.tail", "ms"),
    layer("core.track.signatures_us", "us"),
    layer("core.plan.solve_us", "us"),
    layer("core.iter.residual_us", "us"),
    layer("core.iter.residual_us.tail", "us"),
    // The tail of the iteration wall (grouped, see `stats::grouped_tail`)
    // and iteration 0: both moved by more than the 0.25 bound across runs
    // on warm-reuse, so they are reported but not gated on.
    layer("iter.tail_ms", "ms"),
    layer("iter.init_ms", "ms"),
    // engine + ml
    layer("engine.compute_ms", "ms"),
    layer("engine.compute_ms.tail", "ms"),
    layer("engine.compute_share.dpr", "ratio"),
    layer("engine.compute_share.li", "ratio"),
    layer("engine.compute_share.ppr", "ratio"),
    layer("engine.unattributed_ms", "ms"),
    layer("engine.unattributed_ms.tail", "ms"),
    // storage read
    layer("engine.load_ms", "ms"),
    layer("engine.load_ms.tail", "ms"),
    layer("engine.load_cpu_ms", "ms"),
    layer("engine.loaded_mb", "MB"),
    layer("storage.catalog.load_mb_s", "MB/s"),
    layer("storage.codec.decode_mb_s", "MB/s"),
    layer("common.crc32_mb_s", "MB/s"),
    // storage write
    layer("engine.materialize_share", "ratio"),
    layer("engine.materialized_mb", "MB"),
    layer("storage.codec.encode_mb_s", "MB/s"),
    layer("core.session.sync_ms", "ms"),
    layer("core.session.sync_ms.tail", "ms"),
    layer("storage.materialized_loaded_frac", "ratio"),
    // Catalog footprint at the end of a pass: Algorithm 2's
    // timing-coupled choices move it too much across runs to gate on.
    layer("storage.catalog_mb", "MB"),
    // exec
    layer("exec.peak_cache_mb", "MB"),
    // Peak resident set of the run (VmHWM); allocator history moves it
    // too much across runs to gate on.
    layer("exec.peak_rss_mb", "MB"),
    // obs / bench honesty checks
    layer("obs.trace_overhead_frac", "ratio"),
    layer("bench.threads_max", "count"),
    // serve, and what only a service has: core leases and a generator
    service("exec.cores_busy_frac", "ratio"),
    service("serve.submit_us", "us"),
    service("serve.submit_us.tail", "us"),
    service("serve.queue_wait_ms", "ms"),
    service("serve.queue_wait_ms.tail", "ms"),
    service("serve.run_ms", "ms"),
    service("serve.run_ms.tail", "ms"),
    service("serve.backlog_max", "count"),
    service("serve.cross_hit_rate", "ratio"),
    service("serve.refused", "count"),
    service("serve.job_p50_ms.high", "ms"),
    service("serve.job_tail_ms.high", "ms"),
    service("serve.sustained_jobs_per_s", "1/s"),
    service("bench.gen_late_ms", "ms"),
    service("bench.gen_late_ms.tail", "ms"),
];

/// Nanoseconds to milliseconds.
pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Bytes to megabytes (10^6, the unit of the disk profile).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Measured values by metric name, plus human-readable notes (tail
/// percentiles and sample counts, configuration) for standard error.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Record one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(METRICS.iter().any(|m| m.name == name), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Record a free-form note.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Record the median of `samples` under `name` (0 when empty: the
    /// layer did no work of this kind).
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, stats::median(samples).unwrap_or(0.0));
    }

    /// Record the grouped tail of `samples` (in time order) under
    /// `name`, noting its percentile and sample counts.
    pub fn tail(&mut self, name: &'static str, samples: &[f64]) {
        let (value, pct, n, groups) = stats::grouped_tail(samples).unwrap_or((0.0, 0.0, 0, 0));
        self.set(name, value);
        self.note(format!("{name}: p{pct:.2} of {n} samples, median of {groups} groups"));
    }

    /// Record the median under `name` and the tail under `tail_name`.
    pub fn median_tail(&mut self, name: &'static str, tail_name: &'static str, samples: &[f64]) {
        self.median(name, samples);
        self.tail(tail_name, samples);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Notes in insertion order.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        assert!(METRICS.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = serde::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &serde::Json, key: &str| match m.get(key) {
            Some(serde::Json::String(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        for (key, mode) in [("end_to_end", Mode::EndToEnd), ("per_layer", Mode::Layer)] {
            let listed: Vec<(String, String)> = match json.get(key) {
                Some(serde::Json::Array(items)) => {
                    items.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
                }
                other => panic!("{key}: {other:?}"),
            };
            let ours: Vec<(String, String)> = METRICS
                .iter()
                .filter(|m| m.mode == mode)
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
