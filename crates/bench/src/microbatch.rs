//! The intra-node micro-batch co-execution bench: whole-frame operator
//! execution vs the partition-streaming dispatcher
//! (`helix_core::execute_streamed`) on a synthetic text workload sized
//! well past the dispatcher's batch budget.
//!
//! Two passes, both with byte-identity as a driver error (not a separate
//! test):
//!
//! 1. **Dispatcher pass** — tokenization over a fat text column, run
//!    whole-frame and then streamed. From the stream's per-partition
//!    load/compute intervals the driver derives the **overlap**: wall
//!    time where a load lane and a compute lane were busy at once,
//!    `union(load) + union(compute) − union(load ∪ compute)`. It also
//!    checks the memory story: `peak_inflight_bytes` (loaded-but-unmerged
//!    slices, the dispatcher working set) must stay a small fraction of
//!    the dataset — `O(window × batch)`, not `O(dataset)` — on a dataset
//!    at least 4× the batch budget.
//! 2. **Engine pass** — the same data driven through a full
//!    `Session` workflow (csv scan → tokenize) with micro-batching off
//!    and on; outputs and final catalogs must match byte-for-byte,
//!    because batching is an execution detail like worker count.
//!
//! The `microbatch` binary emits `BENCH_microbatch.json`; CI smokes it
//! with `--check` (identity + memory-bound gates; the overlap-*floor*
//! timing gate is disabled there, though overlap must still be nonzero).

use helix_common::timing::Nanos;
use helix_common::{HelixError, Result};
use helix_core::{
    execute_streamed, MatStrategy, Operator, Session, SessionConfig, StreamLabels, Workflow,
};
use helix_data::{ByteSized, FieldValue, Record, RecordBatch, Schema, Value};
use helix_exec::interval_union_nanos;
use helix_obs::{layer, now_nanos, span_at, Registry, RegistrySnapshot};
use helix_storage::encode_value;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct MicrobatchBenchConfig {
    /// Dataset rows.
    pub rows: usize,
    /// Approximate text payload per row (bytes).
    pub row_bytes: usize,
    /// Partition size (rows per micro-batch).
    pub batch_rows: usize,
    /// Compute-lane ceiling for the streamed run.
    pub lanes: usize,
    /// Workload seed.
    pub seed: u64,
}

impl MicrobatchBenchConfig {
    /// The default configuration: 64k rows of ~240-byte text at 1k-row
    /// batches — 64 partitions against a `window = lanes·2 + 2` credit
    /// window, so the dataset is ~6× the dispatcher's batch budget.
    pub fn default_run() -> MicrobatchBenchConfig {
        MicrobatchBenchConfig {
            rows: 64_000,
            row_bytes: 240,
            batch_rows: 1_000,
            lanes: 4,
            seed: 42,
        }
    }

    /// A smaller configuration for CI smoke runs (32 partitions over a
    /// 6-slot window — still ≥ 4× the batch budget).
    pub fn smoke() -> MicrobatchBenchConfig {
        MicrobatchBenchConfig { rows: 16_000, row_bytes: 160, batch_rows: 500, lanes: 2, seed: 42 }
    }

    /// Bytes the dispatcher may hold at peak: a full credit window of
    /// batch slices. The dataset must be ≥ 4× this for the residency
    /// claim to mean anything.
    fn batch_budget_rows(&self) -> usize {
        (self.lanes * 2 + 2) * self.batch_rows
    }
}

/// The whole bench report (serialized to `BENCH_microbatch.json`).
#[derive(Clone, Debug, Serialize)]
pub struct MicrobatchBenchReport {
    /// Dataset rows.
    pub rows: usize,
    /// Dataset bytes (the tokenized column's input batch).
    pub dataset_bytes: u64,
    /// Partition size used.
    pub batch_rows: usize,
    /// Partitions streamed.
    pub partitions: usize,
    /// Compute lanes actually used.
    pub lanes: usize,
    /// In-flight credit window (partitions).
    pub window: usize,
    /// Whole-frame wall clock (ms).
    pub whole_ms: f64,
    /// Streamed wall clock (ms).
    pub streamed_ms: f64,
    /// whole / streamed.
    pub speedup: f64,
    /// `whole_ms − streamed_ms`: wall time streaming saved. Negative when
    /// streaming was slower.
    pub hidden_ms: f64,
    /// Load-lane busy time (ms).
    pub load_busy_ms: f64,
    /// Compute-lane busy time, summed over lanes (ms).
    pub compute_busy_ms: f64,
    /// Wall time where load and compute were simultaneously busy (ms).
    pub overlap_ms: f64,
    /// Fraction of load-lane busy time hidden under compute, in [0, 1]
    /// (the intersection never exceeds the load union).
    pub overlap_ratio: f64,
    /// Peak bytes of loaded-but-unmerged slices in the dispatcher.
    pub peak_inflight_bytes: u64,
    /// dataset_bytes / peak_inflight_bytes — how far below O(dataset)
    /// the dispatcher's working set stayed.
    pub residency_factor: f64,
    /// Engine pass: iterations compared with micro-batching off vs on.
    pub engine_iterations: usize,
    /// Per-partition load/compute latency histograms.
    pub metrics: RegistrySnapshot,
}

impl MicrobatchBenchReport {
    /// Human-readable rendering. It leads with whether streaming was
    /// faster or slower than whole-frame; overlap follows as the share
    /// of load time hidden under compute, which can be high even when
    /// streaming loses.
    pub fn render(&self) -> String {
        let verdict = if self.hidden_ms >= 0.0 { "faster" } else { "slower" };
        format!(
            "micro-batch co-execution: {} rows ({:.1} MB), {} partitions of {} rows, \
             {} lanes, window {}\n  streamed is {verdict} by {:.1}% ({:+.2} ms): \
             whole {:>8.2} ms  streamed {:>8.2} ms\n  \
             load busy {:>8.2} ms  compute busy {:>8.2} ms  \
             load hidden under compute {:>8.2} ms ({:.1}% of load)\n  \
             peak resident {:.1} KB of {:.1} MB dataset ({:.0}x below whole-frame residency)\n",
            self.rows,
            self.dataset_bytes as f64 / 1e6,
            self.partitions,
            self.batch_rows,
            self.lanes,
            self.window,
            self.hidden_ms.abs() / self.whole_ms * 100.0,
            self.hidden_ms,
            self.whole_ms,
            self.streamed_ms,
            self.load_busy_ms,
            self.compute_busy_ms,
            self.overlap_ms,
            self.overlap_ratio * 100.0,
            self.peak_inflight_bytes as f64 / 1e3,
            self.dataset_bytes as f64 / 1e6,
            self.residency_factor,
        )
    }
}

/// Deterministic synthetic text: `words` space-separated tokens drawn
/// from a small vocabulary by a seeded LCG. Pure in (seed, row).
fn synth_text(seed: u64, row: usize, words: usize) -> String {
    const VOCAB: [&str; 12] = [
        "census", "income", "earner", "district", "survey", "cohort", "sample", "region",
        "bracket", "payroll", "tenure", "sector",
    ];
    let mut state = seed ^ ((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = String::new();
    for i in 0..words {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if i > 0 {
            out.push(' ');
        }
        out.push_str(VOCAB[(state >> 33) as usize % VOCAB.len()]);
    }
    out
}

fn synth_batch(config: &MicrobatchBenchConfig) -> Result<RecordBatch> {
    // ~8 bytes per vocabulary word incl. separator.
    let words = (config.row_bytes / 8).max(1);
    let schema = Schema::new(["text"]);
    let rows = (0..config.rows)
        .map(|i| Record::train(vec![FieldValue::Text(synth_text(config.seed, i, words))]))
        .collect();
    RecordBatch::new(schema, rows)
}

/// Encoded outputs of one iteration, name-ordered — the byte-identity
/// fingerprint (same idiom as the pipeline bench).
fn fingerprint(report: &helix_core::IterationReport) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> =
        report.outputs.iter().map(|(name, value)| (name.clone(), encode_value(value))).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The engine pass: one workflow, two fresh sessions (micro-batching off
/// vs on), byte-identical outputs and catalogs required.
fn engine_pass(config: &MicrobatchBenchConfig) -> Result<usize> {
    let build = |rows: usize, seed: u64| {
        let mut wf = Workflow::new("microbatch-bench");
        let raw = wf.source("raw", 1, move |_| {
            let schema = Schema::new(["line"]);
            let rows = (0..rows)
                .map(|i| {
                    Record::train(vec![FieldValue::Text(format!("{i},{}", synth_text(seed, i, 6)))])
                })
                .collect();
            Ok(Value::records(RecordBatch::new(schema, rows)?))
        });
        let parsed = wf.csv_scan("parsed", raw, &["id", "text"]);
        let tokens = wf.tokenize("tokens", parsed, "text");
        let field = wf.field_extractor("id_units", parsed, "id");
        wf.output(tokens);
        wf.output(field);
        wf
    };
    // Always-materialize keeps the comparison free of wall-timing-coupled
    // elective Opt decisions; micro-batching must not change either side.
    let session_config = SessionConfig::in_memory()
        .with_strategy(MatStrategy::Always)
        .with_workers(config.lanes)
        .with_seed(config.seed);
    let rows = (config.rows / 8).max(256);
    let wf = build(rows, config.seed);

    let mut base = Session::new(session_config.clone().with_microbatch(0))?;
    let mut streamed = Session::new(session_config.with_microbatch(config.batch_rows.max(1) / 4))?;
    let iterations = 2; // initial build + rerun (reuse path)
    for t in 0..iterations {
        let base_fp = fingerprint(&base.run(&wf)?);
        let streamed_fp = fingerprint(&streamed.run(&wf)?);
        if base_fp != streamed_fp {
            return Err(HelixError::exec(
                "microbatch-bench",
                format!("engine outputs diverged with micro-batching on at iteration {t}"),
            ));
        }
    }
    let base_sigs: Vec<String> =
        base.catalog().entries().iter().map(|e| e.signature.clone()).collect();
    let streamed_sigs: Vec<String> =
        streamed.catalog().entries().iter().map(|e| e.signature.clone()).collect();
    if base_sigs != streamed_sigs {
        return Err(HelixError::exec(
            "microbatch-bench",
            "engine catalogs diverged with micro-batching on",
        ));
    }
    Ok(iterations)
}

/// Run the full comparison.
pub fn run_microbatch_bench(config: &MicrobatchBenchConfig) -> Result<MicrobatchBenchReport> {
    if config.rows < 4 * config.batch_budget_rows() {
        return Err(HelixError::exec(
            "microbatch-bench",
            format!(
                "dataset ({} rows) must be >= 4x the batch budget ({} rows) for the \
                 residency claim to be meaningful",
                config.rows,
                config.batch_budget_rows()
            ),
        ));
    }
    let registry = Registry::new();
    let batch = synth_batch(config)?;
    let dataset_bytes = batch.byte_size();
    let inputs = [Arc::new(Value::records(batch))];
    let op = helix_core::ops::extract::TokenizeColumn::new("text");
    let spec = op
        .partitionable()
        .ok_or_else(|| HelixError::exec("microbatch-bench", "tokenize is not partitionable"))?;
    let ctx = helix_core::operator::ExecContext::serial(config.seed);

    // Whole-frame reference.
    let whole_begin = now_nanos();
    let whole_started = Instant::now();
    let whole = op.execute(&inputs, &ctx)?;
    let whole_wall = whole_started.elapsed().as_nanos() as Nanos;

    // Streamed run.
    let streamed_begin = now_nanos();
    let streamed_started = Instant::now();
    let (streamed, stream) = execute_streamed(
        &op,
        &spec,
        &inputs,
        &ctx,
        config.batch_rows,
        config.lanes,
        None,
        &StreamLabels::anonymous(),
    )?;
    let streamed_wall = streamed_started.elapsed().as_nanos() as Nanos;

    // Byte-identity is the bench contract, not a separate test.
    if encode_value(&whole) != encode_value(&streamed) {
        return Err(HelixError::exec(
            "microbatch-bench",
            "streamed output diverged from whole-frame",
        ));
    }

    // Overlap: wall time covered by both a load interval and a compute
    // interval. union(L) + union(C) − union(L ∪ C) is exactly the
    // length of their intersection.
    let load_union = interval_union_nanos(&stream.load_spans);
    let compute_union = interval_union_nanos(&stream.compute_spans);
    let mut all = stream.load_spans.clone();
    all.extend_from_slice(&stream.compute_spans);
    let overlap = (load_union + compute_union).saturating_sub(interval_union_nanos(&all));
    if overlap == 0 {
        return Err(HelixError::exec(
            "microbatch-bench",
            "no load/compute overlap measured — streaming ran serially",
        ));
    }
    // The memory bound is structural (credit window), so it is asserted
    // unconditionally: the dispatcher never held more than a quarter of
    // the dataset (it holds ~window × batch in practice).
    if stream.peak_inflight_bytes.saturating_mul(4) > dataset_bytes {
        return Err(HelixError::exec(
            "microbatch-bench",
            format!(
                "peak resident slice bytes {} not O(batch): more than 1/4 of the {} byte dataset",
                stream.peak_inflight_bytes, dataset_bytes
            ),
        ));
    }

    let engine_iterations = engine_pass(config)?;

    // Per-partition latency histograms ride along in the report.
    let load_hist = registry.histogram("microbatch.partition_load_nanos");
    for (b, e) in &stream.load_spans {
        load_hist.record(e - b);
    }
    let compute_hist = registry.histogram("microbatch.partition_compute_nanos");
    for (b, e) in &stream.compute_spans {
        compute_hist.record(e - b);
    }
    registry.counter("microbatch.partitions").add(stream.partitions as u64);

    // Retrospective spans with the exact measured nanos, so a trace
    // consumer can re-derive the speedup from the exported JSON alone.
    let _ = span_at(layer::BENCH, "whole.wall", whole_begin, whole_wall)
        .track("bench-microbatch")
        .amount(config.rows as u64);
    let _ = span_at(layer::BENCH, "streamed.wall", streamed_begin, streamed_wall)
        .track("bench-microbatch")
        .amount(config.rows as u64);

    let whole_ms = whole_wall as f64 / 1e6;
    let streamed_ms = streamed_wall as f64 / 1e6;
    Ok(MicrobatchBenchReport {
        rows: config.rows,
        dataset_bytes,
        batch_rows: config.batch_rows,
        partitions: stream.partitions,
        lanes: stream.lanes,
        window: stream.window,
        whole_ms,
        streamed_ms,
        speedup: whole_wall as f64 / streamed_wall.max(1) as f64,
        hidden_ms: whole_ms - streamed_ms,
        load_busy_ms: stream.load_busy_nanos as f64 / 1e6,
        compute_busy_ms: stream.compute_busy_nanos as f64 / 1e6,
        overlap_ms: overlap as f64 / 1e6,
        overlap_ratio: overlap as f64 / load_union.max(1) as f64,
        peak_inflight_bytes: stream.peak_inflight_bytes,
        residency_factor: dataset_bytes as f64 / stream.peak_inflight_bytes.max(1) as f64,
        engine_iterations,
        metrics: registry.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_asserts_identity_overlap_and_residency() {
        // Identity, overlap > 0, and the O(batch) residency bound all
        // surface as Err from the driver itself.
        let report = run_microbatch_bench(&MicrobatchBenchConfig::smoke()).unwrap();
        assert_eq!(report.partitions, 32);
        assert!(report.overlap_ms > 0.0);
        assert!((0.0..=1.0).contains(&report.overlap_ratio));
        assert!((report.hidden_ms - (report.whole_ms - report.streamed_ms)).abs() < 1e-9);
        let verdict =
            if report.hidden_ms >= 0.0 { "streamed is faster" } else { "streamed is slower" };
        assert!(report.render().contains(verdict), "{}", report.render());
        assert!(report.peak_inflight_bytes * 4 <= report.dataset_bytes);
        assert!(report.residency_factor >= 4.0);
        assert_eq!(report.engine_iterations, 2);
        assert!(report.render().contains("peak resident"));
        let hist = &report.metrics.histograms["microbatch.partition_compute_nanos"];
        assert_eq!(hist.count, 32);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"overlap_ratio\""));
    }

    #[test]
    fn undersized_dataset_is_rejected() {
        let config = MicrobatchBenchConfig { rows: 1_000, ..MicrobatchBenchConfig::smoke() };
        let err = run_microbatch_bench(&config).unwrap_err();
        assert!(format!("{err}").contains("4x the batch budget"), "{err}");
    }

    #[test]
    fn synth_text_is_deterministic() {
        assert_eq!(synth_text(42, 7, 20), synth_text(42, 7, 20));
        assert_ne!(synth_text(42, 7, 20), synth_text(42, 8, 20));
    }
}
