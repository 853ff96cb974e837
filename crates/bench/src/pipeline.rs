//! The cross-iteration pipelining bench: serial engine vs the pipelined
//! iteration runtime (prefetched loads + background materialization
//! writes) on the census and genomics iterate workloads.
//!
//! Each workload first runs its scripted sequence once untimed (a
//! warm-up, so neither timed run pays cold caches alone), then twice
//! timed — a fresh session with `pipeline(false)` (the strictly serial
//! reference) and a fresh pipelined session, both driven by
//! `Session::run` — on a throttled disk profile so the load/write I/O
//! the lanes are supposed to hide is actually there to hide
//! (unthrottled NVMe would mask the effect, same reason the paper's
//! experiments model a 170 MB/s disk). The driver asserts byte-identical
//! outputs and identical final catalogs, and reports per workload, all
//! raw (unclamped, may be negative):
//!
//! * `hidden_ms = serial_wall − pipelined_wall` — what pipelining saved;
//! * `overlap_ratio = hidden / serial_io`, where `serial_io` is the
//!   serial run's Σ load + Σ materialize time — above 1 means the
//!   pipelined run also saved time outside the I/O it could hide;
//! * `residual_ms = hidden − serial_io` — that saving (or, when
//!   negative, the I/O that was not hidden).
//!
//! The `pipeline` binary emits `BENCH_pipeline.json`; CI smokes it with
//! `--check` alongside `multi_tenant`.

use helix_common::timing::Nanos;
use helix_common::{HelixError, Result};
use helix_core::{Session, SessionConfig, Workflow};
use helix_obs::{layer, now_nanos, span_at, Registry, RegistrySnapshot};
use helix_storage::{encode_value, DiskProfile};
use helix_workloads::{CensusWorkload, GenomicsWorkload, Workload};
use serde::Serialize;
use std::time::Instant;

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct PipelineBenchConfig {
    /// Iterations per workload (initial + alternating rerun/change).
    pub iterations: usize,
    /// Worker ceiling per session.
    pub workers: usize,
    /// Disk profile (throttled by default so I/O overlap is visible).
    pub disk: DiskProfile,
    /// Session seed.
    pub seed: u64,
}

impl PipelineBenchConfig {
    /// The default configuration: 6 iterations, 4 workers, and a disk
    /// scaled so I/O is a first-class fraction of iteration time on our
    /// small synthetic datasets — the same reason the paper's evaluation
    /// models a 170 MB/s HDD instead of trusting NVMe to keep the
    /// load/compute trade-off visible (§6.3).
    pub fn default_run() -> PipelineBenchConfig {
        PipelineBenchConfig {
            iterations: 6,
            workers: 4,
            disk: DiskProfile::scaled(2_000_000, 400_000),
            seed: 42,
        }
    }

    /// A smaller configuration for CI smoke runs.
    pub fn smoke() -> PipelineBenchConfig {
        PipelineBenchConfig { iterations: 4, ..Self::default_run() }
    }
}

/// One workload's measured comparison.
#[derive(Clone, Debug, Serialize)]
pub struct WorkloadComparison {
    /// Workload label.
    pub workload: &'static str,
    /// Iterations run.
    pub iterations: usize,
    /// Serial-reference wall clock (ms).
    pub serial_ms: f64,
    /// Pipelined wall clock, including the final write drain (ms).
    pub pipelined_ms: f64,
    /// serial / pipelined.
    pub speedup: f64,
    /// Serial run's total I/O (Σ per-load time + Σ materialize time, ms).
    pub serial_io_ms: f64,
    /// `serial − pipelined` wall clock (ms; negative when pipelining
    /// lost).
    pub hidden_ms: f64,
    /// `hidden / serial_io`, unclamped.
    pub overlap_ratio: f64,
    /// `hidden − serial_io` (ms): time saved beyond the serial I/O, or
    /// (negative) serial I/O left unhidden.
    pub residual_ms: f64,
}

/// The whole bench report (serialized to `BENCH_pipeline.json`).
#[derive(Clone, Debug, Serialize)]
pub struct PipelineBenchReport {
    /// Per-workload comparisons.
    pub workloads: Vec<WorkloadComparison>,
    /// Wall-clock speedup over both workloads combined.
    pub combined_speedup: f64,
    /// Worker ceiling used.
    pub workers: usize,
    /// Iterations per workload.
    pub iterations: usize,
    /// Timing aggregation: per-iteration serial latencies and
    /// per-workload walls, with log-bucketed p50/p95/p99
    /// summaries (`helix_obs::Registry`).
    pub metrics: RegistrySnapshot,
}

impl PipelineBenchReport {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pipelined iteration runtime: {} iterations/workload, {} workers\n",
            self.iterations, self.workers
        ));
        for w in &self.workloads {
            out.push_str(&format!(
                "  {:>9}  serial {:>9.2} ms  pipelined {:>9.2} ms  speedup {:>5.2}x  \
                 io {:>9.2} ms  hidden {:>8.2} ms  overlap {:>6.1}%  residual {:>8.2} ms\n",
                w.workload,
                w.serial_ms,
                w.pipelined_ms,
                w.speedup,
                w.serial_io_ms,
                w.hidden_ms,
                w.overlap_ratio * 100.0,
                w.residual_ms,
            ));
        }
        out.push_str(&format!("  combined speedup {:.2}x\n", self.combined_speedup));
        out
    }
}

/// The scripted workflow sequence: initial build, then alternating
/// identical reruns (reuse-heavy: the prefetch lane's terrain) and
/// scripted changes (compute + materialize: the write lane's terrain).
fn sequence(mut workload: Box<dyn Workload>, iterations: usize) -> Vec<Workflow> {
    let changes = workload.scripted_sequence();
    let mut wfs = vec![workload.build()];
    let mut change_ix = 0;
    for t in 1..iterations {
        if t % 2 == 0 {
            workload.apply_change(changes[change_ix % changes.len()]);
            change_ix += 1;
        }
        wfs.push(workload.build());
    }
    wfs
}

/// Encoded outputs of one iteration, name-ordered — the byte-identity
/// fingerprint.
fn fingerprint(report: &helix_core::IterationReport) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> =
        report.outputs.iter().map(|(name, value)| (name.clone(), encode_value(value))).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn compare_one(
    label: &'static str,
    make: &dyn Fn() -> Box<dyn Workload>,
    config: &PipelineBenchConfig,
    registry: &Registry,
) -> Result<WorkloadComparison> {
    let session_config = SessionConfig::in_memory()
        .with_workers(config.workers)
        .with_disk(config.disk)
        .with_seed(config.seed);

    // Untimed warm-up: the first run in the process would otherwise
    // pay cold code, allocator and page caches on the serial side alone.
    let mut warmup = Session::new(session_config.clone().with_pipeline(false))?;
    for wf in &sequence(make(), config.iterations) {
        warmup.run(wf)?;
    }
    drop(warmup);

    // Serial reference.
    let wfs = sequence(make(), config.iterations);
    let mut serial = Session::new(session_config.clone().with_pipeline(false))?;
    let serial_iter_hist = registry.histogram("pipeline.serial_iteration_nanos");
    let serial_begin = now_nanos();
    let serial_started = Instant::now();
    let mut serial_fps = Vec::new();
    for wf in &wfs {
        let iter_started = Instant::now();
        serial_fps.push(fingerprint(&serial.run(wf)?));
        serial_iter_hist.record(iter_started.elapsed().as_nanos() as u64);
    }
    let serial_wall = serial_started.elapsed().as_nanos() as Nanos;
    let serial_io: Nanos =
        serial.history().iter().map(|m| m.load_cpu_nanos + m.materialize_nanos).sum();

    // Pipelined run (fresh session, fresh catalog, same seed/sequence).
    let wfs = sequence(make(), config.iterations);
    let mut pipelined = Session::new(session_config)?;
    let pipelined_begin = now_nanos();
    let pipelined_started = Instant::now();
    let reports = wfs.iter().map(|wf| pipelined.run(wf)).collect::<Result<Vec<_>>>()?;
    pipelined.sync()?; // durability before the clock stops — fair vs inline writes
    let pipelined_wall = pipelined_started.elapsed().as_nanos() as Nanos;

    // Byte-identity is part of the bench contract, not a separate test.
    for (t, (serial_fp, report)) in serial_fps.iter().zip(&reports).enumerate() {
        if *serial_fp != fingerprint(report) {
            return Err(HelixError::exec(
                "pipeline-bench",
                format!("{label}: pipelined outputs diverged from serial at iteration {t}"),
            ));
        }
    }
    // Catalogs are compared modulo Algorithm 2's *elective* decisions:
    // those weigh measured node times against the disk model, so two
    // correct runs can legitimately disagree on them. Everything else
    // (mandatory materializations, evictions) must match exactly.
    let elective: std::collections::HashSet<String> = serial
        .elective_signatures()
        .into_iter()
        .chain(pipelined.elective_signatures())
        .map(|s| s.to_hex())
        .collect();
    let sigs_of = |session: &Session| -> Vec<String> {
        session
            .catalog()
            .entries()
            .iter()
            .map(|e| e.signature.clone())
            .filter(|s| !elective.contains(s))
            .collect()
    };
    let serial_sigs = sigs_of(&serial);
    let pipelined_sigs = sigs_of(&pipelined);
    if serial_sigs != pipelined_sigs {
        return Err(HelixError::exec(
            "pipeline-bench",
            format!("{label}: pipelined catalog diverged from serial"),
        ));
    }

    let speedup = serial_wall as f64 / pipelined_wall.max(1) as f64;
    let hidden = serial_wall as f64 - pipelined_wall as f64;
    let overlap_ratio = hidden / (serial_io.max(1) as f64);

    // Timing aggregation onto the shared registry...
    registry.histogram("pipeline.serial_wall_nanos").record(serial_wall);
    registry.histogram("pipeline.pipelined_wall_nanos").record(pipelined_wall);

    // ...and retrospective trace spans carrying the *exact* measured
    // nanos, so a trace consumer can re-derive the overlap ratio
    // `(serial.wall − pipelined.wall) / serial.io` from the exported
    // JSON alone (the inertness suite asserts this matches the report).
    let track = format!("bench-{label}");
    let _ = span_at(layer::BENCH, "serial.wall", serial_begin, serial_wall)
        .track(track.as_str())
        .amount(config.iterations as u64);
    let _ = span_at(layer::BENCH, "serial.io", serial_begin, serial_io).track(track.as_str());
    let _ = span_at(layer::BENCH, "pipelined.wall", pipelined_begin, pipelined_wall)
        .track(track.as_str())
        .amount(config.iterations as u64);

    Ok(WorkloadComparison {
        workload: label,
        iterations: config.iterations,
        serial_ms: serial_wall as f64 / 1e6,
        pipelined_ms: pipelined_wall as f64 / 1e6,
        speedup,
        serial_io_ms: serial_io as f64 / 1e6,
        hidden_ms: hidden / 1e6,
        overlap_ratio,
        residual_ms: (hidden - serial_io as f64) / 1e6,
    })
}

/// Run the full comparison (census + genomics).
#[allow(clippy::type_complexity)]
pub fn run_pipeline_bench(config: &PipelineBenchConfig) -> Result<PipelineBenchReport> {
    let workloads: Vec<(&'static str, Box<dyn Fn() -> Box<dyn Workload>>)> = vec![
        ("census", Box::new(|| Box::new(CensusWorkload::small()) as Box<dyn Workload>)),
        ("genomics", Box::new(|| Box::new(GenomicsWorkload::small()) as Box<dyn Workload>)),
    ];
    let registry = Registry::new();
    let mut comparisons = Vec::new();
    for (label, make) in &workloads {
        comparisons.push(compare_one(label, make.as_ref(), config, &registry)?);
    }
    let serial_total: f64 = comparisons.iter().map(|c| c.serial_ms).sum();
    let pipelined_total: f64 = comparisons.iter().map(|c| c.pipelined_ms).sum();
    Ok(PipelineBenchReport {
        combined_speedup: serial_total / pipelined_total.max(f64::MIN_POSITIVE),
        workers: config.workers,
        iterations: config.iterations,
        workloads: comparisons,
        metrics: registry.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_byte_identical_and_reports_overlap() {
        // Byte-identity failures surface as Err from the driver itself.
        let config = PipelineBenchConfig {
            iterations: 3,
            workers: 2,
            disk: DiskProfile::scaled(20_000_000, 50_000),
            seed: 42,
        };
        let report = run_pipeline_bench(&config).unwrap();
        assert_eq!(report.workloads.len(), 2);
        for w in &report.workloads {
            assert!(w.serial_ms > 0.0 && w.pipelined_ms > 0.0 && w.serial_io_ms > 0.0);
            // Raw, unclamped fields that agree with each other.
            assert!((w.hidden_ms - (w.serial_ms - w.pipelined_ms)).abs() < 1e-6);
            assert!((w.residual_ms - (w.hidden_ms - w.serial_io_ms)).abs() < 1e-6);
            assert!((w.overlap_ratio - w.hidden_ms / w.serial_io_ms).abs() < 1e-6);
        }
        assert!(report.render().contains("combined speedup"));

        // The registry block rides along in the report: one serial
        // iteration sample per (workload, iteration) and one wall sample
        // per workload, each with quantile summaries.
        let iters = &report.metrics.histograms["pipeline.serial_iteration_nanos"];
        assert_eq!(iters.count, 2 * 3);
        assert!(iters.p50 >= iters.min && iters.p99 <= iters.max);
        assert_eq!(report.metrics.histograms["pipeline.serial_wall_nanos"].count, 2);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"histograms\"") && json.contains("pipeline.serial_wall_nanos"));
    }
}
