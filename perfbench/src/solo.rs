//! The solo workloads: `paper-mix` and `warm-reuse`.
//!
//! Both drive one developer's session through the public lifecycle calls
//! (`Workload::build`, `Session::prepare_iteration`,
//! `Session::execute_prepared`, `Session::sync`) and time each call from
//! here; the program itself is not instrumented for the benchmark.

use crate::common::{
    self, now, open_session, outputs_of, Outputs, Reference, Replay, SpanIds, Spans, Workdir,
};
use crate::metrics::{mb, ms, Report};
use crate::{Args, Tally};
use helix_common::{Result, SplitMix64};
use helix_core::plan::{plan, PlanInputs};
use helix_core::track::chain_signatures;
use helix_core::{Session, SessionConfig};
use helix_exec::{IterationMetrics, Phase, RunState};
use helix_storage::DiskProfile;
use helix_workloads::{
    CensusWorkload, ChangeKind, GenomicsWorkload, IeWorkload, MnistWorkload, Workload,
};
use std::collections::{BTreeMap, HashMap};

/// The change that led to an iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// Iteration 0: the initial version.
    Init,
    /// Data preprocessing change.
    Dpr,
    /// Learning/inference change.
    Li,
    /// Postprocessing change.
    Ppr,
}

impl Tag {
    /// The tag of an iteration reached by `change` (`None` = iteration 0).
    pub fn of(change: Option<ChangeKind>) -> Tag {
        match change {
            None => Tag::Init,
            Some(ChangeKind::Dpr) => Tag::Dpr,
            Some(ChangeKind::LI) => Tag::Li,
            Some(ChangeKind::Ppr) => Tag::Ppr,
        }
    }
}

/// What one timed iteration measured, in nanoseconds and bytes.
#[derive(Clone, Debug)]
pub struct IterSample {
    /// Position of the iteration in the workload's fixed schedule: the
    /// same slot in every pass.
    pub slot: u64,
    /// The change that led here.
    pub tag: Tag,
    /// Whether tracing was on.
    pub traced: bool,
    /// `apply_change` + `build`: the DSL.
    pub build: u64,
    /// `Session::prepare_iteration`.
    pub prepare: u64,
    /// `Session::execute_prepared`.
    pub execute: u64,
    /// Wall time of the whole iteration.
    pub wall: u64,
    /// Computed-node run time by phase (DPR, L/I, PPR).
    pub compute: [u64; 3],
    /// The engine's load-interval union, summed load time and bytes.
    pub load: u64,
    /// Summed per-load time.
    pub load_cpu: u64,
    /// In-memory bytes of loaded nodes.
    pub loaded_bytes: u64,
    /// Materialization time and bytes.
    pub materialize: u64,
    /// Bytes written to the catalog.
    pub materialized_bytes: u64,
    /// Peak resident cache bytes.
    pub peak_cache: u64,
    /// Standalone `chain_signatures` and `plan::plan` on the same
    /// workflow and catalog (traced iterations only, outside the wall).
    pub signatures: u64,
    /// See `signatures`.
    pub solve: u64,
}

impl IterSample {
    /// Wall time minus the three timed calls: what they leave uncovered
    /// (here only the benchmark's own clock reads).
    pub fn residual(&self) -> i64 {
        self.wall as i64 - (self.build + self.prepare + self.execute) as i64
    }

    /// `execute_prepared` wall minus compute, load union and
    /// materialization (signed: overlap can make the parts exceed it).
    pub fn unattributed(&self) -> i64 {
        self.execute as i64
            - (self.compute.iter().sum::<u64>() + self.load + self.materialize) as i64
    }
}

/// Run one iteration: apply `change` (if any), build, prepare, execute.
pub fn timed_iteration(
    session: &mut Session,
    workload: &mut dyn Workload,
    change: Option<ChangeKind>,
    spans: &mut Spans,
    ids: &SpanIds<'_>,
) -> Result<(IterSample, Outputs, IterationMetrics)> {
    let traced = helix_obs::tracing_enabled();
    let begin = now();
    let t0 = now();
    if let Some(kind) = change {
        workload.apply_change(kind);
    }
    let wf = workload.build();
    let t1 = now();
    let prepared = session.prepare_iteration(&wf, None)?;
    let t2 = now();
    let report = session.execute_prepared(&wf, prepared)?;
    let t3 = now();
    let end = now();
    spans.record("build", t0, t1, ids);
    spans.record("prepare", t1, t2, ids);
    spans.record("execute", t2, t3, ids);
    spans.record("iteration", begin, end, ids);

    let (mut signatures, mut solve) = (0, 0);
    if traced {
        let s0 = now();
        let sigs = chain_signatures(&wf, &HashMap::new(), session.env());
        let s1 = now();
        let inputs = PlanInputs {
            sigs: &sigs,
            catalog: session.catalog(),
            reuse: session.config().reuse,
            compute_stats: &HashMap::new(),
            default_compute_nanos: session.config().default_compute_nanos,
        };
        std::hint::black_box(plan(&wf, &inputs));
        let s2 = now();
        signatures = s1 - s0;
        solve = s2 - s1;
    }

    let m = &report.metrics;
    let mut compute = [0u64; 3];
    let mut loaded_bytes = 0;
    for run in &m.node_runs {
        match run.state {
            RunState::Computed => {
                compute[match run.phase {
                    Phase::Dpr => 0,
                    Phase::LearnInference => 1,
                    Phase::Ppr => 2,
                }] += run.run_nanos
            }
            RunState::Loaded => loaded_bytes += run.output_bytes,
            RunState::Pruned => {}
        }
    }
    let sample = IterSample {
        slot: 0,
        tag: Tag::of(change),
        traced,
        build: t1 - t0,
        prepare: t2 - t1,
        execute: t3 - t2,
        wall: end - begin,
        compute,
        load: m.load_nanos,
        load_cpu: m.load_cpu_nanos,
        loaded_bytes,
        materialize: m.materialize_nanos,
        materialized_bytes: m.materialized_bytes,
        peak_cache: m.peak_memory_bytes,
        signatures,
        solve,
    };
    Ok((sample, outputs_of(&report), report.metrics))
}

/// Which materialized bytes a later iteration loads again, attributed by
/// node name to the node's most recent write.
#[derive(Default)]
pub struct WriteReuse {
    pending: HashMap<String, u64>,
    /// Bytes written.
    pub written: u64,
    /// Of those, bytes a later iteration loaded.
    pub loaded_later: u64,
}

impl WriteReuse {
    /// Fold in one iteration (its loads precede its own writes).
    pub fn observe(&mut self, m: &IterationMetrics) {
        for run in &m.node_runs {
            if run.state == RunState::Loaded {
                if let Some(bytes) = self.pending.remove(&run.name) {
                    self.loaded_later += bytes;
                }
            }
        }
        for run in &m.node_runs {
            if run.materialized_bytes > 0 {
                self.pending.insert(run.name.clone(), run.materialized_bytes);
                self.written += run.materialized_bytes;
            }
        }
    }

    /// Start a new sequence: earlier writes can no longer be loaded.
    pub fn reset(&mut self) {
        self.pending.clear();
    }
}

/// The generator seed of a workflow's synthetic data under benchmark
/// seed `seed`: the default data seed mixed with the benchmark seed, so
/// each seed generates different data of the same shape and size.
fn data_seed(default: u64, seed: u64) -> u64 {
    default ^ SplitMix64::new(seed).next_u64()
}

/// The paper workflow `ix` of `paper-mix`, at default scale on its
/// default data.
fn paper_workload(ix: usize) -> Box<dyn Workload> {
    match ix {
        0 => Box::new(CensusWorkload::default()),
        1 => Box::new(GenomicsWorkload::default()),
        2 => Box::new(IeWorkload::default()),
        _ => Box::new(MnistWorkload::default()),
    }
}

const PAPER_WORKFLOWS: usize = 4;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Samples and side measurements common to both solo workloads.
#[derive(Default)]
struct Solo {
    samples: Vec<IterSample>,
    syncs: Vec<f64>,
    reuse: WriteReuse,
    replay: Replay,
    failed: u64,
    attempted: u64,
}

impl Solo {
    /// Compare one iteration's outputs with the reference's.
    fn check(&mut self, label: &str, got: &Outputs, want: &Outputs) {
        self.attempted += 1;
        if got != want {
            eprintln!("output mismatch: {label}");
            self.failed += 1;
        }
    }

    fn traced(&self) -> impl Iterator<Item = &IterSample> {
        self.samples.iter().filter(|s| s.traced)
    }

    /// Wall times (ms) of traced or untraced iterations, reduced to one
    /// median per slot, so a mix of unlike iterations repeated over
    /// passes yields one steady value per iteration of the schedule.
    fn slot_walls(&self, tag: Option<Tag>, traced: bool) -> Vec<f64> {
        let mut slots: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let samples = self.samples.iter().filter(|s| s.traced == traced);
        for s in samples.filter(|s| tag.is_none_or(|t| s.tag == t)) {
            slots.entry(s.slot).or_default().push(ms(s.wall));
        }
        slots.values().filter_map(|walls| crate::stats::median(walls)).collect()
    }

    /// The end-to-end iteration metrics, from untraced iterations. DPR
    /// and L/I medians are noted only: warm-reuse has neither.
    fn end_to_end(&self, report: &mut Report) {
        report.median("iter_p50_ms", &self.slot_walls(None, false));
        report.median("ppr_iter_ms", &self.slot_walls(Some(Tag::Ppr), false));
        for (label, tag) in [("DPR", Tag::Dpr), ("L/I", Tag::Li)] {
            let walls = self.slot_walls(Some(tag), false);
            if let Some(median) = crate::stats::median(&walls) {
                report.note(format!(
                    "{label} iteration median {median:.3} ms over {} slots",
                    walls.len()
                ));
            }
        }
    }

    /// The per-layer metrics, from traced iterations.
    fn layers(&self, report: &mut Report) {
        report.tail("iter.tail_ms", &self.slot_walls(None, true));
        let col = |f: &dyn Fn(&IterSample) -> f64| -> Vec<f64> { self.traced().map(f).collect() };
        let total =
            |f: &dyn Fn(&IterSample) -> u64| -> f64 { self.traced().map(f).sum::<u64>() as f64 };
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        report.median_tail("core.dsl.build_ms", "core.dsl.build_ms.tail", &col(&|s| ms(s.build)));
        report.median_tail(
            "core.session.prepare_ms",
            "core.session.prepare_ms.tail",
            &col(&|s| ms(s.prepare)),
        );
        report.median("core.track.signatures_us", &col(&|s| s.signatures as f64 / 1e3));
        report.median("core.plan.solve_us", &col(&|s| s.solve as f64 / 1e3));
        report.median_tail(
            "core.iter.residual_us",
            "core.iter.residual_us.tail",
            &col(&|s| s.residual() as f64 / 1e3),
        );
        report.median_tail(
            "engine.compute_ms",
            "engine.compute_ms.tail",
            &col(&|s| ms(s.compute.iter().sum())),
        );
        let compute = total(&|s| s.compute.iter().sum());
        report.set("engine.compute_share.dpr", share(total(&|s| s.compute[0]), compute));
        report.set("engine.compute_share.li", share(total(&|s| s.compute[1]), compute));
        report.set("engine.compute_share.ppr", share(total(&|s| s.compute[2]), compute));
        report.median_tail(
            "engine.unattributed_ms",
            "engine.unattributed_ms.tail",
            &col(&|s| s.unattributed() as f64 / 1e6),
        );
        report.median_tail("engine.load_ms", "engine.load_ms.tail", &col(&|s| ms(s.load)));
        report.median("engine.load_cpu_ms", &col(&|s| ms(s.load_cpu)));
        report.median("engine.loaded_mb", &col(&|s| mb(s.loaded_bytes)));
        report.set(
            "engine.materialize_share",
            share(total(&|s| s.materialize), total(&|s| s.execute)),
        );
        report.median("engine.materialized_mb", &col(&|s| mb(s.materialized_bytes)));
        report.median_tail("core.session.sync_ms", "core.session.sync_ms.tail", &self.syncs);
        report.set(
            "storage.materialized_loaded_frac",
            share(self.reuse.loaded_later as f64, self.reuse.written as f64),
        );
        report
            .set("exec.peak_cache_mb", self.traced().map(|s| mb(s.peak_cache)).fold(0.0, f64::max));
        report.set("storage.catalog.load_mb_s", common::mb_per_s(self.replay.load));
        report.set("storage.codec.decode_mb_s", common::mb_per_s(self.replay.decode));
        report.set("storage.codec.encode_mb_s", common::mb_per_s(self.replay.encode));
        report.set("common.crc32_mb_s", common::mb_per_s(self.replay.crc));
    }
}

/// Tracing overhead: median traced over median untraced measurement,
/// minus one.
fn overhead(traced: &[f64], plain: &[f64]) -> f64 {
    match (crate::stats::median(traced), crate::stats::median(plain)) {
        (Some(t), Some(p)) if p > 0.0 => t / p - 1.0,
        _ => 0.0,
    }
}

/// Whether the timed loop should run another pass: until `seconds` of
/// timed work, and at least two passes (one traced, one not, when
/// tracing).
fn more_passes(args: &Args, timed: u64, passes: u64) -> bool {
    timed < args.seconds * 1_000_000_000 || passes < 2
}

/// `paper-mix`: the paper's Fig. 5 experiment on the wall clock. Each
/// pass opens one fresh session per paper workflow (default scale and
/// data) and replays the workflow's frozen change sequence of the
/// paper's length (`Workload::scripted_sequence`, itself one draw from
/// the domain's change distribution), on the paper's HDD profile with
/// `nproc` workers. A pass is the four sequences, session opening and
/// the final `sync` included. Set-up is what a pass waits for before its
/// first results: opening the four sessions and their iteration 0. With
/// tracing, odd passes are traced.
///
/// The inputs are the same for every seed: fresh draws per seed moved a
/// pass by about 12%, and seeded data flipped Algorithm 2's
/// timing-coupled choices, both far beyond the run-to-run noise.
pub fn paper_mix(args: &Args, report: &mut Report) -> Result<Tally> {
    let nproc = common::nproc();
    let config = SessionConfig::in_memory().with_workers(nproc).with_disk(DiskProfile::paper_hdd());
    report.note(format!(
        "paper-mix: seed {} disk paper_hdd (170 MB/s + 2 ms seek) workers {nproc} nproc {nproc}",
        args.seed
    ));
    let work = Workdir::create()?;
    let mut spans = Spans::new("paper-mix");
    let mut solo = Solo::default();
    let changes: Vec<Vec<ChangeKind>> =
        (0..PAPER_WORKFLOWS).map(|ix| paper_workload(ix).scripted_sequence()).collect();

    // The oracle's reference outputs, computed before (and outside) the
    // timed region. Every pass replays the same sequences, so one
    // strict-serial replay per workflow serves every pass.
    let mut references: Vec<Vec<Outputs>> = Vec::with_capacity(PAPER_WORKFLOWS);
    for (ix, seq) in changes.iter().enumerate() {
        let mut reference = Reference::new(
            paper_workload(ix),
            config.storage_budget_bytes,
            work.path(&format!("reference-{ix}")),
        )?;
        let mut want = vec![reference.next(None)?];
        for &kind in seq {
            want.push(reference.next(Some(kind))?);
        }
        reference.finish();
        references.push(want);
    }

    let (mut cumulative, mut traced_cumulative, mut catalog) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let sampler = args.trace.then(common::ThreadSampler::start);
    let (mut timed, mut pass) = (0u64, 0u64);
    while more_passes(args, timed, pass) {
        let traced = args.trace && pass % 2 == 1;
        helix_obs::set_enabled(traced);
        let (mut wall, mut bytes, mut setup) = (0u64, 0u64, 0u64);
        for (ix, seq) in changes.iter().enumerate() {
            let mut workload = paper_workload(ix);
            let name = workload.name();
            let ids = SpanIds { pass, tenant: name, iteration: 0 };
            let dir = work.path(&format!("pass{pass}-{name}"));
            let t0 = now();
            let mut session = open_session(config.clone(), &dir)?;
            let t1 = now();
            spans.record("open", t0, t1, &ids);
            wall += t1 - t0;
            setup += t1 - t0;
            solo.reuse.reset();
            for i in 0..=seq.len() {
                let change = (i > 0).then(|| seq[i - 1]);
                let ids = SpanIds { pass, tenant: name, iteration: i as u64 };
                let (mut sample, out, metrics) =
                    timed_iteration(&mut session, workload.as_mut(), change, &mut spans, &ids)?;
                sample.slot = (ix * 1000 + i) as u64;
                wall += sample.wall;
                if i == 0 {
                    setup += sample.wall;
                }
                if traced {
                    solo.reuse.observe(&metrics);
                }
                solo.samples.push(sample);
                solo.check(&format!("pass {pass} {name} iteration {i}"), &out, &references[ix][i]);
            }
            let t0 = now();
            session.sync()?;
            let t1 = now();
            spans.record("sync", t0, t1, &ids);
            wall += t1 - t0;
            bytes += session.catalog().total_bytes();
            if traced {
                solo.syncs.push(ms(t1 - t0));
                solo.replay.run(session.catalog())?;
            }
            drop(session);
            common::remove_dir(&dir);
        }
        helix_obs::set_enabled(false);
        if traced {
            traced_cumulative.push(wall as f64 / 1e9);
        } else {
            cumulative.push(wall as f64 / 1e9);
            setups.push(setup as f64 / 1e9);
        }
        catalog.push(mb(bytes));
        timed += wall;
        pass += 1;
    }

    if let Some(sampler) = sampler {
        report.set("bench.threads_max", sampler.stop() as f64);
    }
    if args.trace {
        solo.layers(report);
        report.set("obs.trace_overhead_frac", overhead(&traced_cumulative, &cumulative));
        report.median("storage.catalog_mb", &catalog);
        report.set("exec.peak_rss_mb", mb(common::peak_rss_bytes()));
        report.median("iter.init_ms", &solo.slot_walls(Some(Tag::Init), true));
        spans.write(&common::out_dir().join(format!("trace-paper-mix-{}.json", args.seed)))?;
    } else {
        report.median("cumulative_s", &cumulative);
        report.median("setup_s", &setups);
        solo.end_to_end(report);
    }
    report.note(format!("paper-mix: {pass} passes"));
    Ok(Tally { attempted: solo.attempted, failed: solo.failed })
}

/// Iterations per `warm-reuse` pass: the paper's sequence length.
const WARM_BLOCK: usize = 10;

/// `warm-reuse`: census at 10x rows on the unthrottled disk with `nproc`
/// workers. Set-up (opening the session, iteration 0 and `sync`) runs
/// several times for its median; the last set-up's session then takes a
/// long run of PPR-only changes, each bumping the evaluation reducer. A
/// pass is ten such iterations plus a `sync`. With tracing, odd passes
/// are traced.
pub fn warm_reuse(args: &Args, report: &mut Report) -> Result<Tally> {
    let nproc = common::nproc();
    let config = SessionConfig::in_memory().with_workers(nproc);
    report.note(format!(
        "warm-reuse: seed {} disk unthrottled workers {nproc} nproc {nproc} census 10x rows",
        args.seed
    ));
    let census = || -> Box<dyn Workload> {
        let mut w = CensusWorkload::default().scaled(10);
        w.seed = data_seed(w.seed, args.seed);
        Box::new(w)
    };
    let work = Workdir::create()?;
    let mut spans = Spans::new("warm-reuse");
    let mut solo = Solo::default();

    let (mut setups, mut inits) = (Vec::new(), Vec::new());
    let mut kept = None;
    for k in 0..SETUPS {
        let dir = work.path(&format!("setup{k}"));
        let ids = SpanIds { pass: 0, tenant: "census", iteration: 0 };
        let t0 = now();
        let mut session = open_session(config.clone(), &dir)?;
        let mut workload = census();
        let (sample, out, _) =
            timed_iteration(&mut session, workload.as_mut(), None, &mut spans, &ids)?;
        session.sync()?;
        setups.push((now() - t0) as f64 / 1e9);
        inits.push(ms(sample.wall));
        if let Some((old, _, _, old_dir)) = kept.replace((session, workload, out, dir)) {
            drop(old);
            common::remove_dir(&old_dir);
        }
    }
    let (mut session, mut workload, init_out, _dir) = kept.expect("at least one set-up");
    // Outputs are a few hundred bytes per iteration: keep them all and
    // run the reference after the timed region, not between passes.
    let mut outputs = Vec::new();
    let (mut cumulative, mut catalog) = (Vec::new(), Vec::new());
    let sampler = args.trace.then(common::ThreadSampler::start);
    let (mut timed, mut pass) = (0u64, 0u64);
    while more_passes(args, timed, pass) {
        let traced = args.trace && pass % 2 == 1;
        helix_obs::set_enabled(traced);
        let mut wall = 0u64;
        for i in 0..WARM_BLOCK {
            let iteration = pass * WARM_BLOCK as u64 + i as u64 + 1;
            let ids = SpanIds { pass, tenant: "census", iteration };
            let (mut sample, out, metrics) = timed_iteration(
                &mut session,
                workload.as_mut(),
                Some(ChangeKind::Ppr),
                &mut spans,
                &ids,
            )?;
            sample.slot = iteration;
            wall += sample.wall;
            if traced {
                solo.reuse.observe(&metrics);
            }
            solo.samples.push(sample);
            outputs.push(out);
        }
        let ids = SpanIds { pass, tenant: "census", iteration: 0 };
        let t0 = now();
        session.sync()?;
        let t1 = now();
        spans.record("sync", t0, t1, &ids);
        wall += t1 - t0;
        helix_obs::set_enabled(false);
        if traced {
            solo.syncs.push(ms(t1 - t0));
        } else {
            cumulative.push(wall as f64 / 1e9);
        }
        catalog.push(mb(session.catalog().total_bytes()));
        timed += wall;

        pass += 1;
    }
    if let Some(sampler) = sampler {
        report.set("bench.threads_max", sampler.stop() as f64);
    }
    let peak_rss = common::peak_rss_bytes();

    // The oracle, outside the timed region.
    let mut reference =
        Reference::new(census(), config.storage_budget_bytes, work.path("reference"))?;
    solo.check("iteration 0", &init_out, &reference.next(None)?);
    for (i, got) in outputs.iter().enumerate() {
        let want = reference.next(Some(ChangeKind::Ppr))?;
        solo.check(&format!("iteration {}", i + 1), got, &want);
    }
    reference.finish();

    if args.trace {
        solo.replay.run(session.catalog())?;
        solo.layers(report);
        let walls = |traced: bool| -> Vec<f64> {
            solo.samples.iter().filter(|s| s.traced == traced).map(|s| ms(s.wall)).collect()
        };
        report.set("obs.trace_overhead_frac", overhead(&walls(true), &walls(false)));
        report.median("storage.catalog_mb", &catalog);
        report.set("exec.peak_rss_mb", mb(peak_rss));
        // Iteration 0 runs during set-up only.
        report.median("iter.init_ms", &inits);
        spans.write(&common::out_dir().join(format!("trace-warm-reuse-{}.json", args.seed)))?;
    } else {
        report.median("cumulative_s", &cumulative);
        report.median("setup_s", &setups);
        solo.end_to_end(report);
    }
    report.note(format!(
        "warm-reuse: {pass} passes of {WARM_BLOCK} iterations; set-ups {setups:.3?} s, \
         iteration 0 {inits:.1?} ms"
    ));
    Ok(Tally { attempted: solo.attempted, failed: solo.failed })
}
