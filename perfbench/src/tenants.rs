//! `tenants-open`: one `HelixService` serving eight developers, driven by
//! a seeded open-loop generator.
//!
//! Every pair of tenants shares one paper workflow at `small()` scale;
//! each tenant's change kinds are drawn with the seed from its domain's
//! change distribution. A single-threaded generator submits each
//! tenant's next iteration at Poisson arrival times of a fixed aggregate
//! rate and times every job from when it was due, so a stall shows as
//! latency of the jobs behind it. The untraced run holds the `low` rate;
//! the traced run adds `high` and a ladder above it to find the highest
//! rate that meets the latency limit with no growing backlog.

use crate::common::{self, now, outputs_of, Outputs, Reference, Replay, SpanIds, Spans, Workdir};
use crate::metrics::{mb, ms, Report};
use crate::solo::{Tag, WriteReuse};
use crate::stats;
use crate::{Args, Tally};
use helix_common::{Result, SplitMix64};
use helix_core::plan::{plan, PlanInputs};
use helix_core::track::{chain_signatures, ExecEnv};
use helix_core::{ReuseScope, SessionConfig, Workflow, DEFAULT_SEED};
use helix_exec::{IterationMetrics, Phase, RunState};
use helix_serve::{HelixService, JobOutcome, JobTicket, ServiceConfig, ServiceSession, TenantSpec};
use helix_workloads::{
    CensusWorkload, ChangeKind, GenomicsWorkload, IeWorkload, MnistWorkload, Workload,
};
use std::collections::HashMap;
use std::time::Duration;

/// Tenants of the service.
const TENANTS: usize = 8;

/// The aggregate arrival rates (jobs/s) of the rate steps: `low` (about
/// half of what two cores sustain), `high` (near it), and a ladder above.
const RATES: [(&str, f64); 5] =
    [("low", 50.0), ("high", 90.0), ("ladder1", 110.0), ("ladder2", 140.0), ("ladder3", 180.0)];

/// Share of `--seconds` each rate step's arrivals span in the traced run
/// (the untraced run spends all of it at `low`).
const TRACED_SHARES: [f64; 5] = [0.4, 0.3, 0.1, 0.1, 0.1];

/// Tail latency a sustained rate must stay under.
const LIMIT_MS: f64 = 250.0;

/// Service set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Jobs per tenant in one `cumulative_s` block: the paper's sequence
/// length.
const BLOCK: usize = 10;

/// How long a drain may wait for the last outstanding job.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Tracing toggles this often in the traced run, so traced and
/// untraced jobs share the same load.
const TOGGLE_NANOS: u64 = 250_000_000;

/// Tenant `t`'s workflow: pairs share census, genomics, IE, MNIST.
fn tenant_workload(t: usize) -> Box<dyn Workload> {
    match (t / 2) % 4 {
        0 => Box::new(CensusWorkload::small()),
        1 => Box::new(GenomicsWorkload::small()),
        2 => Box::new(IeWorkload::small()),
        _ => Box::new(MnistWorkload::small()),
    }
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// One scheduled job: when it is due and what it runs.
struct Job {
    /// Due time, nanoseconds after its step's start.
    due: u64,
    tenant: usize,
    iteration: usize,
    tag: Tag,
    wf: Option<Workflow>,
}

/// The seeded schedule: per step, Poisson arrivals spread over tenants,
/// and per tenant, its iterations. A tenant works through change
/// sequences of the paper's length (`BLOCK` iterations), then starts
/// over from the initial version (`None`), so its data stays the size of
/// one sequence's growth. Returns the jobs of each step and each
/// tenant's iterations after iteration 0 (the reference replays them).
fn schedule(
    seed: u64,
    steps: &[(f64, f64)],
    builds: &mut Vec<f64>,
) -> (Vec<Vec<Job>>, Vec<Vec<Option<ChangeKind>>>) {
    let mut arrivals = SplitMix64::new(seed ^ 0xA11C_E5ED);
    let mut workloads: Vec<Box<dyn Workload>> = (0..TENANTS).map(tenant_workload).collect();
    let mut kinds: Vec<SplitMix64> = (0..TENANTS as u64)
        .map(|t| SplitMix64::new(seed.wrapping_mul(31).wrapping_add(t)))
        .collect();
    let mut changes: Vec<Vec<Option<ChangeKind>>> = vec![Vec::new(); TENANTS];
    let mut jobs = Vec::with_capacity(steps.len());
    for &(rate, seconds) in steps {
        let mut step = Vec::new();
        let mut at = 0.0;
        loop {
            let u = (arrivals.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            at += -(1.0 - u).ln() / rate;
            if at >= seconds {
                break;
            }
            let tenant = arrivals.index(TENANTS);
            let iteration = changes[tenant].len() + 1;
            let t0 = now();
            let change = if iteration.is_multiple_of(BLOCK) {
                workloads[tenant] = tenant_workload(tenant);
                None
            } else {
                let kind = workloads[tenant].domain().sample_change(&mut kinds[tenant]);
                workloads[tenant].apply_change(kind);
                Some(kind)
            };
            let wf = workloads[tenant].build();
            builds.push(ms(now() - t0));
            changes[tenant].push(change);
            step.push(Job {
                due: (at * 1e9) as u64,
                tenant,
                iteration,
                tag: Tag::of(change),
                wf: Some(wf),
            });
        }
        jobs.push(step);
    }
    (jobs, changes)
}

/// A service with its tenants registered, their sessions open and each
/// tenant's iteration 0 done.
struct Setup {
    service: HelixService,
    /// Each tenant's storage quota.
    quota: u64,
    sessions: Vec<ServiceSession>,
    /// Encoded outputs of iteration 0, per tenant.
    init_outputs: Vec<Outputs>,
}

fn set_up(nproc: usize, dir: &std::path::Path, inits: &mut Vec<f64>) -> Result<Setup> {
    let config = ServiceConfig::new(nproc)
        .with_catalog_dir(dir)
        // Open loop: the bounded queue must never push back on arrivals.
        .with_queue_capacity(1 << 16);
    let quota = config.storage_budget_bytes / TENANTS as u64;
    let service = HelixService::new(config)?;
    let mut sessions = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        service.register_tenant(&tenant_name(t), TenantSpec::default().with_quota(quota))?;
        sessions.push(service.open_session(&tenant_name(t), SessionConfig::in_memory())?);
    }
    let t0 = now();
    let tickets: Vec<JobTicket> = sessions
        .iter()
        .enumerate()
        .map(|(t, s)| s.submit(tenant_workload(t).build()))
        .collect::<Result<_>>()?;
    let mut init_outputs = Vec::with_capacity(TENANTS);
    for ticket in tickets {
        let report = ticket.wait()?;
        inits.push(ms(now() - t0));
        init_outputs.push(outputs_of(&report));
    }
    Ok(Setup { service, quota, sessions, init_outputs })
}

/// What one completed job measured.
struct Done {
    step: usize,
    tenant: usize,
    tag: Tag,
    traced: bool,
    /// Generator lateness: submission start minus due time.
    late: u64,
    /// Time inside `ServiceSession::submit`.
    submit: u64,
    queue_wait: u64,
    run: u64,
    /// Due to done: lateness + submit + queue wait + run.
    latency: u64,
    /// Due to the generator seeing the ticket resolve.
    observed: u64,
    metrics: IterationMetrics,
}

/// A submitted job whose ticket has not resolved yet.
struct Pending {
    job: Job,
    ticket: JobTicket,
    due_abs: u64,
    late: u64,
    submit: u64,
    traced: bool,
}

/// Sampled service state over a step.
#[derive(Default)]
struct StepSamples {
    /// Jobs queued, planning or running, every 5 ms during arrivals.
    backlog: Vec<usize>,
    cores_busy: Vec<f64>,
}

impl StepSamples {
    /// Whether the backlog grew over the step: the mean of its last third
    /// exceeds twice that of its first third, and by at least four jobs.
    fn growing(&self) -> bool {
        let n = self.backlog.len();
        if n < 3 {
            return false;
        }
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        let (first, last) = (mean(&self.backlog[..n / 3]), mean(&self.backlog[n - n / 3..]));
        last > 2.0 * first && last - first >= 4.0
    }
}

/// Everything the generator observed.
#[derive(Default)]
struct Observed {
    done: Vec<Done>,
    outputs: Vec<HashMap<usize, Outputs>>,
    failed: u64,
    refused: u64,
    backlog_max: usize,
    threads_max: usize,
    steps: Vec<StepSamples>,
}

impl Observed {
    fn resolve(&mut self, step: usize, p: Pending, outcome: JobOutcome, spans: &mut Spans) {
        let seen = now();
        spans.record(
            "ticket",
            p.due_abs + p.late,
            seen,
            &SpanIds {
                pass: step as u64,
                tenant: &tenant_name(p.job.tenant),
                iteration: p.job.iteration as u64,
            },
        );
        match outcome.result {
            Ok(report) => {
                self.outputs[p.job.tenant].insert(p.job.iteration, outputs_of(&report));
                self.done.push(Done {
                    step,
                    tenant: p.job.tenant,
                    tag: p.job.tag,
                    traced: p.traced,
                    late: p.late,
                    submit: p.submit,
                    queue_wait: outcome.queue_wait_nanos,
                    run: outcome.run_nanos,
                    latency: p.late + p.submit + outcome.queue_wait_nanos + outcome.run_nanos,
                    observed: seen - p.due_abs,
                    metrics: report.metrics,
                });
            }
            Err(err) => {
                eprintln!(
                    "job failed: {} iteration {}: {err}",
                    tenant_name(p.job.tenant),
                    p.job.iteration
                );
                self.failed += 1;
            }
        }
    }

    /// Resolve every pending job whose ticket is done.
    fn sweep(&mut self, step: usize, pending: &mut Vec<Pending>, spans: &mut Spans) {
        let mut i = 0;
        while i < pending.len() {
            match pending[i].ticket.try_outcome() {
                Some(outcome) => {
                    let p = pending.swap_remove(i);
                    self.resolve(step, p, outcome, spans);
                }
                None => i += 1,
            }
        }
    }
}

/// Run one rate step: submit its jobs when due, sampling the service,
/// then drain. Tracing toggles every `TOGGLE_NANOS` when `trace` is set.
fn run_step(
    step: usize,
    jobs: Vec<Job>,
    setup: &Setup,
    trace: bool,
    obs: &mut Observed,
    spans: &mut Spans,
) {
    let budget = setup.service.core_budget();
    let mut samples = StepSamples::default();
    let mut pending: Vec<Pending> = Vec::new();
    let start = now();
    let (mut next_sample, mut next_threads) = (start, start);
    for mut job in jobs {
        let due_abs = start + job.due;
        loop {
            obs.sweep(step, &mut pending, spans);
            let t = now();
            if t >= next_sample {
                let q = setup.service.queue_snapshot();
                let backlog = q.queued + q.running + q.planning;
                samples.backlog.push(backlog);
                obs.backlog_max = obs.backlog_max.max(backlog);
                samples.cores_busy.push(budget.leased() as f64 / budget.total() as f64);
                next_sample = t + 5_000_000;
            }
            if t >= next_threads {
                obs.threads_max = obs.threads_max.max(common::thread_count());
                next_threads = t + 50_000_000;
            }
            if trace {
                helix_obs::set_enabled(((t - start) / TOGGLE_NANOS) % 2 == 1);
            }
            if t >= due_abs {
                break;
            }
            std::thread::sleep(Duration::from_nanos((due_abs - t).min(500_000)));
        }
        let traced = helix_obs::tracing_enabled();
        let s0 = now();
        let wf = job.wf.take().expect("each job is submitted once");
        match setup.sessions[job.tenant].submit(wf) {
            Ok(ticket) => {
                let s1 = now();
                spans.record(
                    "submit",
                    s0,
                    s1,
                    &SpanIds {
                        pass: step as u64,
                        tenant: &tenant_name(job.tenant),
                        iteration: job.iteration as u64,
                    },
                );
                pending.push(Pending {
                    job,
                    ticket,
                    due_abs,
                    late: s0 - due_abs,
                    submit: s1 - s0,
                    traced,
                });
            }
            Err(err) => {
                eprintln!("submit refused: {err}");
                obs.refused += 1;
            }
        }
    }
    // Drain: everything is submitted; wait, with a deadline, for the rest.
    let deadline = now() + DRAIN_LIMIT.as_nanos() as u64;
    while !pending.is_empty() && now() < deadline {
        obs.sweep(step, &mut pending, spans);
        std::thread::sleep(Duration::from_micros(200));
    }
    if !pending.is_empty() {
        eprintln!("{} jobs still running after the drain limit", pending.len());
        obs.failed += pending.len() as u64;
        // Their tickets stay outstanding; dropping the service drains them.
    }
    helix_obs::set_enabled(false);
    obs.steps.push(samples);
}

/// Tenants' jobs by step, as values of `f`.
fn values(obs: &Observed, step: usize, f: impl Fn(&Done) -> f64) -> Vec<f64> {
    obs.done.iter().filter(|d| d.step == step).map(f).collect()
}

/// `tenants-open`: see the module documentation.
pub fn tenants_open(args: &Args, report: &mut Report) -> Result<Tally> {
    let nproc = common::nproc();
    report.note(format!(
        "tenants-open: seed {} disk unthrottled cores {nproc} nproc {nproc} tenants {TENANTS} \
         rates {RATES:?} limit {LIMIT_MS} ms",
        args.seed
    ));
    let work = Workdir::create()?;
    let mut spans = Spans::new("tenants-open");

    let (mut setups, mut inits) = (Vec::new(), Vec::new());
    let mut kept: Option<Setup> = None;
    for k in 0..SETUPS {
        let t0 = now();
        let setup = set_up(nproc, &work.path(&format!("service{k}")), &mut inits)?;
        setups.push((now() - t0) as f64 / 1e9);
        if let Some(old) = kept.replace(setup) {
            drop(old);
            common::remove_dir(&work.path(&format!("service{}", k - 1)));
        }
    }
    let setup = kept.expect("at least one set-up");
    let quota = setup.quota;

    let seconds = args.seconds as f64;
    let steps: Vec<(f64, f64)> = if args.trace {
        RATES.iter().zip(TRACED_SHARES).map(|(&(_, rate), share)| (rate, seconds * share)).collect()
    } else {
        vec![(RATES[0].1, seconds)]
    };
    let mut builds = Vec::new();
    let (jobs, changes) = schedule(args.seed, &steps, &mut builds);

    let mut obs = Observed { outputs: vec![HashMap::new(); TENANTS], ..Default::default() };
    let mut sustained = 0.0;
    let mut attempted = TENANTS as u64;
    for (step, step_jobs) in jobs.into_iter().enumerate() {
        attempted += step_jobs.len() as u64;
        let failed_before = obs.failed + obs.refused;
        run_step(step, step_jobs, &setup, args.trace, &mut obs, &mut spans);
        let latencies = values(&obs, step, |d| ms(d.latency));
        let tail = stats::tail(&latencies).map_or(f64::INFINITY, |t| t.0);
        let met = tail <= LIMIT_MS
            && !obs.steps[step].growing()
            && obs.failed + obs.refused == failed_before;
        report.note(format!(
            "tenants-open step {} ({} jobs/s): {} jobs, tail {tail:.2} ms, backlog growing {}, met {met}",
            RATES[step].0,
            RATES[step].1,
            latencies.len(),
            obs.steps[step].growing()
        ));
        if !met {
            break;
        }
        sustained = RATES[step].1;
    }
    let peak_rss = common::peak_rss_bytes();
    let catalog_bytes = setup.service.catalog().total_bytes();

    // The oracle, outside every timed region: each tenant against its
    // own strict-serial solo replay.
    let mut failed = obs.failed + obs.refused;
    for (t, (seq, outputs)) in changes.iter().zip(&obs.outputs).enumerate() {
        let mut reference =
            Reference::new(tenant_workload(t), quota, work.path(&format!("reference{t}")))?;
        if reference.next(None)? != setup.init_outputs[t] {
            eprintln!("output mismatch: {} iteration 0", tenant_name(t));
            failed += 1;
        }
        for (i, &change) in seq.iter().enumerate() {
            if change.is_none() {
                reference.restart(tenant_workload(t));
            }
            let want = reference.next(change)?;
            match outputs.get(&(i + 1)) {
                Some(got) if *got == want => {}
                Some(_) => {
                    eprintln!("output mismatch: {} iteration {}", tenant_name(t), i + 1);
                    failed += 1;
                }
                // Never submitted (a ladder step that was cut) or already
                // counted as failed.
                None => {}
            }
        }
        reference.finish();
    }
    if args.trace {
        layers(report, &obs, &setup, &changes, builds, sustained)?;
        report.set("exec.peak_rss_mb", mb(peak_rss));
        report.set("storage.catalog_mb", mb(catalog_bytes));
        report.median("iter.init_ms", &inits);
        report.tail("iter.tail_ms", &values(&obs, 0, |d| ms(d.latency)));
        spans.write(&common::out_dir().join(format!("trace-tenants-open-{}.json", args.seed)))?;
    } else {
        report.median("setup_s", &setups);
        let low = |f: &dyn Fn(&Done) -> bool| -> Vec<f64> {
            obs.done.iter().filter(|d| d.step == 0 && f(d)).map(|d| ms(d.latency)).collect()
        };
        report.median("iter_p50_ms", &low(&|_| true));
        report.median("ppr_iter_ms", &low(&|d| d.tag == Tag::Ppr));
        report.median("cumulative_s", &blocks(&obs));
    }
    drop(setup);
    Ok(Tally { attempted, failed })
}

/// Seconds each tenant waited over consecutive blocks of `BLOCK` jobs at
/// `low`: the paper's cumulative run time, seen by one developer.
fn blocks(obs: &Observed) -> Vec<f64> {
    let mut per_tenant: Vec<Vec<u64>> = vec![Vec::new(); TENANTS];
    for d in obs.done.iter().filter(|d| d.step == 0) {
        per_tenant[d.tenant].push(d.latency);
    }
    per_tenant
        .iter()
        .flat_map(|l| l.chunks_exact(BLOCK).map(|c| c.iter().sum::<u64>() as f64 / 1e9))
        .collect()
}

/// The per-layer metrics of the traced run.
fn layers(
    report: &mut Report,
    obs: &Observed,
    setup: &Setup,
    changes: &[Vec<Option<ChangeKind>>],
    builds: Vec<f64>,
    sustained: f64,
) -> Result<()> {
    report.median_tail("core.dsl.build_ms", "core.dsl.build_ms.tail", &builds);
    // Service jobs plan inside `serve.run_ms`; a service session has no
    // public prepare or sync call to time.
    for name in [
        "core.session.prepare_ms",
        "core.session.prepare_ms.tail",
        "core.session.sync_ms",
        "core.session.sync_ms.tail",
    ] {
        report.set(name, 0.0);
    }

    // Standalone signature chain and plan solve on each tenant's latest
    // workflow against the shared catalog.
    let (mut sigs_us, mut solve_us) = (Vec::new(), Vec::new());
    let env = ExecEnv::new(DEFAULT_SEED);
    for (t, seq) in changes.iter().enumerate() {
        let mut workload = tenant_workload(t);
        for &change in seq {
            match change {
                Some(kind) => workload.apply_change(kind),
                None => workload = tenant_workload(t),
            }
        }
        let wf = workload.build();
        for _ in 0..20 {
            let s0 = now();
            let sigs = chain_signatures(&wf, &HashMap::new(), &env);
            let s1 = now();
            let inputs = PlanInputs {
                sigs: &sigs,
                catalog: setup.service.catalog(),
                reuse: ReuseScope::All,
                compute_stats: &HashMap::new(),
                default_compute_nanos: SessionConfig::in_memory().default_compute_nanos,
            };
            std::hint::black_box(plan(&wf, &inputs));
            let s2 = now();
            sigs_us.push((s1 - s0) as f64 / 1e3);
            solve_us.push((s2 - s1) as f64 / 1e3);
        }
    }
    report.median("core.track.signatures_us", &sigs_us);
    report.median("core.plan.solve_us", &solve_us);

    let low = |f: &dyn Fn(&Done) -> f64| values(obs, 0, f);
    // The job's parts (lateness, submit, queue wait, run) leave out only
    // the ticket's notice reaching the generator.
    report.median_tail(
        "core.iter.residual_us",
        "core.iter.residual_us.tail",
        &low(&|d| (d.observed as f64 - d.latency as f64) / 1e3),
    );

    let compute = |d: &Done, phase: Option<Phase>| -> u64 {
        d.metrics
            .node_runs
            .iter()
            .filter(|r| r.state == RunState::Computed && phase.is_none_or(|p| r.phase == p))
            .map(|r| r.run_nanos)
            .sum()
    };
    report.median_tail(
        "engine.compute_ms",
        "engine.compute_ms.tail",
        &low(&|d| ms(compute(d, None))),
    );
    let total = |f: &dyn Fn(&Done) -> u64| -> f64 {
        obs.done.iter().filter(|d| d.step == 0).map(f).sum::<u64>() as f64
    };
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let all = total(&|d| compute(d, None));
    for (name, phase) in [
        ("engine.compute_share.dpr", Phase::Dpr),
        ("engine.compute_share.li", Phase::LearnInference),
        ("engine.compute_share.ppr", Phase::Ppr),
    ] {
        report.set(name, share(total(&|d| compute(d, Some(phase))), all));
    }
    // A service job's run time covers planning too.
    report.median_tail(
        "engine.unattributed_ms",
        "engine.unattributed_ms.tail",
        &low(&|d| {
            let m = &d.metrics;
            (d.run as f64 - (compute(d, None) + m.load_nanos + m.materialize_nanos) as f64) / 1e6
        }),
    );
    report.median_tail(
        "engine.load_ms",
        "engine.load_ms.tail",
        &low(&|d| ms(d.metrics.load_nanos)),
    );
    report.median("engine.load_cpu_ms", &low(&|d| ms(d.metrics.load_cpu_nanos)));
    report.median(
        "engine.loaded_mb",
        &low(&|d| {
            mb(d.metrics
                .node_runs
                .iter()
                .filter(|r| r.state == RunState::Loaded)
                .map(|r| r.output_bytes)
                .sum())
        }),
    );
    report.set(
        "engine.materialize_share",
        share(total(&|d| d.metrics.materialize_nanos), total(&|d| d.run)),
    );
    report.median("engine.materialized_mb", &low(&|d| mb(d.metrics.materialized_bytes)));
    let mut reuse: Vec<WriteReuse> = (0..TENANTS / 2).map(|_| WriteReuse::default()).collect();
    for d in &obs.done {
        reuse[d.tenant / 2].observe(&d.metrics);
    }
    let (written, loaded): (u64, u64) =
        reuse.iter().fold((0, 0), |(w, l), r| (w + r.written, l + r.loaded_later));
    report.set("storage.materialized_loaded_frac", share(loaded as f64, written as f64));
    report.set(
        "exec.peak_cache_mb",
        obs.done.iter().map(|d| mb(d.metrics.peak_memory_bytes)).fold(0.0, f64::max),
    );
    report.median("exec.cores_busy_frac", &obs.steps[0].cores_busy);

    report.median_tail("serve.submit_us", "serve.submit_us.tail", &low(&|d| d.submit as f64 / 1e3));
    report.median_tail(
        "serve.queue_wait_ms",
        "serve.queue_wait_ms.tail",
        &low(&|d| ms(d.queue_wait)),
    );
    report.median_tail("serve.run_ms", "serve.run_ms.tail", &low(&|d| ms(d.run)));
    report.set("serve.backlog_max", obs.backlog_max as f64);
    report.set("serve.cross_hit_rate", setup.service.stats().cross_hit_rate());
    report.set("serve.refused", obs.refused as f64);
    let high = values(obs, 1, |d| ms(d.latency));
    report.median("serve.job_p50_ms.high", &high);
    report.set("serve.job_tail_ms.high", stats::tail(&high).map_or(0.0, |t| t.0));
    report.set("serve.sustained_jobs_per_s", sustained);

    let traced_runs = |traced: bool| -> Vec<f64> {
        obs.done.iter().filter(|d| d.step == 0 && d.traced == traced).map(|d| ms(d.run)).collect()
    };
    let overhead = match (stats::median(&traced_runs(true)), stats::median(&traced_runs(false))) {
        (Some(t), Some(p)) if p > 0.0 => t / p - 1.0,
        _ => 0.0,
    };
    report.set("obs.trace_overhead_frac", overhead);
    report.median_tail("bench.gen_late_ms", "bench.gen_late_ms.tail", &low(&|d| ms(d.late)));
    report.set("bench.threads_max", obs.threads_max as f64);

    let mut replay = Replay::default();
    replay.run(setup.service.catalog())?;
    report.set("storage.catalog.load_mb_s", common::mb_per_s(replay.load));
    report.set("storage.codec.decode_mb_s", common::mb_per_s(replay.decode));
    report.set("storage.codec.encode_mb_s", common::mb_per_s(replay.encode));
    report.set("common.crc32_mb_s", common::mb_per_s(replay.crc));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_the_same_changes_and_arrivals() {
        let steps = [(100.0, 0.5), (200.0, 0.25)];
        let replay = |seed| {
            let (jobs, changes) = schedule(seed, &steps, &mut Vec::new());
            let arrivals: Vec<Vec<(u64, usize, usize, Tag)>> = jobs
                .iter()
                .map(|step| step.iter().map(|j| (j.due, j.tenant, j.iteration, j.tag)).collect())
                .collect();
            (arrivals, changes)
        };
        let first = replay(3);
        assert_eq!(first, replay(3));
        assert_ne!(first, replay(4));
        assert!(first.0.iter().all(|step| step.windows(2).all(|w| w[0].0 <= w[1].0)));
    }
}
