//! Pieces every workload shares: the scratch directory, the output
//! oracle, the span recorder and the storage replay.

use helix_common::hash::Signature;
use helix_common::{crc32::crc32, HelixError, Result};
use helix_core::{IterationReport, Session, SessionConfig};
use helix_obs::SpanEvent;
use helix_storage::{decode_value, encode_value, MaterializationCatalog};
use helix_workloads::{ChangeKind, Workload};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Monotonic nanoseconds on the clock `helix-obs` stamps its spans with,
/// so the benchmark's spans line up with the program's own.
pub fn now() -> u64 {
    helix_obs::now_nanos()
}

/// A scratch directory under the benchmark's own `out/`, removed on
/// drop. Every catalog the benchmark opens lives here.
pub struct Workdir {
    root: PathBuf,
}

impl Workdir {
    /// Create `out/work-<pid>` next to the benchmark's manifest.
    pub fn create() -> Result<Workdir> {
        let root = out_dir().join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Workdir { root })
    }

    /// A fresh (not yet existing) directory name under the root.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `out/` beside the benchmark's manifest: scratch catalogs and traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Remove a catalog directory the benchmark no longer needs.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Everything a user sees from an iteration: output name → encoded
/// bytes, sorted by name.
pub type Outputs = Vec<(String, Vec<u8>)>;

/// Encode an iteration's outputs for byte-for-byte comparison.
pub fn outputs_of(report: &IterationReport) -> Outputs {
    let mut outputs: Outputs =
        report.outputs.iter().map(|(name, value)| (name.clone(), encode_value(value))).collect();
    outputs.sort();
    outputs
}

/// A solo session with its catalog in `dir`.
pub fn open_session(config: SessionConfig, dir: &Path) -> Result<Session> {
    Session::new(SessionConfig { catalog_dir: Some(dir.to_path_buf()), ..config })
}

/// The strict-serial reference: a one-worker session without the
/// pipelined runtime, replaying the same workload and changes as a timed
/// session. Callers keep it out of every timed region.
pub struct Reference {
    session: Session,
    workload: Box<dyn Workload>,
    dir: PathBuf,
}

impl Reference {
    /// Open the reference session, with a storage budget of
    /// `budget_bytes`, in `dir`.
    pub fn new(workload: Box<dyn Workload>, budget_bytes: u64, dir: PathBuf) -> Result<Reference> {
        let config = SessionConfig::in_memory()
            .with_pipeline(false)
            .with_workers(1)
            .with_budget(budget_bytes);
        Ok(Reference { session: open_session(config, &dir)?, workload, dir })
    }

    /// Run the next iteration (`None` = iteration 0) and return its
    /// encoded outputs.
    pub fn next(&mut self, change: Option<ChangeKind>) -> Result<Outputs> {
        if let Some(kind) = change {
            self.workload.apply_change(kind);
        }
        Ok(outputs_of(&self.session.run(&self.workload.build())?))
    }

    /// Start over from `workload`'s initial version (the session, and
    /// its catalog, carry on).
    pub fn restart(&mut self, workload: Box<dyn Workload>) {
        self.workload = workload;
    }

    /// Close the session and remove its catalog.
    pub fn finish(self) {
        drop(self.session);
        remove_dir(&self.dir);
    }
}

/// Spans the benchmark records around its own calls into the program,
/// kept in memory and written out with the program's spans at exit.
pub struct Spans {
    track: String,
    events: Vec<SpanEvent>,
}

/// Labels of one span: pass, tenant and iteration.
pub struct SpanIds<'a> {
    /// Pass (or rate step) number.
    pub pass: u64,
    /// Tenant or workflow name.
    pub tenant: &'a str,
    /// Iteration within the tenant's sequence.
    pub iteration: u64,
}

impl Spans {
    /// A recorder whose spans sit on the track `bench/<workload>`.
    pub fn new(workload: &str) -> Spans {
        Spans { track: format!("bench/{workload}"), events: Vec::new() }
    }

    /// Record `[begin, end]` under `name` while tracing is on.
    pub fn record(&mut self, name: &'static str, begin: u64, end: u64, ids: &SpanIds<'_>) {
        if !helix_obs::tracing_enabled() {
            return;
        }
        self.events.push(SpanEvent {
            name,
            cat: helix_obs::layer::BENCH,
            begin,
            end: end.max(begin),
            thread: helix_obs::span::thread_ordinal(),
            track: Some(self.track.clone()),
            tenant: Some(ids.tenant.to_string()),
            session: Some(ids.pass),
            iteration: Some(ids.iteration),
            node: None,
            lane: None,
            amount: None,
        });
    }

    /// Merge with the program's own spans and write one Chrome trace.
    pub fn write(self, path: &Path) -> Result<()> {
        let (mut events, dropped) = helix_obs::drain_spans();
        events.extend(self.events);
        events.sort_by_key(|e| (e.begin, e.thread));
        helix_obs::write_trace(path, &events, dropped)?;
        Ok(())
    }
}

/// Bytes and time per storage-layer operation, replayed over real
/// catalog artifacts outside every timed region.
#[derive(Default)]
pub struct Replay {
    /// (bytes, nanos) through `MaterializationCatalog::load`.
    pub load: (u64, u64),
    /// (bytes, nanos) through `decode_value`.
    pub decode: (u64, u64),
    /// (bytes, nanos) through `encode_value`.
    pub encode: (u64, u64),
    /// (bytes, nanos) through `crc32`.
    pub crc: (u64, u64),
}

impl Replay {
    /// Replay every artifact of `catalog`: load it, then decode,
    /// re-encode and checksum its file. An artifact that does not
    /// re-encode to its own bytes is an error.
    pub fn run(&mut self, catalog: &MaterializationCatalog) -> Result<()> {
        for entry in catalog.entries() {
            let sig = Signature::from_hex(&entry.signature)
                .ok_or_else(|| HelixError::codec("catalog entry signature is not hex"))?;
            let t0 = now();
            let loaded = catalog.load(sig)?;
            let t1 = now();
            black_box(loaded);
            add(&mut self.load, entry.bytes, t1 - t0);

            let bytes = std::fs::read(catalog.root().join(&entry.file))?;
            let t0 = now();
            let value = decode_value(&bytes)?;
            let t1 = now();
            let encoded = encode_value(&value);
            let t2 = now();
            let sum = crc32(black_box(&bytes));
            let t3 = now();
            black_box(sum);
            add(&mut self.decode, bytes.len() as u64, t1 - t0);
            add(&mut self.encode, encoded.len() as u64, t2 - t1);
            add(&mut self.crc, bytes.len() as u64, t3 - t2);
            if encoded != bytes {
                return Err(HelixError::codec(format!(
                    "artifact {} does not re-encode to its stored bytes",
                    entry.signature
                )));
            }
        }
        Ok(())
    }
}

fn add(acc: &mut (u64, u64), bytes: u64, nanos: u64) {
    acc.0 += bytes;
    acc.1 += nanos;
}

/// Throughput in MB/s of an accumulated (bytes, nanos) pair.
pub fn mb_per_s((bytes, nanos): (u64, u64)) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    bytes as f64 / 1e6 / (nanos as f64 / 1e9)
}

/// Peak resident set of this process (VmHWM), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:") * 1024
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(key)).and_then(|l| {
                l.trim_start_matches(key).trim().trim_end_matches("kB").trim().parse().ok()
            })
        })
        .unwrap_or(0)
}

/// Live OS threads of this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|dir| dir.count()).unwrap_or(0)
}

/// Samples this process's thread count on a thread of its own until
/// stopped (traced runs only: the solo workloads have no loop of their
/// own that could sample while the engine's workers run).
pub struct ThreadSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl ThreadSampler {
    /// Start sampling every 20 ms.
    pub fn start() -> ThreadSampler {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                max = max.max(thread_count());
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            max
        });
        ThreadSampler { stop, handle }
    }

    /// Stop and return the highest count seen (the sampler included).
    pub fn stop(self) -> usize {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked")
    }
}

/// Worker or core threads the loads may use: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
