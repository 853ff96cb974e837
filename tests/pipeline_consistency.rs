//! Consistency obligations of the pipelined iteration runtime's write
//! lane (staged catalog commits):
//!
//! * **Order independence** — background writes may land in *any*
//!   interleaving (the writer races loads, restores, and releases);
//!   final catalog contents, manifest contents, and loaded bytes must be
//!   identical to the serial inline-write engine regardless.
//! * **Crash consistency** — a process killed at any point of the staged
//!   protocol (after staging, mid-drain, before the manifest commit)
//!   must recover to a consistent catalog: a parseable manifest, every
//!   referenced file present and readable, no stray temp or orphan
//!   artifacts, and accounting that matches the entries.
//! * **End-to-end** — a pipelined session's reports and catalog equal a
//!   serial session's even when the background queue is deliberately
//!   left deep across iteration boundaries.

use helix::core::{MatStrategy, Session, SessionConfig, Workflow};
use helix::storage::{encode_value, DiskProfile, MaterializationCatalog};
use helix_common::hash::Signature;
use helix_common::SplitMix64;
use helix_data::{Scalar, Value};
use proptest::prelude::*;

fn scalar(v: f64) -> Value {
    Value::Scalar(Scalar::F64(v))
}

/// Signature → (node name, value) test fixtures, `n` of them.
fn fixtures(n: usize) -> Vec<(Signature, String, Value)> {
    (0..n)
        .map(|i| {
            let name = format!("node-{i}");
            (Signature::of_str(&name), name, scalar(i as f64 * 1.5 + 0.25))
        })
        .collect()
}

/// The serial reference: inline `store_owned` in decision order.
fn serial_catalog(items: &[(Signature, String, Value)]) -> MaterializationCatalog {
    let cat = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
    for (iteration, (sig, name, value)) in items.iter().enumerate() {
        cat.store_owned(*sig, "t", name, iteration as u64, value).unwrap();
    }
    cat
}

fn entry_fingerprints(cat: &MaterializationCatalog) -> Vec<(String, u64, Vec<String>)> {
    cat.entries().iter().map(|e| (e.signature.clone(), e.bytes, e.owners().to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stage everything in decision order (as the engine's deterministic
    /// finalize sequence does), land the file writes in a *random*
    /// permutation with loads interleaved, then commit. The catalog must
    /// be indistinguishable from the serial inline-write reference.
    #[test]
    fn background_completion_order_never_changes_catalog_contents(
        seed in any::<u64>(),
        n in 2usize..10,
    ) {
        let items = fixtures(n);
        let reference = serial_catalog(&items);

        let cat = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let mut frames = Vec::new();
        for (iteration, (sig, name, value)) in items.iter().enumerate() {
            let (_, _, frame) = cat.stage_owned(*sig, "t", name, iteration as u64, value).unwrap();
            frames.push((*sig, frame));
        }
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut frames);
        for (k, (sig, frame)) in frames.iter().enumerate() {
            // Interleave loads with pending and landed writes alike: the
            // bytes served must never depend on whether the file landed.
            let probe = &items[k % items.len()];
            let (loaded, _, _) = cat.load_for(probe.0, "t").unwrap();
            prop_assert_eq!(encode_value(&loaded), encode_value(&probe.2));
            cat.complete_stage(*sig, frame).unwrap();
        }
        cat.commit_staged().unwrap();

        prop_assert_eq!(cat.pending_stages(), 0);
        prop_assert_eq!(entry_fingerprints(&cat), entry_fingerprints(&reference));
        prop_assert_eq!(cat.total_bytes(), reference.total_bytes());
        // Every artifact is durable and byte-identical to the reference.
        for (sig, _, value) in &items {
            let (got, _) = cat.load(*sig).unwrap();
            prop_assert_eq!(encode_value(&got), encode_value(value));
        }
        // The sealed manifest round-trips through a fresh process.
        let root = cat.root().to_path_buf();
        drop(cat);
        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        prop_assert_eq!(reopened.len(), items.len());
    }

    /// Kill the writer at a random point: some writes landed (in a random
    /// order), some never did, the manifest commit may or may not have
    /// happened. Reopening must always yield a consistent catalog.
    #[test]
    fn crash_at_any_point_of_the_background_drain_recovers_consistently(
        seed in any::<u64>(),
        n in 2usize..10,
        committed in prop::bool::ANY,
    ) {
        let items = fixtures(n);
        let cat = MaterializationCatalog::open_temp(DiskProfile::unthrottled()).unwrap();
        let mut frames = Vec::new();
        for (iteration, (sig, name, value)) in items.iter().enumerate() {
            let (_, _, frame) = cat.stage_owned(*sig, "t", name, iteration as u64, value).unwrap();
            frames.push((*sig, frame));
        }
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut frames);
        let landed = rng.index(n + 1); // 0..=n of the writes completed
        for (sig, frame) in frames.iter().take(landed) {
            cat.complete_stage(*sig, frame).unwrap();
        }
        if committed {
            cat.commit_staged().unwrap();
        }
        // Crash: the process dies here — nothing else is flushed.
        let root = cat.root().to_path_buf();
        drop(cat);

        let reopened = MaterializationCatalog::open(&root, DiskProfile::unthrottled()).unwrap();
        // Consistency: every surviving entry is backed by a readable,
        // CRC-clean file with the exact staged bytes.
        for entry in reopened.entries() {
            prop_assert!(root.join(&entry.file).exists());
            let sig = Signature::from_hex(&entry.signature).unwrap();
            let (value, _) = reopened.load(sig).unwrap();
            let original = items.iter().find(|(s, _, _)| *s == sig).unwrap();
            prop_assert_eq!(encode_value(&value), encode_value(&original.2));
        }
        // No crash residue: temp files swept, every artifact referenced.
        for dirent in std::fs::read_dir(&root).unwrap().flatten() {
            let name = dirent.file_name().to_string_lossy().into_owned();
            prop_assert!(!name.contains(".tmp-"), "stale temp survived: {}", name);
            if name.ends_with(".hxm") {
                prop_assert!(
                    reopened.entries().iter().any(|e| e.file == name),
                    "orphan artifact survived: {}",
                    name
                );
            }
        }
        // Accounting matches the recovered entry set exactly.
        let total: u64 = reopened.entries().iter().map(|e| e.bytes).sum();
        prop_assert_eq!(reopened.total_bytes(), total);
        // And the uncommitted-manifest case loses at most the staged
        // batch — never previously durable state (trivially true here:
        // the recovered set is a subset of what was staged and landed).
        prop_assert!(reopened.len() <= landed.max(if committed { landed } else { n }));
    }
}

/// A deep cross-iteration backlog (slow disk, many writes) drains
/// correctly and the pipelined session still matches serial exactly.
#[test]
fn deep_write_backlog_across_iterations_matches_serial() {
    let chain = |version: u64| -> Workflow {
        let mut wf = Workflow::new("backlog");
        let a = wf.source("a", 1, |_| Ok(Value::Scalar(Scalar::Text("x".repeat(4_000)))));
        let b = wf.reduce("b", a, version, move |v, _| {
            let text = match v.as_scalar()? {
                Scalar::Text(t) => t.len() as f64 * version as f64,
                other => other.as_f64().unwrap_or(0.0),
            };
            Ok(Value::Scalar(Scalar::F64(text)))
        });
        let c = wf.reduce("c", b, 1, |v, _| {
            let x = v.as_scalar()?.as_f64().unwrap_or(0.0);
            Ok(Value::Scalar(Scalar::F64(x + 1.0)))
        });
        wf.output(c);
        wf
    };
    // Slow writes (the 4 KB source takes ~2 ms to land) force the write
    // queue to stay deep while later iterations plan and load against
    // staged entries.
    let disk = DiskProfile::scaled(2_000_000, 0);
    let sequence: Vec<Workflow> = vec![chain(1), chain(1), chain(2), chain(2), chain(3)];

    let config = SessionConfig::in_memory().with_strategy(MatStrategy::Always).with_disk(disk);
    let mut serial = Session::new(config.clone().with_pipeline(false)).unwrap();
    let serial_outputs: Vec<Option<f64>> = sequence
        .iter()
        .map(|wf| serial.run(wf).unwrap().output_scalar("c").and_then(Scalar::as_f64))
        .collect();

    let mut pipelined = Session::new(config).unwrap();
    let reports: Vec<_> = sequence.iter().map(|wf| pipelined.run(wf).unwrap()).collect();
    let pipelined_outputs: Vec<Option<f64>> =
        reports.iter().map(|r| r.output_scalar("c").and_then(Scalar::as_f64)).collect();
    assert_eq!(serial_outputs, pipelined_outputs);

    pipelined.sync().unwrap();
    let sigs =
        |s: &Session| s.catalog().entries().iter().map(|e| e.signature.clone()).collect::<Vec<_>>();
    assert_eq!(sigs(&serial), sigs(&pipelined), "catalog contents diverged");
    // Every pipelined artifact is durable and loadable after the drain.
    for entry in pipelined.catalog().entries() {
        let sig = Signature::from_hex(&entry.signature).unwrap();
        let (a, _) = pipelined.catalog().load(sig).unwrap();
        let (b, _) = serial.catalog().load(sig).unwrap();
        assert_eq!(encode_value(&a), encode_value(&b), "artifact bytes diverged for {sig:?}");
    }
}
