//! The benchmark's self-test: every workload listed in `BENCHMARK.json`
//! emits every metric it names, with its unit, in both modes, and its
//! output oracle finds nothing wrong.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::{parse_json, Json};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string<'a>(json: &'a Json, key: &str) -> &'a str {
    match json.get(key) {
        Some(Json::String(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// Run one workload briefly and return its parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace"])
        .arg(if trace { "1" } else { "0" })
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).expect("the result line is JSON")
}

#[test]
fn every_listed_workload_emits_every_metric_with_its_unit() {
    let bench = benchmark_json();
    for workload in array(&bench, "workloads") {
        let name = string(workload, "name");
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(name, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}: {result:?}");
            assert_eq!(result.get("failed"), Some(&Json::Int(0)), "{name}: failed_frac is 0");
            assert!(matches!(result.get("attempted"), Some(Json::Int(n)) if *n >= 1));
            let metrics = result.get("metrics").expect("metrics");
            let listed = array(&bench, key);
            match metrics {
                Json::Object(pairs) => assert_eq!(pairs.len(), listed.len(), "{name} {key}"),
                other => panic!("metrics is not an object: {other:?}"),
            }
            for metric in listed {
                let metric_name = string(metric, "name");
                let got = metrics
                    .get(metric_name)
                    .unwrap_or_else(|| panic!("{name} does not emit {metric_name}"));
                assert_eq!(string(got, "unit"), string(metric, "unit"), "{name} {metric_name}");
                assert!(
                    matches!(got.get("value"), Some(Json::Int(_) | Json::Float(_))),
                    "{name} {metric_name} has no numeric value"
                );
            }
        }
    }
}
