//! Regenerate every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! paper-figures [--quick] [--json DIR] [exp ...]
//!   exp ∈ {table1, table2, fig5, fig6, fig7a, fig7b, fig8, fig9, fig10, all}
//! ```
//!
//! `--quick` runs the small workload configurations (CI-sized);
//! `--json DIR` additionally writes machine-readable results per figure.
//! The exit status is nonzero when any requested experiment failed.

use helix_bench::experiments::{self, ExperimentConfig};
use helix_bench::report;
use std::io::Write;

fn write_json<T: serde::Serialize>(dir: Option<&str>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir}: {e}");
        return;
    }
    let path = format!("{dir}/{name}.json");
    match serde_json::to_string_pretty(value) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: cannot write {path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_dir: Option<String> =
        args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();
    let mut requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| Some(a.as_str()) != json_dir.as_deref())
        .cloned()
        .collect();
    if requested.is_empty() || requested.iter().any(|r| r == "all") {
        requested = ["table1", "table2", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let cfg = if quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };

    // Warm up the process (page cache, allocator) with a throwaway run at
    // full workload scale so the first measured iteration is not inflated
    // by cold-start effects.
    {
        let make = || {
            let mut v = experiments::paper_workloads(&cfg);
            v.swap_remove(0)
        };
        let _ = experiments::run_system(make, experiments::SystemKind::HelixNm, &cfg);
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "HELIX reproduction — paper figure harness ({} mode, {} workers, disk {:?})",
        if quick { "quick" } else { "full" },
        cfg.workers,
        cfg.disk
    )
    .ok();

    let mut failures = 0usize;
    // fig5/fig6 share the same underlying runs.
    let needs_fig5 = requested.iter().any(|r| r == "fig5" || r == "fig6");
    let fig5 = if needs_fig5 {
        match experiments::fig5_fig6(&cfg) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("fig5/fig6 failed: {e}");
                failures += 1;
                None
            }
        }
    } else {
        None
    };

    for exp in &requested {
        let result: Result<String, helix_common::HelixError> = match exp.as_str() {
            "table1" => Ok(report::render_table1()),
            "table2" => Ok(report::render_table2()),
            "fig5" => Ok(fig5.as_ref().map(report::render_fig5).unwrap_or_default()),
            "fig6" => Ok(fig5.as_ref().map(report::render_fig6).unwrap_or_default()),
            "fig7a" => experiments::fig7a(&cfg).map(|f| {
                write_json(json_dir.as_deref(), "fig7a", &f);
                report::render_fig7a(&f)
            }),
            "fig7b" => experiments::fig7b(&cfg).map(|f| {
                write_json(json_dir.as_deref(), "fig7b", &f);
                report::render_fig7b(&f)
            }),
            "fig8" => experiments::fig8(&cfg).map(|f| {
                write_json(json_dir.as_deref(), "fig8", &f);
                report::render_fig8(&f)
            }),
            "fig9" => experiments::fig9(&cfg).map(|f| {
                write_json(json_dir.as_deref(), "fig9", &f);
                report::render_fig9(&f)
            }),
            "fig10" => experiments::fig10(&cfg).map(|f| {
                write_json(json_dir.as_deref(), "fig10", &f);
                report::render_fig10(&f)
            }),
            other => {
                eprintln!("unknown experiment `{other}` (skipping)");
                continue;
            }
        };
        match result {
            Ok(text) => {
                writeln!(out, "{text}").ok();
            }
            Err(e) => {
                eprintln!("{exp} failed: {e}");
                failures += 1;
            }
        }
    }
    if let Some(f) = &fig5 {
        write_json(json_dir.as_deref(), "fig5", f);
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
