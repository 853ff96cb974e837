//! Cross-iteration pipelining bench: serial engine vs the pipelined
//! iteration runtime on the census + genomics iterate workloads.
//!
//! ```text
//! pipeline [--iterations K] [--workers W] [--seed S] [--unthrottled]
//!          [--json PATH] [--check] [--min-speedup X]
//! ```
//!
//! Writes machine-readable results to `BENCH_pipeline.json` (or `--json
//! PATH`). `--check` exits non-zero unless byte-identity held (the driver
//! errors on divergence) and the combined speedup reaches `--min-speedup`
//! (default 1.05 under `--check` — conservative enough for a 1-core CI
//! runner). Each workload reports the raw hidden time, the unclamped
//! overlap ratio and the residual beside the speedup.

use helix_bench::pipeline::{run_pipeline_bench, PipelineBenchConfig};
use helix_storage::DiskProfile;

fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    args.iter().position(|a| a == name).and_then(|ix| args.get(ix + 1)).and_then(|v| {
        v.parse()
            .map_err(|_| {
                eprintln!("invalid value for {name}: {v}");
                std::process::exit(2);
            })
            .ok()
    })
}

fn parse_f64(args: &[String], name: &str) -> Option<f64> {
    args.iter().position(|a| a == name).and_then(|ix| args.get(ix + 1)).and_then(|v| {
        v.parse()
            .map_err(|_| {
                eprintln!("invalid value for {name}: {v}");
                std::process::exit(2);
            })
            .ok()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = PipelineBenchConfig::default_run();
    if let Some(k) = parse_flag(&args, "--iterations") {
        config.iterations = (k as usize).max(2);
    }
    if let Some(w) = parse_flag(&args, "--workers") {
        config.workers = w as usize;
    }
    if let Some(s) = parse_flag(&args, "--seed") {
        config.seed = s;
    }
    if args.iter().any(|a| a == "--unthrottled") {
        config.disk = DiskProfile::unthrottled();
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|ix| args.get(ix + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let report = match run_pipeline_bench(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pipeline bench failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());

    match serde_json::to_string_pretty(&report) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&json_path, text) {
                eprintln!("warning: cannot write {json_path}: {e}");
            } else {
                println!("wrote {json_path}");
            }
        }
        Err(e) => eprintln!("warning: cannot serialize report: {e}"),
    }

    // With HELIX_TRACE=<path> in the environment, print the compact
    // per-track timeline and export the run's spans as Chrome
    // trace_event JSON (Perfetto-loadable).
    if helix_obs::tracing_enabled() {
        let (events, dropped) = helix_obs::drain_spans();
        print!("{}", helix_obs::render_timeline(&events, dropped));
        if let Some(path) = helix_obs::trace_env_path() {
            match helix_obs::write_trace(&path, &events, dropped) {
                Ok(()) => println!("wrote trace {}", path.display()),
                Err(e) => eprintln!("warning: cannot write HELIX_TRACE file: {e}"),
            }
        }
    }

    if args.iter().any(|a| a == "--check") {
        let min_speedup = parse_f64(&args, "--min-speedup").unwrap_or(1.05);
        if report.combined_speedup < min_speedup {
            eprintln!(
                "CHECK FAILED: combined speedup {:.2}x below the {min_speedup:.2}x floor",
                report.combined_speedup
            );
            std::process::exit(1);
        }
        println!(
            "checks passed: byte-identical outputs/catalogs, combined speedup {:.2}x >= {min_speedup:.2}x",
            report.combined_speedup
        );
    }
}
