//! Wall-clock benchmark of iterative development on HELIX.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-mix|warm-reuse|tenants-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public API for `--seconds`, checks every
//! output against a strict-serial reference, and prints one JSON object
//! as its last line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (plus a Chrome trace under `out/`) with
//! `--trace 1`. The seed fixes the change sequences and the arrival
//! schedule. Exits non-zero on any mismatch or error.

mod common;
mod metrics;
mod solo;
mod stats;
mod tenants;

use metrics::{Mode, Report, METRICS};

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the change sequences and arrival schedule.
    pub seed: u64,
    /// Length of the timed region, in seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Operations attempted and failed (errors, output mismatches,
/// refusals, drain timeouts).
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
}

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["paper-mix", "warm-reuse", "tenants-open"];

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One JSON result line: every metric of the run's modes, by name, with
/// its unit.
fn result_line(tally: &Tally, report: &Report, modes: &[Mode]) -> String {
    let metrics: Vec<String> = METRICS
        .iter()
        .filter(|m| modes.contains(&m.mode))
        .map(|m| {
            let value =
                report.get(m.name).unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    helix_obs::set_enabled(false);
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "paper-mix" => solo::paper_mix(&args, &mut report),
        "warm-reuse" => solo::warm_reuse(&args, &mut report),
        "tenants-open" => tenants::tenants_open(&args, &mut report),
        other => unreachable!("workload {other} passed validation"),
    };
    let tally = match outcome {
        Ok(tally) => tally,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            std::process::exit(1);
        }
    };
    for note in report.notes() {
        eprintln!("{note}");
    }
    let modes: &[Mode] = match (args.trace, args.workload.as_str()) {
        (false, _) => &[Mode::EndToEnd],
        (true, "tenants-open") => &[Mode::Layer, Mode::Service],
        (true, _) => &[Mode::Layer],
    };
    println!("{}", result_line(&tally, &report, modes));
    if tally.failed > 0 || tally.attempted == 0 {
        std::process::exit(1);
    }
}
