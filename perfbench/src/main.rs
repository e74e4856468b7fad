//! `perfbench` — the end-to-end benchmark of the DEP+BURST reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|replay|fleet-flat|fleet-storm|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed-loop batch job with a single driver: it is
//! set up [`driver::SETUPS`] times, then passes run back to back for the
//! given seconds on as many pool workers as the machine has cores. The
//! run prints a table of every figure it measured, then, as its last
//! line, one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics traced (`--trace 1`). It exits nonzero when any
//! output check failed. See `perfbench/README.md` for the workloads and
//! metric definitions.

mod driver;
mod fleet;
mod paper;
mod record;
mod tempdir;
mod workload;
mod wrappers;

use std::process::ExitCode;

use driver::Report;
use record::Metric;
use workload::{Sizes, Workload};

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper", "replay", "fleet-flat", "fleet-storm"];

/// Builds workload `name` at `sizes`.
pub fn make(name: &str, sizes: Sizes, seed: u64, jobs: usize) -> Option<Box<dyn Workload>> {
    let s = sizes;
    let grid = paper::Grid::new(s.paper_scale, seed, s.paper_seeds);
    Some(match name {
        "paper" => {
            let manager = paper::Grid::new(s.manager_scale, seed, s.manager_seeds);
            let warmup = (
                paper::Grid::new(s.warmup_scale, seed, s.paper_seeds),
                paper::Grid::new(s.warmup_scale, seed, s.manager_seeds),
            );
            Box::new(paper::Paper::new(grid, manager, warmup, jobs))
        }
        "replay" => Box::new(paper::Replay::new(grid, jobs)),
        "fleet-flat" => Box::new(fleet::Fleet::new(
            "fleet-flat",
            fleet::flat_config(s.fleet_machines, s.flat_rounds, s.fleet_scale, seed),
            jobs,
        )),
        "fleet-storm" => Box::new(fleet::Fleet::new(
            "fleet-storm",
            fleet::storm_config(s.fleet_machines, s.storm_rounds, s.fleet_scale, seed),
            jobs,
        )),
        _ => return None,
    })
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?} or all)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The program reads `DEPBURST_*` variables deep inside its layers (cache
/// persistence, sampling, storage faults, invariant monitoring, retries,
/// point tracing). Any of them would change what is measured, so the
/// benchmark refuses to run under them.
fn environment_overrides() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DEPBURST_"))
        .collect();
    set.sort();
    set
}

/// A JSON number with all its digits; non-finite values become `null`
/// (and make the run incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn print_table(report: &Report, jobs: usize) {
    println!(
        "== {} (jobs {jobs}; {} attempted, {} failed; {} passes, wall_s quartiles {:.4} .. {:.4})",
        report.workload,
        report.attempted,
        report.failed,
        report.passes,
        report.wall_quartiles.0,
        report.wall_quartiles.1
    );
    for m in &report.table {
        println!("  {:<24} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn result_line(
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let overrides = environment_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: they change what the program does",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }

    let jobs = harness::pool::default_jobs();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports = Vec::new();
    for name in &names {
        let mut w = make(name, Sizes::BENCH, args.seed, jobs).expect("workload name checked");
        let report = driver::run(w.as_mut(), args.seconds, args.trace);
        print_table(&report, jobs);
        reports.push(report);
    }

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let correct = reports.iter().all(Report::correct);
    let single = reports.len() == 1;
    let metrics: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let key = if single {
                    m.name.to_owned()
                } else {
                    format!("{}.{}", r.workload, m.name)
                };
                (key, m)
            })
        })
        .collect();
    println!("{}", result_line(attempted, failed, correct, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
