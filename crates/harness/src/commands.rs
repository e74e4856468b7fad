//! The `depburst` command table: every table, figure, extension and
//! exploration command of the harness as a subcommand of one binary.
//!
//! `depburst <subcommand> [args...]`. Each [`Command`] names its
//! subcommand, its positional usage, the flags it takes beyond the
//! shared ones of [`cli`], and its body. [`main`] looks the subcommand up
//! and runs the body under [`cli::main_with_flags`], so the shared flags,
//! the failure report (`results/<report>_failures.json`) and the exit
//! codes (0 ok, 1 usage or internal error, 2 point failures) are the
//! same for every command. `torture` alone parses its own arguments: it
//! builds a fresh execution context per crash point, and resolves only
//! the environment half of the settings table. An unknown or missing
//! subcommand is a usage error (exit 1) that lists every subcommand and
//! the shared settings.
//!
//! Positional arguments are forgiving: one that is absent or does not
//! parse falls back to the command's default.

use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::str::FromStr;

use depburst::{Coop, CriticalityStack, Dep, DvfsPredictor, MCrit};
use dvfs_trace::{ExecutionTrace, Freq, TraceSummary};
use simx::fleet::ChaosConfig;
use simx::{MachineConfig, ThermalConfig};

use crate::cli::{self, CliResult};
use crate::experiments::fig3::Direction;
use crate::experiments::fleet::FleetConfig;
use crate::experiments::thermal::ThermalConfigExp;
use crate::experiments::torture::TortureConfig;
use crate::experiments::{
    ablation, faults, fig1, fig3, fig4, fig6, fig7, fleet, percore, sampling_error, table1,
    table2, thermal, torture,
};
use crate::fuzz;
use crate::resilience::{FailureCause, PointFailure};
use crate::run::{try_run_benchmark, ExecCtx, RunConfig};

/// What a standalone command returns: its own exit code, or an error
/// (exit 1).
pub type ExitResult = Result<ExitCode, Box<dyn Error>>;

/// How a command runs.
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// On the execution context the shared flags describe, through
    /// [`cli::main_with_flags`].
    Sweep(fn(&ExecCtx, &[String]) -> CliResult),
    /// On the raw arguments and environment; the body builds its own
    /// contexts and picks its own exit code.
    Standalone(fn(&[String], &cli::Env) -> ExitResult),
}

/// One `depburst` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The subcommand name.
    pub name: &'static str,
    /// The stem of the failure report: `results/<report>_failures.json`.
    pub report: &'static str,
    /// Positional usage, for the subcommand listing.
    pub usage: &'static str,
    /// The command's own flags, beyond the shared ones.
    pub flags: &'static [&'static str],
    /// What the command runs.
    pub body: Body,
}

const fn sweep(
    name: &'static str,
    usage: &'static str,
    flags: &'static [&'static str],
    body: fn(&ExecCtx, &[String]) -> CliResult,
) -> Command {
    Command {
        name,
        report: name,
        usage,
        flags,
        body: Body::Sweep(body),
    }
}

/// An exploration command over the whole stack; these share one failure
/// report, `results/dvfs-lab_failures.json`.
const fn lab(
    name: &'static str,
    usage: &'static str,
    body: fn(&ExecCtx, &[String]) -> CliResult,
) -> Command {
    Command {
        name,
        report: "dvfs-lab",
        usage,
        flags: &[],
        body: Body::Sweep(body),
    }
}

const FLEET_FLAGS: &[&str] = &[
    "--shards",
    "--chaos",
    "--chaos-seed",
    "--policy",
    "--budget",
    "--slo",
    "--bench",
    "--regions",
    "--hierarchy",
    "--thermal",
    "--brownout",
    "--region-crash",
    "--sensor-stuck",
];

const THERMAL_FLAGS: &[&str] = &[
    "--shards",
    "--regions",
    "--brownout",
    "--region-crash",
    "--sensor-stuck",
];

const TORTURE_FLAGS: &[&str] = &[
    "--dense",
    "--stride",
    "--max-points",
    "--bitflips",
    "--soak",
    "--storage-seed",
];

/// Every subcommand, in listing order.
pub const COMMANDS: &[Command] = &[
    sweep("table1", "[scale]", &[], cmd_table1),
    sweep("table2", "", &[], cmd_table2),
    sweep("fig1", "[scale] [seeds]", &[], cmd_fig1),
    sweep("fig3", "[low-to-high|high-to-low|both] [scale] [seeds]", &[], cmd_fig3),
    sweep("fig4", "[scale] [seeds]", &[], cmd_fig4),
    sweep("fig6", "[threshold-percent] [scale] [seed]", &[], cmd_fig6),
    sweep("fig7", "[threshold-percent] [scale] [seed] [step-mhz]", &[], cmd_fig7),
    sweep("ablation", "[scale] [seed]", &[], cmd_ablation),
    sweep("percore", "[scale] [seed] [benchmarks...]", &[], cmd_percore),
    sweep("faults", "[scale] [seed] [threshold-percent]", &["--panic-point"], cmd_faults),
    sweep("sampling_error", "[scale] [seeds]", &[], cmd_sampling_error),
    sweep("fleet", "[machines] [rounds] [scale] [seed]", FLEET_FLAGS, cmd_fleet),
    sweep("thermal", "[machines] [rounds] [scale] [seed]", THERMAL_FLAGS, cmd_thermal),
    sweep("fuzz", "", &["--seeds", "--seed", "--shrink", "--fleet"], cmd_fuzz),
    Command {
        name: "torture",
        report: "torture",
        usage: "[scale] [seed]",
        flags: TORTURE_FLAGS,
        body: Body::Standalone(cmd_torture),
    },
    lab("bench", "", cmd_bench),
    lab("run", "<bench> <ghz> [scale]", cmd_run),
    lab("record", "<bench> <ghz> <out.json> [scale]", cmd_record),
    lab("predict", "<trace.json> <ghz> [model]", cmd_predict),
    lab("crit", "<trace.json>", cmd_crit),
    lab("manage", "<bench> <slowdown%> [scale]", cmd_manage),
];

/// Runs `depburst` on `argv` (the arguments after the program name) and
/// `env` (the `DEPBURST_*` variables, see [`cli::SETTINGS`]): the first
/// argument names the subcommand, the rest are its arguments.
pub fn main(argv: &[String], env: &cli::Env) -> ExitCode {
    let (cmd, args) = match lookup(argv) {
        Ok(found) => found,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.body {
        Body::Sweep(body) => cli::main_with_flags(cmd.report, cmd.flags, args, env, body),
        Body::Standalone(body) => body(args, env).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }),
    }
}

/// Splits `argv` into its command and that command's arguments; the
/// error for an unknown or missing subcommand lists every subcommand.
fn lookup(argv: &[String]) -> Result<(&'static Command, &[String]), String> {
    let (name, args) = argv.split_first().ok_or_else(|| usage("missing subcommand"))?;
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .map(|c| (c, args))
        .ok_or_else(|| usage(&format!("unknown subcommand {name:?}")))
}

fn usage(problem: &str) -> String {
    let mut s = format!("{problem}\nusage: depburst <subcommand> [args...]; subcommands:");
    for c in COMMANDS {
        let mut line = format!("\n  {:<15} {}", c.name, c.usage);
        if !c.flags.is_empty() {
            let _ = write!(line, " [{}]", c.flags.join(", "));
        }
        s.push_str(line.trim_end());
    }
    s.push('\n');
    s.push_str(&cli::settings_usage());
    s
}

/// Positional argument `i` as a `T`, or `default` when it is absent or
/// does not parse.
fn pos<T: FromStr>(args: &[String], i: usize, default: T) -> T {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Seeds `1..=n`.
fn seeds(n: usize) -> Vec<u64> {
    (1..=n as u64).collect()
}

/// Table I: per-benchmark execution and GC time at 1 GHz.
fn cmd_table1(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let scale: f64 = pos(args, 0, 1.0);
    eprintln!("running all benchmarks at 1 GHz, scale {scale} ...");
    let rows = table1::collect_with(ctx, scale)?;
    println!("{}", table1::render(&rows));
    println!("{}", serde_json::to_string_pretty(&rows)?);
    Ok(())
}

/// Table II: the simulated system parameters. It runs no points, so it
/// always exits 0.
fn cmd_table2(_ctx: &ExecCtx, _args: &[String]) -> CliResult {
    println!("{}", table2::render(&MachineConfig::haswell_quad()));
    Ok(())
}

/// Figure 1: M+CRIT vs DEP+BURST headline errors.
fn cmd_fig1(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let scale: f64 = pos(args, 0, 1.0);
    let nseeds: usize = pos(args, 1, 1);
    eprintln!("fig 1: scale {scale}, {nseeds} seed(s)...");
    let (rows, _cells) = fig1::run_with(ctx, scale, &seeds(nseeds))?;
    println!("{}", fig1::render(&rows));
    println!("{}", serde_json::to_string_pretty(&rows)?);
    Ok(())
}

/// Figure 3: per-benchmark prediction errors, in one or both directions.
fn cmd_fig3(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let which = args.first().map(String::as_str).unwrap_or("both");
    let scale: f64 = pos(args, 1, 1.0);
    let nseeds: usize = pos(args, 2, 1);
    let seeds = seeds(nseeds);
    let mut all = Vec::new();
    if which != "high-to-low" {
        eprintln!("fig 3(a): base 1 GHz, scale {scale}, {nseeds} seed(s)...");
        let cells = fig3::collect_with(ctx, Direction::LowToHigh, scale, &seeds)?;
        for t in [2.0, 3.0, 4.0] {
            println!("{}", fig3::render(&cells, t));
        }
        all.extend(cells);
    }
    if which != "low-to-high" {
        eprintln!("fig 3(b): base 4 GHz, scale {scale}, {nseeds} seed(s)...");
        let cells = fig3::collect_with(ctx, Direction::HighToLow, scale, &seeds)?;
        for t in [3.0, 2.0, 1.0] {
            println!("{}", fig3::render(&cells, t));
        }
        all.extend(cells);
    }
    println!("{}", serde_json::to_string_pretty(&all)?);
    Ok(())
}

/// Figure 4: per-epoch vs across-epoch CTP, both directions.
fn cmd_fig4(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let scale: f64 = pos(args, 0, 1.0);
    let nseeds: usize = pos(args, 1, 1);
    let seeds = seeds(nseeds);
    let mut all = Vec::new();
    for direction in [Direction::LowToHigh, Direction::HighToLow] {
        eprintln!("fig 4 {direction:?}: scale {scale}, {nseeds} seed(s)...");
        let rows = fig4::collect_with(ctx, direction, scale, &seeds)?;
        println!("{}", fig4::render(&rows));
        all.extend(rows);
    }
    println!("{}", serde_json::to_string_pretty(&all)?);
    Ok(())
}

/// Figure 6: energy-manager slowdown and savings; with no threshold, at
/// both 5% and 10%.
fn cmd_fig6(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let thresholds: Vec<f64> = match args.first().and_then(|s| s.parse::<f64>().ok()) {
        Some(t) => vec![t / 100.0],
        None => vec![0.05, 0.10],
    };
    let scale: f64 = pos(args, 1, 1.0);
    let seed: u64 = pos(args, 2, 1);
    let mut all = Vec::new();
    for t in thresholds {
        eprintln!("fig 6 at {:.0}% threshold, scale {scale}...", t * 100.0);
        let rows = fig6::collect_with(ctx, t, scale, seed)?;
        println!("{}", fig6::render(&rows));
        all.extend(rows);
    }
    println!("{}", serde_json::to_string_pretty(&all)?);
    Ok(())
}

/// Figure 7: dynamic manager vs static-optimal oracle.
fn cmd_fig7(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let threshold: f64 = pos(args, 0, 10.0) / 100.0;
    let scale: f64 = pos(args, 1, 1.0);
    let seed: u64 = pos(args, 2, 1);
    let step: u32 = pos(args, 3, 250);
    eprintln!(
        "fig 7 at {:.0}% threshold, scale {scale}, sweep step {step} MHz...",
        threshold * 100.0
    );
    let rows = fig7::collect_with(ctx, threshold, scale, seed, step)?;
    println!("{}", fig7::render(&rows));
    println!("{}", serde_json::to_string_pretty(&rows)?);
    Ok(())
}

/// Ablations: DEP with each per-thread scaling model, the energy
/// manager's hold-off/quantum sensitivity, and the offline regression
/// predictor.
fn cmd_ablation(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let scale: f64 = pos(args, 0, 0.4);
    let seed: u64 = pos(args, 1, 1);
    eprintln!("ablation 1/2: DEP per-thread model, scale {scale}...");
    let rows = ablation::model_ablation_with(ctx, scale, seed)?;
    println!("{}", ablation::render_model_ablation(&rows));
    eprintln!("ablation 2/3: manager hold-off/quantum sweep...");
    let sweep = ablation::manager_sweep_with(ctx, "xalan", scale, seed)?;
    println!("{}", ablation::render_manager_sweep("xalan", &sweep));
    eprintln!("ablation 3/3: offline regression, leave-one-benchmark-out...");
    let reg = ablation::regression_ablation_with(ctx, scale, seed)?;
    println!("{}", ablation::render_regression(&reg));
    println!("{}", serde_json::to_string_pretty(&(rows, sweep, reg))?);
    Ok(())
}

/// Per-core DVFS with application/service isolation (the paper's stated
/// future work, in the style of Sartor et al. \[35\]).
fn cmd_percore(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let scale: f64 = pos(args, 0, 0.4);
    let seed: u64 = pos(args, 1, 1);
    let names: Vec<&str> = if args.len() > 2 {
        args[2..].iter().map(String::as_str).collect()
    } else {
        vec!["xalan", "lusearch", "sunflow"]
    };
    let mut all = Vec::new();
    for name in names {
        let bench =
            dacapo_sim::benchmark(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
        eprintln!("per-core study: {name}, scale {scale}...");
        let rows = percore::collect_with(ctx, bench, scale, seed)?;
        println!("{}", percore::render(&rows));
        all.extend(rows);
    }
    println!("{}", serde_json::to_string_pretty(&all)?);
    Ok(())
}

/// The fault-injection sweep: predictor accuracy and hardened-manager
/// degradation under each fault class × intensity; writes
/// `results/faults.json`.
///
/// `--panic-point P` appends a seeded [`simx::FaultClass::PanicPoint`]
/// cell per benchmark that panics inside point evaluation with
/// probability `P`, exercising panic isolation end to end: the other
/// cells complete, the dead cells land in `results/faults_failures.json`,
/// and the process exits 2.
fn cmd_faults(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let panic_point = cli::take_intensity(&mut args, "--panic-point")?;
    let scale: f64 = pos(&args, 0, 0.05);
    let seed: u64 = pos(&args, 1, 1);
    let threshold: f64 = pos(&args, 2, 10.0) / 100.0;
    let intensities = [0.1, 0.25, 0.5, 1.0];
    eprintln!(
        "fault sweep at scale {scale}, seed {seed}, threshold {:.0}%...",
        threshold * 100.0
    );
    let rows = faults::collect_with(ctx, scale, seed, threshold, &intensities, panic_point)?;
    println!("{}", faults::render(&rows));
    let json = serde_json::to_string_pretty(&rows)?;
    fs::create_dir_all("results")?;
    fs::write("results/faults.json", &json)?;
    eprintln!("wrote results/faults.json ({} rows)", rows.len());
    Ok(())
}

/// The sampled-vs-exact validation sweep: the sampled tier's
/// extrapolation error across every workload × frequency, written to
/// `results/sampling_error.{txt,json}` (the JSON feeds the CI accuracy
/// gate). `--sampling` here selects the configuration under test
/// (default: the default `SamplingConfig`); the exact arm always runs
/// exactly.
fn cmd_sampling_error(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let scale: f64 = pos(args, 0, 1.0);
    let nseeds: usize = pos(args, 1, 1);
    let cfg = ctx.sampling.unwrap_or_default();
    eprintln!(
        "sampling error: scale {scale}, {nseeds} seed(s), probe {} measure {}...",
        cfg.probe_fraction, cfg.measure_fraction
    );
    let report = sampling_error::collect_with(ctx, scale, &seeds(nseeds), &cfg)?;
    let rendered = sampling_error::render(&report);
    print!("{rendered}");
    fs::create_dir_all("results")?;
    fs::write("results/sampling_error.txt", &rendered)?;
    fs::write(
        "results/sampling_error.json",
        serde_json::to_string_pretty(&report)?,
    )?;
    eprintln!("wrote results/sampling_error.txt and results/sampling_error.json");
    Ok(())
}

/// The fleet-scale DVFS governor simulation under a seeded chaos
/// schedule; writes `results/fleet.json`.
///
/// `--chaos I` sets every legacy chaos class (machine crash/restart,
/// telemetry dropout, stale harvest, governor partition, slow links) to
/// intensity `I`; `--chaos-seed` decouples the chaos schedule from the
/// workload seed. The thermal/power-integrity classes are opted into one
/// by one (`--brownout`, `--region-crash`, `--sensor-stuck`) so legacy
/// invocations stay byte-identical. `--thermal on` arms the per-machine
/// RC thermal model, throttle ladder and overshoot breaker;
/// `--regions`/`--hierarchy` shape the governor topology. Crashed rounds
/// are partial by design — machines shed traffic and report it — so
/// chaos alone never makes the process exit nonzero.
fn cmd_fleet(ctx: &ExecCtx, args: &[String]) -> CliResult {
    cli::reject_sampling(
        ctx,
        "the fleet characterizes machines from full two-point runs; \
         the sampled tier applies to the point pipeline only",
    )?;
    let mut args = args.to_vec();
    let shards = cli::take_count(&mut args, "--shards")?;
    let chaos = cli::take_intensity(&mut args, "--chaos")?;
    let chaos_seed = cli::take_value(&mut args, "--chaos-seed")?;
    let policy = cli::take_flag(&mut args, "--policy")?;
    let budget = cli::take_flag(&mut args, "--budget")?;
    let slo = cli::take_flag(&mut args, "--slo")?;
    let bench = cli::take_flag(&mut args, "--bench")?;
    let regions = cli::take_count(&mut args, "--regions")?;
    let hierarchy = cli::take_switch(&mut args, "--hierarchy")?;
    let thermal = cli::take_switch(&mut args, "--thermal")?;
    let brownout = cli::take_intensity(&mut args, "--brownout")?;
    let region_crash = cli::take_intensity(&mut args, "--region-crash")?;
    let sensor_stuck = cli::take_intensity(&mut args, "--sensor-stuck")?;

    let machines: usize = pos(&args, 0, 8);
    let rounds: usize = pos(&args, 1, 120);
    let scale: f64 = pos(&args, 2, 0.05);
    let seed: u64 = pos(&args, 3, 1);
    let shards = shards.unwrap_or(machines.clamp(1, 4));
    let intensity = chaos.unwrap_or(0.0);
    let chaos_seed: u64 = chaos_seed.unwrap_or(seed);

    let mut config = FleetConfig::new(machines, shards, rounds, scale, seed);
    config.chaos = ChaosConfig::uniform(intensity, chaos_seed);
    config.chaos.brownout = brownout.unwrap_or(0.0);
    config.chaos.aggregator_crash = region_crash.unwrap_or(0.0);
    config.chaos.sensor_stuck = sensor_stuck.unwrap_or(0.0);
    config.hierarchy = hierarchy;
    if thermal {
        config.thermal = ThermalConfig::datacenter(chaos_seed);
    }
    if let Some(regions) = regions {
        config.regions = regions;
    }
    config.sabotage = ctx.sabotage;
    if let Some(name) = policy {
        config.policy = energyx::GovernorPolicy::from_name(&name).ok_or_else(|| {
            format!("unknown --policy {name:?} (want oracle, depburst or naive)")
        })?;
    }
    if let Some(v) = budget {
        config.budget_w = v
            .parse::<f64>()
            .ok()
            .filter(|w| *w >= 0.0)
            .ok_or_else(|| format!("invalid --budget value {v:?}"))?;
    }
    if let Some(v) = slo {
        config.slo_factor = v
            .parse::<f64>()
            .ok()
            .filter(|f| *f >= 1.0)
            .ok_or_else(|| format!("invalid --slo value {v:?} (want >= 1)"))?;
    }
    if let Some(name) = bench {
        let b = dacapo_sim::benchmark(&name).ok_or_else(|| format!("unknown --bench {name:?}"))?;
        config.benches = vec![b];
    }

    eprintln!(
        "fleet: {machines} machines / {shards} shards, {rounds} rounds, \
         chaos {intensity} (seed {chaos_seed}), policy {}...",
        config.policy
    );
    let outcome = fleet::run_with(ctx, &config)?;
    print!("{}", fleet::render(&outcome.report));
    fs::create_dir_all("results")?;
    let json = serde_json::to_string_pretty(&outcome.report)?;
    fs::write("results/fleet.json", &json)?;
    eprintln!(
        "wrote results/fleet.json ({} machines)",
        outcome.report.machines.len()
    );
    Ok(())
}

/// The thermal & power-integrity experiment: the 2×2 matrix of (flat vs
/// hierarchical governance) × (calm vs brownout/region-crash storm) with
/// the per-machine RC thermal model armed; writes `results/thermal.json`.
fn cmd_thermal(ctx: &ExecCtx, args: &[String]) -> CliResult {
    cli::reject_sampling(
        ctx,
        "the thermal matrix characterizes machines from full two-point \
         runs; the sampled tier applies to the point pipeline only",
    )?;
    let mut args = args.to_vec();
    let shards = cli::take_count(&mut args, "--shards")?;
    let regions = cli::take_count(&mut args, "--regions")?;
    let brownout = cli::take_intensity(&mut args, "--brownout")?;
    let region_crash = cli::take_intensity(&mut args, "--region-crash")?;
    let sensor_stuck = cli::take_intensity(&mut args, "--sensor-stuck")?;

    let machines: usize = pos(&args, 0, 12);
    let rounds: usize = pos(&args, 1, 160);
    let scale: f64 = pos(&args, 2, 0.02);
    let seed: u64 = pos(&args, 3, 1);
    let mut exp = ThermalConfigExp::new(machines, rounds, scale, seed);
    exp.shards = shards.unwrap_or(exp.shards);
    exp.regions = regions.unwrap_or(exp.regions);
    exp.brownout = brownout.unwrap_or(exp.brownout);
    exp.aggregator_crash = region_crash.unwrap_or(exp.aggregator_crash);
    exp.sensor_stuck = sensor_stuck.unwrap_or(exp.sensor_stuck);

    eprintln!(
        "thermal: {machines} machines / {} shards / {} regions, {rounds} rounds × 4 \
         scenarios (seed {seed})...",
        exp.shards, exp.regions
    );
    let report = thermal::run_with(ctx, &exp)?;
    print!("{}", thermal::render(&report));
    fs::create_dir_all("results")?;
    let json = serde_json::to_string_pretty(&report)?;
    fs::write("results/thermal.json", &json)?;
    eprintln!("wrote results/thermal.json ({} scenarios)", report.scenarios.len());
    Ok(())
}

/// Seeded structure-aware fuzzing under the full invariant monitor, with
/// shrinking: `--seeds N` cases (default 25) from campaign seed
/// `--seed S` (default 1); `--shrink` reduces every violating case to a
/// minimal reproducer; `--fleet` switches to whole-fleet cases checked
/// against the fleet invariants. Campaigns are byte-for-byte
/// reproducible. Violations are point failures
/// (`results/fuzz_failures.json`, exit 2) carrying the shrunk
/// reproducer's JSON. The test-only sabotage hook
/// (`DEPBURST_BREAK_INVARIANT`) weakens one check so it fires on healthy
/// data.
fn cmd_fuzz(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let cases: u64 = cli::take_value(&mut args, "--seeds")?.unwrap_or(25);
    let campaign_seed: u64 = cli::take_value(&mut args, "--seed")?.unwrap_or(1);
    let shrink = args.iter().any(|a| a == "--shrink");
    let fleet_tier = args.iter().any(|a| a == "--fleet");
    let rest: Vec<&String> = args
        .iter()
        .filter(|a| *a != "--shrink" && *a != "--fleet")
        .collect();
    if !rest.is_empty() {
        return Err(format!("unexpected arguments: {rest:?}").into());
    }
    let sabotage = ctx.sabotage;

    println!(
        "fuzz campaign: seed {campaign_seed}, {cases} case(s), shrink={shrink}, tier={}",
        if fleet_tier { "fleet" } else { "point" }
    );
    if let Some(inv) = sabotage {
        println!("sabotage hook armed: {} deliberately weakened", inv.name());
    }
    // Both tiers reduce to rows of (case index, the summary printed when
    // the case passes, its violation, the shrunk reproducer's JSON).
    let (kind, rows) = if fleet_tier {
        let rows = fuzz::run_fleet_campaign(campaign_seed, cases, shrink, sabotage)
            .into_iter()
            .map(|f| {
                let c = &f.case;
                let ok = format!(
                    "{}m/{}r {} {} chaos {}/{}/{}/{}",
                    c.machines,
                    c.regions,
                    if c.hierarchy { "hier" } else { "flat" },
                    if c.thermal { "thermal" } else { "cold" },
                    c.chaos_milli,
                    c.brownout_milli,
                    c.aggregator_milli,
                    c.sensor_milli,
                );
                let shrunk = f.shrunk.as_ref().map(serde_json::to_string).transpose()?;
                Ok((f.index, ok, f.violation, shrunk))
            })
            .collect::<Result<Vec<_>, serde_json::Error>>()?;
        ("fleet fuzz case", rows)
    } else {
        let rows = fuzz::run_campaign(campaign_seed, cases, shrink, sabotage)
            .into_iter()
            .map(|f| {
                let ok = format!("{} @ scale {}", f.case.bench, f.case.scale());
                let shrunk = f.shrunk.as_ref().map(serde_json::to_string).transpose()?;
                Ok((f.index, ok, f.violation, shrunk))
            })
            .collect::<Result<Vec<_>, serde_json::Error>>()?;
        ("fuzz case", rows)
    };
    let mut violations = 0usize;
    for (index, ok, violation, shrunk) in &rows {
        let Some(v) = violation else {
            println!("case {index:>3}: ok       {ok}");
            continue;
        };
        violations += 1;
        println!("case {index:>3}: VIOLATION [{}] {}", v.invariant, v.detail);
        let mut detail = format!("[{}] {}", v.invariant, v.detail);
        if let Some(json) = shrunk {
            println!("          shrunk reproducer: {json}");
            detail.push_str(&format!("; shrunk reproducer: {json}"));
        }
        ctx.record_failure(PointFailure {
            label: format!("{kind} {index} (campaign seed {campaign_seed})"),
            cause: FailureCause::Invariant,
            attempts: 1,
            detail,
        });
    }
    println!(
        "fuzz campaign done: {} case(s), {violations} violation(s)",
        rows.len()
    );
    Ok(())
}

/// The storage-fault crash-consistency torture sweep over a small fig. 3
/// run: crash at every selected VFS operation, resume, and demand
/// byte-identical output or a structured storage failure; flip bits in a
/// persisted envelope and demand quarantine; soak cache and journal in
/// every probabilistic fault class at once. Takes no shared flags: it
/// builds a fresh execution context per crash point, pinned to one
/// worker so the fault schedule is deterministic. Of the environment it
/// takes the monitor and point tracing. Exits 2 on a contract breach — a
/// silent corruption, a served bit flip, or a diverged soak pass.
fn cmd_torture(args: &[String], env: &cli::Env) -> ExitResult {
    let settings = cli::resolve(&[], &[], env)?;
    let mut args = args.to_vec();
    let mut cfg = TortureConfig {
        invariants: settings.invariants,
        trace_points: settings.trace_points,
        ..TortureConfig::default()
    };
    cfg.dense = cli::take_value(&mut args, "--dense")?.unwrap_or(cfg.dense);
    cfg.stride = cli::take_value(&mut args, "--stride")?.unwrap_or(cfg.stride);
    cfg.max_points = cli::take_value(&mut args, "--max-points")?.unwrap_or(cfg.max_points);
    cfg.bitflips = cli::take_value(&mut args, "--bitflips")?.unwrap_or(cfg.bitflips);
    cfg.soak_intensity = cli::take_intensity(&mut args, "--soak")?.unwrap_or(cfg.soak_intensity);
    cfg.storage_seed = cli::take_value(&mut args, "--storage-seed")?.unwrap_or(cfg.storage_seed);
    if let Some(unknown) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag {unknown} (valid: {})", TORTURE_FLAGS.join(", ")).into());
    }
    if let Some(v) = args.first() {
        cfg.scale = v
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or_else(|| format!("invalid scale {v:?}"))?;
    }
    if let Some(v) = args.get(1) {
        cfg.seed = v.parse().map_err(|_| format!("invalid seed {v:?}"))?;
    }

    let report = torture::run(&cfg)?;
    print!("{}", report.render());
    fs::create_dir_all("results")?;
    fs::write("results/torture.txt", report.render())?;
    fs::write("results/torture.json", serde_json::to_string_pretty(&report)?)?;
    eprintln!("wrote results/torture.json");
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(cli::EXIT_POINT_FAILURES)
    })
}

/// Lists the benchmarks.
fn cmd_bench(_ctx: &ExecCtx, _args: &[String]) -> CliResult {
    println!("{:<14} {:<6} {:>8} {:>12} {:>10}", "name", "type", "heap", "exec@1GHz", "GC@1GHz");
    for b in dacapo_sim::all_benchmarks() {
        println!(
            "{:<14} {:<6} {:>5} MB {:>9.0} ms {:>7.0} ms",
            b.name,
            format!("{:?}", b.class),
            b.heap_mb,
            b.paper.exec_ms,
            b.paper.gc_ms
        );
    }
    Ok(())
}

fn parse_run_args(
    args: &[String],
) -> Result<(&'static dacapo_sim::Benchmark, f64, f64), Box<dyn Error>> {
    let name = args.first().ok_or("missing benchmark name")?;
    let bench = dacapo_sim::benchmark(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let ghz: f64 = args
        .get(1)
        .ok_or("missing frequency (GHz)")?
        .parse()
        .map_err(|_| "frequency must be a number")?;
    Ok((bench, ghz, pos(args, 2, 0.1)))
}

/// Runs one benchmark at one frequency and summarises it.
fn cmd_run(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let (bench, ghz, scale) = parse_run_args(args)?;
    let r = try_run_benchmark(bench, RunConfig::at_ghz(ghz).scaled(scale), ctx.monitor())?;
    println!("{} at {ghz} GHz (scale {scale}):", bench.name);
    println!("  execution    {}", r.exec);
    println!("  GC time      {} ({} collections)", r.gc_time, r.gc_count);
    println!("  allocated    {:.1} MB", r.allocated as f64 / (1 << 20) as f64);
    println!("  epochs       {}", r.trace.epochs.len());
    println!("  futex sleeps {}", r.stats.futex_sleeps);
    println!(
        "  instructions {:.1}M, DRAM reads {:.1}M (mean {:.0} ns)",
        r.stats.total_instructions() as f64 / 1e6,
        r.stats.dram.reads as f64 / 1e6,
        r.stats.dram.total_read_latency.as_nanos() / r.stats.dram.reads.max(1) as f64,
    );
    let s = TraceSummary::compute(&r.trace);
    println!(
        "  parallelism  {:.2} threads (app active {}, GC active {}, JIT active {})",
        s.mean_parallelism, s.application.active, s.gc.active, s.jit.active
    );
    println!(
        "  sq-full      app {}, GC {} (the BURST counter)",
        s.application.sq_full, s.gc.sq_full
    );
    println!("  events       {} dispatched", r.stats.events_dispatched);
    Ok(())
}

/// Runs one benchmark and saves its execution trace as JSON.
fn cmd_record(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let (bench, ghz, _) = parse_run_args(args)?;
    let out = args.get(2).ok_or("missing output path")?;
    let scale: f64 = pos(args, 3, 0.1);
    let r = try_run_benchmark(bench, RunConfig::at_ghz(ghz).scaled(scale), ctx.monitor())?;
    fs::write(out, serde_json::to_vec(&r.trace)?)?;
    println!(
        "recorded {}: {} epochs over {} -> {out}",
        bench.name,
        r.trace.epochs.len(),
        r.exec
    );
    Ok(())
}

fn load_trace(path: &str) -> Result<ExecutionTrace, Box<dyn Error>> {
    let bytes = fs::read(path)?;
    let trace: ExecutionTrace = serde_json::from_slice(&bytes)?;
    trace.validate()?;
    Ok(trace)
}

/// The predictors `predict` accepts, by name.
fn model_by_name(name: &str) -> Result<Box<dyn DvfsPredictor>, Box<dyn Error>> {
    Ok(match name {
        "dep+burst" => Box::new(Dep::dep_burst()),
        "dep" => Box::new(Dep::plain()),
        "coop+burst" => Box::new(Coop::with_burst()),
        "coop" => Box::new(Coop::plain()),
        "m+crit+burst" => Box::new(MCrit::with_burst()),
        "m+crit" => Box::new(MCrit::plain()),
        other => return Err(format!("unknown model {other}").into()),
    })
}

/// Predicts a saved trace's execution time at a target frequency
/// (model default `dep+burst`).
fn cmd_predict(_ctx: &ExecCtx, args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing trace path")?;
    let ghz: f64 = args
        .get(1)
        .ok_or("missing target frequency (GHz)")?
        .parse()
        .map_err(|_| "frequency must be a number")?;
    let model = model_by_name(args.get(2).map(String::as_str).unwrap_or("dep+burst"))?;
    let trace = load_trace(path)?;
    let target = Freq::from_ghz(ghz);
    let predicted = model.predict(&trace, target);
    println!(
        "{}: measured {} at {}, predicted {} at {target}",
        model.name(),
        trace.total,
        trace.base,
        predicted
    );
    Ok(())
}

/// Prints the criticality stack of a saved trace.
fn cmd_crit(_ctx: &ExecCtx, args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing trace path")?;
    let trace = load_trace(path)?;
    let stack = CriticalityStack::compute(&trace);
    println!("criticality stack ({} wall time):", trace.total);
    for (tid, frac) in stack.ranked() {
        let name = trace
            .thread(tid)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| tid.to_string());
        println!("  {name:<10} {:5.1}%", frac * 100.0);
    }
    println!("  {:<10} {:5.1}%", "idle", stack.idle.as_secs() / trace.total.as_secs().max(1e-12) * 100.0);
    Ok(())
}

/// Runs one benchmark under the energy manager at a slowdown tolerance.
fn cmd_manage(ctx: &ExecCtx, args: &[String]) -> CliResult {
    let name = args.first().ok_or("missing benchmark name")?;
    let bench = dacapo_sim::benchmark(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let pct: f64 = args
        .get(1)
        .ok_or("missing slowdown threshold (percent)")?
        .parse()
        .map_err(|_| "threshold must be a number")?;
    let scale: f64 = pos(args, 2, 0.1);
    let row = fig6::managed_with(ctx, bench, scale, 1, pct / 100.0)?;
    println!(
        "{} under the manager at {pct}% tolerance: slowdown {:+.1}%, energy saved {:+.1}%, mean {:.2} GHz",
        bench.name,
        row.slowdown * 100.0,
        row.savings * 100.0,
        row.mean_ghz
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn unknown_or_missing_subcommand_is_a_usage_error_listing_them_all() {
        for argv in [strs(&["nosuch", "0.1"]), strs(&[])] {
            assert_eq!(main(&argv, &[]), ExitCode::FAILURE, "{argv:?}");
            let err = lookup(&argv).expect_err("no such command");
            for c in COMMANDS {
                let listed = err.lines().any(|l| l.split_whitespace().next() == Some(c.name));
                assert!(listed, "{} unlisted: {err}", c.name);
            }
        }
        assert!(lookup(&strs(&["nosuch"])).unwrap_err().contains("unknown subcommand \"nosuch\""));
        assert!(lookup(&strs(&[])).unwrap_err().contains("missing subcommand"));
    }

    /// Failure reports keep the file names the per-experiment binaries
    /// wrote; the six exploration commands share `dvfs-lab`'s.
    #[test]
    fn failure_report_names_are_stable() {
        let expected = [
            ("table1", "table1"),
            ("table2", "table2"),
            ("fig1", "fig1"),
            ("fig3", "fig3"),
            ("fig4", "fig4"),
            ("fig6", "fig6"),
            ("fig7", "fig7"),
            ("ablation", "ablation"),
            ("percore", "percore"),
            ("faults", "faults"),
            ("sampling_error", "sampling_error"),
            ("fleet", "fleet"),
            ("thermal", "thermal"),
            ("fuzz", "fuzz"),
            ("torture", "torture"),
            ("bench", "dvfs-lab"),
            ("run", "dvfs-lab"),
            ("record", "dvfs-lab"),
            ("predict", "dvfs-lab"),
            ("crit", "dvfs-lab"),
            ("manage", "dvfs-lab"),
        ];
        let table: Vec<(&str, &str)> = COMMANDS.iter().map(|c| (c.name, c.report)).collect();
        assert_eq!(table, expected);
    }

    #[test]
    fn zero_shards_is_a_usage_error_for_fleet_and_thermal() {
        for name in ["fleet", "thermal"] {
            let argv = strs(&[name, "--shards", "0"]);
            assert_eq!(main(&argv, &[]), ExitCode::FAILURE, "{name}");
            let (cmd, args) = lookup(&argv).expect("command exists");
            let Body::Sweep(body) = cmd.body else {
                panic!("{name} runs on the shared context");
            };
            let ctx = ExecCtx::new(1);
            let err = body(&ctx, args).expect_err("--shards 0 must be rejected");
            assert!(err.to_string().contains("--shards"), "{name}: {err}");
        }
    }

    #[test]
    fn fleet_and_thermal_reject_the_sampled_tier() {
        for name in ["fleet", "thermal"] {
            let (cmd, _) = lookup(&strs(&[name])).expect("command exists");
            let Body::Sweep(body) = cmd.body else {
                panic!("{name} runs on the shared context");
            };
            let ctx = ExecCtx::new(1).with_sampling(Some(simx::SamplingConfig::default()));
            let err = body(&ctx, &[]).expect_err("--sampling must be rejected");
            assert!(err.to_string().contains("--sampling"), "{name}: {err}");
        }
    }
}
