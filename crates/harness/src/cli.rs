//! Shared command-line plumbing for the `depburst` subcommands (see
//! [`crate::commands`]), and the one place a run's settings come from.
//!
//! Every setting is one row of [`SETTINGS`]: an optional flag, an
//! optional environment variable, one parser, and a doc line.
//! [`resolve`] starts from the defaults, applies the environment, then
//! the flags, so a flag beats its variable. Both forms go through the
//! row's parser, and a bad value from either is a usage error (exit 1)
//! that names its source. Flags take both `--flag V` and `--flag=V`
//! forms, anywhere after the subcommand name. No other module reads the
//! process environment: [`main`] hands `std::env` to the resolver, and
//! tests hand it a literal slice.
//!
//! | Flag | Env | Default | What it does |
//! |---|---|---|---|
//! | `--jobs N` | `DEPBURST_JOBS` | available parallelism | Pool width, a positive integer. `1` reproduces the historical sequential harness exactly. |
//! | `--point-timeout SECS` | `DEPBURST_POINT_TIMEOUT` | `0` | Per-point wall-clock watchdog; `0` disables it. |
//! | `--retries N` | `DEPBURST_RETRIES` | `2` | Retry budget for failed points. |
//! | `--run-id ID` | — | none | Start a fresh checkpoint journal at `<checkpoint dir>/<ID>.jsonl`. |
//! | `--resume ID` | — | none | Resume that journal, replaying completed points; the output is byte-identical to an uninterrupted run. Wins over `--run-id`. |
//! | `--invariants MODE` | `DEPBURST_INVARIANTS` | `off` | Invariant monitor depth on every machine the run builds: `off`, `cheap` or `full`. See `simx::invariants`. |
//! | `--sampling SETTING` | `DEPBURST_SAMPLING` | `off` | Sampled execution tier: `off`, `on`, or a measure fraction in (probe, 1). See `simx::sampling`. |
//! | `--storage-faults SPEC` | `DEPBURST_STORAGE_FAULTS` | `off` | Storage-fault injection on the cache and the journal: `off`, an intensity in `[0, 1]`, `seed=N`, `crash=N`, comma-separated. See [`crate::vfs`]. |
//! | — | `DEPBURST_CACHE` | memory only | Persist the simulation memo: `1` under `results/cache`, any other path under that directory, empty or `0` in memory only. |
//! | — | `DEPBURST_CHECKPOINT_DIR` | `results/checkpoints` | Directory of the checkpoint journals. |
//! | — | `DEPBURST_TRACE_POINTS` | `0` | `1` or `on` logs every point with its key and wall-clock to stderr; `0`, `off` or empty does not. |
//! | — | `DEPBURST_BREAK_INVARIANT` | unset | Test only: deliberately weakens the named invariant on every machine and in the fleet round loop, so CI can prove the detector fires. |
//!
//! `torture` takes none of the flags (it builds its own contexts) but
//! resolves the environment half of the table: the monitor and point
//! tracing reach its passes, and a bad value exits 1 there too.
//!
//! An unknown `--flag` is a usage error: the diagnostic names the
//! offending flag, suggests the nearest valid one when the typo is small,
//! and lists every flag the command accepts (command-specific flags such
//! as the faults sweep's `--panic-point` included).
//!
//! Exit codes are standardized across all subcommands: **0** success, **1**
//! usage or internal error, **2** the sweep ran but some points
//! ultimately failed (a failure report was written to
//! `results/<exp>_failures.json` and summarized on stderr). No panics.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use depburst_core::DepburstError;
use simx::{Invariant, InvariantMode, SamplingConfig};

use crate::cache::SimCache;
use crate::checkpoint::Journal;
use crate::resilience::RetryPolicy;
use crate::run::ExecCtx;
use crate::vfs::StorageFaultConfig;

/// The boxed error a command body returns: `depburst_core`
/// errors and I/O or serialization errors both flow through it.
pub type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The `DEPBURST_*` variables a run sees, as (name, value) pairs: the
/// process environment in [`main`], a literal slice in tests.
pub type Env<'a> = [(&'a str, &'a str)];

/// A run's resolved settings, one field per [`SETTINGS`] row, plus the
/// command's own arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonOpts {
    /// Pool width.
    pub jobs: usize,
    /// Per-point wall-clock budget (`None` = no watchdog).
    pub point_timeout: Option<Duration>,
    /// Retry budget for failed points.
    pub retries: u32,
    /// Start a fresh checkpoint journal under this id.
    pub run_id: Option<String>,
    /// Resume the checkpoint journal of this id.
    pub resume: Option<String>,
    /// Invariant monitor depth.
    pub invariants: InvariantMode,
    /// The sampled tier (`None` = exact execution).
    pub sampling: Option<SamplingConfig>,
    /// Storage-fault injection (`None` = the real filesystem).
    pub storage_faults: Option<StorageFaultConfig>,
    /// Where the simulation memo persists (`None` = memory only).
    pub cache: Option<PathBuf>,
    /// Directory of the checkpoint journals.
    pub checkpoint_dir: PathBuf,
    /// Log every point to stderr.
    pub trace_points: bool,
    /// Test-only: the invariant deliberately weakened.
    pub sabotage: Option<Invariant>,
    /// Remaining positional arguments (and pass-through command-specific
    /// flags), in order.
    pub rest: Vec<String>,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts {
            jobs: crate::pool::default_jobs(),
            point_timeout: None,
            retries: RetryPolicy::default().retries,
            run_id: None,
            resume: None,
            invariants: InvariantMode::Off,
            sampling: None,
            storage_faults: None,
            cache: None,
            checkpoint_dir: PathBuf::from("results/checkpoints"),
            trace_points: false,
            sabotage: None,
            rest: Vec::new(),
        }
    }
}

/// One run setting: where it can come from, how its value parses, and
/// what it does.
#[derive(Debug, Clone, Copy)]
pub struct Setting {
    /// The flag form, e.g. `--jobs`.
    pub flag: Option<&'static str>,
    /// The environment form, e.g. `DEPBURST_JOBS`.
    pub env: Option<&'static str>,
    /// One line for the usage listing.
    pub doc: &'static str,
    /// Parses a value into its [`CommonOpts`] field; the error says what
    /// a good value looks like.
    apply: fn(&mut CommonOpts, &str) -> Result<(), String>,
}

impl Setting {
    /// Applies `value`, read from `source` (the flag or the variable).
    fn set(&self, opts: &mut CommonOpts, source: &str, value: &str) -> Result<(), String> {
        (self.apply)(opts, value.trim())
            .map_err(|want| format!("invalid {source} value {value:?} ({want})"))
    }
}

/// Every run setting. The module doc renders the same table.
pub const SETTINGS: &[Setting] = &[
    Setting {
        flag: Some("--jobs"),
        env: Some("DEPBURST_JOBS"),
        doc: "N: pool width (default: available parallelism)",
        apply: |o, v| {
            o.jobs = v.parse().ok().filter(|n| *n >= 1).ok_or("want a positive integer")?;
            Ok(())
        },
    },
    Setting {
        flag: Some("--point-timeout"),
        env: Some("DEPBURST_POINT_TIMEOUT"),
        doc: "SECS: per-point wall-clock watchdog (0 disables; default 0)",
        apply: |o, v| {
            let secs: f64 = v
                .parse()
                .ok()
                .filter(|s: &f64| *s >= 0.0 && s.is_finite())
                .ok_or("want seconds >= 0")?;
            o.point_timeout = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
            Ok(())
        },
    },
    Setting {
        flag: Some("--retries"),
        env: Some("DEPBURST_RETRIES"),
        doc: "N: retry budget for failed points (default 2)",
        apply: |o, v| {
            o.retries = v.parse().map_err(|_| "want a non-negative integer")?;
            Ok(())
        },
    },
    Setting {
        flag: Some("--run-id"),
        env: None,
        doc: "ID: start a fresh checkpoint journal",
        apply: |o, v| {
            o.run_id = Some(Journal::checked_id(v).map_err(|e| e.to_string())?.to_owned());
            Ok(())
        },
    },
    Setting {
        flag: Some("--resume"),
        env: None,
        doc: "ID: resume that checkpoint journal (wins over --run-id)",
        apply: |o, v| {
            o.resume = Some(Journal::checked_id(v).map_err(|e| e.to_string())?.to_owned());
            Ok(())
        },
    },
    Setting {
        flag: Some("--invariants"),
        env: Some("DEPBURST_INVARIANTS"),
        doc: "MODE: invariant monitor depth, off, cheap or full (default off)",
        apply: |o, v| {
            o.invariants = InvariantMode::parse(v).ok_or("want off, cheap, or full")?;
            Ok(())
        },
    },
    Setting {
        flag: Some("--sampling"),
        env: Some("DEPBURST_SAMPLING"),
        doc: "SETTING: sampled tier, off, on or a measure fraction (default off)",
        apply: |o, v| {
            o.sampling = crate::run::parse_sampling_setting(v)?;
            Ok(())
        },
    },
    Setting {
        flag: Some("--storage-faults"),
        env: Some("DEPBURST_STORAGE_FAULTS"),
        doc: "SPEC: storage-fault injection, off or intensity[,seed=N][,crash=N] (default off)",
        apply: |o, v| {
            o.storage_faults = crate::vfs::parse_storage_faults(v)?;
            Ok(())
        },
    },
    Setting {
        flag: None,
        env: Some("DEPBURST_CACHE"),
        doc: "persist the memo: 1 = results/cache, or a directory (default: memory only)",
        apply: |o, v| {
            o.cache = match v {
                "" | "0" => None,
                "1" => Some(PathBuf::from("results/cache")),
                path => Some(PathBuf::from(path)),
            };
            Ok(())
        },
    },
    Setting {
        flag: None,
        env: Some("DEPBURST_CHECKPOINT_DIR"),
        doc: "directory of the checkpoint journals (default results/checkpoints)",
        apply: |o, v| {
            o.checkpoint_dir = Some(v).filter(|v| !v.is_empty()).ok_or("want a directory")?.into();
            Ok(())
        },
    },
    Setting {
        flag: None,
        env: Some("DEPBURST_TRACE_POINTS"),
        doc: "1 = log every point with its key and wall-clock to stderr (default 0)",
        apply: |o, v| {
            o.trace_points = match v {
                "" | "0" | "off" => false,
                "1" | "on" => true,
                _ => return Err("want 0, 1, off, or on".to_owned()),
            };
            Ok(())
        },
    },
    Setting {
        flag: None,
        env: Some("DEPBURST_BREAK_INVARIANT"),
        doc: "test only: deliberately weaken the named invariant (see simx::invariants)",
        apply: |o, v| {
            o.sabotage = Some(Invariant::from_name(v).ok_or("names no invariant")?);
            Ok(())
        },
    },
];

/// The usage lines of the shared settings, for the subcommand listing.
#[must_use]
pub fn settings_usage() -> String {
    let mut s = String::from("settings (flag and/or environment; the flag wins):");
    for row in SETTINGS {
        let names: Vec<&str> = row.flag.into_iter().chain(row.env).collect();
        s.push_str(&format!("\n  {:<42} {}", names.join(" | "), row.doc));
    }
    s
}

/// Removes one `--name V` / `--name=V` flag from `args` and returns its
/// value (last occurrence wins), leaving the other arguments in order.
/// Commands use this for their own flags (e.g. the faults sweep's
/// `--panic-point`).
pub fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let inline = format!("{name}=");
    let mut value = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = std::mem::take(args).into_iter();
    while let Some(a) = it.next() {
        if a == name {
            value = Some(it.next().ok_or_else(|| format!("{name} requires a value"))?);
        } else if let Some(v) = a.strip_prefix(&inline) {
            value = Some(v.to_owned());
        } else {
            rest.push(a);
        }
    }
    *args = rest;
    Ok(value)
}

/// [`take_flag`] for a value of type `T`; `None` when the flag was not
/// given.
pub fn take_value<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    take_flag(args, name)?
        .map(|v| v.parse().map_err(|_| format!("invalid {name} value {v:?}")))
        .transpose()
}

/// [`take_flag`] for a value that must be an intensity (or probability)
/// in `[0, 1]`; `None` when the flag was not given.
pub fn take_intensity(args: &mut Vec<String>, name: &str) -> Result<Option<f64>, String> {
    take_flag(args, name)?
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|i| (0.0..=1.0).contains(i))
                .ok_or_else(|| format!("invalid {name} value {v:?} (want [0, 1])"))
        })
        .transpose()
}

/// [`take_flag`] for a value that must be a positive count; `None` when
/// the flag was not given.
pub fn take_count(args: &mut Vec<String>, name: &str) -> Result<Option<usize>, String> {
    take_flag(args, name)?
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("invalid {name} value {v:?} (want >= 1)"))
        })
        .transpose()
}

/// [`take_flag`] for an `on`/`off` switch; a flag that was not given is
/// off.
pub fn take_switch(args: &mut Vec<String>, name: &str) -> Result<bool, String> {
    match take_flag(args, name)?.as_deref() {
        None | Some("off") => Ok(false),
        Some("on") => Ok(true),
        Some(other) => Err(format!("invalid {name} value {other:?} (want on or off)")),
    }
}

/// Fails when the sampled tier was requested for a command it does not
/// apply to; `detail` says why. Silently accepting `--sampling` there
/// would misreport what the run covered.
pub fn reject_sampling(ctx: &ExecCtx, detail: &str) -> Result<(), DepburstError> {
    match ctx.sampling {
        Some(_) => Err(DepburstError::UnsupportedOption {
            option: "--sampling".to_owned(),
            detail: detail.to_owned(),
        }),
        None => Ok(()),
    }
}

/// Resolves a command's settings: the defaults, then every variable of
/// `env` that names a [`SETTINGS`] row, then the flags in `args`. The
/// command's positional arguments land in [`CommonOpts::rest`]. Every
/// name in `extra_flags` (e.g. `"--panic-point"`) passes through to
/// `rest` untouched — in both its `--flag V` and `--flag=V` forms — for
/// the command to extract with [`take_flag`]. Any other `--`-prefixed
/// token is rejected with a diagnostic that names the flag, suggests the
/// nearest valid one, and lists them all. Variables outside the table
/// are ignored.
///
/// # Errors
/// A usage error: an unknown flag, a flag without its value, or a bad
/// value from either source, naming that source.
pub fn resolve(
    args: &[String],
    extra_flags: &[&str],
    env: &Env,
) -> Result<CommonOpts, String> {
    let mut opts = CommonOpts::default();
    for row in SETTINGS {
        let Some(var) = row.env else { continue };
        if let Some((_, value)) = env.iter().rev().find(|(name, _)| *name == var) {
            row.set(&mut opts, var, value)?;
        }
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((flag, v)) if a.starts_with("--") => (flag, Some(v)),
            _ => (a.as_str(), None),
        };
        let Some(row) = SETTINGS.iter().find(|row| row.flag == Some(flag)) else {
            if flag.starts_with("--") && !extra_flags.contains(&flag) {
                return Err(unknown_flag_error(flag, extra_flags));
            }
            opts.rest.push(a.clone());
            continue;
        };
        let value = match inline {
            Some(v) => v,
            None => it.next().ok_or_else(|| format!("{flag} requires a value"))?,
        };
        row.set(&mut opts, flag, value)?;
    }
    Ok(opts)
}

/// Renders the unknown-flag usage error: the offending flag, a
/// nearest-valid-flag suggestion when one is within edit distance 2, and
/// the full list of flags this command accepts.
fn unknown_flag_error(flag: &str, extra_flags: &[&str]) -> String {
    let mut known: Vec<&str> = SETTINGS.iter().filter_map(|row| row.flag).collect();
    known.extend_from_slice(extra_flags);
    known.sort_unstable();
    let suggestion = known
        .iter()
        .map(|k| (edit_distance(flag, k), *k))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, k)| format!(" (did you mean {k}?)"))
        .unwrap_or_default();
    format!(
        "unknown flag {flag}{suggestion}; valid flags: {}",
        known.join(", ")
    )
}

/// Levenshtein distance between two short flag names (classic
/// two-row dynamic program; inputs are a handful of bytes, so no
/// cleverness needed).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row[j + 1] = substitute.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// Builds the execution context `opts` describes, plus the checkpoint
/// journal when a run id was given (`--resume` wins over `--run-id`).
///
/// # Errors
/// An invalid run id is a usage error (`InvalidInput`).
pub fn build_ctx(opts: &CommonOpts) -> std::io::Result<ExecCtx> {
    let mut ctx = ExecCtx::new(opts.jobs)
        .with_policy(RetryPolicy {
            retries: opts.retries,
            ..RetryPolicy::default()
        })
        .with_timeout(opts.point_timeout)
        .with_sampling(opts.sampling);
    if let Some(dir) = &opts.cache {
        ctx = ctx.with_cache(SimCache::persistent(dir));
    }
    // The injector goes in after the cache, which routes through it, and
    // before the journal, which shares it.
    if let Some(cfg) = opts.storage_faults {
        ctx = ctx.with_storage_faults(cfg);
    }
    ctx.invariants = opts.invariants;
    ctx.sabotage = opts.sabotage;
    ctx.trace_points = opts.trace_points;
    let (id, resume) = match (&opts.resume, &opts.run_id) {
        (Some(id), _) => (id, true),
        (None, Some(id)) => (id, false),
        (None, None) => return Ok(ctx),
    };
    let path = opts
        .checkpoint_dir
        .join(format!("{}.jsonl", Journal::checked_id(id)?));
    // A journal that cannot be created or read is a *degraded* run, not
    // a dead one: checkpointing is best-effort (mirroring how
    // append/fsync failures are counted, never fatal), so the sweep
    // proceeds non-resumable with a loud warning instead of dying before
    // it starts.
    let journal = if resume {
        Journal::resume_at_with(&path, ctx.storage_vfs())
    } else {
        Journal::create_at_with(&path, ctx.storage_vfs())
    };
    match journal {
        Ok(journal) => ctx = ctx.with_journal(journal),
        Err(e) if resume => eprintln!(
            "warning: cannot resume checkpoint journal {id}: {e}; \
             continuing without checkpointing"
        ),
        Err(e) => eprintln!(
            "warning: cannot create checkpoint journal {id}: {e}; \
             this run will not be resumable"
        ),
    }
    Ok(ctx)
}

/// The `depburst` binary: hands the arguments after the program name and
/// the process's `DEPBURST_*` variables to [`crate::commands::main`].
/// The one place the program reads its environment.
#[must_use]
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let vars: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(name, value)| {
            let name = name.into_string().ok()?;
            name.starts_with("DEPBURST_")
                .then(|| (name, value.to_string_lossy().into_owned()))
        })
        .collect();
    let env: Vec<(&str, &str)> = vars.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
    crate::commands::main(&argv, &env)
}

/// Resolves the shared settings from `argv` (a command's arguments,
/// after its name) and `env`, builds the execution context, runs `body`
/// on the remaining arguments, then writes/clears the experiment's
/// failure report and translates the outcome into the standardized exit
/// codes (0 ok, 1 usage/internal error, 2 point failures). `extra_flags`
/// are the command's own flags (see [`resolve`]): they pass through to
/// the body's arguments and join the unknown-flag diagnostic's valid list.
pub fn main_with_flags(
    experiment: &str,
    extra_flags: &[&str],
    argv: &[String],
    env: &Env,
    body: impl FnOnce(&ExecCtx, &[String]) -> CliResult,
) -> ExitCode {
    let opts = match resolve(argv, extra_flags, env) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = match build_ctx(&opts) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = body(&ctx, &opts.rest);
    finish(experiment, &ctx, result)
}

/// The exit code for "the sweep ran but some points ultimately failed".
pub const EXIT_POINT_FAILURES: u8 = 2;

fn finish(experiment: &str, ctx: &ExecCtx, result: CliResult) -> ExitCode {
    let cache = ctx.cache.stats();
    if cache.persist_failures > 0 {
        eprintln!(
            "warning: {} cache persist attempt(s) failed; those points will re-simulate next run",
            cache.persist_failures
        );
    }
    if let Some(journal) = ctx.journal() {
        let js = journal.stats();
        if js.append_failures > 0 {
            eprintln!(
                "warning: {} checkpoint append(s) failed; those points are not resumable",
                js.append_failures
            );
        }
        if js.fsync_failures > 0 {
            eprintln!(
                "warning: {} checkpoint fsync(s) failed; recent appends may not survive a crash",
                js.fsync_failures
            );
        }
    }
    if let Some(storage) = ctx.storage() {
        let s = storage.stats();
        eprintln!(
            "storage faults: {} ops, {} torn writes, {} dropped fsyncs, {} rename failures, \
             {} enospc, {} corrupted reads{}",
            s.ops,
            s.torn_writes,
            s.dropped_fsyncs,
            s.rename_failures,
            s.enospc_failures,
            s.corrupted_reads,
            if s.crashed { ", CRASHED" } else { "" }
        );
        // A fired crash point escalates to a structured storage failure:
        // the run must exit through the failure-report path, never as a
        // clean success over half-written state.
        if let Some(failure) = ctx.storage_failure() {
            ctx.record_failure(failure);
        }
    }
    let report_path = format!("results/{experiment}_failures.json");
    let report = ctx.failure_report(experiment);
    match &report {
        Some(report) => {
            match serde_json::to_string_pretty(report) {
                Ok(json) => {
                    let written = std::fs::create_dir_all("results")
                        .and_then(|()| std::fs::write(&report_path, json));
                    match written {
                        Ok(()) => eprintln!("wrote {report_path}"),
                        Err(e) => eprintln!("warning: could not write {report_path}: {e}"),
                    }
                }
                Err(e) => eprintln!("warning: could not serialize the failure report: {e}"),
            }
            eprintln!("{}", report.summary_line());
        }
        // A clean run clears any stale report from a previous failed one.
        None => {
            let _ = std::fs::remove_file(&report_path);
        }
    }
    match result {
        Ok(()) if report.is_none() => ExitCode::SUCCESS,
        Ok(()) => ExitCode::from(EXIT_POINT_FAILURES),
        Err(e) => {
            eprintln!("error: {e}");
            if report.is_some() {
                ExitCode::from(EXIT_POINT_FAILURES)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    /// [`resolve`] on flags alone, with an empty environment.
    fn flags(v: &[&str]) -> Result<CommonOpts, String> {
        resolve(&strs(v), &[], &[])
    }

    /// [`resolve`] on an environment alone.
    fn vars(env: &Env) -> Result<CommonOpts, String> {
        resolve(&[], &[], env)
    }

    /// Two good values that resolve differently, and a bad one (`None`
    /// where the parser accepts anything), for each row of the table.
    fn samples(row: &Setting) -> (&'static str, &'static str, Option<&'static str>) {
        match row.flag.or(row.env).expect("a row has a flag or a variable") {
            "--jobs" => ("3", "5", Some("0")),
            "--point-timeout" => ("1.5", "0", Some("-1")),
            "--retries" => ("0", "7", Some("-1")),
            "--run-id" | "--resume" => ("nightly", "weekly", Some("../escape")),
            "--invariants" => ("cheap", "full", Some("bogus")),
            "--sampling" => ("0.5", "on", Some("2")),
            "--storage-faults" => ("0.2,seed=7", "crash=12", Some("2.0")),
            "DEPBURST_CACHE" => ("1", "/tmp/depburst-cache", None),
            "DEPBURST_CHECKPOINT_DIR" => ("ckpt", "elsewhere", Some("")),
            "DEPBURST_TRACE_POINTS" => ("1", "0", Some("yes")),
            "DEPBURST_BREAK_INVARIANT" => ("counter-conservation", "thermal-ceiling", Some("nope")),
            other => panic!("no samples for setting {other}; add them here"),
        }
    }

    #[test]
    fn every_setting_resolves_the_same_from_its_flag_and_its_variable() {
        let defaults = vars(&[]).unwrap();
        for row in SETTINGS {
            let (good, alt, bad) = samples(row);
            let name = row.flag.or(row.env).unwrap();
            let resolve_one = |value| match (row.flag, row.env) {
                (Some(flag), _) => flags(&[flag, value]),
                (None, Some(env)) => vars(&[(env, value)]),
                (None, None) => unreachable!(),
            };
            let resolved = resolve_one(good).unwrap();
            assert_ne!(resolved, defaults, "{name}={good} must change a setting");
            assert_ne!(resolved, resolve_one(alt).unwrap(), "{name}: the samples must differ");
            if let (Some(flag), Some(env)) = (row.flag, row.env) {
                assert_eq!(vars(&[(env, good)]).unwrap(), resolved, "{flag} and {env} disagree");
                // The flag beats the variable.
                let both = resolve(&strs(&[flag, good]), &[], &[(env, alt)]).unwrap();
                assert_eq!(both, resolved, "{flag} must beat {env}");
            }
            let Some(bad) = bad else { continue };
            if let Some(flag) = row.flag {
                let err = flags(&[flag, bad]).expect_err(flag);
                assert!(err.contains(flag), "{flag}={bad:?}: {err}");
            }
            if let Some(env) = row.env {
                let err = vars(&[(env, bad)]).expect_err(env);
                assert!(err.contains(env), "{env}={bad:?}: {err}");
            }
        }
    }

    #[test]
    fn bad_environment_values_are_usage_errors() {
        // Each of these used to be clamped, ignored, or only warned about.
        for (var, value) in [
            ("DEPBURST_JOBS", "0"),
            ("DEPBURST_INVARIANTS", "bogus"),
            ("DEPBURST_POINT_TIMEOUT", "-1"),
            ("DEPBURST_RETRIES", "many"),
            ("DEPBURST_SAMPLING", "2"),
            ("DEPBURST_STORAGE_FAULTS", "2.0"),
            ("DEPBURST_BREAK_INVARIANT", "no-such-check"),
        ] {
            let err = vars(&[(var, value)]).expect_err(var);
            assert!(err.starts_with(&format!("invalid {var} value")), "got: {err}");
        }
        // `DEPBURST_TRACE_POINTS=0` means off, not "set, so on".
        assert!(!vars(&[("DEPBURST_TRACE_POINTS", "0")]).unwrap().trace_points);
        assert!(vars(&[("DEPBURST_TRACE_POINTS", "1")]).unwrap().trace_points);
        // Variables outside the table are not settings.
        assert_eq!(
            vars(&[("DEPBURST_BENCH_REGRESSION_PCT", "10"), ("HOME", "/")]).unwrap(),
            vars(&[]).unwrap()
        );
    }

    #[test]
    fn resolve_strips_all_shared_flags() {
        let opts = flags(&[
            "0.1",
            "--jobs",
            "4",
            "--point-timeout=2.5",
            "--retries",
            "1",
            "--run-id",
            "nightly",
            "7",
        ])
        .unwrap();
        assert_eq!(opts.jobs, 4);
        assert_eq!(opts.point_timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(opts.retries, 1);
        assert_eq!(opts.run_id.as_deref(), Some("nightly"));
        assert_eq!(opts.resume, None);
        assert_eq!(opts.rest, strs(&["0.1", "7"]), "positional order survives");
    }

    #[test]
    fn resolve_timeout_zero_disables() {
        let opts = flags(&["--point-timeout", "0"]).unwrap();
        assert_eq!(opts.point_timeout, None);
        assert!(flags(&["--point-timeout", "-1"]).is_err());
        assert!(flags(&["--retries", "-1"]).is_err());
        assert!(flags(&["--resume"]).is_err());
    }

    #[test]
    fn resolve_rejects_bad_jobs() {
        assert!(flags(&["--jobs"]).is_err());
        assert!(flags(&["--jobs", "zero"]).is_err());
        assert!(flags(&["--jobs=0"]).is_err());
    }

    #[test]
    fn take_flag_extracts_and_preserves_rest() {
        let mut args = strs(&["a", "--panic-point", "0.5", "b"]);
        let v = take_flag(&mut args, "--panic-point").unwrap();
        assert_eq!(v.as_deref(), Some("0.5"));
        assert_eq!(args, strs(&["a", "b"]));
        let mut args = strs(&["--panic-point=1.0"]);
        let v = take_flag(&mut args, "--panic-point").unwrap();
        assert_eq!(v.as_deref(), Some("1.0"));
        assert!(args.is_empty());
        assert!(take_flag(&mut strs(&["--panic-point"]), "--panic-point").is_err());
    }

    #[test]
    fn shared_value_parsers_check_their_ranges() {
        let take = |flag: &str, v: &str| vec![flag.to_owned(), v.to_owned()];
        assert_eq!(take_intensity(&mut strs(&["x"]), "--chaos"), Ok(None));
        assert_eq!(take_intensity(&mut take("--chaos", "0.5"), "--chaos"), Ok(Some(0.5)));
        assert_eq!(take_intensity(&mut take("--chaos", "1"), "--chaos"), Ok(Some(1.0)));
        for bad in ["-0.1", "1.5", "NaN", "lots"] {
            let err = take_intensity(&mut take("--chaos", bad), "--chaos").expect_err(bad);
            assert!(err.contains("--chaos"), "got: {err}");
        }
        assert_eq!(take_count(&mut strs(&[]), "--shards"), Ok(None));
        assert_eq!(take_count(&mut take("--shards", "3"), "--shards"), Ok(Some(3)));
        for bad in ["0", "-1", "two"] {
            let err = take_count(&mut take("--shards", bad), "--shards").expect_err(bad);
            assert!(err.contains("--shards"), "got: {err}");
        }
        assert_eq!(take_value::<u64>(&mut take("--seed", "7"), "--seed"), Ok(Some(7)));
        assert!(take_value::<u64>(&mut take("--seed", "x"), "--seed").is_err());
        assert_eq!(take_switch(&mut strs(&[]), "--thermal"), Ok(false));
        assert_eq!(take_switch(&mut take("--thermal", "off"), "--thermal"), Ok(false));
        assert_eq!(take_switch(&mut take("--thermal", "on"), "--thermal"), Ok(true));
        assert!(take_switch(&mut take("--thermal", "yes"), "--thermal").is_err());
    }

    #[test]
    fn unknown_flags_are_diagnosed_with_suggestion_and_list() {
        let err = flags(&["--job", "4"]).expect_err("unknown flag");
        assert!(err.contains("unknown flag --job"), "got: {err}");
        assert!(err.contains("did you mean --jobs?"), "got: {err}");
        for flag in SETTINGS.iter().filter_map(|row| row.flag) {
            assert!(err.contains(flag), "valid list must include {flag}: {err}");
        }
        // The `=`-form reports the bare flag name.
        let err = flags(&["--restries=1"]).expect_err("typo");
        assert!(err.contains("unknown flag --restries"), "got: {err}");
        assert!(err.contains("did you mean --retries?"), "got: {err}");
        // A flag nothing resembles gets the list but no suggestion.
        let err = flags(&["--frobnicate"]).expect_err("unknown");
        assert!(!err.contains("did you mean"), "got: {err}");
        assert!(err.contains("valid flags:"), "got: {err}");
    }

    #[test]
    fn extra_flags_pass_through_and_join_the_diagnostic() {
        let opts = resolve(
            &strs(&["--panic-point", "0.5", "--jobs=2", "x"]),
            &["--panic-point"],
            &[],
        )
        .unwrap();
        assert_eq!(opts.jobs, 2);
        assert_eq!(opts.rest, strs(&["--panic-point", "0.5", "x"]));
        let opts = resolve(&strs(&["--panic-point=1.0"]), &["--panic-point"], &[]).unwrap();
        assert_eq!(opts.rest, strs(&["--panic-point=1.0"]));
        // A typo of the command-specific flag is suggested too.
        let err = resolve(&strs(&["--panic-pont=1.0"]), &["--panic-point"], &[])
            .expect_err("typo");
        assert!(err.contains("did you mean --panic-point?"), "got: {err}");
        // Without the pass-through declaration it is unknown.
        assert!(flags(&["--panic-point=1.0"]).is_err());
    }

    #[test]
    fn invariants_flag_parses_all_modes() {
        let opts = flags(&["--invariants", "full"]).unwrap();
        assert_eq!(opts.invariants, InvariantMode::Full);
        let opts = flags(&["--invariants=cheap"]).unwrap();
        assert_eq!(opts.invariants, InvariantMode::Cheap);
        let opts = flags(&["--invariants=off"]).unwrap();
        assert_eq!(opts.invariants, InvariantMode::Off);
        assert!(flags(&["--invariants", "loud"]).is_err());
        assert_eq!(flags(&[]).unwrap().invariants, InvariantMode::Off);
    }

    #[test]
    fn sampling_flag_parses_all_settings() {
        let opts = flags(&["--sampling", "on"]).unwrap();
        assert_eq!(opts.sampling, Some(SamplingConfig::default()));
        let opts = flags(&["--sampling=off"]).unwrap();
        assert_eq!(opts.sampling, None);
        let opts = flags(&["--sampling=0.5"]).unwrap();
        let cfg = opts.sampling.expect("fraction enables sampling");
        assert_eq!(cfg.measure_fraction, 0.5);
        assert_eq!(cfg.probe_fraction, SamplingConfig::default().probe_fraction);
        // Fractions outside (probe, 1) and junk are usage errors.
        assert!(flags(&["--sampling", "1.5"]).is_err());
        assert!(flags(&["--sampling", "0.01"]).is_err());
        assert!(flags(&["--sampling", "sometimes"]).is_err());
        assert_eq!(flags(&[]).unwrap().sampling, None);
    }

    #[test]
    fn storage_faults_flag_parses_specs() {
        let opts = flags(&["--storage-faults", "off"]).unwrap();
        assert_eq!(opts.storage_faults, None);
        let opts = flags(&["--storage-faults=0.2,seed=7"]).unwrap();
        let cfg = opts.storage_faults.expect("injector on");
        assert_eq!(cfg.seed, 7);
        assert!(cfg.torn_write > 0.0);
        let opts = flags(&["--storage-faults=crash=12"]).unwrap();
        assert_eq!(
            opts.storage_faults.expect("crash mode").crash_after,
            Some(12)
        );
        assert!(flags(&["--storage-faults", "2.0"]).is_err());
        // An explicit `off` flag clears an injector the environment asked for.
        let opts = resolve(
            &strs(&["--storage-faults", "off"]),
            &[],
            &[("DEPBURST_STORAGE_FAULTS", "0.4")],
        )
        .unwrap();
        assert_eq!(opts.storage_faults, None);
    }

    #[test]
    fn edit_distance_is_the_usual_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("--jobs", "--jobs"), 0);
        assert_eq!(edit_distance("--job", "--jobs"), 1);
        assert_eq!(edit_distance("--restries", "--retries"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn build_ctx_applies_the_resolved_settings() {
        let opts = resolve(
            &strs(&["--jobs=3", "--retries=0", "--point-timeout=1.5"]),
            &[],
            &[("DEPBURST_INVARIANTS", "full"), ("DEPBURST_BREAK_INVARIANT", "cache-sanity")],
        )
        .unwrap();
        let ctx = build_ctx(&opts).expect("no journal requested");
        assert_eq!(ctx.jobs, 3);
        assert_eq!(ctx.policy.retries, 0);
        assert_eq!(ctx.point_timeout, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(ctx.invariants, InvariantMode::Full);
        assert_eq!(ctx.sabotage, Some(Invariant::CacheSanity));
        assert!(!ctx.trace_points);
        assert!(ctx.journal().is_none());
        // A bad run id is a usage error, not a panic, on either path.
        assert!(flags(&["--run-id", "../escape"]).is_err());
        let bad = CommonOpts {
            run_id: Some("../escape".to_owned()),
            ..CommonOpts::default()
        };
        assert!(build_ctx(&bad).is_err());
    }

    #[test]
    fn unwritable_journal_degrades_the_run_instead_of_killing_it() {
        // crash=0 fails the very first VFS operation, so the journal can
        // never be created: the context must still build — checkpointing
        // is best-effort — just without a journal. The id is still
        // validated strictly even on that path.
        let opts = flags(&["--run-id", "cli-degraded", "--storage-faults", "crash=0"]).unwrap();
        let ctx = build_ctx(&opts).expect("degraded, not dead");
        assert!(ctx.journal().is_none());
        assert!(ctx.storage().expect("injector installed").crashed());
        let bad = CommonOpts {
            run_id: Some("../escape".to_owned()),
            ..opts
        };
        assert!(build_ctx(&bad).is_err(), "id validation must stay hard");
    }
}
