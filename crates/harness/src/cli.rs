//! Shared command-line plumbing for the `depburst` subcommands (see
//! [`crate::commands`]).
//!
//! Every subcommand except `torture` accepts, anywhere after its name
//! (both `--flag V` and `--flag=V` forms):
//!
//! * `--jobs N` — pool width (env `DEPBURST_JOBS`; default: available
//!   parallelism). `--jobs 1` reproduces the historical sequential
//!   harness exactly.
//! * `--point-timeout SECS` — per-point wall-clock watchdog (env
//!   `DEPBURST_POINT_TIMEOUT`; `0` disables).
//! * `--retries N` — retry budget for failed points (env
//!   `DEPBURST_RETRIES`; default 2).
//! * `--run-id ID` — start a fresh checkpoint journal at
//!   `results/checkpoints/<ID>.jsonl`.
//! * `--resume ID` — resume that journal, replaying completed points;
//!   output is byte-identical to an uninterrupted run.
//! * `--invariants MODE` — runtime invariant monitor mode (`off`,
//!   `cheap`, or `full`; env `DEPBURST_INVARIANTS`; default off). See
//!   `simx::invariants`.
//! * `--sampling SETTING` — sampled execution tier (`off`, `on`, or a
//!   measure fraction in (probe, 1); env `DEPBURST_SAMPLING`; default
//!   off). See `simx::sampling`.
//! * `--storage-faults SPEC` — storage-fault injection on the cache and
//!   checkpoint journal (`off`, an intensity in `[0, 1]`, `seed=N`,
//!   `crash=N`, comma-separated; env `DEPBURST_STORAGE_FAULTS`; default
//!   off — all durable I/O goes straight through the real filesystem).
//!   See `harness::vfs`.
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

use std::process::ExitCode;

use depburst_core::DepburstError;

use crate::checkpoint::Journal;
use crate::run::ExecCtx;

/// The boxed error a command body returns: `depburst_core`
/// errors and I/O or serialization errors both flow through it.
pub type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The options shared by every command, split from its positional
/// arguments.
#[derive(Debug, Default)]
pub struct CommonOpts {
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--point-timeout SECS`: `Some(None)` = explicit `0` (disable),
    /// `Some(Some(d))` = a budget, `None` = not given (use the env).
    pub point_timeout: Option<Option<std::time::Duration>>,
    /// `--retries N`.
    pub retries: Option<u32>,
    /// `--run-id ID`.
    pub run_id: Option<String>,
    /// `--resume ID`.
    pub resume: Option<String>,
    /// `--invariants MODE`.
    pub invariants: Option<simx::InvariantMode>,
    /// `--sampling SETTING`: `Some(None)` = explicit `off`,
    /// `Some(Some(cfg))` = the sampled tier, `None` = not given (use the
    /// env).
    pub sampling: Option<Option<simx::SamplingConfig>>,
    /// `--storage-faults SPEC`: `Some(None)` = explicit `off`,
    /// `Some(Some(cfg))` = an injector, `None` = not given (use the env).
    pub storage_faults: Option<Option<crate::vfs::StorageFaultConfig>>,
    /// Remaining positional arguments (and pass-through command-specific
    /// flags), in order.
    pub rest: Vec<String>,
}

/// The flags every command understands, for the unknown-flag diagnostic.
const COMMON_FLAGS: [&str; 8] = [
    "--jobs",
    "--point-timeout",
    "--retries",
    "--run-id",
    "--resume",
    "--invariants",
    "--sampling",
    "--storage-faults",
];

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

/// Reads the test-only `DEPBURST_BREAK_INVARIANT` sabotage hook: CI sets
/// it to an invariant name to deliberately weaken that check and prove
/// the detector (and its reporting path) actually fires. Unset in every
/// real run.
///
/// # Errors
/// Returns a usage error when the value names no invariant.
pub fn sabotage_from_env() -> Result<Option<simx::Invariant>, String> {
    match std::env::var("DEPBURST_BREAK_INVARIANT") {
        Err(_) => Ok(None),
        Ok(name) => match simx::Invariant::from_name(name.trim()) {
            Some(inv) => Ok(Some(inv)),
            None => Err(format!(
                "DEPBURST_BREAK_INVARIANT={name:?} names no invariant (see simx::invariants)"
            )),
        },
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("invalid --jobs value {v:?} (want a positive integer)")),
    }
}

fn parse_timeout(v: &str) -> Result<Option<std::time::Duration>, String> {
    match v.parse::<f64>() {
        Ok(0.0) => Ok(None),
        Ok(secs) if secs > 0.0 && secs.is_finite() => {
            Ok(Some(std::time::Duration::from_secs_f64(secs)))
        }
        _ => Err(format!(
            "invalid --point-timeout value {v:?} (want seconds >= 0)"
        )),
    }
}

fn parse_retries(v: &str) -> Result<u32, String> {
    v.parse::<u32>()
        .map_err(|_| format!("invalid --retries value {v:?} (want a non-negative integer)"))
}

fn parse_invariants(v: &str) -> Result<simx::InvariantMode, String> {
    simx::InvariantMode::parse(v).ok_or_else(|| {
        format!("invalid --invariants value {v:?} (want off, cheap, or full)")
    })
}

fn parse_sampling(v: &str) -> Result<Option<simx::SamplingConfig>, String> {
    crate::run::parse_sampling_setting(v).map_err(|e| format!("invalid --sampling value: {e}"))
}

fn parse_storage(v: &str) -> Result<Option<crate::vfs::StorageFaultConfig>, String> {
    crate::vfs::parse_storage_faults(v)
        .map_err(|e| format!("invalid --storage-faults value: {e}"))
}

/// Splits the shared flags from `args`, leaving the command's positional
/// arguments in [`CommonOpts::rest`]. Equivalent to
/// [`parse_common_with`] with no command-specific flags: any unrecognized
/// `--flag` is a usage error.
pub fn parse_common(args: &[String]) -> Result<CommonOpts, String> {
    parse_common_with(args, &[])
}

/// [`parse_common`] for commands with their own flags: every name in
/// `extra_flags` (e.g. `"--panic-point"`) passes through to
/// [`CommonOpts::rest`] untouched — in both its `--flag V` and
/// `--flag=V` forms — for the command to extract with [`take_flag`]. Any
/// other `--`-prefixed token is rejected with a diagnostic that names
/// the flag, suggests the nearest valid one, and lists them all.
pub fn parse_common_with(args: &[String], extra_flags: &[&str]) -> Result<CommonOpts, String> {
    let mut opts = CommonOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((flag, v)) if a.starts_with("--") => (flag, Some(v)),
            _ => (a.as_str(), None),
        };
        if !COMMON_FLAGS.contains(&flag) {
            if flag.starts_with("--") && !extra_flags.contains(&flag) {
                return Err(unknown_flag_error(flag, extra_flags));
            }
            opts.rest.push(a.clone());
            continue;
        }
        let v = match inline {
            Some(v) => v.to_owned(),
            None => it.next().cloned().ok_or_else(|| format!("{flag} requires a value"))?,
        };
        match flag {
            "--jobs" => opts.jobs = Some(parse_jobs(&v)?),
            "--point-timeout" => opts.point_timeout = Some(parse_timeout(&v)?),
            "--retries" => opts.retries = Some(parse_retries(&v)?),
            "--run-id" => opts.run_id = Some(v),
            "--resume" => opts.resume = Some(v),
            "--invariants" => opts.invariants = Some(parse_invariants(&v)?),
            "--sampling" => opts.sampling = Some(parse_sampling(&v)?),
            "--storage-faults" => opts.storage_faults = Some(parse_storage(&v)?),
            _ => unreachable!("COMMON_FLAGS lists exactly the flags matched here"),
        }
    }
    Ok(opts)
}

/// Renders the unknown-flag usage error: the offending flag, a
/// nearest-valid-flag suggestion when one is within edit distance 2, and
/// the full list of flags this command accepts.
fn unknown_flag_error(flag: &str, extra_flags: &[&str]) -> String {
    let mut known: Vec<&str> = COMMON_FLAGS.to_vec();
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

/// Builds the execution context `opts` asks for: environment defaults,
/// overridden by the explicit flags, plus the checkpoint journal when a
/// run id was given (`--resume` wins over `--run-id`).
pub fn build_ctx(opts: &CommonOpts) -> std::io::Result<ExecCtx> {
    if let Some(mode) = opts.invariants {
        // Machines read DEPBURST_INVARIANTS at construction; exporting the
        // flag's value here — before any pool worker builds one — makes
        // the flag and the environment variable exactly equivalent.
        std::env::set_var("DEPBURST_INVARIANTS", mode.as_str());
    }
    let mut ctx = ExecCtx::from_env(opts.jobs);
    if let Some(timeout) = opts.point_timeout {
        ctx.point_timeout = timeout;
    }
    if let Some(retries) = opts.retries {
        ctx.policy.retries = retries;
    }
    if let Some(sampling) = opts.sampling {
        ctx.sampling = sampling;
    }
    match opts.storage_faults {
        // Explicit `--storage-faults off` clears an env-installed one.
        Some(None) => ctx = ctx.without_storage(),
        Some(Some(cfg)) => ctx = ctx.with_storage_faults(cfg),
        None => {}
    }
    // Build the journal *after* storage so it shares the injector. An
    // invalid run id is a usage error, but a journal that cannot be
    // created or read is a *degraded* run, not a dead one: checkpointing
    // is best-effort (mirroring how append/fsync failures are counted,
    // never fatal), so the sweep proceeds non-resumable with a loud
    // warning instead of dying before it starts.
    let journal = match (&opts.resume, &opts.run_id) {
        (Some(id), _) => {
            Journal::path_for(id)?;
            match Journal::resume_with(id, ctx.storage_vfs()) {
                Ok(journal) => Some(journal),
                Err(e) => {
                    eprintln!(
                        "warning: cannot resume checkpoint journal {id}: {e}; \
                         continuing without checkpointing"
                    );
                    None
                }
            }
        }
        (None, Some(id)) => {
            Journal::path_for(id)?;
            match Journal::create_with(id, ctx.storage_vfs()) {
                Ok(journal) => Some(journal),
                Err(e) => {
                    eprintln!(
                        "warning: cannot create checkpoint journal {id}: {e}; \
                         this run will not be resumable"
                    );
                    None
                }
            }
        }
        (None, None) => None,
    };
    if let Some(journal) = journal {
        ctx = ctx.with_journal(journal);
    }
    Ok(ctx)
}

/// Parses the shared flags out of `argv` (a command's arguments, after
/// its name), builds the execution context, runs `body` on the remaining
/// arguments, then writes/clears the experiment's failure report and
/// translates the outcome into the standardized exit codes (0 ok, 1
/// usage/internal error, 2 point failures). `extra_flags` are the
/// command's own flags (see [`parse_common_with`]): they pass through to
/// the body's arguments and join the unknown-flag diagnostic's valid list.
pub fn main_with_flags(
    experiment: &str,
    extra_flags: &[&str],
    argv: &[String],
    body: impl FnOnce(&ExecCtx, &[String]) -> CliResult,
) -> ExitCode {
    let opts = match parse_common_with(argv, extra_flags) {
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

    #[test]
    fn parse_common_strips_all_shared_flags() {
        let opts = parse_common(&strs(&[
            "0.1",
            "--jobs",
            "4",
            "--point-timeout=2.5",
            "--retries",
            "1",
            "--run-id",
            "nightly",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(
            opts.point_timeout,
            Some(Some(std::time::Duration::from_secs_f64(2.5)))
        );
        assert_eq!(opts.retries, Some(1));
        assert_eq!(opts.run_id.as_deref(), Some("nightly"));
        assert_eq!(opts.resume, None);
        assert_eq!(opts.rest, strs(&["0.1", "7"]), "positional order survives");
    }

    #[test]
    fn parse_common_timeout_zero_disables() {
        let opts = parse_common(&strs(&["--point-timeout", "0"])).unwrap();
        assert_eq!(opts.point_timeout, Some(None));
        assert!(parse_common(&strs(&["--point-timeout", "-1"])).is_err());
        assert!(parse_common(&strs(&["--retries", "-1"])).is_err());
        assert!(parse_common(&strs(&["--resume"])).is_err());
    }

    #[test]
    fn parse_common_rejects_bad_jobs() {
        assert!(parse_common(&strs(&["--jobs"])).is_err());
        assert!(parse_common(&strs(&["--jobs", "zero"])).is_err());
        assert!(parse_common(&strs(&["--jobs=0"])).is_err());
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
        let err = parse_common(&strs(&["--job", "4"])).expect_err("unknown flag");
        assert!(err.contains("unknown flag --job"), "got: {err}");
        assert!(err.contains("did you mean --jobs?"), "got: {err}");
        for flag in COMMON_FLAGS {
            assert!(err.contains(flag), "valid list must include {flag}: {err}");
        }
        // The `=`-form reports the bare flag name.
        let err = parse_common(&strs(&["--restries=1"])).expect_err("typo");
        assert!(err.contains("unknown flag --restries"), "got: {err}");
        assert!(err.contains("did you mean --retries?"), "got: {err}");
        // A flag nothing resembles gets the list but no suggestion.
        let err = parse_common(&strs(&["--frobnicate"])).expect_err("unknown");
        assert!(!err.contains("did you mean"), "got: {err}");
        assert!(err.contains("valid flags:"), "got: {err}");
    }

    #[test]
    fn extra_flags_pass_through_and_join_the_diagnostic() {
        let opts = parse_common_with(
            &strs(&["--panic-point", "0.5", "--jobs=2", "x"]),
            &["--panic-point"],
        )
        .unwrap();
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.rest, strs(&["--panic-point", "0.5", "x"]));
        let opts =
            parse_common_with(&strs(&["--panic-point=1.0"]), &["--panic-point"]).unwrap();
        assert_eq!(opts.rest, strs(&["--panic-point=1.0"]));
        // A typo of the command-specific flag is suggested too.
        let err = parse_common_with(&strs(&["--panic-pont=1.0"]), &["--panic-point"])
            .expect_err("typo");
        assert!(err.contains("did you mean --panic-point?"), "got: {err}");
        // Without the pass-through declaration it is unknown.
        assert!(parse_common(&strs(&["--panic-point=1.0"])).is_err());
    }

    #[test]
    fn invariants_flag_parses_all_modes() {
        let opts = parse_common(&strs(&["--invariants", "full"])).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Full));
        let opts = parse_common(&strs(&["--invariants=cheap"])).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Cheap));
        let opts = parse_common(&strs(&["--invariants=off"])).unwrap();
        assert_eq!(opts.invariants, Some(simx::InvariantMode::Off));
        assert!(parse_common(&strs(&["--invariants", "loud"])).is_err());
        assert_eq!(parse_common(&strs(&[])).unwrap().invariants, None);
    }

    #[test]
    fn sampling_flag_parses_all_settings() {
        let opts = parse_common(&strs(&["--sampling", "on"])).unwrap();
        assert_eq!(opts.sampling, Some(Some(simx::SamplingConfig::default())));
        let opts = parse_common(&strs(&["--sampling=off"])).unwrap();
        assert_eq!(opts.sampling, Some(None));
        let opts = parse_common(&strs(&["--sampling=0.5"])).unwrap();
        let cfg = opts.sampling.flatten().expect("fraction enables sampling");
        assert_eq!(cfg.measure_fraction, 0.5);
        assert_eq!(
            cfg.probe_fraction,
            simx::SamplingConfig::default().probe_fraction
        );
        // Fractions outside (probe, 1) and junk are usage errors.
        assert!(parse_common(&strs(&["--sampling", "1.5"])).is_err());
        assert!(parse_common(&strs(&["--sampling", "0.01"])).is_err());
        assert!(parse_common(&strs(&["--sampling", "sometimes"])).is_err());
        assert_eq!(parse_common(&strs(&[])).unwrap().sampling, None);
    }

    #[test]
    fn storage_faults_flag_parses_specs() {
        let opts = parse_common(&strs(&["--storage-faults", "off"])).unwrap();
        assert_eq!(opts.storage_faults, Some(None));
        let opts = parse_common(&strs(&["--storage-faults=0.2,seed=7"])).unwrap();
        let cfg = opts.storage_faults.flatten().expect("injector on");
        assert_eq!(cfg.seed, 7);
        assert!(cfg.torn_write > 0.0);
        let opts = parse_common(&strs(&["--storage-faults=crash=12"])).unwrap();
        assert_eq!(
            opts.storage_faults.flatten().expect("crash mode").crash_after,
            Some(12)
        );
        assert!(parse_common(&strs(&["--storage-faults", "2.0"])).is_err());
        assert_eq!(parse_common(&strs(&[])).unwrap().storage_faults, None);
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
    fn build_ctx_applies_overrides() {
        let opts = parse_common(&strs(&["--jobs=3", "--retries=0", "--point-timeout=1.5"]))
            .unwrap();
        let ctx = build_ctx(&opts).expect("no journal requested");
        assert_eq!(ctx.jobs, 3);
        assert_eq!(ctx.policy.retries, 0);
        assert_eq!(
            ctx.point_timeout,
            Some(std::time::Duration::from_secs_f64(1.5))
        );
        assert!(ctx.journal().is_none());
        // A bad run id is a usage error, not a panic.
        let bad = parse_common(&strs(&["--run-id", "../escape"])).unwrap();
        assert!(build_ctx(&bad).is_err());
    }

    #[test]
    fn unwritable_journal_degrades_the_run_instead_of_killing_it() {
        // crash=0 fails the very first VFS operation, so the journal can
        // never be created: the context must still build — checkpointing
        // is best-effort — just without a journal. The id is still
        // validated strictly even on that path.
        let opts = parse_common(&strs(&[
            "--run-id",
            "cli-degraded",
            "--storage-faults",
            "crash=0",
        ]))
        .unwrap();
        let ctx = build_ctx(&opts).expect("degraded, not dead");
        assert!(ctx.journal().is_none());
        assert!(ctx.storage().expect("injector installed").crashed());
        let bad = parse_common(&strs(&[
            "--run-id",
            "../escape",
            "--storage-faults",
            "crash=0",
        ]))
        .unwrap();
        assert!(build_ctx(&bad).is_err(), "id validation must stay hard");
    }
}
