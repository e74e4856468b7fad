//! `harness` — experiment runners regenerating every table and figure of
//! the DEP+BURST paper.
//!
//! Every experiment is a subcommand of the one `depburst` binary
//! (`depburst <subcommand> [args...]`, table in [`commands`]):
//!
//! | Experiment | Module | Subcommand |
//! |---|---|---|
//! | Table I (benchmarks) | [`experiments::table1`] | `table1` |
//! | Table II (system parameters) | [`experiments::table2`] | `table2` |
//! | Fig. 1 (M+CRIT vs DEP+BURST headline) | [`experiments::fig1`] | `fig1` |
//! | Fig. 3a/3b (per-benchmark model errors) | [`experiments::fig3`] | `fig3` |
//! | Fig. 4 (per- vs across-epoch CTP) | [`experiments::fig4`] | `fig4` |
//! | Fig. 6a/6b (energy manager) | [`experiments::fig6`] | `fig6` |
//! | Fig. 7 (dynamic vs static-optimal) | [`experiments::fig7`] | `fig7` |
//! | Fault injection & graceful degradation | [`experiments::faults`] | `faults` |
//! | Fleet-scale governor under chaos | [`experiments::fleet`] | `fleet` |
//! | Invariant-monitored fuzzing | [`fuzz`] | `fuzz` |
//! | Storage-fault crash-consistency torture | [`experiments::torture`] | `torture` |
//!
//! The [`run`] module holds the single-run plumbing shared by everything.
//! Long sweeps run resiliently: points are panic-isolated and
//! watchdog-bounded with deterministic retry ([`resilience`]), completed
//! points checkpoint to an append-only journal for `--resume`
//! ([`checkpoint`]), and ultimate failures surface as a structured
//! end-of-run report with a nonzero exit code ([`cli`]). All durable I/O
//! — cache envelopes and journal records, both carrying FNV-1a integrity
//! checksums — routes through the [`vfs`] storage abstraction, whose
//! deterministic fault injector the torture harness drives.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod checkpoint;
pub mod cli;
pub mod commands;
pub mod experiments;
pub mod fuzz;
pub mod pool;
pub mod report;
pub mod resilience;
pub mod run;
pub mod vfs;

pub use cache::{bench_digest, fault_digest, sim_key, sim_key_from_digests, CacheStats, SimCache, SimKey};
pub use checkpoint::Journal;
pub use resilience::{FailureCause, FailureReport, PointFailure, RetryPolicy};
pub use run::{
    run_benchmark, try_run_benchmark, ExecCtx, RunConfig, RunResult, RunSummary, SimPoint,
    SweepPlan,
};
pub use vfs::{FaultyVfs, RealVfs, StorageFaultConfig, StorageFaultStats, Vfs};
