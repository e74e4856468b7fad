//! `depburst-core` — the unified error type of the DEP+BURST reproduction.
//!
//! Every layer of the stack (trace vocabulary, simulator, predictors,
//! energy management, harness) reports recoverable failures through
//! [`DepburstError`] so callers can match on one enum instead of a
//! per-crate zoo. The crate sits at the very bottom of the dependency
//! graph and therefore carries *plain data only* — no types from the
//! layers above. Each layer provides its own `From<...>` conversion into
//! the matching variant (e.g. `simx` converts `MachineError`, `dvfs-trace`
//! converts `TraceError`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod stablehash;

use core::fmt;

/// A convenience alias for results carrying [`DepburstError`].
pub type Result<T> = core::result::Result<T, DepburstError>;

/// The unified, layer-spanning error type.
#[derive(Debug, Clone, PartialEq)]
pub enum DepburstError {
    /// A performance prediction failed the energy manager's sanity gate
    /// (NaN, non-positive, or implausibly large slowdown).
    PredictionRejected {
        /// The offending predicted duration in seconds (may be NaN).
        predicted_secs: f64,
        /// Why the gate rejected it.
        detail: &'static str,
    },
    /// A static-sweep point carried a non-finite energy or execution time,
    /// so the oracle cannot rank it.
    NonFiniteEnergy {
        /// The frequency of the offending sweep point, in MHz.
        freq_mhz: u32,
    },
    /// A requested DVFS transition was denied (injected fault or a busy
    /// voltage regulator on real hardware).
    TransitionDenied {
        /// Simulated time of the denial, in seconds.
        at_secs: f64,
    },
    /// A core violated its chunk-execution protocol (e.g. completing a
    /// chunk while idle). Indicates a stale event, not fatal state.
    CoreProtocol {
        /// The offending core's index.
        core: u8,
        /// What went wrong.
        detail: &'static str,
    },
    /// A simulator-level failure (deadlock, dirty trace, unknown thread),
    /// carried as text to keep this crate dependency-free.
    Machine {
        /// The rendered simulator error.
        detail: String,
    },
    /// An execution trace violated a structural invariant, carried as text
    /// to keep this crate dependency-free.
    Trace {
        /// The rendered trace error.
        detail: String,
    },
    /// A simulation point exceeded its wall-clock watchdog deadline (the
    /// harness armed a per-point timeout and the event loop noticed it).
    /// The run was abandoned cleanly; retrying with a larger budget is
    /// safe because seeded simulations are pure.
    WatchdogExpired {
        /// Simulated time when the wall-clock deadline was noticed.
        at_secs: f64,
    },
    /// A sweep executed every point but some ultimately failed after
    /// exhausting their retries (panic, watchdog timeout, or error). The
    /// per-point detail lives in the harness failure report; this variant
    /// carries only the counts so the sweep's caller can exit nonzero.
    SweepIncomplete {
        /// Points that ultimately failed.
        failed: usize,
        /// Points in the sweep plan.
        total: usize,
    },
    /// Durable storage failed underneath the harness: a cache or
    /// checkpoint-journal operation hit an unrecoverable I/O error, or a
    /// simulated crash point fired (see `harness::vfs`). The run fails
    /// closed rather than continuing on untrustworthy state.
    Storage {
        /// The storage operation that failed (e.g. `append`, `rename`).
        op: String,
        /// The rendered I/O error.
        detail: String,
    },
    /// A CLI option combination the invoked experiment cannot honor
    /// (e.g. `--sampling on` on the fleet, whose round loop is not a
    /// sampled-execution consumer). Fails closed at startup, before any
    /// simulation work runs.
    UnsupportedOption {
        /// The offending option, as typed.
        option: String,
        /// Why the experiment cannot honor it.
        detail: String,
    },
    /// A machine's characterization cannot be allocated: a service-time
    /// component the central governor orders machines by is NaN,
    /// infinite or negative. Rejected before allocation, so a bad
    /// characterization never silently decides who gets the budget.
    InvalidMachineView {
        /// The fleet-wide machine id.
        machine: usize,
        /// The offending field (`scaling_s` or `fixed_s`).
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A runtime invariant monitor check failed (see `simx::invariants`):
    /// the simulated physics produced self-inconsistent state. Retrying is
    /// pointless — the same seeded inputs reproduce the same violation.
    InvariantViolation {
        /// The kebab-case name of the violated invariant.
        invariant: String,
        /// Simulated time of the (first) violation, in seconds.
        at_secs: f64,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for DepburstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepburstError::PredictionRejected {
                predicted_secs,
                detail,
            } => write!(
                f,
                "prediction rejected by sanity gate: {detail} (predicted {predicted_secs} s)"
            ),
            DepburstError::NonFiniteEnergy { freq_mhz } => write!(
                f,
                "static sweep point at {freq_mhz} MHz has non-finite energy or time"
            ),
            DepburstError::TransitionDenied { at_secs } => {
                write!(f, "DVFS transition denied at t={at_secs} s")
            }
            DepburstError::CoreProtocol { core, detail } => {
                write!(f, "core {core} protocol violation: {detail}")
            }
            DepburstError::Machine { detail } => write!(f, "machine error: {detail}"),
            DepburstError::Trace { detail } => write!(f, "trace error: {detail}"),
            DepburstError::WatchdogExpired { at_secs } => write!(
                f,
                "point watchdog expired: wall-clock budget exhausted at simulated t={at_secs} s"
            ),
            DepburstError::SweepIncomplete { failed, total } => write!(
                f,
                "sweep incomplete: {failed} of {total} points failed after retries"
            ),
            DepburstError::Storage { op, detail } => {
                write!(f, "storage error during {op}: {detail}")
            }
            DepburstError::UnsupportedOption { option, detail } => {
                write!(f, "unsupported option {option}: {detail}")
            }
            DepburstError::InvalidMachineView {
                machine,
                field,
                value,
            } => write!(
                f,
                "machine {machine} has an invalid view: {field} = {value} \
                 (want finite and non-negative)"
            ),
            DepburstError::InvariantViolation {
                invariant,
                at_secs,
                detail,
            } => write!(
                f,
                "invariant violation [{invariant}] at t={at_secs} s: {detail}"
            ),
        }
    }
}

impl std::error::Error for DepburstError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_every_variant() {
        let cases: Vec<(DepburstError, &str)> = vec![
            (
                DepburstError::PredictionRejected {
                    predicted_secs: f64::NAN,
                    detail: "NaN",
                },
                "sanity gate",
            ),
            (DepburstError::NonFiniteEnergy { freq_mhz: 2500 }, "2500 MHz"),
            (DepburstError::TransitionDenied { at_secs: 1.5 }, "denied"),
            (
                DepburstError::CoreProtocol {
                    core: 3,
                    detail: "finish on idle",
                },
                "core 3",
            ),
            (
                DepburstError::Machine {
                    detail: "deadlock".into(),
                },
                "machine error",
            ),
            (
                DepburstError::Trace {
                    detail: "gap".into(),
                },
                "trace error",
            ),
            (
                DepburstError::WatchdogExpired { at_secs: 0.25 },
                "watchdog expired",
            ),
            (
                DepburstError::SweepIncomplete {
                    failed: 2,
                    total: 40,
                },
                "2 of 40",
            ),
            (
                DepburstError::InvariantViolation {
                    invariant: "counter-conservation".into(),
                    at_secs: 0.5,
                    detail: "crit exceeds active".into(),
                },
                "[counter-conservation]",
            ),
            (
                DepburstError::Storage {
                    op: "append".into(),
                    detail: "no space left on device".into(),
                },
                "storage error during append",
            ),
            (
                DepburstError::UnsupportedOption {
                    option: "--sampling".into(),
                    detail: "the fleet round loop has no sampled tier".into(),
                },
                "unsupported option --sampling",
            ),
            (
                DepburstError::InvalidMachineView {
                    machine: 7,
                    field: "scaling_s",
                    value: f64::NAN,
                },
                "machine 7 has an invalid view: scaling_s = NaN",
            ),
        ];
        for (err, needle) in cases {
            let rendered = err.to_string();
            assert!(rendered.contains(needle), "{rendered:?} lacks {needle:?}");
        }
    }

    #[test]
    fn is_a_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(DepburstError::NonFiniteEnergy {
            freq_mhz: 1000,
        });
        assert!(err.to_string().contains("1000"));
    }
}
