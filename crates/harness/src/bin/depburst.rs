//! `depburst` — every table, figure, extension and exploration command
//! of the harness as one binary: `depburst <subcommand> [args...]`. The
//! subcommands live in [`harness::commands`], the run settings in
//! [`harness::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    harness::cli::main()
}
