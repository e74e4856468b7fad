//! `depburst` — every table, figure, extension and exploration command
//! of the harness as one binary: `depburst <subcommand> [args...]`. The
//! subcommands live in [`harness::commands`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    harness::commands::main(&argv)
}
