//! `fcsim` — command-line driver for the client-side flash-cache simulator.
//!
//! Subcommands:
//!
//! - `run` — run one configuration against a generated workload.
//! - `table1` — print the Table 1 timing parameters.
//! - `gen-trace` — generate a trace file (`FCTRACE1` format).
//! - `trace-stats` — summarize a trace file.
//! - `replay` — run a configuration against a trace file.
//!
//! Run `fcsim help` for the full flag list. All sizes accept forms like
//! `8G`, `256K`; `--scale N` divides every byte quantity by `N` and keeps
//! every latency, so curve shapes match paper scale.

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fcsim: {e}");
            ExitCode::FAILURE
        }
    }
}
