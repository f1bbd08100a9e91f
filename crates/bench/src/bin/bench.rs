//! The figure harness.
//!
//! ```text
//! bench fig <name>|all                    # rewrite results/<name>.json
//! ```
//!
//! `fig` runs entries of [`figures::FIGURES`]; `sim_epoch` among them is
//! the model gate, which tier-1 regenerates and compares with its
//! committed file byte for byte.

use std::process::ExitCode;

use monarch_bench::figures;

const USAGE: &str = "usage:
  bench fig <name>|all";

fn fail(msg: &str) -> ExitCode {
    let names: Vec<&str> = figures::FIGURES.iter().map(|f| f.name).collect();
    eprintln!("bench: {msg}\n{USAGE}\nfigures: {}", names.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figs: Vec<&figures::Figure> = match args.as_slice() {
        [] => return fail("missing subcommand"),
        [sub, ..] if sub != "fig" => return fail(&format!("unknown subcommand '{sub}'")),
        [_, name] if name == "all" => figures::FIGURES.iter().collect(),
        [_, name] => figures::FIGURES.iter().filter(|f| f.name == name).collect(),
        _ => return fail("fig takes one figure name or 'all'"),
    };
    if figs.is_empty() {
        return fail(&format!("unknown figure '{}'", args[1]));
    }
    figs.into_iter().for_each(figures::run);
    ExitCode::SUCCESS
}
