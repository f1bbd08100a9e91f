//! The figure harness and the model-behaviour gate.
//!
//! ```text
//! bench fig <name>|all                    # rewrite results/<name>.json
//! bench snapshot                          # rewrite BENCH_sim_epoch.json
//! bench compare --baseline BENCH_sim_epoch.json --tolerance 15%
//! ```
//!
//! `fig` runs entries of [`figures::FIGURES`]. `compare` reruns the
//! fixed-seed simulations in-process and exits 1 if any baseline entry
//! moved beyond the tolerance in its bad direction; improvements always
//! pass. The runs are virtual-time and deterministic, so one attempt
//! decides.

use std::path::PathBuf;
use std::process::ExitCode;

use monarch_bench::{figures, snapshot};

const USAGE: &str = "usage:
  bench fig <name>|all
  bench snapshot
  bench compare --baseline BENCH_sim_epoch.json [--tolerance 15%]";

fn fail(msg: &str) -> ExitCode {
    let names: Vec<&str> = figures::FIGURES.iter().map(|f| f.name).collect();
    eprintln!("bench: {msg}\n{USAGE}\nfigures: {}", names.join(" "));
    ExitCode::from(2)
}

/// `15%`, `15`, or `0.15` → `0.15`.
fn parse_tolerance(s: &str) -> Option<f64> {
    let (num, pct) = match s.strip_suffix('%') {
        Some(n) => (n, true),
        None => (s, false),
    };
    let v: f64 = num.trim().parse().ok()?;
    let frac = if pct || v > 1.0 { v / 100.0 } else { v };
    (frac >= 0.0).then_some(frac)
}

fn next_value(args: &mut std::vec::IntoIter<String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn run_snapshot(mut args: std::vec::IntoIter<String>) -> Result<String, String> {
    if let Some(other) = args.next() {
        return Err(format!("unknown argument '{other}'"));
    }
    let doc = snapshot::sim_epoch_doc();
    let path = snapshot::write(&doc)?;
    Ok(format!(
        "[saved {} — {} entries @ {}]",
        path.display(),
        doc.entries.len(),
        doc.git_rev
    ))
}

fn run_compare(mut args: std::vec::IntoIter<String>) -> Result<String, String> {
    let mut baseline_path = None;
    let mut tolerance = 0.15;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => {
                baseline_path = Some(PathBuf::from(next_value(&mut args, "--baseline")?))
            }
            "--tolerance" => {
                let raw = next_value(&mut args, "--tolerance")?;
                tolerance = parse_tolerance(&raw)
                    .ok_or_else(|| format!("bad tolerance '{raw}' (try 15%)"))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let baseline_path = baseline_path.ok_or("compare requires --baseline")?;
    let baseline = snapshot::load(&baseline_path)?;
    let run = snapshot::sim_epoch_doc();
    if baseline.name != run.name {
        return Err(format!(
            "{} is a '{}' snapshot; this tool regenerates '{}'",
            baseline_path.display(),
            baseline.name,
            run.name
        ));
    }
    println!(
        "comparing against {} ({} entries @ {}, tolerance {:.0}%)",
        baseline_path.display(),
        baseline.entries.len(),
        baseline.git_rev,
        tolerance * 100.0,
    );
    let violations = snapshot::compare(&baseline, &run, tolerance);
    if violations.is_empty() {
        return Ok(format!(
            "model gate OK: {} entries within {:.0}% (rev {})",
            baseline.entries.len(),
            tolerance * 100.0,
            run.git_rev,
        ));
    }
    for v in &violations {
        eprintln!("  {}: {}", v.id, v.detail);
    }
    Err(format!(
        "model gate FAILED: {} entry(ies) beyond tolerance",
        violations.len()
    ))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return fail("missing subcommand");
    }
    let sub = args.remove(0);
    let result = match sub.as_str() {
        "fig" => {
            let figs: Vec<&figures::Figure> = match args.as_slice() {
                [name] if name == "all" => figures::FIGURES.iter().collect(),
                [name] => figures::FIGURES.iter().filter(|f| f.name == name).collect(),
                _ => return fail("fig takes one figure name or 'all'"),
            };
            if figs.is_empty() {
                return fail(&format!("unknown figure '{}'", args[0]));
            }
            figs.into_iter().for_each(figures::run);
            return ExitCode::SUCCESS;
        }
        "snapshot" => run_snapshot(args.into_iter()),
        "compare" => run_compare(args.into_iter()),
        other => return fail(&format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_tolerance;

    #[test]
    fn tolerance_forms() {
        assert_eq!(parse_tolerance("15%"), Some(0.15));
        assert_eq!(parse_tolerance("15"), Some(0.15));
        assert_eq!(parse_tolerance("0.15"), Some(0.15));
        assert_eq!(parse_tolerance("x"), None);
        assert_eq!(parse_tolerance("-5%"), None);
    }
}
