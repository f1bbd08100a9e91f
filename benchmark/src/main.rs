//! The repository's benchmark: four wall-clock workloads through
//! `Monarch::read` over real directories behind a modelled PFS link.
//! See `README.md` beside this crate for the metrics and how to run it.

mod drivers;
mod env;
mod probes;
mod spec;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use workload::{Dataset, RunOpts, Shape};

const USAGE: &str = "usage: monarch-benchmark [all | aa | check-manifest] \
[--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--sets N] [--root DIR] [--flip-byte]";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
    root: PathBuf,
    flip_byte: bool,
}

fn parse_args() -> Result<Args, String> {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut a = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        sets: 2,
        root: crate_dir.join("run"),
        flip_byte: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--sets" => {
                a.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--root" => a.root = PathBuf::from(value("a directory")?),
            "--smoke" => a.smoke = true,
            "--flip-byte" => a.flip_byte = true,
            "all" | "aa" | "check-manifest" if a.command.is_none() => a.command = Some(arg),
            _ => return Err(format!("unknown argument {arg}\n{USAGE}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// One measured metric; end-to-end metrics carry the quartiles and count
/// of the per-pair values their median came from.
struct Measured {
    name: &'static str,
    value: f64,
    spread: Option<(f64, f64, usize)>,
}

/// One measured workload: every metric of the chosen kind.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Measured>,
}

impl Report {
    fn get(&self, name: &str) -> &Measured {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is in the spec but was not measured"))
    }

    fn value(&self, name: &str) -> f64 {
        self.get(name).value
    }

    /// The driver's result line.
    fn json(&self, specs: &[Metric]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    self.value(s.name),
                    s.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self, specs: &[Metric]) {
        for s in specs {
            let spread = self
                .get(s.name)
                .spread
                .map_or(String::new(), |(q1, q3, n)| {
                    format!("  (q1 {q1:.6}, q3 {q3:.6}, n {n})")
                });
            println!(
                "{:<34} {:>16.6} {:<6}{spread}",
                s.name,
                self.value(s.name),
                s.unit
            );
        }
        println!(
            "reads attempted {}, failed {}, output {}",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
    }
}

fn header(args: &Args, shape: &Shape, run_dir: &Path) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    println!(
        "# {} seed {} seconds {} trace {} smoke {} | fs {} nproc {} commit {} | link {} MiB/s + {} us/op",
        shape.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        env::fs_type(run_dir),
        std::thread::available_parallelism().map_or(0, usize::from),
        commit,
        drivers::PFS_LINK.bytes_per_s >> 20,
        drivers::PFS_LINK.op_cost.as_micros(),
    );
    println!(
        "# {} files x {} KiB, {} B reads, {} reads/pair, {} reader(s), {} pool thread(s), policy {}, fast tier {}",
        shape.files,
        shape.file_size >> 10,
        shape.read_size,
        shape.reads_per_pair,
        shape.readers,
        shape.pool_threads,
        shape.policy.as_str(),
        shape.fast_device.map_or("unmodelled".into(), |d| format!(
            "{} MiB/s + {} us/op",
            d.bytes_per_s >> 20,
            d.op_cost.as_micros()
        )),
    );
}

/// Generate the inputs of `name` from the seed and measure it.
fn run_workload(args: &Args, name: &str, trace: bool) -> Result<Report, String> {
    let shape = Shape::of(name, args.smoke).ok_or(format!("unknown workload {name}"))?;
    let run = env::RunDir::create(&args.root, name).map_err(|e| format!("run directory: {e}"))?;
    header(args, &shape, &run.0);
    let data = Dataset::generate(&shape, &run.0, args.seed).map_err(|e| format!("dataset: {e}"))?;
    let opts = RunOpts {
        smoke: args.smoke,
        seed: args.seed,
        seconds: args.seconds,
        flip_byte: args.flip_byte,
    };
    let fail = |e: monarch_core::Error| format!("{name}: {e}");
    if trace {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = out_dir.join(format!("{name}.trace.json"));
        let t = traced::run_traced(&shape, &data, &opts, &path).map_err(fail)?;
        probes::print_budget(&t.metrics);
        println!("trace written to {}", path.display());
        return Ok(Report {
            correct: t.correct,
            attempted: t.attempted,
            failed: t.failed,
            metrics: t
                .metrics
                .into_iter()
                .map(|(name, value)| Measured {
                    name,
                    value,
                    spread: None,
                })
                .collect(),
        });
    }
    let u = workload::run_untraced(&shape, &data, &opts).map_err(fail)?;
    let summary = |name, values: &[f64]| {
        let (q1, median, q3) = env::quartiles(values);
        Measured {
            name,
            value: median,
            spread: Some((q1, q3, values.len())),
        }
    };
    Ok(Report {
        correct: u.correct,
        attempted: u.attempted,
        failed: u.failed,
        metrics: vec![
            summary("setup_s", &u.setup_s),
            summary("throughput_mib_s", &u.throughput_mib_s),
            summary("overhead_ratio", &u.overhead_ratio),
            summary("pfs_amplification", &u.pfs_amplification),
        ],
    })
}

/// Every workload, untraced; with `traced`, the traced repetition too.
fn run_all(args: &Args, traced: bool) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for (name, _) in WORKLOADS {
        let r = run_workload(args, name, false)?;
        r.print(&END_TO_END);
        println!("{}", r.json(&END_TO_END));
        if traced {
            let t = run_workload(args, name, true)?;
            t.print(&PER_LAYER);
            println!("{}", t.json(&PER_LAYER));
            reports.push(t);
        }
        reports.push(r);
    }
    Ok(reports)
}

/// Run the suite `sets` times on this build and set the disagreement of
/// every end-to-end median beside its bound.
fn aa(args: &Args) -> Result<bool, String> {
    let sets: Vec<Vec<Report>> = (0..args.sets.max(2))
        .map(|_| run_all(args, false))
        .collect::<Result<_, _>>()?;
    let mut ok = sets.iter().flatten().all(|r| r.correct && r.failed == 0);
    println!(
        "\n{:<16} {:<20} {:>10} {:>8}",
        "workload", "metric", "disagree", "bound"
    );
    for (w, (name, _)) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let values: Vec<f64> = sets.iter().map(|s| s[w].value(m.name)).collect();
            // Largest pairwise difference, as a share of the smaller value.
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let disagree = (hi - lo) / lo;
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = if disagree <= bound { "" } else { "  EXCEEDS" };
            ok &= disagree <= bound;
            println!(
                "{name:<16} {:<20} {disagree:>10.4} {bound:>8.2}{verdict}",
                m.name
            );
        }
    }
    Ok(ok)
}

/// `BENCHMARK.json` and the tables in `spec.rs` must say the same.
fn check_manifest() -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&Vec<serde_json::Value>, String> {
        json.get(key)
            .and_then(serde_json::Value::as_array)
            .ok_or(format!("BENCHMARK.json: no list `{key}`"))
    };
    let text_of = |v: &serde_json::Value, key: &str| {
        v.get(key)
            .and_then(|x| x.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let mut errors = Vec::new();

    let listed: Vec<(String, String)> = list("workloads")?
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    if listed != ours {
        errors.push(format!(
            "workloads differ: manifest {listed:?}, code {ours:?}"
        ));
    }
    for (key, specs, limit) in [
        ("end_to_end", &END_TO_END[..], 16),
        ("per_layer", &PER_LAYER[..], 128),
    ] {
        let entries = list(key)?;
        if specs.len() > limit || entries.len() != specs.len() {
            errors.push(format!(
                "{key}: manifest has {}, code has {} (limit {limit})",
                entries.len(),
                specs.len()
            ));
        }
        for (e, s) in entries.iter().zip(specs) {
            let better = s.better.as_str();
            let same_bound = match (e.get("bound").and_then(serde_json::Value::as_f64), s.bound) {
                (Some(a), Some(b)) => (a - b).abs() < 1e-12,
                (None, None) => true,
                _ => false,
            };
            if text_of(e, "name") != s.name
                || text_of(e, "unit") != s.unit
                || text_of(e, "better") != better
                || !same_bound
            {
                errors.push(format!(
                    "{key}: manifest {} differs from code {} {} {better} {:?}",
                    serde_json::render(e, None),
                    s.name,
                    s.unit,
                    s.bound
                ));
            }
        }
    }
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(spec::workload_names())
        .collect();
    errors.extend(
        names
            .iter()
            .filter(|n| !valid(n))
            .map(|n| format!("invalid name {n}")),
    );
    names.sort_unstable();
    errors.extend(
        names
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| format!("name used twice: {}", w[0])),
    );
    if errors.is_empty() {
        println!(
            "BENCHMARK.json agrees with the code: {} workloads, {} end-to-end, {} per-layer metrics",
            WORKLOADS.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args()?;
        match (args.command.as_deref(), &args.workload) {
            (Some("check-manifest"), _) => check_manifest().map(|()| true),
            (Some("aa"), _) => aa(&args),
            (Some("all"), _) => Ok(run_all(&args, true)?
                .iter()
                .all(|r| r.correct && r.failed == 0)),
            (_, Some(name)) => {
                let specs: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
                let r = run_workload(&args, name, args.trace)?;
                r.print(specs);
                println!("{}", r.json(specs));
                // The result line carries the verdict; the exit code only
                // says whether a result was produced.
                Ok(true)
            }
            _ => Err(USAGE.into()),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
