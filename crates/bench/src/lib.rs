//! Shared experiment harness for the MONARCH reproduction.
//!
//! [`figures::FIGURES`] holds every figure and quantitative table of the
//! paper as one scenario. `bench fig <name>` runs one, prints its rows as
//! a console table and saves them with [`save_json`] under `results/`, so
//! `EXPERIMENTS.md` can cite exact numbers. [`snapshot`] is the model
//! gate; where it and a figure run the same scenario shape (`ssd_outage`,
//! `peer_cluster`), one function serves both.

pub mod figures;
pub mod snapshot;

use std::io::Write as _;
use std::path::PathBuf;

use dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;
use dlpipe::report::RunReport;
use dlpipe::sim::{ClusterConfig, ClusterReport, ClusterTrainer, Sharding, SimTrainer};
use serde::Serialize;
use serde_json::Value;
use simfs::{FaultKind, FaultPlan};

/// Number of repeated trials (paper: 7). Override with `MONARCH_TRIALS`.
#[must_use]
pub fn trials() -> u64 {
    std::env::var("MONARCH_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

/// Epochs per run (paper: 3).
pub const EPOCHS: usize = 3;

/// Run `n` trials of one configuration, trial `t` seeded `0xbeef + 7919 t`;
/// [`dlpipe::report::TrialSummary::from_runs`] summarises them.
#[must_use]
pub(crate) fn trial_runs(
    setup: &Setup,
    geom: &DatasetGeom,
    model: &ModelProfile,
    env: &EnvConfig,
    n: u64,
    epochs: usize,
) -> Vec<RunReport> {
    (0..n)
        .map(|t| run_once(setup, geom, model, env, 0xbeef + t * 7919, epochs))
        .collect()
}

/// Run one seeded trial, returning the full report (op-count tables).
#[must_use]
pub fn run_once(
    setup: &Setup,
    geom: &DatasetGeom,
    model: &ModelProfile,
    env: &EnvConfig,
    seed: u64,
    epochs: usize,
) -> RunReport {
    let pipeline = PipelineConfig::default().with_seed(seed);
    SimTrainer::new(
        setup.clone(),
        geom.clone(),
        model.clone(),
        pipeline,
        env.clone(),
    )
    .run(epochs)
}

/// Bytes a run read from the PFS, over all its epochs.
#[must_use]
pub(crate) fn pfs_bytes_read(r: &RunReport) -> u64 {
    r.epochs
        .iter()
        .map(|e| e.devices[r.pfs_device].bytes_read())
        .sum()
}

/// The runs of the SSD-outage scenario.
pub(crate) struct Outage {
    /// MONARCH with a 0%-error marker window: it runs like the healthy
    /// probe and reports the window's consumption rate.
    pub(crate) healthy: RunReport,
    /// MONARCH with the SSD out over the window.
    pub(crate) faulted: RunReport,
    /// Vanilla-lustre under the same plan: it never routes through the
    /// SSD, so its window rate is the no-fast-tier floor.
    pub(crate) floor: RunReport,
}

/// The SSD-outage scenario: a fully fitting MONARCH run (LeNet, 8 GiB
/// SSD quota, no interference, 3 epochs) loses its SSD over the middle
/// half of epoch 2, when every shard is SSD-resident. A healthy probe
/// with the same seed fixes the window; fault checks hash their own seed
/// (`plan_seed`), so the runs stay deterministic.
#[must_use]
pub(crate) fn ssd_outage(geom: &DatasetGeom, seed: u64, plan_seed: u64) -> Outage {
    let env = EnvConfig {
        interference: false,
        ..EnvConfig::default()
    };
    let setup = Setup::Monarch(MonarchSimConfig::with_ssd_capacity(8 << 30));
    let run = |s: &Setup, e: &EnvConfig| run_once(s, geom, &ModelProfile::lenet(), e, seed, 3);
    let probe = run(&setup, &env);
    let e1_start = probe.metadata_init_seconds + probe.epochs[0].seconds;
    let (w0, w1) = (
        e1_start + 0.25 * probe.epochs[1].seconds,
        e1_start + 0.75 * probe.epochs[1].seconds,
    );
    let with_plan = |kind| EnvConfig {
        fault_plan: Some(FaultPlan::new(plan_seed).with_window("ssd", w0, w1, kind)),
        ..env.clone()
    };
    let outage = with_plan(FaultKind::Outage);
    Outage {
        healthy: run(&setup, &with_plan(FaultKind::ErrorRate(0.0))),
        faulted: run(&setup, &outage),
        floor: run(&Setup::VanillaLustre, &outage),
    }
}

/// The peer-cache cluster: `nodes` MONARCH instances with the peer cache
/// on, each with an SSD quota of 1/16 of the dataset so the caches never
/// cover the working set; LeNet, default environment.
#[must_use]
pub(crate) fn peer_cluster(
    geom: &DatasetGeom,
    nodes: usize,
    sharding: Sharding,
    seed: u64,
    epochs: usize,
) -> ClusterReport {
    let cfg = ClusterConfig {
        monarch_ssd_capacity: Some(geom.total_bytes() / 16),
        ..ClusterConfig::monarch_peer(nodes, sharding)
    };
    let (model, env) = (ModelProfile::lenet(), EnvConfig::default());
    let pipeline = PipelineConfig::default().with_seed(seed);
    ClusterTrainer::new(cfg, geom.clone(), model, pipeline, env).run(epochs)
}

/// Print rows of JSON objects as a console table, one column per key of
/// the first row. Numbers are rounded for reading, arrays of numbers are
/// joined with `/`, and nested documents show only their size.
pub(crate) fn print_table(rows: &[Value]) {
    let Some(Value::Object(first)) = rows.first() else {
        return;
    };
    let keys: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    let mut lines = vec![keys.iter().map(|k| k.to_string()).collect::<Vec<_>>()];
    lines.extend(
        rows.iter()
            .map(|r| keys.iter().map(|k| cell(&r[*k])).collect()),
    );
    let width = |i: usize| lines.iter().map(|l| l[i].len()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..keys.len()).map(width).collect();
    for line in &lines {
        let padded: Vec<String> = (line.iter().zip(&keys).zip(&widths))
            .map(|((t, k), &w)| match first[*k] {
                Value::String(_) => format!("{t:<w$}"),
                _ => format!("{t:>w$}"),
            })
            .collect();
        println!("{}", padded.join("  "));
    }
}

fn cell(v: &Value) -> String {
    let number = |x: &Value| matches!(x, Value::Int(_) | Value::UInt(_) | Value::Float(_));
    match v {
        Value::Float(x) if x.abs() >= 100.0 || *x == 0.0 => format!("{x:.0}"),
        Value::Float(x) if x.abs() >= 1.0 => format!("{x:.1}"),
        Value::Float(x) => format!("{x:.3}"),
        Value::String(s) => s.clone(),
        Value::Array(xs) if xs.iter().all(number) => {
            xs.iter().map(cell).collect::<Vec<_>>().join("/")
        }
        Value::Array(xs) => format!("[{} items]", xs.len()),
        Value::Object(m) => format!("{{{} keys}}", m.len()),
        other => other.to_string(),
    }
}

/// Where JSON results land.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MONARCH_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Persist a result document as pretty JSON under `results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create results file");
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    f.write_all(json.as_bytes()).expect("write results");
    println!("\n[saved {}]", path.display());
}

/// Percentage reduction of `new` versus `baseline`.
#[must_use]
pub fn reduction_pct(baseline: f64, new: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - new) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpipe::report::TrialSummary;

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(100.0, 76.0) - 24.0).abs() < 1e-12);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn print_table_renders_any_rows() {
        let text = r#"[{"setup": "a", "secs": [1.5, 300.0, 0.25], "n": 3, "doc": {"x": 1}}]"#;
        let rows: Vec<Value> = serde_json::from_str(text).unwrap();
        assert_eq!(cell(&rows[0]["secs"]), "1.5/300/0.250");
        assert_eq!(cell(&rows[0]["doc"]), "{1 keys}");
        assert_eq!(cell(&rows[0]["n"]), "3");
        print_table(&rows);
        print_table(&[]);
    }

    #[test]
    fn trials_env_override() {
        // Default path (env var may be set by the harness; just check > 0).
        assert!(trials() > 0);
    }

    #[test]
    fn mini_trial_summary_works() {
        let geom = DatasetGeom::miniature("t", 4096, 3);
        let runs = trial_runs(
            &Setup::VanillaLocal,
            &geom,
            &ModelProfile::lenet(),
            &EnvConfig::default(),
            2,
            2,
        );
        let s = TrialSummary::from_runs(&runs);
        assert_eq!(s.epoch_mean.len(), 2);
        assert!(s.total_mean > 0.0);
    }
}
