//! Shared experiment harness for the MONARCH reproduction.
//!
//! Every figure and quantitative table of the paper has a binary in
//! `src/bin/` that drives [`run_trials`] with the right workload and
//! prints rows in the paper's format; results are also dumped as JSON
//! under `results/` so `EXPERIMENTS.md` can cite exact numbers.

pub mod snapshot;

use std::io::Write as _;
use std::path::PathBuf;

use dlpipe::config::{EnvConfig, PipelineConfig, Setup};
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;
use dlpipe::report::{RunReport, TrialSummary};
use dlpipe::sim::SimTrainer;
use serde::Serialize;

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

/// Run `n` seeded trials of one configuration and summarise them.
#[must_use]
pub fn run_trials(
    setup: &Setup,
    geom: &DatasetGeom,
    model: &ModelProfile,
    env: &EnvConfig,
    n: u64,
    epochs: usize,
) -> TrialSummary {
    let runs: Vec<RunReport> = (0..n)
        .map(|t| {
            let pipeline = PipelineConfig::default().with_seed(0xbeef + t * 7919);
            SimTrainer::new(
                setup.clone(),
                geom.clone(),
                model.clone(),
                pipeline,
                env.clone(),
            )
            .run(epochs)
        })
        .collect();
    TrialSummary::from_runs(&runs)
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

/// Print a figure-style table: one row per (setup, model) with per-epoch
/// mean ± std and the total.
pub fn print_epoch_table(title: &str, rows: &[TrialSummary]) {
    println!("\n## {title}");
    println!(
        "{:<16} {:<9} {:>14} {:>14} {:>14} {:>12}",
        "setup", "model", "epoch1 (s)", "epoch2 (s)", "epoch3 (s)", "total (s)"
    );
    for r in rows {
        let cell = |i: usize| {
            if i < r.epoch_mean.len() {
                format!("{:7.0} +-{:3.0}", r.epoch_mean[i], r.epoch_std[i])
            } else {
                String::from("-")
            }
        };
        println!(
            "{:<16} {:<9} {:>14} {:>14} {:>14} {:>12.0}",
            r.setup,
            r.model,
            cell(0),
            cell(1),
            cell(2),
            r.total_mean
        );
    }
}

/// Print the resource-usage table (§II-A / §IV-B prose).
pub fn print_resource_table(title: &str, rows: &[TrialSummary]) {
    println!("\n## {title}");
    println!(
        "{:<16} {:<9} {:>9} {:>9}",
        "setup", "model", "cpu %", "gpu %"
    );
    for r in rows {
        println!(
            "{:<16} {:<9} {:>8.0}% {:>8.0}%",
            r.setup,
            r.model,
            r.cpu_util * 100.0,
            r.gpu_util * 100.0
        );
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

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(100.0, 76.0) - 24.0).abs() < 1e-12);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn trials_env_override() {
        // Default path (env var may be set by the harness; just check > 0).
        assert!(trials() > 0);
    }

    #[test]
    fn mini_trial_summary_works() {
        let geom = DatasetGeom::miniature("t", 4096, 3);
        let s = run_trials(
            &Setup::VanillaLocal,
            &geom,
            &ModelProfile::lenet(),
            &EnvConfig::default(),
            2,
            2,
        );
        assert_eq!(s.epoch_mean.len(), 2);
        assert!(s.total_mean > 0.0);
    }
}
