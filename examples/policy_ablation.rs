//! The policy ablation of DESIGN §11: every composed policy triple on
//! the congested-PFS partial-cache scenario — fast tier at 50% of the
//! dataset, clairvoyant lookahead 64, three epochs, seed 1. The paper's
//! no-eviction first-fit strands half the shards on the slow PFS
//! forever; eviction-capable policies recycle the quota behind the
//! access plan and win on wall time. Reproduces the `sim_policy/*` rows
//! of `results/sim_epoch.json` (plus the selectors the model gate does not
//! pin) and the EXPERIMENTS.md ablation table.
//!
//! Run with: `cargo run --release --example policy_ablation`

use monarch::core::config::PolicyKind;
use monarch::dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use monarch::dlpipe::geometry::DatasetGeom;
use monarch::dlpipe::models::ModelProfile;
use monarch::dlpipe::sim::SimTrainer;

fn sweep(title: &str, pipeline: &PipelineConfig) {
    let geom = DatasetGeom::miniature("policy-bench", 16_384, 42);
    let cap = geom.total_bytes() / 2;
    println!("{title}");
    println!(
        "{:<12} {:>8}  {:<20} {:>9} {:>8}",
        "policy", "total", "epochs (s)", "evicted", "pfs ops"
    );
    for kind in PolicyKind::all() {
        let r = SimTrainer::new(
            Setup::Monarch(MonarchSimConfig::policy_ablation(kind, cap)),
            geom.clone(),
            ModelProfile::lenet(),
            pipeline.clone(),
            EnvConfig::congested_pfs(),
        )
        .run(3);
        let t = r.telemetry.as_ref().expect("monarch attaches telemetry");
        let epochs: Vec<String> = r
            .epochs
            .iter()
            .map(|e| format!("{:.1}", e.seconds))
            .collect();
        println!(
            "{:<12} {:>7.1}s  {:<20} {:>9} {:>8}",
            kind.as_str(),
            r.total_seconds(),
            epochs.join(" / "),
            t.stats.evictions,
            r.pfs_ops(),
        );
    }
}

fn main() {
    let geom = DatasetGeom::miniature("policy-bench", 16_384, 42);
    println!(
        "dataset {:.1} GiB across {} shards; fast-tier quota 50%; congested PFS; lookahead 64\n",
        geom.total_bytes() as f64 / f64::from(1u32 << 30),
        geom.num_shards(),
    );
    sweep(
        "partial cache — uniform one-pass epochs:",
        &PipelineConfig::default().with_seed(1),
    );
    println!();
    sweep(
        "two-job contention — first 4 shards re-read 4 extra times per epoch:",
        &PipelineConfig {
            hot_shards: 4,
            hot_replays: 4,
            ..PipelineConfig::default().with_seed(1)
        },
    );
}
