//! Partial-fit caching on a real file system: the scenario TensorFlow's
//! `Dataset.cache()` cannot handle (paper §II summary) but MONARCH can —
//! the local tier holds only half the dataset, and MONARCH fills it
//! first-fit, leaving the rest on the "PFS" with **no eviction churn**.
//!
//! Run with: `cargo run --release --example partial_cache`

use std::sync::Arc;

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::Monarch;
use monarch::dlpipe::config::PipelineConfig;
use monarch::dlpipe::real::{RealBackend, RealTrainer};
use monarch::tfrecord::synth::{generate, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("monarch-partial-{}", std::process::id()));
    let pfs_dir = root.join("pfs");
    let ssd_dir = root.join("ssd");
    let _ = std::fs::remove_dir_all(&root);

    let spec = DatasetSpec::miniature(8 << 20, 512, 11);
    let ds = generate(&spec, &pfs_dir)?;
    let half = ds.total_bytes / 2;
    println!(
        "dataset {} KiB across {} shards; local tier quota {} KiB (50%)",
        ds.total_bytes >> 10,
        ds.shards.len(),
        half >> 10
    );

    let cfg = MonarchConfig {
        pool_threads: 4,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", ssd_dir.to_string_lossy().to_string()).with_capacity(half),
            TierConfig::posix("pfs", pfs_dir.to_string_lossy().to_string()),
        ])
    };
    let monarch = Arc::new(Monarch::new(cfg)?);
    monarch.init()?;

    let trainer = RealTrainer::new(
        RealBackend::Monarch(Arc::clone(&monarch)),
        &pfs_dir,
        PipelineConfig {
            readers: 4,
            chunk_bytes: 32 << 10,
            prefetch_batches: 2,
            seed: 3,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
    )?;

    for epoch in 1..=3 {
        let before = monarch.stats();
        let e = trainer.run_epoch(epoch - 1)?;
        monarch.wait_placement_idle();
        let after = monarch.stats();
        println!(
            "epoch {epoch}: {:5.2}s wall, {} chunk reads — local {:>4} / pfs {:>4}, evictions {}",
            e.seconds,
            e.chunk_reads,
            after.tiers[0].reads - before.tiers[0].reads,
            after.tiers[1].reads - before.tiers[1].reads,
            after.evictions
        );
    }

    let stats = monarch.stats();
    let hist = monarch.metadata().residency_histogram(2);
    println!(
        "\nplacements: {} completed, {} skipped (no room), residency ssd/pfs = {}/{}",
        stats.copies_completed, stats.placement_skipped, hist[0], hist[1]
    );
    assert_eq!(stats.evictions, 0, "FirstFit never evicts");
    assert!(
        stats.placement_skipped > 0,
        "half the dataset must stay on the PFS"
    );
    println!("no evictions, stable partial placement — as designed (§III-A).");
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
