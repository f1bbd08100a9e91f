//! Quickstart: put MONARCH between a reader and a two-tier storage
//! hierarchy on your own machine.
//!
//! This example stages a small synthetic TFRecord dataset in a temporary
//! "PFS" directory, mounts a capacity-limited "SSD" cache directory above
//! it, and reads the dataset twice — printing where the bytes came from
//! each time.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::Monarch;
use monarch::tfrecord::synth::{generate, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("monarch-quickstart-{}", std::process::id()));
    let pfs_dir = root.join("pfs");
    let ssd_dir = root.join("ssd");
    let _ = std::fs::remove_dir_all(&root);

    // 1. Stage a ~4 MiB synthetic ImageNet-style dataset on the "PFS".
    let spec = DatasetSpec::miniature(4 << 20, 256, 7);
    let ds = generate(&spec, &pfs_dir)?;
    println!(
        "staged {} records in {} shards ({} KiB) under {}",
        ds.total_records,
        ds.shards.len(),
        ds.total_bytes >> 10,
        pfs_dir.display()
    );

    // 2. Configure MONARCH: SSD tier (capacity-limited) above the PFS.
    let cfg = MonarchConfig {
        pool_threads: 6,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", ssd_dir.to_string_lossy().to_string())
                .with_capacity(ds.total_bytes), // full fit
            TierConfig::posix("pfs", pfs_dir.to_string_lossy().to_string()),
        ])
    };
    let monarch = Arc::new(Monarch::new(cfg)?);
    let report = monarch.init()?;
    println!(
        "namespace initialised: {} files, {} KiB, {:?}",
        report.files,
        report.bytes >> 10,
        report.elapsed
    );

    // 3. Epoch 1: read every shard in 64 KiB chunks (as a DL framework
    //    would); MONARCH serves from the PFS and places in the background.
    let mut buf = vec![0u8; 64 << 10];
    for epoch in 1..=2 {
        for shard in &ds.shards {
            let name = shard.file_name().unwrap().to_string_lossy();
            let size = monarch.file_size(&name)?;
            let mut offset = 0;
            while offset < size {
                let n = monarch.read(&name, offset, &mut buf)?;
                offset += n as u64;
            }
        }
        monarch.wait_placement_idle();
        let stats = monarch.stats();
        println!(
            "epoch {epoch}: ssd reads={:<4} pfs reads={:<4} copies done={} (hit ratio {:.0}%)",
            stats.tiers[0].reads,
            stats.tiers[1].reads,
            stats.copies_completed,
            stats.local_hit_ratio() * 100.0
        );
    }

    let final_stats = monarch.stats();
    assert!(
        final_stats.local_hit_ratio() > 0.4,
        "second epoch should hit the SSD"
    );
    println!("done — epoch 2 was served from the local tier.");
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
