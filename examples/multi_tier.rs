//! Multi-level hierarchy (paper §VI, "consider more storage layers"):
//! RAM over SSD over PFS on a real file system, with the paper's
//! first-fit placement filling the fastest tier first.
//!
//! Run with: `cargo run --release --example multi_tier`

use std::sync::Arc;

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::Monarch;
use monarch::tfrecord::synth::{generate, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("monarch-tiers-{}", std::process::id()));
    let pfs_dir = root.join("pfs");
    let ssd_dir = root.join("ssd");
    let _ = std::fs::remove_dir_all(&root);

    let spec = DatasetSpec::miniature(6 << 20, 384, 23);
    let ds = generate(&spec, &pfs_dir)?;
    println!(
        "dataset {} KiB in {} shards",
        ds.total_bytes >> 10,
        ds.shards.len()
    );

    // Three levels: a small in-memory tier, a medium SSD tier, the PFS.
    let ram_cap = ds.total_bytes / 4;
    let ssd_cap = ds.total_bytes / 2;
    let cfg = MonarchConfig {
        pool_threads: 4,
        ..MonarchConfig::new(vec![
            TierConfig::mem("ram").with_capacity(ram_cap),
            TierConfig::posix("ssd", ssd_dir.to_string_lossy().to_string()).with_capacity(ssd_cap),
            TierConfig::posix("pfs", pfs_dir.to_string_lossy().to_string()),
        ])
    };
    let monarch = Arc::new(Monarch::new(cfg)?);
    monarch.init()?;
    println!(
        "hierarchy: ram {} KiB / ssd {} KiB / pfs (source), {} levels",
        ram_cap >> 10,
        ssd_cap >> 10,
        monarch.hierarchy().levels()
    );

    // Stream the dataset once to trigger placement.
    let mut buf = vec![0u8; 64 << 10];
    for shard in &ds.shards {
        let name = shard.file_name().unwrap().to_string_lossy();
        let size = monarch.file_size(&name)?;
        let mut offset = 0;
        while offset < size {
            offset += monarch.read(&name, offset, &mut buf)? as u64;
        }
    }
    monarch.wait_placement_idle();

    let hist = monarch.metadata().residency_histogram(3);
    println!(
        "residency after one pass: ram={} ssd={} pfs={}",
        hist[0], hist[1], hist[2]
    );
    assert!(hist[0] > 0, "fastest tier must fill first (first-fit)");
    assert!(hist[1] > 0, "overflow goes to the SSD tier");
    assert!(hist[2] > 0, "the rest stays on the PFS");

    // The RAM tier must be filled before the SSD tier received anything:
    // verify quota exhaustion ordering.
    let ram_quota = monarch.hierarchy().tier(0)?.quota.as_ref().unwrap();
    println!(
        "ram quota used {}/{} KiB; ssd used {} KiB",
        ram_quota.used() >> 10,
        ram_quota.capacity() >> 10,
        monarch.hierarchy().tier(1)?.quota.as_ref().unwrap().used() >> 10
    );
    let smallest_shard = ds
        .shards
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok().map(|m| m.len()))
        .min()
        .unwrap_or(0);
    assert!(
        ram_quota.free() < smallest_shard,
        "ram should have no room for another shard before ssd fills"
    );

    // Second pass: everything placed is served from fast tiers.
    let before = monarch.stats();
    for shard in &ds.shards {
        let name = shard.file_name().unwrap().to_string_lossy();
        let size = monarch.file_size(&name)?;
        let mut offset = 0;
        while offset < size {
            offset += monarch.read(&name, offset, &mut buf)? as u64;
        }
    }
    let after = monarch.stats();
    println!(
        "second pass reads: ram {} / ssd {} / pfs {}",
        after.tiers[0].reads - before.tiers[0].reads,
        after.tiers[1].reads - before.tiers[1].reads,
        after.tiers[2].reads - before.tiers[2].reads,
    );
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
