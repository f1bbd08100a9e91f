//! Cross-crate integration: a real TFRecord dataset on disk, streamed by
//! the real pipeline through the real middleware — epoch by epoch — with
//! byte-level verification against the generator.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use monarch::core::config::{MonarchConfig, PolicyKind, TierConfig};
use monarch::core::Monarch;
use monarch::dlpipe::config::PipelineConfig;
use monarch::dlpipe::real::{RealBackend, RealTrainer};
use monarch::tfrecord::synth::{generate, parse_sample_header, DatasetSpec};
use monarch::tfrecord::RecordReader;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        readers: 4,
        chunk_bytes: 16 << 10,
        prefetch_batches: 2,
        seed: 5,
        trace_interval_secs: None,
        ..PipelineConfig::default()
    }
}

/// Read every record of every shard through MONARCH and verify each
/// sample's embedded id/label header.
#[test]
fn records_decode_correctly_through_monarch() {
    let root = tmp("decode");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 128, 77);
    let ds = generate(&spec, &data).unwrap();

    let cfg = MonarchConfig {
        pool_threads: 4,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Monarch::new(cfg).unwrap();
    m.init().unwrap();

    for pass in 0..2 {
        let mut ids = Vec::new();
        for shard in &ds.shards {
            let name = shard.file_name().unwrap().to_string_lossy();
            let bytes = m.read_full(&name).unwrap();
            let mut r = RecordReader::new(std::io::Cursor::new(&bytes));
            while let Some(rec) = r.next_record_ref().unwrap() {
                let (id, label) = parse_sample_header(rec).unwrap();
                assert_eq!(label, id % 1000);
                ids.push(id);
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..128).collect::<Vec<u64>>(), "pass {pass}");
        m.wait_placement_idle();
    }
    // Second pass came from the SSD tier.
    let stats = m.stats();
    assert!(stats.copies_completed > 0);
    assert!(stats.tiers[0].reads > 0);
    fs::remove_dir_all(&root).unwrap();
}

/// The three real setups deliver identical data (fingerprint equality) and
/// MONARCH's PFS traffic drops after the first epoch.
#[test]
fn setups_agree_and_pfs_traffic_drops() {
    let root = tmp("agree");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(2 << 20, 192, 13);
    let ds = generate(&spec, &data).unwrap();

    let direct = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        pipeline(),
    )
    .unwrap();
    let baseline = direct.run_epoch(0).unwrap();

    let cfg = MonarchConfig {
        pool_threads: 6,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();
    let monarch_t =
        RealTrainer::new(RealBackend::Monarch(Arc::clone(&m)), &data, pipeline()).unwrap();

    // Epoch 1 triggers placement; drain it before epochs 2-3 so the
    // local-tier handoff is deterministic (on a loaded machine three tiny
    // epochs can otherwise outrun the copy pool entirely).
    let mut epochs = vec![monarch_t.run_epoch(0).unwrap()];
    m.wait_placement_idle();
    epochs.extend(monarch_t.run(2).unwrap());
    for (i, e) in epochs.iter().enumerate() {
        assert_eq!(e.fingerprint, baseline.fingerprint, "epoch {i} fingerprint");
        assert_eq!(e.bytes, baseline.bytes, "epoch {i} bytes");
    }
    m.wait_placement_idle();
    let stats = m.stats();
    // Across 3 epochs the local tier must dominate: at most one epoch's
    // worth of chunks (plus background fetches) hit the PFS.
    assert!(
        stats.tiers[0].reads > stats.tiers[1].reads,
        "local should dominate over 3 epochs: {stats:?}"
    );
    fs::remove_dir_all(&root).unwrap();
}

/// Partial fit on disk: quota is respected, no evictions, skipped files
/// stay on the PFS, and every byte is still correct.
#[test]
fn partial_fit_respects_quota_without_eviction() {
    let root = tmp("partial");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(2 << 20, 256, 29);
    let ds = generate(&spec, &data).unwrap();
    let quota = ds.total_bytes * 2 / 5;

    let cfg = MonarchConfig {
        pool_threads: 4,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(quota),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();
    let t = RealTrainer::new(RealBackend::Monarch(Arc::clone(&m)), &data, pipeline()).unwrap();

    let baseline = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        pipeline(),
    )
    .unwrap()
    .run_epoch(0)
    .unwrap();

    for epoch in 0..3 {
        let e = t.run_epoch(epoch).unwrap();
        assert_eq!(e.fingerprint, baseline.fingerprint, "epoch {epoch}");
        m.wait_placement_idle();
        let used = m
            .hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used();
        assert!(used <= quota, "quota exceeded: {used} > {quota}");
    }
    let stats = m.stats();
    assert_eq!(stats.evictions, 0);
    assert!(
        stats.placement_skipped > 0,
        "some files must be left behind"
    );
    assert!(stats.copies_completed > 0, "some files must be placed");
    // On-disk usage of the cache dir also respects the quota.
    let cache_bytes: u64 = fs::read_dir(root.join("ssd"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .map(|md| md.len())
        .sum();
    assert!(
        cache_bytes <= quota,
        "on-disk {cache_bytes} > quota {quota}"
    );
    fs::remove_dir_all(&root).unwrap();
}

/// LRU-eviction ablation policy on a real hierarchy: middleware keeps
/// serving correct bytes while files churn in and out of the cache tier.
#[test]
fn lru_ablation_serves_correct_bytes_under_churn() {
    let root = tmp("lru");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 96, 31);
    let ds = generate(&spec, &data).unwrap();

    let cfg = MonarchConfig {
        pool_threads: 2,
        policy: PolicyKind::LruEvict,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes / 3),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();
    let t = RealTrainer::new(RealBackend::Monarch(Arc::clone(&m)), &data, pipeline()).unwrap();

    let baseline = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        pipeline(),
    )
    .unwrap()
    .run_epoch(0)
    .unwrap();

    for epoch in 0..3 {
        let e = t.run_epoch(epoch).unwrap();
        assert_eq!(e.fingerprint, baseline.fingerprint, "epoch {epoch}");
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert!(
        stats.evictions > 0,
        "LRU under pressure must evict: {stats:?}"
    );
    fs::remove_dir_all(&root).unwrap();
}

/// Ephemerality (§III-A metadata container): a fresh middleware instance
/// over the same directories starts from a clean namespace — nothing from
/// the previous job leaks, and pre-existing cache-tier files are simply
/// overwritten on the next placement.
#[test]
fn namespace_is_ephemeral_across_instances() {
    let root = tmp("ephemeral");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(512 << 10, 48, 41);
    let ds = generate(&spec, &data).unwrap();
    let mk = || {
        let cfg = MonarchConfig {
            pool_threads: 2,
            ..MonarchConfig::new(vec![
                TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                    .with_capacity(ds.total_bytes),
                TierConfig::posix("pfs", data.to_string_lossy().to_string()),
            ])
        };
        let m = Monarch::new(cfg).unwrap();
        m.init().unwrap();
        m
    };

    let m1 = mk();
    let name = ds.shards[0]
        .file_name()
        .unwrap()
        .to_string_lossy()
        .to_string();
    let bytes1 = m1.read_full(&name).unwrap();
    m1.wait_placement_idle();
    assert_eq!(m1.metadata().get(&name).unwrap().tier, 0);
    drop(m1.shutdown());

    // Second job: namespace starts over; the file is "on the PFS" again.
    let m2 = mk();
    let info = m2.metadata().get(&name).unwrap();
    assert_eq!(info.tier, 1, "fresh instance must not remember placements");
    assert_eq!(info.reads, 0);
    let bytes2 = m2.read_full(&name).unwrap();
    assert_eq!(bytes1, bytes2);
    // That read started a background copy into `ssd/`: let it land and
    // stop the instance before deleting the directory under it.
    m2.wait_placement_idle();
    drop(m2.shutdown());
    fs::remove_dir_all(&root).unwrap();
}

/// A sequential first epoch crosses the PFS once: each file's first chunk
/// is read directly, everything after it comes out of the file's in-flight
/// copy (or, once that landed, off the SSD tier).
#[test]
fn sequential_cold_epoch_reads_every_pfs_byte_once() {
    let root = tmp("once");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(4 << 20, 256, 53);
    let ds = generate(&spec, &data).unwrap();
    let cfg = MonarchConfig {
        pool_threads: 2,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Monarch::new(cfg).unwrap();
    m.init().unwrap();

    let mut buf = vec![0u8; 48 << 10];
    for shard in &ds.shards {
        let name = shard.file_name().unwrap().to_string_lossy();
        let want = fs::read(shard).unwrap();
        let mut offset = 0;
        while offset < want.len() {
            let n = m.read(&name, offset as u64, &mut buf).unwrap();
            assert!(
                n > 0 && buf[..n] == want[offset..offset + n],
                "{name} at {offset}"
            );
            offset += n;
        }
        // These files come out of the page cache faster than two workers
        // install them; a reader that far ahead of the pool is sent to the
        // PFS rather than allowed to fill copy after copy in memory.
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert_eq!(stats.tiers[1].bytes_read, ds.total_bytes, "{stats:?}");
    assert_eq!(stats.tiers[0].bytes_written, ds.total_bytes);
    assert_eq!(
        m.metadata().residency_histogram(2),
        vec![ds.shards.len() as u64, 0],
        "every file placed"
    );
    drop(m.shutdown());
    fs::remove_dir_all(&root).unwrap();
}

/// The cache tier is never the source of truth: whatever a tier directory
/// holds under a dataset file's name when an instance starts — here the
/// torn leftover of an install that was never synced — is not adopted, is
/// never served, and is replaced by the first placement.
#[test]
fn leftovers_in_a_tier_directory_are_never_served() {
    let root = tmp("leftover");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(512 << 10, 48, 61);
    let ds = generate(&spec, &data).unwrap();
    let shard = &ds.shards[0];
    let name = shard.file_name().unwrap().to_string_lossy().to_string();
    let want = fs::read(shard).unwrap();
    let ssd = root.join("ssd");
    fs::create_dir_all(&ssd).unwrap();
    fs::write(ssd.join(&name), vec![0xEEu8; want.len() / 2]).unwrap();

    let cfg = MonarchConfig {
        pool_threads: 2,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", ssd.to_string_lossy().to_string())
                .with_capacity(ds.total_bytes),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Monarch::new(cfg).unwrap();
    m.init().unwrap();
    let info = m.metadata().get(&name).unwrap();
    assert_eq!(info.tier, 1, "the leftover is not adopted");
    assert_eq!(info.size, want.len() as u64);
    let mut buf = vec![0u8; 64 << 10];
    let n = m.read(&name, 0, &mut buf).unwrap();
    assert!(buf[..n] == want[..n], "the first read is the PFS's bytes");
    m.wait_placement_idle();
    assert_eq!(m.metadata().get(&name).unwrap().tier, 0);
    assert!(
        fs::read(ssd.join(&name)).unwrap() == want,
        "placement replaced it"
    );
    assert!(m.read_full(&name).unwrap() == want);
    drop(m.shutdown());
    fs::remove_dir_all(&root).unwrap();
}
