//! Chaos end-to-end: a real TFRecord dataset on a real tempdir hierarchy
//! whose fast tier fails mid-epoch. Every read must keep returning correct
//! bytes (degraded service from the PFS, never an error), the breaker must
//! quarantine the tier, and a half-open probe must re-admit it once the
//! outage clears.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use monarch::core::driver::{FlakyDriver, PosixDriver, StorageDriver};
use monarch::core::health::HealthConfig;
use monarch::core::hierarchy::StorageHierarchy;
use monarch::core::middleware::Monarch;
use monarch::core::MonarchBuilder;
use monarch::tfrecord::synth::{generate, DatasetSpec};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Dataset + middleware with the local tier wrapped in a [`FlakyDriver`]:
/// returns the facade, the shard names, their expected bytes, and the
/// shared outage switch.
fn chaos_rig(
    root: &Path,
    capacity: u64,
) -> (
    Monarch,
    Vec<String>,
    Vec<Vec<u8>>,
    Arc<std::sync::atomic::AtomicBool>,
) {
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 128, 21);
    let ds = generate(&spec, &data).unwrap();
    let flaky = Arc::new(FlakyDriver::new(
        PosixDriver::new("ssd", root.join("ssd")).unwrap(),
    ));
    let switch = flaky.outage_switch();
    let cap = if capacity == 0 {
        ds.total_bytes
    } else {
        capacity
    };
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::clone(&flaky) as Arc<dyn StorageDriver>,
            Some(cap),
        ),
        (
            "pfs".into(),
            Arc::new(PosixDriver::new("pfs", &data).unwrap()),
            None,
        ),
    ])
    .unwrap();
    // Short probe cooldown so recovery happens within the test.
    hierarchy.health().set_config(HealthConfig {
        probe_cooldown_us: 1_000,
    });
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(4)
        .build()
        .unwrap();
    m.init().unwrap();
    let names: Vec<String> = ds
        .shards
        .iter()
        .map(|s| s.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    let bytes: Vec<Vec<u8>> = ds.shards.iter().map(|p| fs::read(p).unwrap()).collect();
    (m, names, bytes, switch)
}

#[test]
fn mid_epoch_outage_serves_every_read_and_readmits_the_tier() {
    let root = tmp("outage");
    let (m, names, expected, switch) = chaos_rig(&root, 0);

    // Epoch 1: demand placement stages everything onto the SSD tier.
    for (name, want) in names.iter().zip(&expected) {
        assert_eq!(&m.read_full(name).unwrap(), want);
    }
    m.wait_placement_idle();
    let placed = m.metadata().residency_histogram(2)[0];
    assert_eq!(placed as usize, names.len(), "epoch 1 placed every shard");

    // Epoch 2: the SSD dies over the middle half of the epoch. Zero read
    // errors allowed — degraded reads fall back to the PFS.
    let n = names.len();
    for (i, (name, want)) in names.iter().zip(&expected).enumerate() {
        if i == n / 4 {
            switch.store(true, Ordering::Release);
        }
        if i == (3 * n) / 4 {
            switch.store(false, Ordering::Release);
            // Let the re-armed probe cooldown lapse so recovery can
            // happen inside this epoch.
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            &m.read_full(name).unwrap(),
            want,
            "read {i} must survive the outage"
        );
    }
    let s = m.stats();
    assert!(s.tier_quarantines >= 1, "breaker tripped: {s:?}");
    assert!(s.degraded_reads > 0, "outage reads fell back: {s:?}");
    assert!(s.read_retries > 0, "transient faults retried first: {s:?}");
    assert!(s.tier_recoveries >= 1, "probe re-admitted the tier: {s:?}");
    let h = m.hierarchy().health().snapshot();
    assert!(!h.degraded, "tier re-admitted after the outage: {h:?}");
    assert_eq!(h.tiers[0].state, "closed");
    assert!(h.tiers[0].quarantines >= 1);
    assert!(h.tiers[0].recoveries >= 1);

    // Epoch 3: fully local again, no degraded service left.
    let before = m.stats();
    for (name, want) in names.iter().zip(&expected) {
        assert_eq!(&m.read_full(name).unwrap(), want);
    }
    let after = m.stats();
    assert_eq!(
        after.degraded_reads, before.degraded_reads,
        "no degraded reads after re-admission"
    );
    assert_eq!(
        after.tiers[0].reads - before.tiers[0].reads,
        n as u64,
        "every post-recovery read is local"
    );
    m.shutdown();
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn copies_requeue_over_an_outage_and_land_after_recovery() {
    let root = tmp("requeue");
    let (m, names, expected, switch) = chaos_rig(&root, 0);

    // Stage the first shard so the tier has a resident file (the read
    // path's half-open probe runs against resident files).
    assert_eq!(&m.read_full(&names[0]).unwrap(), &expected[0]);
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_completed, 1);

    // Outage: reading a second shard still succeeds (served from the
    // PFS), but its write-back cannot land — the copy is requeued, not
    // pinned, and the tier quarantines from the install failures.
    switch.store(true, Ordering::Release);
    assert_eq!(&m.read_full(&names[1]).unwrap(), &expected[1]);
    m.wait_placement_idle();
    let s = m.stats();
    assert!(
        s.copy_requeues + s.copies_failed >= 1,
        "write-back could not land: {s:?}"
    );
    assert_eq!(
        s.copies_completed, 1,
        "no new copy landed during the outage"
    );
    assert!(m.hierarchy().health().snapshot().degraded);

    // Recovery: a read of the resident shard wins the probe and
    // re-admits the tier; the requeued shard then places on its next
    // touch.
    switch.store(false, Ordering::Release);
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(&m.read_full(&names[0]).unwrap(), &expected[0]);
    assert!(!m.hierarchy().health().snapshot().degraded);
    assert_eq!(&m.read_full(&names[1]).unwrap(), &expected[1]);
    m.wait_placement_idle();
    assert_eq!(m.metadata().get(&names[1]).unwrap().tier, 0, "re-admitted");
    assert!(m.stats().copies_completed >= 2);
    m.shutdown();
    fs::remove_dir_all(&root).unwrap();
}
