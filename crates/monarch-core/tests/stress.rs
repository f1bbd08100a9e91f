//! Concurrency stress tests: many reader threads hammering the middleware
//! while placements, failures and (for the ablation policy) evictions run
//! underneath. These are the conditions the paper's "all MONARCH modules
//! are thread-safe" claim has to survive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use monarch_core::config::{AdmissionKind, PolicyKind};
use monarch_core::driver::{FlakyDriver, FlakyOutcome, MemDriver, StorageDriver};
use monarch_core::hierarchy::StorageHierarchy;
use monarch_core::metadata::{MetadataContainer, PlacementState};
use monarch_core::{MonarchBuilder, PolicyEngine, StatsSnapshot, TelemetrySnapshot};

/// Stage `n` files of `size` bytes with deterministic contents.
fn stage(n: usize, size: usize) -> MemDriver {
    let pfs = MemDriver::new("pfs");
    for i in 0..n {
        let data: Vec<u8> = (0..size).map(|j| ((i * 31 + j) % 251) as u8).collect();
        pfs.insert(&format!("f{i:04}"), data);
    }
    pfs
}

fn hierarchy(pfs: MemDriver, cap: u64) -> StorageHierarchy {
    StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
            Some(cap),
        ),
        ("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None),
    ])
    .unwrap()
}

/// Every byte served concurrently is correct, across 8 threads × 3 passes
/// over a partially-fitting dataset.
#[test]
fn concurrent_reads_are_always_correct() {
    const FILES: usize = 40;
    const SIZE: usize = 4096;
    let pfs = stage(FILES, SIZE);
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy(pfs, (FILES as u64 * SIZE as u64) / 2))
            .policy(PolicyKind::FirstFit)
            .pool_threads(4)
            .build()
            .unwrap(),
    );
    m.init().unwrap();

    let errors = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..8 {
            let m = Arc::clone(&m);
            let errors = Arc::clone(&errors);
            s.spawn(move || {
                let mut buf = vec![0u8; 1024];
                for pass in 0..3 {
                    for i in 0..FILES {
                        let name = format!("f{i:04}");
                        let offset = ((t * 97 + pass * 13 + i) % (SIZE - 100)) as u64;
                        let n = m.read(&name, offset, &mut buf).unwrap();
                        for (j, &b) in buf[..n].iter().enumerate() {
                            let expect = ((i * 31 + offset as usize + j) % 251) as u8;
                            if b != expect {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "byte corruption under concurrency"
    );
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(
        stats.copies_scheduled,
        stats.copies_completed + stats.placement_skipped
    );
    let used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();
    assert!(used <= (FILES as u64 * SIZE as u64) / 2);
}

/// Random write failures during placement never corrupt served data or
/// leak quota; retries eventually converge.
#[test]
fn fault_storm_leaves_state_consistent() {
    const FILES: usize = 24;
    const SIZE: usize = 2048;
    let pfs = stage(FILES, SIZE);
    let faulty = FlakyDriver::new(MemDriver::new("ssd"));
    faulty.script_writes([FlakyOutcome::Injected; 15]);
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(faulty) as Arc<dyn StorageDriver>,
            Some(u64::MAX / 2),
        ),
        ("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None),
    ])
    .unwrap();
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy)
            .policy(PolicyKind::FirstFit)
            .pool_threads(3)
            .build()
            .unwrap(),
    );
    m.init().unwrap();

    // Several passes so failed placements get retried on later touches.
    for _ in 0..4 {
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut buf = vec![0u8; SIZE];
                    for i in 0..FILES {
                        let name = format!("f{i:04}");
                        let n = m.read(&name, 0, &mut buf).unwrap();
                        assert_eq!(n, SIZE);
                        assert_eq!(buf[0], ((i * 31) % 251) as u8);
                    }
                });
            }
        });
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert!(
        stats.copies_failed > 0,
        "the fault budget should have fired"
    );
    assert_eq!(
        stats.copies_completed, FILES as u64,
        "every file placed eventually"
    );
    // Quota equals exactly the resident bytes (no leaked reservations).
    let used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();
    assert_eq!(used, (FILES * SIZE) as u64);
}

/// LRU churn under concurrency: quota invariant and data correctness hold
/// while files move in and out of the cache tier.
#[test]
fn lru_churn_under_concurrency() {
    const FILES: usize = 30;
    const SIZE: usize = 3000;
    let cap = (FILES as u64 * SIZE as u64) / 4;
    let pfs = stage(FILES, SIZE);
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy(pfs, cap))
            .policy(PolicyKind::LruEvict)
            .pool_threads(3)
            .build()
            .unwrap(),
    );
    m.init().unwrap();

    std::thread::scope(|s| {
        for t in 0..6 {
            let m = Arc::clone(&m);
            s.spawn(move || {
                let mut buf = vec![0u8; SIZE];
                for round in 0..5 {
                    for i in 0..FILES {
                        // Skewed access: threads favour different files so
                        // the LRU order churns.
                        let i = (i + t * 5 + round) % FILES;
                        let name = format!("f{i:04}");
                        let n = m.read(&name, 0, &mut buf).unwrap();
                        assert_eq!(n, SIZE);
                        let expect = ((i * 31) % 251) as u8;
                        assert_eq!(buf[0], expect, "file {name} served wrong bytes");
                    }
                }
            });
        }
    });
    m.wait_placement_idle();
    let used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();
    assert!(used <= cap, "quota exceeded under churn: {used} > {cap}");
    let stats = m.stats();
    assert!(stats.evictions > 0, "pressure should force evictions");
}

/// prestage racing with concurrent readers: exactly one copy per file.
#[test]
fn prestage_races_with_readers() {
    const FILES: usize = 32;
    const SIZE: usize = 1024;
    let pfs = stage(FILES, SIZE);
    let m = Arc::new(
        MonarchBuilder::new()
            .hierarchy(hierarchy(pfs, u64::MAX / 2))
            .policy(PolicyKind::FirstFit)
            .pool_threads(4)
            .build()
            .unwrap(),
    );
    m.init().unwrap();

    std::thread::scope(|s| {
        {
            let m = Arc::clone(&m);
            s.spawn(move || {
                m.prestage();
            });
        }
        for _ in 0..4 {
            let m = Arc::clone(&m);
            s.spawn(move || {
                let mut buf = vec![0u8; 256];
                for i in 0..FILES {
                    m.read(&format!("f{i:04}"), 0, &mut buf).unwrap();
                }
            });
        }
    });
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(
        stats.copies_scheduled, FILES as u64,
        "dedup: one copy per file despite the race"
    );
    assert_eq!(stats.copies_completed, FILES as u64);
}

/// Every local tier's quota is exactly the bytes of the files `Placed`
/// there (`occupancy` is `quota.used()` per tier, as the gauges report
/// it), no file is left `Copying`, and every scheduled copy was settled
/// exactly once. Only holds with no copy in flight.
fn assert_books_balance(
    files: &MetadataContainer,
    snap: &TelemetrySnapshot,
    stats: &StatsSnapshot,
) {
    let mut placed = vec![0u64; snap.tier_names.len()];
    files.for_each(|name, info| match info.state {
        PlacementState::Placed => placed[info.tier] += info.size,
        PlacementState::Unplaced => {}
        PlacementState::Copying { .. } => panic!("{name} left in Copying"),
    });
    for g in &snap.gauges {
        if g.name == "monarch_tier_occupancy_bytes" {
            let tier = snap
                .tier_names
                .iter()
                .position(|t| g.labels.contains(&("tier".to_string(), t.clone())))
                .expect("a tier of the hierarchy");
            assert_eq!(
                g.value as u64, placed[tier],
                "quota of {}",
                snap.tier_names[tier]
            );
        }
    }
    assert_eq!(
        stats.copies_scheduled,
        stats.copies_completed
            + stats.copies_failed
            + stats.placement_skipped
            + stats.copy_requeues
            + stats.prefetch_canceled,
        "{stats:?}"
    );
}

/// ROADMAP item 4(b)'s quota and copy-count laws, checked at idle and
/// across a shutdown: eight readers churn an LRU tier a third of the
/// dataset whose device fails one install write in four (in runs that
/// surely fail a copy) and every fifth delete.
#[test]
fn quota_and_copy_counts_are_conserved_under_faults() {
    const FILES: usize = 36;
    const SIZE: usize = 3000;
    use FlakyOutcome::{Enospc, Ok as Pass, Transient};
    let ssd = FlakyDriver::new(MemDriver::new("ssd"));
    // A transient failure is retried in place, an ENOSPC evicts a victim
    // and retries once, a second ENOSPC in a row fails the copy. Only the
    // pool threads write the SSD, and each retries its own copy before it
    // writes anything else, so a run of `pool_threads + 1` ENOSPCs gives
    // some thread two of them back to back: one copy surely fails, however
    // the threads interleave.
    const POOL_THREADS: usize = 3;
    let writes = [
        &[Pass, Pass, Pass, Pass, Pass, Pass, Transient][..], // retried
        &[Pass, Pass, Pass, Pass, Pass, Pass],
        &[Enospc; POOL_THREADS + 1],                   // fatal
        &[Pass, Pass, Pass, Pass, Pass, Pass, Enospc], // evict, retried
    ]
    .concat();
    ssd.script_writes(writes.iter().copied().cycle().take(writes.len() * 200));
    ssd.script_removes(
        [Pass, Pass, Pass, Pass, Transient]
            .into_iter()
            .cycle()
            .take(5000),
    );
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(ssd) as Arc<dyn StorageDriver>,
            Some((FILES * SIZE / 3) as u64),
        ),
        (
            "pfs".into(),
            Arc::new(stage(FILES, SIZE)) as Arc<dyn StorageDriver>,
            None,
        ),
    ])
    .unwrap();
    // The policy engine brings the namespace: keep it past the shutdown.
    let policy = Arc::new(PolicyEngine::from_kind(
        PolicyKind::LruEvict,
        AdmissionKind::AdmitAll,
    ));
    let files = Arc::clone(policy.namespace());
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy_engine(policy)
        .pool_threads(POOL_THREADS)
        .build()
        .unwrap();
    m.init().unwrap();

    std::thread::scope(|s| {
        for t in 0..8 {
            let m = &m;
            s.spawn(move || {
                let mut buf = vec![0u8; SIZE];
                for round in 0..4 {
                    for i in 0..FILES {
                        let i = (i + t * 5 + round) % FILES;
                        let name = format!("f{i:04}");
                        assert_eq!(m.read(&name, 0, &mut buf).unwrap(), SIZE);
                        assert_eq!(buf[7], ((i * 31 + 7) % 251) as u8, "{name}");
                    }
                }
            });
        }
    });
    m.wait_placement_idle();
    let stats = m.stats();
    assert!(stats.evictions > 0 && stats.copies_failed > 0, "{stats:?}");
    assert_books_balance(&files, &m.telemetry_snapshot(), &stats);

    // And with the queue full of copies when the instance goes down.
    let sampler = m.sampler();
    m.prestage();
    let stats = m.shutdown();
    assert_books_balance(&files, &sampler.snapshot(), &stats);
}
