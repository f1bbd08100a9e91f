//! Tests for the [`Monarch`](super::Monarch) facade, kept out of
//! `middleware.rs` so the facade itself stays within the size gate.

use super::*;
use crate::config::{AdmissionKind, PolicyKind};
use crate::config::{TelemetryConfig, TierConfig};
use crate::driver::{FaultKind, FaultyDriver, FlakyDriver, FlakyOutcome, MemDriver, StorageDriver};
use crate::health::HealthConfig;
use crate::policy::{AdmitAll, NoEviction, PlacementScorer, PolicyEngine};

fn two_tier(
    local: Arc<dyn StorageDriver>,
    cap: u64,
    pfs: Arc<dyn StorageDriver>,
) -> StorageHierarchy {
    StorageHierarchy::new(vec![
        ("ssd".into(), local, Some(cap)),
        ("pfs".into(), pfs, None),
    ])
    .unwrap()
}

/// Monarch over two in-memory tiers with `n` files of `size` bytes
/// staged on the "PFS".
fn mem_monarch(local_cap: u64, n: usize, size: usize) -> Monarch {
    let pfs = MemDriver::new("pfs");
    for i in 0..n {
        pfs.insert(&format!("f{i:03}"), vec![i as u8; size]);
    }
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), local_cap, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(2)
        .build()
        .unwrap();
    m.init().unwrap();
    m
}

#[test]
fn builder_requires_a_hierarchy() {
    assert!(matches!(
        MonarchBuilder::new().build(),
        Err(Error::InvalidConfig(_))
    ));
}

#[test]
fn init_scans_namespace() {
    let m = mem_monarch(1 << 20, 5, 100);
    assert_eq!(m.metadata().len(), 5);
    assert_eq!(m.metadata().total_bytes(), 500);
    assert_eq!(m.file_size("f000").unwrap(), 100);
}

#[test]
fn first_read_from_pfs_then_local() {
    let m = mem_monarch(1 << 20, 1, 1000);
    let mut buf = vec![0u8; 100];
    // Partial first read: served by the PFS.
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 100);
    m.wait_placement_idle();
    // Placement done: second read must hit the local tier.
    assert_eq!(m.read("f000", 100, &mut buf).unwrap(), 100);
    let stats = m.stats();
    assert_eq!(stats.tiers[0].reads, 1, "second read should be local");
    // PFS saw: the first partial read, then the copy's fetch of the rest
    // in two claims — the last one as long as that read, so a reader
    // walking the file has one read left to serve when it lands.
    assert_eq!(stats.tiers[1].reads, 3);
    assert_eq!(stats.tiers[1].bytes_read, 1000);
    assert_eq!(stats.copies_completed, 1);
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);
}

#[test]
fn prestage_places_everything_before_any_read() {
    let m = mem_monarch(1 << 20, 5, 200);
    let scheduled = m.prestage();
    assert_eq!(scheduled, 5);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 5);
    // Every file already local: the very first framework read hits
    // tier 0 and the PFS sees only the staging fetches.
    let mut buf = [0u8; 64];
    m.read("f000", 0, &mut buf).unwrap();
    let stats = m.stats();
    assert_eq!(stats.tiers[0].reads, 1);
    assert_eq!(stats.tiers[1].reads, 5, "one staging fetch per file");
    // Idempotent: nothing left to schedule.
    assert_eq!(m.prestage(), 0);
}

#[test]
fn prestage_respects_quota() {
    let m = mem_monarch(450, 4, 200); // room for two files
    m.prestage();
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 2);
    assert_eq!(stats.placement_skipped, 2);
    assert_eq!(m.metadata().residency_histogram(2), vec![2, 2]);
}

#[test]
fn without_full_fetch_partial_reads_do_not_place() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![3u8; 1000]);
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 1 << 20, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .full_file_fetch(false)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 100];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_scheduled, 0, "partial read must not fetch");
    // A whole-file read still places (inline data, no re-fetch).
    let mut full = vec![0u8; 1000];
    m.read("f", 0, &mut full).unwrap();
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 1);
    assert_eq!(m.metadata().get("f").unwrap().tier, 0);
}

#[test]
fn full_read_skips_background_refetch() {
    let m = mem_monarch(1 << 20, 1, 256);
    let mut buf = vec![0u8; 256];
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 256);
    m.wait_placement_idle();
    let stats = m.stats();
    // Only the triggering read touched the PFS (inline data reused).
    assert_eq!(stats.tiers[1].reads, 1);
    assert_eq!(stats.copies_completed, 1);
    assert_eq!(stats.tiers[0].bytes_written, 256);
}

#[test]
fn a_file_read_front_to_back_crosses_the_source_in_three_reads() {
    const SIZE: usize = 1 << 20;
    const CHUNK: usize = 128 << 10;
    let pfs = MemDriver::new("pfs");
    let bytes: Vec<u8> = (0..SIZE).map(|i| (i % 251) as u8).collect();
    pfs.insert("f", bytes.clone());
    let m = MonarchBuilder::new()
        .hierarchy(two_tier(
            Arc::new(MemDriver::new("ssd")),
            1 << 30,
            Arc::new(pfs),
        ))
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut out = vec![0u8; SIZE];
    assert_eq!(m.read("f", 0, &mut out[..CHUNK]).unwrap(), CHUNK);
    // A reader that outruns a worker still waking up fetches its own
    // reads at the frontier; this one lets the worker take its claim.
    let deadline = Instant::now() + Duration::from_secs(10);
    while m.engine.staging_progress("f") == Some((CHUNK as u64, None)) {
        assert!(Instant::now() < deadline, "the copy never claimed");
        std::thread::yield_now();
    }
    for offset in (CHUNK..SIZE).step_by(CHUNK) {
        let n = m.read("f", offset as u64, &mut out[offset..offset + CHUNK]);
        assert_eq!(n.unwrap(), CHUNK);
    }
    assert_eq!(out, bytes);
    m.wait_placement_idle();
    let stats = m.stats();
    // The first read's 128 KiB, the copy's body up to the last 128 KiB,
    // and that last read's worth — fetched by whichever of the two got
    // to it first.
    assert_eq!(
        (stats.tiers[1].reads, stats.tiers[1].bytes_read),
        (3, SIZE as u64)
    );
    assert_eq!(stats.copies_completed, 1);
}

#[test]
fn bytes_are_correct_across_tiers() {
    let m = mem_monarch(1 << 20, 3, 512);
    for i in 0..3 {
        let name = format!("f{i:03}");
        let data = m.read_full(&name).unwrap();
        assert_eq!(data, vec![i as u8; 512]);
    }
    m.wait_placement_idle();
    for i in 0..3 {
        let name = format!("f{i:03}");
        let data = m.read_full(&name).unwrap();
        assert_eq!(data, vec![i as u8; 512], "post-placement bytes must match");
    }
}

#[test]
fn capacity_limits_placement() {
    // Room for 2 of the 4 files only.
    let m = mem_monarch(1200, 4, 500);
    for i in 0..4 {
        let mut buf = [0u8; 16];
        m.read(&format!("f{i:03}"), 0, &mut buf).unwrap();
    }
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 2);
    assert_eq!(stats.placement_skipped, 2);
    let hist = m.metadata().residency_histogram(2);
    assert_eq!(hist, vec![2, 2]);
    // Quota reflects exactly the two placed files.
    assert_eq!(
        m.hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used(),
        1000
    );
}

#[test]
fn no_eviction_under_first_fit() {
    let m = mem_monarch(600, 3, 500);
    for i in 0..3 {
        let mut buf = [0u8; 16];
        m.read(&format!("f{i:03}"), 0, &mut buf).unwrap();
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.copies_completed, 1);
}

#[test]
fn reads_past_eof_return_zero() {
    let m = mem_monarch(1 << 20, 1, 100);
    let mut buf = [0u8; 10];
    assert_eq!(m.read("f000", 100, &mut buf).unwrap(), 0);
    assert_eq!(m.read("f000", 1000, &mut buf).unwrap(), 0);
}

#[test]
fn unknown_file_is_an_error() {
    let m = mem_monarch(1 << 20, 1, 100);
    let mut buf = [0u8; 10];
    assert!(matches!(
        m.read("missing", 0, &mut buf),
        Err(Error::UnknownFile(_))
    ));
}

#[test]
fn failed_copy_releases_quota_and_reverts_state() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![7u8; 400]);
    let ssd = FaultyDriver::new(MemDriver::new("ssd"), FaultKind::Writes, 1);
    let hierarchy = two_tier(Arc::new(ssd), 1000, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 16];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_failed, 1);
    assert_eq!(
        m.hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used(),
        0
    );
    let info = m.metadata().get("f").unwrap();
    assert_eq!(
        info.tier, 1,
        "file must stay on the PFS after a failed copy"
    );
    assert_eq!(info.state, PlacementState::Unplaced);
    // A later read retries and succeeds (fault budget exhausted).
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_completed, 1);
    assert_eq!(m.metadata().get("f").unwrap().tier, 0);
}

#[test]
fn concurrent_readers_single_copy() {
    let m = Arc::new(mem_monarch(1 << 20, 1, 4096));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut buf = vec![0u8; 256];
                for off in (0..4096).step_by(256) {
                    assert_eq!(m.read("f000", off, &mut buf).unwrap(), 256);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(
        stats.copies_scheduled, 1,
        "dedup: one copy despite 8 readers"
    );
    assert_eq!(stats.copies_completed, 1);
}

#[test]
fn shutdown_rejects_new_reads() {
    let m = mem_monarch(1 << 20, 1, 100);
    let stats = m.shutdown();
    assert_eq!(stats.copies_failed, 0);
}

#[test]
fn evict_frees_the_local_tier_through_the_facade() {
    let m = mem_monarch(1 << 20, 1, 300);
    let mut buf = [0u8; 300];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);
    assert!(m.evict("f000").unwrap());
    assert_eq!(m.metadata().get("f000").unwrap().tier, 1);
    assert_eq!(
        m.hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used(),
        0
    );
    assert_eq!(m.stats().evictions, 1);
    // Still readable (from the PFS), and the read re-places it.
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);
}

#[test]
fn an_eviction_whose_delete_fails_is_still_booked() {
    // Once the namespace has moved, the tier no longer answers for the
    // file: the quota is released and the books told whatever became of
    // the bytes. At 6f2925b the failed delete returned early: `used` stayed
    // 300 until restart and the LRU book kept a resident that was not one.
    let m = mem_monarch(1 << 20, 1, 300);
    let mut buf = [0u8; 300];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    let ssd = m.hierarchy().tier(0).unwrap();
    assert_eq!(ssd.quota.as_ref().unwrap().used(), 300);
    // The copy disappears behind Monarch's back.
    ssd.driver.remove("f000").unwrap();
    assert!(m.evict("f000").is_err(), "the failed delete is handed back");
    let info = m.metadata().get("f000").unwrap();
    assert_eq!((info.tier, info.state), (1, PlacementState::Unplaced));
    assert_eq!(ssd.quota.as_ref().unwrap().used(), 0);
    assert_eq!(m.stats().evictions, 1);
    // The next read re-places it.
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);
    assert_eq!(ssd.quota.as_ref().unwrap().used(), 300);
}

#[test]
fn every_scheduled_copy_is_settled_once_across_a_shutdown() {
    // 400 copies queued behind two workers, then shutdown: the ones that
    // never ran are booked as failed with a reason that says why. At
    // 6f2925b they were counted nowhere (400 scheduled, 0 settled).
    let m = mem_monarch(1 << 20, 400, 64);
    assert_eq!(m.prestage(), 400);
    let telemetry = Arc::clone(m.telemetry());
    let stats = m.shutdown();
    assert_eq!(stats.copies_scheduled, 400);
    assert_eq!(
        stats.copies_scheduled,
        stats.copies_completed
            + stats.copies_failed
            + stats.placement_skipped
            + stats.copy_requeues
            + stats.prefetch_canceled
    );
    let shut_down = telemetry
        .journal()
        .events()
        .iter()
        .filter(|e| e.kind.tag() == "copy_failed" && e.to_json_line().contains("shut down"))
        .count() as u64;
    assert_eq!(shut_down, stats.copies_failed);
}

#[test]
fn constructs_from_config_with_mem_backends() {
    let cfg = MonarchConfig::builder()
        .tier(TierConfig::mem("ram").with_capacity(1 << 20))
        .tier(TierConfig::mem("pfs"))
        .pool_threads(2)
        .build();
    let m = Monarch::new(cfg).unwrap();
    assert_eq!(m.pool_threads(), 2);
    assert_eq!(m.hierarchy().levels(), 2);
}

#[test]
fn journal_captures_copy_lifecycle_under_concurrency() {
    // Acceptance: the journal records the full copy lifecycle
    // (scheduled → started → completed) for every file while 8 reader
    // threads hammer the read path concurrently.
    let n_files = 8;
    let m = Arc::new(mem_monarch(1 << 20, n_files, 4096));
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut buf = vec![0u8; 512];
                for i in 0..n_files {
                    let name = format!("f{:03}", (i + t) % n_files);
                    for off in (0..4096).step_by(512) {
                        assert_eq!(m.read(&name, off, &mut buf).unwrap(), 512);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, n_files as u64);
    // All files are local now: this pass is guaranteed to time tier-0
    // reads.
    for i in 0..n_files {
        m.read_full(&format!("f{i:03}")).unwrap();
    }

    let events = m.telemetry().journal().events();
    // Sequence numbers strictly increase across the buffered events.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    for i in 0..n_files {
        let name = format!("f{i:03}");
        let of = |tag: &str| {
            events
                .iter()
                .find(|e| e.kind.tag() == tag && e.kind.file() == name)
                .unwrap_or_else(|| panic!("{tag} event for {name}"))
                .seq
        };
        let (sched, started, decided, done) = (
            of("copy_scheduled"),
            of("copy_started"),
            of("placement_decided"),
            of("copy_completed"),
        );
        assert!(sched < started && started < decided && decided < done);
    }
    // Exactly one lifecycle per file despite 8 racing readers.
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind.tag() == "copy_completed")
            .count(),
        n_files
    );

    // Histograms saw the traffic: local + PFS reads, copy durations,
    // queue waits.
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.copy_duration.count, n_files as u64);
    assert_eq!(snap.queue_wait.count, n_files as u64);
    assert!(snap.read_latency[0].count > 0, "local reads timed");
    assert!(snap.read_latency[1].count > 0, "PFS reads timed");
    assert!(
        snap.write_latency[0].count == n_files as u64,
        "one install write per file"
    );
    assert!(snap.read_latency[1].p99_nanos >= snap.read_latency[1].p50_nanos);

    // Both exposition formats render the same registry.
    let text = m.metrics_text();
    assert!(text.contains(&format!("monarch_copies_completed_total {n_files}")));
    assert!(text.contains("monarch_read_latency_seconds_bucket{tier=\"ssd\",le=\"+Inf\"}"));
    let json_lines = m.events_json();
    assert_eq!(json_lines.lines().count(), events.len());
}

#[test]
fn telemetry_disabled_records_nothing() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![1u8; 1024]);
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 1 << 20, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .telemetry(TelemetryConfig::disabled())
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 128];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_completed, 1, "placement still works");
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.read_latency[0].count + snap.read_latency[1].count, 0);
    assert_eq!(snap.queue_wait.count, 0);
    assert_eq!(snap.copy_duration.count, 0);
    assert_eq!(snap.events_recorded, 0);
    assert_eq!(m.events_json(), "");
    // Counters still render (they are stats-driven, not histogram-driven).
    assert!(m
        .metrics_text()
        .contains("monarch_copies_completed_total 1"));
}

#[test]
fn journal_disablable_separately_from_histograms() {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![1u8; 256]);
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 1 << 20, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .telemetry(TelemetryConfig {
            journal: false,
            ..TelemetryConfig::default()
        })
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 256];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.events_recorded, 0, "journal off");
    assert!(snap.read_latency[1].count > 0, "histograms still on");
}

#[test]
fn panicking_copy_task_is_journaled_and_reverted() {
    /// A scorer whose `choose` panics — models a buggy policy plugin.
    struct PanickingScorer;
    impl PlacementScorer for PanickingScorer {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn choose(
            &self,
            _hierarchy: &StorageHierarchy,
            file: &str,
            _size: u64,
        ) -> Result<Option<crate::hierarchy::TierId>> {
            panic!("policy exploded for {file}");
        }
    }
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![1u8; 512]);
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 1 << 20, Arc::new(pfs));
    let engine = PolicyEngine::new(
        Arc::new(AdmitAll),
        Arc::new(NoEviction),
        Arc::new(PanickingScorer),
    );
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy_engine(Arc::new(engine))
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 64];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    // The panic handler reported which file's copy died and reverted
    // the metadata so a later read can retry.
    assert_eq!(m.stats().copies_failed, 1);
    let events = m.telemetry().journal().events();
    let failed = events
        .iter()
        .find(|e| e.kind.tag() == "copy_failed")
        .expect("copy_failed journaled");
    assert_eq!(failed.kind.file(), "f");
    assert!(m.events_json().contains("panicked"));
    let info = m.metadata().get("f").unwrap();
    assert_eq!(info.state, PlacementState::Unplaced, "copy state reverted");
    assert_eq!(info.tier, 1, "file stays on the PFS");
}

#[test]
fn disabled_prefetch_makes_plans_a_no_op() {
    // The builder defaults to prefetching disabled (lookahead 0) —
    // submitting a plan must change nothing relative to reactive mode.
    let m = mem_monarch(1 << 20, 3, 128);
    let plan = AccessPlan::new((0..3).map(|i| format!("f{i:03}")).collect());
    assert_eq!(m.submit_plan(&plan), 0);
    assert_eq!(m.cancel_prefetch_plan(), 0);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_scheduled, 0);
    assert_eq!(stats.prefetches_scheduled, 0);
    assert_eq!(m.telemetry().journal().events().len(), 0);
}

#[test]
fn lru_policy_evicts_through_middleware() {
    let pfs = MemDriver::new("pfs");
    for i in 0..3 {
        pfs.insert(&format!("f{i}"), vec![i as u8; 400]);
    }
    let hierarchy = two_tier(Arc::new(MemDriver::new("ssd")), 900, Arc::new(pfs));
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy(PolicyKind::LruEvict)
        .admission(AdmissionKind::AdmitAll)
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = [0u8; 16];
    for i in 0..3 {
        m.read(&format!("f{i}"), 0, &mut buf).unwrap();
        m.wait_placement_idle();
    }
    let stats = m.stats();
    assert!(stats.evictions >= 1, "third file must evict an earlier one");
    // Quota never oversubscribed.
    assert!(
        m.hierarchy()
            .tier(0)
            .unwrap()
            .quota
            .as_ref()
            .unwrap()
            .used()
            <= 900
    );
    // All three files still readable with correct bytes.
    for i in 0..3 {
        assert_eq!(m.read_full(&format!("f{i}")).unwrap(), vec![i as u8; 400]);
    }
}

/// A source with a device's latency: every read takes 2 ms longer.
struct Paced(MemDriver);

impl StorageDriver for Paced {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        std::thread::sleep(Duration::from_millis(2));
        self.0.read_at(file, offset, buf)
    }
    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        self.0.write_full(file, data)
    }
    fn remove(&self, file: &str) -> Result<()> {
        self.0.remove(file)
    }
    fn file_size(&self, file: &str) -> Result<u64> {
        self.0.file_size(file)
    }
    fn list(&self) -> Result<Vec<(String, u64)>> {
        self.0.list()
    }
}

#[test]
fn stall_buckets_sum_to_read_wall_time() {
    // The stall profiler's four buckets partition each timed read's wall
    // time along one monotonic-clock chain — the chain the ledger's
    // read-wall sum is taken from, so the two agree to the ledger's
    // microsecond and no further — and that chain tracks what a caller
    // measures around `Monarch::read`: within 5 % on the median read, the
    // slack being the instrumentation outside the first/last boundary
    // instants (shutdown check, gauge guard, the record calls themselves).
    // The median, because a read whose thread loses its core between the
    // caller's clock and the chain's says nothing about the chain; and a
    // source with a device's latency, because those fixed costs — tens of
    // microseconds in a debug build — are a twentieth of a read served at
    // memory speed on an idle machine and a fiftieth of one on a busy one.
    // Each read is the first touch of its file — announced, then fetched
    // into the copy's staging: never a local hit, so always timed, with
    // weight 1.
    const FILES: usize = 24;
    const SIZE: usize = 1 << 20;
    let pfs = MemDriver::new("pfs");
    for i in 0..FILES {
        pfs.insert(&format!("f{i:03}"), vec![i as u8; SIZE]);
    }
    let m = MonarchBuilder::new()
        .hierarchy(two_tier(
            Arc::new(MemDriver::new("ssd")),
            64 << 20,
            Arc::new(Paced(pfs)),
        ))
        .pool_threads(2)
        .build()
        .unwrap();
    m.init().unwrap();
    let bucket_sum = || {
        let stall = m.telemetry().stall_profile().snapshot();
        stall.lock_wait.sum_nanos
            + stall.queue_wait.sum_nanos
            + stall.driver_pread.sum_nanos
            + stall.copy_wait.sum_nanos
    };
    let mut buf = vec![0u8; SIZE];
    let mut wall = 0u64;
    let mut coverage = Vec::with_capacity(FILES);
    for i in 0..FILES {
        let before = bucket_sum();
        let t = Instant::now();
        let n = m.read(&format!("f{i:03}"), 0, &mut buf).unwrap();
        let read_wall = t.elapsed().as_nanos() as u64;
        assert_eq!(n, SIZE);
        let buckets = bucket_sum() - before;
        assert!(
            buckets <= read_wall,
            "buckets lie inside the measured wall time (buckets {buckets}ns, wall {read_wall}ns)"
        );
        coverage.push(buckets as f64 / read_wall as f64);
        wall += read_wall;
    }
    m.wait_placement_idle();
    let snap = m.telemetry_snapshot();
    let reads = FILES as u64;
    assert_eq!(
        snap.stall_profile.driver_pread.count, reads,
        "every first-touch read is profiled"
    );
    assert_eq!(m.stats().timed_reads, reads);
    assert!(bucket_sum() <= wall);
    let ledger = snap.observe.expect("profiler on").profiler.ledger;
    assert_eq!(
        bucket_sum() / 1_000,
        ledger.read_wall_us,
        "the buckets partition the reads' wall time"
    );
    coverage.sort_by(f64::total_cmp);
    let median = coverage[FILES / 2];
    assert!(
        median >= 0.95,
        "buckets cover >=95% of the median read's wall time: {coverage:?}"
    );
}

#[test]
fn reads_in_flight_gauge_is_balanced() {
    // The open-handle gauge must return to zero across successful reads,
    // EOF early-returns, and error paths alike (the guard decrements on
    // every exit).
    let m = mem_monarch(1 << 20, 2, 128);
    let gauge = m.telemetry().gauges().gauge(
        "monarch_reads_in_flight",
        "Read operations currently executing inside Monarch::read.",
        &[],
    );
    let mut buf = [0u8; 64];
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(
        m.read("f001", 4096, &mut buf).unwrap(),
        0,
        "EOF early return"
    );
    assert!(m.read("missing", 0, &mut buf).is_err());
    m.wait_placement_idle();
    // The count is striped per thread; a sampler publishes the sum.
    let held = m.telemetry().reads_in_flight().enter();
    m.sampler().refresh();
    assert_eq!(gauge.get(), 1, "the sampler publishes the striped count");
    drop(held);
    m.sampler().refresh();
    assert_eq!(
        gauge.get(),
        0,
        "gauge balanced after success, EOF and error"
    );
}

/// Monarch over a [`FlakyDriver`]-wrapped local tier, with `n` files of
/// `size` bytes staged on the "PFS". The returned driver handle scripts
/// faults after placement settles.
fn flaky_monarch(cap: u64, n: usize, size: usize) -> (Monarch, Arc<FlakyDriver<MemDriver>>) {
    let pfs = MemDriver::new("pfs");
    for i in 0..n {
        pfs.insert(&format!("f{i:03}"), vec![i as u8; size]);
    }
    let flaky = Arc::new(FlakyDriver::new(MemDriver::new("ssd")));
    let hierarchy = two_tier(
        Arc::clone(&flaky) as Arc<dyn StorageDriver>,
        cap,
        Arc::new(pfs),
    );
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(2)
        .build()
        .unwrap();
    m.init().unwrap();
    (m, flaky)
}

#[test]
fn transient_read_fault_retries_in_place_and_succeeds() {
    let (m, flaky) = flaky_monarch(1 << 20, 1, 1000);
    let mut buf = vec![0u8; 100];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);

    flaky.script_reads([FlakyOutcome::Transient, FlakyOutcome::Ok]);
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 100);
    assert_eq!(buf, vec![0u8; 100]);
    let s = m.stats();
    assert_eq!(s.read_retries, 1, "one backoff retry");
    assert_eq!(s.degraded_reads, 0, "retry succeeded locally");
    assert_eq!(s.tier_quarantines, 0);
    // One fault leaves the tier suspect (still serving locally); further
    // successes decay the EWMA back under the closing threshold.
    let h = m.hierarchy().health().snapshot();
    assert_eq!(h.tiers[0].state, "suspect");
    assert_eq!(h.tiers[0].errors_total, 1);
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(m.hierarchy().health().snapshot().tiers[0].state, "closed");
    m.shutdown();
}

#[test]
fn a_retried_read_touches_the_eviction_policy_once() {
    use crate::hierarchy::TierId;
    use crate::policy::{EvictCtx, EvictionPolicy, FirstFitScorer};
    use std::sync::atomic::AtomicU64;
    /// Counts `on_access`; evicts nothing.
    #[derive(Default)]
    struct CountingEviction(AtomicU64);
    impl EvictionPolicy for CountingEviction {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn victims(&self, _: TierId, _: u64, _: &EvictCtx<'_>) -> Vec<String> {
            Vec::new()
        }
        fn on_access(&self, _: &str, _: TierId) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", vec![5u8; 1000]);
    let flaky = Arc::new(FlakyDriver::new(MemDriver::new("ssd")));
    let hierarchy = two_tier(
        Arc::clone(&flaky) as Arc<dyn StorageDriver>,
        1 << 20,
        Arc::new(pfs),
    );
    let counting = Arc::new(CountingEviction::default());
    let engine = PolicyEngine::new(
        Arc::new(AdmitAll),
        Arc::clone(&counting) as Arc<dyn EvictionPolicy>,
        Arc::new(FirstFitScorer),
    );
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy_engine(Arc::new(engine))
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = vec![0u8; 100];
    m.read("f", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f").unwrap().tier, 0);
    let before = counting.0.load(Ordering::Relaxed);

    // Three passes over the device, one read: LFU's touch count and the
    // LRU clock must move once.
    flaky.script_reads([
        FlakyOutcome::Transient,
        FlakyOutcome::Transient,
        FlakyOutcome::Ok,
    ]);
    assert_eq!(m.read("f", 0, &mut buf).unwrap(), 100);
    assert_eq!(counting.0.load(Ordering::Relaxed) - before, 1);
    assert_eq!(m.stats().read_retries, 2);
    assert_eq!(m.metadata().get("f").unwrap().reads, 2);
    m.shutdown();
}

#[test]
fn permanent_read_fault_quarantines_and_serves_from_source() {
    let (m, flaky) = flaky_monarch(1 << 20, 1, 1000);
    let mut buf = vec![0u8; 100];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();

    // A permanent error is not retried: the tier quarantines immediately
    // and the read degrades to the PFS source instead of failing.
    flaky.script_reads([FlakyOutcome::Permanent]);
    assert_eq!(m.read("f000", 50, &mut buf).unwrap(), 100);
    assert_eq!(buf, vec![0u8; 100]);
    let s = m.stats();
    assert_eq!(s.tier_quarantines, 1);
    assert_eq!(s.degraded_reads, 1);
    assert_eq!(s.read_retries, 0, "permanent faults skip the retry loop");
    let h = m.hierarchy().health().snapshot();
    assert!(h.degraded);
    assert_eq!(h.tiers[0].state, "quarantined");

    // While the probe cooldown holds, further reads keep degrading (no
    // local attempts, so the exhausted script is never consulted).
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 100);
    assert_eq!(m.stats().degraded_reads, 2);
    m.shutdown();
}

#[test]
fn half_open_probe_readmits_a_recovered_tier() {
    let (m, flaky) = flaky_monarch(1 << 20, 1, 1000);
    m.hierarchy().health().set_config(HealthConfig {
        probe_cooldown_us: 1_000,
        ..HealthConfig::default()
    });
    let mut buf = vec![0u8; 100];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();

    flaky.script_reads([FlakyOutcome::Permanent]);
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(
        m.hierarchy().health().snapshot().tiers[0].state,
        "quarantined"
    );

    // After the cooldown the next read wins the half-open probe slot; the
    // device answers (script exhausted) and the tier is re-admitted.
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(m.read("f000", 0, &mut buf).unwrap(), 100);
    let s = m.stats();
    assert_eq!(s.tier_recoveries, 1);
    let h = m.hierarchy().health().snapshot();
    assert!(!h.degraded);
    assert_eq!(h.tiers[0].state, "closed");
    assert_eq!(h.tiers[0].recoveries, 1);

    // Back to normal local service: no further degraded reads.
    let degraded = s.degraded_reads;
    m.read("f000", 0, &mut buf).unwrap();
    assert_eq!(m.stats().degraded_reads, degraded);
    assert_eq!(m.stats().tiers[0].reads, s.tiers[0].reads + 1);
    m.shutdown();
}

#[test]
fn enospc_install_evicts_a_victim_and_retries_once() {
    let (m, flaky) = flaky_monarch(1 << 20, 2, 1000);
    let mut buf = vec![0u8; 100];
    m.read("f000", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f000").unwrap().tier, 0);

    // The quota has room but the device reports ENOSPC once: the install
    // evicts the resident victim and retries, landing the new file.
    flaky.script_writes([FlakyOutcome::Enospc]);
    m.read("f001", 0, &mut buf).unwrap();
    m.wait_placement_idle();
    let s = m.stats();
    assert_eq!(s.enospc_evictions, 1);
    assert_eq!(s.copies_failed, 0);
    assert_eq!(m.metadata().get("f001").unwrap().tier, 0, "install landed");
    assert_eq!(
        m.metadata().get("f000").unwrap().tier,
        1,
        "victim re-resolved to the PFS"
    );
    // Capacity pressure never counts against tier health.
    let h = m.hierarchy().health().snapshot();
    assert_eq!(h.tiers[0].state, "closed");
    assert_eq!(h.tiers[0].errors_total, 0);
    m.shutdown();
}

// -- copies that die under readers parked on their staging -----------------

/// Source driver whose first `read_at` panics — a driver bug mid-fill.
struct PanicOnce {
    inner: MemDriver,
    armed: AtomicBool,
}

impl StorageDriver for PanicOnce {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        assert!(
            !self.armed.swap(false, Ordering::AcqRel),
            "injected driver panic reading {file}"
        );
        self.inner.read_at(file, offset, buf)
    }
    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        self.inner.write_full(file, data)
    }
    fn remove(&self, file: &str) -> Result<()> {
        self.inner.remove(file)
    }
    fn file_size(&self, file: &str) -> Result<u64> {
        self.inner.file_size(file)
    }
    fn list(&self) -> Result<Vec<(String, u64)>> {
        self.inner.list()
    }
}

const DOOMED: usize = 64 << 10;

fn doomed_bytes() -> Vec<u8> {
    (0..DOOMED).map(|i| (i % 241) as u8).collect()
}

fn doomed_source() -> MemDriver {
    let pfs = MemDriver::new("pfs");
    pfs.insert("f", doomed_bytes());
    pfs
}

/// Pre-stage the one file of `source` (behind `gate`) onto `local`, wait
/// until the worker is inside the fetch of the whole file, send eight
/// readers after ranges of it, open the gate, and — whatever becomes of
/// the copy — require every reader to get exactly its bytes. Partial reads
/// place nothing here, so what the copy leaves behind stays to be seen.
fn read_under_a_doomed_copy(
    source: impl StorageDriver + 'static,
    gate: &crate::driver::Gate,
    local: impl StorageDriver + 'static,
) -> Monarch {
    let m = MonarchBuilder::new()
        .hierarchy(two_tier(Arc::new(local), 1 << 20, Arc::new(source)))
        .pool_threads(1)
        .full_file_fetch(false)
        .build()
        .unwrap();
    m.init().unwrap();
    assert_eq!(m.prestage(), 1);
    let fetching = Some((0, Some(DOOMED as u64)));
    for _ in 0..10_000 {
        if m.engine.staging_progress("f") == fetching {
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    assert_eq!(m.engine.staging_progress("f"), fetching);
    let want = doomed_bytes();
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..8usize)
            .map(|t| {
                let (m, want) = (&m, &want);
                s.spawn(move || {
                    // The last reader's range ends with the file.
                    let (offset, len) = (t * 8000, 8000 + t * 1000);
                    let len = len.min(DOOMED - offset);
                    let mut buf = vec![0u8; len];
                    let n = m
                        .read("f", offset as u64, &mut buf)
                        .expect("never an error");
                    assert_eq!(n, len, "never short");
                    assert_eq!(buf, want[offset..offset + len]);
                })
            })
            .collect();
        // The file stays `Copying` under the worker's claim until the gate
        // opens, so a reader that is inside `read` is parked or about to.
        while m.telemetry().reads_in_flight().get() < 8 {
            std::thread::sleep(Duration::from_micros(100));
        }
        crate::driver::open_gate(gate);
        for r in readers {
            r.join().unwrap();
        }
    });
    m.wait_placement_idle();
    m
}

/// The copy failed: nothing of it is left, and the file can be placed.
fn assert_reverted_then_place(m: &Monarch) {
    let stats = m.stats();
    assert_eq!((stats.copies_failed, stats.copies_completed), (1, 0));
    let info = m.metadata().get("f").unwrap();
    assert_eq!((info.tier, info.state), (1, PlacementState::Unplaced));
    let ssd = m.hierarchy().tier(0).unwrap();
    assert_eq!(
        ssd.quota.as_ref().unwrap().used(),
        0,
        "reservation released"
    );
    assert_eq!(
        ssd.driver.list().unwrap(),
        [],
        "nothing readable left behind"
    );
    assert_eq!(m.engine.staging_progress("f"), None, "staging gone");
    // A later whole-file read places it, from fresh bytes.
    assert_eq!(m.read_full("f").unwrap(), doomed_bytes());
    m.wait_placement_idle();
    assert_eq!(m.metadata().get("f").unwrap().tier, 0);
    assert_eq!(ssd.quota.as_ref().unwrap().used(), DOOMED as u64);
    assert_eq!(ssd.driver.read_full("f").unwrap(), doomed_bytes());
}

#[test]
fn source_error_mid_fill_sends_parked_readers_to_the_source() {
    let source = FaultyDriver::new(doomed_source(), FaultKind::Reads, 1);
    let (gated, gate) = crate::driver::GatedDriver::new(source);
    let m = read_under_a_doomed_copy(gated, &gate, MemDriver::new("ssd"));
    assert_reverted_then_place(&m);
}

#[test]
fn install_error_after_fill_serves_parked_readers_and_leaves_nothing_behind() {
    let (gated, gate) = crate::driver::GatedDriver::new(doomed_source());
    let ssd = FaultyDriver::new(MemDriver::new("ssd"), FaultKind::Writes, 1);
    let m = read_under_a_doomed_copy(gated, &gate, ssd);
    // The fill itself went through: the readers were served by it.
    let stats = m.stats();
    assert_eq!(stats.staged_reads, 8);
    assert_eq!(
        (stats.tiers[1].reads, stats.tiers[1].bytes_read),
        (1, DOOMED as u64)
    );
    assert_reverted_then_place(&m);
}

#[test]
fn worker_panic_mid_fill_frees_parked_readers_and_the_reservation() {
    let source = PanicOnce {
        inner: doomed_source(),
        armed: AtomicBool::new(true),
    };
    let (gated, gate) = crate::driver::GatedDriver::new(source);
    let m = read_under_a_doomed_copy(gated, &gate, MemDriver::new("ssd"));
    let events = m.telemetry().journal().events();
    assert!(events
        .iter()
        .any(|e| e.kind.tag() == "reservation_reclaimed" && e.kind.file() == "f"));
    assert_reverted_then_place(&m);
}

#[test]
fn transient_source_error_resumes_the_fill_where_it_stopped() {
    // One scripted read per fetch now, not one per copy: the first fetch
    // of the copy fails, the retry fetches the same range, once.
    let source = FlakyDriver::new(doomed_source());
    source.script_reads([FlakyOutcome::Transient, FlakyOutcome::Ok]);
    let m = MonarchBuilder::new()
        .hierarchy(two_tier(
            Arc::new(MemDriver::new("ssd")),
            1 << 20,
            Arc::new(source),
        ))
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    assert_eq!(m.prestage(), 1);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!((stats.copy_retries, stats.copies_completed), (1, 1));
    assert_eq!(
        (stats.tiers[1].reads, stats.tiers[1].bytes_read),
        (1, DOOMED as u64)
    );
    assert_eq!(m.read_full("f").unwrap(), doomed_bytes());
}

#[test]
fn source_error_in_the_first_reads_own_fetch_sends_it_down_the_plain_path() {
    // The read that announces a copy fetches into the copy's staging. If
    // that fetch fails, nothing is published and the frontier is free: the
    // read takes the plain path, with the health machinery's retries, and
    // the copy fetches from the watermark — here, from the start.
    let source = FlakyDriver::new(doomed_source());
    source.script_reads([FlakyOutcome::Transient]);
    let m = MonarchBuilder::new()
        .hierarchy(two_tier(
            Arc::new(MemDriver::new("ssd")),
            1 << 20,
            Arc::new(source),
        ))
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    let mut buf = vec![0u8; 1000];
    assert_eq!(m.read("f", 0, &mut buf).unwrap(), 1000);
    assert_eq!(buf, doomed_bytes()[..1000]);
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!((stats.copies_scheduled, stats.copies_completed), (1, 1));
    assert_eq!((stats.copies_failed, stats.copy_retries), (0, 0));
    // The read's second attempt was its first on that path: not a retry.
    assert_eq!((stats.read_retries, stats.degraded_reads), (0, 0));
    assert_eq!((stats.staged_reads, stats.staged_bytes), (0, 0));
    assert_eq!(
        (stats.tiers[1].reads, stats.tiers[1].bytes_read),
        (2, (1000 + DOOMED) as u64)
    );
    assert_eq!(m.engine.staging_progress("f"), None);
    assert_eq!(m.metadata().get("f").unwrap().tier, 0);
    assert_eq!(m.read_full("f").unwrap(), doomed_bytes());
}
