//! What a read reports: counts on every read, exact; times on every read
//! that is not a plain local-tier hit and on one such hit in
//! [`TIMED_HIT_PERIOD`], weighted so that they estimate the totals.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use monarch_core::config::PolicyKind;
use monarch_core::driver::{open_gate, GatedDriver, MemDriver};
use monarch_core::telemetry::TIMED_HIT_PERIOD as N;
use monarch_core::{
    Monarch, MonarchBuilder, Result, StorageDriver, StorageHierarchy, TelemetryConfig,
    TelemetrySnapshot,
};

/// Held by the test that compares against wall-clock time and by the one
/// that keeps every core busy, so that they do not run side by side.
static CORES: Mutex<()> = Mutex::new(());

fn name(i: usize) -> String {
    format!("f{i:03}")
}

/// `files` files of `size` bytes on an in-memory PFS.
fn pfs(files: usize, size: usize) -> MemDriver {
    let pfs = MemDriver::new("pfs");
    for i in 0..files {
        pfs.insert(&name(i), vec![i as u8; size]);
    }
    pfs
}

fn builder(
    fast: Arc<dyn StorageDriver>,
    capacity: u64,
    pfs: impl StorageDriver + 'static,
) -> MonarchBuilder {
    let hierarchy = StorageHierarchy::new(vec![
        ("fast".into(), fast, Some(capacity)),
        ("pfs".into(), Arc::new(pfs), None),
    ])
    .unwrap();
    MonarchBuilder::new().hierarchy(hierarchy).pool_threads(2)
}

/// Every file placed on a `MemDriver` fast tier before the first read.
fn warm(files: usize, size: usize) -> Monarch {
    let m = builder(
        Arc::new(MemDriver::new("fast")),
        u64::MAX / 2,
        pfs(files, size),
    )
    .build()
    .unwrap();
    m.init().unwrap();
    m.prestage();
    m.wait_placement_idle();
    m
}

fn stall_sum(snap: &TelemetrySnapshot) -> u64 {
    let s = &snap.stall_profile;
    s.lock_wait.sum_nanos
        + s.queue_wait.sum_nanos
        + s.driver_pread.sum_nanos
        + s.copy_wait.sum_nanos
}

/// A tier with a device's latency: every read takes `0.2 ms` longer.
struct Slow<D>(D);

impl<D: StorageDriver> StorageDriver for Slow<D> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        std::thread::sleep(Duration::from_micros(200));
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
fn counts_are_exact_under_concurrent_hits_and_misses() {
    // Eight threads over an LRU tier holding half the dataset: hits,
    // first-touch misses, staged reads and reads that go round again after
    // their copy was evicted under them, mixed. Whatever the mix, and
    // whichever of them carried a clock, each read is one access of its
    // file and one read in the ledger, and its bytes are booked once.
    const FILES: usize = 16;
    const SIZE: usize = 16 << 10;
    const THREADS: usize = 8;
    const READS: usize = 20_000;
    let _cores = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let m = builder(
        Arc::new(MemDriver::new("fast")),
        (FILES * SIZE / 2) as u64,
        pfs(FILES, SIZE),
    )
    .policy(PolicyKind::LruEvict)
    .build()
    .unwrap();
    m.init().unwrap();
    let returned: u64 = std::thread::scope(|s| {
        let readers: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = &m;
                s.spawn(move || {
                    let mut buf = vec![0u8; 4096];
                    let mut x = t as u64 + 1;
                    let mut bytes = 0u64;
                    for _ in 0..READS {
                        // xorshift: any repeatable spread over files and
                        // chunks will do.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let file = (x % FILES as u64) as usize;
                        let chunk = (x >> 32) % (SIZE as u64 / 4096);
                        let n = m.read(&name(file), chunk * 4096, &mut buf).unwrap();
                        assert!(buf[..n].iter().all(|b| *b == file as u8));
                        bytes += n as u64;
                    }
                    bytes
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).sum()
    });
    m.wait_placement_idle();
    let issued = (THREADS * READS) as u64;
    assert_eq!(returned, issued * 4096);
    let stats = m.stats();
    assert!(
        stats.local_reads() > 0 && stats.pfs_reads() > 0 && stats.evictions > 0,
        "the run mixed hits, misses and evictions"
    );
    let profiler = m
        .telemetry_snapshot()
        .observe
        .expect("profiler on")
        .profiler;
    assert_eq!(profiler.ledger.reads, issued);
    assert_eq!(profiler.untracked_reads, 0);
    assert_eq!(profiler.tracked, FILES as u64);
    let accesses: u64 = profiler.files.iter().map(|f| f.profile.accesses).sum();
    assert_eq!(accesses, issued, "one access a read, retries included");
    let bytes: u64 = profiler
        .files
        .iter()
        .flat_map(|f| f.profile.bytes_by_tier.iter())
        .sum();
    assert_eq!(bytes, returned);
    // The namespace's counter and the profile's are one and the same.
    for f in &profiler.files {
        assert_eq!(f.profile.accesses, m.metadata().get(&f.file).unwrap().reads);
    }
    assert!(stats.timed_reads >= stats.pfs_reads() && stats.timed_reads < issued);
    m.shutdown();
}

#[test]
fn every_read_that_is_not_a_local_hit_is_timed() {
    // Partial reads with full-file fetch off start no copy, so every file
    // but the first stays on the PFS: a cold epoch that cannot turn warm.
    const FILES: usize = 40;
    let m = builder(
        Arc::new(MemDriver::new("fast")),
        u64::MAX / 2,
        pfs(FILES, 8192),
    )
    .full_file_fetch(false)
    .build()
    .unwrap();
    m.init().unwrap();
    // One file is read whole, which places it, and then hit: this
    // thread's first hit carries the clock, its next few do not, and
    // neither do the reads below until their lookup shows what they are.
    m.read_full(&name(0)).unwrap();
    m.wait_placement_idle();
    let mut buf = vec![0u8; 4096];
    for _ in 0..3 {
        assert_eq!(m.read(&name(0), 0, &mut buf).unwrap(), 4096);
    }
    for round in 0..2 {
        for i in 1..FILES {
            assert_eq!(m.read(&name(i), round * 4096, &mut buf).unwrap(), 4096);
        }
    }
    let stats = m.stats();
    let cold = 1 + 2 * (FILES as u64 - 1);
    assert_eq!(stats.tiers[1].reads, cold);
    assert_eq!(stats.tiers[0].reads, 3);
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.read_latency[1].count, cold, "one for one, weight 1");
    assert_eq!(snap.read_latency[0].count, N, "one hit, standing for N");
    assert_eq!(stats.timed_reads, cold + 1);
    assert_eq!(snap.stall_profile.driver_pread.count, cold + N);
    let ledger = snap.observe.expect("profiler on").profiler.ledger;
    assert_eq!(ledger.reads, cold + 3);
    assert!(ledger.pfs_cold_pread_us > 0);
    m.shutdown();
}

#[test]
fn a_read_that_fetches_into_a_staging_is_a_read_of_the_pfs() {
    // Where the bytes of a read of the PFS land — the caller's buffer, or
    // the staging of the file's copy first — changes nothing in what the
    // read reports. Only what a read takes out of a staging without
    // fetching is counted, and classed, as staged.
    const SIZE: usize = 64 << 10;
    // It polls while a thread starts: not beside the wall-clock test.
    let _cores = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let (gated, gate) = GatedDriver::new(Slow(pfs(2, SIZE)));
    let m = builder(
        Arc::new(MemDriver::new("fast")),
        u64::MAX / 2,
        gated.only(&name(0)),
    )
    .pool_threads(1)
    .build()
    .unwrap();
    m.init().unwrap();
    let ledger = |m: &Monarch| {
        let snap = m.telemetry_snapshot();
        snap.observe.expect("profiler on").profiler.ledger
    };
    let mut buf = vec![0u8; 4096];
    std::thread::scope(|s| {
        // The first touch of a file: announced, then fetched in place. This
        // one stays at the gate with the worker behind it.
        let held = s.spawn(|| m.read_full(&name(0)).unwrap());
        while m.stats().copies_scheduled < 1 {
            std::thread::yield_now();
        }
        // And this one is through before its copy gets a worker.
        assert_eq!(m.read(&name(1), 0, &mut buf).unwrap(), 4096);
        let stats = m.stats();
        assert_eq!((stats.tiers[1].reads, stats.tiers[1].bytes_read), (1, 4096));
        assert_eq!((stats.staged_reads, stats.staged_bytes), (0, 0));
        assert_eq!(stats.timed_reads, 1);
        let cold = ledger(&m);
        assert!(cold.pfs_cold_pread_us >= 200, "{cold:?}");
        assert_eq!((cold.lane_sat_pread_us, cold.staged_pread_us), (0, 0));
        // A later read that reaches the frontier fetches there too: a read
        // of the PFS, of a file whose copy is behind the reader.
        assert_eq!(m.read(&name(1), 4096, &mut buf).unwrap(), 4096);
        let stats = m.stats();
        assert_eq!((stats.tiers[1].reads, stats.tiers[1].bytes_read), (2, 8192));
        assert_eq!((stats.staged_reads, stats.staged_bytes), (0, 0));
        let behind = ledger(&m);
        assert!(behind.lane_sat_pread_us >= 200, "{behind:?}");
        assert_eq!(behind.pfs_cold_pread_us, cold.pfs_cold_pread_us);
        assert_eq!(behind.staged_pread_us, 0);
        // What is in the staging already is served from it.
        assert_eq!(m.read(&name(1), 2048, &mut buf).unwrap(), 4096);
        assert!(buf.iter().all(|b| *b == 1));
        let stats = m.stats();
        assert_eq!((stats.tiers[1].reads, stats.tiers[1].bytes_read), (2, 8192));
        assert_eq!((stats.staged_reads, stats.staged_bytes), (1, 4096));
        assert_eq!(stats.timed_reads, 3);
        let snap = m.telemetry_snapshot();
        // One sample a fetch in the tier's histogram, one a read in the
        // stall profile.
        assert_eq!(snap.read_latency[1].count, 2);
        assert_eq!(snap.stall_profile.driver_pread.count, 3);
        assert_eq!(ledger(&m).reads, 3);
        open_gate(&gate);
        assert_eq!(held.join().unwrap(), vec![0u8; SIZE]);
    });
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 2);
    assert_eq!(stats.tiers[1].bytes_read, 2 * SIZE as u64, "each byte once");
    m.shutdown();
}

#[test]
fn one_local_hit_in_n_is_timed() {
    let m = warm(4, 64 << 10);
    assert_eq!(
        m.stats().timed_reads,
        0,
        "staging reads nothing in the foreground"
    );
    let mut buf = vec![0u8; 4096];
    let reads = 64 * N;
    for i in 0..reads {
        let at = (i % 16) * 4096;
        assert_eq!(m.read(&name(i as usize % 4), at, &mut buf).unwrap(), 4096);
    }
    let stats = m.stats();
    assert_eq!(stats.tiers[0].reads, reads, "all hits");
    assert!(
        (reads / N..=reads / N + 2).contains(&stats.timed_reads),
        "{} of {reads} reads timed",
        stats.timed_reads
    );
    let snap = m.telemetry_snapshot();
    // The weighted records count (an estimate of) every read.
    for count in [
        snap.read_latency[0].count,
        snap.stall_profile.lock_wait.count,
        snap.stall_profile.driver_pread.count,
    ] {
        assert!(count.abs_diff(reads) <= 2 * N, "{count} for {reads} reads");
    }
    m.shutdown();
}

#[test]
fn the_ledger_keeps_the_sub_microsecond_phases_of_warm_hits() {
    // The ledger and the stall profile are fed from the same instants, at
    // the same weight. A warm hit's phases are all below a microsecond:
    // floored to whole microseconds read by read, as they once were, they
    // left the ledger a quarter of what the stall profile held.
    let m = warm(4, 64 << 10);
    let mut buf = vec![0u8; 4096];
    let reads = 1_000 * N;
    for i in 0..reads {
        let at = (i % 16) * 4096;
        assert_eq!(m.read(&name(i as usize % 4), at, &mut buf).unwrap(), 4096);
    }
    let snap = m.telemetry_snapshot();
    let ledger = snap.observe.as_ref().expect("profiler on").profiler.ledger;
    assert_eq!(ledger.reads, reads, "counted on every read, timed or not");
    let stall = &snap.stall_profile;
    let within_1pc = |ledger_us: u64, stall_ns: u64| {
        let stall_us = stall_ns / 1_000;
        assert!(stall_us > 0);
        assert!(
            ledger_us.abs_diff(stall_us) * 100 <= stall_us,
            "ledger {ledger_us} us, stall profile {stall_us} us"
        );
    };
    within_1pc(ledger.read_wall_us, stall_sum(&snap));
    within_1pc(
        ledger.lock_queue_us,
        stall.lock_wait.sum_nanos + stall.queue_wait.sum_nanos,
    );
    within_1pc(ledger.fast_pread_us, stall.driver_pread.sum_nanos);
    within_1pc(ledger.copy_wait_us, stall.copy_wait.sum_nanos);
    m.shutdown();
}

#[test]
fn weighted_times_estimate_the_wall_time_of_all_hits() {
    // Reads with a device's latency, so that one read is much like the
    // next and a sample of them stands for the rest: 128 timed reads of
    // 2048, each weighing 16. The four buckets then add up to what a
    // caller measures around the calls, to within 10 %.
    let _cores = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let fast = Slow(MemDriver::new("fast"));
    let m = builder(Arc::new(fast), u64::MAX / 2, pfs(4, 256 << 10))
        .build()
        .unwrap();
    m.init().unwrap();
    m.prestage();
    m.wait_placement_idle();
    let mut buf = vec![0u8; 256 << 10];
    let reads = 128 * N;
    let start = Instant::now();
    for i in 0..reads {
        assert_eq!(
            m.read(&name(i as usize % 4), 0, &mut buf).unwrap(),
            buf.len()
        );
    }
    let wall = start.elapsed().as_nanos() as u64;
    let snap = m.telemetry_snapshot();
    let count = snap.stall_profile.driver_pread.count;
    assert!(count.abs_diff(reads) <= N, "{count} for {reads} reads");
    let estimate = stall_sum(&snap);
    assert!(
        estimate.abs_diff(wall) * 10 <= wall,
        "buckets {estimate} ns, wall {wall} ns"
    );
    m.shutdown();
}

#[test]
fn a_handful_of_hits_per_thread_still_shows_up_timed() {
    // The first hit a reader stripe serves carries the clock, so an
    // instance that served any hit at all has timed one.
    let m = warm(4, 4096);
    std::thread::scope(|s| {
        for t in 0..4 {
            let m = &m;
            s.spawn(move || {
                let mut buf = vec![0u8; 512];
                for i in 0..3 {
                    assert_eq!(m.read(&name((t + i) % 4), 0, &mut buf).unwrap(), 512);
                }
            });
        }
    });
    let snap = m.telemetry_snapshot();
    assert!(snap.read_latency[0].count > 0, "local reads timed");
    assert_eq!(snap.read_latency[0].count % N, 0, "each standing for N");
    assert!(m.stats().timed_reads >= 1);
    m.shutdown();
}

#[test]
fn ids_past_the_profiler_bound_only_count_as_untracked() {
    const FILES: usize = 8;
    const BOUND: usize = 3;
    let m = builder(
        Arc::new(MemDriver::new("fast")),
        u64::MAX / 2,
        pfs(FILES, 4096),
    )
    .telemetry(TelemetryConfig {
        profiler_max_files: BOUND,
        ..TelemetryConfig::default()
    })
    .build()
    .unwrap();
    m.init().unwrap();
    let mut buf = vec![0u8; 4096];
    for round in 0..3 {
        for i in 0..FILES {
            assert_eq!(m.read(&name(i), 0, &mut buf).unwrap(), 4096);
        }
        if round == 0 {
            m.wait_placement_idle();
        }
    }
    let profiler = m
        .telemetry_snapshot()
        .observe
        .expect("profiler on")
        .profiler;
    let reads = 3 * FILES as u64;
    assert_eq!(profiler.ledger.reads, reads, "the ledger counts them all");
    assert_eq!(profiler.tracked, BOUND as u64);
    assert_eq!(profiler.files.len(), BOUND);
    assert!(profiler.files.iter().all(|f| f.profile.accesses == 3));
    assert_eq!(profiler.untracked_reads, reads - 3 * BOUND as u64);
    m.shutdown();
}
