//! What a read reports: counts on every read, exact; times on every read
//! that is not a plain local-tier hit and on one such hit in
//! [`TIMED_HIT_PERIOD`], weighted so that they estimate the totals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use monarch_core::config::PolicyKind;
use monarch_core::driver::{open_gate, FlakyDriver, FlakyOutcome, GatedDriver, MemDriver};
use monarch_core::health::PROBE_COOLDOWN_US;
use monarch_core::observe::ReadTiming;
use monarch_core::telemetry::TIMED_HIT_PERIOD as N;
use monarch_core::{
    AccessProfiler, Clock, MetadataContainer, Monarch, MonarchBuilder, ReadClass, Result, Stats,
    StorageDriver, StorageHierarchy, TelemetrySnapshot,
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

/// A tier with a device's latency: every read takes `0.2 ms` longer. It
/// waits for its deadline by spinning: a `sleep` overshoots by a wake-up,
/// often by milliseconds on a busy host, so that a few of the reads would
/// carry most of the time and a sample of them would not stand for the rest.
struct Slow<D>(D);

impl<D: StorageDriver> StorageDriver for Slow<D> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let deadline = Instant::now() + Duration::from_micros(200);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
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

/// A tier with a device's latency on a manual clock: every read moves the
/// clock on by 0.2 ms, and takes no real time.
struct Ticking<D>(D, Clock);

impl<D: StorageDriver> StorageDriver for Ticking<D> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.1.advance(Duration::from_micros(200));
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

/// Whether the calling test, `name`, runs alone with the process's
/// stripes. Threads of other tests own stripes too, so in the test binary
/// the test runs itself again in a child process, checks that it passed
/// there and gets `false`; in the child it gets `true`, and runs.
fn alone(name: &str) -> bool {
    const CHILD: &str = "MONARCH_OBSERVATION_ALONE_CHILD";
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", name, "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("the child test runs");
    let log = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success() && log.contains("1 passed"), "{log}");
    false
}

#[test]
fn counts_are_exact_when_cells_hand_over_and_run_out() {
    // A reading thread counts in cells of its own, one for each of the
    // first 512 ids; a read of a file past them adds to the file's line.
    // Here the cells run out (twice as many files as cells), readers exit halfway
    // and hand their stripe and its cells to the next, and a wave of 20
    // threads outnumbers the 16 stripes a thread can own, so that some
    // count on the files' lines alone. At quiescence every file's count
    // and its bytes per tier are what the test issued.
    if !alone("counts_are_exact_when_cells_hand_over_and_run_out") {
        return;
    }
    const FILES: usize = 1024;
    const SIZE: usize = 4096;
    const READERS: usize = 8;
    const READS: usize = 4000;
    const WAVE: usize = 20;
    // The fast tier holds half the files; the rest stay on the PFS.
    let m = builder(
        Arc::new(MemDriver::new("fast")),
        (FILES * SIZE / 2) as u64,
        pfs(FILES, SIZE),
    )
    .build()
    .unwrap();
    m.init().unwrap();
    m.prestage();
    m.wait_placement_idle();
    let tier: Vec<usize> = (0..FILES)
        .map(|i| m.metadata().get(&name(i)).unwrap().tier)
        .collect();
    assert!(tier.contains(&0) && tier.contains(&1), "both tiers serve");
    let issued: Vec<AtomicU64> = (0..FILES).map(|_| AtomicU64::new(0)).collect();
    let read = |seed: u64, reads: usize| {
        let mut buf = vec![0u8; SIZE];
        let mut x = seed;
        for _ in 0..reads {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let file = (x % FILES as u64) as usize;
            assert_eq!(m.read(&name(file), 0, &mut buf).unwrap(), SIZE);
            issued[file].fetch_add(1, Ordering::Relaxed);
        }
    };
    // Each reader is two threads, one after the other: the first exits
    // halfway and hands its stripe on.
    std::thread::scope(|s| {
        for t in 0..READERS as u64 {
            let read = &read;
            s.spawn(move || {
                for half in 0..2 {
                    std::thread::scope(|s| {
                        s.spawn(|| read(t * 2 + half + 1, READS / 2));
                    });
                }
            });
        }
    });
    // All of the wave alive at once.
    let all_in = std::sync::Barrier::new(WAVE);
    std::thread::scope(|s| {
        for t in 0..WAVE as u64 {
            let (read, all_in) = (&read, &all_in);
            s.spawn(move || {
                all_in.wait();
                read(100 + t, 500);
                all_in.wait();
            });
        }
    });
    let issued: Vec<u64> = issued.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    let profiler = m
        .telemetry_snapshot()
        .observe
        .expect("profiler on")
        .profiler;
    assert_eq!(
        profiler.ledger.reads,
        issued.iter().sum::<u64>(),
        "one ledger read a read"
    );
    for f in &profiler.files {
        let i: usize = f.file[1..].parse().unwrap();
        let mut bytes = vec![0; 2];
        bytes[tier[i]] = issued[i] * SIZE as u64;
        assert_eq!(
            m.metadata().get(&f.file).unwrap().reads,
            issued[i],
            "{}",
            f.file
        );
        assert_eq!(f.profile.accesses, issued[i], "{}", f.file);
        assert_eq!(f.profile.bytes_by_tier, bytes, "{}", f.file);
    }
    let read_files = issued.iter().filter(|&&n| n > 0).count();
    assert_eq!(profiler.files.len(), read_files);
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
    // A timed read's phases are written once, into the stall profile, and
    // the ledger's time sums are read off it. A warm hit's phases are all
    // below a microsecond: floored to whole microseconds read by read, as
    // they once were, they left the ledger a quarter of what the stall
    // profile held. Now they are the profile's nanoseconds, divided once.
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
    assert!(stall.driver_pread.sum_nanos >= 1_000, "{stall:?}");
    assert_eq!(ledger.read_wall_us, stall_sum(&snap) / 1_000);
    assert_eq!(
        ledger.lock_queue_us,
        (stall.lock_wait.sum_nanos + stall.queue_wait.sum_nanos) / 1_000
    );
    // Every read was a local hit: all the pread time is the fast class's.
    assert_eq!(ledger.fast_pread_us, stall.driver_pread.sum_nanos / 1_000);
    assert_eq!(ledger.copy_wait_us, stall.copy_wait.sum_nanos / 1_000);
    m.shutdown();
}

#[test]
fn weighted_times_estimate_the_wall_time_of_all_hits() {
    // Reads with a device's latency, so that one read is much like the
    // next and a sample of them stands for the rest: 512 timed reads of
    // 8192, each weighing 16. The four buckets then add up to what a
    // caller measures around the calls, to within 10 %. A timed read the
    // host stalls for a few milliseconds weighs 16 times its stall; over a
    // window of two seconds that is a few percent, not the whole margin
    // (hence the device's spin: a sleep's wake-up is such a stall on every
    // read).
    let _cores = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let fast = Slow(MemDriver::new("fast"));
    let m = builder(Arc::new(fast), u64::MAX / 2, pfs(4, 256 << 10))
        .build()
        .unwrap();
    m.init().unwrap();
    m.prestage();
    m.wait_placement_idle();
    let mut buf = vec![0u8; 256 << 10];
    let reads = 512 * N;
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
fn weighted_times_equal_the_clock_wall_of_all_hits() {
    // The test above in virtual time: the device's reads are all that
    // move the instance's manual clock, so each timed read's phases hold
    // its 0.2 ms, and 512 timed reads weighing 16 each add up to the wall
    // of all 8192 exactly. Exact needs every 16th hit of this thread
    // timed, so it runs with the process's stripes to itself.
    if !alone("weighted_times_equal_the_clock_wall_of_all_hits") {
        return;
    }
    let clock = Clock::manual();
    let fast = Ticking(MemDriver::new("fast"), clock.clone());
    let m = builder(Arc::new(fast), u64::MAX / 2, pfs(4, 4096))
        .clock(clock.clone())
        .build()
        .unwrap();
    m.init().unwrap();
    m.prestage();
    m.wait_placement_idle();
    let mut buf = vec![0u8; 4096];
    let reads = 512 * N;
    let start = clock.now_ns();
    for i in 0..reads {
        assert_eq!(m.read(&name(i as usize % 4), 0, &mut buf).unwrap(), 4096);
    }
    let wall = clock.now_ns() - start;
    assert_eq!(wall, reads * 200_000);
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.stall_profile.driver_pread.count, reads);
    assert_eq!(stall_sum(&snap), wall);
    m.shutdown();
}

#[test]
fn a_probe_read_is_timed_at_weight_one_and_leaves_the_turn_to_hits() {
    // A read that the half-open probe of a recovering tier serves is a
    // read of that tier but not a plain hit: it carries the clock at
    // weight 1, and the turn that times one hit in N counts hits only.
    let fast = Arc::new(FlakyDriver::new(MemDriver::new("fast")));
    let clock = Clock::manual();
    let m = builder(
        Arc::clone(&fast) as Arc<dyn StorageDriver>,
        u64::MAX / 2,
        pfs(1, 4096),
    )
    .clock(clock.clone())
    .build()
    .unwrap();
    m.init().unwrap();
    m.prestage();
    m.wait_placement_idle();
    let mut buf = vec![0u8; 512];
    let mut read = || assert_eq!(m.read(&name(0), 0, &mut buf).unwrap(), 512);
    // The first hit carries the clock, standing for N.
    read();
    // A permanent fault quarantines the tier, and the PFS serves the read.
    fast.script_reads([FlakyOutcome::Permanent]);
    read();
    // After the cooldown the next read probes the tier, which answers.
    clock.advance(Duration::from_micros(PROBE_COOLDOWN_US));
    read();
    let stats = m.stats();
    assert_eq!((stats.tier_quarantines, stats.tier_recoveries), (1, 1));
    // The PFS served the staging copy and the degraded read.
    assert_eq!((stats.tiers[0].reads, stats.tiers[1].reads), (2, 2));
    // Hits 2 to N do not carry the clock, probe or no probe...
    for _ in 1..N {
        read();
    }
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.read_latency[0].count, N + 1, "hit 1, the probe");
    assert_eq!(m.stats().timed_reads, 3, "hit 1, the PFS read, the probe");
    // ...and hit N + 1 does.
    read();
    assert_eq!(m.telemetry_snapshot().read_latency[0].count, 2 * N + 1);
    assert_eq!(m.stats().timed_reads, 4);
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
    // The instance's bound is a constant; a profiler over the same kind of
    // namespace, bounded at three files, shows what happens past it. Each
    // read is counted and recorded by name.
    const FILES: usize = 8;
    const BOUND: usize = 3;
    let files = Arc::new(MetadataContainer::default());
    for i in 0..FILES {
        files.register(&name(i), 4096, 1);
    }
    let stats = Arc::new(Stats::new(2));
    let profiler = AccessProfiler::with_namespace(true, 2, BOUND, Arc::clone(&files), stats);
    for round in 0..3u64 {
        for i in 0..FILES {
            let (timing, class) = (ReadTiming::default(), ReadClass::PfsCold);
            profiler.record_read(&name(i), 1, 4096, class, false, timing, round);
        }
    }
    let profiler = profiler.snapshot();
    let reads = 3 * FILES as u64;
    assert_eq!(profiler.ledger.reads, reads, "the ledger counts them all");
    assert_eq!(profiler.tracked, BOUND as u64);
    assert_eq!(profiler.files.len(), BOUND);
    assert!(profiler.files.iter().all(|f| f.profile.accesses == 3));
    assert_eq!(profiler.untracked_reads, reads - 3 * BOUND as u64);
}

#[test]
fn two_readers_time_one_file_on_their_own_turns_and_its_gap_holds() {
    // Two threads read one file in lockstep, each read moving the manual
    // clock on by 0.2 ms, so the file's true gap is 0.2 ms a read. Each
    // thread times one of its own hits in N, and the file's rhythm spreads
    // the time since the previous timed read, whichever thread took it,
    // over the N reads the timed one stands for: on average the file's
    // reads in between. Nothing counts them, and the access count stays
    // the namespace's, exact. Exactness of the turns needs the process's
    // stripes to itself.
    if !alone("two_readers_time_one_file_on_their_own_turns_and_its_gap_holds") {
        return;
    }
    const READS: u64 = 64 * N;
    let gap = |lead: u64| {
        let clock = Clock::manual();
        let fast = Ticking(MemDriver::new("fast"), clock.clone());
        let m = builder(Arc::new(fast), u64::MAX / 2, pfs(2, 4096))
            .clock(clock)
            .build()
            .unwrap();
        m.init().unwrap();
        m.prestage();
        m.wait_placement_idle();
        let next = AtomicU64::new(0);
        std::thread::scope(|s| {
            for me in 0..2 {
                let (m, next) = (&m, &next);
                s.spawn(move || {
                    let mut buf = vec![0u8; 4096];
                    // The second reader's turn comes `lead` hits later.
                    for _ in 0..lead * me {
                        assert_eq!(m.read(&name(1), 0, &mut buf).unwrap(), 4096);
                    }
                    for _ in 0..READS {
                        while next.load(Ordering::Acquire) % 2 != me {
                            std::thread::yield_now();
                        }
                        assert_eq!(m.read(&name(0), 0, &mut buf).unwrap(), 4096);
                        next.fetch_add(1, Ordering::Release);
                    }
                });
            }
        });
        let profile = |i| m.telemetry().profiler().profile(&name(i));
        let accesses = |i| profile(i).map_or(0, |p| p.accesses);
        assert_eq!(accesses(0), 2 * READS, "exact, timed or not");
        assert_eq!(accesses(1), lead);
        let ewma = profile(0).unwrap().ewma_gap_us;
        m.shutdown();
        ewma / 200.0 - 1.0
    };
    // Turns half a period apart: the timed reads alternate evenly.
    let off = gap(N / 2);
    assert!(off.abs() <= 0.10, "{:+.1} % off", off * 100.0);
    // Turns that coincide time the two readers' reads back to back: gaps
    // of 1 and 2N - 1 reads, each spread over N, in turn. The estimate is
    // still the true gap on average, but the last of them sways the EWMA
    // by up to α (N - 1) / N / (2 - α) = 10.4 % either way.
    let off = gap(0);
    assert!(
        off.abs() <= 0.2 * 15.0 / 16.0 / 1.8 + 1e-3,
        "{:+.1} % off",
        off * 100.0
    );
}
