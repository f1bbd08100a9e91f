//! Acceptance tests for the workload observatory's epoch report, across
//! both drivers:
//!
//! - **Real** (tempdir, actual threads, wall clock): a plan-covered epoch
//!   with a held-back tail produces a report whose attribution buckets
//!   sum to the measured wall within 5%, with at least one hot file and
//!   the held-back files flagged as wasted prefetch.
//! - **Clock** (the real engine on a manual clock, in-memory tiers): the
//!   same epoch's buckets sum to the clock's wall exactly.
//! - **Sim** (virtual time): a MONARCH run attaches the same report to
//!   its `RunReport`, per-epoch buckets sum to each epoch's virtual
//!   seconds, and the whole-run roll-up matches the total.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::driver::MemDriver;
use monarch::core::observe::{LedgerBuckets, ObserveReport};
use monarch::core::prefetch::{AccessPlan, PrefetchConfig};
use monarch::core::telemetry::{EventKind, TransitionCause};
use monarch::core::{Clock, Monarch, MonarchBuilder, Result, StorageDriver, StorageHierarchy};
use monarch::dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use monarch::dlpipe::geometry::DatasetGeom;
use monarch::dlpipe::models::ModelProfile;
use monarch::dlpipe::sim::SimTrainer;
use monarch::tfrecord::synth::{generate, DatasetSpec};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-report-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn assert_buckets_sum_to_wall(buckets: &LedgerBuckets, wall_s: f64, what: &str) {
    let sum = buckets.sum_s();
    assert!(
        (sum - wall_s).abs() <= 0.05 * wall_s.max(1e-9),
        "{what}: bucket sum {sum} vs wall {wall_s} off by more than 5% ({buckets:?})"
    );
}

#[test]
fn real_epoch_report_attributes_wall_and_flags_waste() {
    let root = tmp("real");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(768 << 10, 96, 11);
    let ds = generate(&spec, &data).unwrap();

    let cfg = MonarchConfig {
        pool_threads: 4,
        prefetch_lookahead: 16,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(2 * ds.total_bytes),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();

    let mut files: Vec<String> = Vec::new();
    m.metadata()
        .for_each(|name, _| files.push(name.to_string()));
    files.sort();
    assert!(files.len() >= 4, "dataset too small: {}", files.len());

    // The plan covers everything; the foreground holds back a tail the
    // prefetcher will stage anyway — the report's wasted-prefetch list.
    let hold = 2usize;
    let read_set = &files[..files.len() - hold];
    let holdback = &files[files.len() - hold..];

    let started = Instant::now();
    m.submit_plan(&AccessPlan::new(files.clone()));
    let mut buf = vec![0u8; 16 << 10];
    for _epoch in 0..2 {
        for name in read_set {
            let mut off = 0u64;
            loop {
                let n = m.read(name, off, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                off += n as u64;
            }
        }
        // The second epoch's hits — the reads timed one in 16 and weighed
        // 16 times — do not share the cores with the four copy workers:
        // a hit preempted by a copy would book 16 times the preemption.
        m.wait_placement_idle();
    }
    let wall_s = started.elapsed().as_secs_f64();

    let snap = m.telemetry_snapshot();
    // top_k covers the whole namespace so the wasted list is not truncated.
    let report = ObserveReport::from_snapshot(&snap, wall_s, 1, files.len())
        .expect("default telemetry keeps the profiler on");

    assert!(report.reads > 0, "no reads profiled");
    assert_buckets_sum_to_wall(&report.ledger, wall_s, "real epoch");
    assert!(
        !report.top_hot.is_empty(),
        "an epoch of reads must produce hot files"
    );
    assert!(report.top_hot[0].accesses >= 2, "two epochs of reads");
    for name in holdback {
        assert!(
            report
                .wasted_prefetch
                .iter()
                .any(|w| &w.file == name && w.prefetched_bytes > 0),
            "held-back {name} missing from wasted list: {:?}",
            report.wasted_prefetch
        );
    }
    // The journal saw the plan's staging copies land.
    assert!(
        m.telemetry().journal().events().iter().any(|e| matches!(
            e.kind,
            EventKind::CopyCompleted {
                cause: TransitionCause::Plan,
                ..
            }
        )),
        "no plan-driven copy_completed in the journal"
    );
    drop(m);
    fs::remove_dir_all(&root).unwrap();
}

/// A `MemDriver` tier with a device's latency on a manual clock: every
/// read moves the clock on by 0.2 ms, and takes no real time.
struct Ticking(MemDriver, Clock);

impl StorageDriver for Ticking {
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
fn clock_epoch_report_attributes_the_wall_exactly_and_flags_waste() {
    // The real epoch above in virtual time: the same plan, held-back tail
    // and two epochs over in-memory tiers, on a manual clock that only the
    // tiers' reads move (0.2 ms each, the copies' fetches included). The
    // buckets then sum to the wall the clock shows, to the microsecond.
    let clock = Clock::manual();
    let pfs = MemDriver::new("pfs");
    let files: Vec<String> = (0..48).map(|i| format!("f{i:03}")).collect();
    for (i, name) in files.iter().enumerate() {
        pfs.insert(name, vec![i as u8; 40 << 10]);
    }
    let tier =
        |driver: MemDriver| Arc::new(Ticking(driver, clock.clone())) as Arc<dyn StorageDriver>;
    let hierarchy = StorageHierarchy::new(vec![
        ("ssd".into(), tier(MemDriver::new("ssd")), Some(4 << 20)),
        ("pfs".into(), tier(pfs), None),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(4)
        .prefetch(PrefetchConfig {
            lookahead: 16,
            max_inflight_bytes: 0,
        })
        .clock(clock.clone())
        .build()
        .unwrap();
    m.init().unwrap();
    let (read_set, holdback) = files.split_at(files.len() - 2);

    let started = clock.now_ns();
    m.submit_plan(&AccessPlan::new(files.clone()));
    let mut buf = vec![0u8; 16 << 10];
    for _epoch in 0..2 {
        for name in read_set {
            let mut off = 0u64;
            loop {
                let n = m.read(name, off, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                off += n as u64;
            }
        }
        m.wait_placement_idle();
    }
    let wall_us = (clock.now_ns() - started) / 1_000;
    let wall_s = wall_us as f64 / 1e6;

    let snap = m.telemetry_snapshot();
    let report = ObserveReport::from_snapshot(&snap, wall_s, 1, files.len())
        .expect("default telemetry keeps the profiler on");
    assert!(report.reads > 0, "no reads profiled");
    assert!(
        report.ledger.compute_bound_s < wall_s,
        "{:?}",
        report.ledger
    );
    assert_eq!(
        (report.ledger.sum_s() * 1e6).round() as u64,
        wall_us,
        "{:?}",
        report.ledger
    );
    assert!(report.top_hot[0].accesses >= 2, "two epochs of reads");
    for name in holdback {
        assert!(
            report
                .wasted_prefetch
                .iter()
                .any(|w| &w.file == name && w.prefetched_bytes > 0),
            "held-back {name} missing from wasted list: {:?}",
            report.wasted_prefetch
        );
    }
    m.shutdown();
}

#[test]
fn a_run_without_prefetch_reports_no_prefetch_lag() {
    // With prefetching off nothing can lag a plan. What a read does after
    // its pread — the plan cursor's note — is bookkeeping, and the report
    // charges it to lock-or-queue, not to prefetch-lag. The fast tier has
    // room for no file, so no read is a local hit: every read carries the
    // clock at weight 1, its phases lie inside the wall, and the buckets
    // partition the wall by construction — no sampled hit stands for 16.
    let root = tmp("noprefetch");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(256 << 10, 32, 5);
    let ds = generate(&spec, &data).unwrap();
    let smallest = ds
        .shards
        .iter()
        .map(|s| fs::metadata(s).unwrap().len())
        .min()
        .unwrap();
    let cfg = MonarchConfig {
        pool_threads: 2,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(smallest - 1),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    assert_eq!(cfg.prefetch_lookahead, 0);
    let m = Monarch::new(cfg).unwrap();
    m.init().unwrap();
    let mut files: Vec<String> = Vec::new();
    m.metadata()
        .for_each(|name, _| files.push(name.to_string()));

    let started = Instant::now();
    let mut buf = vec![0u8; 4 << 10];
    for epoch in 0..3 {
        for name in &files {
            let mut off = 0u64;
            while m.read(name, off, &mut buf).unwrap() > 0 {
                off += buf.len() as u64;
            }
        }
        if epoch == 0 {
            m.wait_placement_idle();
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    let snap = m.telemetry_snapshot();
    assert_eq!(snap.stats.local_reads(), 0, "no read was a local hit");
    let report = ObserveReport::from_snapshot(&snap, wall_s, 1, 4)
        .expect("default telemetry keeps the profiler on");
    assert!(report.reads > 0, "no reads profiled");
    assert_eq!(report.ledger.prefetch_lag_s, 0.0, "{:?}", report.ledger);
    assert!(report.ledger.lock_or_queue_s > 0.0, "{:?}", report.ledger);
    assert_buckets_sum_to_wall(&report.ledger, wall_s, "run without prefetch");
    m.shutdown();
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn sim_run_report_carries_per_epoch_and_total_attribution() {
    let model = ModelProfile {
        name: "tiny".into(),
        per_sample_step: 50e-6,
        gpu_fraction: 0.7,
        cpu_per_sample: 60e-6,
        batch_size: 128,
    };
    let run = SimTrainer::new(
        Setup::Monarch(MonarchSimConfig::with_prefetch(64)),
        DatasetGeom::miniature("mini", 16_384, 42),
        model,
        PipelineConfig::default().with_seed(1),
        EnvConfig::default(),
    )
    .run(2);

    let observe = run.observe.as_ref().expect("monarch sim attaches observe");
    assert!(observe.reads > 0, "sim profiled no reads");
    let total: f64 = run.epochs.iter().map(|e| e.seconds).sum();
    assert!((observe.wall_s - total).abs() < 1e-9);
    assert_buckets_sum_to_wall(&observe.ledger, total, "sim total");
    assert!(!observe.top_hot.is_empty(), "sim saw no hot files");
    let telemetry = run
        .telemetry
        .as_ref()
        .expect("monarch sim attaches telemetry");
    assert!(telemetry.stats.copies_completed > 0, "sim placed no copies");

    for e in &run.epochs {
        let b = e.observe.as_ref().expect("per-epoch attribution");
        assert_buckets_sum_to_wall(b, e.seconds, &format!("sim epoch {}", e.epoch));
    }
    // Epoch 1 pays the staging traffic; epoch 2 runs warm, so its
    // storage-attributed share must shrink.
    let storage = |b: &LedgerBuckets| b.sum_s() - b.compute_bound_s;
    let e1 = run.epochs[0].observe.as_ref().unwrap();
    let e2 = run.epochs[1].observe.as_ref().unwrap();
    assert!(
        storage(e2) < storage(e1),
        "warm epoch 2 ({:?}) should lose less time to storage than cold epoch 1 ({:?})",
        e2,
        e1
    );

    // A non-MONARCH setup carries no observe section at all.
    let vanilla = SimTrainer::new(
        Setup::VanillaLustre,
        DatasetGeom::miniature("mini", 16_384, 42),
        ModelProfile::lenet(),
        PipelineConfig::default().with_seed(1),
        EnvConfig::default(),
    )
    .run(1);
    assert!(vanilla.observe.is_none());
    assert!(vanilla.epochs[0].observe.is_none());
}
