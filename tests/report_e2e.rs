//! Acceptance tests for the workload observatory's epoch report, across
//! both drivers:
//!
//! - **Real** (tempdir, actual threads, wall clock): a plan-covered epoch
//!   with a held-back tail produces a report whose attribution buckets
//!   sum to the measured wall within 5%, with at least one hot file and
//!   the held-back files flagged as wasted prefetch.
//! - **Sim** (virtual time): a MONARCH run attaches the same report to
//!   its `RunReport`, per-epoch buckets sum to each epoch's virtual
//!   seconds, and the whole-run roll-up matches the total.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::observe::{LedgerBuckets, ObserveReport};
use monarch::core::prefetch::AccessPlan;
use monarch::core::Monarch;
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

    let cfg = MonarchConfig::builder()
        .tier(
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(2 * ds.total_bytes),
        )
        .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
        .pool_threads(4)
        .prefetch_lookahead(16)
        .build();
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
    }
    m.wait_placement_idle();
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
    // The timeline saw the staging copies land.
    assert!(report.timeline_recorded > 0, "no residency transitions");
    drop(m);
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
    assert!(observe.timeline_recorded > 0, "sim recorded no transitions");

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
