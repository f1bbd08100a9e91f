//! Cross-substrate validation: the discrete-event simulator and the real
//! thread-based trainer must agree on the *mechanical* quantities that do
//! not depend on timing — chunk-read counts, byte totals, placement
//! outcomes — when driven by the same dataset geometry.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::telemetry::TelemetrySnapshot;
use monarch::core::Monarch;
use monarch::dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use monarch::dlpipe::geometry::{DatasetGeom, ShardGeom};
use monarch::dlpipe::models::ModelProfile;
use monarch::dlpipe::real::{RealBackend, RealTrainer};
use monarch::dlpipe::sim::SimTrainer;
use monarch::tfrecord::synth::{generate, DatasetSpec};
use monarch::tfrecord::ShardIndex;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-xval-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn tiny_model() -> ModelProfile {
    ModelProfile {
        name: "tiny".into(),
        per_sample_step: 10e-6,
        gpu_fraction: 0.7,
        cpu_per_sample: 10e-6,
        batch_size: 64,
    }
}

/// Measure the on-disk dataset into a simulator geometry.
fn geometry_of(dir: &PathBuf) -> DatasetGeom {
    let mut shards: Vec<(String, ShardGeom)> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| {
            let bytes = e.metadata().unwrap().len();
            let idx = ShardIndex::build(std::io::BufReader::new(fs::File::open(e.path()).unwrap()))
                .unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                ShardGeom {
                    bytes,
                    records: idx.len() as u64,
                },
            )
        })
        .collect();
    shards.sort_by(|a, b| a.0.cmp(&b.0));
    DatasetGeom::from_shards("measured", shards.into_iter().map(|(_, s)| s).collect())
}

#[test]
fn chunk_read_counts_agree_between_sim_and_real() {
    let root = tmp("counts");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 128, 51);
    generate(&spec, &data).unwrap();
    let geom = geometry_of(&data);
    let chunk = 16u64 << 10;

    // Real: vanilla pass over the directory.
    let real = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        PipelineConfig {
            readers: 4,
            chunk_bytes: chunk,
            prefetch_batches: 2,
            seed: 9,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
    )
    .unwrap()
    .run_epoch(0)
    .unwrap();

    // Sim: vanilla-lustre over the measured geometry.
    let sim = SimTrainer::new(
        Setup::VanillaLustre,
        geom.clone(),
        tiny_model(),
        PipelineConfig {
            readers: 4,
            chunk_bytes: chunk,
            prefetch_batches: 2,
            seed: 9,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
        EnvConfig::default(),
    )
    .run(1);

    assert_eq!(real.chunk_reads, geom.chunk_reads_per_epoch(chunk));
    assert_eq!(
        sim.epochs[0].devices[sim.pfs_device].reads(),
        real.chunk_reads,
        "sim and real must issue identical chunk counts"
    );
    assert_eq!(
        sim.epochs[0].devices[sim.pfs_device].bytes_read(),
        real.bytes
    );
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn monarch_placement_outcomes_agree_between_sim_and_real() {
    let root = tmp("placement");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(2 << 20, 128, 77);
    let ds = generate(&spec, &data).unwrap();
    let geom = geometry_of(&data);
    // Half-fit quota.
    let quota = ds.total_bytes / 2;

    // Real middleware, three epochs.
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
    let trainer = RealTrainer::new(
        RealBackend::Monarch(Arc::clone(&m)),
        &data,
        PipelineConfig {
            readers: 4,
            chunk_bytes: 16 << 10,
            prefetch_batches: 2,
            seed: 4,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    for e in 0..3 {
        trainer.run_epoch(e).unwrap();
        m.wait_placement_idle();
    }
    let real_placed = m.stats().copies_completed;
    let real_skipped = m.stats().placement_skipped;
    let real_used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();

    // Simulated middleware over the measured geometry, same quota.
    let sim = SimTrainer::new(
        Setup::Monarch(MonarchSimConfig::with_ssd_capacity(quota)),
        geom.clone(),
        tiny_model(),
        PipelineConfig {
            readers: 4,
            chunk_bytes: 16 << 10,
            prefetch_batches: 2,
            seed: 4,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
        EnvConfig::default(),
    )
    .run(3);
    let sim_placed_bytes: u64 = sim
        .epochs
        .iter()
        .map(|e| e.devices[0].bytes_written())
        .sum();

    // Placement outcomes: both fill the quota to within one shard (the
    // shuffle order differs, so the exact shard set may differ).
    let max_shard = geom.shards.iter().map(|s| s.bytes).max().unwrap();
    assert!(
        real_used + max_shard >= quota,
        "real middleware left quota unfilled: {real_used} of {quota}"
    );
    assert!(
        sim_placed_bytes + max_shard >= quota && sim_placed_bytes <= quota,
        "sim placement out of range: {sim_placed_bytes} of {quota}"
    );
    assert!(real_placed > 0 && real_skipped > 0);

    // Under either clock, every copy a worker took is booked once: one
    // queue wait and one run each — placed, skipped, failed or requeued —
    // and a duration for each placed one.
    let booked_once = |who: &str, t: &TelemetrySnapshot| {
        let s = &t.stats;
        let waits = t.queue_wait.count + t.queue_wait_remote.count + t.queue_wait_prefetch.count;
        let ran = s.copies_completed + s.placement_skipped + s.copies_failed + s.copy_requeues;
        assert_eq!(t.pool_exec.count, waits, "{who}: pool_exec vs queue waits");
        assert_eq!(waits, ran, "{who}: queue waits vs copies that ran");
        assert_eq!(
            t.copy_duration.count, s.copies_completed,
            "{who}: copy durations"
        );
    };
    booked_once("real", &m.telemetry_snapshot());
    booked_once(
        "sim",
        sim.telemetry
            .as_ref()
            .expect("monarch runs carry telemetry"),
    );
    fs::remove_dir_all(&root).unwrap();
}
