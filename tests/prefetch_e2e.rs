//! Acceptance test for the clairvoyant prefetch subsystem, across both
//! drivers:
//!
//! - **Real** (tempdir, actual threads): with a full-epoch access plan and
//!   a fast tier big enough for the dataset, epoch 1 through the prefetching
//!   middleware has a strictly higher fast-tier hit rate than the reactive
//!   middleware — and delivers byte-identical data.
//! - **Disabled** (`prefetch_lookahead = 0`): submitted plans are inert and
//!   behaviour is byte-identical to today's reactive path.
//! - **Sim** (virtual time): the `prefetch` mode's epoch 1 beats vanilla
//!   caching's epoch 1 and the reactive middleware's epoch 1.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::prefetch::AccessPlan;
use monarch::core::Monarch;
use monarch::dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use monarch::dlpipe::geometry::DatasetGeom;
use monarch::dlpipe::models::ModelProfile;
use monarch::dlpipe::real::{RealBackend, RealTrainer};
use monarch::dlpipe::sim::SimTrainer;
use monarch::tfrecord::synth::{generate, DatasetSpec};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-pf-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        readers: 4,
        chunk_bytes: 16 << 10,
        prefetch_batches: 2,
        seed: 7,
        trace_interval_secs: None,
        ..PipelineConfig::default()
    }
}

fn middleware(cache: &Path, data: &Path, cap: u64, lookahead: usize) -> Arc<Monarch> {
    let cfg = MonarchConfig {
        pool_threads: 4,
        prefetch_lookahead: lookahead,
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", cache.to_string_lossy().to_string()).with_capacity(cap),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();
    m
}

/// Fraction of foreground read bytes served by the fast tier between two
/// stats snapshots.
fn local_hit_rate(
    before: &monarch::core::stats::StatsSnapshot,
    after: &monarch::core::stats::StatsSnapshot,
) -> f64 {
    let local = (after.tiers[0].bytes_read - before.tiers[0].bytes_read) as f64;
    let pfs = (after.tiers[1].bytes_read - before.tiers[1].bytes_read) as f64;
    local / (local + pfs)
}

#[test]
fn full_plan_prefetch_lifts_epoch_one_fast_tier_hit_rate() {
    let root = tmp("hitrate");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(768 << 10, 96, 23);
    let ds = generate(&spec, &data).unwrap();

    // Reactive epoch 1: every shard's first read misses the fast tier.
    let reactive = middleware(&root.join("ssd-reactive"), &data, ds.total_bytes, 0);
    let rt = RealTrainer::new(
        RealBackend::Monarch(Arc::clone(&reactive)),
        &data,
        pipeline(),
    )
    .unwrap();
    let r_before = reactive.stats();
    let r_epoch = rt.run_epoch(0).unwrap();
    let r_rate = local_hit_rate(&r_before, &reactive.stats());
    assert!(
        r_rate < 1.0,
        "reactive epoch 1 cannot be all-local ({r_rate})"
    );

    // Clairvoyant epoch 1: submit the epoch's exact shuffle as the access
    // plan, let the full-plan prefetch stage it (capacity is sufficient),
    // then train. Every foreground read hits the fast tier.
    let pf = middleware(&root.join("ssd-pf"), &data, ds.total_bytes, 128);
    let pt = RealTrainer::new(RealBackend::Monarch(Arc::clone(&pf)), &data, pipeline()).unwrap();
    let plan = AccessPlan::new(pt.epoch_order(0));
    let admitted = pf.submit_plan(&plan);
    assert_eq!(admitted, pt.shards().len(), "every known shard admitted");
    pf.wait_placement_idle();
    let p_before = pf.stats();
    let p_epoch = pt.run_epoch(0).unwrap();
    let p_after = pf.stats();
    let p_rate = local_hit_rate(&p_before, &p_after);

    assert!(
        p_rate > r_rate,
        "prefetch epoch-1 hit rate {p_rate} not above reactive {r_rate}"
    );
    assert_eq!(
        p_after.prefetches_scheduled, admitted as u64,
        "full-plan prefetch stages every entry: {p_after:?}"
    );
    assert_eq!(
        p_after.prefetch_hits, admitted as u64,
        "every shard's first read is served by its staged copy: {p_after:?}"
    );
    assert_eq!(p_after.prefetch_wasted, 0, "everything staged was read");
    // Same data either way.
    assert_eq!(p_epoch.bytes, r_epoch.bytes);
    assert_eq!(p_epoch.fingerprint, r_epoch.fingerprint, "content mismatch");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn disabled_prefetch_is_reactive_byte_for_byte() {
    let root = tmp("disabled");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(256 << 10, 48, 5);
    let ds = generate(&spec, &data).unwrap();

    // Direct (no middleware) reference fingerprint.
    let direct = RealTrainer::new(
        RealBackend::Direct(monarch::core::driver::PosixDriver::new("pfs", &data).unwrap()),
        &data,
        pipeline(),
    )
    .unwrap();
    let want = direct.run_epoch(0).unwrap();

    // lookahead = 0: the plan is accepted but inert; placement stays
    // purely reactive and the delivered bytes are identical.
    let m = middleware(&root.join("ssd"), &data, ds.total_bytes, 0);
    let t = RealTrainer::new(RealBackend::Monarch(Arc::clone(&m)), &data, pipeline()).unwrap();
    let admitted = m.submit_plan(&AccessPlan::new(t.epoch_order(0)));
    assert_eq!(admitted, 0, "disabled prefetch admits nothing");
    let e = t.run_epoch(0).unwrap();
    m.wait_placement_idle();

    assert_eq!(e.bytes, want.bytes);
    assert_eq!(
        e.fingerprint, want.fingerprint,
        "disabled prefetch changed bytes"
    );
    let stats = m.stats();
    assert_eq!(stats.prefetches_scheduled, 0);
    assert_eq!(stats.prefetch_hits, 0);
    assert_eq!(stats.prefetch_promoted, 0);
    assert!(stats.copies_completed > 0, "reactive placement still runs");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn sim_prefetch_epoch_one_beats_vanilla_caching() {
    let model = ModelProfile {
        name: "tiny".into(),
        per_sample_step: 50e-6,
        gpu_fraction: 0.7,
        cpu_per_sample: 60e-6,
        batch_size: 128,
    };
    let run = |setup: Setup| {
        SimTrainer::new(
            setup,
            DatasetGeom::miniature("mini", 16_384, 42),
            model.clone(),
            PipelineConfig::default().with_seed(1),
            EnvConfig::default(),
        )
        .run(1)
    };
    let cap = 4u64 << 30;
    let pf = run(Setup::Monarch(MonarchSimConfig::with_prefetch(64)));
    let reactive = run(Setup::Monarch(MonarchSimConfig::with_ssd_capacity(cap)));
    let caching = run(Setup::VanillaCaching);

    let t = pf.telemetry.as_ref().expect("monarch telemetry");
    assert!(t.stats.prefetch_hits > 0, "no staged copy served a read");
    assert!(
        pf.epochs[0].seconds < caching.epochs[0].seconds,
        "prefetch epoch 1 ({}) should beat vanilla-caching ({})",
        pf.epochs[0].seconds,
        caching.epochs[0].seconds
    );
    assert!(
        pf.epochs[0].seconds < reactive.epochs[0].seconds,
        "prefetch epoch 1 ({}) should beat reactive monarch ({})",
        pf.epochs[0].seconds,
        reactive.epochs[0].seconds
    );
}
