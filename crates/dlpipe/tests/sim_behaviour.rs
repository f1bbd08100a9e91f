//! Behavioural tests of the simulated trainer: the mechanisms behind each
//! figure, exercised at miniature scale.

use dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup, SimTierKind};
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;
use dlpipe::report::RunReport;
use dlpipe::sim::SimTrainer;
use monarch_core::config::PolicyKind;

fn geom() -> DatasetGeom {
    DatasetGeom::miniature("bh", 24_576, 9)
}

fn io_model() -> ModelProfile {
    ModelProfile {
        name: "io-bound".into(),
        per_sample_step: 40e-6,
        gpu_fraction: 0.7,
        cpu_per_sample: 50e-6,
        batch_size: 128,
    }
}

fn run(setup: Setup, epochs: usize) -> RunReport {
    SimTrainer::new(
        setup,
        geom(),
        io_model(),
        PipelineConfig::default().with_seed(11),
        EnvConfig::default(),
    )
    .run(epochs)
}

#[test]
fn caching_epoch2_waits_for_flush_and_reads_expanded_bytes() {
    let r = run(Setup::VanillaCaching, 2);
    // Epoch 1 spills every byte (expanded volume is modelled as drain
    // weight, so the byte counters stay at the source volume). Writes that
    // drain during the inter-epoch flush barrier are attributed to the
    // next epoch's delta, so sum across both.
    let spilled: u64 = r.epochs.iter().map(|e| e.devices[0].bytes_written()).sum();
    assert_eq!(spilled, geom().total_bytes());
    assert!(
        r.epochs[0].devices[0].bytes_written() > geom().total_bytes() * 9 / 10,
        "almost all spills happen inside epoch 1"
    );
    // Epoch 2 reads the cache only.
    assert_eq!(r.epochs[1].devices[r.pfs_device].data_ops(), 0);
    assert_eq!(r.epochs[1].devices[0].bytes_read(), geom().total_bytes());
    // And the expansion makes cached epochs slower than vanilla-local.
    let local = run(Setup::VanillaLocal, 2);
    assert!(
        r.epochs[1].seconds > local.epochs[1].seconds,
        "cache-format overhead must show: {} !> {}",
        r.epochs[1].seconds,
        local.epochs[1].seconds
    );
}

#[test]
fn monarch_no_full_fetch_still_converges_but_slower_in_epoch1_hits() {
    let full = run(
        Setup::Monarch(MonarchSimConfig::with_ssd_capacity(8 << 30)),
        3,
    );
    let chunked = run(
        Setup::Monarch(MonarchSimConfig {
            full_file_fetch: false,
            ..MonarchSimConfig::with_ssd_capacity(8 << 30)
        }),
        3,
    );
    // Both fully place by the end of epoch 2 (last epoch local).
    assert_eq!(full.epochs[2].devices[full.pfs_device].data_ops(), 0);
    assert_eq!(chunked.epochs[2].devices[chunked.pfs_device].data_ops(), 0);
    // The full-file fetch serves part of epoch 1 from the SSD; the
    // chunk-granular variant cannot (every chunk is read from the PFS
    // exactly once in epoch 1).
    let full_e1_local = full.epochs[0].devices[0].reads();
    let chunked_e1_local = chunked.epochs[0].devices[0].reads();
    assert!(
        full_e1_local > chunked_e1_local,
        "full-fetch epoch-1 local reads {full_e1_local} !> chunked {chunked_e1_local}"
    );
    // Chunked spills the whole dataset through CacheWrite ops instead;
    // a shard's spill is booked as its copy's one write.
    assert_eq!(
        chunked.epochs[0].devices[0].bytes_written() + chunked.epochs[1].devices[0].bytes_written(),
        geom().total_bytes()
    );
    let t = chunked.telemetry.as_ref().expect("telemetry snapshot");
    assert_eq!(t.stats.tiers[0].writes, t.stats.copies_completed);
    assert_eq!(t.write_latency[0].count, t.stats.copies_completed);
}

#[test]
fn three_tier_hierarchy_fills_top_down() {
    let total = geom().total_bytes();
    let cfg = MonarchSimConfig {
        tiers: vec![(SimTierKind::Ram, total / 4), (SimTierKind::Ssd, total)],
        ..MonarchSimConfig::paper_default()
    };
    let r = run(Setup::Monarch(cfg), 2);
    // Devices: 0 = ram, 1 = ssd, 2 = lustre.
    assert_eq!(r.device_names, vec!["ram", "ssd", "lustre"]);
    let ram_writes: u64 = r.epochs.iter().map(|e| e.devices[0].bytes_written()).sum();
    let ssd_writes: u64 = r.epochs.iter().map(|e| e.devices[1].bytes_written()).sum();
    assert!(ram_writes > 0, "ram tier must receive placements");
    assert!(ram_writes <= total / 4, "ram quota respected");
    assert!(ssd_writes > 0, "overflow must land on the ssd tier");
    // Epoch 2 is PFS-free (everything fits across ram+ssd).
    assert_eq!(r.epochs[1].devices[2].data_ops(), 0);
}

#[test]
fn lru_policy_in_sim_keeps_running_and_evicts() {
    let cfg = MonarchSimConfig {
        policy: PolicyKind::LruEvict,
        ..MonarchSimConfig::with_ssd_capacity(geom().total_bytes() / 2)
    };
    let r = run(Setup::Monarch(cfg), 3);
    // Evictions mean repeated placement traffic: SSD writes exceed its
    // capacity over the run (thrashing, §III-A's argument).
    let ssd_written: u64 = r.epochs.iter().map(|e| e.devices[0].bytes_written()).sum();
    assert!(
        ssd_written > geom().total_bytes() / 2,
        "LRU should rewrite beyond quota over 3 epochs: {ssd_written}"
    );
    // The run still terminates with every epoch accounted.
    assert_eq!(r.epochs.len(), 3);
}

#[test]
fn interference_off_reduces_epoch_variance() {
    let noisy: Vec<f64> = (0..5)
        .map(|s| {
            SimTrainer::new(
                Setup::VanillaLustre,
                geom(),
                io_model(),
                PipelineConfig::default().with_seed(100 + s),
                EnvConfig::default(),
            )
            .run(1)
            .total_seconds()
        })
        .collect();
    let quiet: Vec<f64> = (0..5)
        .map(|s| {
            let env = EnvConfig {
                interference: false,
                ..EnvConfig::default()
            };
            SimTrainer::new(
                Setup::VanillaLustre,
                geom(),
                io_model(),
                PipelineConfig::default().with_seed(100 + s),
                env,
            )
            .run(1)
            .total_seconds()
        })
        .collect();
    let spread = |xs: &[f64]| {
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / min
    };
    assert!(
        spread(&noisy) > spread(&quiet),
        "interference must add run-to-run variability: noisy {:?} quiet {:?}",
        noisy,
        quiet
    );
}

#[test]
fn pool_size_one_still_completes_placement() {
    let cfg = MonarchSimConfig {
        pool_threads: 1,
        ..MonarchSimConfig::with_ssd_capacity(8 << 30)
    };
    let r = run(Setup::Monarch(cfg), 3);
    assert_eq!(
        r.epochs[2].devices[r.pfs_device].data_ops(),
        0,
        "even one worker must finish placing a small dataset within 3 epochs"
    );
}

#[test]
fn prestage_gives_warm_first_epoch() {
    let on_demand = run(
        Setup::Monarch(MonarchSimConfig::with_ssd_capacity(8 << 30)),
        2,
    );
    let prestaged = run(
        Setup::Monarch(MonarchSimConfig {
            prestage: true,
            ..MonarchSimConfig::with_ssd_capacity(8 << 30)
        }),
        2,
    );
    assert_eq!(on_demand.prestage_seconds, 0.0);
    assert!(
        prestaged.prestage_seconds > 0.0,
        "staging time must be reported"
    );
    // With a full fit, a pre-staged epoch 1 reads nothing from the PFS.
    assert_eq!(
        prestaged.epochs[0].devices[prestaged.pfs_device].reads(),
        0,
        "warm first epoch must be PFS-free"
    );
    assert!(
        prestaged.epochs[0].seconds < on_demand.epochs[0].seconds,
        "warm epoch 1 should beat on-demand epoch 1"
    );
    // But the paper's trade-off shows: staging + training >= on-demand's
    // overlapped epoch 1 at full fit.
    assert!(
        prestaged.prestage_seconds + prestaged.epochs[0].seconds
            > on_demand.epochs[0].seconds * 0.95,
        "staging is not free"
    );
}

#[test]
fn throughput_tracing_produces_a_series() {
    let r = SimTrainer::new(
        Setup::VanillaLustre,
        geom(),
        io_model(),
        PipelineConfig {
            trace_interval_secs: Some(1.0),
            ..PipelineConfig::default().with_seed(2)
        },
        EnvConfig::default(),
    )
    .run(1);
    assert!(
        r.pfs_throughput_series.len() >= 3,
        "expected several samples, got {:?}",
        r.pfs_throughput_series
    );
    // Samples are time-ordered with sane rates.
    for w in r.pfs_throughput_series.windows(2) {
        assert!(w[1].0 > w[0].0);
    }
    let max = r
        .pfs_throughput_series
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0, f64::max);
    assert!(max > 0.0 && max < 1e10);
    // Without the flag, no series is collected.
    let quiet = SimTrainer::new(
        Setup::VanillaLustre,
        geom(),
        io_model(),
        PipelineConfig::default().with_seed(2),
        EnvConfig::default(),
    )
    .run(1);
    assert!(quiet.pfs_throughput_series.is_empty());
}

#[test]
fn monarch_sim_attaches_telemetry_snapshot() {
    let r = run(
        Setup::Monarch(MonarchSimConfig::with_ssd_capacity(8 << 30)),
        3,
    );
    let t = r
        .telemetry
        .as_ref()
        .expect("monarch runs attach a telemetry snapshot");
    let shards = geom().num_shards() as u64;
    // Full fit: every shard is scheduled once and every copy completes
    // (epoch 3 is PFS-free, so placement drained earlier).
    assert_eq!(t.stats.copies_scheduled, shards);
    assert_eq!(t.stats.copies_completed, shards);
    assert_eq!(t.copy_duration.count, shards);
    assert_eq!(t.queue_wait.count, shards);
    assert!(
        t.copy_duration.p50_nanos > 0,
        "virtual copy durations recorded"
    );
    // Each placement writes the full shard into tier 0, and the write is
    // timed as the engine times its install: one sample a copy.
    assert_eq!(t.stats.tiers[0].writes, shards);
    assert_eq!(t.write_latency[0].count, t.stats.copies_completed);
    assert!(t.write_latency[0].p50_nanos > 0, "virtual write times");
    assert!(t.stats.tiers[0].reads > 0, "later epochs read locally");
    // Lifecycle events: scheduled, started, decided, completed per shard.
    assert!(
        t.events_recorded >= 4 * shards,
        "events: {}",
        t.events_recorded
    );
    // Vanilla setups carry no registry.
    assert!(run(Setup::VanillaLustre, 1).telemetry.is_none());
}

#[test]
fn sim_ledger_times_are_read_off_the_stall_profile() {
    // The simulator records each read once, into the stall profile its
    // access profiler owns — a reader parked on a staged copy included, as
    // prefetch-lag pread time — and the ledger's time sums are that
    // profile's.
    let r = run(Setup::Monarch(MonarchSimConfig::with_prefetch(64)), 2);
    let t = r.telemetry.as_ref().expect("telemetry snapshot");
    let s = &t.stall_profile;
    let ledger = t.observe.as_ref().expect("observe section").profiler.ledger;
    assert!(ledger.reads > 0);
    assert_eq!(s.driver_pread.count, ledger.reads, "every read, weight 1");
    let phases = [&s.lock_wait, &s.queue_wait, &s.driver_pread, &s.copy_wait];
    let wall: u64 = phases.iter().map(|h| h.sum_nanos).sum();
    assert_eq!(ledger.read_wall_us, wall / 1_000);
    assert_eq!(
        ledger.lock_queue_us,
        (s.lock_wait.sum_nanos + s.queue_wait.sum_nanos) / 1_000
    );
    assert_eq!(ledger.copy_wait_us, s.copy_wait.sum_nanos / 1_000);
    let by_class = ledger.fast_pread_us
        + ledger.pfs_cold_pread_us
        + ledger.lane_sat_pread_us
        + ledger.staged_pread_us
        + ledger.prefetch_lag_pread_us
        + ledger.peer_bound_pread_us
        + ledger.degraded_pread_us;
    assert!(by_class > 0);
    assert_eq!(by_class, s.driver_pread.sum_nanos / 1_000);
}

#[test]
fn sim_epoch_populates_gauges() {
    let r = run(
        Setup::Monarch(MonarchSimConfig::with_ssd_capacity(8 << 30)),
        2,
    );
    let t = r.telemetry.as_ref().expect("telemetry snapshot");
    let gauge = |name: &str, label: Option<(&str, &str)>| {
        t.gauges
            .iter()
            .find(|g| {
                g.name == name
                    && match label {
                        Some((k, v)) => g.labels.iter().any(|(lk, lv)| lk == k && lv == v),
                        None => g.labels.is_empty(),
                    }
            })
            .unwrap_or_else(|| panic!("gauge {name} {label:?} missing from {:?}", t.gauges))
            .value
    };
    // The dataset fits in the 8 GiB SSD quota, so by end of run every
    // shard is resident locally: occupancy = total bytes, files = shards.
    assert_eq!(
        gauge("monarch_tier_occupancy_bytes", Some(("tier", "ssd0"))) as u64,
        geom().total_bytes()
    );
    assert_eq!(
        gauge("monarch_tier_capacity_bytes", Some(("tier", "ssd0"))) as u64,
        8 << 30
    );
    assert_eq!(
        gauge("monarch_tier_files", Some(("tier", "ssd0"))) as u64,
        geom().num_shards() as u64
    );
    // Quiescent at end of run: queues drained, all workers idle.
    assert_eq!(gauge("monarch_lane_queued", Some(("lane", "demand"))), 0.0);
    assert_eq!(
        gauge("monarch_lane_queued", Some(("lane", "prefetch"))),
        0.0
    );
    assert_eq!(gauge("monarch_pool_inflight_jobs", None), 0.0);
}

#[test]
fn op_counts_are_exact_chunk_math() {
    let r = run(Setup::VanillaLustre, 1);
    assert_eq!(
        r.epochs[0].devices[r.pfs_device].reads(),
        geom().chunk_reads_per_epoch(256 << 10)
    );
}
