//! The event-driven training world (see module docs in `sim`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use monarch_core::config::TelemetryConfig;
use monarch_core::driver::MemDriver;
use monarch_core::hash::{FxHashMap, FxHashSet};
use monarch_core::health::{ErrorClass, TierState};
use monarch_core::hierarchy::StorageHierarchy;
use monarch_core::lifecycle::{Lifecycle, Unplaced};
use monarch_core::metadata::PlacementState;
use monarch_core::observe::{
    LedgerBuckets, LedgerSnapshot, ObserveReport, ReadClass, ReadTiming, ResidencyEventKind,
    TransitionCause,
};
use monarch_core::policy::{FeatureSource, PolicyEngine};
use monarch_core::pool::Lane;
use monarch_core::stats::Stats;
use monarch_core::telemetry::{
    EventKind, PipelineSample, PrefetchSample, TelemetryRegistry, ThroughputSampler,
};
use monarch_core::trace::{names, FlowPhase, SpanRecord, QUEUE_TRACK};
use monarch_core::{Error, LaneQueues, StorageDriver};
use simfs::clock::SimTime;
use simfs::fault::FaultPlan;
use simfs::interference::Interference;
use simfs::psdev::{Kind, PsDevice};
use simfs::rng::SimRng;
use simfs::{DeviceStats, EventQueue, Mds};

use crate::config::{DeviceSpec, EnvConfig, PipelineConfig, Setup, SimTierKind};
use crate::geometry::DatasetGeom;
use crate::models::ModelProfile;
use crate::report::{EpochReport, FaultWindowReport, RunReport};

/// Events of the training world.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A device may have finished transfers (generation pattern).
    DevWake { dev: usize, gen: u64 },
    /// An MDS open issued by a reader completed.
    MdsDone { reader: usize },
    /// The trainer finished a step.
    ComputeDone,
    /// Background-load regime shift on the PFS.
    InterferenceShift,
    /// Begin the next epoch (used by the caching flush barrier).
    StartEpoch,
    /// Begin pre-staging the dataset (placement option (i)).
    StartPrestage,
    /// Sample the PFS throughput (tracing only).
    TraceTick,
    /// A fault-plan window boundary: mark the throughput ledger and kick
    /// idle readers so a recovered tier gets probed promptly.
    FaultEdge { window: usize, start: bool },
}

/// Synthetic trace track for the pre-stage scheduler (no reader owns it).
const SIM_PRESTAGE_TRACK: u64 = 99;
/// First synthetic trace track for readers (`100 + reader index`).
const SIM_READER_TRACK0: u64 = 100;
/// First synthetic trace track for copy workers (`200 + worker index`).
const SIM_COPY_TRACK0: u64 = 200;

/// Why a transfer was issued.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// A reader's chunk read; payload samples enter the prefetch buffer.
    /// `issued`/`traced` carry the trace-span start and the sampling
    /// decision from issue time to completion time.
    Chunk {
        reader: usize,
        shard: usize,
        issued: SimTime,
        traced: bool,
    },
    /// MONARCH placement: full-shard fetch from the PFS.
    CopyFetch { shard: usize },
    /// MONARCH placement: full-shard write to the destination tier.
    CopyWrite { shard: usize },
    /// Chunk-granular cache spill (vanilla-caching, or MONARCH with the
    /// full-file-fetch optimisation disabled).
    CacheWrite { shard: usize },
}

struct Dev {
    ps: PsDevice,
    spec: DeviceSpec,
    /// Generation for which a wake event has been scheduled.
    scheduled_gen: Option<u64>,
}

#[derive(Debug, Default)]
struct Reader {
    /// Shards this reader still has to stream this epoch.
    pending: VecDeque<usize>,
    /// Current shard and next byte offset.
    cur: Option<(usize, u64)>,
    /// An MDS open or a chunk transfer is outstanding.
    inflight: bool,
    /// Finished its share of the epoch.
    done: bool,
}

/// Which serving logic the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeTag {
    VanillaLustre,
    VanillaLocal,
    VanillaCaching,
    Monarch,
}

/// MONARCH state inside the simulation — built from the *real*
/// `monarch-core` components (metadata container, hierarchy quotas,
/// composed policy engine, and the [`Lifecycle`] that books what becomes
/// of a copy), with the copy pool modelled as K servers.
struct MonarchSim {
    /// The books the real engine keeps — and, through them, the namespace,
    /// hierarchy, policy engine and telemetry registry (fed with *virtual*
    /// timestamps; same event schema and histogram types as the real
    /// middleware) — called here under virtual time.
    book: Lifecycle,
    /// Tier id → device index.
    tier_dev: Vec<usize>,
    /// Shard ids awaiting a copy worker, on the same two-lane discipline
    /// the real engine uses: the demand lane always drains first, a
    /// foreground read of a queued prefetch entry promotes it instead of
    /// duplicating the copy, and a plan boundary bulk-cancels the
    /// prefetch lane.
    lanes: LaneQueues<usize>,
    /// Clairvoyant lookahead (0 = reactive only).
    prefetch_lookahead: usize,
    /// This epoch's access plan: shard ids in foreground read order.
    plan: Vec<usize>,
    /// Shard id → plan index.
    plan_pos: FxHashMap<usize, usize>,
    /// One past the furthest plan entry a reader has started.
    plan_cursor: usize,
    /// Next plan index the prefetcher considers issuing.
    plan_issued: usize,
    /// Prefetch-issued shards → whether a foreground read reached them.
    prefetch_issued: FxHashMap<usize, bool>,
    /// Readers parked on a planned shard whose staged copy is in flight:
    /// the clairvoyant contract serves such reads from the copy when it
    /// lands rather than double-reading the shard from the PFS.
    waiting_readers: FxHashMap<usize, Vec<usize>>,
    /// Virtual instant each parked reader stopped, so the profiler can
    /// attribute the wait to the prefetch-lag bucket when it resumes.
    parked_at: FxHashMap<usize, SimTime>,
    /// Time-lost ledger baseline at the current epoch's start; the epoch
    /// report carries the delta against it.
    epoch_ledger: LedgerSnapshot,
    /// Shards whose staging fetch has landed in memory but whose tier
    /// write-back is still draining: a foreground read is served straight
    /// from the copy's buffer, costing no device time.
    buffer_ready: FxHashSet<usize>,
    idle_workers: usize,
    /// Configured pool size (fetch-slot count and write-stage bound).
    pool_threads: usize,
    /// In-flight placement writes (stage 2). The paper submits the fetch
    /// and the write as separate pool tasks (§III-B, operations ③/④), so
    /// a worker slot frees at fetch completion; this bound keeps the
    /// write stage from running arbitrarily far ahead of the SSD.
    pending_copy_writes: usize,
    /// Destination tier of an in-flight copy, per shard.
    copy_target: FxHashMap<usize, usize>,
    full_fetch: bool,
    /// Placement option (i): stage everything before the first epoch.
    prestage: bool,
    /// Chunk-cache mode (full_fetch = false): bytes written per shard.
    chunk_written: FxHashMap<usize, u64>,
    /// Virtual enqueue instant per queued shard (queue-wait histogram).
    copy_enqueued: FxHashMap<usize, SimTime>,
    /// Virtual dispatch instant per in-flight copy (duration histogram).
    copy_started: FxHashMap<usize, SimTime>,
    /// Flow id per scheduled-but-not-dispatched copy (tracing runs only).
    copy_flow: FxHashMap<usize, u64>,
    /// Shards whose scheduled copy still awaits a traced PFS-served chunk
    /// read to carry the flow start (`ph:"s"`).
    flow_start_pending: FxHashMap<usize, u64>,
    /// Trace identity of each dispatched copy (tracing runs only).
    copy_trace: FxHashMap<usize, CopyTrace>,
}

/// Virtual-time trace identity of one dispatched placement copy: the
/// flow linking it back to the read that scheduled it, the pre-allocated
/// `copy_exec` span id its children parent to, the synthetic worker
/// track, and the fetch→write stage boundary.
struct CopyTrace {
    flow: u64,
    exec_id: u64,
    tid: u64,
    write_started: SimTime,
}

/// Discrete-event trainer for one `(setup, dataset, model)` combination.
pub struct SimTrainer {
    setup: Setup,
    geom: DatasetGeom,
    model: ModelProfile,
    pipeline: PipelineConfig,
    env: EnvConfig,
}

impl SimTrainer {
    /// Assemble a trainer.
    #[must_use]
    pub fn new(
        setup: Setup,
        geom: DatasetGeom,
        model: ModelProfile,
        pipeline: PipelineConfig,
        env: EnvConfig,
    ) -> Self {
        Self {
            setup,
            geom,
            model,
            pipeline,
            env,
        }
    }

    /// Run `epochs` training epochs, returning the measurements.
    #[must_use]
    pub fn run(&self, epochs: usize) -> RunReport {
        World::build(self).run(epochs)
    }
}

/// `(virtual_seconds, total_consumed)` snapshot at a fault-window edge.
type WindowMark = Option<(f64, f64)>;

struct World {
    q: EventQueue<Ev>,
    devs: Vec<Dev>,
    mds: Mds,
    interference: Interference,
    rng: SimRng,
    /// Device index of the PFS (always last).
    lustre: usize,
    /// Device index of the local SSD (always 0).
    ssd: usize,

    geom: DatasetGeom,
    shard_names: Vec<String>,
    /// records / bytes per shard (samples carried per byte).
    samples_per_byte: Vec<f64>,
    chunk_bytes: u64,
    /// Hot-set skew: `hot_shards` shards get `hot_replays` extra reads
    /// per epoch (see `PipelineConfig`).
    hot_shards: usize,
    hot_replays: usize,

    mode: ModeTag,
    monarch: Option<MonarchSim>,
    /// Fair-share weight of bulk placement fetches on the PFS.
    bulk_share: f64,
    /// tf.data cache volume expansion (see `EnvConfig::cache_expansion`).
    cache_expansion: f64,
    /// Outstanding cache-spill writes (caching flush barrier).
    pending_cache_writes: u64,
    /// Back-pressure bound on in-flight spill writes: the writer pool of
    /// tf.data's cache is finite, so readers stall rather than letting
    /// writes pile up without bound.
    cache_write_limit: u64,

    readers: Vec<Reader>,
    purpose: FxHashMap<(usize, u64), Purpose>,

    buffered_samples: f64,
    inflight_samples: f64,
    buffer_cap: f64,

    computing: bool,
    cur_batch: f64,
    consumed: f64,
    epoch_samples: f64,
    gpu_busy: f64,

    model: ModelProfile,
    epoch: usize,
    epochs_total: usize,
    epoch_start: SimTime,
    /// Instant pre-staging began (option (i) runs only).
    prestage_started: SimTime,
    /// Pre-staging in progress (training has not started yet).
    prestaging: bool,
    dev_snapshot: Vec<DeviceStats>,
    reports: Vec<EpochReport>,
    metadata_init_seconds: f64,
    prestage_seconds: f64,
    /// Throughput tracing: sampling interval and the rate sampler fed with
    /// cumulative PFS read bytes at each tick.
    trace_interval: Option<SimTime>,
    sampler: ThroughputSampler,
    /// Deterministic fault schedule; `None` keeps the run bit-identical
    /// to a fault-free build.
    fault_plan: Option<FaultPlan>,
    /// Per-operation counter feeding the plan's deterministic error rolls
    /// (only advanced while a plan is attached).
    fault_ops: u64,
    /// Samples consumed across the whole run (fault-window ledger).
    total_consumed: f64,
    /// `(virtual_seconds, total_consumed)` at each window's start/end
    /// edge, indexed like `fault_plan.windows`.
    window_marks: Vec<(WindowMark, WindowMark)>,
    /// Virtual instant the last epoch ended (closes still-open windows).
    run_end: SimTime,
}

/// Virtual-clock timestamp in microseconds (journal resolution).
fn vmicros(t: SimTime) -> u64 {
    (t.as_secs_f64() * 1e6) as u64
}

/// Virtual duration in nanoseconds (histogram resolution).
fn vnanos(d: SimTime) -> u64 {
    (d.as_secs_f64() * 1e9) as u64
}

impl World {
    fn build(t: &SimTrainer) -> Self {
        let rng = SimRng::new(t.pipeline.seed ^ 0x4d4f_4e41);
        let mk_dev = |spec: &DeviceSpec| Dev {
            ps: PsDevice::new(spec.name.clone(), spec.bandwidth, spec.stream_cap),
            spec: spec.clone(),
            scheduled_gen: None,
        };

        // Device table. Index 0 = SSD, optional RAM in between for the
        // multi-tier ablation, last = Lustre.
        let (mode, monarch, devs): (ModeTag, Option<MonarchSim>, Vec<Dev>) = match &t.setup {
            Setup::VanillaLustre => (
                ModeTag::VanillaLustre,
                None,
                vec![mk_dev(&t.env.ssd), mk_dev(&t.env.lustre)],
            ),
            Setup::VanillaLocal => (
                ModeTag::VanillaLocal,
                None,
                vec![mk_dev(&t.env.ssd), mk_dev(&t.env.lustre)],
            ),
            Setup::VanillaCaching => (
                ModeTag::VanillaCaching,
                None,
                vec![mk_dev(&t.env.ssd), mk_dev(&t.env.lustre)],
            ),
            Setup::Monarch(cfg) => {
                // Devices: one per local tier (dedup by kind), plus Lustre.
                let mut devs = Vec::new();
                let mut tier_dev = Vec::new();
                for (kind, _) in &cfg.tiers {
                    let spec = match kind {
                        SimTierKind::Ssd => &t.env.ssd,
                        SimTierKind::Ram => &t.env.ram,
                    };
                    devs.push(mk_dev(spec));
                    tier_dev.push(devs.len() - 1);
                }
                devs.push(mk_dev(&t.env.lustre));
                tier_dev.push(devs.len() - 1); // source tier -> lustre dev

                // Real monarch-core decision components. The drivers are
                // capacity-only stand-ins: the policy reads quotas, never
                // bytes.
                let levels: Vec<(String, Arc<dyn StorageDriver>, Option<u64>)> = cfg
                    .tiers
                    .iter()
                    .enumerate()
                    .map(|(i, (kind, cap))| {
                        let name = match kind {
                            SimTierKind::Ssd => format!("ssd{i}"),
                            SimTierKind::Ram => format!("ram{i}"),
                        };
                        (
                            name.clone(),
                            Arc::new(MemDriver::new(name)) as Arc<dyn StorageDriver>,
                            Some(*cap),
                        )
                    })
                    .chain(std::iter::once((
                        "lustre".to_string(),
                        Arc::new(MemDriver::new("lustre")) as Arc<dyn StorageDriver>,
                        None,
                    )))
                    .collect();
                let tier_names: Vec<String> =
                    levels.iter().map(|(name, _, _)| name.clone()).collect();
                let stats = Arc::new(Stats::new(tier_names.len()));
                let telemetry = Arc::new(TelemetryRegistry::new(
                    tier_names,
                    stats,
                    &TelemetryConfig {
                        trace_sample_every_n: cfg.trace_sample_every_n,
                        ..TelemetryConfig::default()
                    },
                ));
                // The sim has no OS threads: give every actor a stable
                // synthetic track so the exported trace renders readers
                // and copy workers as separate named rows.
                let tr = telemetry.trace();
                if tr.is_enabled() {
                    tr.set_track_name(QUEUE_TRACK, "copy-queue");
                    tr.set_track_name(SIM_PRESTAGE_TRACK, "sim-prestage");
                    for r in 0..t.pipeline.readers.max(1) {
                        tr.set_track_name(SIM_READER_TRACK0 + r as u64, format!("sim-reader-{r}"));
                    }
                    for w in 0..cfg.pool_threads.max(1) {
                        tr.set_track_name(SIM_COPY_TRACK0 + w as u64, format!("sim-copy-{w}"));
                    }
                }
                let hierarchy =
                    Arc::new(StorageHierarchy::new(levels).expect("valid sim hierarchy"));
                let policy = Arc::new(PolicyEngine::from_kind(cfg.policy, cfg.admission));
                // Reuse-aware admission and the learned scorer read the
                // sim's access profiler through the same bridge the real
                // engine uses.
                policy.bind_features(Arc::clone(&telemetry) as Arc<dyn FeatureSource>);
                let ms = MonarchSim {
                    // As in the real instance, the policy engine's
                    // namespace is the instance's.
                    book: Lifecycle::new(hierarchy, policy, telemetry),
                    tier_dev,
                    lanes: LaneQueues::new(),
                    prefetch_lookahead: cfg.prefetch_lookahead,
                    plan: Vec::new(),
                    plan_pos: FxHashMap::default(),
                    plan_cursor: 0,
                    plan_issued: 0,
                    prefetch_issued: FxHashMap::default(),
                    waiting_readers: FxHashMap::default(),
                    parked_at: FxHashMap::default(),
                    epoch_ledger: LedgerSnapshot::default(),
                    buffer_ready: FxHashSet::default(),
                    idle_workers: cfg.pool_threads.max(1),
                    pool_threads: cfg.pool_threads.max(1),
                    pending_copy_writes: 0,
                    copy_target: FxHashMap::default(),
                    full_fetch: cfg.full_file_fetch,
                    prestage: cfg.prestage,
                    chunk_written: FxHashMap::default(),
                    copy_enqueued: FxHashMap::default(),
                    copy_started: FxHashMap::default(),
                    copy_flow: FxHashMap::default(),
                    flow_start_pending: FxHashMap::default(),
                    copy_trace: FxHashMap::default(),
                };
                (ModeTag::Monarch, Some(ms), devs)
            }
        };

        let lustre = devs.len() - 1;
        let shard_names: Vec<String> = (0..t.geom.num_shards())
            .map(DatasetGeom::shard_name)
            .collect();
        let samples_per_byte: Vec<f64> = t
            .geom
            .shards
            .iter()
            .map(|s| s.records as f64 / s.bytes as f64)
            .collect();
        let interference = if t.env.interference {
            Interference::lustre_default()
        } else {
            Interference::none()
        };
        let buffer_cap = (t.pipeline.prefetch_batches * t.model.batch_size) as f64;
        let dev_count = devs.len();

        World {
            q: EventQueue::new(),
            devs,
            mds: Mds::new(
                SimTime::from_secs_f64(t.env.mds_service_median),
                t.env.mds_sigma,
            ),
            interference,
            lustre,
            ssd: 0,
            geom: t.geom.clone(),
            shard_names,
            samples_per_byte,
            chunk_bytes: t.pipeline.chunk_bytes,
            hot_shards: t.pipeline.hot_shards.min(t.geom.num_shards()),
            hot_replays: t.pipeline.hot_replays,
            mode,
            monarch,
            bulk_share: t.env.bulk_stream_share.max(1.0),
            cache_expansion: t.env.cache_expansion.max(1.0),
            pending_cache_writes: 0,
            cache_write_limit: 4 * t.pipeline.readers.max(1) as u64,
            readers: (0..t.pipeline.readers.max(1))
                .map(|_| Reader::default())
                .collect(),
            purpose: FxHashMap::default(),
            buffered_samples: 0.0,
            inflight_samples: 0.0,
            buffer_cap,
            computing: false,
            cur_batch: 0.0,
            consumed: 0.0,
            // Hot-set replays re-deliver their samples, so the epoch's
            // consumption target grows accordingly.
            epoch_samples: t.geom.total_records() as f64
                + t.geom
                    .shards
                    .iter()
                    .take(t.pipeline.hot_shards.min(t.geom.num_shards()))
                    .map(|s| (s.records * t.pipeline.hot_replays as u64) as f64)
                    .sum::<f64>(),
            gpu_busy: 0.0,
            model: t.model.clone(),
            epoch: 0,
            epochs_total: 0,
            epoch_start: SimTime::ZERO,
            prestage_started: SimTime::ZERO,
            prestaging: false,
            dev_snapshot: vec![DeviceStats::default(); dev_count],
            reports: Vec::new(),
            metadata_init_seconds: 0.0,
            prestage_seconds: 0.0,
            trace_interval: t.pipeline.trace_interval_secs.map(SimTime::from_secs_f64),
            sampler: ThroughputSampler::new(t.pipeline.trace_interval_secs.unwrap_or(1.0)),
            window_marks: vec![
                (None, None);
                t.env.fault_plan.as_ref().map_or(0, |p| p.windows.len())
            ],
            fault_plan: t.env.fault_plan.clone(),
            fault_ops: 0,
            total_consumed: 0.0,
            run_end: SimTime::ZERO,
            rng,
        }
    }

    // -- top-level loop ----------------------------------------------------

    fn run(mut self, epochs: usize) -> RunReport {
        self.epochs_total = epochs;

        // MONARCH initialises its namespace by scanning the dataset
        // directory: one MDS op per shard (paper: ≈13 s / ≈52 s).
        if let Some(ms) = self.monarch.as_ref() {
            let mut done = SimTime::ZERO;
            for (i, shard) in self.geom.shards.iter().enumerate() {
                done = self.mds.submit(done, &mut self.rng);
                ms.book.metadata().register(
                    &self.shard_names[i],
                    shard.bytes,
                    ms.tier_dev.len() - 1,
                );
            }
            self.metadata_init_seconds = done.as_secs_f64();
            if ms.prestage {
                // Placement option (i): stage before training; the first
                // epoch starts when staging drains (see CopyWrite handler).
                self.q.schedule(done, Ev::StartPrestage);
            } else {
                // Training starts after the scan (option ii).
                self.q.schedule(done, Ev::StartEpoch);
            }
        } else {
            self.q.schedule(SimTime::ZERO, Ev::StartEpoch);
        }

        // Interference chain on the PFS.
        self.q.schedule(SimTime::ZERO, Ev::InterferenceShift);
        if let Some(dt) = self.trace_interval {
            self.q.schedule(dt, Ev::TraceTick);
        }
        // Fault-window boundary markers.
        if let Some(plan) = self.fault_plan.as_ref() {
            for (i, w) in plan.windows.iter().enumerate() {
                self.q.schedule(
                    SimTime::from_secs_f64(w.start_s),
                    Ev::FaultEdge {
                        window: i,
                        start: true,
                    },
                );
                self.q.schedule(
                    SimTime::from_secs_f64(w.end_s),
                    Ev::FaultEdge {
                        window: i,
                        start: false,
                    },
                );
            }
        }

        // Runaway guard: hitting the cap means a livelock, not a big run.
        let event_cap: u64 = std::env::var("MONARCH_SIM_EVENT_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2_000_000_000);
        while self.reports.len() < self.epochs_total {
            let Some((t, ev)) = self.q.pop() else {
                panic!(
                    "event queue drained before epoch {} finished \
                     (buffered={}, consumed={}/{}, readers done: {})",
                    self.epoch,
                    self.buffered_samples,
                    self.consumed,
                    self.epoch_samples,
                    self.readers.iter().filter(|r| r.done).count(),
                );
            };
            self.handle(t, ev);
            self.resched_devices();
            assert!(
                self.q.processed() < event_cap,
                "runaway simulation: epoch {} t={:?} buffered={} inflight={} consumed={}/{} \
                 readers done {} computing={} pending_writes={} pending_events={}",
                self.epoch,
                t,
                self.buffered_samples,
                self.inflight_samples,
                self.consumed,
                self.epoch_samples,
                self.readers.iter().filter(|r| r.done).count(),
                self.computing,
                self.pending_cache_writes,
                self.q.len(),
            );
        }

        // Final gauge refresh so the attached snapshot carries end-of-run
        // values even when periodic tracing is disabled.
        self.sample_gauges();

        let device_names: Vec<String> = self.devs.iter().map(|d| d.spec.name.clone()).collect();
        let telemetry = self.monarch.as_ref().map(|ms| {
            ms.book
                .telemetry()
                .snapshot(ms.book.hierarchy().health(), ms.book.policy(), None)
        });
        // Per-window throughput ledger from the edge marks; a window the
        // run ended inside closes at the run's final instant.
        let fault_windows: Vec<FaultWindowReport> = match self.fault_plan.as_ref() {
            Some(plan) => plan
                .windows
                .iter()
                .enumerate()
                .filter_map(|(i, w)| {
                    let (t0, c0) = self.window_marks[i].0?;
                    let (t1, c1) = self.window_marks[i]
                        .1
                        .unwrap_or((self.run_end.as_secs_f64(), self.total_consumed));
                    let dt = t1 - t0;
                    (dt > 0.0).then(|| FaultWindowReport {
                        device: w.device.clone(),
                        kind: format!("{:?}", w.kind),
                        start_s: w.start_s,
                        end_s: w.end_s,
                        samples_per_s: (c1 - c0) / dt,
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        // Whole-run attribution: total training wall (virtual), folded by
        // the reader count — identical roll-up to `monarch report`.
        let total_seconds: f64 = self.reports.iter().map(|e| e.seconds).sum();
        let observe = telemetry.as_ref().and_then(|snap| {
            ObserveReport::from_snapshot(snap, total_seconds, self.readers.len(), 5)
        });
        RunReport {
            setup: match self.mode {
                ModeTag::VanillaLustre => "vanilla-lustre",
                ModeTag::VanillaLocal => "vanilla-local",
                ModeTag::VanillaCaching => "vanilla-caching",
                ModeTag::Monarch => "monarch",
            }
            .to_string(),
            model: self.model.name.clone(),
            dataset: self.geom.name.clone(),
            device_names,
            pfs_device: self.lustre,
            metadata_init_seconds: self.metadata_init_seconds,
            prestage_seconds: self.prestage_seconds,
            telemetry,
            trace_json: self.monarch.as_ref().and_then(|ms| {
                let tr = ms.book.telemetry().trace();
                tr.is_enabled().then(|| tr.export_chrome_json())
            }),
            observe,
            fault_windows,
            pfs_throughput_series: self.sampler.into_series(),
            epochs: self.reports,
        }
    }

    /// Refresh the MONARCH gauge families from live sim state, through the
    /// same publisher the real engine's `Sampler` uses, so a sim-backed
    /// snapshot exposes an identical schema. Sampled on every trace tick,
    /// so gauge values move over the course of an epoch.
    fn sample_gauges(&self) {
        let Some(ms) = self.monarch.as_ref() else {
            return;
        };
        let prefetch = (ms.prefetch_lookahead > 0).then(|| {
            // Issued by the plan and still copying.
            let (copies, bytes) = ms
                .prefetch_issued
                .keys()
                .filter(|&&shard| {
                    ms.book
                        .metadata()
                        .get(&self.shard_names[shard])
                        .is_some_and(|f| matches!(f.state, PlacementState::Copying { .. }))
                })
                .fold((0, 0), |(n, bytes), &shard| {
                    (n + 1, bytes + self.geom.shards[shard].bytes)
                });
            PrefetchSample {
                copies,
                bytes,
                lag_entries: ms.plan_issued.saturating_sub(ms.plan_cursor) as u64,
            }
        });
        ms.book.telemetry().publish_gauges(
            ms.book.hierarchy(),
            ms.book.metadata(),
            &PipelineSample {
                queued: PipelineSample::queued_by(|lane| ms.lanes.queued(lane)),
                running: ms.pool_threads.saturating_sub(ms.idle_workers),
                prefetch,
                draining: false,
            },
        );
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::DevWake { dev, gen } => {
                if self.devs[dev].ps.generation() != gen {
                    return; // stale wake
                }
                let finished = self.devs[dev].ps.collect_finished(now);
                // Force a reschedule even if nothing finished (arm-time
                // wakes leave the generation untouched).
                self.devs[dev].scheduled_gen = None;
                for (id, _kind, bytes) in finished {
                    let purpose = self
                        .purpose
                        .remove(&(dev, id.0))
                        .expect("every transfer has a purpose");
                    self.on_transfer_done(now, dev, purpose, bytes);
                }
            }
            Ev::MdsDone { reader } => {
                // The reader's current shard is open; issue its first chunk.
                self.readers[reader].inflight = false;
                self.reader_advance(now, reader);
            }
            Ev::ComputeDone => self.on_compute_done(now),
            Ev::InterferenceShift => {
                // Apply the chain's *current* regime now; the next regime
                // takes effect when the next shift event fires.
                let frac = self.interference.current_fraction();
                let lustre = self.lustre;
                if self.devs[lustre].spec.interference {
                    self.devs[lustre].ps.set_scale(now, frac);
                }
                let (at, _next) = self.interference.step(now, &mut self.rng);
                self.q.schedule(at, Ev::InterferenceShift);
            }
            Ev::StartEpoch => self.begin_epoch(now),
            Ev::FaultEdge { window, start } => {
                let mark = (now.as_secs_f64(), self.total_consumed);
                if start {
                    self.window_marks[window].0 = Some(mark);
                } else {
                    self.window_marks[window].1 = Some(mark);
                }
                self.sample_gauges();
                // A window edge can change what route_chunk decides: kick
                // any idle readers so a recovered tier is probed promptly.
                for r in 0..self.readers.len() {
                    self.reader_advance(now, r);
                }
            }
            Ev::TraceTick => {
                let bytes = self.devs[self.lustre].ps.stats().bytes_read();
                self.sampler.force_sample(now.as_secs_f64(), bytes);
                self.sample_gauges();
                if let Some(interval) = self.trace_interval {
                    self.q.schedule(now + interval, Ev::TraceTick);
                }
            }
            Ev::StartPrestage => {
                self.prestage_started = now;
                self.prestaging = true;
                let ms = self.monarch.as_mut().expect("prestage implies monarch");
                let tr = Arc::clone(ms.book.telemetry().trace());
                for i in 0..self.geom.num_shards() {
                    let (name, bytes) = (&self.shard_names[i], self.geom.shards[i].bytes);
                    if ms.book.scheduled(vmicros(now), name, bytes, Lane::Demand) {
                        ms.lanes.push(Lane::Demand, i);
                        ms.copy_enqueued.insert(i, now);
                        if tr.is_enabled() {
                            // No foreground read exists, so the schedule
                            // span itself carries the flow start (like the
                            // real middleware's prestage path).
                            let flow = tr.next_id();
                            ms.copy_flow.insert(i, flow);
                            tr.record(
                                SpanRecord::new(
                                    names::COPY_SCHEDULED,
                                    "copy",
                                    SIM_PRESTAGE_TRACK,
                                    vmicros(now),
                                    0,
                                )
                                .with_id(tr.next_id())
                                .with_flow(flow, FlowPhase::Start)
                                .arg_str("file", name.clone())
                                .arg_u64("bytes", bytes),
                            );
                        }
                    }
                }
                if self.monarch.as_ref().unwrap().lanes.is_empty() {
                    self.q.schedule(now, Ev::StartEpoch);
                } else {
                    self.dispatch_copy_workers(now);
                }
            }
        }
    }

    /// Keep every device's pending wake event in sync with its state.
    fn resched_devices(&mut self) {
        for i in 0..self.devs.len() {
            let gen = self.devs[i].ps.generation();
            if self.devs[i].scheduled_gen == Some(gen) {
                continue;
            }
            if let Some(at) = self.devs[i].ps.next_wake() {
                self.q
                    .schedule(at.max(self.q.now()), Ev::DevWake { dev: i, gen });
            }
            self.devs[i].scheduled_gen = Some(gen);
        }
    }

    // -- epoch lifecycle ---------------------------------------------------

    fn begin_epoch(&mut self, now: SimTime) {
        debug_assert!(
            self.inflight_samples.abs() < 0.5 && self.readers.iter().all(|r| !r.inflight),
            "epoch {} started with chunks in flight: inflight={} readers={:?}",
            self.epoch,
            self.inflight_samples,
            self.readers.iter().map(|r| r.inflight).collect::<Vec<_>>(),
        );
        self.epoch_start = now;
        self.consumed = 0.0;
        self.gpu_busy = 0.0;
        self.buffered_samples = 0.0;
        self.inflight_samples = 0.0;
        for (i, d) in self.devs.iter().enumerate() {
            self.dev_snapshot[i] = d.ps.stats().clone();
        }

        // tf.data: shuffle the shard list, then deal shards to the readers
        // round-robin (parallel interleave with cycle length = readers).
        // Hot-set replays join the list before the shuffle, so the extra
        // reads interleave with the one-pass scan like a second job's
        // sampler would.
        let mut order: Vec<usize> = (0..self.geom.num_shards()).collect();
        for s in 0..self.hot_shards {
            for _ in 0..self.hot_replays {
                order.push(s);
            }
        }
        self.rng.shuffle(&mut order);
        for r in &mut self.readers {
            r.pending.clear();
            r.cur = None;
            r.inflight = false;
            r.done = false;
        }
        let n = self.readers.len();
        for (i, &shard) in order.iter().enumerate() {
            self.readers[i % n].pending.push_back(shard);
        }
        // Clairvoyant mode: the shuffled order *is* the epoch's access
        // plan — hand it to the prefetcher before the readers start.
        if let Some(ms) = self.monarch.as_mut() {
            ms.epoch_ledger = ms.book.telemetry().observe().profiler().ledger();
            if ms.prefetch_lookahead > 0 {
                // Hand the epoch's read order to the policy engine: the
                // clairvoyant eviction ranks by next use, and the plan
                // boundary clears last epoch's staged-but-unread pins.
                let names: Vec<String> =
                    order.iter().map(|&s| self.shard_names[s].clone()).collect();
                ms.book.policy().set_plan(&names);
                ms.plan_pos = order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
                ms.plan = order;
                ms.plan_cursor = 0;
                ms.plan_issued = 0;
                for shard in ms.lanes.drain_prefetch() {
                    // A plan boundary withdraws still-queued prefetches,
                    // like the real engine's `plan()` does.
                    ms.book.unplaced(
                        vmicros(now),
                        &self.shard_names[shard],
                        None,
                        Unplaced::Canceled(TransitionCause::Plan),
                    );
                }
                ms.prefetch_issued.clear();
                ms.waiting_readers.clear();
                ms.parked_at.clear();
                ms.buffer_ready.clear();
                self.pump_prefetch(now);
            }
        }
        for r in 0..n {
            self.reader_advance(now, r);
        }
    }

    fn end_epoch(&mut self, now: SimTime) {
        self.run_end = now;
        let seconds = (now - self.epoch_start).as_secs_f64();
        let devices: Vec<DeviceStats> = self
            .devs
            .iter()
            .enumerate()
            .map(|(i, d)| d.ps.stats().delta_since(&self.dev_snapshot[i]))
            .collect();
        let cpu_work = self.consumed * self.model.cpu_per_sample;
        // Attribute this epoch's wall from the ledger delta since the
        // epoch began; the reader count is the fold-down concurrency.
        let observe = self.monarch.as_ref().and_then(|ms| {
            let p = ms.book.telemetry().observe().profiler();
            p.is_enabled().then(|| {
                let delta = p.ledger().delta(&ms.epoch_ledger);
                LedgerBuckets::from_ledger(&delta, seconds, self.readers.len())
            })
        });
        self.reports.push(EpochReport {
            epoch: self.epoch,
            seconds,
            devices,
            gpu_util: if seconds > 0.0 {
                self.gpu_busy / seconds
            } else {
                0.0
            },
            cpu_util: if seconds > 0.0 {
                cpu_work / seconds
            } else {
                0.0
            },
            observe,
        });
        self.epoch += 1;
        if self.epoch >= self.epochs_total {
            return;
        }
        // Start the next epoch synchronously: a queued StartEpoch would
        // leave a window in which another completion event could observe
        // the "everything done" state and end the epoch twice.
        self.begin_epoch(now);
    }

    fn maybe_finish_epoch(&mut self, now: SimTime) {
        if self.reports.len() >= self.epochs_total {
            return;
        }
        if self.computing || self.buffered_samples > 0.25 {
            return;
        }
        // Vanilla-caching: the epoch is not over until the cache file is
        // flushed — tf.data finalises the cache at iterator exhaustion, so
        // the flush tail is part of the measured epoch time.
        if self.mode == ModeTag::VanillaCaching && self.pending_cache_writes > 0 {
            return;
        }
        if self.readers.iter().all(|r| r.done) {
            debug_assert!(
                (self.consumed - self.epoch_samples).abs() < 1.0,
                "epoch ended with {} of {} samples consumed",
                self.consumed,
                self.epoch_samples
            );
            self.end_epoch(now);
        }
    }

    // -- readers -----------------------------------------------------------

    /// Device that serves a chunk of `shard` right now for reader `r`;
    /// MONARCH may also kick off a background placement as a side effect
    /// (first touch).
    fn route_chunk(&mut self, now: SimTime, r: usize, shard: usize) -> usize {
        match self.mode {
            ModeTag::VanillaLustre => self.lustre,
            ModeTag::VanillaLocal => self.ssd,
            ModeTag::VanillaCaching => {
                if self.epoch == 0 {
                    self.lustre
                } else {
                    self.ssd
                }
            }
            ModeTag::Monarch => {
                let name = &self.shard_names[shard];
                let ms = self.monarch.as_mut().expect("monarch state");
                let info = ms
                    .book
                    .metadata()
                    .lookup_for_read(name)
                    .expect("shard registered");
                ms.book.policy().on_access(name, info.tier);
                // Fault-aware serving, mirroring the real read path: a
                // failing fast-tier read records against the tier's
                // breaker and falls back to the PFS; a quarantined tier
                // is skipped outright except for the timed half-open
                // probe, whose success re-admits it.
                let source_tier = ms.tier_dev.len() - 1;
                let mut serve_tier = info.tier;
                if info.tier != source_tier {
                    let t_us = vmicros(now);
                    let faulted = match self.fault_plan.as_ref() {
                        Some(plan) => {
                            let dev_name = &self.devs[ms.tier_dev[info.tier]].spec.name;
                            let fails =
                                plan.read_fails(dev_name, now.as_secs_f64(), self.fault_ops);
                            self.fault_ops += 1;
                            fails
                        }
                        None => false,
                    };
                    let health = ms.book.hierarchy().health();
                    let tier_health = health.tier(info.tier);
                    if tier_health.is_quarantined() {
                        if tier_health.probe_permit(t_us) {
                            let cfg = health.config();
                            tier_health.probe_result(!faulted, &cfg, t_us);
                            ms.book.telemetry().event_at(
                                t_us,
                                EventKind::TierProbed {
                                    tier: info.tier,
                                    ok: !faulted,
                                },
                            );
                            if faulted {
                                serve_tier = source_tier;
                            } else {
                                ms.book.telemetry().stats().tier_recovery();
                                ms.book
                                    .telemetry()
                                    .event_at(t_us, EventKind::TierRecovered { tier: info.tier });
                            }
                        } else {
                            serve_tier = source_tier;
                        }
                    } else if faulted {
                        let cfg = health.config();
                        ms.book.telemetry().stats().read_retry();
                        let (state, transitioned) =
                            tier_health.record_error(ErrorClass::Transient, &cfg, t_us);
                        if transitioned && state == TierState::Quarantined {
                            ms.book.telemetry().stats().tier_quarantine();
                            ms.book.telemetry().event_at(
                                t_us,
                                EventKind::TierQuarantined {
                                    tier: info.tier,
                                    reason: "injected device fault".into(),
                                },
                            );
                        }
                        serve_tier = source_tier;
                    } else {
                        tier_health.record_success(&health.config(), t_us);
                    }
                    if serve_tier != info.tier {
                        ms.book.telemetry().stats().degraded_read();
                    }
                }
                let dev = ms.tier_dev[serve_tier];
                // Demand preemption: a foreground read of a shard still
                // sitting in the prefetch lane moves it to the demand lane
                // — one copy, higher priority, no duplicate.
                let mut promoted = false;
                if ms.prefetch_lookahead > 0 && ms.lanes.promote_where(|&s| s == shard) {
                    ms.book.telemetry().stats().prefetch_promote();
                    ms.book.telemetry().event_at(
                        vmicros(now),
                        EventKind::PrefetchPromoted { file: name.clone() },
                    );
                    ms.book.telemetry().observe().timeline().record_at(
                        vmicros(now),
                        name,
                        info.tier,
                        ResidencyEventKind::Promoted,
                        TransitionCause::Demand,
                    );
                    promoted = true;
                }
                let bytes = self.geom.shards[shard].bytes;
                if info.state == PlacementState::Unplaced
                    && ms.book.scheduled(vmicros(now), name, bytes, Lane::Demand)
                {
                    if ms.full_fetch {
                        ms.lanes.push(Lane::Demand, shard);
                        ms.copy_enqueued.insert(shard, now);
                        let tr = Arc::clone(ms.book.telemetry().trace());
                        if tr.is_enabled() {
                            // The flow start rides on the first traced
                            // PFS-served `driver_pread` of this shard,
                            // mirroring the real read path.
                            let flow = tr.next_id();
                            ms.copy_flow.insert(shard, flow);
                            ms.flow_start_pending.insert(shard, flow);
                            tr.record(
                                SpanRecord::new(
                                    names::COPY_SCHEDULED,
                                    "copy",
                                    SIM_READER_TRACK0 + r as u64,
                                    vmicros(now),
                                    0,
                                )
                                .with_id(tr.next_id())
                                .arg_u64("flow", flow)
                                .arg_str("file", name.clone())
                                .arg_u64("bytes", bytes),
                            );
                        }
                        self.dispatch_copy_workers(now);
                    } else {
                        // Ablation: chunk-granular caching. Reserve quota
                        // once per shard; spill each chunk as it is read.
                        // The chunk-spill path cannot execute victim
                        // evictions mid-read, so only an already-reserved
                        // (evict-free) decision proceeds.
                        let at = vmicros(now);
                        match ms.book.policy().place(ms.book.hierarchy(), name, bytes) {
                            Ok(Some(d))
                                if d.evict.is_empty()
                                    && ms.book.make_room(at, name, bytes, &d, |_| Ok(())) =>
                            {
                                ms.copy_target.insert(shard, d.tier);
                                ms.chunk_written.insert(shard, 0);
                            }
                            _ => ms.book.unplaced(at, name, None, Unplaced::NoRoom),
                        }
                    }
                }
                if promoted {
                    // The promoted copy may be a parked reader's wake-up
                    // call: make sure an idle worker picks it up now.
                    self.dispatch_copy_workers(now);
                }
                dev
            }
        }
    }

    fn buffer_full(&self) -> bool {
        self.buffered_samples + self.inflight_samples >= self.buffer_cap
    }

    /// Spill-write back-pressure: stall readers while too many cache
    /// writes are in flight (applies to the setups that spill per chunk).
    fn spill_backpressure(&self) -> bool {
        let spilling = match self.mode {
            ModeTag::VanillaCaching => self.epoch == 0,
            ModeTag::Monarch => self.monarch.as_ref().is_some_and(|ms| !ms.full_fetch),
            _ => false,
        };
        spilling && self.pending_cache_writes >= self.cache_write_limit
    }

    /// Let reader `r` issue its next operation if it can.
    fn reader_advance(&mut self, now: SimTime, r: usize) {
        if self.readers[r].inflight
            || self.readers[r].done
            || self.buffer_full()
            || self.spill_backpressure()
        {
            return;
        }
        // Continue the current shard if it still has bytes.
        if let Some((s, off)) = self.readers[r].cur {
            if off < self.geom.shards[s].bytes {
                self.issue_chunk(now, r, s, off);
                return;
            }
        }
        // Otherwise move on to the next assigned shard.
        match self.readers[r].pending.pop_front() {
            Some(next) => {
                self.readers[r].cur = Some((next, 0));
                // A freshly started shard served by Lustre pays an MDS
                // open before its first chunk.
                let dev = self.route_chunk(now, r, next);
                self.prefetch_note_read(now, next);
                // Clairvoyant interception, in precedence order: a shard
                // whose staged fetch already landed in memory is consumed
                // from the copy buffer outright; one whose copy is still
                // in flight parks the reader until the fetch completes —
                // either way the read never races a duplicate synchronous
                // fetch against its own staging copy over the PFS.
                if self.clairvoyant_buffer_serve(now, r, next) {
                    self.reader_advance(now, r);
                    return;
                }
                if self.prefetch_park(now, r, next) {
                    return;
                }
                if dev == self.lustre {
                    // MDS-stall windows stretch the open's service time
                    // (same jitter draw, so healthy runs are identical).
                    let scale = self.fault_plan.as_ref().map_or(1.0, |p| {
                        p.mds_scale(&self.devs[self.lustre].spec.name, now.as_secs_f64())
                    });
                    let done = self.mds.submit_scaled(now, &mut self.rng, scale);
                    self.readers[r].inflight = true;
                    self.q.schedule(done, Ev::MdsDone { reader: r });
                } else {
                    self.issue_chunk(now, r, next, 0);
                }
            }
            None => {
                self.readers[r].done = true;
                self.maybe_finish_epoch(now);
            }
        }
    }

    fn issue_chunk(&mut self, now: SimTime, r: usize, shard: usize, offset: u64) {
        let total = self.geom.shards[shard].bytes;
        let len = self.chunk_bytes.min(total - offset);
        let dev = self.route_chunk(now, r, shard);
        let mut traced = false;
        if let Some(ms) = self.monarch.as_ref() {
            if let Some(tier) = ms.tier_dev.iter().position(|&d| d == dev) {
                ms.book.telemetry().stats().record_read(tier, len);
            }
            traced = ms.book.telemetry().trace().sample_read();
        }
        let latency = self.sample_latency(dev);
        let sync_cap = self.devs[dev].spec.sync_stream_cap;
        // Epoch ≥ 2 of vanilla-caching reads the expanded cache files.
        let weight = if self.mode == ModeTag::VanillaCaching && self.epoch > 0 {
            self.cache_expansion
        } else {
            1.0
        };
        let id = self.devs[dev].ps.start_custom(
            now,
            len,
            latency,
            Kind::Read,
            weight,
            1.0,
            Some(sync_cap),
        );
        self.purpose.insert(
            (dev, id.0),
            Purpose::Chunk {
                reader: r,
                shard,
                issued: now,
                traced,
            },
        );
        self.readers[r].cur = Some((shard, offset + len));
        self.readers[r].inflight = true;
        self.inflight_samples += len as f64 * self.samples_per_byte[shard];
    }

    fn sample_latency(&mut self, dev: usize) -> SimTime {
        let spec = &self.devs[dev].spec;
        let s = self.rng.lognormal(spec.latency_median, spec.latency_sigma);
        SimTime::from_secs_f64(s)
    }

    /// Record the virtual-time span tree of one sampled chunk read:
    /// `read` with `metadata_lookup` / `tier_resolve` / `driver_pread`
    /// children, the same shape the real middleware records. A PFS-served
    /// read whose shard has a copy awaiting its flow start carries the
    /// `ph:"s"` endpoint on its `driver_pread`.
    fn record_read_spans(
        &mut self,
        now: SimTime,
        dev: usize,
        reader: usize,
        shard: usize,
        issued: SimTime,
        bytes: u64,
    ) {
        let lustre = self.lustre;
        let Some(ms) = self.monarch.as_mut() else {
            return;
        };
        let tr = Arc::clone(ms.book.telemetry().trace());
        if !tr.is_enabled() {
            return;
        }
        let tid = SIM_READER_TRACK0 + reader as u64;
        let t0 = vmicros(issued);
        let dur = vmicros(now - issued).max(1);
        let read_id = tr.next_id();
        let tier = ms
            .tier_dev
            .iter()
            .position(|&d| d == dev)
            .unwrap_or(ms.tier_dev.len() - 1);
        let tier_name = ms
            .book
            .hierarchy()
            .tier(tier)
            .map(|t| t.name.clone())
            .unwrap_or_default();
        // The lookup and resolve steps are instantaneous in virtual time;
        // zero-duration children keep the tree shape identical.
        tr.record(
            SpanRecord::new(names::METADATA_LOOKUP, "read", tid, t0, 0)
                .with_id(tr.next_id())
                .with_parent(read_id),
        );
        tr.record(
            SpanRecord::new(names::TIER_RESOLVE, "read", tid, t0, 0)
                .with_id(tr.next_id())
                .with_parent(read_id),
        );
        let mut pread = SpanRecord::new(names::DRIVER_PREAD, "read", tid, t0, dur)
            .with_id(tr.next_id())
            .with_parent(read_id)
            .arg_str("tier", tier_name)
            .arg_u64("bytes", bytes);
        if dev == lustre {
            if let Some(flow) = ms.flow_start_pending.remove(&shard) {
                pread = pread.with_flow(flow, FlowPhase::Start);
            }
        }
        tr.record(pread);
        tr.record(
            SpanRecord::new(names::READ, "read", tid, t0, dur)
                .with_id(read_id)
                .arg_str("file", self.shard_names[shard].clone())
                .arg_u64("bytes", bytes),
        );
    }

    /// Feed one completed chunk read to the access profiler, classified
    /// by the function the real read path classifies with
    /// ([`ReadClass::of`]). Virtual lookups are instantaneous, so the
    /// whole device time is pread time.
    fn profile_chunk_read(
        &mut self,
        now: SimTime,
        dev: usize,
        shard: usize,
        issued: SimTime,
        bytes: u64,
    ) {
        let on_source = dev == self.lustre;
        let Some(ms) = self.monarch.as_ref() else {
            return;
        };
        let profiler = ms.book.telemetry().observe().profiler();
        if !profiler.is_enabled() {
            return;
        }
        let name = &self.shard_names[shard];
        let source = ms.tier_dev.len() - 1;
        let tier = ms.tier_dev.iter().position(|&d| d == dev).unwrap_or(source);
        let state = ms.book.metadata().get(name).map(|i| (i.tier, i.state));
        let class = ReadClass::of(
            // Resident on a local tier but served from the PFS: the tier
            // is quarantined (or failing) and the read fell back.
            on_source && state.is_some_and(|(at, s)| at != source && s == PlacementState::Placed),
            on_source,
            // Reads served out of a copy's buffer are profiled where they
            // are served (`serve_from_buffer`), not here.
            false,
            ms.prefetch_lookahead > 0 && ms.plan_pos.contains_key(&shard),
            matches!(state, Some((_, PlacementState::Copying { .. }))),
        );
        let d = vmicros(now - issued);
        profiler.record_read(
            name,
            tier,
            bytes,
            class,
            false,
            ReadTiming {
                wall_us: d,
                pread_us: d,
                lock_queue_us: 0,
                copy_wait_us: 0,
            },
            vmicros(now),
        );
    }

    // -- transfer completions ----------------------------------------------

    fn on_transfer_done(&mut self, now: SimTime, dev: usize, purpose: Purpose, bytes: u64) {
        match purpose {
            Purpose::Chunk {
                reader,
                shard,
                issued,
                traced,
            } => {
                let samples = bytes as f64 * self.samples_per_byte[shard];
                self.inflight_samples -= samples;
                debug_assert!(
                    self.inflight_samples > -0.5,
                    "inflight underflow: epoch {} reader {reader} shard {shard} bytes {bytes} \
                     inflight {}",
                    self.epoch,
                    self.inflight_samples
                );
                self.buffered_samples += samples;
                self.readers[reader].inflight = false;
                if traced {
                    self.record_read_spans(now, dev, reader, shard, issued, bytes);
                }
                self.profile_chunk_read(now, dev, shard, issued, bytes);

                // Cache spills: vanilla-caching epoch 1, or MONARCH with
                // the full-file fetch disabled.
                let spill_to = match self.mode {
                    ModeTag::VanillaCaching if self.epoch == 0 && dev == self.lustre => {
                        Some((self.ssd, shard))
                    }
                    ModeTag::Monarch if dev == self.lustre => {
                        let ms = self.monarch.as_ref().expect("monarch");
                        if !ms.full_fetch {
                            ms.copy_target
                                .get(&shard)
                                .map(|&tier| (ms.tier_dev[tier], shard))
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                if let Some((to, shard)) = spill_to {
                    // tf.data's cache spills the expanded record form;
                    // MONARCH's chunk-cache ablation spills raw bytes.
                    let expansion = if self.mode == ModeTag::VanillaCaching {
                        self.cache_expansion
                    } else {
                        1.0
                    };
                    let weight = self.devs[to].spec.write_weight * expansion;
                    let latency = self.sample_latency(to);
                    let id = self.devs[to]
                        .ps
                        .start(now, bytes, latency, Kind::Write, weight);
                    self.purpose
                        .insert((to, id.0), Purpose::CacheWrite { shard });
                    self.pending_cache_writes += 1;
                }

                self.try_start_compute(now);
                self.reader_advance(now, reader);
                self.maybe_finish_epoch(now);
            }
            Purpose::CopyFetch { shard } => {
                // Stage 2 of a placement copy: write to the chosen tier.
                // The worker slot frees here — the write is a separate
                // pool task in the paper's design. The write stream gets a
                // moderate share boost: sequential, but it must not starve
                // the readers now being served from this tier.
                let share = 1.0;
                let ms = self.monarch.as_mut().expect("monarch");
                let tier = *ms.copy_target.get(&shard).expect("copy target recorded");
                ms.idle_workers += 1;
                ms.pending_copy_writes += 1;
                let tr = Arc::clone(ms.book.telemetry().trace());
                let fetch_started = ms.copy_started.get(&shard).copied().unwrap_or(now);
                let src_name = ms.book.hierarchy().source().name.clone();
                if let Some(ct) = ms.copy_trace.get_mut(&shard) {
                    if tr.is_enabled() {
                        tr.record(
                            SpanRecord::new(
                                names::COPY_READ,
                                "copy",
                                ct.tid,
                                vmicros(fetch_started),
                                vmicros(now - fetch_started),
                            )
                            .with_id(tr.next_id())
                            .with_parent(ct.exec_id)
                            .arg_str("tier", src_name)
                            .arg_u64("bytes", bytes),
                        );
                    }
                    ct.write_started = now;
                }
                let to = ms.tier_dev[tier];
                let weight = self.devs[to].spec.write_weight;
                let latency = self.sample_latency(to);
                let id = self.devs[to].ps.start_weighted(
                    now,
                    bytes,
                    latency,
                    Kind::Write,
                    weight,
                    share,
                );
                self.purpose
                    .insert((to, id.0), Purpose::CopyWrite { shard });
                self.dispatch_copy_workers(now);
                // The fetch stage moved the shard into memory: mark it
                // buffer-ready and serve any parked readers out of the
                // copy's buffer while the write-back drains.
                let released = {
                    let ms = self.monarch.as_mut().expect("monarch");
                    if ms.prefetch_lookahead > 0 {
                        ms.buffer_ready.insert(shard);
                    }
                    if ms.prefetch_issued.contains_key(&shard) {
                        // The staged bytes are servable from here on:
                        // this is the instant the waste detector compares
                        // later reads against.
                        ms.book
                            .telemetry()
                            .observe()
                            .profiler()
                            .record_prefetch_staged(
                                &self.shard_names[shard],
                                self.geom.shards[shard].bytes,
                                vmicros(now),
                            );
                    }
                    ms.waiting_readers.remove(&shard).unwrap_or_default()
                };
                if !released.is_empty() {
                    let ms = self.monarch.as_mut().expect("monarch");
                    if ms.prefetch_issued.contains_key(&shard) {
                        ms.book.telemetry().stats().prefetch_hit();
                    }
                    for &r in &released {
                        self.readers[r].inflight = false;
                        self.serve_from_buffer(now, r, shard);
                    }
                    for r in released {
                        self.reader_advance(now, r);
                    }
                }
            }
            Purpose::CopyWrite { shard } => {
                let name = self.shard_names[shard].clone();
                let size = self.geom.shards[shard].bytes;
                // Injected fault: the destination device failed (outage /
                // error roll) or filled (the simulated ENOSPC) before the
                // write-back drained — the copy aborts, its reservation is
                // released, and the shard stays retriable so recovery
                // re-admits it.
                let mut write_fault: Option<ErrorClass> = None;
                if let Some(plan) = self.fault_plan.as_ref() {
                    let t_s = now.as_secs_f64();
                    let dev_name = &self.devs[dev].spec.name;
                    if plan.outage(dev_name, t_s) || plan.error_fires(dev_name, t_s, self.fault_ops)
                    {
                        write_fault = Some(ErrorClass::Transient);
                    } else if plan.write_full(dev_name, t_s) {
                        write_fault = Some(ErrorClass::Capacity);
                    }
                    self.fault_ops += 1;
                }
                if let Some(class) = write_fault {
                    self.fail_copy_write(now, shard, &name, size, class);
                    return;
                }
                let ms = self.monarch.as_mut().expect("monarch");
                let tier = ms.copy_target.remove(&shard).expect("copy target");
                // Write-back drained: the copy buffer is gone; later reads
                // of this shard go through the tier device as normal.
                ms.buffer_ready.remove(&shard);
                ms.pending_copy_writes -= 1;
                ms.book.telemetry().stats().record_write(tier, size);
                let started = ms.copy_started.remove(&shard);
                let lane = if ms.prefetch_issued.contains_key(&shard) {
                    Lane::Prefetch
                } else {
                    Lane::Demand
                };
                let took = started.map(|at| Duration::from_nanos(vnanos(now - at)));
                ms.book
                    .placed(vmicros(now), &name, size, tier, lane, took)
                    .expect("finish copy");
                if let Some(ct) = ms.copy_trace.remove(&shard) {
                    let tr = Arc::clone(ms.book.telemetry().trace());
                    if tr.is_enabled() {
                        let dst = ms
                            .book
                            .hierarchy()
                            .tier(tier)
                            .map(|t| t.name.clone())
                            .unwrap_or_default();
                        tr.record(
                            SpanRecord::new(
                                names::COPY_WRITE,
                                "copy",
                                ct.tid,
                                vmicros(ct.write_started),
                                vmicros(now - ct.write_started),
                            )
                            .with_id(tr.next_id())
                            .with_parent(ct.exec_id)
                            .arg_str("tier", dst.clone())
                            .arg_u64("bytes", size),
                        );
                        tr.record(
                            SpanRecord::new(
                                names::METADATA_REGISTER,
                                "copy",
                                ct.tid,
                                vmicros(now),
                                0,
                            )
                            .with_id(tr.next_id())
                            .with_parent(ct.exec_id)
                            .arg_str("tier", dst),
                        );
                        let t_exec = vmicros(started.unwrap_or(now));
                        tr.record(
                            SpanRecord::new(
                                names::COPY_EXEC,
                                "copy",
                                ct.tid,
                                t_exec,
                                vmicros(now).saturating_sub(t_exec),
                            )
                            .with_id(ct.exec_id)
                            .with_flow(ct.flow, FlowPhase::Finish)
                            .arg_str("file", name.clone())
                            .arg_u64("bytes", size)
                            .arg_str("outcome", "completed"),
                        );
                    }
                }
                self.dispatch_copy_workers(now);
                // Option (i): training starts once staging fully drains.
                if self.prestaging {
                    let ms = self.monarch.as_ref().expect("monarch");
                    if ms.lanes.queued(Lane::Demand) == 0
                        && ms.pending_copy_writes == 0
                        && ms.copy_target.is_empty()
                        && ms.idle_workers == ms.pool_threads
                    {
                        self.prestaging = false;
                        self.prestage_seconds = (now - self.prestage_started).as_secs_f64();
                        self.q.schedule(now, Ev::StartEpoch);
                    }
                }
            }
            Purpose::CacheWrite { shard } => {
                self.pending_cache_writes -= 1;
                if self.mode == ModeTag::Monarch {
                    // Chunk-cache ablation: mark the shard placed once all
                    // of it has been spilled.
                    let total = self.geom.shards[shard].bytes;
                    let name = self.shard_names[shard].clone();
                    let ms = self.monarch.as_mut().expect("monarch");
                    if let Some(written) = ms.chunk_written.get_mut(&shard) {
                        *written += bytes;
                        if *written >= total {
                            let tier = *ms.copy_target.get(&shard).expect("target");
                            ms.copy_target.remove(&shard);
                            ms.chunk_written.remove(&shard);
                            ms.book.telemetry().stats().record_write(tier, total);
                            ms.book
                                .placed(vmicros(now), &name, total, tier, Lane::Demand, None)
                                .expect("finish");
                        }
                    }
                }
                // A spill slot freed: unblock stalled readers, and let a
                // flush-gated epoch end once the last write drains.
                for r in 0..self.readers.len() {
                    self.reader_advance(now, r);
                }
                self.maybe_finish_epoch(now);
            }
        }
    }

    /// Abort an in-flight placement write whose destination device failed
    /// under the fault plan: feed the tier's breaker, then book the copy
    /// as un-placed — its reservation is released and the shard left
    /// `Unplaced`, so a post-recovery read re-admits it.
    fn fail_copy_write(
        &mut self,
        now: SimTime,
        shard: usize,
        name: &str,
        size: u64,
        class: ErrorClass,
    ) {
        let t_us = vmicros(now);
        {
            let ms = self.monarch.as_mut().expect("monarch");
            let tier = ms.copy_target.remove(&shard).expect("copy target");
            ms.buffer_ready.remove(&shard);
            ms.pending_copy_writes -= 1;
            ms.copy_started.remove(&shard);
            ms.copy_trace.remove(&shard);
            ms.prefetch_issued.remove(&shard);
            let health = ms.book.hierarchy().health();
            let cfg = health.config();
            let (state, transitioned) = health.tier(tier).record_error(class, &cfg, t_us);
            if transitioned && state == TierState::Quarantined {
                ms.book.telemetry().stats().tier_quarantine();
                ms.book.telemetry().event_at(
                    t_us,
                    EventKind::TierQuarantined {
                        tier,
                        reason: "copy write-back failed under injected fault".into(),
                    },
                );
            }
            // The device error the real install would have come back with.
            let fault = Error::Io(match class {
                ErrorClass::Capacity => std::io::Error::from_raw_os_error(28),
                _ => std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "target tier failed during write-back",
                ),
            });
            ms.book
                .unplaced(t_us, name, Some((tier, size)), Unplaced::Failed(&fault));
        }
        self.dispatch_copy_workers(now);
        // Option (i): a failed write still counts toward staging drain.
        if self.prestaging {
            let ms = self.monarch.as_ref().expect("monarch");
            if ms.lanes.queued(Lane::Demand) == 0
                && ms.pending_copy_writes == 0
                && ms.copy_target.is_empty()
                && ms.idle_workers == ms.pool_threads
            {
                self.prestaging = false;
                self.prestage_seconds = (now - self.prestage_started).as_secs_f64();
                self.q.schedule(now, Ev::StartEpoch);
            }
        }
    }

    // -- MONARCH clairvoyant prefetch ----------------------------------------

    /// Advance the foreground read cursor past `shard`, count a prefetch
    /// hit when a staged shard is read from a local tier, and let the
    /// prefetcher issue further plan entries the cursor unlocked.
    fn prefetch_note_read(&mut self, now: SimTime, shard: usize) {
        {
            let Some(ms) = self.monarch.as_mut() else {
                return;
            };
            if ms.prefetch_lookahead == 0 {
                return;
            }
            if let Some(&pos) = ms.plan_pos.get(&shard) {
                ms.plan_cursor = ms.plan_cursor.max(pos + 1);
            }
            // The foreground cursor reached the shard: it is no longer a
            // staged-but-unread entry, so it re-enters the evictable set,
            // and the clairvoyant ranking advances past this plan entry.
            ms.book.policy().unpin(&self.shard_names[shard]);
            ms.book.policy().note_plan_read(&self.shard_names[shard]);
            let source = ms.tier_dev.len() - 1;
            if let Some(read_seen) = ms.prefetch_issued.get_mut(&shard) {
                if !*read_seen {
                    *read_seen = true;
                    if let Some(info) = ms.book.metadata().get(&self.shard_names[shard]) {
                        if info.tier != source && info.state == PlacementState::Placed {
                            ms.book.telemetry().stats().prefetch_hit();
                        }
                    }
                }
            }
        }
        self.pump_prefetch(now);
    }

    /// Park reader `r` at the head of `shard` when a prefetch-issued copy
    /// of it is still streaming in from the PFS: the reader is woken by
    /// that fetch's completion and served from the copy's buffer, instead
    /// of double-reading the shard synchronously from the PFS while the
    /// bulk copy streams the same bytes. Reactive mode (`lookahead == 0`)
    /// never parks, and neither do shards the prefetcher did not issue —
    /// demand copies keep today's read-through behaviour byte for byte.
    fn prefetch_park(&mut self, now: SimTime, r: usize, shard: usize) -> bool {
        let name = &self.shard_names[shard];
        let parked = match self.monarch.as_mut() {
            Some(ms)
                if ms.prefetch_lookahead > 0
                    && ms.prefetch_issued.contains_key(&shard)
                    && !ms.buffer_ready.contains(&shard) =>
            {
                let copying = matches!(
                    ms.book.metadata().get(name),
                    Some(info) if matches!(info.state, PlacementState::Copying { .. })
                );
                if copying {
                    ms.waiting_readers.entry(shard).or_default().push(r);
                    ms.parked_at.insert(r, now);
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if parked {
            self.readers[r].inflight = true;
        }
        parked
    }

    /// Serve the whole of `shard` to reader `r` when its staged fetch has
    /// already landed in memory (write-back still draining). Counts as a
    /// prefetch hit. Returns false when the shard is not buffer-ready.
    fn clairvoyant_buffer_serve(&mut self, now: SimTime, r: usize, shard: usize) -> bool {
        let hit = match self.monarch.as_mut() {
            Some(ms)
                if ms.prefetch_lookahead > 0
                    && ms.prefetch_issued.contains_key(&shard)
                    && ms.buffer_ready.contains(&shard) =>
            {
                ms.book.telemetry().stats().prefetch_hit();
                true
            }
            _ => false,
        };
        if hit {
            self.serve_from_buffer(now, r, shard);
        }
        hit
    }

    /// Consume `shard` straight out of the staging copy's in-memory
    /// buffer: the placement fetch already moved the bytes into RAM, so
    /// the foreground read costs no further device time — only the
    /// trainer's own consumption rate.
    fn serve_from_buffer(&mut self, now: SimTime, r: usize, shard: usize) {
        let bytes = self.geom.shards[shard].bytes;
        if let Some(ms) = self.monarch.as_mut() {
            let tier = ms.copy_target.get(&shard).copied();
            if let Some(tier) = tier {
                ms.book.telemetry().stats().record_read(tier, bytes);
            }
            let waited = ms
                .parked_at
                .remove(&r)
                .map(|at| vmicros(now - at))
                .unwrap_or(0);
            let profiler = ms.book.telemetry().observe().profiler();
            if profiler.is_enabled() {
                // A reader that parked on the staging copy charges its
                // wait to the prefetch-lag bucket (the prefetcher knew,
                // but was late); an un-parked buffer hit is a free read.
                let (class, timing) = if waited > 0 {
                    (
                        ReadClass::PrefetchLag,
                        ReadTiming {
                            wall_us: waited,
                            pread_us: 0,
                            lock_queue_us: 0,
                            copy_wait_us: waited,
                        },
                    )
                } else {
                    (ReadClass::Fast, ReadTiming::default())
                };
                profiler.record_read(
                    &self.shard_names[shard],
                    tier.unwrap_or(0),
                    bytes,
                    class,
                    true,
                    timing,
                    vmicros(now),
                );
            }
        }
        self.readers[r].cur = Some((shard, bytes));
        self.buffered_samples += bytes as f64 * self.samples_per_byte[shard];
        self.try_start_compute(now);
    }

    /// Issue plan entries into the prefetch lane up to `cursor +
    /// lookahead`. Entries already copying or placed resolve silently
    /// (their `begin_copy` CAS fails).
    fn pump_prefetch(&mut self, now: SimTime) {
        let mut scheduled = false;
        {
            let ms = self.monarch.as_mut().expect("monarch");
            if ms.prefetch_lookahead == 0 {
                return;
            }
            while ms.plan_issued < ms.plan.len()
                && ms.plan_issued < ms.plan_cursor + ms.prefetch_lookahead
            {
                let shard = ms.plan[ms.plan_issued];
                ms.plan_issued += 1;
                let name = &self.shard_names[shard];
                // A prefetch copy is pinned against eviction until the
                // foreground cursor passes it.
                let bytes = self.geom.shards[shard].bytes;
                if ms.book.scheduled(vmicros(now), name, bytes, Lane::Prefetch) {
                    ms.lanes.push(Lane::Prefetch, shard);
                    ms.copy_enqueued.insert(shard, now);
                    ms.prefetch_issued.insert(shard, false);
                    scheduled = true;
                }
            }
        }
        if scheduled {
            self.dispatch_copy_workers(now);
        }
    }

    // -- MONARCH copy pool ---------------------------------------------------

    fn dispatch_copy_workers(&mut self, now: SimTime) {
        loop {
            let ms = self.monarch.as_mut().expect("monarch");
            if ms.idle_workers == 0 || ms.pending_copy_writes >= 2 * ms.pool_threads {
                return;
            }
            let Some((shard, lane)) = ms.lanes.pop() else {
                return;
            };
            let prefetch_lane = lane == Lane::Prefetch;
            let name = self.shard_names[shard].clone();
            let size = self.geom.shards[shard].bytes;
            // Eviction-capable ablation policies release their victims
            // here; nothing is deleted, the sim's tiers hold no bytes.
            let decision = ms
                .book
                .policy()
                .place(ms.book.hierarchy(), &name, size)
                .expect("sim policies are infallible")
                .filter(|d| ms.book.make_room(vmicros(now), &name, size, d, |_| Ok(())));
            let Some(decision) = decision else {
                ms.copy_enqueued.remove(&shard);
                ms.copy_flow.remove(&shard);
                ms.flow_start_pending.remove(&shard);
                ms.book
                    .unplaced(vmicros(now), &name, None, Unplaced::NoRoom);
                // A parked reader must not wait on a copy that will never
                // land: fall back to reading through.
                ms.prefetch_issued.remove(&shard);
                if let Some(stranded) = ms.waiting_readers.remove(&shard) {
                    for &r in &stranded {
                        ms.parked_at.remove(&r);
                        self.readers[r].inflight = false;
                    }
                    for r in stranded {
                        self.reader_advance(now, r);
                    }
                }
                continue;
            };
            let queued_at = ms.copy_enqueued.remove(&shard);
            if let Some(at) = queued_at {
                let wait = vnanos(now - at);
                if prefetch_lane {
                    ms.book.telemetry().queue_wait_prefetch().record(wait);
                } else {
                    ms.book.telemetry().queue_wait().record(wait);
                }
            }
            ms.copy_started.insert(shard, now);
            ms.book
                .telemetry()
                .event_at(vmicros(now), EventKind::CopyStarted { file: name.clone() });
            let tr = Arc::clone(ms.book.telemetry().trace());
            if tr.is_enabled() {
                if let Some(flow) = ms.copy_flow.remove(&shard) {
                    let exec_id = tr.next_id();
                    let tid = SIM_COPY_TRACK0 + (shard % ms.pool_threads) as u64;
                    if let Some(at) = queued_at {
                        tr.record(
                            SpanRecord::new(
                                names::QUEUE_WAIT,
                                "copy",
                                QUEUE_TRACK,
                                vmicros(at),
                                vmicros(now - at),
                            )
                            .with_id(tr.next_id())
                            .arg_str("file", name.clone()),
                        );
                    }
                    let mut pd =
                        SpanRecord::new(names::PLACEMENT_DECIDE, "copy", tid, vmicros(now), 0)
                            .with_id(tr.next_id())
                            .with_parent(exec_id);
                    for (key, value) in decision.trace_args(ms.book.hierarchy()) {
                        pd.args.push((key, value));
                    }
                    tr.record(pd);
                    ms.copy_trace.insert(
                        shard,
                        CopyTrace {
                            flow,
                            exec_id,
                            tid,
                            write_started: SimTime::ZERO,
                        },
                    );
                }
            }
            ms.copy_target.insert(shard, decision.tier);
            ms.idle_workers -= 1;
            let latency = self.sample_latency(self.lustre);
            let lustre = self.lustre;
            let share = self.bulk_share;
            let id =
                self.devs[lustre]
                    .ps
                    .start_weighted(now, size, latency, Kind::Read, 1.0, share);
            self.purpose
                .insert((lustre, id.0), Purpose::CopyFetch { shard });
        }
    }

    // -- trainer -------------------------------------------------------------

    fn try_start_compute(&mut self, now: SimTime) {
        if self.computing {
            return;
        }
        let remaining = self.epoch_samples - self.consumed;
        if remaining <= 0.25 {
            return;
        }
        let batch = (self.model.batch_size as f64).min(remaining);
        let readers_done = self.readers.iter().all(|r| r.done);
        let take = if self.buffered_samples + 0.25 >= batch {
            batch.min(self.buffered_samples)
        } else if readers_done && self.buffered_samples > 0.25 {
            // Final ragged batch.
            self.buffered_samples
        } else {
            return;
        };
        self.buffered_samples -= take;
        self.computing = true;
        self.cur_batch = take;
        let step = SimTime::from_secs_f64(take * self.model.per_sample_step);
        self.q.schedule(now + step, Ev::ComputeDone);
    }

    fn on_compute_done(&mut self, now: SimTime) {
        self.computing = false;
        self.consumed += self.cur_batch;
        self.total_consumed += self.cur_batch;
        self.gpu_busy += self.cur_batch * self.model.per_sample_step * self.model.gpu_fraction;
        self.cur_batch = 0.0;
        self.try_start_compute(now);
        // The buffer drained: unblock any waiting readers.
        for r in 0..self.readers.len() {
            self.reader_advance(now, r);
        }
        self.maybe_finish_epoch(now);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use monarch_core::{MonarchBuilder, PrefetchConfig};

    use super::*;
    use crate::config::MonarchSimConfig;

    /// `# HELP` line of every gauge family in an exposition, plus the
    /// label sets of the lane gauge.
    fn gauge_schema(text: &str) -> BTreeSet<String> {
        let gauges: BTreeSet<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" gauge"))
            .collect();
        text.lines()
            .filter(|l| match l.strip_prefix("# HELP ") {
                Some(rest) => gauges.contains(rest.split(' ').next().unwrap()),
                None => l.starts_with("monarch_lane_queued{"),
            })
            .map(|l| {
                l.rsplit_once("} ")
                    .map_or(l, |(labels, _)| labels)
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn sim_and_real_snapshots_share_one_gauge_schema() {
        // Both sides publish through `TelemetryRegistry::publish_gauges`;
        // at bc32a48 the sim kept its own list, with drifted help text and
        // without the remote lane, `monarch_draining`,
        // `monarch_reads_in_flight` and the in-flight prefetch gauges.
        for lookahead in [0, 4] {
            let trainer = SimTrainer::new(
                Setup::Monarch(MonarchSimConfig::with_prefetch(lookahead)),
                DatasetGeom::miniature("gauges", 512, 3),
                ModelProfile::lenet(),
                PipelineConfig::default(),
                EnvConfig::default(),
            );
            let world = World::build(&trainer);
            world.sample_gauges();
            let ms = world.monarch.as_ref().unwrap();
            let sim_text = ms.book.telemetry().prometheus_text();

            let tier = |name: &str, cap| {
                let driver = Arc::new(MemDriver::new(name)) as Arc<dyn StorageDriver>;
                (name.to_string(), driver, cap)
            };
            let real = MonarchBuilder::new()
                .hierarchy(
                    StorageHierarchy::new(vec![tier("ssd", Some(1 << 20)), tier("pfs", None)])
                        .unwrap(),
                )
                .prefetch(PrefetchConfig {
                    lookahead,
                    ..PrefetchConfig::disabled()
                })
                .build()
                .unwrap();
            let real_text = real.metrics_text();
            let schema = gauge_schema(&real_text);
            assert!(schema.len() >= 12, "{schema:?}");
            assert_eq!(gauge_schema(&sim_text), schema, "lookahead {lookahead}");

            // A run's attached document carries exactly those families.
            let names = |snap: &monarch_core::TelemetrySnapshot| -> BTreeSet<String> {
                snap.gauges.iter().map(|g| g.name.clone()).collect()
            };
            let sim_snap = trainer.run(1).telemetry.expect("telemetry attached");
            assert_eq!(names(&sim_snap), names(&real.telemetry_snapshot()));
            real.shutdown();
        }
    }
}
