//! The event-driven training world (see module docs in `sim`).

use std::collections::VecDeque;
use std::sync::Arc;

use monarch_core::config::TelemetryConfig;
use monarch_core::driver::MemDriver;
use monarch_core::hash::{FxHashMap, FxHashSet};
use monarch_core::health::{ErrorClass, Gate};
use monarch_core::hierarchy::{StorageHierarchy, TierId};
use monarch_core::lifecycle::{
    CopyFlow, CopyRun, Lifecycle, Queued, ReadTrace, Served, ServedRead, Unplaced,
};
use monarch_core::metadata::{FileId, PlacementState};
use monarch_core::observe::{LedgerBuckets, LedgerSnapshot, ObserveReport};
use monarch_core::policy::{FeatureSource, PolicyEngine};
use monarch_core::pool::Lane;
use monarch_core::stats::Stats;
use monarch_core::telemetry::{
    PipelineSample, PrefetchSample, TelemetryRegistry, TelemetrySnapshot, ThroughputSampler,
    TransitionCause,
};
use monarch_core::trace::QUEUE_TRACK;
use monarch_core::{
    Error, LaneQueues, PrefetchConfig, PrefetchWindow, ReadFeedback, StorageDriver,
};
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

/// A MONARCH foreground read, from its lookup until
/// [`Lifecycle::read_served`] books it: the shard's id, the tier the shard
/// lived on and whether its copy was in flight, the tier serving the read
/// and how, where in the shard and when it began, whether it is sampled
/// for tracing, and what the plan cursor made of it.
#[derive(Debug, Clone, Copy)]
struct SimRead {
    id: FileId,
    home: TierId,
    copying: bool,
    tier: TierId,
    how: Served,
    offset: u64,
    issued: SimTime,
    traced: bool,
    plan: ReadFeedback,
}

/// Synthetic trace track of the copies no reader schedules: pre-staging
/// and the plan's prefetch.
const SIM_PLANNER_TRACK: u64 = 99;
/// First synthetic trace track for readers (`100 + reader index`).
const SIM_READER_TRACK0: u64 = 100;
/// First synthetic trace track for copies in flight (`200 + k`), each
/// held by one copy from its dispatch until it settles.
const SIM_COPY_TRACK0: u64 = 200;

/// Why a transfer was issued.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// A reader's chunk read; payload samples enter the prefetch buffer.
    /// Under MONARCH the read rides along, to be booked on completion.
    Chunk {
        reader: usize,
        shard: usize,
        read: Option<SimRead>,
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
    /// What the plan cursor made of the current shard; only its first read
    /// carries `first_issued`.
    plan: ReadFeedback,
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
    /// Shard ids awaiting a copy worker, on the same lane discipline the
    /// real engine uses: the demand lane always drains first, a
    /// foreground read of a queued prefetch entry promotes it instead of
    /// duplicating the copy, and a plan boundary bulk-cancels the
    /// prefetch lane.
    lanes: LaneQueues<usize>,
    /// Clairvoyant lookahead (`enabled()` false = reactive only). The
    /// byte cap is 0: the window is bounded by its lookahead alone.
    prefetch: PrefetchConfig,
    /// The engine's window over this epoch's access plan (shard names in
    /// foreground read order), walked through the engine's booking calls.
    window: Option<PrefetchWindow>,
    /// Each scheduled copy, by shard, until it settles.
    copies: FxHashMap<usize, SimCopy>,
    /// Copy tracks no copy in flight holds, and how many there are.
    free_tracks: Vec<u64>,
    tracks: u64,
    /// Readers parked on a planned shard whose staged copy is in flight:
    /// the clairvoyant contract serves such reads from the copy when it
    /// lands rather than double-reading the shard from the PFS.
    waiting_readers: FxHashMap<usize, Vec<usize>>,
    /// Each parked reader's read, issued when it stopped: the wait is the
    /// read's pread when the copy's buffer serves it.
    parked: FxHashMap<usize, SimRead>,
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
    full_fetch: bool,
    /// Placement option (i): stage everything before the first epoch.
    prestage: bool,
    /// Chunk-cache mode (full_fetch = false): bytes written per shard.
    chunk_written: FxHashMap<usize, u64>,
}

/// A scheduled copy of one shard, from [`Lifecycle::scheduled`] until it
/// settles: what the engine's lease and job hold. Its lane is its
/// `copy_completed` cause, and whether a reader may park on its staging.
struct SimCopy {
    lane: Lane,
    /// What its scheduling booked, until a worker takes it; its run after.
    queued: Option<Queued>,
    run: Option<CopyRun>,
    /// Its destination tier, once room is made.
    target: Option<TierId>,
    /// When its current install stage began (virtual microseconds).
    stage_at: u64,
    /// The flow a traced PFS-served read of the shard has yet to start,
    /// as the real read path's `driver_pread` does (`0`: none).
    flow_start: u64,
}

impl MonarchSim {
    /// Schedule the copy of the shard `file` on `lane` through the engine's
    /// booking call, and record it. A traced copy a `reader` scheduled is drawn on its
    /// track, and the flow starts at the reader's first traced PFS read;
    /// one the planner scheduled (pre-staging, prefetch) starts its flow
    /// itself, as no read will. Returns the flow (`0`: untraced).
    fn schedule(
        &mut self,
        at: u64,
        file: FileId,
        bytes: u64,
        lane: Lane,
        reader: Option<usize>,
    ) -> Option<u64> {
        let tr = self.book.telemetry().trace();
        let flow = CopyFlow {
            id: if tr.is_enabled() { tr.next_id() } else { 0 },
            parent: 0,
            track: reader.map_or(SIM_PLANNER_TRACK, |r| SIM_READER_TRACK0 + r as u64),
            starts: reader.is_none(),
        };
        let queued = self.book.scheduled(at, file, bytes, lane, flow)?;
        let copy = SimCopy {
            lane,
            queued: Some(queued),
            run: None,
            target: None,
            stage_at: at,
            flow_start: if flow.starts { 0 } else { flow.id },
        };
        self.copies.insert(file.index(), copy);
        Some(flow.id)
    }

    /// A copy track no copy in flight holds (`0` when untraced).
    fn take_track(&mut self) -> u64 {
        let tr = self.book.telemetry().trace();
        if !tr.is_enabled() {
            return 0;
        }
        self.free_tracks.pop().unwrap_or_else(|| {
            let track = SIM_COPY_TRACK0 + self.tracks;
            tr.set_track_name(track, format!("sim-copy-{}", self.tracks));
            self.tracks += 1;
            track
        })
    }

    /// `shard`'s copy settles: forget it, and free its track.
    fn settled(&mut self, shard: usize) -> SimCopy {
        let copy = self.copies.remove(&shard).expect("copy recorded");
        let track = copy.run.as_ref().map_or(0, |run| run.track);
        if track != 0 {
            self.free_tracks.push(track);
        }
        copy
    }
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
    /// Shard `i` is registered `i`-th, so its `FileId` has index `i`.
    shard_ids: Vec<FileId>,
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
                let policy = Arc::new(PolicyEngine::from_kind(cfg.policy, cfg.admission));
                // As in the real instance, the policy engine's namespace is
                // the instance's, and the profiler's records go by its ids.
                let telemetry = Arc::new(TelemetryRegistry::with_namespace(
                    tier_names,
                    stats,
                    &TelemetryConfig {
                        trace_sample_every_n: cfg.trace_sample_every_n,
                        ..TelemetryConfig::default()
                    },
                    Arc::clone(policy.namespace()),
                ));
                // The sim has no OS threads: give every actor a stable
                // synthetic track so the exported trace renders readers
                // and copy workers as separate named rows.
                let tr = telemetry.trace();
                if tr.is_enabled() {
                    tr.set_track_name(QUEUE_TRACK, "copy-queue");
                    tr.set_track_name(SIM_PLANNER_TRACK, "sim-planner");
                    for r in 0..t.pipeline.readers.max(1) {
                        tr.set_track_name(SIM_READER_TRACK0 + r as u64, format!("sim-reader-{r}"));
                    }
                }
                let hierarchy =
                    Arc::new(StorageHierarchy::new(levels).expect("valid sim hierarchy"));
                // Reuse-aware admission and the learned scorer read the
                // sim's access profiler through the same bridge the real
                // engine uses.
                policy.bind_features(Arc::clone(&telemetry) as Arc<dyn FeatureSource>);
                let ms = MonarchSim {
                    book: Lifecycle::new(hierarchy, policy, telemetry),
                    tier_dev,
                    lanes: LaneQueues::new(),
                    prefetch: PrefetchConfig {
                        lookahead: cfg.prefetch_lookahead,
                        max_inflight_bytes: 0,
                    },
                    window: None,
                    copies: FxHashMap::default(),
                    free_tracks: Vec::new(),
                    tracks: 0,
                    waiting_readers: FxHashMap::default(),
                    parked: FxHashMap::default(),
                    epoch_ledger: LedgerSnapshot::default(),
                    buffer_ready: FxHashSet::default(),
                    idle_workers: cfg.pool_threads.max(1),
                    pool_threads: cfg.pool_threads.max(1),
                    pending_copy_writes: 0,
                    full_fetch: cfg.full_file_fetch,
                    prestage: cfg.prestage,
                    chunk_written: FxHashMap::default(),
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
            shard_ids: Vec::new(),
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

    /// Train `epochs` epochs, from the namespace scan to the last epoch's
    /// end.
    fn simulate(&mut self, epochs: usize) {
        self.epochs_total = epochs;

        // MONARCH initialises its namespace by scanning the dataset
        // directory: one MDS op per shard (paper: ≈13 s / ≈52 s).
        if let Some(ms) = self.monarch.as_ref() {
            let (files, mut done) = (ms.book.metadata(), SimTime::ZERO);
            for (name, shard) in self.shard_names.iter().zip(&self.geom.shards) {
                done = self.mds.submit(done, &mut self.rng);
                files.register(name, shard.bytes, ms.tier_dev.len() - 1);
            }
            self.shard_ids = files.ids().collect();
            assert_eq!(self.shard_ids.len(), self.geom.num_shards());
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
    }

    fn run(mut self, epochs: usize) -> RunReport {
        self.simulate(epochs);
        let device_names: Vec<String> = self.devs.iter().map(|d| d.spec.name.clone()).collect();
        let telemetry = self.document();
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

    /// The MONARCH run's state document, its gauges read off live sim
    /// state through the same producer the real engine's `Sampler` uses,
    /// so a sim-backed document has an identical schema; `None` for the
    /// vanilla setups.
    fn document(&self) -> Option<TelemetrySnapshot> {
        let ms = self.monarch.as_ref()?;
        let prefetch = ms.prefetch.enabled().then(|| {
            ms.window
                .as_ref()
                .map_or_else(PrefetchSample::default, PrefetchWindow::sample)
        });
        let telemetry = ms.book.telemetry();
        let gauges = telemetry.gauges(
            ms.book.hierarchy(),
            ms.book.metadata(),
            &PipelineSample {
                queued: PipelineSample::queued_by(|lane| ms.lanes.queued(lane)),
                running: ms.pool_threads.saturating_sub(ms.idle_workers),
                prefetch,
                draining: false,
            },
        );
        Some(telemetry.snapshot(gauges, ms.book.hierarchy().health(), ms.book.policy(), None))
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
                // A window edge can change what route_chunk decides: kick
                // any idle readers so a recovered tier is probed promptly.
                for r in 0..self.readers.len() {
                    self.reader_advance(now, r);
                }
            }
            Ev::TraceTick => {
                let bytes = self.devs[self.lustre].ps.stats().bytes_read();
                self.sampler.force_sample(now.as_secs_f64(), bytes);
                if let Some(interval) = self.trace_interval {
                    self.q.schedule(now + interval, Ev::TraceTick);
                }
            }
            Ev::StartPrestage => {
                self.prestage_started = now;
                self.prestaging = true;
                let ms = self.monarch.as_mut().expect("prestage implies monarch");
                for i in 0..self.geom.num_shards() {
                    let (id, bytes) = (self.shard_ids[i], self.geom.shards[i].bytes);
                    if ms
                        .schedule(vmicros(now), id, bytes, Lane::Demand, None)
                        .is_some()
                    {
                        ms.lanes.push(Lane::Demand, i);
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
            ms.epoch_ledger = ms.book.telemetry().profiler().ledger();
            if ms.prefetch.enabled() {
                // A plan boundary withdraws still-queued prefetches and
                // closes the last plan's books, then opens the window over
                // this epoch's read order, like the real engine's `plan()`.
                for shard in ms.lanes.drain_prefetch() {
                    ms.copies.remove(&shard);
                    ms.book.unplaced(
                        vmicros(now),
                        self.shard_ids[shard],
                        None,
                        Unplaced::Canceled(TransitionCause::Plan),
                        None,
                    );
                }
                ms.book.plan_closed(ms.window.take());
                let files: Vec<(FileId, u64)> = order
                    .iter()
                    .map(|&s| (self.shard_ids[s], self.geom.shards[s].bytes))
                    .collect();
                ms.window = Some(ms.book.plan_opened(&files, ms.prefetch));
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
            let p = ms.book.telemetry().profiler();
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

    /// Device that serves a chunk of `shard` right now for reader `r`,
    /// and under MONARCH the read its lookup begins; MONARCH may also kick
    /// off a background placement as a side effect (first touch).
    fn route_chunk(&mut self, now: SimTime, r: usize, shard: usize) -> (usize, Option<SimRead>) {
        match self.mode {
            ModeTag::VanillaLustre => (self.lustre, None),
            ModeTag::VanillaLocal => (self.ssd, None),
            ModeTag::VanillaCaching if self.epoch == 0 => (self.lustre, None),
            ModeTag::VanillaCaching => (self.ssd, None),
            ModeTag::Monarch => {
                let name = &self.shard_names[shard];
                let ms = self.monarch.as_mut().expect("monarch state");
                let (id, info, _) = ms
                    .book
                    .metadata()
                    .resolve_for_read(name)
                    .expect("shard registered");
                ms.book.policy().on_access_id(id, info.tier);
                // Fault-aware serving through the engine's gate and settle:
                // a quarantined tier is skipped except for the timed
                // half-open probe, and a failing fast-tier read is booked
                // against the tier's breaker. Unlike the real read path
                // the simulator does not retry in place: a faulted read
                // (counted as the retry it would have cost) falls back to
                // the PFS at once.
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
                    let gate = ms.book.hierarchy().health().tier(info.tier).gate(|| t_us);
                    if gate != Gate::Shut {
                        let fault = faulted.then(|| {
                            Error::Io(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "injected device fault",
                            ))
                        });
                        if faulted && gate == Gate::Open {
                            ms.book.telemetry().stats().read_retry();
                        }
                        let outcome = fault.as_ref().map_or(Ok(()), Err);
                        ms.book.tier_settled(|| t_us, info.tier, gate, outcome);
                    }
                    if gate == Gate::Shut || faulted {
                        serve_tier = source_tier;
                    }
                }
                let dev = ms.tier_dev[serve_tier];
                let read = SimRead {
                    id,
                    home: info.tier,
                    copying: matches!(info.state, PlacementState::Copying { .. }),
                    tier: serve_tier,
                    how: Served::Tier,
                    offset: 0,
                    issued: now,
                    traced: false,
                    plan: ReadFeedback::default(),
                };
                // Demand preemption: a foreground read of a shard still
                // sitting in the prefetch lane moves it to the demand lane
                // — one copy, higher priority, no duplicate.
                let mut promoted = false;
                if ms.prefetch.enabled() && ms.lanes.promote_where(|&s| s == shard) {
                    ms.book.promoted(vmicros(now), id);
                    promoted = true;
                }
                let bytes = self.geom.shards[shard].bytes;
                let at = vmicros(now);
                // The flow start rides on the first traced PFS-served
                // `driver_pread` of this shard, as on the real read path.
                if info.state == PlacementState::Unplaced
                    && ms.schedule(at, id, bytes, Lane::Demand, Some(r)).is_some()
                {
                    if ms.full_fetch {
                        ms.lanes.push(Lane::Demand, shard);
                        self.dispatch_copy_workers(now);
                    } else {
                        // Ablation: chunk-granular caching. Reserve quota
                        // once per shard; spill each chunk as it is read.
                        // Nothing runs the copy, so it has no run.
                        match ms.book.room(|| at, None, id, bytes, |_, _| Ok(())) {
                            Ok(Some((tier, _))) => {
                                ms.copies.get_mut(&shard).expect("scheduled").target = Some(tier);
                                ms.chunk_written.insert(shard, 0);
                            }
                            _ => {
                                ms.copies.remove(&shard);
                                ms.book.unplaced(at, id, None, Unplaced::NoRoom, None);
                            }
                        }
                    }
                }
                if promoted {
                    // The promoted copy may be a parked reader's wake-up
                    // call: make sure an idle worker picks it up now.
                    self.dispatch_copy_workers(now);
                }
                (dev, Some(read))
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
                let (dev, read) = self.route_chunk(now, r, next);
                let plan = read.map_or_else(ReadFeedback::default, |read| {
                    self.prefetch_note_read(now, read.id)
                });
                self.readers[r].plan = plan;
                // Clairvoyant interception, in precedence order: a shard
                // whose staged fetch already landed in memory is consumed
                // from the copy buffer outright; one whose copy is still
                // in flight parks the reader until the fetch completes —
                // either way the read never races a duplicate synchronous
                // fetch against its own staging copy over the PFS.
                if let Some(read) = read.map(|read| SimRead { plan, ..read }) {
                    if self.clairvoyant_buffer_serve(now, r, next, read) {
                        self.reader_advance(now, r);
                        return;
                    }
                    if self.prefetch_park(r, next, read) {
                        return;
                    }
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
        let (dev, mut read) = self.route_chunk(now, r, shard);
        if let (Some(read), Some(ms)) = (read.as_mut(), self.monarch.as_ref()) {
            read.offset = offset;
            read.traced = ms.book.telemetry().trace().sample_read();
            read.plan = self.readers[r].plan;
            self.readers[r].plan.first_issued = false;
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
                read,
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

    /// Book reader `r`'s `read` of `shard`, served at `now` with `bytes`,
    /// through the engine's one booking call under virtual time. Its
    /// lookups are instantaneous in virtual time, so all its wait is pread,
    /// and every read carries the clock. A sampled PFS-served read carries
    /// the flow start of its shard's copy, if that copy has none yet.
    fn book_read(&mut self, now: SimTime, r: usize, shard: usize, bytes: u64, read: SimRead) {
        let ms = self.monarch.as_mut().expect("monarch");
        let tr = ms.book.telemetry().trace();
        let pfs = read.how == Served::Tier && read.tier == ms.tier_dev.len() - 1;
        let trace = read.traced.then(|| ReadTrace {
            id: tr.next_id(),
            parent: 0,
            track: SIM_READER_TRACK0 + r as u64,
            flow: match ms.copies.get_mut(&shard) {
                Some(copy) if pfs => std::mem::take(&mut copy.flow_start),
                _ => 0,
            },
        });
        let (t0, t1) = (vmicros(read.issued) * 1_000, vmicros(now) * 1_000);
        ms.book.read_served(&ServedRead {
            id: read.id,
            offset: read.offset,
            bytes,
            home: read.home,
            copying: read.copying,
            tier: read.tier,
            how: read.how,
            plan: read.plan,
            weight: 1,
            trace,
            marks: Some([t0, t0, t0, t1, t1]),
        });
    }

    // -- transfer completions ----------------------------------------------

    fn on_transfer_done(&mut self, now: SimTime, dev: usize, purpose: Purpose, bytes: u64) {
        match purpose {
            Purpose::Chunk {
                reader,
                shard,
                read,
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
                if let Some(read) = read {
                    self.book_read(now, reader, shard, bytes, read);
                }

                // Cache spills: vanilla-caching epoch 1, or MONARCH with
                // the full-file fetch disabled.
                let spill_to = match self.mode {
                    ModeTag::VanillaCaching if self.epoch == 0 && dev == self.lustre => {
                        Some((self.ssd, shard))
                    }
                    ModeTag::Monarch if dev == self.lustre => {
                        let ms = self.monarch.as_ref().expect("monarch");
                        let target = ms.copies.get(&shard).and_then(|c| c.target);
                        target
                            .filter(|_| !ms.full_fetch)
                            .map(|tier| (ms.tier_dev[tier], shard))
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
                ms.idle_workers += 1;
                ms.pending_copy_writes += 1;
                let (at, source) = (vmicros(now), ms.book.hierarchy().source_id());
                let copy = ms.copies.get_mut(&shard).expect("copy in flight");
                let tier = copy.target.expect("copy target");
                let run = copy.run.as_ref().expect("run");
                ms.book.stage(Some(run), source, bytes, copy.stage_at, at);
                copy.stage_at = at;
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
                    if ms.prefetch.enabled() {
                        ms.buffer_ready.insert(shard);
                    }
                    ms.waiting_readers.remove(&shard).unwrap_or_default()
                };
                if !released.is_empty() {
                    for &r in &released {
                        self.readers[r].inflight = false;
                        let ms = self.monarch.as_mut().expect("monarch");
                        let read = ms.parked.remove(&r).expect("parked");
                        self.serve_from_buffer(now, r, shard, read);
                    }
                    for r in released {
                        self.reader_advance(now, r);
                    }
                }
            }
            Purpose::CopyWrite { shard } => {
                let (id, size) = (self.shard_ids[shard], self.geom.shards[shard].bytes);
                // Injected fault: the destination device failed (outage /
                // error roll) or filled (the simulated ENOSPC) before the
                // write-back drained.
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
                let ms = self.monarch.as_mut().expect("monarch");
                let copy = ms.settled(shard);
                let (run, tier) = (copy.run.expect("run"), copy.target.expect("copy target"));
                // The copy buffer is gone; later reads of this shard go
                // through a tier device as normal.
                ms.buffer_ready.remove(&shard);
                ms.pending_copy_writes -= 1;
                let at = vmicros(now);
                if let Some(class) = write_fault {
                    // The device error the real install would have come
                    // back with: the tier's breaker is fed, and the copy
                    // un-placed — its reservation released, the shard left
                    // `Unplaced`, so a post-recovery read re-admits it.
                    let fault = Error::Io(match class {
                        ErrorClass::Capacity => std::io::Error::from_raw_os_error(28),
                        _ => std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "target tier failed during write-back",
                        ),
                    });
                    ms.book.tier_settled(|| at, tier, Gate::Open, Err(&fault));
                    let why = Unplaced::Failed(&fault);
                    ms.book
                        .unplaced(at, id, Some((tier, size)), why, Some(&run));
                } else {
                    ms.book.stage(Some(&run), tier, size, copy.stage_at, at);
                    ms.book.placed(at, id, size, tier, copy.lane, Some(&run));
                }
                self.dispatch_copy_workers(now);
                // A failed write still counts toward staging drain.
                self.maybe_end_prestage(now);
            }
            Purpose::CacheWrite { shard } => {
                self.pending_cache_writes -= 1;
                if self.mode == ModeTag::Monarch {
                    // Chunk-cache ablation: mark the shard placed once all
                    // of it has been spilled.
                    let (id, total) = (self.shard_ids[shard], self.geom.shards[shard].bytes);
                    let ms = self.monarch.as_mut().expect("monarch");
                    if let Some(written) = ms.chunk_written.get_mut(&shard) {
                        *written += bytes;
                        if *written >= total {
                            ms.chunk_written.remove(&shard);
                            // The spill is the copy's write, from the read
                            // that scheduled it to its last chunk's landing.
                            let (copy, at) = (ms.settled(shard), vmicros(now));
                            let tier = copy.target.expect("target");
                            ms.book.stage(None, tier, total, copy.stage_at, at);
                            ms.book.placed(at, id, total, tier, copy.lane, None);
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

    /// Option (i): training starts once staging fully drains.
    fn maybe_end_prestage(&mut self, now: SimTime) {
        let ms = self.monarch.as_ref().expect("monarch");
        if self.prestaging && ms.copies.is_empty() {
            self.prestaging = false;
            self.prestage_seconds = (now - self.prestage_started).as_secs_f64();
            self.q.schedule(now, Ev::StartEpoch);
        }
    }

    // -- MONARCH clairvoyant prefetch ----------------------------------------

    /// Move the plan cursor past `file` through the engine's booking call
    /// ([`Lifecycle::plan_read`]) and let the prefetcher issue the plan
    /// entries the cursor unlocked. Returns what the plan made of the read,
    /// for the shard's first read to carry to [`Lifecycle::read_served`],
    /// which counts the hit.
    fn prefetch_note_read(&mut self, now: SimTime, file: FileId) -> ReadFeedback {
        let Some(ms) = self.monarch.as_mut() else {
            return ReadFeedback::default();
        };
        let Some(window) = ms.window.as_mut() else {
            return ReadFeedback::default();
        };
        let note = ms.book.plan_read(window, file);
        self.pump_prefetch(now);
        note.map_or_else(ReadFeedback::default, ReadFeedback::from)
    }

    /// Park reader `r`'s `read` at the head of `shard` when the shard's
    /// prefetch-lane copy is still streaming in from the PFS: the reader is
    /// woken by that fetch's completion and served from the copy's buffer,
    /// instead of double-reading the shard synchronously from the PFS while
    /// the bulk copy streams the same bytes. Demand copies keep the
    /// read-through behaviour byte for byte.
    fn prefetch_park(&mut self, r: usize, shard: usize, read: SimRead) -> bool {
        let parked = match self.monarch.as_mut() {
            Some(ms)
                if ms
                    .copies
                    .get(&shard)
                    .is_some_and(|c| c.lane == Lane::Prefetch)
                    && !ms.buffer_ready.contains(&shard) =>
            {
                ms.waiting_readers.entry(shard).or_default().push(r);
                ms.parked.insert(r, read);
                true
            }
            _ => false,
        };
        if parked {
            self.readers[r].inflight = true;
        }
        parked
    }

    /// Serve the whole of `shard` to reader `r` when its prefetch-lane
    /// copy's fetch has already landed in memory (write-back still
    /// draining). Returns false when the shard is not buffer-ready.
    fn clairvoyant_buffer_serve(
        &mut self,
        now: SimTime,
        r: usize,
        shard: usize,
        read: SimRead,
    ) -> bool {
        let ready = self.monarch.as_ref().is_some_and(|ms| {
            ms.copies
                .get(&shard)
                .is_some_and(|c| c.lane == Lane::Prefetch)
                && ms.buffer_ready.contains(&shard)
        });
        if ready {
            self.serve_from_buffer(now, r, shard, read);
        }
        ready
    }

    /// Consume `shard` straight out of the staging copy's in-memory
    /// buffer: the placement fetch already moved the bytes into RAM, so
    /// the foreground read costs no further device time — only the
    /// trainer's own consumption rate. The read is booked as the engine
    /// books a read served by its copy's install staging: a staged read
    /// that fetched nothing, and waited from its issue for the fetch that
    /// carried its bytes.
    fn serve_from_buffer(&mut self, now: SimTime, r: usize, shard: usize, read: SimRead) {
        let bytes = self.geom.shards[shard].bytes;
        let tr = self
            .monarch
            .as_ref()
            .expect("monarch")
            .book
            .telemetry()
            .trace();
        let read = SimRead {
            how: Served::Staged { fetched: 0 },
            traced: tr.sample_read(),
            ..read
        };
        self.book_read(now, r, shard, bytes, read);
        self.readers[r].cur = Some((shard, bytes));
        self.buffered_samples += bytes as f64 * self.samples_per_byte[shard];
        self.try_start_compute(now);
    }

    /// Issue plan entries into the prefetch lane as the engine's pump
    /// does: the window picks the next entry within `cursor + lookahead`,
    /// [`Lifecycle::scheduled`] wins its copy, and an entry already copying
    /// or placed (its `begin_copy` CAS fails) resolves at once.
    fn pump_prefetch(&mut self, now: SimTime) {
        let ms = self.monarch.as_mut().expect("monarch");
        let Some(mut window) = ms.window.take() else {
            return;
        };
        // Copies that left `Copying` release their share of the window.
        let metadata = ms.book.metadata();
        window.poll_resolved(|id| {
            !metadata
                .placement(id)
                .is_some_and(|info| matches!(info.state, PlacementState::Copying { .. }))
        });
        let mut scheduled = false;
        while let Some((idx, id, bytes)) = window.next_to_issue() {
            // As in the engine's pump, the flow starts at the scheduling
            // span: the read it serves may be far in the future.
            match ms.schedule(vmicros(now), id, bytes, Lane::Prefetch, None) {
                Some(flow) => {
                    ms.lanes.push(Lane::Prefetch, id.index());
                    window.set_flow(idx, flow);
                    scheduled = true;
                }
                None => window.resolve(idx),
            }
        }
        ms.window = Some(window);
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
            let Some((shard, _)) = ms.lanes.pop() else {
                return;
            };
            let (id, size) = (self.shard_ids[shard], self.geom.shards[shard].bytes);
            let (at, track) = (vmicros(now), ms.take_track());
            let copy = ms.copies.get_mut(&shard).expect("queued copy recorded");
            let queued = copy.queued.take().expect("queued");
            let run = copy
                .run
                .insert(ms.book.started(at, id, queued, || track, true));
            copy.stage_at = at;
            // Eviction-capable ablation policies release their victims
            // here; nothing is deleted, the sim's tiers hold no bytes.
            let room = ms.book.room(|| at, Some(run), id, size, |_, _| Ok(()));
            let Some((tier, _)) = room.expect("sim policies are infallible") else {
                let copy = ms.settled(shard);
                ms.book
                    .unplaced(at, id, None, Unplaced::NoRoom, copy.run.as_ref());
                // A parked reader must not wait on a copy that will never
                // land: fall back to reading through.
                if let Some(stranded) = ms.waiting_readers.remove(&shard) {
                    for &r in &stranded {
                        ms.parked.remove(&r);
                        self.readers[r].inflight = false;
                    }
                    for r in stranded {
                        self.reader_advance(now, r);
                    }
                }
                continue;
            };
            copy.target = Some(tier);
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

    use monarch_core::telemetry::EventKind;
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
    fn every_copy_the_plan_scheduled_completes_as_the_plans() {
        // `tests/prefetch_e2e.rs`'s sim shape over two epochs: some plan
        // copies are still in flight at the epoch boundary. A copy keeps
        // the lane it was scheduled on until it settles, however many plan
        // boundaries it spans.
        let model = ModelProfile {
            name: "tiny".into(),
            per_sample_step: 50e-6,
            gpu_fraction: 0.7,
            cpu_per_sample: 60e-6,
            batch_size: 128,
        };
        let trainer = SimTrainer::new(
            Setup::Monarch(MonarchSimConfig::with_prefetch(64)),
            DatasetGeom::miniature("mini", 16_384, 42),
            model,
            PipelineConfig::default().with_seed(1),
            EnvConfig::default(),
        );
        let mut world = World::build(&trainer);
        world.simulate(2);
        let ms = world.monarch.as_ref().unwrap();
        let telemetry = ms.book.telemetry();
        assert_eq!(telemetry.journal().dropped(), 0, "the journal is whole");
        // Whether the copy that won each file was the plan's.
        let mut by_plan = FxHashMap::default();
        let mut plan_copies = 0;
        for event in telemetry.journal().events() {
            match event.kind {
                EventKind::PrefetchScheduled { file, .. } => {
                    by_plan.insert(file, true);
                }
                EventKind::CopyScheduled { file, .. } => {
                    by_plan.insert(file, false);
                }
                EventKind::CopyCompleted {
                    file, bytes, cause, ..
                } if by_plan[&file] => {
                    plan_copies += 1;
                    assert_eq!(cause, TransitionCause::Plan, "{file}");
                    let staged = telemetry.profiler().profile(&file).unwrap();
                    assert_eq!(staged.prefetched_bytes, bytes, "{file}");
                }
                _ => {}
            }
        }
        assert_eq!(plan_copies, 32);
    }

    #[test]
    fn sim_and_real_snapshots_share_one_gauge_schema() {
        // Both sides read their gauges through `TelemetryRegistry::gauges`;
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
            let sim_text = world.document().unwrap().exposition();

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
