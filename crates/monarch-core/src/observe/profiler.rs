//! The per-file access profiler: the longitudinal half of the telemetry
//! plane.
//!
//! Histograms and gauges answer "how is the system doing *right now*";
//! the [`AccessProfiler`] answers "what did the *workload* do": per file,
//! how often was it read, with what inter-access rhythm, from which tiers,
//! and did the prefetcher earn its keep on it.
//!
//! A file's record is a line of atomics in a slab indexed by the file's
//! [`FileId`] in the instance's namespace — the same identity the read
//! path already resolved — so recording a read is a handful of relaxed
//! adds: no lock, no hash of the name, no allocation. The slab mirrors the
//! namespace's doubling chunks and is allocated a chunk at a time, when a
//! read first touches an id inside it. It is bounded (`max_files`) so a
//! pathological namespace cannot grow the profiler without limit — reads
//! of ids past the bound are still tallied globally in `untracked_reads`,
//! they just lose per-file attribution.
//!
//! What a read reports comes in two parts. Its **counts** — the ledger's
//! `reads`, bytes per tier, miss and prefetch tallies — are recorded on
//! every read and are exact; the access count and the bytes per tier are
//! the namespace slot's own counters line, not second copies here, so a
//! plain hit of a file already seen writes nothing in this slab. Its
//! **times** — the ledger's sums, the file's last-access instant and
//! inter-access gap — are recorded on *timed* reads only, each standing for
//! `weight` reads (see [`TimedRead`]): every read that is not a plain local
//! hit, and one local hit in
//! [`TIMED_HIT_PERIOD`](crate::telemetry::TIMED_HIT_PERIOD).
//!
//! Alongside the per-file records the profiler keeps the **time-lost
//! ledger**: monotonic sums of read wall time split by [`ReadClass`],
//! accumulated in nanoseconds and reported in microseconds. The ledger is
//! what the epoch report rolls up into the pfs-bound /
//! copy-lane-saturated / prefetch-lag / lock-or-queue / compute-bound
//! attribution (see [`crate::observe::report`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::hierarchy::TierId;
use crate::metadata::{chunk_len, locate, FileId, MetadataContainer, CHUNKS};
use crate::stripe::Striped;

/// EWMA smoothing factor for the inter-access interval. 0.2 weights the
/// last ~5 gaps — reactive enough for epoch-boundary rhythm changes,
/// smooth enough that one straggler read does not swing the estimate.
const EWMA_ALPHA: f64 = 0.2;

/// How a profiled read was served, from the storage system's point of
/// view. `Fast` is the only healthy class; the other three name *why* the
/// read went to the PFS, which is exactly the split the time-lost ledger
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ReadClass {
    /// Served from a local (fast) tier.
    Fast,
    /// Served from the PFS with no staging copy in sight — a cold miss.
    PfsCold,
    /// Served from the PFS while a copy of the file was already in
    /// flight: the copy lanes are behind the read front. The read fetched
    /// the copy's next range into its install staging itself, or, ahead of
    /// the copy's frontier, read the source on its own.
    LaneSaturated,
    /// Served out of the install staging of the file's in-flight copy
    /// without reading the PFS: copied from what had been fetched, if need
    /// be after waiting for the fetch that carried its bytes.
    Staged,
    /// Served from the PFS although the access plan covers the file: the
    /// prefetcher knew, but did not get there in time.
    PrefetchLag,
    /// Served node-to-node from a peer's fast tier: cheaper than the PFS
    /// but still a network hop, so its wall time is attributed separately
    /// from both `Fast` and `PfsCold`.
    PeerBound,
    /// The file was resident on a local tier, but that tier is failing or
    /// quarantined, so the bytes came from a lower tier (ultimately the
    /// PFS). Attributed separately so fault-induced slowdown is not
    /// mistaken for cold misses.
    DegradedFallback,
}

impl ReadClass {
    /// Classify a read served by a tier of the hierarchy (never
    /// [`ReadClass::PeerBound`]: a peer is not one) from what the read
    /// path knows when the bytes are back. The first fact that holds
    /// decides: the read was `degraded` (rerouted below the tier the file
    /// lives on); it was not served `on_source`, so a local tier served
    /// it; it was `staged` (took every byte from its copy's install
    /// staging); the file is `planned` (covered by the access plan); its
    /// copy is in flight (`copying`). A read of the source that none of
    /// them explains is a cold miss.
    #[must_use]
    pub fn of(degraded: bool, on_source: bool, staged: bool, planned: bool, copying: bool) -> Self {
        if degraded {
            ReadClass::DegradedFallback
        } else if !on_source {
            ReadClass::Fast
        } else if staged {
            ReadClass::Staged
        } else if planned {
            ReadClass::PrefetchLag
        } else if copying {
            ReadClass::LaneSaturated
        } else {
            ReadClass::PfsCold
        }
    }
}

/// Wall-clock decomposition of one read, in microseconds. The real read
/// path fills all four from its stall-profiler instants; the simulator
/// fills `wall_us == pread_us` (its lookups are instantaneous in virtual
/// time).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadTiming {
    /// Entry-to-exit wall time of the read call.
    pub wall_us: u64,
    /// Time inside the backend pread.
    pub pread_us: u64,
    /// Time in metadata lock/lookup and pre-pread bookkeeping.
    pub lock_queue_us: u64,
    /// Time in post-pread copy machinery (demand hand-off, plan notes).
    pub copy_wait_us: u64,
}

/// What the clock adds to the record of a read that carried it: the
/// phases of [`ReadTiming`] at the read path's own resolution — a warm
/// hit's are all below a microsecond, and survive into the ledger because
/// it sums nanoseconds and divides once, when it is read.
#[derive(Debug, Clone, Copy)]
pub struct TimedRead {
    /// Entry-to-exit wall time of the read call, ns.
    pub wall_ns: u64,
    /// Time inside the backend pread, ns.
    pub pread_ns: u64,
    /// Time in the namespace lookup and pre-pread bookkeeping, ns.
    pub lock_queue_ns: u64,
    /// Time in post-pread copy machinery, ns.
    pub copy_wait_ns: u64,
    /// How many reads this one stands for in the time sums: 1, or the
    /// sampling period when it is the one local hit in so many.
    pub weight: u64,
    /// Registry-clock instant the read ended, µs.
    pub t_us: u64,
    /// The file's access count, this read included.
    pub accesses: u64,
}

impl TimedRead {
    /// A read that began at `entry`, had its serving tier by `resolve`,
    /// its bytes by `pread` and returned at `end`.
    #[must_use]
    pub fn between(
        [entry, resolve, pread, end]: [Instant; 4],
        weight: u64,
        t_us: u64,
        accesses: u64,
    ) -> Self {
        let ns = |from: Instant, to: Instant| {
            u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
        };
        Self {
            wall_ns: ns(entry, end),
            pread_ns: ns(resolve, pread),
            lock_queue_ns: ns(entry, resolve),
            copy_wait_ns: ns(pread, end),
            weight,
            t_us,
            accesses,
        }
    }
}

/// One file's longitudinal record. Timestamps are registry-clock
/// microseconds (virtual micros in the simulator).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FileProfile {
    /// Foreground reads observed (exact: the namespace's own count).
    pub accesses: u64,
    /// Timestamp of the first timed access (0 until one arrives).
    pub first_us: u64,
    /// Timestamp of the most recent timed access.
    pub last_us: u64,
    /// Exponentially weighted moving average of the inter-access gap —
    /// the "observed per-file access interval" ROADMAP item 3's learned
    /// placement wants as a feature. Each timed access contributes the
    /// time since the previous timed one divided by the accesses in
    /// between. 0 until a second timed access arrives.
    pub ewma_gap_us: f64,
    /// Bytes served to the foreground per tier (index = tier id; exact).
    pub bytes_by_tier: Vec<u64>,
    /// Reads of this file that the prefetcher staged in time (exact).
    pub prefetch_hits: u64,
    /// Reads of this file served from the PFS (any non-`Fast` class;
    /// exact).
    pub demand_misses: u64,
    /// Bytes the prefetcher staged for this file (0 = never prefetched).
    pub prefetched_bytes: u64,
    /// Registry-clock instant of the latest prefetch staging.
    pub staged_us: u64,
    /// Foreground reads that arrived *after* a prefetch staging — 0 with
    /// `prefetched_bytes > 0` is the signature of wasted prefetch work
    /// (exact).
    pub reads_after_prefetch: u64,
}

/// One file's cells. Aligned so that two files never share a cache line.
#[derive(Default)]
#[repr(align(64))]
struct Record {
    /// 1 once anything was recorded: the file counts as tracked.
    seen: AtomicU64,
    prefetched_bytes: AtomicU64,
    reads_after_prefetch: AtomicU64,
    demand_misses: AtomicU64,
    prefetch_hits: AtomicU64,
    staged_us: AtomicU64,
    /// Timed reads so far; the cells below are written by those only.
    timed: AtomicU64,
    /// The file's access count at its latest timed read.
    timed_at: AtomicU64,
    first_us: AtomicU64,
    last_us: AtomicU64,
    /// `f64` bits.
    ewma_gap_us: AtomicU64,
}

impl Record {
    /// Fold one timed read into the access rhythm. Two threads timing the
    /// same file at once may interleave their swaps; each cell still holds
    /// a value one of them observed, which is all an estimate needs.
    fn time(&self, t: &TimedRead) {
        let nth = self.timed.fetch_add(1, Ordering::Relaxed) + 1;
        let prev_us = self.last_us.swap(t.t_us, Ordering::Relaxed);
        let prev_at = self.timed_at.swap(t.accesses, Ordering::Relaxed);
        if nth == 1 {
            self.first_us.store(t.t_us, Ordering::Relaxed);
            return;
        }
        let reads = t.accesses.saturating_sub(prev_at).max(1);
        let gap = t.t_us.saturating_sub(prev_us) as f64 / reads as f64;
        let ewma = if nth == 2 {
            gap
        } else {
            let old = f64::from_bits(self.ewma_gap_us.load(Ordering::Relaxed));
            EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * old
        };
        self.ewma_gap_us.store(ewma.to_bits(), Ordering::Relaxed);
    }
}

/// Indices into [`LedgerAccum::nanos`]; the pread sums follow, one per
/// [`ReadClass`] in declaration order.
const WALL: usize = 0;
const LOCK_QUEUE: usize = 1;
const COPY_WAIT: usize = 2;
const PREAD: usize = 3;
const SUMS: usize = PREAD + ReadClass::DegradedFallback as usize + 1;

/// One stripe of the time-lost ledger (see the `stripe` module): a reader
/// adds only to its own copy, with relaxed ordering, and never locks;
/// [`AccessProfiler::ledger`] sums the copies.
#[derive(Default)]
struct LedgerAccum {
    /// Every profiled read, timed or not.
    reads: AtomicU64,
    /// Weighted nanosecond sums over the timed ones.
    nanos: [AtomicU64; SUMS],
}

impl LedgerAccum {
    fn add(&self, class: ReadClass, t: &TimedRead) {
        for (sum, nanos) in [
            (WALL, t.wall_ns),
            (LOCK_QUEUE, t.lock_queue_ns),
            (COPY_WAIT, t.copy_wait_ns),
            (PREAD + class as usize, t.pread_ns),
        ] {
            self.nanos[sum].fetch_add(nanos.saturating_mul(t.weight), Ordering::Relaxed);
        }
    }
}

/// Serializable ledger sums — the `ledger` section of the observe
/// snapshot. All monotonic, so per-epoch attribution is a
/// [`LedgerSnapshot::delta`] between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerSnapshot {
    /// Profiled reads.
    pub reads: u64,
    /// Total read wall time (entry to exit), µs.
    pub read_wall_us: u64,
    /// Pread time on local tiers, µs.
    pub fast_pread_us: u64,
    /// Pread time on the PFS with no copy in sight, µs.
    pub pfs_cold_pread_us: u64,
    /// Pread time on the PFS while a copy was in flight, µs.
    pub lane_sat_pread_us: u64,
    /// Time reads spent being served out of an in-flight copy's install
    /// staging (waits for its fetches included), µs.
    #[serde(default)]
    pub staged_pread_us: u64,
    /// Pread time on the PFS for plan-covered files, µs.
    pub prefetch_lag_pread_us: u64,
    /// Fetch time for reads served node-to-node from a peer's tier, µs.
    #[serde(default)]
    pub peer_bound_pread_us: u64,
    /// Pread time of degraded-fallback reads (resident tier failing,
    /// served down-hierarchy), µs.
    #[serde(default)]
    pub degraded_pread_us: u64,
    /// Lock/lookup and pre-pread bookkeeping time, µs.
    pub lock_queue_us: u64,
    /// Post-pread copy-machinery time (and simulated park waits), µs.
    pub copy_wait_us: u64,
}

impl LedgerSnapshot {
    /// The sums accumulated since `prev` (saturating — a fresh registry
    /// against an older snapshot yields zeros, not wraparound).
    #[must_use]
    pub fn delta(&self, prev: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            reads: self.reads.saturating_sub(prev.reads),
            read_wall_us: self.read_wall_us.saturating_sub(prev.read_wall_us),
            fast_pread_us: self.fast_pread_us.saturating_sub(prev.fast_pread_us),
            pfs_cold_pread_us: self
                .pfs_cold_pread_us
                .saturating_sub(prev.pfs_cold_pread_us),
            lane_sat_pread_us: self
                .lane_sat_pread_us
                .saturating_sub(prev.lane_sat_pread_us),
            staged_pread_us: self.staged_pread_us.saturating_sub(prev.staged_pread_us),
            prefetch_lag_pread_us: self
                .prefetch_lag_pread_us
                .saturating_sub(prev.prefetch_lag_pread_us),
            peer_bound_pread_us: self
                .peer_bound_pread_us
                .saturating_sub(prev.peer_bound_pread_us),
            degraded_pread_us: self
                .degraded_pread_us
                .saturating_sub(prev.degraded_pread_us),
            lock_queue_us: self.lock_queue_us.saturating_sub(prev.lock_queue_us),
            copy_wait_us: self.copy_wait_us.saturating_sub(prev.copy_wait_us),
        }
    }
}

/// Bounded per-file access records plus the time-lost ledger.
pub struct AccessProfiler {
    enabled: bool,
    tiers: usize,
    max_files: usize,
    /// The namespace whose ids index the records: it names them, and its
    /// per-file counters line *is* their access count and bytes per tier.
    files: Arc<MetadataContainer>,
    chunks: [OnceLock<Box<[Record]>>; CHUNKS],
    tracked: AtomicU64,
    untracked_reads: AtomicU64,
    ledger: Striped<LedgerAccum>,
}

impl std::fmt::Debug for AccessProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessProfiler")
            .field("enabled", &self.enabled)
            .field("tracked", &self.tracked.load(Ordering::Relaxed))
            .field("max_files", &self.max_files)
            .finish()
    }
}

impl AccessProfiler {
    /// A profiler over `tiers` tier ids with a namespace of its own,
    /// tracking the first `max_files` distinct names it is told about —
    /// for callers that know files by name only (the simulator).
    /// Disabled profilers take one branch per call and record nothing.
    #[must_use]
    pub fn new(enabled: bool, tiers: usize, max_files: usize) -> Self {
        Self::with_namespace(enabled, tiers, max_files, Arc::default())
    }

    /// A profiler over the ids of `files`, the namespace of the instance
    /// it observes; ids at or past `max_files` go untracked.
    #[must_use]
    pub fn with_namespace(
        enabled: bool,
        tiers: usize,
        max_files: usize,
        files: Arc<MetadataContainer>,
    ) -> Self {
        Self {
            enabled,
            tiers,
            max_files,
            files,
            chunks: [const { OnceLock::new() }; CHUNKS],
            tracked: AtomicU64::new(0),
            untracked_reads: AtomicU64::new(0),
            ledger: Striped::new(),
        }
    }

    /// Whether the profiler records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The record of `id`, if one exists (`touch` creates it, within the
    /// bound) and something was recorded.
    fn record_of(&self, id: FileId, touch: bool) -> Option<&Record> {
        let index = id.index();
        if index >= self.max_files {
            return None;
        }
        let (k, offset) = locate(index);
        let chunk = if touch {
            self.chunks[k].get_or_init(|| {
                // The last chunk stops at the bound.
                let len = chunk_len(k).min(self.max_files - (index - offset));
                (0..len).map(|_| Record::default()).collect()
            })
        } else {
            self.chunks[k].get()?
        };
        let record = &chunk[offset];
        if record.seen.load(Ordering::Relaxed) == 0 {
            if !touch {
                return None;
            }
            if record.seen.swap(1, Ordering::Relaxed) == 0 {
                self.tracked.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(record)
    }

    /// The id `file` is recorded under: its id in the namespace, interned
    /// on first sight while the bound has room.
    fn resolve(&self, file: &str) -> Option<FileId> {
        self.files
            .find(file)
            .or_else(|| (self.files.ids().len() < self.max_files).then(|| self.files.intern(file)))
    }

    /// Record one foreground read of a file the caller resolved (and whose
    /// access the namespace counted): the ledger's and the file's counts
    /// always, the times when the read carried the clock.
    pub fn record_read_id(
        &self,
        id: FileId,
        tier: TierId,
        bytes: u64,
        class: ReadClass,
        prefetch_hit: bool,
        timed: Option<&TimedRead>,
    ) {
        if self.enabled {
            self.record(Some(id), tier, bytes, class, prefetch_hit, timed);
        }
    }

    fn record(
        &self,
        id: Option<FileId>,
        tier: TierId,
        bytes: u64,
        class: ReadClass,
        prefetch_hit: bool,
        timed: Option<&TimedRead>,
    ) {
        let ledger = self.ledger.local(LedgerAccum::default);
        ledger.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = timed {
            ledger.add(class, t);
        }
        let Some((id, record)) = id.and_then(|id| Some((id, self.record_of(id, true)?))) else {
            self.untracked_reads.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.files.count_bytes(id, tier, bytes);
        if class != ReadClass::Fast {
            record.demand_misses.fetch_add(1, Ordering::Relaxed);
        }
        if prefetch_hit {
            record.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        }
        if record.prefetched_bytes.load(Ordering::Relaxed) > 0 {
            record.reads_after_prefetch.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t) = timed {
            record.time(t);
        }
    }

    /// [`Self::record_read_id`] by name, for a read nothing else counted:
    /// resolves `file`, counts the access, and records the read as timed
    /// at weight 1 with the caller's clock.
    #[allow(clippy::too_many_arguments)]
    pub fn record_read(
        &self,
        file: &str,
        tier: TierId,
        bytes: u64,
        class: ReadClass,
        prefetch_hit: bool,
        timing: ReadTiming,
        t_us: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.resolve(file);
        let timed = TimedRead {
            wall_ns: timing.wall_us.saturating_mul(1_000),
            pread_ns: timing.pread_us.saturating_mul(1_000),
            lock_queue_ns: timing.lock_queue_us.saturating_mul(1_000),
            copy_wait_ns: timing.copy_wait_us.saturating_mul(1_000),
            weight: 1,
            t_us,
            accesses: id.map_or(0, |id| self.files.count_read(id)),
        };
        self.record(id, tier, bytes, class, prefetch_hit, Some(&timed));
    }

    /// Record that the prefetcher finished staging `bytes` of the file
    /// onto a local tier. Fed from the transfer engine's prefetch-lane
    /// copy completion; a profile whose `prefetched_bytes` stays unmatched
    /// by any later read is wasted prefetch work.
    pub fn record_prefetch_staged_id(&self, id: FileId, bytes: u64, t_us: u64) {
        if !self.enabled {
            return;
        }
        if let Some(record) = self.record_of(id, true) {
            record.prefetched_bytes.fetch_add(bytes, Ordering::Relaxed);
            record.staged_us.store(t_us, Ordering::Relaxed);
        }
    }

    /// [`Self::record_prefetch_staged_id`] by name.
    pub fn record_prefetch_staged(&self, file: &str, bytes: u64, t_us: u64) {
        if let (true, Some(id)) = (self.enabled, self.resolve(file)) {
            self.record_prefetch_staged_id(id, bytes, t_us);
        }
    }

    /// One file's profile — the policy engine's
    /// [`crate::policy::FeatureSource`] path. `None` for files the
    /// profiler never saw (or a disabled profiler).
    #[must_use]
    pub fn profile_id(&self, id: FileId) -> Option<FileProfile> {
        let record = self.record_of(id, false)?;
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        Some(FileProfile {
            accesses: self.files.reads_of(id),
            first_us: load(&record.first_us),
            last_us: load(&record.last_us),
            ewma_gap_us: f64::from_bits(load(&record.ewma_gap_us)),
            bytes_by_tier: self.files.bytes_of(id, self.tiers),
            prefetch_hits: load(&record.prefetch_hits),
            demand_misses: load(&record.demand_misses),
            prefetched_bytes: load(&record.prefetched_bytes),
            staged_us: load(&record.staged_us),
            reads_after_prefetch: load(&record.reads_after_prefetch),
        })
    }

    /// [`Self::profile_id`] by name.
    #[must_use]
    pub fn profile(&self, file: &str) -> Option<FileProfile> {
        self.profile_id(self.files.find(file)?)
    }

    /// The live ledger sums: the stripes' nanoseconds added up, then
    /// divided once.
    #[must_use]
    pub fn ledger(&self) -> LedgerSnapshot {
        let mut reads = 0;
        let mut nanos = [0u64; SUMS];
        for stripe in self.ledger.iter() {
            reads += stripe.reads.load(Ordering::Relaxed);
            for (sum, cell) in nanos.iter_mut().zip(&stripe.nanos) {
                *sum += cell.load(Ordering::Relaxed);
            }
        }
        let pread_us = |class: ReadClass| nanos[PREAD + class as usize] / 1_000;
        LedgerSnapshot {
            reads,
            read_wall_us: nanos[WALL] / 1_000,
            fast_pread_us: pread_us(ReadClass::Fast),
            pfs_cold_pread_us: pread_us(ReadClass::PfsCold),
            lane_sat_pread_us: pread_us(ReadClass::LaneSaturated),
            staged_pread_us: pread_us(ReadClass::Staged),
            prefetch_lag_pread_us: pread_us(ReadClass::PrefetchLag),
            peer_bound_pread_us: pread_us(ReadClass::PeerBound),
            degraded_pread_us: pread_us(ReadClass::DegradedFallback),
            lock_queue_us: nanos[LOCK_QUEUE] / 1_000,
            copy_wait_us: nanos[COPY_WAIT] / 1_000,
        }
    }

    /// `(tracked, untracked_reads)` without walking the records — cheap
    /// enough for every Prometheus scrape.
    #[must_use]
    pub fn snapshot_counts(&self) -> (u64, u64) {
        (
            self.tracked.load(Ordering::Relaxed),
            self.untracked_reads.load(Ordering::Relaxed),
        )
    }

    /// Every tracked file in one serializable snapshot. Files are sorted
    /// by access count (descending), then name, so the head of the list
    /// is the hot set.
    #[must_use]
    pub fn snapshot(&self) -> ProfilerSnapshot {
        let mut files: Vec<FileProfileSnapshot> = self
            .files
            .ids()
            .take(self.max_files)
            .filter_map(|id| {
                Some(FileProfileSnapshot {
                    profile: self.profile_id(id)?,
                    file: self.files.name_of(id)?.to_string(),
                })
            })
            .collect();
        files.sort_by(|a, b| {
            b.profile
                .accesses
                .cmp(&a.profile.accesses)
                .then_with(|| a.file.cmp(&b.file))
        });
        let (tracked, untracked_reads) = self.snapshot_counts();
        ProfilerSnapshot {
            tracked,
            untracked_reads,
            ledger: self.ledger(),
            files,
        }
    }
}

/// One named profile inside a [`ProfilerSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FileProfileSnapshot {
    /// Logical file name.
    pub file: String,
    /// The record.
    #[serde(flatten)]
    pub profile: FileProfile,
}

/// Serializable profiler state — the `profiler` section of the observe
/// snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfilerSnapshot {
    /// Distinct files tracked.
    pub tracked: u64,
    /// Reads of files past the tracking bound (global tally only).
    pub untracked_reads: u64,
    /// The time-lost ledger sums.
    pub ledger: LedgerSnapshot,
    /// Per-file records, hottest first.
    pub files: Vec<FileProfileSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_class_of_takes_the_first_fact_that_holds() {
        use ReadClass::*;
        // (degraded, on_source, staged, planned, copying) -> class
        let rows = [
            ((false, false, false, false, false), Fast),
            // A local hit stays fast whatever the plan or a stale copy says.
            ((false, false, false, true, true), Fast),
            // Degraded wins over everything: the bytes came from below the
            // tier the file lives on.
            ((true, true, false, false, false), DegradedFallback),
            ((true, true, true, true, true), DegradedFallback),
            ((false, true, true, false, true), Staged),
            ((false, true, true, true, true), Staged),
            ((false, true, false, true, false), PrefetchLag),
            ((false, true, false, true, true), PrefetchLag),
            ((false, true, false, false, true), LaneSaturated),
            ((false, true, false, false, false), PfsCold),
        ];
        for ((degraded, on_source, staged, planned, copying), want) in rows {
            assert_eq!(
                ReadClass::of(degraded, on_source, staged, planned, copying),
                want,
                "{:?}",
                (degraded, on_source, staged, planned, copying)
            );
        }
    }

    fn t(wall: u64, pread: u64) -> ReadTiming {
        ReadTiming {
            wall_us: wall,
            pread_us: pread,
            lock_queue_us: 0,
            copy_wait_us: 0,
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = AccessProfiler::new(false, 2, 16);
        p.record_read("a", 0, 10, ReadClass::Fast, false, t(5, 5), 100);
        p.record_prefetch_staged("a", 10, 100);
        let s = p.snapshot();
        assert_eq!(s.tracked, 0);
        assert_eq!(s.ledger.reads, 0);
        assert!(s.files.is_empty());
    }

    #[test]
    fn ewma_tracks_gaps_and_stays_in_range() {
        let p = AccessProfiler::new(true, 2, 16);
        // Gaps: 100, 200, 50.
        for t_us in [1_000u64, 1_100, 1_300, 1_350] {
            p.record_read("f", 0, 1, ReadClass::Fast, false, t(1, 1), t_us);
        }
        let s = p.snapshot();
        let f = &s.files[0];
        assert_eq!(f.profile.accesses, 4);
        assert_eq!(f.profile.first_us, 1_000);
        assert_eq!(f.profile.last_us, 1_350);
        assert!(
            f.profile.ewma_gap_us >= 50.0 && f.profile.ewma_gap_us <= 200.0,
            "ewma {} outside [min,max] gap",
            f.profile.ewma_gap_us
        );
    }

    #[test]
    fn bound_spills_to_untracked_and_ledger_keeps_counting() {
        let p = AccessProfiler::new(true, 1, 2);
        for i in 0..5 {
            p.record_read(
                &format!("f{i}"),
                0,
                1,
                ReadClass::PfsCold,
                false,
                t(10, 10),
                i * 100,
            );
        }
        let s = p.snapshot();
        assert_eq!(s.tracked, 2);
        assert_eq!(s.untracked_reads, 3);
        assert_eq!(s.ledger.reads, 5);
        assert_eq!(s.ledger.pfs_cold_pread_us, 50);
        assert_eq!(s.ledger.read_wall_us, 50);
    }

    #[test]
    fn classes_route_to_their_ledger_bucket_and_miss_tallies() {
        let p = AccessProfiler::new(true, 2, 16);
        p.record_read("f", 1, 4, ReadClass::PfsCold, false, t(10, 7), 0);
        p.record_read("f", 1, 4, ReadClass::LaneSaturated, false, t(10, 6), 10);
        p.record_read("f", 1, 4, ReadClass::PrefetchLag, false, t(10, 5), 20);
        p.record_read("f", 0, 4, ReadClass::Fast, true, t(10, 4), 30);
        let s = p.snapshot();
        assert_eq!(s.ledger.pfs_cold_pread_us, 7);
        assert_eq!(s.ledger.lane_sat_pread_us, 6);
        assert_eq!(s.ledger.prefetch_lag_pread_us, 5);
        assert_eq!(s.ledger.fast_pread_us, 4);
        let f = &s.files[0].profile;
        assert_eq!(f.demand_misses, 3);
        assert_eq!(f.prefetch_hits, 1);
        assert_eq!(f.bytes_by_tier, vec![4, 12]);
    }

    #[test]
    fn wasted_prefetch_signature() {
        let p = AccessProfiler::new(true, 2, 16);
        p.record_prefetch_staged("wasted", 1_024, 500);
        p.record_prefetch_staged("used", 2_048, 600);
        p.record_read("used", 0, 100, ReadClass::Fast, true, t(1, 1), 700);
        let s = p.snapshot();
        let find = |name: &str| {
            s.files
                .iter()
                .find(|f| f.file == name)
                .map(|f| f.profile.clone())
                .unwrap()
        };
        let wasted = find("wasted");
        assert_eq!(wasted.prefetched_bytes, 1_024);
        assert_eq!(wasted.reads_after_prefetch, 0);
        let used = find("used");
        assert_eq!(used.prefetched_bytes, 2_048);
        assert_eq!(used.reads_after_prefetch, 1);
    }

    /// A profiler over a namespace of `names`, and their ids.
    fn shared(names: &[&str], max_files: usize) -> (AccessProfiler, Vec<FileId>) {
        let files = Arc::new(MetadataContainer::default());
        let ids = names
            .iter()
            .map(|n| {
                files.register(n, 1, 1);
                files.resolve(n).unwrap()
            })
            .collect();
        (
            AccessProfiler::with_namespace(true, 2, max_files, files),
            ids,
        )
    }

    #[test]
    fn untimed_reads_count_and_timed_ones_spread_their_gap() {
        let (p, ids) = shared(&["f"], 16);
        let timed = |accesses, t_us, weight| TimedRead {
            wall_ns: 700,
            pread_ns: 400,
            lock_queue_ns: 200,
            copy_wait_ns: 100,
            weight,
            t_us,
            accesses,
        };
        // The namespace counts the accesses, as the read path's lookup does.
        let read = |timed: Option<TimedRead>| {
            p.files.count_read(ids[0]);
            p.record_read_id(ids[0], 0, 4096, ReadClass::Fast, false, timed.as_ref());
        };
        read(Some(timed(1, 1_000, 1)));
        (0..15).for_each(|_| read(None));
        // Sixteen accesses later, 1.6 ms on: 100 us an access.
        read(Some(timed(17, 2_600, 16)));
        let s = p.snapshot();
        let f = &s.files[0].profile;
        assert_eq!(f.accesses, 17);
        assert_eq!(f.bytes_by_tier, vec![17 * 4096, 0]);
        assert_eq!((f.first_us, f.last_us), (1_000, 2_600));
        assert!((f.ewma_gap_us - 100.0).abs() < 1e-9, "{}", f.ewma_gap_us);
        // 17 reads; 17 reads' worth of sub-microsecond phases, summed in
        // nanoseconds and divided once.
        assert_eq!(s.ledger.reads, 17);
        assert_eq!(s.ledger.read_wall_us, 17 * 700 / 1_000);
        assert_eq!(s.ledger.fast_pread_us, 17 * 400 / 1_000);
        assert_eq!(s.ledger.lock_queue_us, 17 * 200 / 1_000);
        assert_eq!(s.ledger.copy_wait_us, 17 * 100 / 1_000);
    }

    #[test]
    fn ids_past_the_bound_only_bump_untracked_reads() {
        let (p, ids) = shared(&["a", "b", "c", "d"], 2);
        for id in &ids {
            p.files.count_read(*id);
            p.record_read_id(*id, 1, 8, ReadClass::PfsCold, false, None);
            p.record_prefetch_staged_id(*id, 8, 5);
        }
        let s = p.snapshot();
        assert_eq!((s.tracked, s.untracked_reads), (2, 2));
        assert_eq!(s.ledger.reads, 4);
        let names: Vec<&str> = s.files.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(p.profile_id(ids[2]).is_none() && p.profile("d").is_none());
        assert_eq!(p.profile("b").unwrap().demand_misses, 1);
    }

    #[test]
    fn ledger_delta_is_saturating() {
        let a = LedgerSnapshot {
            reads: 10,
            read_wall_us: 100,
            ..LedgerSnapshot::default()
        };
        let b = LedgerSnapshot {
            reads: 15,
            read_wall_us: 180,
            ..LedgerSnapshot::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.reads, 5);
        assert_eq!(d.read_wall_us, 80);
        let z = a.delta(&b);
        assert_eq!(z.reads, 0);
        assert_eq!(z.read_wall_us, 0);
    }
}
