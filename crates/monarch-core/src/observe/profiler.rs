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
//! every read and are exact. A plain hit writes none in this slab: the
//! ledger's `reads` is its thread's tally in [`Stats`], the access count and
//! bytes per tier are the namespace's (its thread's count cell, folded with
//! the file's counters line when read), and whether the file was ever
//! prefetched is a bit of its placement word. Its
//! **times** — its four phases, the file's last-access instant and
//! inter-access gap — are recorded on *timed* reads only, each standing for
//! `weight` reads (see [`ReadTiming`]): every read that is not a plain local
//! hit, and one local hit in
//! [`TIMED_HIT_PERIOD`](crate::telemetry::TIMED_HIT_PERIOD).
//!
//! A timed read's phases are written once, into the [`StallProfile`] the
//! profiler owns. Beside the per-file records the profiler keeps the
//! **time-lost ledger**: the read count, the pread time split by
//! [`ReadClass`] — the one thing the profile cannot know — and the wall,
//! lock-queue and copy-wait sums, which are read off the profile's
//! histograms when the ledger is read. The ledger is what the epoch report
//! rolls up into the pfs-bound / copy-lane-saturated / prefetch-lag /
//! lock-or-queue / compute-bound attribution (see
//! [`crate::observe::report`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::hierarchy::TierId;
use crate::lifecycle::Served;
use crate::metadata::{chunk_len, locate, FileId, Mark, MetadataContainer, ReadCount, CHUNKS};
use crate::stats::{Stats, ThreadTally};
use crate::stripe::Striped;
use crate::telemetry::StallProfile;

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
    /// Classify a read from `how` it was served and what the read path
    /// knows when the bytes are back. The first fact that holds decides:
    /// a peer served it; the read was `degraded` (rerouted below the tier
    /// the file lives on); the file does not live `on_source`, so a local
    /// tier served it; it took every byte from its copy's install staging;
    /// the file is `planned` (covered by the access plan); its copy is in
    /// flight (`copying`). A read of the source that none of them explains
    /// is a cold miss.
    #[must_use]
    pub fn of(how: Served, degraded: bool, on_source: bool, planned: bool, copying: bool) -> Self {
        if how == Served::Peer {
            ReadClass::PeerBound
        } else if degraded {
            ReadClass::DegradedFallback
        } else if !on_source {
            ReadClass::Fast
        } else if how == (Served::Staged { fetched: 0 }) {
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

/// What the clock adds to the record of a read that carried it: its four
/// consecutive phases, in nanoseconds, which sum to its wall time, and how
/// many reads it stands for. Both clocks take them from one chain of marks
/// ([`ReadTiming::between`]): a warm hit's are all below a microsecond,
/// and survive into the ledger because the stall profile sums nanoseconds
/// and the ledger divides once, when it is read. In the simulator a read's
/// virtual time is all pread (its lookups are instantaneous in virtual
/// time).
#[derive(Debug, Clone, Copy)]
pub struct ReadTiming {
    /// Entry to the end of the namespace lookup.
    pub lock_wait_ns: u64,
    /// Access bookkeeping until the serving tier is resolved.
    pub queue_wait_ns: u64,
    /// The backend pread — or the peer's fetch, or the wait for and copy
    /// out of an in-flight copy's staging.
    pub pread_ns: u64,
    /// Pread to return: the read's own bookkeeping (the plan cursor).
    pub copy_wait_ns: u64,
    /// How many reads this one stands for in the time sums: 1, or the
    /// sampling period when it is the one local hit in so many.
    pub weight: u64,
}

impl Default for ReadTiming {
    /// A read that took no time, standing for itself.
    fn default() -> Self {
        Self {
            lock_wait_ns: 0,
            queue_wait_ns: 0,
            pread_ns: 0,
            copy_wait_ns: 0,
            weight: 1,
        }
    }
}

impl ReadTiming {
    /// A read that began at `marks[0]`, had looked its file up by
    /// `marks[1]`, had its serving tier by `marks[2]`, its bytes by
    /// `marks[3]` and returned at `marks[4]` — nanoseconds on one clock —
    /// standing for `weight` reads. Differences saturate, so an
    /// out-of-order pair counts 0.
    #[must_use]
    pub fn between(marks: [u64; 5], weight: u64) -> Self {
        let [lock_wait_ns, queue_wait_ns, pread_ns, copy_wait_ns] =
            std::array::from_fn(|i| marks[i + 1].saturating_sub(marks[i]));
        Self {
            lock_wait_ns,
            queue_wait_ns,
            pread_ns,
            copy_wait_ns,
            weight,
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

/// One file's cells, written by a read that is not a plain hit and by a
/// prefetch staging. Aligned so that two files never share a cache line.
#[derive(Default)]
#[repr(align(64))]
struct Record {
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
    /// Fold one timed read, ended at `t_us` with the file's access count
    /// at `accesses`, into the access rhythm. Two threads timing the same
    /// file at once may interleave their swaps; each cell still holds a
    /// value one of them observed, which is all an estimate needs.
    fn time(&self, t_us: u64, accesses: u64) {
        let nth = self.timed.fetch_add(1, Ordering::Relaxed) + 1;
        let prev_us = self.last_us.swap(t_us, Ordering::Relaxed);
        let prev_at = self.timed_at.swap(accesses, Ordering::Relaxed);
        if nth == 1 {
            self.first_us.store(t_us, Ordering::Relaxed);
            return;
        }
        let reads = accesses.saturating_sub(prev_at).max(1);
        let gap = t_us.saturating_sub(prev_us) as f64 / reads as f64;
        let ewma = if nth == 2 {
            gap
        } else {
            let old = f64::from_bits(self.ewma_gap_us.load(Ordering::Relaxed));
            EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * old
        };
        self.ewma_gap_us.store(ewma.to_bits(), Ordering::Relaxed);
    }
}

/// How many [`ReadClass`]es there are: one pread sum each, in declaration
/// order.
const CLASSES: usize = ReadClass::DegradedFallback as usize + 1;

/// One stripe of the time-lost ledger (see the `stripe` module): the
/// weighted pread nanoseconds of the timed reads, per class. A reader adds
/// only to its own copy and never locks; [`AccessProfiler::ledger`] sums
/// the copies.
type LedgerAccum = [AtomicU64; CLASSES];

/// Serializable ledger sums — the `ledger` section of the observe
/// snapshot. All monotonic, so per-epoch attribution is a
/// [`LedgerSnapshot::delta`] between two snapshots. `read_wall_us`,
/// `lock_queue_us` and `copy_wait_us` are the stall profile's phase sums,
/// read off it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerSnapshot {
    /// Profiled reads.
    pub reads: u64,
    /// Total read wall time (entry to exit; the four phases), µs.
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
    /// Post-pread bookkeeping time (the read's counters, the plan
    /// cursor), µs.
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

/// Bounded per-file access records, the stall profile of the timed reads,
/// and the time-lost ledger.
pub struct AccessProfiler {
    enabled: bool,
    tiers: usize,
    max_files: usize,
    /// The namespace whose ids index the records: it names them, and its
    /// per-file counts *are* their access count and bytes per tier.
    files: Arc<MetadataContainer>,
    /// The instance's counters, whose tallies hold the ledger's `reads`.
    stats: Arc<Stats>,
    chunks: [OnceLock<Box<[Record]>>; CHUNKS],
    untracked_reads: AtomicU64,
    ledger: Striped<LedgerAccum>,
    /// Every timed read's phases; the ledger's time sums are its sums.
    stall: StallProfile,
}

impl std::fmt::Debug for AccessProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessProfiler")
            .field("enabled", &self.enabled)
            .field("max_files", &self.max_files)
            .finish()
    }
}

impl AccessProfiler {
    /// A profiler over `tiers` tier ids with a namespace and counters of
    /// its own, tracking the first `max_files` distinct names it is told
    /// about — for callers that know files by name only.
    /// Disabled profilers take one branch per call and record nothing.
    #[must_use]
    pub fn new(enabled: bool, tiers: usize, max_files: usize) -> Self {
        let stats = Arc::new(Stats::new(tiers));
        Self::with_namespace(enabled, tiers, max_files, Arc::default(), stats)
    }

    /// A profiler over the ids of `files`, the namespace of the instance
    /// it observes, counting its reads in the instance's `stats`; ids at
    /// or past `max_files` go untracked.
    #[must_use]
    pub fn with_namespace(
        enabled: bool,
        tiers: usize,
        max_files: usize,
        files: Arc<MetadataContainer>,
        stats: Arc<Stats>,
    ) -> Self {
        Self {
            enabled,
            tiers,
            max_files,
            files,
            stats,
            chunks: [const { OnceLock::new() }; CHUNKS],
            untracked_reads: AtomicU64::new(0),
            ledger: Striped::new(),
            stall: StallProfile::default(),
        }
    }

    /// Whether the profiler records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The stall profile of the reads recorded here: four phase histograms
    /// and the degraded reads' wall time.
    #[must_use]
    pub fn stall_profile(&self) -> &StallProfile {
        &self.stall
    }

    /// The record of `id`, if `id` is within the bound and its chunk
    /// exists (`touch` creates it).
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
        Some(&chunk[offset])
    }

    /// The id `file` is recorded under: its id in the namespace, interned
    /// on first sight while the bound has room.
    fn resolve(&self, file: &str) -> Option<FileId> {
        self.files
            .find(file)
            .or_else(|| (self.files.ids().len() < self.max_files).then(|| self.files.intern(file)))
    }

    /// Record one foreground read of a file the caller resolved, through
    /// the handles the read already holds: its thread's tally and the count
    /// its lookup took (`None`: untracked). The ledger's and the file's
    /// counts always; when the read carried the clock, its `timing` — into
    /// the stall profile, and its pread by `class` into the ledger — and its
    /// end, `t_us` on the registry clock, into the file's access rhythm.
    /// The one call through which a read's time is recorded.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_counted(
        &self,
        tally: &ThreadTally<'_>,
        read: Option<(FileId, &ReadCount<'_>)>,
        tier: TierId,
        bytes: u64,
        class: ReadClass,
        prefetch_hit: bool,
        timing: Option<&ReadTiming>,
        t_us: u64,
    ) {
        if !self.enabled {
            return;
        }
        tally.profiled_read(timing.is_some());
        if let Some(t) = timing {
            self.stall
                .record_timing(t, class == ReadClass::DegradedFallback);
            self.ledger
                .local(LedgerAccum::default)
                .add(|l| &l[class as usize], t.pread_ns.saturating_mul(t.weight));
        }
        let Some((id, count)) = read.filter(|(id, _)| id.index() < self.max_files) else {
            self.untracked_reads.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let after_prefetch = count.add_bytes(tier, bytes);
        let miss = class != ReadClass::Fast;
        if !(miss || prefetch_hit || after_prefetch || timing.is_some()) {
            // A plain hit: nothing of it is this slab's.
            return;
        }
        let record = self.record_of(id, true).expect("a touched chunk exists");
        if miss {
            record.demand_misses.fetch_add(1, Ordering::Relaxed);
        }
        if prefetch_hit {
            record.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        }
        if after_prefetch {
            record.reads_after_prefetch.fetch_add(1, Ordering::Relaxed);
        }
        if timing.is_some() {
            record.time(t_us, self.files.reads_of(id));
        }
    }

    /// [`Self::record_counted`] by name, for a read nothing else counted:
    /// resolves `file`, counts the access, and records the read as timed
    /// with the caller's clock.
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
        let count = id.map(|id| self.files.counter(id, tier));
        if let Some(count) = &count {
            count.add_read();
        }
        let read = id.zip(count.as_ref());
        let (tally, timing) = (self.stats.thread_tally(), Some(&timing));
        self.record_counted(&tally, read, tier, bytes, class, prefetch_hit, timing, t_us);
    }

    /// Record that the prefetcher finished staging `bytes` of the file
    /// onto a local tier. Fed by [`crate::lifecycle::Lifecycle::placed`]
    /// for a prefetch-lane copy; a profile whose `prefetched_bytes` stays
    /// unmatched by any later read is wasted prefetch work.
    pub fn record_prefetch_staged_id(&self, id: FileId, bytes: u64, t_us: u64) {
        if !self.enabled {
            return;
        }
        if let Some(record) = self.record_of(id, true) {
            record.prefetched_bytes.fetch_add(bytes, Ordering::Relaxed);
            record.staged_us.store(t_us, Ordering::Relaxed);
            self.files.set_mark(id, Mark::Prefetched, true);
        }
    }

    /// One file's profile — the policy engine's
    /// [`crate::policy::FeatureSource`] path. `None` for files the
    /// profiler does not track — never read nor prefetched, or past the
    /// bound — and for a disabled profiler.
    #[must_use]
    pub fn profile_id(&self, id: FileId) -> Option<FileProfile> {
        let accesses = self.files.reads_of(id);
        let seen = accesses > 0 || self.files.marked(id, Mark::Prefetched);
        if !self.enabled || id.index() >= self.max_files || !seen {
            return None;
        }
        // A file only ever hit has no record yet: its cells read 0.
        let record = self.record_of(id, false);
        let load =
            |cell: fn(&Record) -> &AtomicU64| record.map_or(0, |r| cell(r).load(Ordering::Relaxed));
        Some(FileProfile {
            accesses,
            first_us: load(|r| &r.first_us),
            last_us: load(|r| &r.last_us),
            ewma_gap_us: f64::from_bits(load(|r| &r.ewma_gap_us)),
            bytes_by_tier: self.files.bytes_of(id, self.tiers),
            prefetch_hits: load(|r| &r.prefetch_hits),
            demand_misses: load(|r| &r.demand_misses),
            prefetched_bytes: load(|r| &r.prefetched_bytes),
            staged_us: load(|r| &r.staged_us),
            reads_after_prefetch: load(|r| &r.reads_after_prefetch),
        })
    }

    /// [`Self::profile_id`] by name.
    #[must_use]
    pub fn profile(&self, file: &str) -> Option<FileProfile> {
        self.profile_id(self.files.find(file)?)
    }

    /// The live ledger sums: the read count folded from the tallies, the
    /// stripes' pread nanoseconds added up, the phase sums read off the
    /// stall profile, each divided once.
    #[must_use]
    pub fn ledger(&self) -> LedgerSnapshot {
        let reads = self.stats.profiled_reads();
        let mut pread = [0u64; CLASSES];
        for stripe in self.ledger.iter() {
            for (sum, cell) in pread.iter_mut().zip(stripe) {
                *sum += cell.load(Ordering::Relaxed);
            }
        }
        let pread_us = |class: ReadClass| pread[class as usize] / 1_000;
        let s = &self.stall;
        let lock_queue = s.lock_wait.sum().wrapping_add(s.queue_wait.sum());
        let copy_wait = s.copy_wait.sum();
        let wall = lock_queue
            .wrapping_add(s.driver_pread.sum())
            .wrapping_add(copy_wait);
        LedgerSnapshot {
            reads,
            read_wall_us: wall / 1_000,
            fast_pread_us: pread_us(ReadClass::Fast),
            pfs_cold_pread_us: pread_us(ReadClass::PfsCold),
            lane_sat_pread_us: pread_us(ReadClass::LaneSaturated),
            staged_pread_us: pread_us(ReadClass::Staged),
            prefetch_lag_pread_us: pread_us(ReadClass::PrefetchLag),
            peer_bound_pread_us: pread_us(ReadClass::PeerBound),
            degraded_pread_us: pread_us(ReadClass::DegradedFallback),
            lock_queue_us: lock_queue / 1_000,
            copy_wait_us: copy_wait / 1_000,
        }
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
        ProfilerSnapshot {
            tracked: files.len() as u64,
            untracked_reads: self.untracked_reads.load(Ordering::Relaxed),
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
    /// Distinct files tracked: read or prefetched, within the bound.
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
        let (tier, staged) = (Served::Tier, Served::Staged { fetched: 0 });
        // A read that fetched part of its range itself is a read of the
        // source like any other.
        let fetched = Served::Staged { fetched: 1 };
        // (how, degraded, on_source, planned, copying) -> class
        let rows = [
            ((tier, false, false, false, false), Fast),
            // A local hit stays fast whatever the plan or a stale copy says.
            ((tier, false, false, true, true), Fast),
            // Degraded wins over everything a tier did: the bytes came from
            // below the tier the file lives on.
            ((tier, true, true, false, false), DegradedFallback),
            ((staged, true, true, true, true), DegradedFallback),
            ((staged, false, true, false, true), Staged),
            ((staged, false, true, true, true), Staged),
            ((tier, false, true, true, false), PrefetchLag),
            ((fetched, false, true, true, true), PrefetchLag),
            ((fetched, false, true, false, true), LaneSaturated),
            ((tier, false, true, false, false), PfsCold),
            // A peer is not a tier of the hierarchy.
            ((Served::Peer, false, true, true, false), PeerBound),
        ];
        for ((how, degraded, on_source, planned, copying), want) in rows {
            assert_eq!(
                ReadClass::of(how, degraded, on_source, planned, copying),
                want,
                "{:?}",
                (how, degraded, on_source, planned, copying)
            );
        }
    }

    /// A read of `wall` µs, `pread` of them in the pread and the rest
    /// after it.
    fn t(wall: u64, pread: u64) -> ReadTiming {
        ReadTiming {
            pread_ns: pread * 1_000,
            copy_wait_ns: (wall - pread) * 1_000,
            ..ReadTiming::default()
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let files = Arc::new(MetadataContainer::default());
        files.register("a", 1, 1);
        let stats = Arc::new(Stats::new(2));
        let p = AccessProfiler::with_namespace(false, 2, 16, Arc::clone(&files), stats);
        p.record_read("a", 0, 10, ReadClass::Fast, false, t(5, 5), 100);
        p.record_prefetch_staged_id(files.resolve("a").unwrap(), 10, 100);
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
        let (p, ids) = shared(&["wasted", "used"], 16);
        p.record_prefetch_staged_id(ids[0], 1_024, 500);
        p.record_prefetch_staged_id(ids[1], 2_048, 600);
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
        let stats = Arc::new(Stats::new(2));
        (
            AccessProfiler::with_namespace(true, 2, max_files, files, stats),
            ids,
        )
    }

    #[test]
    fn untimed_reads_count_and_timed_ones_spread_their_gap() {
        let (p, ids) = shared(&["f"], 16);
        let timed = |weight| ReadTiming {
            lock_wait_ns: 150,
            queue_wait_ns: 50,
            pread_ns: 400,
            copy_wait_ns: 100,
            weight,
        };
        // The namespace counts the accesses, as the read path's lookup does.
        let read = |timing: Option<ReadTiming>, t_us| {
            let count = p.files.counter(ids[0], 0);
            count.add_read();
            let (tally, class) = (p.stats.thread_tally(), ReadClass::Fast);
            let read = Some((ids[0], &count));
            p.record_counted(&tally, read, 0, 4096, class, false, timing.as_ref(), t_us);
        };
        read(Some(timed(1)), 1_000);
        (0..15).for_each(|_| read(None, 0));
        // Sixteen accesses later, 1.6 ms on: 100 us an access.
        read(Some(timed(16)), 2_600);
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
        // Read off the stall profile, which holds the same 17 reads.
        let stall = p.stall_profile().snapshot();
        assert_eq!(stall.lock_wait.count, 17);
        assert_eq!(stall.driver_pread.sum_nanos, 17 * 400);
    }

    #[test]
    fn ids_past_the_bound_only_bump_untracked_reads() {
        let (p, ids) = shared(&["a", "b", "c", "d"], 2);
        for id in &ids {
            let count = p.files.counter(*id, 1);
            count.add_read();
            let (tally, class) = (p.stats.thread_tally(), ReadClass::PfsCold);
            p.record_counted(&tally, Some((*id, &count)), 1, 8, class, false, None, 0);
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
