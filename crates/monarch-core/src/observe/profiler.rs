//! The per-file access profiler: the longitudinal half of the telemetry
//! plane.
//!
//! Histograms and gauges answer "how is the system doing *right now*";
//! the [`AccessProfiler`] answers "what did the *workload* do": per file,
//! how often was it read, with what inter-access rhythm, from which tiers,
//! and did the prefetcher earn its keep on it. Records are sharded (16
//! ways, FxHash) so concurrent readers almost never contend, and bounded
//! (`max_files`) so a pathological namespace cannot grow the profiler
//! without limit — accesses past the bound are still tallied globally in
//! `untracked_reads`, they just lose per-file attribution.
//!
//! Alongside the per-file map the profiler keeps the **time-lost ledger**:
//! monotonic microsecond sums of read wall time split by [`ReadClass`].
//! The ledger is what the epoch report rolls up into the pfs-bound /
//! copy-lane-saturated / prefetch-lag / lock-or-queue / compute-bound
//! attribution (see [`crate::observe::report`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::hash::FxBuildHasher;
use crate::hierarchy::TierId;
use crate::stripe::Striped;

/// Shard count for the per-file map. A power of two so the shard pick is
/// a mask, matching the metadata container's sharding.
pub const SHARDS: usize = 16;

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
    /// flight: the copy lanes are behind the read front.
    LaneSaturated,
    /// Served out of the install staging of the file's in-flight copy —
    /// copied from what the copy had fetched, after waiting for the fetch
    /// that carried its bytes, or by fetching the copy's next range itself.
    /// Unlike `LaneSaturated`, the bytes crossed the PFS link once, for
    /// the copy and the read together.
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

/// One file's longitudinal record. Timestamps are registry-clock
/// microseconds (virtual micros in the simulator).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FileProfile {
    /// Foreground reads observed.
    pub accesses: u64,
    /// Timestamp of the first access (0 until one arrives).
    pub first_us: u64,
    /// Timestamp of the most recent access.
    pub last_us: u64,
    /// Exponentially weighted moving average of the inter-access gap —
    /// the "observed per-file access interval" ROADMAP item 3's learned
    /// placement wants as a feature. 0 until a second access arrives.
    pub ewma_gap_us: f64,
    /// Bytes served to the foreground per tier (index = tier id).
    pub bytes_by_tier: Vec<u64>,
    /// Reads of this file that the prefetcher staged in time.
    pub prefetch_hits: u64,
    /// Reads of this file served from the PFS (any non-`Fast` class).
    pub demand_misses: u64,
    /// Bytes the prefetcher staged for this file (0 = never prefetched).
    pub prefetched_bytes: u64,
    /// Registry-clock instant of the latest prefetch staging.
    pub staged_us: u64,
    /// Foreground reads that arrived *after* a prefetch staging — 0 with
    /// `prefetched_bytes > 0` is the signature of wasted prefetch work.
    pub reads_after_prefetch: u64,
}

impl FileProfile {
    fn new(tiers: usize) -> Self {
        Self {
            bytes_by_tier: vec![0; tiers],
            ..Self::default()
        }
    }

    fn touch(&mut self, tier: TierId, bytes: u64, class: ReadClass, prefetch_hit: bool, t_us: u64) {
        self.accesses += 1;
        if self.accesses == 1 {
            self.first_us = t_us;
        } else {
            let gap = t_us.saturating_sub(self.last_us) as f64;
            self.ewma_gap_us = if self.accesses == 2 {
                gap
            } else {
                EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * self.ewma_gap_us
            };
        }
        self.last_us = t_us;
        if let Some(b) = self.bytes_by_tier.get_mut(tier) {
            *b += bytes;
        }
        if class != ReadClass::Fast {
            self.demand_misses += 1;
        }
        if prefetch_hit {
            self.prefetch_hits += 1;
        }
        if self.prefetched_bytes > 0 {
            self.reads_after_prefetch += 1;
        }
    }
}

/// Monotonic microsecond sums behind the time-lost ledger. All atomics:
/// the read path adds with relaxed ordering and never locks. The profiler
/// keeps one per stripe (see the `stripe` module), so a reader adds only to
/// its own copy; [`AccessProfiler::ledger`] sums them.
#[derive(Debug, Default)]
pub struct LedgerAccum {
    reads: AtomicU64,
    read_wall_us: AtomicU64,
    fast_pread_us: AtomicU64,
    pfs_cold_pread_us: AtomicU64,
    lane_sat_pread_us: AtomicU64,
    staged_pread_us: AtomicU64,
    prefetch_lag_pread_us: AtomicU64,
    peer_bound_pread_us: AtomicU64,
    degraded_pread_us: AtomicU64,
    lock_queue_us: AtomicU64,
    copy_wait_us: AtomicU64,
}

impl LedgerAccum {
    fn add(&self, class: ReadClass, t: &ReadTiming) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_wall_us.fetch_add(t.wall_us, Ordering::Relaxed);
        self.lock_queue_us
            .fetch_add(t.lock_queue_us, Ordering::Relaxed);
        self.copy_wait_us
            .fetch_add(t.copy_wait_us, Ordering::Relaxed);
        let bucket = match class {
            ReadClass::Fast => &self.fast_pread_us,
            ReadClass::PfsCold => &self.pfs_cold_pread_us,
            ReadClass::LaneSaturated => &self.lane_sat_pread_us,
            ReadClass::Staged => &self.staged_pread_us,
            ReadClass::PrefetchLag => &self.prefetch_lag_pread_us,
            ReadClass::PeerBound => &self.peer_bound_pread_us,
            ReadClass::DegradedFallback => &self.degraded_pread_us,
        };
        bucket.fetch_add(t.pread_us, Ordering::Relaxed);
    }

    /// Point-in-time copy of the sums.
    #[must_use]
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            read_wall_us: self.read_wall_us.load(Ordering::Relaxed),
            fast_pread_us: self.fast_pread_us.load(Ordering::Relaxed),
            pfs_cold_pread_us: self.pfs_cold_pread_us.load(Ordering::Relaxed),
            lane_sat_pread_us: self.lane_sat_pread_us.load(Ordering::Relaxed),
            staged_pread_us: self.staged_pread_us.load(Ordering::Relaxed),
            prefetch_lag_pread_us: self.prefetch_lag_pread_us.load(Ordering::Relaxed),
            peer_bound_pread_us: self.peer_bound_pread_us.load(Ordering::Relaxed),
            degraded_pread_us: self.degraded_pread_us.load(Ordering::Relaxed),
            lock_queue_us: self.lock_queue_us.load(Ordering::Relaxed),
            copy_wait_us: self.copy_wait_us.load(Ordering::Relaxed),
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
    /// Field-wise sum (folds the per-stripe ledgers into one).
    #[must_use]
    fn plus(self, o: LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            reads: self.reads + o.reads,
            read_wall_us: self.read_wall_us + o.read_wall_us,
            fast_pread_us: self.fast_pread_us + o.fast_pread_us,
            pfs_cold_pread_us: self.pfs_cold_pread_us + o.pfs_cold_pread_us,
            lane_sat_pread_us: self.lane_sat_pread_us + o.lane_sat_pread_us,
            staged_pread_us: self.staged_pread_us + o.staged_pread_us,
            prefetch_lag_pread_us: self.prefetch_lag_pread_us + o.prefetch_lag_pread_us,
            peer_bound_pread_us: self.peer_bound_pread_us + o.peer_bound_pread_us,
            degraded_pread_us: self.degraded_pread_us + o.degraded_pread_us,
            lock_queue_us: self.lock_queue_us + o.lock_queue_us,
            copy_wait_us: self.copy_wait_us + o.copy_wait_us,
        }
    }

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

/// Sharded, bounded per-file access records plus the time-lost ledger.
pub struct AccessProfiler {
    enabled: bool,
    tiers: usize,
    max_files: usize,
    shards: Vec<Mutex<HashMap<String, FileProfile, FxBuildHasher>>>,
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
    /// A profiler over `tiers` tier ids, tracking at most `max_files`
    /// distinct names. Disabled profilers take one branch per call and
    /// record nothing.
    #[must_use]
    pub fn new(enabled: bool, tiers: usize, max_files: usize) -> Self {
        Self {
            enabled,
            tiers,
            max_files,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
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

    fn shard_of(&self, file: &str) -> usize {
        use std::hash::{BuildHasher, Hasher};
        let mut h = FxBuildHasher::default().build_hasher();
        h.write(file.as_bytes());
        (h.finish() as usize) & (SHARDS - 1)
    }

    /// Record one foreground read: ledger sums always, the per-file
    /// record if the file is tracked (or the bound still has room).
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
        self.ledger.local(LedgerAccum::default).add(class, &timing);
        let mut shard = self.shards[self.shard_of(file)].lock();
        match shard.get_mut(file) {
            Some(p) => p.touch(tier, bytes, class, prefetch_hit, t_us),
            None => {
                // The bound is checked against a cross-shard counter, so
                // it is approximate under contention (within SHARDS of
                // max) — never unbounded.
                if self.tracked.load(Ordering::Relaxed) >= self.max_files as u64 {
                    self.untracked_reads.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                self.tracked.fetch_add(1, Ordering::Relaxed);
                let mut p = FileProfile::new(self.tiers);
                p.touch(tier, bytes, class, prefetch_hit, t_us);
                shard.insert(file.to_string(), p);
            }
        }
    }

    /// Record that the prefetcher finished staging `bytes` of `file` onto
    /// a local tier. Fed from the transfer engine's prefetch-lane copy
    /// completion; a profile whose `prefetched_bytes` stays unmatched by
    /// any later read is wasted prefetch work.
    pub fn record_prefetch_staged(&self, file: &str, bytes: u64, t_us: u64) {
        if !self.enabled {
            return;
        }
        let mut shard = self.shards[self.shard_of(file)].lock();
        match shard.get_mut(file) {
            Some(p) => {
                p.prefetched_bytes += bytes;
                p.staged_us = t_us;
            }
            None => {
                if self.tracked.load(Ordering::Relaxed) >= self.max_files as u64 {
                    return;
                }
                self.tracked.fetch_add(1, Ordering::Relaxed);
                let mut p = FileProfile::new(self.tiers);
                p.prefetched_bytes = bytes;
                p.staged_us = t_us;
                shard.insert(file.to_string(), p);
            }
        }
    }

    /// One file's profile, cloned out of its shard — the policy engine's
    /// [`crate::policy::FeatureSource`] path. `None` for files the
    /// profiler never saw (or a disabled profiler).
    #[must_use]
    pub fn profile(&self, file: &str) -> Option<FileProfile> {
        if !self.enabled {
            return None;
        }
        self.shards[self.shard_of(file)].lock().get(file).cloned()
    }

    /// The live ledger sums.
    #[must_use]
    pub fn ledger(&self) -> LedgerSnapshot {
        self.ledger
            .iter()
            .map(LedgerAccum::snapshot)
            .fold(LedgerSnapshot::default(), LedgerSnapshot::plus)
    }

    /// `(tracked, untracked_reads)` without merging the shards — cheap
    /// enough for every Prometheus scrape.
    #[must_use]
    pub fn snapshot_counts(&self) -> (u64, u64) {
        (
            self.tracked.load(Ordering::Relaxed),
            self.untracked_reads.load(Ordering::Relaxed),
        )
    }

    /// Merge every shard into one serializable snapshot. Files are sorted
    /// by access count (descending), then name, so the head of the list
    /// is the hot set.
    #[must_use]
    pub fn snapshot(&self) -> ProfilerSnapshot {
        let mut files: Vec<FileProfileSnapshot> = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock();
            files.extend(guard.iter().map(|(name, p)| FileProfileSnapshot {
                file: name.clone(),
                profile: p.clone(),
            }));
        }
        files.sort_by(|a, b| {
            b.profile
                .accesses
                .cmp(&a.profile.accesses)
                .then_with(|| a.file.cmp(&b.file))
        });
        ProfilerSnapshot {
            tracked: self.tracked.load(Ordering::Relaxed),
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
