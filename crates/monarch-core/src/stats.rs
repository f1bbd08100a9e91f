//! Middleware statistics: per-tier operation and byte counters.
//!
//! The paper's headline secondary metric is the number of I/O operations
//! submitted to the shared PFS; [`Stats`] counts reads/writes/bytes per
//! tier plus placement outcomes, all with relaxed atomics. The per-tier
//! read counters — the only ones a warm hit touches — are striped per
//! thread (see the `stripe` module) and summed by [`Stats::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::stripe::Striped;
use crate::TierId;

/// One tier's read counters (one copy per stripe).
#[derive(Debug, Default)]
struct ReadCounters {
    reads: AtomicU64,
    bytes_read: AtomicU64,
}

/// One tier's write-side counters (background copies only; not striped).
#[derive(Debug, Default)]
struct TierCounters {
    writes: AtomicU64,
    bytes_written: AtomicU64,
    removes: AtomicU64,
}

/// Aggregate middleware counters.
pub struct Stats {
    tiers: Vec<TierCounters>,
    /// Per-stripe read counters, index = tier id.
    reads: Striped<Vec<ReadCounters>>,
    copies_scheduled: AtomicU64,
    copies_completed: AtomicU64,
    copies_failed: AtomicU64,
    placement_skipped: AtomicU64,
    evictions: AtomicU64,
    removes: AtomicU64,
    prefetches_scheduled: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
    prefetch_promoted: AtomicU64,
    prefetch_canceled: AtomicU64,
    pool_join_failures: AtomicU64,
    copies_deadline_expired: AtomicU64,
    peer_hits: AtomicU64,
    peer_bytes: AtomicU64,
    peer_fallbacks: AtomicU64,
    remote_timeouts: AtomicU64,
    degraded_reads: AtomicU64,
    read_retries: AtomicU64,
    copy_retries: AtomicU64,
    copy_requeues: AtomicU64,
    tier_quarantines: AtomicU64,
    tier_recoveries: AtomicU64,
    enospc_evictions: AtomicU64,
    policy_denials: AtomicU64,
    peer_dead_skips: AtomicU64,
    staged_reads: AtomicU64,
    staged_bytes: AtomicU64,
}

impl std::fmt::Debug for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stats")
            .field("tiers", &self.tiers.len())
            .finish_non_exhaustive()
    }
}

impl Stats {
    /// Counters for a hierarchy with `tiers` levels.
    #[must_use]
    pub fn new(tiers: usize) -> Self {
        Self {
            tiers: (0..tiers).map(|_| TierCounters::default()).collect(),
            reads: Striped::new(),
            copies_scheduled: AtomicU64::new(0),
            copies_completed: AtomicU64::new(0),
            copies_failed: AtomicU64::new(0),
            placement_skipped: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            prefetches_scheduled: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            prefetch_promoted: AtomicU64::new(0),
            prefetch_canceled: AtomicU64::new(0),
            pool_join_failures: AtomicU64::new(0),
            copies_deadline_expired: AtomicU64::new(0),
            peer_hits: AtomicU64::new(0),
            peer_bytes: AtomicU64::new(0),
            peer_fallbacks: AtomicU64::new(0),
            remote_timeouts: AtomicU64::new(0),
            degraded_reads: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            copy_retries: AtomicU64::new(0),
            copy_requeues: AtomicU64::new(0),
            tier_quarantines: AtomicU64::new(0),
            tier_recoveries: AtomicU64::new(0),
            enospc_evictions: AtomicU64::new(0),
            policy_denials: AtomicU64::new(0),
            peer_dead_skips: AtomicU64::new(0),
            staged_reads: AtomicU64::new(0),
            staged_bytes: AtomicU64::new(0),
        }
    }

    /// Record a read of `bytes` served by `tier`.
    #[inline]
    pub fn record_read(&self, tier: TierId, bytes: u64) {
        let levels = self.tiers.len();
        let stripe = self
            .reads
            .local(|| (0..levels).map(|_| ReadCounters::default()).collect());
        let t = &stripe[tier];
        t.reads.fetch_add(1, Ordering::Relaxed);
        t.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a write of `bytes` to `tier`.
    #[inline]
    pub fn record_write(&self, tier: TierId, bytes: u64) {
        let t = &self.tiers[tier];
        t.writes.fetch_add(1, Ordering::Relaxed);
        t.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a file removal on `tier` for a non-eviction reason
    /// (failed-copy cleanup, teardown). Policy-driven evictions go through
    /// [`Stats::record_evict`] instead — conflating the two would miscount
    /// cleanup as cache thrashing.
    #[inline]
    pub fn record_remove(&self, tier: TierId) {
        self.tiers[tier].removes.fetch_add(1, Ordering::Relaxed);
        self.removes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a policy-driven eviction of a file from `tier`. Counts as
    /// both a removal (the file left the tier) and an eviction.
    #[inline]
    pub fn record_evict(&self, tier: TierId) {
        self.tiers[tier].removes.fetch_add(1, Ordering::Relaxed);
        self.removes.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// A background copy was scheduled.
    pub fn copy_scheduled(&self) {
        self.copies_scheduled.fetch_add(1, Ordering::Relaxed);
    }

    /// A background copy completed.
    pub fn copy_completed(&self) {
        self.copies_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A background copy failed (quota released, metadata reverted).
    pub fn copy_failed(&self) {
        self.copies_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Placement skipped because no local tier had room.
    pub fn placement_skip(&self) {
        self.placement_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// A prefetch copy was issued from an access plan (also counted in
    /// `copies_scheduled` — prefetches are ordinary background copies).
    pub fn prefetch_scheduled(&self) {
        self.prefetches_scheduled.fetch_add(1, Ordering::Relaxed);
    }

    /// A file's first foreground read was served by a local tier thanks to
    /// a prefetch copy that landed ahead of the cursor.
    pub fn prefetch_hit(&self) {
        self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A prefetched file was staged but never read before its plan ended.
    pub fn prefetch_wasted(&self) {
        self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
    }

    /// A demand read arrived for a file whose prefetch copy was still
    /// queued; the job was promoted to the demand lane (dedup guard).
    pub fn prefetch_promote(&self) {
        self.prefetch_promoted.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued prefetch copy was canceled (plan replaced or dropped).
    pub fn prefetch_cancel(&self) {
        self.prefetch_canceled.fetch_add(1, Ordering::Relaxed);
    }

    /// A copy-pool worker could not be joined at shutdown (it died of a
    /// panic outside the per-task catch).
    pub fn pool_join_failure(&self) {
        self.pool_join_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued copy's deadline expired before a worker picked it up (also
    /// counted in `copies_failed` — the copy never ran).
    pub fn copy_deadline_expired(&self) {
        self.copies_deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// A read of a peer-owned file was served from the owner's fast tier
    /// over the cluster transport: `bytes` crossed the wire instead of a
    /// second PFS read.
    pub fn peer_hit(&self, bytes: u64) {
        self.peer_hits.fetch_add(1, Ordering::Relaxed);
        self.peer_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A peer fetch failed (peer down, slow, or refused) and the read fell
    /// back to the PFS path.
    pub fn peer_fallback(&self) {
        self.peer_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// A remote-lane job's deadline expired (peer too slow); the install
    /// fell back to copying from the PFS source instead of aborting.
    pub fn remote_timeout(&self) {
        self.remote_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A read of a file resident on a failed tier was served from a lower
    /// tier instead of erroring (the graceful-degradation path).
    pub fn degraded_read(&self) {
        self.degraded_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// A foreground pread failed transiently and was retried in place.
    pub fn read_retry(&self) {
        self.read_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A copy's install step failed transiently and was retried in place.
    pub fn copy_retry(&self) {
        self.copy_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A copy was requeued (placement re-run) after a transient failure.
    pub fn copy_requeue(&self) {
        self.copy_requeues.fetch_add(1, Ordering::Relaxed);
    }

    /// A tier entered quarantine.
    pub fn tier_quarantine(&self) {
        self.tier_quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// A quarantined tier was re-admitted by a successful half-open probe.
    pub fn tier_recovery(&self) {
        self.tier_recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// An `ENOSPC` on install evicted a resident file to make room.
    pub fn enospc_eviction(&self) {
        self.enospc_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// The admission policy denied a copy a tier slot (the read stays on
    /// the PFS; the next miss re-asks).
    pub fn policy_denial(&self) {
        self.policy_denials.fetch_add(1, Ordering::Relaxed);
    }

    /// A peer fetch was skipped because the peer is marked dead (inside
    /// its cooldown window); the read went straight to the PFS.
    pub fn peer_dead_skip(&self) {
        self.peer_dead_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// `bytes` of a read came out of the install staging of the file's
    /// in-flight copy instead of a tier. `whole` says the read was served
    /// from there alone; otherwise it fetched its remainder from the
    /// source, and that fetch is its one [`Stats::record_read`].
    pub fn record_staged(&self, whole: bool, bytes: u64) {
        self.staged_reads
            .fetch_add(u64::from(whole), Ordering::Relaxed);
        self.staged_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// One read counter of `tier`, summed over the stripes.
    fn read_sum(&self, tier: TierId, field: impl Fn(&ReadCounters) -> &AtomicU64) -> u64 {
        self.reads
            .iter()
            .map(|stripe| field(&stripe[tier]).load(Ordering::Relaxed))
            .sum()
    }

    /// Immutable snapshot for reporting.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            tiers: self
                .tiers
                .iter()
                .enumerate()
                .map(|(id, t)| TierSnapshot {
                    reads: self.read_sum(id, |c| &c.reads),
                    bytes_read: self.read_sum(id, |c| &c.bytes_read),
                    writes: t.writes.load(Ordering::Relaxed),
                    bytes_written: t.bytes_written.load(Ordering::Relaxed),
                    removes: t.removes.load(Ordering::Relaxed),
                })
                .collect(),
            copies_scheduled: self.copies_scheduled.load(Ordering::Relaxed),
            copies_completed: self.copies_completed.load(Ordering::Relaxed),
            copies_failed: self.copies_failed.load(Ordering::Relaxed),
            placement_skipped: self.placement_skipped.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            prefetches_scheduled: self.prefetches_scheduled.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
            prefetch_promoted: self.prefetch_promoted.load(Ordering::Relaxed),
            prefetch_canceled: self.prefetch_canceled.load(Ordering::Relaxed),
            pool_join_failures: self.pool_join_failures.load(Ordering::Relaxed),
            copies_deadline_expired: self.copies_deadline_expired.load(Ordering::Relaxed),
            peer_hits: self.peer_hits.load(Ordering::Relaxed),
            peer_bytes: self.peer_bytes.load(Ordering::Relaxed),
            peer_fallbacks: self.peer_fallbacks.load(Ordering::Relaxed),
            remote_timeouts: self.remote_timeouts.load(Ordering::Relaxed),
            degraded_reads: self.degraded_reads.load(Ordering::Relaxed),
            read_retries: self.read_retries.load(Ordering::Relaxed),
            copy_retries: self.copy_retries.load(Ordering::Relaxed),
            copy_requeues: self.copy_requeues.load(Ordering::Relaxed),
            tier_quarantines: self.tier_quarantines.load(Ordering::Relaxed),
            tier_recoveries: self.tier_recoveries.load(Ordering::Relaxed),
            enospc_evictions: self.enospc_evictions.load(Ordering::Relaxed),
            policy_denials: self.policy_denials.load(Ordering::Relaxed),
            peer_dead_skips: self.peer_dead_skips.load(Ordering::Relaxed),
            staged_reads: self.staged_reads.load(Ordering::Relaxed),
            staged_bytes: self.staged_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one tier's counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Read operations served by this tier.
    pub reads: u64,
    /// Bytes read from this tier.
    pub bytes_read: u64,
    /// Write operations to this tier (placement copies).
    pub writes: u64,
    /// Bytes written to this tier.
    pub bytes_written: u64,
    /// Files removed from this tier (evictions plus cleanup).
    pub removes: u64,
}

/// Snapshot of the whole middleware.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-tier counters, index = tier id (last = PFS).
    pub tiers: Vec<TierSnapshot>,
    /// Background copies scheduled.
    pub copies_scheduled: u64,
    /// Background copies completed successfully.
    pub copies_completed: u64,
    /// Background copies that failed.
    pub copies_failed: u64,
    /// Files left on the PFS because no local tier had room.
    pub placement_skipped: u64,
    /// Files evicted by a placement policy (ablation policies only) —
    /// strictly a subset of `removes`.
    pub evictions: u64,
    /// Files removed for any reason (evictions plus failed-copy cleanup
    /// and teardown).
    #[serde(default)]
    pub removes: u64,
    /// Background copies issued by the clairvoyant prefetcher (subset of
    /// `copies_scheduled`).
    #[serde(default)]
    pub prefetches_scheduled: u64,
    /// First reads served locally because a prefetch copy landed first.
    #[serde(default)]
    pub prefetch_hits: u64,
    /// Prefetched files never read before their plan ended.
    #[serde(default)]
    pub prefetch_wasted: u64,
    /// Queued prefetch copies promoted to the demand lane by a read.
    #[serde(default)]
    pub prefetch_promoted: u64,
    /// Queued prefetch copies canceled before running.
    #[serde(default)]
    pub prefetch_canceled: u64,
    /// Copy-pool workers that could not be joined at shutdown.
    #[serde(default)]
    pub pool_join_failures: u64,
    /// Queued copies dropped because their deadline expired before a
    /// worker started them (subset of `copies_failed`).
    #[serde(default)]
    pub copies_deadline_expired: u64,
    /// Reads of peer-owned files served node-to-node from the owner's
    /// fast tier (no PFS read).
    #[serde(default)]
    pub peer_hits: u64,
    /// Bytes served over the cluster transport instead of the PFS.
    #[serde(default)]
    pub peer_bytes: u64,
    /// Peer fetches that failed and fell back to the PFS path.
    #[serde(default)]
    pub peer_fallbacks: u64,
    /// Remote-lane installs whose deadline expired waiting on a peer; the
    /// copy fell back to the PFS source.
    #[serde(default)]
    pub remote_timeouts: u64,
    /// Reads of files resident on a failed tier served down-hierarchy
    /// instead of erroring.
    #[serde(default)]
    pub degraded_reads: u64,
    /// Foreground preads retried in place after a transient failure.
    #[serde(default)]
    pub read_retries: u64,
    /// Copy installs retried in place after a transient failure.
    #[serde(default)]
    pub copy_retries: u64,
    /// Copies requeued (placement re-run) after a transient failure.
    #[serde(default)]
    pub copy_requeues: u64,
    /// Tier quarantine transitions.
    #[serde(default)]
    pub tier_quarantines: u64,
    /// Quarantined tiers re-admitted by a successful half-open probe.
    #[serde(default)]
    pub tier_recoveries: u64,
    /// `ENOSPC`-triggered evictions on the install path.
    #[serde(default)]
    pub enospc_evictions: u64,
    /// Copies the admission policy denied a tier slot.
    #[serde(default)]
    pub policy_denials: u64,
    /// Peer fetches skipped because the peer was marked dead.
    #[serde(default)]
    pub peer_dead_skips: u64,
    /// Reads served entirely from the install staging of the file's
    /// in-flight copy: counted here, not as reads of any tier.
    #[serde(default)]
    pub staged_reads: u64,
    /// Bytes handed to readers out of install stagings.
    #[serde(default)]
    pub staged_bytes: u64,
}

impl StatsSnapshot {
    /// Reads served by the PFS (last tier).
    #[must_use]
    pub fn pfs_reads(&self) -> u64 {
        self.tiers.last().map_or(0, |t| t.reads)
    }

    /// Reads served by local tiers.
    #[must_use]
    pub fn local_reads(&self) -> u64 {
        self.tiers.iter().rev().skip(1).map(|t| t.reads).sum()
    }

    /// Fraction of reads that hit a local tier (0 when no reads yet).
    #[must_use]
    pub fn local_hit_ratio(&self) -> f64 {
        let local = self.local_reads();
        let total = local + self.pfs_reads();
        if total == 0 {
            0.0
        } else {
            local as f64 / total as f64
        }
    }

    /// Fraction of issued prefetch copies that were never read before
    /// their plan ended. Guarded: 0 (not NaN) before the first prefetch is
    /// scheduled, so a scrape of a fresh instance serializes cleanly.
    #[must_use]
    pub fn wasted_prefetch_ratio(&self) -> f64 {
        if self.prefetches_scheduled == 0 {
            0.0
        } else {
            self.prefetch_wasted as f64 / self.prefetches_scheduled as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::new(2);
        s.record_read(0, 100);
        s.record_read(1, 50);
        s.record_read(1, 50);
        s.record_write(0, 500);
        s.copy_scheduled();
        s.copy_completed();
        let snap = s.snapshot();
        assert_eq!(snap.tiers[0].reads, 1);
        assert_eq!(snap.tiers[0].bytes_read, 100);
        assert_eq!(snap.tiers[1].reads, 2);
        assert_eq!(snap.tiers[0].writes, 1);
        assert_eq!(snap.tiers[0].bytes_written, 500);
        assert_eq!(snap.copies_scheduled, 1);
        assert_eq!(snap.copies_completed, 1);
    }

    #[test]
    fn reads_are_conserved_across_threads() {
        // Eight threads, each into its own stripe. A read is recorded in
        // exactly one place — the tier that served it, the install staging
        // of its file's copy, or the peer cache — so the snapshot must add
        // up to exactly the reads issued: Σ per-tier + staged + peer.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let s = Stats::new(3);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        match (t + i) % 6 {
                            // Served from the staging alone.
                            3 => s.record_staged(true, 4096),
                            // Half from the staging, half fetched at its
                            // frontier: the fetch is the read's one record.
                            4 => {
                                s.record_read(2, 2048);
                                s.record_staged(false, 2048);
                            }
                            5 => s.peer_hit(4096),
                            tier => s.record_read(tier as usize, 4096),
                        }
                    }
                });
            }
        });
        let snap = s.snapshot();
        let tier_reads: u64 = snap.tiers.iter().map(|t| t.reads).sum();
        assert_eq!(tier_reads, snap.local_reads() + snap.pfs_reads());
        assert_eq!(
            tier_reads + snap.staged_reads + snap.peer_hits,
            THREADS * PER_THREAD
        );
        let tier_bytes: u64 = snap.tiers.iter().map(|t| t.bytes_read).sum();
        assert_eq!(
            tier_bytes + snap.staged_bytes + snap.peer_bytes,
            THREADS * PER_THREAD * 4096
        );
    }

    #[test]
    fn hit_ratio() {
        let s = Stats::new(2);
        assert_eq!(s.snapshot().local_hit_ratio(), 0.0);
        s.record_read(0, 1);
        s.record_read(0, 1);
        s.record_read(0, 1);
        s.record_read(1, 1);
        let snap = s.snapshot();
        assert_eq!(snap.local_reads(), 3);
        assert_eq!(snap.pfs_reads(), 1);
        assert!((snap.local_hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn eviction_counting() {
        let s = Stats::new(3);
        s.record_evict(0);
        s.record_evict(1);
        let snap = s.snapshot();
        assert_eq!(snap.evictions, 2);
        assert_eq!(snap.removes, 2);
        assert_eq!(snap.tiers[0].removes, 1);
        assert_eq!(snap.tiers[1].removes, 1);
    }

    #[test]
    fn remove_is_not_eviction() {
        // Non-eviction cleanup (failed copy, teardown) must not inflate the
        // eviction counter — the paper's no-eviction argument depends on
        // reporting zero evictions under FirstFit.
        let s = Stats::new(2);
        s.record_remove(0);
        s.record_remove(0);
        s.record_evict(0);
        let snap = s.snapshot();
        assert_eq!(snap.removes, 3);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.tiers[0].removes, 3);
    }

    #[test]
    fn prefetch_counters_accumulate() {
        let s = Stats::new(2);
        s.prefetch_scheduled();
        s.prefetch_scheduled();
        s.prefetch_hit();
        s.prefetch_wasted();
        s.prefetch_promote();
        s.prefetch_cancel();
        s.pool_join_failure();
        let snap = s.snapshot();
        assert_eq!(snap.prefetches_scheduled, 2);
        assert_eq!(snap.prefetch_hits, 1);
        assert_eq!(snap.prefetch_wasted, 1);
        assert_eq!(snap.prefetch_promoted, 1);
        assert_eq!(snap.prefetch_canceled, 1);
        assert_eq!(snap.pool_join_failures, 1);
    }

    #[test]
    fn ratios_are_guarded_against_empty_windows() {
        // A scrape before the first read/prefetch must report 0, not NaN —
        // NaN is not valid JSON and poisons downstream aggregation.
        let empty = Stats::new(2).snapshot();
        assert_eq!(empty.local_hit_ratio(), 0.0);
        assert_eq!(empty.wasted_prefetch_ratio(), 0.0);
        let s = Stats::new(2);
        s.prefetch_scheduled();
        s.prefetch_scheduled();
        s.prefetch_scheduled();
        s.prefetch_wasted();
        assert!((s.snapshot().wasted_prefetch_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn peer_counters_accumulate() {
        let s = Stats::new(2);
        s.peer_hit(100);
        s.peer_hit(50);
        s.peer_fallback();
        s.remote_timeout();
        let snap = s.snapshot();
        assert_eq!(snap.peer_hits, 2);
        assert_eq!(snap.peer_bytes, 150);
        assert_eq!(snap.peer_fallbacks, 1);
        assert_eq!(snap.remote_timeouts, 1);
    }

    #[test]
    fn health_counters_accumulate() {
        let s = Stats::new(2);
        s.degraded_read();
        s.degraded_read();
        s.read_retry();
        s.copy_retry();
        s.copy_requeue();
        s.tier_quarantine();
        s.tier_recovery();
        s.enospc_eviction();
        s.peer_dead_skip();
        let snap = s.snapshot();
        assert_eq!(snap.degraded_reads, 2);
        assert_eq!(snap.read_retries, 1);
        assert_eq!(snap.copy_retries, 1);
        assert_eq!(snap.copy_requeues, 1);
        assert_eq!(snap.tier_quarantines, 1);
        assert_eq!(snap.tier_recoveries, 1);
        assert_eq!(snap.enospc_evictions, 1);
        assert_eq!(snap.peer_dead_skips, 1);
    }

    #[test]
    fn deadline_expired_counter_accumulates() {
        let s = Stats::new(2);
        s.copy_deadline_expired();
        s.copy_failed();
        let snap = s.snapshot();
        assert_eq!(snap.copies_deadline_expired, 1);
        assert_eq!(snap.copies_failed, 1);
    }

    #[test]
    fn legacy_snapshot_json_defaults_prefetch_fields() {
        // Old snapshots without the prefetch fields still deserialize.
        let legacy = r#"{"tiers":[],"copies_scheduled":0,"copies_completed":0,
                         "copies_failed":0,"placement_skipped":0,"evictions":0}"#;
        let back: StatsSnapshot = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.prefetch_hits, 0);
        assert_eq!(back.pool_join_failures, 0);
    }

    #[test]
    fn snapshot_serializes() {
        let s = Stats::new(2);
        s.record_read(1, 10);
        let json = serde_json::to_string(&s.snapshot()).unwrap();
        assert!(json.contains("\"reads\":1"));
    }
}
