//! Middleware statistics: per-tier operation and byte counters.
//!
//! The paper's headline secondary metric is the number of I/O operations
//! submitted to the shared PFS; [`Stats`] counts reads/writes/bytes per
//! tier plus placement outcomes, all with relaxed atomics. The per-tier
//! read counters — the only ones a warm hit touches — are striped per
//! thread (see the `stripe` module) and summed by [`Stats::snapshot`].
//!
//! The scalar counters are declared once, in the `counters!` list below:
//! the cell in [`Stats`], the method that counts one, the load in
//! [`Stats::snapshot`], the [`StatsSnapshot`] field and the Prometheus
//! family ([`StatsSnapshot::counters`]) all expand from that list.

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

/// Expands the one list of scalar counters into everything that has to
/// agree about them. A line reads
/// `field / bump_method: "prometheus_family", "help";` under the doc
/// comment both the snapshot field carries; the bump method is left out
/// where a hand-written method of [`Stats`] feeds the counter.
macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])+
        $field:ident $(/ $bump:ident)?: $family:literal, $help:literal;
    )+) => {
        /// Aggregate middleware counters.
        pub struct Stats {
            tiers: Vec<TierCounters>,
            /// Per-stripe read counters, index = tier id.
            reads: Striped<Vec<ReadCounters>>,
            $($field: AtomicU64,)+
        }

        impl Stats {
            /// Counters for a hierarchy with `tiers` levels.
            #[must_use]
            pub fn new(tiers: usize) -> Self {
                Self {
                    tiers: (0..tiers).map(|_| TierCounters::default()).collect(),
                    reads: Striped::new(),
                    $($field: AtomicU64::new(0),)+
                }
            }

            $($(
                #[doc = concat!("Count one in [`StatsSnapshot::", stringify!($field), "`].")]
                pub fn $bump(&self) {
                    self.$field.fetch_add(1, Ordering::Relaxed);
                }
            )?)+

            /// Immutable snapshot for reporting.
            #[must_use]
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    tiers: self.tier_snapshots(),
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        /// Snapshot of the whole middleware.
        #[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
        pub struct StatsSnapshot {
            /// Per-tier counters, index = tier id (last = PFS).
            pub tiers: Vec<TierSnapshot>,
            $(
                $(#[doc = $doc])+
                #[serde(default)]
                pub $field: u64,
            )+
        }

        impl StatsSnapshot {
            /// Every scalar counter as `(prometheus family, help, value)`,
            /// in declaration order — the counter half of the exposition.
            #[must_use]
            pub fn counters(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![$(($family, $help, self.$field),)+]
            }
        }
    };
}

counters! {
    /// Background copies scheduled.
    copies_scheduled / copy_scheduled:
        "monarch_copies_scheduled_total", "Background copies scheduled.";
    /// Background copies completed successfully.
    copies_completed / copy_completed:
        "monarch_copies_completed_total", "Background copies completed.";
    /// Background copies that failed (quota released, metadata reverted).
    copies_failed / copy_failed:
        "monarch_copies_failed_total", "Background copies failed.";
    /// Files left on the PFS because no local tier had room.
    placement_skipped / placement_skip:
        "monarch_placement_skipped_total", "Placements skipped (no local tier had room).";
    /// Files evicted by a placement policy (ablation policies only) —
    /// strictly a subset of `removes`. Fed by [`Stats::record_evict`].
    evictions:
        "monarch_evictions_total", "Files evicted from local tiers.";
    /// Files removed for any reason (evictions plus failed-copy cleanup
    /// and teardown). Fed by [`Stats::record_remove`] and
    /// [`Stats::record_evict`].
    removes:
        "monarch_removes_total", "Files removed for any reason.";
    /// Background copies issued by the clairvoyant prefetcher (subset of
    /// `copies_scheduled` — prefetches are ordinary background copies).
    prefetches_scheduled / prefetch_scheduled:
        "monarch_prefetches_scheduled_total", "Prefetch copies issued from access plans.";
    /// First foreground reads served by a local tier because a prefetch
    /// copy landed ahead of the cursor.
    prefetch_hits / prefetch_hit:
        "monarch_prefetch_hits_total", "First reads served locally thanks to a prefetch copy.";
    /// Prefetched files never read before their plan ended.
    prefetch_wasted / prefetch_wasted:
        "monarch_prefetch_wasted_total", "Prefetched files never read before their plan ended.";
    /// Queued prefetch copies promoted to the demand lane by a read of
    /// their file (the dedup guard).
    prefetch_promoted / prefetch_promote:
        "monarch_prefetch_promoted_total", "Queued prefetch copies promoted to the demand lane.";
    /// Queued prefetch copies canceled before running (plan replaced or
    /// dropped).
    prefetch_canceled / prefetch_cancel:
        "monarch_prefetch_canceled_total", "Queued prefetch copies canceled before running.";
    /// Copy-pool workers that could not be joined at shutdown (they died
    /// of a panic outside the per-task catch).
    pool_join_failures / pool_join_failure:
        "monarch_pool_join_failures_total", "Copy-pool workers that could not be joined at shutdown.";
    /// Queued copies dropped because their deadline expired before a
    /// worker started them (subset of `copies_failed`).
    copies_deadline_expired / copy_deadline_expired:
        "monarch_copies_deadline_expired_total",
        "Queued copies dropped because their deadline expired before a worker started them.";
    /// Reads of peer-owned files served node-to-node from the owner's
    /// fast tier (no PFS read). Fed by [`Stats::peer_hit`].
    peer_hits:
        "monarch_peer_hits_total",
        "Reads of peer-owned files served node-to-node from a peer's fast tier.";
    /// Bytes served over the cluster transport instead of the PFS. Fed by
    /// [`Stats::peer_hit`].
    peer_bytes:
        "monarch_peer_bytes_total", "Bytes served over the cluster transport instead of the PFS.";
    /// Peer fetches that failed (peer down, slow, or refused) and fell
    /// back to the PFS path.
    peer_fallbacks / peer_fallback:
        "monarch_peer_fallbacks_total", "Peer fetches that failed and fell back to the PFS path.";
    /// Remote-lane installs whose deadline expired waiting on a peer; the
    /// copy fell back to the PFS source instead of aborting.
    remote_timeouts / remote_timeout:
        "monarch_remote_timeouts_total",
        "Remote-lane installs whose deadline expired waiting on a peer.";
    /// Reads of files resident on a failed tier served down-hierarchy
    /// instead of erroring (the graceful-degradation path).
    degraded_reads / degraded_read:
        "monarch_degraded_reads_total", "Reads of failed-tier residents served down-hierarchy.";
    /// Foreground preads retried in place after a transient failure.
    read_retries / read_retry:
        "monarch_read_retries_total", "Foreground preads retried after a transient failure.";
    /// Copy installs retried in place after a transient failure.
    copy_retries / copy_retry:
        "monarch_copy_retries_total", "Copy installs retried after a transient failure.";
    /// Copies requeued (placement re-run) after a transient failure.
    copy_requeues / copy_requeue:
        "monarch_copy_requeues_total", "Copies requeued after their target tier failed.";
    /// Tier quarantine transitions.
    tier_quarantines / tier_quarantine:
        "monarch_tier_quarantines_total", "Tier quarantine transitions.";
    /// Quarantined tiers re-admitted by a successful half-open probe.
    tier_recoveries / tier_recovery:
        "monarch_tier_recoveries_total", "Quarantined tiers re-admitted by a successful probe.";
    /// `ENOSPC`-triggered evictions on the install path.
    enospc_evictions / enospc_eviction:
        "monarch_enospc_evictions_total", "ENOSPC-triggered evictions on the install path.";
    /// Copies the admission policy denied a tier slot (the read stays on
    /// the PFS; the next miss re-asks).
    policy_denials / policy_denial:
        "monarch_policy_denials_total", "Copies the admission policy denied a tier slot.";
    /// Peer fetches skipped because the peer is marked dead (inside its
    /// cooldown window); the read went straight to the PFS.
    peer_dead_skips / peer_dead_skip:
        "monarch_peer_dead_skips_total", "Peer fetches skipped because the peer was marked dead.";
    /// Reads served entirely from the install staging of the file's
    /// in-flight copy: counted here, not as reads of any tier. Fed by
    /// [`Stats::record_staged`].
    staged_reads:
        "monarch_staged_reads_total",
        "Reads served entirely from the install staging of an in-flight copy.";
    /// Bytes handed to readers out of install stagings. Fed by
    /// [`Stats::record_staged`].
    staged_bytes:
        "monarch_staged_bytes_total", "Bytes handed to readers out of install stagings.";
    /// Reads that carried the clock into the time records (stall profile,
    /// read-latency histograms, ledger sums): every read that was not a
    /// plain local-tier hit, and one such hit in
    /// [`TIMED_HIT_PERIOD`](crate::telemetry::TIMED_HIT_PERIOD), which
    /// those records weigh accordingly. Against the read counts, the share
    /// of reads the time estimates rest on.
    timed_reads / timed_read:
        "monarch_timed_reads_total", "Reads that carried the clock into the time records.";
}

impl std::fmt::Debug for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stats")
            .field("tiers", &self.tiers.len())
            .finish_non_exhaustive()
    }
}

impl Stats {
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
        self.record_remove(tier);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// A read of a peer-owned file was served from the owner's fast tier
    /// over the cluster transport: `bytes` crossed the wire instead of a
    /// second PFS read.
    pub fn peer_hit(&self, bytes: u64) {
        self.peer_hits.fetch_add(1, Ordering::Relaxed);
        self.peer_bytes.fetch_add(bytes, Ordering::Relaxed);
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

    /// The per-tier half of [`Stats::snapshot`].
    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        self.tiers
            .iter()
            .enumerate()
            .map(|(id, t)| TierSnapshot {
                reads: self.read_sum(id, |c| &c.reads),
                bytes_read: self.read_sum(id, |c| &c.bytes_read),
                writes: t.writes.load(Ordering::Relaxed),
                bytes_written: t.bytes_written.load(Ordering::Relaxed),
                removes: t.removes.load(Ordering::Relaxed),
            })
            .collect()
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
