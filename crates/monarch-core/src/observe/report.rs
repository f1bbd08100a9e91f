//! The epoch bottleneck-attribution report: the time-lost ledger rolled
//! up into "where did the wall-clock go".
//!
//! [`ObserveReport::from_snapshot`] turns a [`TelemetrySnapshot`] (whose
//! `observe` section carries the profiler's ledger and per-file records)
//! plus a measured wall time into five buckets that sum to the wall:
//!
//! - **pfs-bound** — pread time on the PFS with no copy in sight (cold
//!   misses; the paper's baseline pain);
//! - **copy-lane-saturated** — PFS pread time while a copy of the same
//!   file was already in flight (the lanes are behind the read front);
//! - **staged** — time reads spent being served out of an in-flight copy's
//!   install staging, waits for the copy's fetches included;
//! - **prefetch-lag** — PFS pread time on plan-covered files plus
//!   post-pread copy-machinery waits (the prefetcher knew, but late);
//! - **lock-or-queue** — metadata lock/lookup and bookkeeping time;
//! - **compute-bound** — everything else: wall time the storage system
//!   was *not* the bottleneck for (includes healthy fast-tier service).
//!
//! Storage time is divided by the reader concurrency before attribution:
//! with N readers overlapping, N seconds of summed pread time costs about
//! one second of wall.

use serde::{Deserialize, Serialize};

use super::profiler::LedgerSnapshot;
use super::ObserveSnapshot;
use crate::telemetry::TelemetrySnapshot;

/// Wall-time attribution buckets, seconds. Summing them recovers the
/// epoch wall time (within the measurement slop the e2e tests bound at
/// 5%).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LedgerBuckets {
    /// Cold PFS misses.
    pub pfs_bound_s: f64,
    /// PFS reads racing their own in-flight copy.
    pub copy_lane_saturated_s: f64,
    /// Reads served out of an in-flight copy's install staging.
    #[serde(default)]
    pub staged_s: f64,
    /// Plan-covered PFS reads plus copy-machinery waits.
    pub prefetch_lag_s: f64,
    /// Reads served node-to-node from a peer's fast tier.
    #[serde(default)]
    pub peer_bound_s: f64,
    /// Reads of failed-tier residents served down-hierarchy (fault-induced
    /// slowdown, distinct from cold misses).
    #[serde(default)]
    pub degraded_fallback_s: f64,
    /// Metadata lock/lookup and bookkeeping.
    pub lock_or_queue_s: f64,
    /// Wall time storage was not the bottleneck for.
    pub compute_bound_s: f64,
}

impl LedgerBuckets {
    /// Attribute `wall_s` of wall time from ledger sums accumulated by
    /// `concurrency` overlapping readers.
    #[must_use]
    pub fn from_ledger(ledger: &LedgerSnapshot, wall_s: f64, concurrency: usize) -> Self {
        let conc = concurrency.max(1) as f64;
        let s = |us: u64| us as f64 / 1e6 / conc;
        // Wall time actually lost to storage: the whole read wall minus
        // healthy fast-tier pread time, folded down by concurrency.
        let storage_s = (s(ledger.read_wall_us) - s(ledger.fast_pread_us)).max(0.0);
        Self {
            pfs_bound_s: s(ledger.pfs_cold_pread_us),
            copy_lane_saturated_s: s(ledger.lane_sat_pread_us),
            staged_s: s(ledger.staged_pread_us),
            prefetch_lag_s: s(ledger.prefetch_lag_pread_us) + s(ledger.copy_wait_us),
            peer_bound_s: s(ledger.peer_bound_pread_us),
            degraded_fallback_s: s(ledger.degraded_pread_us),
            lock_or_queue_s: s(ledger.lock_queue_us),
            compute_bound_s: (wall_s - storage_s).max(0.0),
        }
    }

    /// Sum of all buckets.
    #[must_use]
    pub fn sum_s(&self) -> f64 {
        self.pfs_bound_s
            + self.copy_lane_saturated_s
            + self.staged_s
            + self.prefetch_lag_s
            + self.peer_bound_s
            + self.degraded_fallback_s
            + self.lock_or_queue_s
            + self.compute_bound_s
    }

    /// The dominant bucket's name — the report's one-word verdict.
    #[must_use]
    pub fn dominant(&self) -> &'static str {
        let pairs = [
            ("pfs-bound", self.pfs_bound_s),
            ("copy-lane-saturated", self.copy_lane_saturated_s),
            ("staged", self.staged_s),
            ("prefetch-lag", self.prefetch_lag_s),
            ("peer-bound", self.peer_bound_s),
            ("degraded-fallback", self.degraded_fallback_s),
            ("lock-or-queue", self.lock_or_queue_s),
            ("compute-bound", self.compute_bound_s),
        ];
        pairs
            .iter()
            .fold(("compute-bound", f64::MIN), |best, &(name, v)| {
                if v > best.1 {
                    (name, v)
                } else {
                    best
                }
            })
            .0
    }
}

/// One hot file in the report's top-K list.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HotFile {
    /// Logical file name.
    pub file: String,
    /// Foreground reads observed.
    pub accesses: u64,
    /// Total bytes served to the foreground.
    pub bytes: u64,
    /// EWMA inter-access gap, µs (0 until two accesses).
    pub ewma_gap_us: f64,
    /// Reads the prefetcher staged in time.
    pub prefetch_hits: u64,
    /// Reads served from the PFS.
    pub demand_misses: u64,
}

/// One prefetched-never-read file in the report's waste list.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WastedFile {
    /// Logical file name.
    pub file: String,
    /// Bytes the prefetcher staged for nothing.
    pub prefetched_bytes: u64,
    /// When the useless staging landed (registry clock, µs).
    pub staged_us: u64,
}

/// The rolled-up report: attribution buckets plus the hot and wasted
/// file lists. Serializable (the `monarch report --json` / FFI payload).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObserveReport {
    /// Wall time attributed, seconds.
    pub wall_s: f64,
    /// Reader concurrency the ledger sums were folded by.
    pub concurrency: usize,
    /// Profiled reads.
    pub reads: u64,
    /// The five attribution buckets.
    pub ledger: LedgerBuckets,
    /// Hottest files, most-accessed first.
    pub top_hot: Vec<HotFile>,
    /// Prefetched-never-read files, largest first.
    pub wasted_prefetch: Vec<WastedFile>,
    /// Distinct files the profiler tracked.
    pub files_tracked: u64,
    /// Reads past the profiler's tracking bound.
    pub untracked_reads: u64,
    /// Residency transitions recorded.
    pub timeline_recorded: u64,
    /// Residency transitions lost to the ring bound.
    pub timeline_dropped: u64,
}

impl ObserveReport {
    /// Roll `snap.observe` up into a report. `None` when the snapshot
    /// carries no observe section (profiler disabled).
    #[must_use]
    pub fn from_snapshot(
        snap: &TelemetrySnapshot,
        wall_s: f64,
        concurrency: usize,
        top_k: usize,
    ) -> Option<Self> {
        snap.observe
            .as_ref()
            .map(|o| Self::from_observe(o, wall_s, concurrency, top_k))
    }

    /// Roll an [`ObserveSnapshot`] up into a report.
    #[must_use]
    pub fn from_observe(
        observe: &ObserveSnapshot,
        wall_s: f64,
        concurrency: usize,
        top_k: usize,
    ) -> Self {
        let p = &observe.profiler;
        let top_hot = p
            .files
            .iter()
            .filter(|f| f.profile.accesses > 0)
            .take(top_k)
            .map(|f| HotFile {
                file: f.file.clone(),
                accesses: f.profile.accesses,
                bytes: f.profile.bytes_by_tier.iter().sum(),
                ewma_gap_us: f.profile.ewma_gap_us,
                prefetch_hits: f.profile.prefetch_hits,
                demand_misses: f.profile.demand_misses,
            })
            .collect();
        let mut wasted: Vec<WastedFile> = p
            .files
            .iter()
            .filter(|f| f.profile.prefetched_bytes > 0 && f.profile.reads_after_prefetch == 0)
            .map(|f| WastedFile {
                file: f.file.clone(),
                prefetched_bytes: f.profile.prefetched_bytes,
                staged_us: f.profile.staged_us,
            })
            .collect();
        wasted.sort_by(|a, b| {
            b.prefetched_bytes
                .cmp(&a.prefetched_bytes)
                .then_with(|| a.file.cmp(&b.file))
        });
        wasted.truncate(top_k);
        Self {
            wall_s,
            concurrency: concurrency.max(1),
            reads: p.ledger.reads,
            ledger: LedgerBuckets::from_ledger(&p.ledger, wall_s, concurrency),
            top_hot,
            wasted_prefetch: wasted,
            files_tracked: p.tracked,
            untracked_reads: p.untracked_reads,
            timeline_recorded: observe.timeline.recorded,
            timeline_dropped: observe.timeline.dropped,
        }
    }

    /// Render the human-readable table (`monarch report` without
    /// `--json`).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut o = String::with_capacity(2048);
        let pct = |v: f64| {
            if self.wall_s > 0.0 {
                100.0 * v / self.wall_s
            } else {
                0.0
            }
        };
        o.push_str(&format!(
            "bottleneck attribution — {:.3}s wall, {} reader(s), {} profiled reads\n",
            self.wall_s, self.concurrency, self.reads
        ));
        for (name, v) in [
            ("pfs-bound", self.ledger.pfs_bound_s),
            ("copy-lane-saturated", self.ledger.copy_lane_saturated_s),
            ("staged", self.ledger.staged_s),
            ("prefetch-lag", self.ledger.prefetch_lag_s),
            ("peer-bound", self.ledger.peer_bound_s),
            ("degraded-fallback", self.ledger.degraded_fallback_s),
            ("lock-or-queue", self.ledger.lock_or_queue_s),
            ("compute-bound", self.ledger.compute_bound_s),
        ] {
            o.push_str(&format!("  {name:<22} {v:>9.3}s  {:>5.1}%\n", pct(v)));
        }
        o.push_str(&format!(
            "  {:<22} {:>9.3}s  {:>5.1}%  (dominant: {})\n",
            "sum",
            self.ledger.sum_s(),
            pct(self.ledger.sum_s()),
            self.ledger.dominant()
        ));
        o.push_str(&format!(
            "files: {} tracked, {} untracked reads; timeline: {} transitions ({} dropped)\n",
            self.files_tracked, self.untracked_reads, self.timeline_recorded, self.timeline_dropped
        ));
        if !self.top_hot.is_empty() {
            o.push_str("top hot files:\n");
            for f in &self.top_hot {
                o.push_str(&format!(
                    "  {:<28} {:>6} reads  {:>10} B  ewma gap {:>9.0}µs  {} hits / {} misses\n",
                    f.file, f.accesses, f.bytes, f.ewma_gap_us, f.prefetch_hits, f.demand_misses
                ));
            }
        }
        if self.wasted_prefetch.is_empty() {
            o.push_str("wasted prefetch: none\n");
        } else {
            o.push_str("wasted prefetch (staged, never read):\n");
            for f in &self.wasted_prefetch {
                o.push_str(&format!(
                    "  {:<28} {:>10} B staged at {}µs\n",
                    f.file, f.prefetched_bytes, f.staged_us
                ));
            }
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::profiler::{FileProfile, FileProfileSnapshot, ProfilerSnapshot};
    use crate::observe::timeline::TimelineSnapshot;

    fn ledger() -> LedgerSnapshot {
        LedgerSnapshot {
            reads: 100,
            read_wall_us: 10_000_000, // 10s summed across readers
            fast_pread_us: 2_000_000,
            pfs_cold_pread_us: 4_000_000,
            lane_sat_pread_us: 1_000_000,
            staged_pread_us: 0,
            prefetch_lag_pread_us: 1_500_000,
            lock_queue_us: 500_000,
            copy_wait_us: 1_000_000,
            peer_bound_pread_us: 0,
            degraded_pread_us: 0,
        }
    }

    #[test]
    fn buckets_sum_to_wall_when_ledger_partitions_cleanly() {
        // 2 readers, so 10s of summed read wall = 5s of wall; wall 6s
        // leaves 6 - (10-2)/2 = 2s compute-bound.
        let b = LedgerBuckets::from_ledger(&ledger(), 6.0, 2);
        assert!((b.pfs_bound_s - 2.0).abs() < 1e-9);
        assert!((b.copy_lane_saturated_s - 0.5).abs() < 1e-9);
        assert!((b.prefetch_lag_s - 1.25).abs() < 1e-9);
        assert!((b.lock_or_queue_s - 0.25).abs() < 1e-9);
        assert!((b.compute_bound_s - 2.0).abs() < 1e-9);
        // The ledger partitions read_wall exactly here, so the sum is
        // exact.
        assert!((b.sum_s() - 6.0).abs() < 1e-9, "sum {}", b.sum_s());
        assert_eq!(b.dominant(), "pfs-bound");
    }

    #[test]
    fn compute_bound_floors_at_zero() {
        // Wall shorter than attributed storage time (clock skew): the
        // compute bucket floors instead of going negative.
        let b = LedgerBuckets::from_ledger(&ledger(), 1.0, 2);
        assert!(b.compute_bound_s.abs() < 1e-9);
        assert!(b.sum_s() >= 1.0);
    }

    fn observe_fixture() -> ObserveSnapshot {
        let mk = |accesses: u64, staged: u64, read_after: u64| FileProfile {
            accesses,
            bytes_by_tier: vec![accesses * 10, 0],
            prefetched_bytes: staged,
            reads_after_prefetch: read_after,
            staged_us: 42,
            ..FileProfile::default()
        };
        ObserveSnapshot {
            profiler: ProfilerSnapshot {
                tracked: 3,
                untracked_reads: 0,
                ledger: ledger(),
                files: vec![
                    FileProfileSnapshot {
                        file: "hot".into(),
                        profile: mk(9, 100, 5),
                    },
                    FileProfileSnapshot {
                        file: "warm".into(),
                        profile: mk(2, 0, 0),
                    },
                    FileProfileSnapshot {
                        file: "wasted".into(),
                        profile: mk(0, 512, 0),
                    },
                ],
            },
            timeline: TimelineSnapshot {
                recorded: 7,
                dropped: 1,
                events: Vec::new(),
            },
        }
    }

    #[test]
    fn report_selects_hot_and_wasted_files() {
        let r = ObserveReport::from_observe(&observe_fixture(), 6.0, 2, 5);
        assert_eq!(r.reads, 100);
        assert_eq!(r.top_hot.len(), 2, "0-access files are not hot");
        assert_eq!(r.top_hot[0].file, "hot");
        assert_eq!(r.top_hot[0].bytes, 90);
        assert_eq!(r.wasted_prefetch.len(), 1);
        assert_eq!(r.wasted_prefetch[0].file, "wasted");
        assert_eq!(r.wasted_prefetch[0].prefetched_bytes, 512);
        assert_eq!(r.timeline_recorded, 7);
        assert_eq!(r.timeline_dropped, 1);
    }

    #[test]
    fn report_renders_and_round_trips_json() {
        let r = ObserveReport::from_observe(&observe_fixture(), 6.0, 2, 5);
        let table = r.render_table();
        for needle in [
            "pfs-bound",
            "copy-lane-saturated",
            "prefetch-lag",
            "lock-or-queue",
            "compute-bound",
            "hot",
            "wasted",
        ] {
            assert!(table.contains(needle), "table missing {needle}:\n{table}");
        }
        let json = serde_json::to_string(&r).unwrap();
        let back: ObserveReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_snapshot_requires_observe_section() {
        let snap = TelemetrySnapshot::default();
        assert!(ObserveReport::from_snapshot(&snap, 1.0, 1, 5).is_none());
        let snap = TelemetrySnapshot {
            observe: Some(observe_fixture()),
            ..TelemetrySnapshot::default()
        };
        assert!(ObserveReport::from_snapshot(&snap, 1.0, 1, 5).is_some());
    }
}
