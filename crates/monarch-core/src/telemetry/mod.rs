//! Telemetry: latency histograms, a copy-lifecycle event journal, and a
//! registry that assembles them into one document, which serialises as
//! JSON and renders as Prometheus-style text.
//!
//! The paper's evaluation (§II-A, §IV) is built on *observed* storage
//! behaviour — per-tier I/O ops, within-epoch PFS throughput regimes,
//! background-copy hand-off timing. This module is the substrate for those
//! observations, shared by the real middleware and the `dlpipe` simulator:
//!
//! - [`LatencyHistogram`] — a lock-free log-linear histogram (relaxed
//!   atomic buckets, mergeable, p50/p90/p99/max) for per-tier read/write
//!   latency, background-copy duration, and pool queue-wait time;
//! - [`EventJournal`] — a bounded ring buffer of structured
//!   [`Event`]s covering the copy lifecycle (scheduled → started →
//!   completed/failed), placement decisions and evictions, exported as
//!   JSON lines, non-destructively;
//! - [`TelemetryRegistry`] — owns the histograms, the journal and the
//!   [`Stats`] counters, reads the gauge families off live state
//!   ([`TelemetryRegistry::gauges`]: per-tier occupancy/capacity, lane
//!   queue depth, in-flight copies) and assembles the one
//!   [`TelemetrySnapshot`] ([`TelemetryRegistry::snapshot`]);
//! - [`TelemetrySnapshot::exposition`] — the Prometheus text exposition, a
//!   pure function of that document, so a scrape is a projection of it;
//! - [`TimeSeries`] / [`ThroughputSampler`] — the shared time-series
//!   schema used by both the simulator's PFS throughput trace and the
//!   real trainer;
//! - [`StallProfile`] — the access profiler's read-path stall profile:
//!   four histograms decomposing each timed read's wall time into
//!   lock-wait / queue-wait / driver-pread / copy-wait buckets.
//!
//! Recording is cheap by construction: histogram recording is a handful of
//! relaxed atomic adds, the journal is an `O(1)` ring append behind a short
//! critical section, and both can be disabled via
//! [`crate::config::TelemetryConfig`], which turns every record call into
//! an early return. What is not cheap next to a warm hit is the clock, so
//! the read path times every read that is not a plain local-tier hit and
//! one such hit in [`TIMED_HIT_PERIOD`], recorded at that weight
//! ([`LatencyHistogram::record_n`]).

mod exposition;
mod gauges;
mod histogram;
mod journal;

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::health::{HealthRegistry, TierState};
use crate::hierarchy::{StorageHierarchy, Tier};
use crate::metadata::MetadataContainer;
use crate::observe::{AccessProfiler, ObserveSnapshot};
use crate::policy::PolicyEngine;
use crate::stats::Stats;
use crate::TierId;

use gauges::LANES;
pub use gauges::{GaugeSnapshot, PipelineSample, PrefetchSample, ThroughputSampler, TimeSeries};
pub use histogram::{
    HistogramSnapshot, LatencyHistogram, StallProfile, StallProfileSnapshot, TIMED_HIT_PERIOD,
};
pub(crate) use journal::push_json_str;
pub use journal::{Event, EventJournal, EventKind, TransitionCause};

/// Journal ring bound: the oldest events are overwritten past this count.
const JOURNAL_CAPACITY: usize = 4096;
/// Profiler bound: reads of ids at or past it only bump `untracked_reads`.
const PROFILED_FILES: usize = 65_536;
/// Span ring bound: the oldest spans are dropped past this count.
const TRACE_CAPACITY: usize = 65_536;

/// The telemetry registry: owns the middleware's histograms, event journal
/// and [`Stats`] counters, and renders them for export.
///
/// One registry is shared by a [`crate::Monarch`] instance and everything
/// it spawns (the books of its copies, the copy pool); the `dlpipe`
/// simulator builds its own over the same types so both emit identical
/// schemas. It holds its histograms by value: callers record through the
/// accessors.
pub struct TelemetryRegistry {
    tier_names: Vec<String>,
    enabled: bool,
    stats: Arc<Stats>,
    read_latency: Vec<LatencyHistogram>,
    write_latency: Vec<LatencyHistogram>,
    copy_duration: LatencyHistogram,
    queue_wait: LatencyHistogram,
    queue_wait_remote: LatencyHistogram,
    queue_wait_prefetch: LatencyHistogram,
    pool_exec: LatencyHistogram,
    journal: EventJournal,
    trace: Arc<crate::trace::TraceRecorder>,
    profiler: AccessProfiler,
    origin: Instant,
}

impl TelemetryRegistry {
    /// A registry over `tier_names` (ordered fastest-first, PFS last),
    /// sharing the middleware's `stats`, configured by `cfg`. Its profiler
    /// keeps a namespace of its own, for callers that record by name.
    #[must_use]
    pub fn new(
        tier_names: Vec<String>,
        stats: Arc<Stats>,
        cfg: &crate::config::TelemetryConfig,
    ) -> Self {
        Self::with_namespace(tier_names, stats, cfg, Arc::default())
    }

    /// [`Self::new`] for an instance whose namespace is `files`: the
    /// profiler's per-file records are indexed by its file ids.
    #[must_use]
    pub fn with_namespace(
        tier_names: Vec<String>,
        stats: Arc<Stats>,
        cfg: &crate::config::TelemetryConfig,
        files: Arc<MetadataContainer>,
    ) -> Self {
        let levels = tier_names.len();
        let profiler = AccessProfiler::with_namespace(
            cfg.enabled,
            levels,
            PROFILED_FILES,
            files,
            Arc::clone(&stats),
        );
        Self {
            tier_names,
            enabled: cfg.enabled,
            stats,
            read_latency: (0..levels).map(|_| LatencyHistogram::new()).collect(),
            write_latency: (0..levels).map(|_| LatencyHistogram::new()).collect(),
            copy_duration: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            queue_wait_remote: LatencyHistogram::new(),
            queue_wait_prefetch: LatencyHistogram::new(),
            pool_exec: LatencyHistogram::new(),
            journal: EventJournal::new(JOURNAL_CAPACITY, cfg.enabled),
            trace: Arc::new(crate::trace::TraceRecorder::new(
                if cfg.enabled {
                    cfg.trace_sample_every_n
                } else {
                    0
                },
                TRACE_CAPACITY,
            )),
            profiler,
            origin: Instant::now(),
        }
    }

    /// Whether histogram/journal recording is enabled at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Ordered tier names (PFS last).
    #[must_use]
    pub fn tier_names(&self) -> &[String] {
        &self.tier_names
    }

    /// The shared counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Microseconds elapsed since the registry was created.
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.nanos_at(Instant::now()) / 1_000
    }

    /// `t` on the registry clock: nanoseconds between the registry's
    /// creation and `t`. Lets a caller that already holds an [`Instant`]
    /// mark a read without reading the clock again.
    #[must_use]
    pub fn nanos_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per-tier read-latency histogram.
    #[must_use]
    pub fn read_latency(&self, tier: TierId) -> &LatencyHistogram {
        &self.read_latency[tier]
    }

    /// Per-tier write-latency histogram.
    #[must_use]
    pub fn write_latency(&self, tier: TierId) -> &LatencyHistogram {
        &self.write_latency[tier]
    }

    /// Background-copy duration histogram.
    #[must_use]
    pub fn copy_duration(&self) -> &LatencyHistogram {
        &self.copy_duration
    }

    /// Demand-lane pool queue-wait histogram (submit → task start).
    #[must_use]
    pub fn queue_wait(&self) -> &LatencyHistogram {
        &self.queue_wait
    }

    /// Remote-lane pool queue-wait histogram (peer-served installs).
    #[must_use]
    pub fn queue_wait_remote(&self) -> &LatencyHistogram {
        &self.queue_wait_remote
    }

    /// Prefetch-lane pool queue-wait histogram. Split from the demand lane
    /// so prefetch backlog (expected — the lane only runs when demand is
    /// empty) cannot be mistaken for demand-path latency.
    #[must_use]
    pub fn queue_wait_prefetch(&self) -> &LatencyHistogram {
        &self.queue_wait_prefetch
    }

    /// Pool task-execution histogram.
    #[must_use]
    pub fn pool_exec(&self) -> &LatencyHistogram {
        &self.pool_exec
    }

    /// The read-path stall profiler (four phase histograms): the access
    /// profiler's, which records every timed read.
    #[must_use]
    pub fn stall_profile(&self) -> &StallProfile {
        self.profiler.stall_profile()
    }

    /// Every gauge family — reads in flight, per-tier occupancy / capacity
    /// / files / health, the degraded and draining flags, per-lane queue
    /// depth, jobs in flight and the prefetch window — read from live
    /// state, one family after another. The one producer of these
    /// families: the real instance's [`Sampler`](crate::transfer::Sampler)
    /// and the `dlpipe` simulator both call it, each with its own
    /// [`PipelineSample`], and hand the result to [`Self::snapshot`], so
    /// their documents cannot differ in family names, help text or label
    /// sets.
    #[must_use]
    pub fn gauges(
        &self,
        hierarchy: &StorageHierarchy,
        metadata: &MetadataContainer,
        pipeline: &PipelineSample,
    ) -> Vec<GaugeSnapshot> {
        let mut out = Vec::new();
        let mut family = |name: &str, help: &str, cells: Vec<(Option<(&str, &str)>, f64)>| {
            out.extend(cells.into_iter().map(|(label, value)| {
                GaugeSnapshot {
                    name: name.to_owned(),
                    help: help.to_owned(),
                    labels: label
                        .map(|(k, v)| vec![(k.to_owned(), v.to_owned())])
                        .unwrap_or_default(),
                    value,
                }
            }));
        };
        let tiers = hierarchy.tiers();
        let per_tier = |value: &dyn Fn(&Tier) -> Option<f64>| {
            tiers
                .iter()
                .filter_map(|t| Some((Some(("tier", t.name.as_str())), value(t)?)))
                .collect()
        };
        let health = hierarchy.health();
        let files = metadata.residency_histogram(hierarchy.levels());
        family(
            "monarch_reads_in_flight",
            "Read operations currently executing inside Monarch::read.",
            vec![(None, self.stats.in_flight() as f64)],
        );
        family(
            "monarch_tier_occupancy_bytes",
            "Bytes resident on the tier (quota accounting).",
            per_tier(&|t| Some(t.quota.as_ref()?.used() as f64)),
        );
        family(
            "monarch_tier_capacity_bytes",
            "Configured capacity of the tier in bytes.",
            per_tier(&|t| Some(t.quota.as_ref()?.capacity() as f64)),
        );
        family(
            "monarch_tier_files",
            "Files currently resident on the tier.",
            per_tier(&|t| Some(files.get(t.id).copied().unwrap_or(0) as f64)),
        );
        family(
            "monarch_tier_health_state",
            "Tier health: 0 = closed (healthy), 1 = suspect, 2 = quarantined.",
            per_tier(&|t| {
                Some(match health.tier(t.id).state() {
                    TierState::Closed => 0.0,
                    TierState::Suspect => 1.0,
                    TierState::Quarantined => 2.0,
                })
            }),
        );
        family(
            "monarch_degraded",
            "1 while any tier is quarantined (reads falling back down-hierarchy), else 0.",
            vec![(None, f64::from(u8::from(health.degraded())))],
        );
        family(
            "monarch_lane_queued",
            "Copies queued (not yet started) per pool lane.",
            LANES
                .into_iter()
                .zip(pipeline.queued)
                .map(|((_, lane), queued)| (Some(("lane", lane)), queued as f64))
                .collect(),
        );
        family(
            "monarch_pool_inflight_jobs",
            "Copies currently executing on pool workers.",
            vec![(None, pipeline.running as f64)],
        );
        if let Some(window) = pipeline.prefetch {
            for (name, help, value) in [
                (
                    "monarch_prefetch_inflight_copies",
                    "Prefetch copies issued and not yet resolved.",
                    window.copies,
                ),
                (
                    "monarch_prefetch_inflight_bytes",
                    "Bytes of prefetch copies issued and not yet resolved.",
                    window.bytes,
                ),
                (
                    "monarch_prefetch_window_lag_entries",
                    "Plan entries issued ahead of the read cursor.",
                    window.lag_entries,
                ),
            ] {
                family(name, help, vec![(None, value as f64)]);
            }
        }
        family(
            "monarch_draining",
            "1 while the transfer engine is shutting down, else 0.",
            vec![(None, f64::from(u8::from(pipeline.draining)))],
        );
        out
    }

    /// The event journal.
    #[must_use]
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The span recorder (disabled unless `trace_sample_every_n > 0`).
    #[must_use]
    pub fn trace(&self) -> &Arc<crate::trace::TraceRecorder> {
        &self.trace
    }

    /// The per-file access profiler (disabled unless `enabled`).
    #[must_use]
    pub fn profiler(&self) -> &AccessProfiler {
        &self.profiler
    }

    /// Record `kind` stamped with the registry's wall clock.
    pub fn event(&self, kind: EventKind) {
        if self.journal.is_enabled() {
            self.journal.record_at(self.now_micros(), kind);
        }
    }

    /// Record `kind` with an explicit timestamp (the simulator's virtual
    /// clock).
    pub fn event_at(&self, t_us: u64, kind: EventKind) {
        self.journal.record_at(t_us, kind);
    }

    /// The one snapshot document: every histogram, the counters, the
    /// `gauges` the caller read ([`Self::gauges`]), and the sections owned
    /// by other parts of the instance — tier health, the policy engine, the
    /// peer cache when clustered. Everything that reports state
    /// (`/snapshot`, `/metrics`, the FFI, the CLI views, the simulator's
    /// run report) serialises, renders or projects this.
    #[must_use]
    pub fn snapshot(
        &self,
        gauges: Vec<GaugeSnapshot>,
        health: &HealthRegistry,
        policy: &PolicyEngine,
        cluster: Option<&Cluster>,
    ) -> TelemetrySnapshot {
        let stats = self.stats.snapshot();
        TelemetrySnapshot {
            schema_version: SCHEMA_VERSION,
            tier_names: self.tier_names.clone(),
            read_latency: self.read_latency.iter().map(|h| h.snapshot()).collect(),
            write_latency: self.write_latency.iter().map(|h| h.snapshot()).collect(),
            copy_duration: self.copy_duration.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            queue_wait_remote: self.queue_wait_remote.snapshot(),
            queue_wait_prefetch: self.queue_wait_prefetch.snapshot(),
            pool_exec: self.pool_exec.snapshot(),
            stall_profile: self.stall_profile().snapshot(),
            gauges,
            events_recorded: self.journal.recorded(),
            events_dropped: self.journal.dropped(),
            spans_recorded: self.trace.spans_recorded(),
            spans_dropped: self.trace.spans_dropped(),
            observe: self.profiler.is_enabled().then(|| ObserveSnapshot {
                profiler: self.profiler.snapshot(),
            }),
            cluster: cluster.map(|c| {
                let source = self.tier_names.len().saturating_sub(1);
                c.snapshot(&stats, policy.namespace(), source)
            }),
            health: Some(health.snapshot()),
            policy: Some(policy.snapshot()),
            stats,
        }
    }
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("tiers", &self.tier_names)
            .field("enabled", &self.enabled)
            .field("journal", &self.journal)
            .finish()
    }
}

/// Version of the [`TelemetrySnapshot`] schema. Adding a key does not
/// change it; removing a key or changing a key's type does (2: the
/// `observe.timeline` key is gone).
pub const SCHEMA_VERSION: u32 = 2;

/// The instance's one state document, assembled by
/// [`TelemetryRegistry::snapshot`]: `/snapshot`, `monarch snapshot`,
/// `monarch_snapshot_json` and the simulator's run report carry it whole or
/// one top-level key of it ([`TelemetrySnapshot::section`]); `monarch
/// cluster` and `monarch report` project it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Version of this document's schema ([`SCHEMA_VERSION`]); 0 on
    /// documents written before the field existed.
    #[serde(default)]
    pub schema_version: u32,
    /// Ordered tier names (PFS last).
    pub tier_names: Vec<String>,
    /// Operation/byte counters.
    pub stats: crate::stats::StatsSnapshot,
    /// Per-tier read-latency summaries (index = tier id).
    pub read_latency: Vec<HistogramSnapshot>,
    /// Per-tier write-latency summaries.
    pub write_latency: Vec<HistogramSnapshot>,
    /// Background-copy duration summary.
    pub copy_duration: HistogramSnapshot,
    /// Demand-lane pool queue-wait summary.
    pub queue_wait: HistogramSnapshot,
    /// Remote-lane pool queue-wait summary (peer-served installs).
    #[serde(default)]
    pub queue_wait_remote: HistogramSnapshot,
    /// Prefetch-lane pool queue-wait summary.
    #[serde(default)]
    pub queue_wait_prefetch: HistogramSnapshot,
    /// Pool execution-time summary.
    pub pool_exec: HistogramSnapshot,
    /// Read-path stall decomposition (empty until a read is sampled).
    #[serde(default)]
    pub stall_profile: StallProfileSnapshot,
    /// Instantaneous gauge values at snapshot time, one family after
    /// another ([`TelemetryRegistry::gauges`], which the caller reads as
    /// it assembles the document).
    #[serde(default)]
    pub gauges: Vec<GaugeSnapshot>,
    /// Journal events recorded over the lifetime.
    pub events_recorded: u64,
    /// Journal events overwritten by the ring bound.
    pub events_dropped: u64,
    /// Trace spans recorded over the lifetime (0 unless tracing is on).
    #[serde(default)]
    pub spans_recorded: u64,
    /// Trace spans dropped by the span-ring bound.
    #[serde(default)]
    pub spans_dropped: u64,
    /// Workload observatory (per-file profiles, time-lost ledger); absent
    /// when the profiler is disabled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub observe: Option<ObserveSnapshot>,
    /// Cluster peer-cache state (shard map + peer counters); absent when
    /// the node runs without a cluster config.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cluster: Option<crate::cluster::ClusterSnapshot>,
    /// Per-tier fault-tolerance state (health state machine, error EWMA,
    /// quarantine counters); absent only on documents older than the
    /// section.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub health: Option<crate::health::HealthSnapshot>,
    /// Composition and decision counters of the policy engine; absent
    /// only on documents older than the section.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub policy: Option<crate::policy::PolicySnapshot>,
}

impl TelemetrySnapshot {
    /// The document as a JSON value, or its top-level `key` when one is
    /// given; `None` for a key the document does not have (an unknown
    /// name, or a section this instance lacks, such as `cluster` on a
    /// single node).
    #[must_use]
    pub fn section(&self, key: Option<&str>) -> Option<serde_json::Value> {
        let doc = serde_json::to_value(self).ok()?;
        match key {
            Some(key) => doc.get(key).cloned(),
            None => Some(doc),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::histogram::{bucket_bounds, bucket_index, LINEAR_MAX, NUM_BUCKETS};
    use super::*;
    use crate::config::TelemetryConfig;

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut prev = 0usize;
        for shift in 0..63 {
            let v = 1u64 << shift;
            for probe in [v, v + 1, v + (v >> 1)] {
                let idx = bucket_index(probe);
                assert!(idx < NUM_BUCKETS, "idx {idx} for {probe}");
                assert!(idx >= prev || probe < LINEAR_MAX, "non-monotone at {probe}");
                prev = idx.max(prev);
                let (lo, hi) = bucket_bounds(idx);
                assert!(lo <= probe && probe <= hi, "{probe} not in [{lo},{hi}]");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // Within one log-linear bucket (≤ 1/16 relative) of exact.
        let p50 = h.quantile(0.5) as f64;
        assert!(
            (p50 - 500.0).abs() / 500.0 <= 1.0 / 16.0 + 1e-9,
            "p50 = {p50}"
        );
        let p99 = h.quantile(0.99) as f64;
        assert!(
            (p99 - 990.0).abs() / 990.0 <= 1.0 / 16.0 + 1e-9,
            "p99 = {p99}"
        );
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_count_le_is_cumulative_and_quantized() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count_le(u64::MAX), 0);
        for v in [5u64, 500, 5_000, 5_000_000] {
            h.record(v);
        }
        // Exact below LINEAR_MAX, whole-bucket cumulative above.
        assert_eq!(h.count_le(4), 0);
        assert_eq!(h.count_le(5), 1);
        assert_eq!(h.count_le(1_000), 2);
        assert_eq!(h.count_le(10_000), 3);
        assert_eq!(h.count_le(u64::MAX), 4);
        // Monotone over the exposition ladder.
        let mut prev = 0;
        for bound in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000, u64::MAX] {
            let c = h.count_le(bound);
            assert!(c >= prev, "count_le not monotone at {bound}");
            prev = c;
        }
        // Quantization: a value whose bucket straddles the bound is
        // excluded (undercount, never overcount).
        let g = LatencyHistogram::new();
        g.record(1_000_000); // bucket [983040, 1015807]
        assert_eq!(g.count_le(1_000_000), 0);
        assert_eq!(g.count_le(1_015_807), 1);
    }

    #[test]
    fn weighted_record_counts_and_sums_n_observations() {
        let h = LatencyHistogram::new();
        h.record(100);
        h.record_n(300, 16);
        assert_eq!(h.count(), 17);
        assert_eq!(h.sum(), 100 + 16 * 300);
        assert_eq!(h.max(), 300);
        assert_eq!(h.count_le(150), 1);
        // The sixteen dominate the quantiles as sixteen single records do.
        assert!(h.quantile(0.5) >= 300 * 15 / 16);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn histogram_merge() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v + 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.max(), 1099);
        assert!(a.quantile(0.9) >= 1000);
    }

    #[test]
    fn journal_ring_bound_and_order() {
        let j = EventJournal::new(4, true);
        for i in 0..10u64 {
            j.record_at(
                i,
                EventKind::CopyStarted {
                    file: format!("f{i}"),
                },
            );
        }
        assert_eq!(j.recorded(), 10);
        assert_eq!(j.dropped(), 6);
        let events = j.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Every export is non-destructive.
        assert_eq!(j.events(), events);
        assert_eq!(j.json_lines().lines().count(), 4);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn journal_disabled_records_nothing() {
        let j = EventJournal::new(4, false);
        assert!(!j.is_enabled());
        j.record_at(0, EventKind::CopyStarted { file: "f".into() });
        j.record_at(1, EventKind::TierRecovered { tier: 0 });
        assert_eq!(j.recorded(), 0);
        assert!(j.is_empty());
        assert_eq!(j.json_lines(), "");
    }

    #[test]
    fn event_json_lines() {
        let j = EventJournal::new(8, true);
        j.record_at(
            5,
            EventKind::CopyScheduled {
                file: "a/b".into(),
                bytes: 42,
            },
        );
        j.record_at(
            9,
            EventKind::CopyCompleted {
                file: "a\"b".into(),
                tier: 0,
                bytes: 7,
                micros: 3,
                cause: TransitionCause::Plan,
            },
        );
        j.record_at(
            11,
            EventKind::PrefetchScheduled {
                file: "c".into(),
                bytes: 9,
            },
        );
        j.record_at(12, EventKind::PrefetchPromoted { file: "c".into() });
        j.record_at(
            13,
            EventKind::PrefetchCanceled {
                file: "d".into(),
                cause: TransitionCause::Drain,
            },
        );
        j.record_at(
            14,
            EventKind::WorkerJoinFailed {
                file: "monarch-copy-1".into(),
            },
        );
        j.record_at(15, EventKind::TierProbed { tier: 1, ok: false });
        let lines = j.json_lines();
        let mut it = lines.lines();
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":0,"t_us":5,"event":"copy_scheduled","file":"a/b","bytes":42}"#
        );
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":1,"t_us":9,"event":"copy_completed","file":"a\"b","tier":0,"bytes":7,"micros":3,"cause":"plan"}"#
        );
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":2,"t_us":11,"event":"prefetch_scheduled","file":"c","bytes":9}"#
        );
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":3,"t_us":12,"event":"prefetch_promoted","file":"c"}"#
        );
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":4,"t_us":13,"event":"prefetch_canceled","file":"d","cause":"drain"}"#
        );
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":5,"t_us":14,"event":"worker_join_failed","file":"monarch-copy-1"}"#
        );
        // A tier-health event is about no file, so its line has no `file`.
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":6,"t_us":15,"event":"tier_probed","tier":1,"ok":false}"#
        );
        assert!(it.next().is_none());
        // Every line is valid JSON per serde too.
        for line in lines.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("seq").is_some());
            assert!(v.get("event").is_some());
        }
    }

    #[test]
    fn every_event_kind_round_trips_through_its_json_line() {
        let f = || "a\"b\\c\n".to_string();
        let s = || "why".to_string();
        let kinds = vec![
            EventKind::CopyScheduled {
                file: f(),
                bytes: 1,
            },
            EventKind::CopyStarted { file: f() },
            EventKind::CopyCompleted {
                file: f(),
                tier: 0,
                bytes: 2,
                micros: 3,
                cause: TransitionCause::Demand,
            },
            EventKind::CopyFailed {
                file: f(),
                reason: s(),
            },
            EventKind::PlacementDecided {
                file: f(),
                tier: 0,
                used: 4,
                capacity: 5,
            },
            EventKind::PlacementSkipped {
                file: f(),
                reason: s(),
            },
            EventKind::Evicted {
                file: f(),
                tier: 0,
                bytes: 6,
            },
            EventKind::Removed { file: f(), tier: 0 },
            EventKind::PrefetchScheduled {
                file: f(),
                bytes: 7,
            },
            EventKind::PrefetchPromoted { file: f() },
            EventKind::PrefetchCanceled {
                file: f(),
                cause: TransitionCause::Plan,
            },
            EventKind::WorkerJoinFailed { file: f() },
            EventKind::PrefetchDrained { canceled: 8 },
            EventKind::RemoteScheduled {
                file: f(),
                bytes: 9,
                peer: 1,
            },
            EventKind::RemoteTimeout {
                file: f(),
                reason: s(),
            },
            EventKind::TierQuarantined {
                tier: 0,
                reason: s(),
            },
            EventKind::TierProbed { tier: 0, ok: true },
            EventKind::TierRecovered { tier: 0 },
            EventKind::CopyRequeued {
                file: f(),
                reason: s(),
            },
            EventKind::ReservationReclaimed {
                file: f(),
                tier: 0,
                bytes: 10,
            },
            EventKind::PolicyDecision {
                file: f(),
                point: "plan_evict".into(),
                policy: "admit_all/never/none".into(),
                verdict: "evict".into(),
                reason: s(),
            },
        ];
        // One of each: the match has no wildcard, so a new variant does
        // not compile until it is listed here too.
        let ordinal = |k: &EventKind| match k {
            EventKind::CopyScheduled { .. } => 0,
            EventKind::CopyStarted { .. } => 1,
            EventKind::CopyCompleted { .. } => 2,
            EventKind::CopyFailed { .. } => 3,
            EventKind::PlacementDecided { .. } => 4,
            EventKind::PlacementSkipped { .. } => 5,
            EventKind::Evicted { .. } => 6,
            EventKind::Removed { .. } => 7,
            EventKind::PrefetchScheduled { .. } => 8,
            EventKind::PrefetchPromoted { .. } => 9,
            EventKind::PrefetchCanceled { .. } => 10,
            EventKind::WorkerJoinFailed { .. } => 11,
            EventKind::PrefetchDrained { .. } => 12,
            EventKind::RemoteScheduled { .. } => 13,
            EventKind::RemoteTimeout { .. } => 14,
            EventKind::TierQuarantined { .. } => 15,
            EventKind::TierProbed { .. } => 16,
            EventKind::TierRecovered { .. } => 17,
            EventKind::CopyRequeued { .. } => 18,
            EventKind::ReservationReclaimed { .. } => 19,
            EventKind::PolicyDecision { .. } => 20,
        };
        let ordinals: Vec<usize> = kinds.iter().map(ordinal).collect();
        assert_eq!(ordinals, (0..kinds.len()).collect::<Vec<_>>());
        for (seq, kind) in kinds.into_iter().enumerate() {
            let e = Event {
                seq: seq as u64,
                t_us: 1_000 + seq as u64,
                kind,
            };
            let line = e.to_json_line();
            assert!(!line.contains('\n'), "{line}");
            assert!(line.contains(&format!("\"event\":\"{}\"", e.kind.tag())));
            assert_eq!(serde_json::from_str::<Event>(&line).unwrap(), e, "{line}");
        }
    }

    #[test]
    fn sampler_emits_rates() {
        let mut s = ThroughputSampler::new(10.0);
        s.observe(5.0, 100); // too early
        assert!(s.series().is_empty());
        s.observe(10.0, 1000);
        assert_eq!(s.series().len(), 1);
        let (t, rate) = s.series()[0];
        assert!((t - 10.0).abs() < 1e-9);
        assert!((rate - 100.0).abs() < 1e-9);
        s.observe(30.0, 1000); // no new bytes → zero rate
        let (_, rate2) = s.series()[1];
        assert_eq!(rate2, 0.0);
        assert_eq!(s.into_series().len(), 2);
    }

    fn registry() -> TelemetryRegistry {
        TelemetryRegistry::new(
            vec!["ssd".into(), "pfs".into()],
            Arc::new(Stats::new(2)),
            &TelemetryConfig::default(),
        )
    }

    /// `r`'s document, carrying `gauges`.
    fn document(r: &TelemetryRegistry, gauges: Vec<GaugeSnapshot>) -> TelemetrySnapshot {
        let health = HealthRegistry::new(r.tier_names().to_vec());
        let policy = PolicyEngine::from_kind(Default::default(), Default::default());
        r.snapshot(gauges, &health, &policy, None)
    }

    fn gauge(name: &str, help: &str, labels: &[(&str, &str)], value: f64) -> GaugeSnapshot {
        GaugeSnapshot {
            name: name.into(),
            help: help.into(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).into(), (*v).into()))
                .collect(),
            value,
        }
    }

    #[test]
    fn prometheus_exposition_format() {
        let r = registry();
        r.stats().record_read(0, 100);
        r.stats().record_read(1, 50);
        r.read_latency(0).record(4_000);
        r.copy_duration().record(1_000_000);
        let text = document(&r, Vec::new()).exposition();
        assert!(text.contains("# TYPE monarch_tier_reads_total counter"));
        assert!(text.contains("monarch_tier_reads_total{tier=\"ssd\"} 1"));
        assert!(text.contains("monarch_tier_reads_total{tier=\"pfs\"} 1"));
        assert!(text.contains("monarch_tier_read_bytes_total{tier=\"ssd\"} 100"));
        assert!(text.contains("# TYPE monarch_read_latency_seconds histogram"));
        assert!(text.contains("monarch_read_latency_seconds_count{tier=\"ssd\"} 1"));
        assert!(text.contains("monarch_copy_duration_seconds_count 1"));
        assert!(text.contains("monarch_pool_queue_wait_seconds_count 0"));
        assert!(text.contains("monarch_pool_prefetch_queue_wait_seconds_count 0"));
        assert!(text.contains("monarch_prefetches_scheduled_total 0"));
        assert!(text.contains("monarch_prefetch_hits_total 0"));
        assert!(text.contains("monarch_prefetch_wasted_total 0"));
        assert!(text.contains("monarch_pool_join_failures_total 0"));
        // The 4 µs observation lands in the ≤ 10 µs bucket and every
        // later one (cumulative), ending at +Inf = count.
        assert!(
            text.contains("monarch_read_latency_seconds_bucket{tier=\"ssd\",le=\"0.000001\"} 0")
        );
        assert!(text.contains("monarch_read_latency_seconds_bucket{tier=\"ssd\",le=\"0.00001\"} 1"));
        assert!(text.contains("monarch_read_latency_seconds_bucket{tier=\"ssd\",le=\"+Inf\"} 1"));
        // The 1 ms copy duration sits in a bucket straddling the 1 ms
        // bound (grid quantization), so it first appears at le="0.01".
        assert!(text.contains("monarch_copy_duration_seconds_bucket{le=\"0.000001\"} 0"));
        assert!(text.contains("monarch_copy_duration_seconds_bucket{le=\"0.01\"} 1"));
        assert!(text.contains("monarch_copy_duration_seconds_bucket{le=\"+Inf\"} 1"));
        // Journal/trace drop counters are exposed for scrape-side alerts.
        assert!(text.contains("# TYPE monarch_events_dropped_total counter"));
        assert!(text.contains("# TYPE monarch_trace_spans_dropped_total counter"));
        // Every non-comment line is `name{labels} value` or `name value`
        // with a parseable float value.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value parses");
        }
    }

    #[test]
    fn gauge_registry_interns_cells() {
        let stats = Stats::new(2);
        let reading = stats.enter_read();
        assert_eq!(stats.in_flight(), 1);
        drop(reading);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn gauge_exposition_golden_format() {
        // Golden check of the full gauge section, including label-value
        // escaping of backslash, quote, and newline.
        let occupancy = "Bytes resident per tier.";
        let gauges = vec![
            gauge(
                "monarch_tier_occupancy_bytes",
                occupancy,
                &[("tier", "ssd")],
                1024.0,
            ),
            gauge(
                "monarch_tier_occupancy_bytes",
                occupancy,
                &[("tier", "pfs")],
                0.0,
            ),
            gauge(
                "monarch_draining",
                "1 while the engine is draining.",
                &[],
                0.0,
            ),
            gauge(
                "monarch_mount_info",
                "Mount label escaping probe.",
                &[("path", "a\\b\"c\nd")],
                1.0,
            ),
        ];
        let text = document(&registry(), gauges).exposition();
        let out = &text[text.find("# HELP monarch_tier_occupancy_bytes").unwrap()..];
        let expected = concat!(
            "# HELP monarch_tier_occupancy_bytes Bytes resident per tier.\n",
            "# TYPE monarch_tier_occupancy_bytes gauge\n",
            "monarch_tier_occupancy_bytes{tier=\"ssd\"} 1024\n",
            "monarch_tier_occupancy_bytes{tier=\"pfs\"} 0\n",
            "# HELP monarch_draining 1 while the engine is draining.\n",
            "# TYPE monarch_draining gauge\n",
            "monarch_draining 0\n",
            "# HELP monarch_mount_info Mount label escaping probe.\n",
            "# TYPE monarch_mount_info gauge\n",
            "monarch_mount_info{path=\"a\\\\b\\\"c\\nd\"} 1\n",
        );
        assert_eq!(out, expected);
    }

    #[test]
    fn exposition_has_help_and_type_for_every_family() {
        // Every exposed family must carry # HELP and # TYPE lines —
        // including _bucket/_sum/_count histogram series, stall profile
        // histograms and gauges.
        let r = registry();
        let files = gauge(
            "monarch_tier_files",
            "Files resident per tier.",
            &[("tier", "ssd")],
            0.0,
        );
        let text = document(&r, vec![files]).exposition();
        let mut typed: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap());
            }
        }
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let metric = line.split(['{', ' ']).next().unwrap();
            let family = metric
                .strip_suffix("_bucket")
                .or_else(|| metric.strip_suffix("_sum"))
                .or_else(|| metric.strip_suffix("_count"))
                .unwrap_or(metric);
            assert!(
                typed.contains(family),
                "family {family} (line `{line}`) lacks a # TYPE declaration"
            );
            let help = format!("# HELP {family} ");
            assert!(text.contains(&help), "family {family} lacks a # HELP line");
        }
    }

    #[test]
    fn stall_profile_partitions_wall_time() {
        let r = registry();
        let t0 = Instant::now();
        let lookup = t0 + Duration::from_micros(10);
        let resolve = t0 + Duration::from_micros(25);
        let pread = t0 + Duration::from_micros(1025);
        let end = t0 + Duration::from_micros(1030);
        r.stall_profile().record(t0, lookup, resolve, pread, end);
        let s = r.stall_profile().snapshot();
        assert_eq!(s.lock_wait.count, 1);
        assert_eq!(s.lock_wait.sum_nanos, 10_000);
        assert_eq!(s.queue_wait.sum_nanos, 15_000);
        assert_eq!(s.driver_pread.sum_nanos, 1_000_000);
        assert_eq!(s.copy_wait.sum_nanos, 5_000);
        let total = s.lock_wait.sum_nanos
            + s.queue_wait.sum_nanos
            + s.driver_pread.sum_nanos
            + s.copy_wait.sum_nanos;
        assert_eq!(total, 1_030_000);
        // Out-of-order instants saturate to zero instead of panicking.
        r.stall_profile().record(end, t0, t0, t0, t0);
        assert_eq!(r.stall_profile().snapshot().lock_wait.count, 2);
        // The exposition includes the stall histograms.
        let text = document(&r, Vec::new()).exposition();
        assert!(text.contains("# TYPE monarch_read_stall_driver_pread_seconds histogram"));
        assert!(text.contains("monarch_read_stall_lock_wait_seconds_count 2"));
    }

    #[test]
    fn registry_snapshot_roundtrip() {
        let r = registry();
        r.stats().record_read(0, 10);
        r.read_latency(0).record(5_000);
        r.event(EventKind::CopyScheduled {
            file: "f".into(),
            bytes: 10,
        });
        let files = gauge(
            "monarch_tier_files",
            "Files resident per tier.",
            &[("tier", "ssd")],
            3.0,
        );
        let snap = document(&r, vec![files]);
        assert_eq!(snap.tier_names, vec!["ssd", "pfs"]);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.gauges[0].value, 3.0);
        assert_eq!(snap.stats.tiers[0].reads, 1);
        assert_eq!(snap.read_latency[0].count, 1);
        assert_eq!(snap.events_recorded, 1);
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn disabled_registry_keeps_journal_off() {
        let cfg = TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        };
        let r = TelemetryRegistry::new(
            vec!["ssd".into(), "pfs".into()],
            Arc::new(Stats::new(2)),
            &cfg,
        );
        assert!(!r.is_enabled());
        r.event(EventKind::CopyStarted { file: "f".into() });
        assert!(r.journal().is_empty());
        assert_eq!(r.journal().json_lines(), "");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.max(), 79_999);
    }
}
