//! Telemetry: latency histograms, a copy-lifecycle event journal, and a
//! registry that renders both as JSON and Prometheus-style text.
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
//!   completed/failed), placement decisions and evictions, drainable as
//!   JSON lines;
//! - [`TelemetryRegistry`] — owns the histograms, the journal and the
//!   [`Stats`] counters, and renders a JSON snapshot
//!   ([`TelemetryRegistry::snapshot`]) or Prometheus text exposition
//!   ([`TelemetryRegistry::prometheus_text`]);
//! - [`TimeSeries`] / [`ThroughputSampler`] — the shared time-series
//!   schema used by both the simulator's PFS throughput trace and the
//!   real trainer;
//! - [`GaugeRegistry`] — labeled, interned atomic gauges (per-tier
//!   occupancy/capacity, lane queue depth, in-flight copies) refreshed by
//!   samplers and exported through the same snapshot/exposition paths;
//! - [`StallProfile`] — the read-path stall profiler: four histograms
//!   decomposing each timed read's wall time into lock-wait /
//!   queue-wait / driver-pread / copy-wait buckets.
//!
//! Recording is cheap by construction: histogram recording is a handful of
//! relaxed atomic adds, the journal is an `O(1)` ring append behind a short
//! critical section, and both can be disabled via
//! [`crate::config::TelemetryConfig`], which turns every record call into
//! an early return. What is not cheap next to a warm hit is the clock, so
//! the read path times every read that is not a plain local-tier hit and
//! one such hit in [`TIMED_HIT_PERIOD`], recorded at that weight
//! ([`LatencyHistogram::record_n`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::health::{HealthRegistry, TierState};
use crate::hierarchy::StorageHierarchy;
use crate::metadata::MetadataContainer;
use crate::policy::PolicyEngine;
use crate::pool::Lane;
use crate::stats::Stats;
use crate::stripe::Striped;
use crate::TierId;

// ---------------------------------------------------------------------------
// Log-linear latency histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power-of-two range: 16 → worst-case relative bucket
/// width 1/16, so quantile estimates are within ~6.25% of exact.
const SUB_BUCKETS: u64 = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Values below this are counted exactly (one bucket per value).
const LINEAR_MAX: u64 = SUB_BUCKETS;
/// Total bucket count: 16 exact + 16 per octave for octaves 4..=63.
const NUM_BUCKETS: usize = (LINEAR_MAX + (64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// Bucket index for `value` (log-linear layout).
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        value as usize
    } else {
        // Highest set bit; >= SUB_BITS because value >= LINEAR_MAX.
        let msb = 63 - value.leading_zeros();
        let group = msb - SUB_BITS;
        let sub = (value >> group) - SUB_BUCKETS; // 0..SUB_BUCKETS
        (LINEAR_MAX + u64::from(group) * SUB_BUCKETS + sub) as usize
    }
}

/// Inclusive `(low, high)` value range covered by bucket `idx`.
#[inline]
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < LINEAR_MAX {
        (idx, idx)
    } else {
        let group = (idx - LINEAR_MAX) / SUB_BUCKETS;
        let sub = (idx - LINEAR_MAX) % SUB_BUCKETS;
        let low = (SUB_BUCKETS + sub) << group;
        let width = 1u64 << group;
        // `low + (width - 1)`: the top bucket's high is exactly u64::MAX,
        // so adding width first would overflow.
        (low, low + (width - 1))
    }
}

/// One stripe of a [`LatencyHistogram`]: the bucket array plus the two
/// scalars that cannot be derived from it.
struct HistStripe {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistStripe {
    fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// All stripes of a histogram folded into one bucket array — what the
/// quantile and cumulative-count queries run on.
struct Merged {
    buckets: Vec<u64>,
    max: u64,
}

impl Merged {
    fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    fn count_le(&self, bound: u64) -> u64 {
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            let (low, high) = bucket_bounds(idx);
            if high <= bound {
                cum += c;
            } else if low > bound {
                break;
            }
        }
        cum
    }
}

/// Lock-free log-linear latency histogram.
///
/// Values are dimensionless `u64`s; the middleware records nanoseconds, the
/// simulator records virtual-time nanoseconds. The histogram is *striped*
/// (see the `stripe` module): each recording thread adds to its own copy of
/// the buckets — one bucket plus the running sum, relaxed atomics, no cache
/// line shared with another reader — and every query folds the copies
/// together. Copies are allocated on first record, so an unused histogram
/// costs a few words. Quantile estimates return the upper bound of the
/// containing bucket, so they are exact to within one bucket (≤ 1/16
/// relative error above 16).
#[derive(Default)]
pub struct LatencyHistogram {
    stripes: Striped<HistStripe>,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` observations of `value` — one sampled observation
    /// standing for `n`, so that count and sum estimate the totals of the
    /// population it was drawn from.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        let s = self.stripes.local(HistStripe::new);
        s.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        s.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        // A new maximum is rare; the load keeps the common case read-only.
        if value > s.max.load(Ordering::Relaxed) {
            s.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Record a wall-clock duration, in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record_duration_n(d, 1);
    }

    /// [`Self::record_n`] of a wall-clock duration, in nanoseconds.
    #[inline]
    pub fn record_duration_n(&self, d: Duration, n: u64) {
        self.record_n(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX), n);
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .flat_map(|s| s.buckets.iter())
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.max.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Mean recorded value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    fn merged(&self) -> Merged {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        for s in self.stripes.iter() {
            for (total, b) in buckets.iter_mut().zip(&s.buckets) {
                *total += b.load(Ordering::Relaxed);
            }
        }
        Merged {
            buckets,
            max: self.max(),
        }
    }

    /// Estimate of the `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket containing the target rank, clamped to the observed maximum.
    /// Within one bucket of the exact order statistic.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        self.merged().quantile(q)
    }

    /// Count of observations `<= bound` nanoseconds, for Prometheus-style
    /// cumulative `_bucket{le="..."}` exposition. Quantized to the
    /// log-linear grid: only whole buckets whose upper bound is within
    /// `bound` are counted, so the result can undercount by at most the
    /// population of the partially-covered bucket (≤ 1/16 relative width).
    #[must_use]
    pub fn count_le(&self, bound: u64) -> u64 {
        self.merged().count_le(bound)
    }

    /// Fold another histogram's counts into this one (into the calling
    /// thread's stripe).
    pub fn merge(&self, other: &LatencyHistogram) {
        let mine = self.stripes.local(HistStripe::new);
        for theirs in other.stripes.iter() {
            for (m, t) in mine.buckets.iter().zip(&theirs.buckets) {
                let v = t.load(Ordering::Relaxed);
                if v != 0 {
                    m.fetch_add(v, Ordering::Relaxed);
                }
            }
        }
        mine.sum.fetch_add(other.sum(), Ordering::Relaxed);
        mine.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Immutable summary for reporting.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let merged = self.merged();
        let (count, sum) = (merged.count(), self.sum());
        HistogramSnapshot {
            count,
            sum_nanos: sum,
            max_nanos: merged.max,
            mean_nanos: sum.checked_div(count).unwrap_or(0),
            p50_nanos: merged.quantile(0.50),
            p90_nanos: merged.quantile(0.90),
            p99_nanos: merged.quantile(0.99),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("max", &self.max())
            .finish()
    }
}

/// Summary of one [`LatencyHistogram`]. All values are in the histogram's
/// recording unit (nanoseconds for the real middleware and the simulator's
/// virtual clock alike).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum_nanos: u64,
    /// Largest observation.
    pub max_nanos: u64,
    /// Mean observation.
    pub mean_nanos: u64,
    /// Median estimate (within one bucket).
    pub p50_nanos: u64,
    /// 90th-percentile estimate.
    pub p90_nanos: u64,
    /// 99th-percentile estimate.
    pub p99_nanos: u64,
}

// ---------------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------------

/// A structured telemetry event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", tag = "event")]
pub enum EventKind {
    /// A background copy was handed to the pool.
    CopyScheduled {
        /// Logical file name.
        file: String,
        /// File size in bytes.
        bytes: u64,
    },
    /// A pool worker began executing the copy.
    CopyStarted {
        /// Logical file name.
        file: String,
    },
    /// The copy installed the file on `tier`.
    CopyCompleted {
        /// Logical file name.
        file: String,
        /// Destination tier.
        tier: TierId,
        /// Bytes written.
        bytes: u64,
        /// Copy duration, microseconds (wall clock or virtual).
        micros: u64,
    },
    /// The copy failed; quota was released and metadata reverted.
    CopyFailed {
        /// Logical file name.
        file: String,
        /// Failure description.
        reason: String,
    },
    /// The placement policy chose a destination tier.
    PlacementDecided {
        /// Logical file name.
        file: String,
        /// Chosen tier.
        tier: TierId,
        /// Tier quota bytes in use after the reservation.
        used: u64,
        /// Tier quota capacity in bytes.
        capacity: u64,
    },
    /// No tier had room; the file stays on the PFS.
    PlacementSkipped {
        /// Logical file name.
        file: String,
        /// Why placement was skipped.
        reason: String,
    },
    /// A file was evicted from a tier (ablation policies only).
    Evicted {
        /// Logical file name.
        file: String,
        /// Tier the file was evicted from.
        tier: TierId,
        /// File size in bytes.
        bytes: u64,
    },
    /// A file was removed from a tier for a non-eviction reason
    /// (failed-copy cleanup, teardown).
    Removed {
        /// Logical file name.
        file: String,
        /// Tier the file was removed from.
        tier: TierId,
    },
    /// A prefetch copy was issued from an access plan (the prefetch-lane
    /// analogue of `copy_scheduled`).
    PrefetchScheduled {
        /// Logical file name.
        file: String,
        /// File size in bytes.
        bytes: u64,
    },
    /// A demand read arrived for a file whose prefetch copy was still
    /// queued; the job was promoted to the demand lane instead of
    /// enqueueing a duplicate.
    PrefetchPromoted {
        /// Logical file name.
        file: String,
    },
    /// A queued prefetch copy was canceled before running (its plan was
    /// replaced or dropped).
    PrefetchCanceled {
        /// Logical file name.
        file: String,
    },
    /// A copy-pool worker thread could not be joined at shutdown (it died
    /// of a panic outside the per-task catch). `file` carries the worker's
    /// thread name.
    WorkerJoinFailed {
        /// Worker thread name (reported in the journal's file column).
        file: String,
    },
    /// The transfer engine's drain withdrew queued prefetch copies before
    /// joining its workers (the per-file cancels precede this summary).
    PrefetchDrained {
        /// Number of queued prefetch copies withdrawn.
        canceled: u64,
    },
    /// A remote-lane install was scheduled: a peer served the file's bytes
    /// node-to-node and the install stages them locally (the peer-cache
    /// analogue of `copy_scheduled`).
    RemoteScheduled {
        /// Logical file name.
        file: String,
        /// File size in bytes.
        bytes: u64,
        /// Owning peer's node id.
        peer: u64,
    },
    /// A remote read exceeded its deadline (peer slow or down); the job
    /// fell back to copying from the PFS source instead of aborting.
    /// Distinct from `copy_failed` so peer slowness is attributable.
    RemoteTimeout {
        /// Logical file name.
        file: String,
        /// What timed out.
        reason: String,
    },
    /// A tier crossed the quarantine threshold (permanent error, too many
    /// consecutive failures, or error-rate EWMA); placement skips it and
    /// reads of its resident files fall back down-hierarchy.
    TierQuarantined {
        /// Quarantined tier.
        tier: TierId,
        /// What pushed it over (error class / threshold description).
        reason: String,
    },
    /// A half-open probe ran against a quarantined tier.
    TierProbed {
        /// Probed tier.
        tier: TierId,
        /// Whether the probe I/O succeeded.
        ok: bool,
    },
    /// A quarantined tier was re-admitted after a successful probe.
    TierRecovered {
        /// Recovered tier.
        tier: TierId,
    },
    /// A copy aimed at a now-quarantined tier was requeued (placement
    /// re-run against the healthy tiers) instead of failing outright.
    CopyRequeued {
        /// Logical file name.
        file: String,
        /// Why the original target was abandoned.
        reason: String,
    },
    /// A dead copy's tier-capacity reservation was reclaimed during
    /// panic-revert cleanup (quota released, metadata already reverted).
    ReservationReclaimed {
        /// Logical file name.
        file: String,
        /// Tier whose quota was released.
        tier: TierId,
        /// Bytes released.
        bytes: u64,
    },
    /// A policy verdict at one of the engine's four decision points
    /// (demand admit, prefetch admit, pressure/ENOSPC evict, plan evict).
    PolicyDecision {
        /// Logical file name the verdict applies to.
        file: String,
        /// Decision point (`demand_admit` / `prefetch_admit` /
        /// `pressure_evict` / `plan_evict`).
        point: String,
        /// Composed policy name (`admission/eviction/scorer`).
        policy: String,
        /// Verdict: `admit`, `deny`, or `evict`.
        verdict: String,
        /// Why (cause attribution for `monarch report`).
        reason: String,
    },
}

impl EventKind {
    /// The snake_case tag used in JSON lines and displays.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::CopyScheduled { .. } => "copy_scheduled",
            EventKind::CopyStarted { .. } => "copy_started",
            EventKind::CopyCompleted { .. } => "copy_completed",
            EventKind::CopyFailed { .. } => "copy_failed",
            EventKind::PlacementDecided { .. } => "placement_decided",
            EventKind::PlacementSkipped { .. } => "placement_skipped",
            EventKind::Evicted { .. } => "evicted",
            EventKind::Removed { .. } => "removed",
            EventKind::PrefetchScheduled { .. } => "prefetch_scheduled",
            EventKind::PrefetchPromoted { .. } => "prefetch_promoted",
            EventKind::PrefetchCanceled { .. } => "prefetch_canceled",
            EventKind::WorkerJoinFailed { .. } => "worker_join_failed",
            EventKind::PrefetchDrained { .. } => "prefetch_drained",
            EventKind::RemoteScheduled { .. } => "remote_scheduled",
            EventKind::RemoteTimeout { .. } => "remote_timeout",
            EventKind::TierQuarantined { .. } => "tier_quarantined",
            EventKind::TierProbed { .. } => "tier_probed",
            EventKind::TierRecovered { .. } => "tier_recovered",
            EventKind::CopyRequeued { .. } => "copy_requeued",
            EventKind::ReservationReclaimed { .. } => "reservation_reclaimed",
            EventKind::PolicyDecision { .. } => "policy_decision",
        }
    }

    /// Logical file name the event refers to.
    #[must_use]
    pub fn file(&self) -> &str {
        match self {
            EventKind::CopyScheduled { file, .. }
            | EventKind::CopyStarted { file }
            | EventKind::CopyCompleted { file, .. }
            | EventKind::CopyFailed { file, .. }
            | EventKind::PlacementDecided { file, .. }
            | EventKind::PlacementSkipped { file, .. }
            | EventKind::Evicted { file, .. }
            | EventKind::Removed { file, .. }
            | EventKind::PrefetchScheduled { file, .. }
            | EventKind::PrefetchPromoted { file }
            | EventKind::PrefetchCanceled { file }
            | EventKind::WorkerJoinFailed { file }
            | EventKind::RemoteScheduled { file, .. }
            | EventKind::RemoteTimeout { file, .. }
            | EventKind::CopyRequeued { file, .. }
            | EventKind::ReservationReclaimed { file, .. }
            | EventKind::PolicyDecision { file, .. } => file,
            // Drain summaries and tier-health transitions are not about
            // any one file.
            EventKind::PrefetchDrained { .. }
            | EventKind::TierQuarantined { .. }
            | EventKind::TierProbed { .. }
            | EventKind::TierRecovered { .. } => "",
        }
    }
}

/// One journal entry: a sequence number, a timestamp (microseconds since
/// registry creation — wall clock in the middleware, virtual time in the
/// simulator) and the event payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Monotonic sequence number (global across the journal's lifetime,
    /// including events later overwritten by the ring).
    pub seq: u64,
    /// Microseconds since the registry was created.
    pub t_us: u64,
    /// The event payload.
    #[serde(flatten)]
    pub kind: EventKind,
}

/// Append a JSON string literal (with escaping) to `out`. Shared with
/// the trace exporter so both hand-rolled emitters escape identically.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Render the event as one JSON object (no trailing newline). This is
    /// hand-rolled so the FFI/CLI drain path has no serializer dependency;
    /// the schema matches the `serde` derive on this type.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut o = String::with_capacity(96);
        o.push_str("{\"seq\":");
        o.push_str(&self.seq.to_string());
        o.push_str(",\"t_us\":");
        o.push_str(&self.t_us.to_string());
        o.push_str(",\"event\":\"");
        o.push_str(self.kind.tag());
        o.push_str("\",\"file\":");
        push_json_str(&mut o, self.kind.file());
        match &self.kind {
            EventKind::CopyScheduled { bytes, .. } | EventKind::PrefetchScheduled { bytes, .. } => {
                o.push_str(&format!(",\"bytes\":{bytes}"));
            }
            EventKind::CopyStarted { .. }
            | EventKind::PrefetchPromoted { .. }
            | EventKind::PrefetchCanceled { .. }
            | EventKind::WorkerJoinFailed { .. } => {}
            EventKind::CopyCompleted {
                tier,
                bytes,
                micros,
                ..
            } => {
                o.push_str(&format!(
                    ",\"tier\":{tier},\"bytes\":{bytes},\"micros\":{micros}"
                ));
            }
            EventKind::CopyFailed { reason, .. }
            | EventKind::PlacementSkipped { reason, .. }
            | EventKind::RemoteTimeout { reason, .. }
            | EventKind::CopyRequeued { reason, .. } => {
                o.push_str(",\"reason\":");
                push_json_str(&mut o, reason);
            }
            EventKind::TierQuarantined { tier, reason } => {
                o.push_str(&format!(",\"tier\":{tier},\"reason\":"));
                push_json_str(&mut o, reason);
            }
            EventKind::TierProbed { tier, ok } => {
                o.push_str(&format!(",\"tier\":{tier},\"ok\":{ok}"));
            }
            EventKind::TierRecovered { tier } => {
                o.push_str(&format!(",\"tier\":{tier}"));
            }
            EventKind::ReservationReclaimed { tier, bytes, .. } => {
                o.push_str(&format!(",\"tier\":{tier},\"bytes\":{bytes}"));
            }
            EventKind::RemoteScheduled { bytes, peer, .. } => {
                o.push_str(&format!(",\"bytes\":{bytes},\"peer\":{peer}"));
            }
            EventKind::PlacementDecided {
                tier,
                used,
                capacity,
                ..
            } => {
                o.push_str(&format!(
                    ",\"tier\":{tier},\"used\":{used},\"capacity\":{capacity}"
                ));
            }
            EventKind::Evicted { tier, bytes, .. } => {
                o.push_str(&format!(",\"tier\":{tier},\"bytes\":{bytes}"));
            }
            EventKind::Removed { tier, .. } => {
                o.push_str(&format!(",\"tier\":{tier}"));
            }
            EventKind::PrefetchDrained { canceled } => {
                o.push_str(&format!(",\"canceled\":{canceled}"));
            }
            EventKind::PolicyDecision {
                point,
                policy,
                verdict,
                reason,
                ..
            } => {
                o.push_str(",\"point\":");
                push_json_str(&mut o, point);
                o.push_str(",\"policy\":");
                push_json_str(&mut o, policy);
                o.push_str(",\"verdict\":");
                push_json_str(&mut o, verdict);
                o.push_str(",\"reason\":");
                push_json_str(&mut o, reason);
            }
        }
        o.push('}');
        o
    }
}

/// Bounded ring-buffer journal of [`Event`]s.
///
/// Appends are `O(1)`: under the (short) lock the ring pops its oldest
/// entry when full and pushes the new one. When disabled, `record` is a
/// single relaxed atomic load.
pub struct EventJournal {
    enabled: AtomicBool,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    buf: Mutex<VecDeque<Event>>,
}

impl EventJournal {
    /// A journal keeping at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize, enabled: bool) -> Self {
        let capacity = capacity.max(1);
        Self {
            enabled: AtomicBool::new(enabled),
            capacity,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
        }
    }

    /// Whether recording is currently enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable recording at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Maximum events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events recorded over the journal's lifetime (including overwritten
    /// ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events overwritten by the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.lock().expect("journal lock").len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an event stamped `t_us` microseconds.
    pub fn record_at(&self, t_us: u64, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        let mut buf = self.buf.lock().expect("journal lock");
        // Sequence assigned under the lock so buffered events are strictly
        // ordered by seq.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(Event { seq, t_us, kind });
    }

    /// Copy out the buffered events, oldest first (non-destructive).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .expect("journal lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Remove and return the buffered events, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        self.buf.lock().expect("journal lock").drain(..).collect()
    }

    /// Render the buffered events as JSON lines (one object per line,
    /// oldest first), leaving the journal intact.
    #[must_use]
    pub fn json_lines(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96);
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&e.to_json_line());
        }
        out
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Time series
// ---------------------------------------------------------------------------

/// A `(seconds, value)` series — the shared schema for throughput traces
/// emitted by the simulator (virtual seconds) and the real trainer
/// (wall-clock seconds). Serializes as a bare array of pairs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TimeSeries(pub Vec<(f64, f64)>);

impl TimeSeries {
    /// An empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `(seconds, value)` sample.
    pub fn push(&mut self, t_secs: f64, value: f64) {
        self.0.push((t_secs, value));
    }

    /// The raw samples.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.0
    }

    /// Largest sampled value (0 when empty).
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.0.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }
}

impl std::ops::Deref for TimeSeries {
    type Target = Vec<(f64, f64)>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = &'a (f64, f64);
    type IntoIter = std::slice::Iter<'a, (f64, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for TimeSeries {
    type Item = (f64, f64);
    type IntoIter = std::vec::IntoIter<(f64, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl From<Vec<(f64, f64)>> for TimeSeries {
    fn from(v: Vec<(f64, f64)>) -> Self {
        Self(v)
    }
}

/// Turns a monotonically increasing byte counter into a rate
/// [`TimeSeries`]: feed it `(t_secs, cumulative_bytes)` observations and it
/// emits one `(t, bytes/s)` sample per elapsed `interval`.
#[derive(Debug, Clone)]
pub struct ThroughputSampler {
    interval: f64,
    last_t: f64,
    last_v: u64,
    series: TimeSeries,
}

impl ThroughputSampler {
    /// Sample every `interval` seconds.
    #[must_use]
    pub fn new(interval: f64) -> Self {
        Self {
            interval: interval.max(f64::MIN_POSITIVE),
            last_t: 0.0,
            last_v: 0,
            series: TimeSeries::new(),
        }
    }

    /// Observe the cumulative counter at time `t_secs`; emits a sample when
    /// at least one interval has elapsed since the previous emission.
    pub fn observe(&mut self, t_secs: f64, cumulative: u64) {
        if t_secs - self.last_t >= self.interval {
            self.force_sample(t_secs, cumulative);
        }
    }

    /// Emit a sample now regardless of the interval (used by the
    /// simulator's scheduled trace ticks).
    pub fn force_sample(&mut self, t_secs: f64, cumulative: u64) {
        let dt = t_secs - self.last_t;
        if dt > 0.0 {
            let rate = cumulative.saturating_sub(self.last_v) as f64 / dt;
            self.series.push(t_secs, rate);
        }
        self.last_t = t_secs;
        self.last_v = cumulative;
    }

    /// The series collected so far.
    #[must_use]
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consume the sampler, returning the series.
    #[must_use]
    pub fn into_series(self) -> TimeSeries {
        self.series
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// Escape a Prometheus label value: `\`, `"` and newline must be
/// backslash-escaped per the text exposition format. Returns the input
/// unchanged (borrowed) when no escaping is needed — the common case for
/// tier and lane names.
fn escape_label_value(v: &str) -> std::borrow::Cow<'_, str> {
    if !v.contains(['\\', '"', '\n']) {
        return std::borrow::Cow::Borrowed(v);
    }
    let mut out = String::with_capacity(v.len() + 4);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// A single atomic gauge cell: an *instantaneous* value (tier occupancy
/// bytes, queue depth, reads in flight) that samplers overwrite or adjust,
/// unlike the monotone counters in [`Stats`].
///
/// The cell stores an `f64` bit pattern in one atomic word so integer and
/// floating-point quantities share a type; the integer helpers are exact up
/// to 2^53, far beyond any byte or queue count the middleware tracks.
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge holding 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Overwrite with an integer value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.set_f64(v as f64);
    }

    /// Overwrite with a floating-point value.
    #[inline]
    pub fn set_f64(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add a (possibly negative) integer delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.add_f64(delta as f64);
    }

    /// Add a (possibly negative) floating-point delta.
    pub fn add_f64(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value, rounded to the nearest integer.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.get_f64() as i64
    }

    /// Current value.
    #[must_use]
    pub fn get_f64(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get_f64()).finish()
    }
}

/// Ordered `(key, value)` label pairs identifying one cell in a family.
type LabelSet = Vec<(String, String)>;

/// One gauge family: a metric name, its help text, and the labeled cells
/// registered under it (insertion-ordered for stable exposition output).
struct GaugeFamily {
    name: String,
    help: String,
    members: Vec<(LabelSet, Arc<Gauge>)>,
}

/// An interning registry of labeled gauge families.
///
/// [`GaugeRegistry::gauge`] returns the *same* [`Gauge`] cell for repeated
/// calls with the same name and labels, so producers (the engine's sampler,
/// the middleware's read path, the simulator) can resolve their cells once
/// and update them with plain atomic stores. Families and cells render in
/// registration order, which keeps the Prometheus text stable across
/// scrapes.
#[derive(Default)]
pub struct GaugeRegistry {
    families: Mutex<Vec<GaugeFamily>>,
}

impl GaugeRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the cell `name{labels}`, registering the family (with
    /// `help`) on first use. Label order is significant and preserved.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut families = self.families.lock().expect("gauge registry lock");
        let fam = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(GaugeFamily {
                    name: name.to_owned(),
                    help: help.to_owned(),
                    members: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some((_, g)) = fam.members.iter().find(|(ls, _)| {
            ls.len() == labels.len()
                && ls
                    .iter()
                    .zip(labels.iter())
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        }) {
            return Arc::clone(g);
        }
        let cell = Arc::new(Gauge::new());
        let ls: LabelSet = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        fam.members.push((ls, Arc::clone(&cell)));
        cell
    }

    /// Number of distinct cells across all families.
    #[must_use]
    pub fn len(&self) -> usize {
        self.families
            .lock()
            .expect("gauge registry lock")
            .iter()
            .map(|f| f.members.len())
            .sum()
    }

    /// True when no cell has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current value of every cell, for the JSON snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Vec<GaugeSnapshot> {
        let families = self.families.lock().expect("gauge registry lock");
        families
            .iter()
            .flat_map(|f| {
                f.members.iter().map(|(ls, g)| GaugeSnapshot {
                    name: f.name.clone(),
                    labels: ls.clone(),
                    value: g.get_f64(),
                })
            })
            .collect()
    }

    /// Append the Prometheus text exposition of every family to `out`.
    pub(crate) fn render_into(&self, out: &mut String) {
        let families = self.families.lock().expect("gauge registry lock");
        for fam in families.iter() {
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} gauge\n",
                fam.name, fam.help, fam.name
            ));
            for (labels, g) in &fam.members {
                if labels.is_empty() {
                    out.push_str(&format!("{} {}\n", fam.name, g.get_f64()));
                } else {
                    let rendered: Vec<String> = labels
                        .iter()
                        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                        .collect();
                    out.push_str(&format!(
                        "{}{{{}}} {}\n",
                        fam.name,
                        rendered.join(","),
                        g.get_f64()
                    ));
                }
            }
        }
    }
}

impl std::fmt::Debug for GaugeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaugeRegistry")
            .field("cells", &self.len())
            .finish()
    }
}

/// One gauge cell in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Family name, e.g. `monarch_tier_occupancy_bytes`.
    pub name: String,
    /// Ordered `(key, value)` label pairs (empty for unlabeled gauges).
    #[serde(default)]
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: f64,
}

/// A striped up/down counter for "in flight" quantities the hit path
/// maintains (open read handles). Entering and leaving touch only the
/// calling thread's stripe; [`InFlight::get`] sums the stripes, and a
/// sampler publishes that sum through an ordinary [`Gauge`] cell.
#[derive(Default)]
pub struct InFlight {
    stripes: Striped<AtomicI64>,
}

impl InFlight {
    /// Count one more in flight now; the matching decrement runs when the
    /// guard drops, so the count stays balanced across early returns.
    #[must_use]
    pub fn enter(&self) -> GaugeGuard<'_> {
        let cell = self.stripes.local(AtomicI64::default);
        cell.fetch_add(1, Ordering::Relaxed);
        GaugeGuard { cell }
    }

    /// How many are in flight right now.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.stripes.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for InFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("InFlight").field(&self.get()).finish()
    }
}

/// RAII guard returned by [`InFlight::enter`]: decrements, on drop, the
/// stripe it incremented.
#[derive(Debug)]
pub struct GaugeGuard<'a> {
    cell: &'a AtomicI64,
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.cell.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Read-path stall profiler
// ---------------------------------------------------------------------------

/// One plain local-tier hit in this many, per reader stripe, carries the
/// clock and is recorded with this weight; every other read that carries
/// it — any read that is not such a hit — is recorded with weight 1. The
/// time records ([`StallProfile`], the per-tier read-latency histograms,
/// the profiler's ledger) therefore estimate the totals over *all* reads,
/// while a hit that does not carry the clock pays for counts only. 8, 16
/// and 32 were measured (CHANGES.md, PR 19: `warm_rand_4k` at 1.71, 1.67
/// and 1.64 times a bare `pread`, from 2.35 with every hit timed): each
/// doubling buys half of what the last did, and samples a stripe's hits
/// half as densely.
pub const TIMED_HIT_PERIOD: u64 = 16;

/// Read-path stall decomposition: four histograms partitioning each timed
/// read's wall time into consecutive phases.
///
/// - `lock_wait` — entry to metadata-lookup completion (shard lock plus
///   namespace lookup);
/// - `queue_wait` — access bookkeeping until the serving tier is resolved
///   (the engine's window/cursor critical sections);
/// - `driver_pread` — the backend `read_at` itself;
/// - `copy_wait` — post-read copy machinery (demand hand-off, prefetch
///   cursor advance, span recording).
///
/// The four buckets are measured from one monotonic-clock chain, so their
/// sum equals the read's wall time up to clock-read cost — the invariant
/// the e2e test checks.
#[derive(Debug, Default)]
pub struct StallProfile {
    /// Lock/lookup phase durations.
    pub lock_wait: LatencyHistogram,
    /// Pre-pread bookkeeping durations.
    pub queue_wait: LatencyHistogram,
    /// Backend pread durations.
    pub driver_pread: LatencyHistogram,
    /// Post-pread copy-machinery durations.
    pub copy_wait: LatencyHistogram,
    /// Wall time of reads served down-hierarchy because the resident tier
    /// was failing or quarantined. **Not** part of the four-bucket wall
    /// partition above — these reads record their phase buckets normally;
    /// this histogram tracks the same reads' total wall time separately so
    /// degradation cost is attributable.
    pub degraded_fallback: LatencyHistogram,
}

impl StallProfile {
    /// Record one timed read from its phase boundary instants. Diffs are
    /// saturating, so an out-of-order pair records 0 instead of panicking.
    pub fn record(
        &self,
        t0: Instant,
        lookup: Instant,
        resolve: Instant,
        pread: Instant,
        end: Instant,
    ) {
        self.record_n([t0, lookup, resolve, pread, end], 1);
    }

    /// [`Self::record`] of a read that stands for `n` (see
    /// [`TIMED_HIT_PERIOD`]); `marks` are the five instants in order.
    pub fn record_n(&self, marks: [Instant; 5], n: u64) {
        let buckets = [
            &self.lock_wait,
            &self.queue_wait,
            &self.driver_pread,
            &self.copy_wait,
        ];
        for (bucket, phase) in buckets.into_iter().zip(marks.windows(2)) {
            bucket.record_duration_n(phase[1].saturating_duration_since(phase[0]), n);
        }
    }

    /// Record the wall time of one degraded-fallback read (resident tier
    /// failing, bytes served from a lower tier).
    pub fn record_degraded(&self, wall: Duration) {
        self.degraded_fallback.record_duration(wall);
    }

    /// Immutable summary of all buckets.
    #[must_use]
    pub fn snapshot(&self) -> StallProfileSnapshot {
        StallProfileSnapshot {
            lock_wait: self.lock_wait.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            driver_pread: self.driver_pread.snapshot(),
            copy_wait: self.copy_wait.snapshot(),
            degraded_fallback: self.degraded_fallback.snapshot(),
        }
    }
}

/// Serializable summary of a [`StallProfile`] — the `stall_profile` section
/// of the JSON snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallProfileSnapshot {
    /// Lock/lookup phase summary.
    pub lock_wait: HistogramSnapshot,
    /// Pre-pread bookkeeping summary.
    pub queue_wait: HistogramSnapshot,
    /// Backend pread summary.
    pub driver_pread: HistogramSnapshot,
    /// Post-pread copy-machinery summary.
    pub copy_wait: HistogramSnapshot,
    /// Degraded-fallback read wall time (outside the four-bucket wall
    /// partition; see [`StallProfile::degraded_fallback`]).
    #[serde(default)]
    pub degraded_fallback: HistogramSnapshot,
}

/// What a sampler saw of the copy pipeline at one instant — the part of
/// [`TelemetryRegistry::publish_gauges`]'s input that the real engine reads
/// off its pool and the simulator off its virtual one.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSample {
    /// Copies queued (not yet started) per lane; build it with
    /// [`PipelineSample::queued_by`], which owns the order.
    pub queued: [usize; 3],
    /// Copies executing on pool workers.
    pub running: usize,
    /// The prefetch window; `None` when prefetching is off, which leaves
    /// the `monarch_prefetch_*` families unpublished.
    pub prefetch: Option<PrefetchSample>,
    /// The engine has begun shutting down.
    pub draining: bool,
}

/// The lanes a [`PipelineSample`] reports, with their `lane` label values.
const LANES: [(Lane, &str); 3] = [
    (Lane::Demand, "demand"),
    (Lane::Remote, "remote"),
    (Lane::Prefetch, "prefetch"),
];

impl PipelineSample {
    /// [`PipelineSample::queued`] from a per-lane depth query.
    #[must_use]
    pub fn queued_by(depth: impl Fn(Lane) -> usize) -> [usize; 3] {
        LANES.map(|(lane, _)| depth(lane))
    }
}

/// The prefetch window's part of a [`PipelineSample`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchSample {
    /// Prefetch copies issued and not yet resolved.
    pub copies: u64,
    /// Their bytes.
    pub bytes: u64,
    /// Plan entries issued ahead of the read cursor.
    pub lag_entries: u64,
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The telemetry registry: owns the middleware's histograms, event journal
/// and [`Stats`] counters, and renders them for export.
///
/// One registry is shared by a [`crate::Monarch`] instance and everything
/// it spawns (drivers, copy pool); the `dlpipe` simulator builds its own
/// over the same types so both emit identical schemas.
pub struct TelemetryRegistry {
    tier_names: Vec<String>,
    enabled: bool,
    stats: Arc<Stats>,
    read_latency: Vec<Arc<LatencyHistogram>>,
    write_latency: Vec<Arc<LatencyHistogram>>,
    copy_duration: Arc<LatencyHistogram>,
    queue_wait: Arc<LatencyHistogram>,
    queue_wait_remote: Arc<LatencyHistogram>,
    queue_wait_prefetch: Arc<LatencyHistogram>,
    pool_exec: Arc<LatencyHistogram>,
    stall: StallProfile,
    gauges: GaugeRegistry,
    reads_in_flight: InFlight,
    local_hits: Striped<AtomicU64>,
    journal: EventJournal,
    trace: Arc<crate::trace::TraceRecorder>,
    observe: crate::observe::Observatory,
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
        Self {
            tier_names,
            enabled: cfg.enabled,
            stats,
            read_latency: (0..levels)
                .map(|_| Arc::new(LatencyHistogram::new()))
                .collect(),
            write_latency: (0..levels)
                .map(|_| Arc::new(LatencyHistogram::new()))
                .collect(),
            copy_duration: Arc::new(LatencyHistogram::new()),
            queue_wait: Arc::new(LatencyHistogram::new()),
            queue_wait_remote: Arc::new(LatencyHistogram::new()),
            queue_wait_prefetch: Arc::new(LatencyHistogram::new()),
            pool_exec: Arc::new(LatencyHistogram::new()),
            stall: StallProfile::default(),
            gauges: GaugeRegistry::new(),
            reads_in_flight: InFlight::default(),
            local_hits: Striped::new(),
            journal: EventJournal::new(cfg.journal_capacity, cfg.enabled && cfg.journal),
            trace: Arc::new(crate::trace::TraceRecorder::new(
                if cfg.enabled {
                    cfg.trace_sample_every_n
                } else {
                    0
                },
                cfg.trace_capacity,
            )),
            observe: crate::observe::Observatory::new(
                cfg.enabled && cfg.profiler,
                levels,
                cfg.profiler_max_files,
                cfg.timeline_capacity,
                files,
            ),
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
        self.micros_at(Instant::now())
    }

    /// `t` on the registry clock: microseconds between the registry's
    /// creation and `t`. Lets a caller that already holds an [`Instant`]
    /// stamp events without reading the clock again.
    #[must_use]
    pub fn micros_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_micros()).unwrap_or(u64::MAX)
    }

    /// Per-tier read-latency histogram.
    #[must_use]
    pub fn read_latency(&self, tier: TierId) -> &Arc<LatencyHistogram> {
        &self.read_latency[tier]
    }

    /// Per-tier write-latency histogram.
    #[must_use]
    pub fn write_latency(&self, tier: TierId) -> &Arc<LatencyHistogram> {
        &self.write_latency[tier]
    }

    /// Background-copy duration histogram.
    #[must_use]
    pub fn copy_duration(&self) -> &Arc<LatencyHistogram> {
        &self.copy_duration
    }

    /// Demand-lane pool queue-wait histogram (submit → task start).
    #[must_use]
    pub fn queue_wait(&self) -> &Arc<LatencyHistogram> {
        &self.queue_wait
    }

    /// Remote-lane pool queue-wait histogram (peer-served installs).
    #[must_use]
    pub fn queue_wait_remote(&self) -> &Arc<LatencyHistogram> {
        &self.queue_wait_remote
    }

    /// Prefetch-lane pool queue-wait histogram. Split from the demand lane
    /// so prefetch backlog (expected — the lane only runs when demand is
    /// empty) cannot be mistaken for demand-path latency.
    #[must_use]
    pub fn queue_wait_prefetch(&self) -> &Arc<LatencyHistogram> {
        &self.queue_wait_prefetch
    }

    /// Pool task-execution histogram.
    #[must_use]
    pub fn pool_exec(&self) -> &Arc<LatencyHistogram> {
        &self.pool_exec
    }

    /// The read-path stall profiler (four phase histograms).
    #[must_use]
    pub fn stall_profile(&self) -> &StallProfile {
        &self.stall
    }

    /// The gauge registry: instantaneous values refreshed by samplers.
    #[must_use]
    pub fn gauges(&self) -> &GaugeRegistry {
        &self.gauges
    }

    /// Reads currently inside `Monarch::read` (striped; see [`InFlight`]).
    #[must_use]
    pub fn reads_in_flight(&self) -> &InFlight {
        &self.reads_in_flight
    }

    /// The plain local-tier hits the calling thread's stripe has served:
    /// the hit that finds this a multiple of [`TIMED_HIT_PERIOD`] carries
    /// the clock, so a stripe's first hit always does.
    #[must_use]
    pub fn local_hits(&self) -> &AtomicU64 {
        self.local_hits.local(AtomicU64::default)
    }

    /// Publish every sampled gauge family — reads in flight, per-tier
    /// occupancy / capacity / files / health, the degraded and draining
    /// flags, per-lane queue depth, jobs in flight and the prefetch window
    /// — from live state. The one producer of these families: the real
    /// instance's [`Sampler`](crate::transfer::Sampler) and the `dlpipe`
    /// simulator both call it, each with its own [`PipelineSample`], so
    /// their snapshots cannot differ in family names, help text or label
    /// sets.
    pub fn publish_gauges(
        &self,
        hierarchy: &StorageHierarchy,
        metadata: &MetadataContainer,
        pipeline: &PipelineSample,
    ) {
        let g = &self.gauges;
        g.gauge(
            "monarch_reads_in_flight",
            "Read operations currently executing inside Monarch::read.",
            &[],
        )
        .set(self.reads_in_flight.get());
        let health = hierarchy.health();
        let files = metadata.residency_histogram(hierarchy.levels());
        for tier in hierarchy.tiers() {
            let labels = &[("tier", tier.name.as_str())];
            if let Some(quota) = tier.quota.as_ref() {
                g.gauge(
                    "monarch_tier_occupancy_bytes",
                    "Bytes resident on the tier (quota accounting).",
                    labels,
                )
                .set(quota.used() as i64);
                g.gauge(
                    "monarch_tier_capacity_bytes",
                    "Configured capacity of the tier in bytes.",
                    labels,
                )
                .set(quota.capacity() as i64);
            }
            g.gauge(
                "monarch_tier_files",
                "Files currently resident on the tier.",
                labels,
            )
            .set(files.get(tier.id).copied().unwrap_or(0) as i64);
            g.gauge(
                "monarch_tier_health_state",
                "Tier health: 0 = closed (healthy), 1 = suspect, 2 = quarantined.",
                labels,
            )
            .set(match health.tier(tier.id).state() {
                TierState::Closed => 0,
                TierState::Suspect => 1,
                TierState::Quarantined => 2,
            });
        }
        g.gauge(
            "monarch_degraded",
            "1 while any tier is quarantined (reads falling back down-hierarchy), else 0.",
            &[],
        )
        .set(i64::from(health.degraded()));
        for ((_, lane), queued) in LANES.into_iter().zip(pipeline.queued) {
            g.gauge(
                "monarch_lane_queued",
                "Copies queued (not yet started) per pool lane.",
                &[("lane", lane)],
            )
            .set(queued as i64);
        }
        g.gauge(
            "monarch_pool_inflight_jobs",
            "Copies currently executing on pool workers.",
            &[],
        )
        .set(pipeline.running as i64);
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
                g.gauge(name, help, &[]).set(value as i64);
            }
        }
        g.gauge(
            "monarch_draining",
            "1 while the transfer engine is shutting down, else 0.",
            &[],
        )
        .set(i64::from(pipeline.draining));
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

    /// The workload observatory: per-file access profiler + residency
    /// timeline (disabled unless `enabled && profiler`).
    #[must_use]
    pub fn observe(&self) -> &crate::observe::Observatory {
        &self.observe
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
    /// gauges as last published, and the sections owned by other parts of
    /// the instance — tier health, the policy engine, the peer cache when
    /// clustered. Everything that reports state (`/snapshot`, the FFI, the
    /// CLI views, the simulator's run report) serialises or projects this.
    #[must_use]
    pub fn snapshot(
        &self,
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
            stall_profile: self.stall.snapshot(),
            gauges: self.gauges.snapshot(),
            events_recorded: self.journal.recorded(),
            events_dropped: self.journal.dropped(),
            spans_recorded: self.trace.spans_recorded(),
            spans_dropped: self.trace.spans_dropped(),
            observe: self.observe.snapshot(),
            cluster: cluster.map(|c| c.snapshot(&stats)),
            health: Some(health.snapshot()),
            policy: Some(policy.snapshot()),
            stats,
        }
    }

    /// Buffered journal events as JSON lines. **Non-destructive**: the
    /// ring keeps its contents, so repeated calls (e.g. `monarch metrics
    /// --watch` ticks, or several FFI consumers) all see the same events.
    #[must_use]
    pub fn events_json(&self) -> String {
        self.journal.json_lines()
    }

    /// Prometheus-style text exposition: counters as `counter` metrics,
    /// latency histograms as `histogram` metrics with cumulative
    /// `_bucket{le="..."}` lines (seconds), so `histogram_quantile()`
    /// works on the scraped series.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let snap = self.stats.snapshot();
        let mut o = String::with_capacity(4096);

        let tier_counter = |o: &mut String, name: &str, help: &str, get: &dyn Fn(usize) -> u64| {
            o.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (i, tname) in self.tier_names.iter().enumerate() {
                let tname = escape_label_value(tname);
                o.push_str(&format!("{name}{{tier=\"{tname}\"}} {}\n", get(i)));
            }
        };
        tier_counter(
            &mut o,
            "monarch_tier_reads_total",
            "Read operations served per tier.",
            &|i| snap.tiers[i].reads,
        );
        tier_counter(
            &mut o,
            "monarch_tier_read_bytes_total",
            "Bytes read per tier.",
            &|i| snap.tiers[i].bytes_read,
        );
        tier_counter(
            &mut o,
            "monarch_tier_writes_total",
            "Write operations (placement copies) per tier.",
            &|i| snap.tiers[i].writes,
        );
        tier_counter(
            &mut o,
            "monarch_tier_written_bytes_total",
            "Bytes written per tier.",
            &|i| snap.tiers[i].bytes_written,
        );
        tier_counter(
            &mut o,
            "monarch_tier_removes_total",
            "Files removed per tier (evictions plus cleanup).",
            &|i| snap.tiers[i].removes,
        );

        let mut scalar = |name: &str, help: &str, v: u64| {
            o.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        for (family, help, value) in snap.counters() {
            scalar(family, help, value);
        }
        let (files_tracked, untracked_reads) = self.observe.profiler().snapshot_counts();
        let timeline = self.observe.timeline();
        for (family, help, value) in [
            (
                "monarch_journal_events_total",
                "Telemetry events recorded.",
                self.journal.recorded(),
            ),
            // Bounded-buffer drops must be visible, not silent.
            (
                "monarch_events_dropped_total",
                "Journal events overwritten by the ring bound.",
                self.journal.dropped(),
            ),
            (
                "monarch_trace_spans_total",
                "Trace spans recorded.",
                self.trace.spans_recorded(),
            ),
            (
                "monarch_trace_spans_dropped_total",
                "Trace spans dropped by the span-ring bound.",
                self.trace.spans_dropped(),
            ),
            (
                "monarch_profile_files_tracked",
                "Distinct files tracked by the access profiler.",
                files_tracked,
            ),
            (
                "monarch_profile_untracked_reads_total",
                "Reads of files past the profiler's tracking bound.",
                untracked_reads,
            ),
            (
                "monarch_residency_transitions_total",
                "Tier-residency transitions recorded.",
                timeline.recorded(),
            ),
            (
                "monarch_residency_transitions_dropped_total",
                "Tier-residency transitions overwritten by the ring bound.",
                timeline.dropped(),
            ),
        ] {
            scalar(family, help, value);
        }

        // Cumulative histogram exposition so PromQL `histogram_quantile()`
        // works. The `le` ladder is in seconds; `count_le` quantizes to
        // the log-linear grid (documented on the method). Internal values
        // are nanoseconds.
        let le_ladder: [(&str, u64); 8] = [
            ("0.000001", 1_000),
            ("0.00001", 10_000),
            ("0.0001", 100_000),
            ("0.001", 1_000_000),
            ("0.01", 10_000_000),
            ("0.1", 100_000_000),
            ("1", 1_000_000_000),
            ("10", 10_000_000_000),
        ];
        let secs = |nanos: u64| nanos as f64 / 1e9;
        let buckets = |o: &mut String, name: &str, tier: Option<&str>, h: &LatencyHistogram| {
            let label = |le: &str| match tier {
                Some(t) => format!("{{tier=\"{}\",le=\"{le}\"}}", escape_label_value(t)),
                None => format!("{{le=\"{le}\"}}"),
            };
            // One fold of the stripes serves the whole ladder.
            let merged = h.merged();
            let count = merged.count();
            for (le, bound) in le_ladder {
                o.push_str(&format!(
                    "{name}_bucket{} {}\n",
                    label(le),
                    merged.count_le(bound)
                ));
            }
            o.push_str(&format!("{name}_bucket{} {count}\n", label("+Inf")));
            let plain = |suffix: &str| match tier {
                Some(t) => format!("{name}_{suffix}{{tier=\"{}\"}}", escape_label_value(t)),
                None => format!("{name}_{suffix}"),
            };
            o.push_str(&format!("{} {}\n", plain("sum"), secs(h.sum())));
            o.push_str(&format!("{} {count}\n", plain("count")));
        };
        let tier_histogram =
            |o: &mut String, name: &str, help: &str, hists: &[Arc<LatencyHistogram>]| {
                o.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
                for (tname, h) in self.tier_names.iter().zip(hists.iter()) {
                    buckets(o, name, Some(tname), h);
                }
            };
        tier_histogram(
            &mut o,
            "monarch_read_latency_seconds",
            "Per-tier read latency.",
            &self.read_latency,
        );
        tier_histogram(
            &mut o,
            "monarch_write_latency_seconds",
            "Per-tier write latency.",
            &self.write_latency,
        );

        let plain_histogram = |o: &mut String, name: &str, help: &str, h: &LatencyHistogram| {
            o.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            buckets(o, name, None, h);
        };
        plain_histogram(
            &mut o,
            "monarch_copy_duration_seconds",
            "Background-copy duration (schedule-to-install).",
            &self.copy_duration,
        );
        plain_histogram(
            &mut o,
            "monarch_pool_queue_wait_seconds",
            "Demand-lane copy-pool queue wait (submit to task start).",
            &self.queue_wait,
        );
        plain_histogram(
            &mut o,
            "monarch_pool_remote_queue_wait_seconds",
            "Remote-lane copy-pool queue wait (submit to task start).",
            &self.queue_wait_remote,
        );
        plain_histogram(
            &mut o,
            "monarch_pool_prefetch_queue_wait_seconds",
            "Prefetch-lane copy-pool queue wait (submit to task start).",
            &self.queue_wait_prefetch,
        );
        plain_histogram(
            &mut o,
            "monarch_pool_exec_seconds",
            "Copy-pool task execution time.",
            &self.pool_exec,
        );
        plain_histogram(
            &mut o,
            "monarch_read_stall_lock_wait_seconds",
            "Sampled-read stall: metadata lock/lookup phase.",
            &self.stall.lock_wait,
        );
        plain_histogram(
            &mut o,
            "monarch_read_stall_queue_wait_seconds",
            "Sampled-read stall: pre-pread bookkeeping phase.",
            &self.stall.queue_wait,
        );
        plain_histogram(
            &mut o,
            "monarch_read_stall_driver_pread_seconds",
            "Sampled-read stall: backend pread phase.",
            &self.stall.driver_pread,
        );
        plain_histogram(
            &mut o,
            "monarch_read_stall_copy_wait_seconds",
            "Sampled-read stall: post-pread copy-machinery phase.",
            &self.stall.copy_wait,
        );
        plain_histogram(
            &mut o,
            "monarch_read_degraded_fallback_seconds",
            "Wall time of reads served down-hierarchy from a failing tier.",
            &self.stall.degraded_fallback,
        );
        self.gauges.render_into(&mut o);
        o
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
/// change it; removing a key or changing a key's type does.
pub const SCHEMA_VERSION: u32 = 1;

/// The instance's one state document, assembled by
/// [`TelemetryRegistry::snapshot`]: `/snapshot`, `monarch_snapshot_json`,
/// `monarch metrics --format json` and the simulator's run report carry it
/// whole; the CLI's `policy` / `health` / `cluster` / `report` views and the
/// FFI's sections are its top-level keys.
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
    /// Instantaneous gauge values at snapshot time (refreshed by the
    /// caller's sampler; empty when no sampler has run).
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
    /// Workload observatory (per-file profiles, time-lost ledger,
    /// residency timeline); absent when the profiler is disabled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub observe: Option<crate::observe::ObserveSnapshot>,
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

#[cfg(test)]
mod tests {
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
        // Drain empties.
        assert_eq!(j.drain().len(), 4);
        assert!(j.is_empty());
    }

    #[test]
    fn journal_disabled_records_nothing() {
        let j = EventJournal::new(4, false);
        j.record_at(0, EventKind::CopyStarted { file: "f".into() });
        assert_eq!(j.recorded(), 0);
        assert!(j.is_empty());
        j.set_enabled(true);
        j.record_at(1, EventKind::CopyStarted { file: "f".into() });
        assert_eq!(j.len(), 1);
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
        j.record_at(13, EventKind::PrefetchCanceled { file: "d".into() });
        j.record_at(
            14,
            EventKind::WorkerJoinFailed {
                file: "monarch-copy-1".into(),
            },
        );
        let lines = j.json_lines();
        let mut it = lines.lines();
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":0,"t_us":5,"event":"copy_scheduled","file":"a/b","bytes":42}"#
        );
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":1,"t_us":9,"event":"copy_completed","file":"a\"b","tier":0,"bytes":7,"micros":3}"#
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
            r#"{"seq":4,"t_us":13,"event":"prefetch_canceled","file":"d"}"#
        );
        assert_eq!(
            it.next().unwrap(),
            r#"{"seq":5,"t_us":14,"event":"worker_join_failed","file":"monarch-copy-1"}"#
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
    fn sampler_emits_rates() {
        let mut s = ThroughputSampler::new(10.0);
        s.observe(5.0, 100); // too early
        assert!(s.series().is_empty());
        s.observe(10.0, 1000);
        assert_eq!(s.series().points().len(), 1);
        let (t, rate) = s.series().points()[0];
        assert!((t - 10.0).abs() < 1e-9);
        assert!((rate - 100.0).abs() < 1e-9);
        s.observe(30.0, 1000); // no new bytes → zero rate
        let (_, rate2) = s.series().points()[1];
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

    #[test]
    fn prometheus_exposition_format() {
        let r = registry();
        r.stats().record_read(0, 100);
        r.stats().record_read(1, 50);
        r.read_latency(0).record(4_000);
        r.copy_duration().record(1_000_000);
        let text = r.prometheus_text();
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
        let g = GaugeRegistry::new();
        let a = g.gauge(
            "monarch_tier_files",
            "Files resident per tier.",
            &[("tier", "ssd")],
        );
        let b = g.gauge(
            "monarch_tier_files",
            "Files resident per tier.",
            &[("tier", "ssd")],
        );
        let c = g.gauge(
            "monarch_tier_files",
            "Files resident per tier.",
            &[("tier", "pfs")],
        );
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(g.len(), 2);
        a.set(7);
        assert_eq!(b.get(), 7);
        b.add(-3);
        assert_eq!(a.get(), 4);
        let in_flight = InFlight::default();
        let guard = in_flight.enter();
        assert_eq!(in_flight.get(), 1);
        drop(guard);
        assert_eq!(in_flight.get(), 0);
        c.set_f64(0.25);
        assert!((c.get_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gauge_exposition_golden_format() {
        // Golden check of the full gauge section, including label-value
        // escaping of backslash, quote, and newline.
        let g = GaugeRegistry::new();
        g.gauge(
            "monarch_tier_occupancy_bytes",
            "Bytes resident per tier.",
            &[("tier", "ssd")],
        )
        .set(1024);
        g.gauge(
            "monarch_tier_occupancy_bytes",
            "Bytes resident per tier.",
            &[("tier", "pfs")],
        )
        .set(0);
        g.gauge("monarch_draining", "1 while the engine is draining.", &[])
            .set(0);
        g.gauge(
            "monarch_mount_info",
            "Mount label escaping probe.",
            &[("path", "a\\b\"c\nd")],
        )
        .set(1);
        let mut out = String::new();
        g.render_into(&mut out);
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
        let _ = r.gauges().gauge(
            "monarch_tier_files",
            "Files resident per tier.",
            &[("tier", "ssd")],
        );
        let text = r.prometheus_text();
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
        let text = r.prometheus_text();
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
        r.gauges()
            .gauge(
                "monarch_tier_files",
                "Files resident per tier.",
                &[("tier", "ssd")],
            )
            .set(3);
        let health = HealthRegistry::new(r.tier_names().to_vec());
        let policy = PolicyEngine::from_kind(Default::default(), Default::default());
        let snap = r.snapshot(&health, &policy, None);
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
        assert_eq!(r.events_json(), "");
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
