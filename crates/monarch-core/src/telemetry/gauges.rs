//! Level metrics: the [`GaugeSnapshot`] a document carries per labelled
//! value, what a sampler reads off the copy pipeline, and the
//! [`TimeSeries`] schema of sampled throughput.

use serde::{Deserialize, Serialize};

use crate::pool::Lane;

// ---------------------------------------------------------------------------
// Time series
// ---------------------------------------------------------------------------

/// A `(seconds, value)` series — the shared schema for throughput traces
/// emitted by the simulator (virtual seconds) and the real trainer
/// (wall-clock seconds). Serializes as a bare array of pairs.
pub type TimeSeries = Vec<(f64, f64)>;

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
            self.series.push((t_secs, rate));
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

/// One labelled gauge value in a
/// [`TelemetrySnapshot`](super::TelemetrySnapshot): an *instantaneous*
/// level (tier occupancy bytes, queue depth, reads in flight), read when
/// the document is assembled, unlike the monotone counters in
/// [`Stats`](crate::stats::Stats).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Family name, e.g. `monarch_tier_occupancy_bytes`.
    pub name: String,
    /// The family's help text, which the exposition prints above it.
    #[serde(default)]
    pub help: String,
    /// Ordered `(key, value)` label pairs (empty for unlabeled gauges).
    #[serde(default)]
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: f64,
}

/// What a sampler saw of the copy pipeline at one instant — the part of
/// [`TelemetryRegistry::gauges`](super::TelemetryRegistry::gauges)'s input
/// that the real engine reads off its pool and the simulator off its
/// virtual one.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSample {
    /// Copies queued (not yet started) per lane; build it with
    /// [`PipelineSample::queued_by`], which owns the order.
    pub queued: [usize; 3],
    /// Copies executing on pool workers.
    pub running: usize,
    /// The prefetch window; `None` when prefetching is off, which leaves
    /// the `monarch_prefetch_*` families out of the document.
    pub prefetch: Option<PrefetchSample>,
    /// The engine has begun shutting down.
    pub draining: bool,
}

/// The lanes a [`PipelineSample`] reports, with their `lane` label values.
pub(super) const LANES: [(Lane, &str); 3] = [
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
