//! Level metrics: labeled [`Gauge`] cells, the striped [`InFlight`]
//! count, what a sampler reads off the copy pipeline, and the
//! [`TimeSeries`] schema of sampled throughput.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::locks;
use crate::pool::Lane;
use crate::stripe::Striped;

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
pub(super) fn escape_label_value(v: &str) -> std::borrow::Cow<'_, str> {
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
/// unlike the monotone counters in [`Stats`](crate::stats::Stats).
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
        let mut families = locks::lock(&self.families);
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
        locks::lock(&self.families)
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
        let families = locks::lock(&self.families);
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
        let families = locks::lock(&self.families);
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

/// One gauge cell in a [`TelemetrySnapshot`](super::TelemetrySnapshot).
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

/// What a sampler saw of the copy pipeline at one instant — the part of
/// [`TelemetryRegistry::publish_gauges`](super::TelemetryRegistry::publish_gauges)'s
/// input that the real engine reads off its pool and the simulator off its
/// virtual one.
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
