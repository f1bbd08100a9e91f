//! The log-linear [`LatencyHistogram`] and the read-path [`StallProfile`]
//! built of four of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::hierarchy::TierId;
use crate::observe::{ReadClass, ReadTiming};
use crate::stripe::{Local, Striped};

/// Sub-buckets per power-of-two range: 16 → worst-case relative bucket
/// width 1/16, so quantile estimates are within ~6.25% of exact.
const SUB_BUCKETS: u64 = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Values below this are counted exactly (one bucket per value).
pub(super) const LINEAR_MAX: u64 = SUB_BUCKETS;
/// Total bucket count: 16 exact + 16 per octave for octaves 4..=63.
pub(super) const NUM_BUCKETS: usize = (LINEAR_MAX + (64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// The bounds, in nanoseconds, at which a [`HistogramSnapshot`] carries
/// cumulative counts (`count_le`): 1 µs to 10 s by decades, the `le`
/// ladder of the exposition's `_bucket` series.
pub(super) const LE_LADDER: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Bucket index for `value` (log-linear layout).
#[inline]
pub(super) fn bucket_index(value: u64) -> usize {
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
pub(super) fn bucket_bounds(idx: usize) -> (u64, u64) {
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

/// One stripe of a set of histograms: their buckets, and all their scalars
/// side by side — each one's sum and max, then the set's plain sums.
struct HistStripe {
    scalars: Box<[AtomicU64]>,
    buckets: Box<[[AtomicU64; NUM_BUCKETS]]>,
}

/// A set of `len` histograms and `sums` plain sums, striped as one.
struct Histograms {
    len: usize,
    sums: usize,
    stripes: Striped<HistStripe>,
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
/// simulator records virtual-time nanoseconds. It is one of a set — of its
/// own, or the histograms a timed read writes ([`StallProfile`]) — striped
/// as one (see the `stripe` module): a recording thread adds to its own
/// copy of the set — one bucket plus the running sum, a relaxed load and
/// store each, no cache line shared with another reader — and a query
/// folds the copies. Copies are allocated on first record. Quantile
/// estimates return the upper bound of the containing bucket, so they are
/// exact to within one bucket (≤ 1/16 relative error above 16).
pub struct LatencyHistogram {
    set: Arc<Histograms>,
    at: usize,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::in_set(1, 0).remove(0)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `len` histograms of one new set with `sums` plain sums.
    fn in_set(len: usize, sums: usize) -> Vec<Self> {
        let stripes = Striped::new();
        let set = Arc::new(Histograms { len, sums, stripes });
        (0..len)
            .map(|at| Self {
                set: set.clone(),
                at,
            })
            .collect()
    }

    /// The calling thread's stripe of the set, allocated on first use.
    #[inline]
    fn stripe(&self) -> Local<'_, HistStripe> {
        let (len, sums) = (self.set.len, self.set.sums);
        self.set.stripes.local(|| HistStripe {
            scalars: (0..2 * len + sums).map(|_| AtomicU64::new(0)).collect(),
            buckets: (0..len)
                .map(|_| [const { AtomicU64::new(0) }; NUM_BUCKETS])
                .collect(),
        })
    }

    /// Scalar `i` of the set, folded over its stripes by `f`.
    fn fold(&self, i: usize, f: fn(u64, u64) -> u64) -> u64 {
        let cell = |s: &HistStripe| s.scalars[i].load(Ordering::Relaxed);
        self.set.stripes.iter().map(cell).fold(0, f)
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
        self.record_in(&self.stripe(), value, n);
    }

    /// [`Self::record_n`] through `stripe`, the thread's stripe of the set.
    #[inline]
    fn record_in(&self, stripe: &Local<'_, HistStripe>, value: u64, n: u64) {
        stripe.add(|s| &s.buckets[self.at][bucket_index(value)], n);
        stripe.add(|s| &s.scalars[2 * self.at], value.wrapping_mul(n));
        stripe.max(|s| &s.scalars[2 * self.at + 1], value);
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.merged().count()
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.fold(2 * self.at, u64::wrapping_add)
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.fold(2 * self.at + 1, u64::max)
    }

    /// Mean recorded value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    fn merged(&self) -> Merged {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        for s in self.set.stripes.iter() {
            for (total, b) in buckets.iter_mut().zip(&s.buckets[self.at]) {
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

    /// Immutable summary for reporting. One fold of the stripes serves the
    /// quantiles and the whole `le` ladder.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let merged = self.merged();
        let (count, sum) = (merged.count(), self.sum());
        let count_le = if count == 0 {
            Vec::new()
        } else {
            LE_LADDER.map(|bound| merged.count_le(bound)).to_vec()
        };
        HistogramSnapshot {
            count,
            sum_nanos: sum,
            max_nanos: merged.max,
            mean_nanos: sum.checked_div(count).unwrap_or(0),
            p50_nanos: merged.quantile(0.50),
            p90_nanos: merged.quantile(0.90),
            p99_nanos: merged.quantile(0.99),
            count_le,
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Observations at or below each bound of the `le` ladder (1 µs to
    /// 10 s by decades), cumulative and quantized to the log-linear grid
    /// as [`LatencyHistogram::count_le`] is; empty when nothing was
    /// recorded.
    #[serde(default)]
    pub count_le: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Read-path stall profiler
// ---------------------------------------------------------------------------

/// One plain local-tier hit in this many, per reader thread, carries the
/// clock and is recorded with this weight; every other read that carries
/// it — any read that is not such a hit — is recorded with weight 1. The
/// time records ([`StallProfile`]: phases, tier read latency, the ledger)
/// so estimate the totals over *all* reads, while a hit that does not
/// carry the clock pays for counts only. On `warm_rand_4k` (seed 7, two
/// readers, 2-vCPU VM) a hit costs 0.68 of a bare `pread`: 0.054 the timed
/// hits (mostly their clock reads), 0.003 the others' booking, 0.625 the
/// rest.
pub const TIMED_HIT_PERIOD: u64 = 16;

/// Read-path stall decomposition: four histograms partitioning each timed
/// read's wall time into consecutive phases.
///
/// - `lock_wait` — entry to metadata-lookup completion (shard lock plus
///   namespace lookup);
/// - `queue_wait` — access bookkeeping until the serving tier is resolved
///   (the engine's window/cursor critical sections);
/// - `driver_pread` — the backend `read_at` itself;
/// - `copy_wait` — the read's own bookkeeping after the pread: the plan
///   cursor's advance and the booking of its counts, up to the write of
///   its times, which is the one part of a read in no phase. Not a wait
///   for a copy, which falls in `driver_pread`.
///
/// The four buckets are measured from one monotonic-clock chain, so their
/// sum equals the read's wall time up to clock-read cost — the invariant
/// the e2e test checks.
///
/// The instance's profile is the access profiler's
/// ([`crate::observe::AccessProfiler::stall_profile`]): a timed read is
/// recorded there, in one call that also books its pread by class in the
/// time-lost ledger, whose time sums are this profile's. All it writes —
/// phases, the tier's read latency, the ledger's pread by class — is one
/// set's, so a record takes one stripe lookup, into lines its thread owns.
#[derive(Debug)]
pub struct StallProfile {
    /// Lock/lookup phase durations.
    pub lock_wait: LatencyHistogram,
    /// Pre-pread bookkeeping durations.
    pub queue_wait: LatencyHistogram,
    /// Backend pread durations.
    pub driver_pread: LatencyHistogram,
    /// Post-pread bookkeeping durations.
    pub copy_wait: LatencyHistogram,
    /// Wall time of reads served down-hierarchy because the resident tier
    /// was failing or quarantined. **Not** part of the four-bucket wall
    /// partition above — these reads record their phase buckets normally;
    /// this histogram tracks the same reads' total wall time separately so
    /// degradation cost is attributable.
    pub degraded_fallback: LatencyHistogram,
    /// Per tier (index = tier id), its driver's read latency.
    pub(crate) read_latency: Vec<LatencyHistogram>,
}

impl StallProfile {
    /// An empty profile over `tiers` tiers: one set, whose plain sums are
    /// the ledger's pread per [`ReadClass`], in declaration order.
    pub(crate) fn new(tiers: usize) -> Self {
        let classes = ReadClass::DegradedFallback as usize + 1;
        let mut set = LatencyHistogram::in_set(5 + tiers, classes).into_iter();
        let mut next = || set.next().expect("a histogram a field");
        Self {
            lock_wait: next(),
            queue_wait: next(),
            driver_pread: next(),
            copy_wait: next(),
            degraded_fallback: next(),
            read_latency: set.collect(),
        }
    }

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
        let marks = [t0, lookup, resolve, pread, end]
            .map(|t| u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX));
        self.record_timing(&ReadTiming::between(marks, 1), None, None);
    }

    /// Record one timed read's phases at its weight (see
    /// [`TIMED_HIT_PERIOD`]); its weighted pread into the ledger's sum for
    /// its `class` and, for a read of a `tier`'s driver, that tier's read
    /// latency; a `DegradedFallback` read's wall into `degraded_fallback`.
    pub(crate) fn record_timing(
        &self,
        t: &ReadTiming,
        class: Option<ReadClass>,
        tier: Option<TierId>,
    ) {
        let stripe = self.lock_wait.stripe();
        let mut wall = 0u64;
        for (h, ns) in [
            (&self.lock_wait, t.lock_wait_ns),
            (&self.queue_wait, t.queue_wait_ns),
            (&self.driver_pread, t.pread_ns),
            (&self.copy_wait, t.copy_wait_ns),
        ] {
            h.record_in(&stripe, ns, t.weight);
            wall = wall.saturating_add(ns);
        }
        if let Some(tier) = tier {
            self.read_latency[tier].record_in(&stripe, t.pread_ns, t.weight);
        }
        if let Some(class) = class {
            let sum = 2 * self.lock_wait.set.len + class as usize;
            stripe.add(|s| &s.scalars[sum], t.pread_ns.saturating_mul(t.weight));
        }
        if class == Some(ReadClass::DegradedFallback) {
            self.degraded_fallback.record_in(&stripe, wall, t.weight);
        }
    }

    /// The weighted pread nanoseconds of the timed reads of `class`.
    pub(crate) fn pread_of(&self, class: ReadClass) -> u64 {
        let h = &self.lock_wait;
        h.fold(2 * h.set.len + class as usize, u64::wrapping_add)
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallProfileSnapshot {
    /// Lock/lookup phase summary.
    pub lock_wait: HistogramSnapshot,
    /// Pre-pread bookkeeping summary.
    pub queue_wait: HistogramSnapshot,
    /// Backend pread summary.
    pub driver_pread: HistogramSnapshot,
    /// Post-pread bookkeeping summary.
    pub copy_wait: HistogramSnapshot,
    /// Degraded-fallback read wall time (outside the four-bucket wall
    /// partition; see [`StallProfile::degraded_fallback`]).
    #[serde(default)]
    pub degraded_fallback: HistogramSnapshot,
}
