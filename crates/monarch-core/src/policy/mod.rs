//! The *policy framework*: every tier decision the [`crate::transfer::TransferEngine`]
//! makes, factored into three swappable parts composed by a [`PolicyEngine`].
//!
//! The paper hard-codes one answer per question — admit everything, place
//! top-down first-fit, never evict (§III-A argues eviction only adds
//! inter-tier thrashing under uniformly shuffled access). That argument
//! holds for a single job whose dataset fits; it visibly fails in the
//! partial-cache and multi-job regimes this module targets. Following
//! Hermes' "every move is one scheduled transfer with swappable policies"
//! decomposition, the three questions become three traits:
//!
//! - [`AdmissionPolicy`] — *is this file worth a tier slot at all?*
//!   ([`AdmitAll`], [`SizeThreshold`], [`ReuseAware`]).
//! - [`EvictionPolicy`] — *who leaves when space is needed?*
//!   ([`NoEviction`], [`LruEviction`], [`LfuEviction`], [`CostAwareEviction`],
//!   [`ClairvoyantEviction`] consulting the access plan for what will not be
//!   read again this epoch, [`ScoredEviction`] ranking by a scorer's
//!   reuse prediction).
//! - [`PlacementScorer`] — *which tier, and how valuable is the file?*
//!   ([`FirstFitScorer`] — the paper baseline, [`RoundRobinScorer`], and
//!   [`LearnedScorer`] — a tiny online logistic model over
//!   [`crate::observe::AccessProfiler`] features, no external deps).
//!
//! A [`PolicyEngine`] composes one of each plus cross-cutting state the
//! parts must agree on: the *pin set* (files staged by prefetch but not yet
//! read — structurally not evictable), the reuse ledger labelling evictions
//! for the learned scorer (one bit per file in the namespace slab, see
//! [`crate::metadata`]), decision counters, and the [`FeatureSource`]
//! bridge to the profiler. The `TransferEngine` consults the engine at its
//! four decision points — demand admit, prefetch admit, pressure/ENOSPC
//! evict, plan evict — and journals every verdict with the policy's name
//! and cause.

mod admission;
mod eviction;
mod scorer;

pub use admission::{AdmitAll, ReuseAware, SizeThreshold};
pub use eviction::{
    ClairvoyantEviction, CostAwareEviction, LfuEviction, LruEviction, NoEviction, ScoredEviction,
};
pub use scorer::{FirstFitScorer, LearnedScorer, RoundRobinScorer};

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::config::{AdmissionKind, PolicyKind};
use crate::hierarchy::StorageHierarchy;
use crate::metadata::{FileId, MetadataContainer};
use crate::{Result, TierId};

/// Never evict more than this many files for one placement.
pub const MAX_EVICTIONS_PER_PLACE: usize = 64;

// ---------------------------------------------------------------------------
// Decision points and features
// ---------------------------------------------------------------------------

/// Where in the copy pipeline a decision is being made. Journal entries and
/// counters are keyed by this, so `monarch report` can attribute policy
/// effects to the path that triggered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPoint {
    /// A foreground read missed the fast tiers: stage the file?
    DemandAdmit,
    /// The access plan proposes staging ahead of the cursor: worth it?
    PrefetchAdmit,
    /// A placement or ENOSPC retry needs space: who leaves?
    PressureEvict,
    /// An explicit `evict` intent (API/plan-driven).
    PlanEvict,
}

impl DecisionPoint {
    /// snake_case label used in journal entries and snapshots.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionPoint::DemandAdmit => "demand_admit",
            DecisionPoint::PrefetchAdmit => "prefetch_admit",
            DecisionPoint::PressureEvict => "pressure_evict",
            DecisionPoint::PlanEvict => "plan_evict",
        }
    }
}

/// The per-file feature vector learned and heuristic policies consume —
/// extracted from the [`crate::observe::AccessProfiler`] ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileFeatures {
    /// Total recorded reads of the file.
    pub accesses: u64,
    /// EWMA of the inter-access gap in microseconds (0 until two reads).
    pub ewma_gap_us: f64,
    /// Total bytes read from the file across all tiers.
    pub bytes: u64,
    /// Fraction of reads served from prefetched data (`0.0..=1.0`) — high
    /// values mean the plan keeps predicting this file correctly.
    pub prefetch_reuse: f64,
}

/// Where feature vectors come from. Implemented by
/// [`crate::telemetry::TelemetryRegistry`] (which owns the profiler);
/// the simulator binds its own registry the same way.
pub trait FeatureSource: Send + Sync {
    /// The feature vector for `file`, or `None` if the profiler has never
    /// seen it (policies must treat unknown files leniently).
    fn features(&self, file: &str) -> Option<FileFeatures>;
}

impl FeatureSource for crate::telemetry::TelemetryRegistry {
    fn features(&self, file: &str) -> Option<FileFeatures> {
        let profile = self.observe().profiler().profile(file)?;
        let accesses = profile.accesses;
        Some(FileFeatures {
            accesses,
            ewma_gap_us: profile.ewma_gap_us,
            bytes: profile.bytes_by_tier.iter().sum(),
            prefetch_reuse: if accesses == 0 {
                0.0
            } else {
                profile.prefetch_hits as f64 / accesses as f64
            },
        })
    }
}

// ---------------------------------------------------------------------------
// The decision (moved here from the old placement.rs)
// ---------------------------------------------------------------------------

/// What the engine decided for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementDecision {
    /// Destination tier. When `evict` is empty, quota for the file's size is
    /// already reserved there and the caller must `release` it if the copy
    /// fails. When `evict` is non-empty quota is *not* yet reserved — the
    /// executor releases victim quota as each eviction completes, then
    /// reserves for the newcomer.
    pub tier: TierId,
    /// Files the caller must evict from `tier` before copying.
    pub evict: Vec<String>,
}

impl PlacementDecision {
    /// Span attributes describing this decision: the destination tier (id
    /// and name), its remaining free quota at decision time, and how many
    /// evictions the decision requires — what a `placement_decide` span
    /// shows in the trace viewer.
    #[must_use]
    pub fn trace_args(
        &self,
        hierarchy: &StorageHierarchy,
    ) -> Vec<(&'static str, crate::trace::ArgValue)> {
        use crate::trace::ArgValue;
        let mut args = vec![("tier_id", ArgValue::U64(self.tier as u64))];
        if let Ok(tier) = hierarchy.tier(self.tier) {
            args.push(("tier", ArgValue::Str(tier.name.clone())));
            if let Some(quota) = &tier.quota {
                args.push(("free_bytes", ArgValue::U64(quota.free())));
            }
        }
        args.push(("evictions", ArgValue::U64(self.evict.len() as u64)));
        args
    }
}

// ---------------------------------------------------------------------------
// The trait family
// ---------------------------------------------------------------------------

/// "Is this file worth a tier slot?" Consulted before any copy is
/// scheduled; a denial leaves the file on the PFS (non-terminal — the next
/// miss re-asks, so a file can earn its slot as its profile evolves).
pub trait AdmissionPolicy: Send + Sync {
    /// Policy name (journal entries and experiment labels).
    fn name(&self) -> &'static str;

    /// Admit `file` of `size` bytes at `point`? `features` is `None` when
    /// the profiler has never seen the file (or is disabled) — policies
    /// must default to admitting the unknown.
    fn admit(
        &self,
        file: &str,
        size: u64,
        features: Option<&FileFeatures>,
        point: DecisionPoint,
    ) -> bool;
}

/// Context handed to [`EvictionPolicy::victims`]: which residents are
/// off-limits and how the composed scorer values a file.
pub struct EvictCtx<'a> {
    /// Files that must not be selected (pinned prefetches, the incoming
    /// file itself, in-flight copies — anything the engine protects).
    pub exempt: &'a dyn Fn(&str) -> bool,
    /// The composed [`PlacementScorer`]'s value estimate for a resident
    /// (higher = more worth keeping). Only score-driven policies use it.
    pub score: &'a dyn Fn(&str) -> f64,
    /// Hard cap on how many victims one call may return.
    pub max_victims: usize,
}

/// "Who leaves when space is needed?" Implementations keep their own
/// resident book, fed exclusively through the `on_*` observers — a file
/// enters the book only at [`EvictionPolicy::on_placed`], so in-flight
/// copies are structurally never evictable. [`EvictionPolicy::victims`] is
/// a *pure selection*: it must not mutate the book (the executor confirms
/// each eviction via [`EvictionPolicy::on_evicted`], which is when state
/// changes), and it must return an empty vector when it cannot cover
/// `needed` bytes — partial frees would evict files without making room.
pub trait EvictionPolicy: Send + Sync {
    /// Policy name (journal entries and experiment labels).
    fn name(&self) -> &'static str;

    /// False for the paper's no-eviction baseline: `victims` is never asked.
    fn may_evict(&self) -> bool {
        true
    }

    /// Select residents of `tier` to evict so at least `needed` bytes come
    /// free. Empty means "cannot (or will not) make room".
    fn victims(&self, tier: TierId, needed: u64, ctx: &EvictCtx<'_>) -> Vec<String>;

    /// Observe a read of `file` currently living on `tier` (recency /
    /// frequency bookkeeping; default no-op).
    fn on_access(&self, _file: &str, _tier: TierId) {}

    /// Observe that a copy of `file` (of `size` bytes) was installed on
    /// `tier` — the only way a file enters the resident book.
    fn on_placed(&self, _file: &str, _size: u64, _tier: TierId) {}

    /// Observe that `file` actually left its tier (eviction executed, or
    /// the file was removed for any other reason).
    fn on_evicted(&self, _file: &str) {}

    /// A new epoch access plan was submitted (clairvoyant bookkeeping;
    /// default no-op).
    fn set_plan(&self, _files: &[String]) {}

    /// A planned read completed — advance the plan cursor (default no-op).
    fn note_plan_read(&self, _file: &str) {}
}

/// "Which tier — and how valuable is this file?" `choose` is the
/// reserve-during-place half (the old `PlacementPolicy::place` without
/// evictions); `score`/`observe_outcome` are the learned half, consumed by
/// [`ScoredEviction`] and the reuse ledger.
pub trait PlacementScorer: Send + Sync {
    /// Scorer name (journal entries and experiment labels).
    fn name(&self) -> &'static str;

    /// Pick a destination tier for `file` of `size` bytes **and reserve
    /// quota on it**. `None` means no tier has room — the engine then asks
    /// the eviction policy to make some.
    fn choose(&self, hierarchy: &StorageHierarchy, file: &str, size: u64)
        -> Result<Option<TierId>>;

    /// Estimated value of keeping `file` resident (`0.0..=1.0`; higher =
    /// more likely to be re-read soon). The default is indifferent.
    fn score(&self, _file: &str, _features: Option<&FileFeatures>) -> f64 {
        0.5
    }

    /// Online-learning feedback: `file` (with `features` at observation
    /// time) either was (`reused = true`) or was not read again between
    /// placement and eviction. Default no-op.
    fn observe_outcome(&self, _file: &str, _features: Option<&FileFeatures>, _reused: bool) {}
}

// ---------------------------------------------------------------------------
// PolicyEngine — the composition the TransferEngine consumes
// ---------------------------------------------------------------------------

/// Monotonic counters of verdicts per decision point.
#[derive(Debug, Default)]
struct Counters {
    demand_admits: AtomicU64,
    demand_denials: AtomicU64,
    prefetch_admits: AtomicU64,
    prefetch_denials: AtomicU64,
    evictions_selected: AtomicU64,
    pressure_victims: AtomicU64,
}

/// Serializable view of a [`PolicyEngine`]: the composition and its
/// decision counters — what `monarch policy` prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySnapshot {
    /// Composed name: `admission/eviction/scorer`.
    pub name: String,
    /// Admission part name.
    pub admission: String,
    /// Eviction part name.
    pub eviction: String,
    /// Scorer part name.
    pub scorer: String,
    /// Whether the eviction part can ever return victims.
    pub may_evict: bool,
    /// Demand-lane admissions granted.
    pub demand_admits: u64,
    /// Demand-lane admissions denied.
    pub demand_denials: u64,
    /// Prefetch-lane admissions granted.
    pub prefetch_admits: u64,
    /// Prefetch-lane admissions denied.
    pub prefetch_denials: u64,
    /// Victims selected by placement-driven eviction.
    pub evictions_selected: u64,
    /// Victims selected under ENOSPC pressure.
    pub pressure_victims: u64,
    /// Files currently pinned (staged by prefetch, not yet read).
    pub pinned: u64,
}

/// One composed admission + eviction + scorer triple, plus the
/// cross-cutting state they share. This is the single object the
/// [`crate::transfer::TransferEngine`] consults at every decision point.
pub struct PolicyEngine {
    admission: Arc<dyn AdmissionPolicy>,
    eviction: Arc<dyn EvictionPolicy>,
    scorer: Arc<dyn PlacementScorer>,
    /// `admission/eviction/scorer`, composed once.
    name: String,
    /// Feature bridge to the profiler; bound by whoever owns the
    /// telemetry registry (engine constructor, simulator).
    features: Mutex<Option<Arc<dyn FeatureSource>>>,
    /// Files staged by prefetch but not yet read — never evictable until
    /// unpinned, else the window thrashes against its own evictions.
    pinned: Mutex<HashSet<String>>,
    /// The namespace of the instance this engine decides for. Each file's
    /// "read since placement?" bit — the label for the scorer's online
    /// updates, resolved at eviction time — lives in its slab, so the
    /// read path sets it by id with no lock and no allocation. The engine
    /// creates the container; [`crate::MonarchBuilder`] adopts it.
    files: Arc<MetadataContainer>,
    counters: Counters,
}

impl std::fmt::Debug for PolicyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEngine")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl PolicyEngine {
    /// Compose an engine from explicit parts.
    #[must_use]
    pub fn new(
        admission: Arc<dyn AdmissionPolicy>,
        eviction: Arc<dyn EvictionPolicy>,
        scorer: Arc<dyn PlacementScorer>,
    ) -> Self {
        let name = format!("{}/{}/{}", admission.name(), eviction.name(), scorer.name());
        Self {
            admission,
            eviction,
            scorer,
            name,
            features: Mutex::new(None),
            pinned: Mutex::new(HashSet::new()),
            files: Arc::new(MetadataContainer::default()),
            counters: Counters::default(),
        }
    }

    /// The canonical composition for each config selector. `LruEvict`,
    /// `Lfu`, `CostAware` and `Clairvoyant` pair their eviction with the
    /// paper's first-fit scorer; `Learned` shares one [`LearnedScorer`]
    /// between scoring and [`ScoredEviction`] so eviction ranks by the
    /// model's live predictions.
    #[must_use]
    pub fn from_kind(kind: PolicyKind, admission: AdmissionKind) -> Self {
        let admission: Arc<dyn AdmissionPolicy> = match admission {
            AdmissionKind::AdmitAll => Arc::new(AdmitAll),
            AdmissionKind::SizeThreshold { max_bytes } => Arc::new(SizeThreshold::new(max_bytes)),
            AdmissionKind::ReuseAware => Arc::new(ReuseAware::default()),
        };
        let (eviction, scorer): (Arc<dyn EvictionPolicy>, Arc<dyn PlacementScorer>) = match kind {
            PolicyKind::FirstFit => (Arc::new(NoEviction), Arc::new(FirstFitScorer)),
            PolicyKind::RoundRobin => (Arc::new(NoEviction), Arc::new(RoundRobinScorer::default())),
            PolicyKind::LruEvict => (Arc::new(LruEviction::new()), Arc::new(FirstFitScorer)),
            PolicyKind::Lfu => (Arc::new(LfuEviction::new()), Arc::new(FirstFitScorer)),
            PolicyKind::CostAware => (Arc::new(CostAwareEviction::new()), Arc::new(FirstFitScorer)),
            PolicyKind::Clairvoyant => (
                Arc::new(ClairvoyantEviction::new()),
                Arc::new(FirstFitScorer),
            ),
            PolicyKind::Learned => {
                let model = Arc::new(LearnedScorer::new());
                (Arc::new(ScoredEviction::new()), model)
            }
        };
        Self::new(admission, eviction, scorer)
    }

    /// Composed name: `admission/eviction/scorer`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bind the feature bridge (idempotent; last bind wins). Called by the
    /// `TransferEngine` constructor with its telemetry registry.
    pub fn bind_features(&self, source: Arc<dyn FeatureSource>) {
        *self.features.lock() = Some(source);
    }

    /// Feature vector for `file`, if a source is bound and knows it.
    #[must_use]
    pub fn features_of(&self, file: &str) -> Option<FileFeatures> {
        let source = self.features.lock().clone()?;
        source.features(file)
    }

    /// Consult the admission policy at `point`. Counters tally the verdict.
    #[must_use]
    pub fn admit(&self, file: &str, size: u64, point: DecisionPoint) -> bool {
        let features = self.features_of(file);
        let ok = self.admission.admit(file, size, features.as_ref(), point);
        let counter = match (point, ok) {
            (DecisionPoint::DemandAdmit, true) => &self.counters.demand_admits,
            (DecisionPoint::DemandAdmit, false) => &self.counters.demand_denials,
            (DecisionPoint::PrefetchAdmit, true) => &self.counters.prefetch_admits,
            (DecisionPoint::PrefetchAdmit, false) => &self.counters.prefetch_denials,
            // Admission is not consulted on the evict points; tally as
            // demand so the sum still adds up if a caller ever does.
            (_, true) => &self.counters.demand_admits,
            (_, false) => &self.counters.demand_denials,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        ok
    }

    /// Pick a destination for `file` of `size` bytes. First the scorer
    /// tries to reserve on a tier with room; if every tier is full and the
    /// eviction policy allows it, victims are selected top-down (quota
    /// then follows the executor's evict-release-reserve sequence).
    pub fn place(
        &self,
        hierarchy: &StorageHierarchy,
        file: &str,
        size: u64,
    ) -> Result<Option<PlacementDecision>> {
        if let Some(tier) = self.scorer.choose(hierarchy, file, size)? {
            return Ok(Some(PlacementDecision {
                tier,
                evict: Vec::new(),
            }));
        }
        if !self.eviction.may_evict() {
            return Ok(None);
        }
        let pinned = self.pinned.lock();
        let exempt = |name: &str| name == file || pinned.contains(name);
        let score = |name: &str| self.scorer.score(name, self.features_of(name).as_ref());
        let ctx = EvictCtx {
            exempt: &exempt,
            score: &score,
            max_victims: MAX_EVICTIONS_PER_PLACE,
        };
        for tier in hierarchy.local_tiers() {
            if hierarchy.health().tier(tier.id).is_quarantined() {
                continue;
            }
            let Some(quota) = tier.quota.as_ref() else {
                continue;
            };
            if size > quota.capacity() {
                continue; // can never fit, even empty
            }
            let needed = size.saturating_sub(quota.free());
            if needed == 0 {
                // Space raced into existence since choose(); take it.
                if quota.try_reserve(size) {
                    return Ok(Some(PlacementDecision {
                        tier: tier.id,
                        evict: Vec::new(),
                    }));
                }
                continue;
            }
            let victims = self.eviction.victims(tier.id, needed, &ctx);
            if victims.is_empty() {
                continue;
            }
            self.counters
                .evictions_selected
                .fetch_add(victims.len() as u64, Ordering::Relaxed);
            return Ok(Some(PlacementDecision {
                tier: tier.id,
                evict: victims,
            }));
        }
        Ok(None)
    }

    /// Pick one victim under ENOSPC pressure: prefer the eviction policy's
    /// choice if it names one of `candidates` (name, size pairs of files
    /// actually resident per the metadata scan); otherwise fall back to the
    /// first non-exempt candidate so a capacity error can always be
    /// relieved, even under [`NoEviction`].
    #[must_use]
    pub fn pressure_victim(
        &self,
        tier: TierId,
        candidates: &[(String, u64)],
        keep: &str,
    ) -> Option<String> {
        let pinned = self.pinned.lock();
        let exempt = |name: &str| name == keep || pinned.contains(name);
        let score = |name: &str| self.scorer.score(name, self.features_of(name).as_ref());
        let ctx = EvictCtx {
            exempt: &exempt,
            score: &score,
            max_victims: MAX_EVICTIONS_PER_PLACE,
        };
        let preferred = if self.eviction.may_evict() {
            self.eviction.victims(tier, 1, &ctx)
        } else {
            Vec::new()
        };
        let pick = preferred
            .into_iter()
            .find(|v| candidates.iter().any(|(n, _)| n == v))
            .or_else(|| {
                candidates
                    .iter()
                    .map(|(n, _)| n.clone())
                    .find(|n| !exempt(n))
            });
        if pick.is_some() {
            self.counters
                .pressure_victims
                .fetch_add(1, Ordering::Relaxed);
        }
        pick
    }

    /// The namespace this engine keeps its per-file bits in. One engine
    /// serves one instance: whoever builds a `Monarch` around this engine
    /// uses this container as the instance's metadata.
    #[must_use]
    pub fn namespace(&self) -> &Arc<MetadataContainer> {
        &self.files
    }

    /// Observe a read of `file` served from `tier`. Feeds eviction
    /// recency/frequency books and flips the reuse label for the scorer.
    pub fn on_access(&self, file: &str, tier: TierId) {
        self.on_access_id(self.files.intern(file), file, tier);
    }

    /// [`Self::on_access`] for a caller that already resolved `file` to
    /// its `id` in [`Self::namespace`]: a bit test on a warm file.
    #[inline]
    pub fn on_access_id(&self, id: FileId, file: &str, tier: TierId) {
        self.eviction.on_access(file, tier);
        self.files.mark_reused(id);
    }

    /// Observe an installed copy: seeds the eviction book and opens a
    /// fresh (not-yet-reused) ledger entry for the scorer label.
    pub fn on_placed(&self, file: &str, size: u64, tier: TierId) {
        self.eviction.on_placed(file, size, tier);
        self.files.take_reused(self.files.intern(file));
    }

    /// Observe that `file` left its tier. Resolves the reuse label and
    /// feeds it back to the scorer as an online-learning outcome.
    pub fn on_evicted(&self, file: &str) {
        self.eviction.on_evicted(file);
        let reused = self.files.take_reused(self.files.intern(file));
        let features = self.features_of(file);
        self.scorer.observe_outcome(file, features.as_ref(), reused);
    }

    /// A new epoch plan was submitted: reset pins and hand the order to the
    /// clairvoyant book.
    pub fn set_plan(&self, files: &[String]) {
        self.pinned.lock().clear();
        self.eviction.set_plan(files);
    }

    /// A planned read completed: advance the clairvoyant cursor.
    pub fn note_plan_read(&self, file: &str) {
        self.eviction.note_plan_read(file);
    }

    /// Protect `file` from eviction (prefetch staged it; it has not yet
    /// been read).
    pub fn pin(&self, file: &str) {
        self.pinned.lock().insert(file.to_string());
    }

    /// Release the eviction protection on `file`.
    pub fn unpin(&self, file: &str) {
        self.pinned.lock().remove(file);
    }

    /// Drop every pin (drain, plan replacement).
    pub fn clear_pins(&self) {
        self.pinned.lock().clear();
    }

    /// True if `file` is currently pinned.
    #[must_use]
    pub fn is_pinned(&self, file: &str) -> bool {
        self.pinned.lock().contains(file)
    }

    /// Whether the composed eviction policy can ever return victims.
    #[must_use]
    pub fn may_evict(&self) -> bool {
        self.eviction.may_evict()
    }

    /// Composition + counter snapshot (the `monarch policy` view).
    #[must_use]
    pub fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot {
            name: self.name.clone(),
            admission: self.admission.name().to_string(),
            eviction: self.eviction.name().to_string(),
            scorer: self.scorer.name().to_string(),
            may_evict: self.eviction.may_evict(),
            demand_admits: self.counters.demand_admits.load(Ordering::Relaxed),
            demand_denials: self.counters.demand_denials.load(Ordering::Relaxed),
            prefetch_admits: self.counters.prefetch_admits.load(Ordering::Relaxed),
            prefetch_denials: self.counters.prefetch_denials.load(Ordering::Relaxed),
            evictions_selected: self.counters.evictions_selected.load(Ordering::Relaxed),
            pressure_victims: self.counters.pressure_victims.load(Ordering::Relaxed),
            pinned: self.pinned.lock().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MemDriver;
    use crate::hierarchy::StorageHierarchy;

    pub(crate) fn hierarchy(caps: &[u64]) -> StorageHierarchy {
        let mut levels: Vec<(String, Arc<dyn crate::StorageDriver>, Option<u64>)> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                (
                    format!("t{i}"),
                    Arc::new(MemDriver::new(format!("t{i}"))) as Arc<dyn crate::StorageDriver>,
                    Some(c),
                )
            })
            .collect();
        levels.push((
            "pfs".into(),
            Arc::new(MemDriver::new("pfs")) as Arc<dyn crate::StorageDriver>,
            None,
        ));
        StorageHierarchy::new(levels).unwrap()
    }

    fn engine(kind: PolicyKind) -> PolicyEngine {
        PolicyEngine::from_kind(kind, AdmissionKind::default())
    }

    #[test]
    fn composed_names_follow_the_triple() {
        assert_eq!(
            engine(PolicyKind::FirstFit).name(),
            "admit_all/none/first_fit"
        );
        assert_eq!(
            engine(PolicyKind::LruEvict).name(),
            "admit_all/lru/first_fit"
        );
        assert_eq!(
            engine(PolicyKind::Learned).name(),
            "admit_all/scored/learned"
        );
        let snap = engine(PolicyKind::CostAware).snapshot();
        assert_eq!(snap.eviction, "cost_aware");
        assert!(snap.may_evict);
    }

    #[test]
    fn trace_args_describe_the_decision() {
        use crate::trace::ArgValue;
        let h = hierarchy(&[100, 100]);
        let p = engine(PolicyKind::FirstFit);
        let d = p.place(&h, "a", 60).unwrap().unwrap();
        let args = d.trace_args(&h);
        assert!(args.contains(&("tier_id", ArgValue::U64(0))));
        assert!(args.contains(&("tier", ArgValue::Str("t0".into()))));
        // place() already reserved the 60 bytes, so 40 remain free.
        assert!(args.contains(&("free_bytes", ArgValue::U64(40))));
        assert!(args.contains(&("evictions", ArgValue::U64(0))));
    }

    #[test]
    fn first_fit_prefers_top_tier_and_never_evicts() {
        let h = hierarchy(&[100, 100]);
        let p = engine(PolicyKind::FirstFit);
        assert!(!p.may_evict());
        let d = p.place(&h, "a", 60).unwrap().unwrap();
        assert_eq!(d.tier, 0);
        assert!(d.evict.is_empty());
        // Second 60-byte file overflows tier 0 into tier 1.
        let d = p.place(&h, "b", 60).unwrap().unwrap();
        assert_eq!(d.tier, 1);
        // Third does not fit anywhere.
        assert!(p.place(&h, "c", 60).unwrap().is_none());
        // But a small file still fits tier 0's remaining 40 bytes.
        let d = p.place(&h, "d", 40).unwrap().unwrap();
        assert_eq!(d.tier, 0);
    }

    #[test]
    fn round_robin_rotates_and_falls_through_full_tier() {
        let h = hierarchy(&[100, 100]);
        let p = engine(PolicyKind::RoundRobin);
        let d1 = p.place(&h, "a", 10).unwrap().unwrap();
        let d2 = p.place(&h, "b", 10).unwrap().unwrap();
        assert_ne!(d1.tier, d2.tier);
        let d3 = p.place(&h, "c", 10).unwrap().unwrap();
        assert_eq!(d3.tier, d1.tier);

        let h = hierarchy(&[5, 100]);
        let p = engine(PolicyKind::RoundRobin);
        // First placement targets tier 0 but it cannot fit 10 bytes →
        // falls through to tier 1.
        let d = p.place(&h, "a", 10).unwrap().unwrap();
        assert_eq!(d.tier, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let h = hierarchy(&[100]);
        let p = engine(PolicyKind::LruEvict);
        for (name, size) in [("a", 40u64), ("b", 40)] {
            let d = p.place(&h, name, size).unwrap().unwrap();
            assert!(d.evict.is_empty());
            h.tier(0).unwrap(); // quota was reserved by choose()
            p.on_placed(name, size, 0);
        }
        // Touch "a" so "b" becomes LRU.
        p.on_access("a", 0);
        let d = p.place(&h, "c", 40).unwrap().unwrap();
        assert_eq!(d.evict, vec!["b".to_string()]);
        // Selection is pure: asking again without executing returns the
        // same victim rather than marching down the queue.
        let d2 = p.place(&h, "c", 40).unwrap().unwrap();
        assert_eq!(d2.evict, vec!["b".to_string()]);
    }

    #[test]
    fn pinned_files_are_never_selected() {
        let h = hierarchy(&[100]);
        let p = engine(PolicyKind::LruEvict);
        for (name, size) in [("a", 50u64), ("b", 50)] {
            let d = p.place(&h, name, size).unwrap().unwrap();
            assert!(d.evict.is_empty());
            p.on_placed(name, size, 0);
        }
        p.pin("a");
        let d = p.place(&h, "c", 50).unwrap().unwrap();
        assert_eq!(d.evict, vec!["b".to_string()], "pinned a is skipped");
        p.pin("b");
        assert!(
            p.place(&h, "c", 50).unwrap().is_none(),
            "everything pinned → no placement"
        );
        p.unpin("a");
        let d = p.place(&h, "c", 50).unwrap().unwrap();
        assert_eq!(d.evict, vec!["a".to_string()]);
    }

    #[test]
    fn quarantined_tier_is_skipped_even_for_eviction() {
        use crate::health::ErrorClass;
        let h = hierarchy(&[100, 100]);
        h.health().record_error(0, ErrorClass::Permanent);
        assert!(h.health().tier(0).is_quarantined());

        let ff = engine(PolicyKind::FirstFit);
        let d = ff.place(&h, "a", 10).unwrap().unwrap();
        assert_eq!(d.tier, 1, "first-fit skips the quarantined top tier");

        // Fresh hierarchy (same quarantine) for the eviction half — the
        // first-fit probe above left its reservation on tier 1.
        let h = hierarchy(&[100, 100]);
        h.health().record_error(0, ErrorClass::Permanent);
        let lru = engine(PolicyKind::LruEvict);
        // Fill tier 1 so eviction would be the only way in.
        let d = lru.place(&h, "big", 100).unwrap().unwrap();
        assert_eq!(d.tier, 1);
        lru.on_placed("big", 100, 1);
        let d = lru.place(&h, "next", 50).unwrap().unwrap();
        assert_eq!(d.tier, 1, "victims come from the healthy tier only");
        assert_eq!(d.evict, vec!["big".to_string()]);
        assert_eq!(
            h.tier(0).unwrap().quota.as_ref().unwrap().used(),
            0,
            "no quota leaked onto the quarantined tier"
        );
    }

    #[test]
    fn eviction_gives_up_on_oversized() {
        let h = hierarchy(&[100]);
        let p = engine(PolicyKind::LruEvict);
        assert!(p.place(&h, "huge", 101).unwrap().is_none());
    }

    #[test]
    fn pressure_victim_prefers_policy_order_then_falls_back() {
        let h = hierarchy(&[100]);
        let p = engine(PolicyKind::LruEvict);
        for (name, size) in [("a", 30u64), ("b", 30), ("c", 30)] {
            let d = p.place(&h, name, size).unwrap().unwrap();
            assert!(d.evict.is_empty());
            p.on_placed(name, size, 0);
        }
        p.on_access("a", 0); // b is now LRU
        let candidates = vec![("a".to_string(), 30), ("b".to_string(), 30)];
        assert_eq!(
            p.pressure_victim(0, &candidates, "keep"),
            Some("b".to_string())
        );
        // NoEviction still relieves pressure via the fallback.
        let ff = engine(PolicyKind::FirstFit);
        assert_eq!(
            ff.pressure_victim(0, &candidates, "keep"),
            Some("a".to_string())
        );
        assert_eq!(
            ff.pressure_victim(0, &candidates, "a"),
            Some("b".to_string())
        );
        assert_eq!(ff.pressure_victim(0, &[("a".into(), 1)], "a"), None);
    }

    #[test]
    fn admission_counters_tally_verdicts() {
        let p = engine(PolicyKind::FirstFit);
        assert!(p.admit("f", 10, DecisionPoint::DemandAdmit));
        assert!(p.admit("f", 10, DecisionPoint::PrefetchAdmit));
        let snap = p.snapshot();
        assert_eq!(snap.demand_admits, 1);
        assert_eq!(snap.prefetch_admits, 1);
        assert_eq!(snap.demand_denials + snap.prefetch_denials, 0);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(
            json.contains("\"demand_admits\":1"),
            "snapshot serializes: {json}"
        );
    }

    #[test]
    fn reuse_labels_flow_to_the_scorer() {
        // Learned composition: place → no access → evict should push the
        // model's score for those features down; place → access → evict up.
        let h = hierarchy(&[100]);
        let p = engine(PolicyKind::Learned);
        let d = p.place(&h, "cold", 40).unwrap().unwrap();
        assert!(d.evict.is_empty());
        p.on_placed("cold", 40, 0);
        p.on_evicted("cold"); // never accessed → negative label
        p.on_placed("hot", 40, 0);
        p.on_access("hot", 0);
        p.on_evicted("hot"); // accessed → positive label
                             // No panic and the composition stays consistent.
        assert_eq!(p.snapshot().scorer, "learned");
    }
}
