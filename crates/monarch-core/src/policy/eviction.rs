//! Eviction policies: "who leaves when space is needed?"
//!
//! No policy here keeps a resident book: the namespace slab is the one
//! ([`crate::metadata`]). A policy chooses among the files its
//! [`EvictCtx::files`] holds `Placed` on the tier and unpinned
//! ([`MetadataContainer::evictable`](crate::MetadataContainer::evictable)),
//! ranked by the touch stamp every placement and every access under an
//! evicting policy leaves in the slot. Selection
//! ([`super::EvictionPolicy::victims`]) is pure — it ranks and returns
//! ids without mutating anything, so a selection the executor abandons
//! (raced placement, failed copy) costs nothing. A file in flight is not
//! `Placed`, which is what makes the "never evicts an in-flight file"
//! invariant structural rather than checked.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::hash::FxHashMap;
use crate::locks;
use crate::metadata::{FileId, Resident};
use crate::TierId;

use super::{EvictCtx, EvictionPolicy};

/// The paper's baseline: never evict (§III-A — under uniformly shuffled
/// access, eviction only adds inter-tier thrashing).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoEviction;

impl EvictionPolicy for NoEviction {
    fn name(&self) -> &'static str {
        "none"
    }

    fn may_evict(&self) -> bool {
        false
    }

    fn victims(&self, _tier: TierId, _needed: u64, _ctx: &EvictCtx<'_>) -> Vec<FileId> {
        Vec::new()
    }
}

/// The evictable residents of `tier` in ascending `rank` (ties keep id
/// order), taken until `needed` bytes come free; empty when they cannot
/// cover the shortfall — a partial free would evict files without making
/// room.
fn select(
    tier: TierId,
    needed: u64,
    ctx: &EvictCtx<'_>,
    rank: impl Fn(&Resident) -> (f64, u64),
) -> Vec<FileId> {
    let mut candidates: Vec<((f64, u64), Resident)> = ctx
        .files
        .evictable(tier)
        .filter(|r| !(ctx.exempt)(r.id))
        .map(|r| (rank(&r), r))
        .collect();
    candidates.sort_by(|(a, _), (b, _)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut victims = Vec::new();
    let mut freed = 0u64;
    for (_, r) in candidates {
        if freed >= needed || victims.len() >= ctx.max_victims {
            break;
        }
        freed += r.size;
        victims.push(r.id);
    }
    if freed < needed {
        return Vec::new();
    }
    victims
}

/// Classic least-recently-used: evict the resident with the oldest touch.
/// The ablation the paper argues against — and the first thing that beats
/// it once the fast tier cannot hold the dataset.
#[derive(Debug, Default, Clone, Copy)]
pub struct LruEviction;

impl EvictionPolicy for LruEviction {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn victims(&self, tier: TierId, needed: u64, ctx: &EvictCtx<'_>) -> Vec<FileId> {
        select(tier, needed, ctx, |r| (0.0, r.touched))
    }
}

/// Score-driven eviction: rank residents by the composed
/// [`super::PlacementScorer`]'s value estimate (the learned model's reuse
/// probability) and evict the least valuable, LRU-tie-broken.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScoredEviction;

impl EvictionPolicy for ScoredEviction {
    fn name(&self) -> &'static str {
        "scored"
    }

    fn victims(&self, tier: TierId, needed: u64, ctx: &EvictCtx<'_>) -> Vec<FileId> {
        // Scores are quantized so near-ties fall back to LRU order instead
        // of churning on noise in the fourth decimal.
        select(tier, needed, ctx, |r| {
            (((ctx.score)(r.id) * 1000.0).round(), r.touched)
        })
    }
}

/// The submitted plan, as the clairvoyant policy reads it.
#[derive(Debug, Default)]
struct Plan {
    /// For each file, the remaining positions at which the current epoch
    /// plan will read it (front = soonest).
    next: FxHashMap<FileId, VecDeque<u64>>,
    /// Length of the submitted plan (rank for "never read again").
    len: u64,
}

/// Belady-style clairvoyant eviction: consult the submitted
/// [`crate::prefetch::AccessPlan`] and evict whatever the current epoch
/// reads farthest in the future — or never again. Falls back to LRU order
/// when no plan is live.
#[derive(Debug, Default)]
pub struct ClairvoyantEviction {
    plan: Mutex<Plan>,
}

impl ClairvoyantEviction {
    /// New policy with no plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for ClairvoyantEviction {
    fn name(&self) -> &'static str {
        "clairvoyant"
    }

    fn victims(&self, tier: TierId, needed: u64, ctx: &EvictCtx<'_>) -> Vec<FileId> {
        let plan = locks::lock(&self.plan);
        // Negated so "farthest" ranks lowest. With no plan submitted every
        // file ties at 0 and recency breaks the tie.
        select(tier, needed, ctx, |r| {
            let next = plan
                .next
                .get(&r.id)
                .and_then(|p| p.front().copied())
                .unwrap_or(plan.len + 1);
            (-(next as f64), r.touched)
        })
    }

    fn set_plan(&self, files: &[FileId]) {
        let mut plan = locks::lock(&self.plan);
        plan.next.clear();
        for (pos, id) in files.iter().enumerate() {
            plan.next.entry(*id).or_default().push_back(pos as u64);
        }
        plan.len = files.len() as u64;
    }

    fn note_plan_read(&self, file: FileId) {
        let mut plan = locks::lock(&self.plan);
        if let Some(positions) = plan.next.get_mut(&file) {
            positions.pop_front();
            if positions.is_empty() {
                plan.next.remove(&file);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::MetadataContainer;

    /// A namespace with `files` (name, size) placed on tier 0 in order.
    fn placed(files: &[(&str, u64)]) -> MetadataContainer {
        let m = MetadataContainer::default();
        for &(name, size) in files {
            m.register(name, size, 1);
            assert!(m.begin_copy(id(&m, name), 0));
            m.finish_copy(id(&m, name), 0);
        }
        m
    }

    fn id(m: &MetadataContainer, name: &str) -> FileId {
        m.resolve(name).unwrap()
    }

    fn ids(m: &MetadataContainer, names: &[&str]) -> Vec<FileId> {
        names.iter().map(|n| id(m, n)).collect()
    }

    fn ctx<'a>(
        files: &'a MetadataContainer,
        exempt: &'a dyn Fn(FileId) -> bool,
        score: &'a dyn Fn(FileId) -> f64,
    ) -> EvictCtx<'a> {
        EvictCtx {
            files,
            exempt,
            score,
            max_victims: super::super::MAX_EVICTIONS_PER_PLACE,
        }
    }

    const NOBODY: fn(FileId) -> bool = |_| false;
    const FLAT: fn(FileId) -> f64 = |_| 0.5;

    #[test]
    fn lru_orders_by_recency_and_selection_is_pure() {
        let m = placed(&[("a", 10), ("b", 10), ("c", 10)]);
        let p = LruEviction;
        m.touch(id(&m, "a"), 0);
        let c = ctx(&m, &NOBODY, &FLAT);
        assert_eq!(p.victims(0, 15, &c), ids(&m, &["b", "c"]));
        // Pure: same answer again.
        assert_eq!(p.victims(0, 15, &c), ids(&m, &["b", "c"]));
        assert_eq!(m.evict_with(id(&m, "b"), 1, || ()), Some(()));
        assert_eq!(p.victims(0, 5, &c), ids(&m, &["c"]));
    }

    #[test]
    fn clairvoyant_evicts_farthest_next_use_and_falls_back_to_lru() {
        let m = placed(&[("a", 10), ("b", 10), ("c", 10)]);
        let p = ClairvoyantEviction::new();
        let c = ctx(&m, &NOBODY, &FLAT);
        let plan: Vec<FileId> = ["a", "b", "a", "c"].iter().map(|n| id(&m, n)).collect();
        p.set_plan(&plan);
        // Next uses: a→0, b→1, c→3 ⇒ c is farthest.
        assert_eq!(p.victims(0, 1, &c), ids(&m, &["c"]));
        p.note_plan_read(id(&m, "a")); // a's next use becomes position 2
        p.note_plan_read(id(&m, "b")); // b never appears again ⇒ rank past plan end
        assert_eq!(p.victims(0, 1, &c), ids(&m, &["b"]));
        // Without a plan, recency decides (a was "touched" least recently
        // by placement order — none were accessed).
        p.set_plan(&[]);
        assert_eq!(p.victims(0, 1, &c), ids(&m, &["a"]));
    }

    #[test]
    fn scored_evicts_lowest_score_with_lru_tiebreak() {
        let m = placed(&[("low", 10), ("high", 10), ("tie1", 10), ("tie2", 10)]);
        let p = ScoredEviction;
        m.touch(id(&m, "tie1"), 0);
        let (low, high) = (id(&m, "low"), id(&m, "high"));
        let score = move |f: FileId| match f {
            f if f == low => 0.1,
            f if f == high => 0.9,
            _ => 0.5,
        };
        let c = ctx(&m, &NOBODY, &score);
        assert_eq!(p.victims(0, 1, &c), ids(&m, &["low"]));
        // Among the 0.5 ties, tie2 is least recently touched.
        assert_eq!(p.victims(0, 25, &c), ids(&m, &["low", "tie2", "tie1"]));
    }

    #[test]
    fn exempt_files_are_skipped_and_shortfall_returns_empty() {
        let m = placed(&[("a", 10), ("b", 10)]);
        let p = LruEviction;
        let a = id(&m, "a");
        let exempt = move |f: FileId| f == a;
        let c = ctx(&m, &exempt, &FLAT);
        assert_eq!(p.victims(0, 10, &c), ids(&m, &["b"]));
        assert!(
            p.victims(0, 11, &c).is_empty(),
            "b alone cannot cover 11 bytes and a is exempt"
        );
        // Wrong tier → nothing.
        assert!(p.victims(1, 1, &c).is_empty());
        // A pinned file is no candidate either.
        m.set_mark(id(&m, "b"), crate::metadata::Mark::Pinned, true);
        assert!(p.victims(0, 10, &c).is_empty());
    }

    #[test]
    fn no_eviction_never_selects() {
        let m = placed(&[("a", 10)]);
        let p = NoEviction;
        assert!(!p.may_evict());
        let c = ctx(&m, &NOBODY, &FLAT);
        assert!(p.victims(0, 1, &c).is_empty());
    }
}
