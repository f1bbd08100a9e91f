//! Eviction policies: "who leaves when space is needed?"
//!
//! Every policy here keeps its own *resident book* fed through the
//! `on_placed` / `on_access` / `on_evicted` observers; selection
//! ([`super::EvictionPolicy::victims`]) is pure — it ranks the book and
//! returns names without mutating anything, so a selection the executor
//! abandons (raced placement, failed copy) costs nothing. Files enter the
//! book only once their copy is fully installed, which is what makes the
//! "never evicts an in-flight file" invariant structural rather than
//! checked.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::hash::FxHashMap;
use crate::locks;
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

    fn victims(&self, _tier: TierId, _needed: u64, _ctx: &EvictCtx<'_>) -> Vec<String> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// The shared resident book
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Resident {
    size: u64,
    tier: TierId,
    /// Logical clock value of the most recent touch (placement counts).
    last_touch: u64,
}

#[derive(Debug, Default)]
struct Book {
    residents: FxHashMap<String, Resident>,
    /// Logical clock: bumped on every placement/access.
    clock: u64,
    /// Clairvoyant plan: for each file, the remaining positions at which
    /// the current epoch plan will read it (front = soonest).
    plan_next: FxHashMap<String, VecDeque<u64>>,
    /// Length of the submitted plan (rank for "never read again").
    plan_len: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankKind {
    Lru,
    Clairvoyant,
    Scored,
}

/// The shared implementation: a ranked resident book. Public policies are
/// thin newtypes choosing the ranking.
#[derive(Debug)]
struct Ranked {
    kind: RankKind,
    state: Mutex<Book>,
}

impl Ranked {
    fn new(kind: RankKind) -> Self {
        Self {
            kind,
            state: Mutex::new(Book::default()),
        }
    }

    fn on_access(&self, file: &str, tier: TierId) {
        let mut book = locks::lock(&self.state);
        book.clock += 1;
        let clock = book.clock;
        if let Some(r) = book.residents.get_mut(file) {
            if r.tier == tier {
                r.last_touch = clock;
            }
        }
    }

    fn on_placed(&self, file: &str, size: u64, tier: TierId) {
        let mut book = locks::lock(&self.state);
        book.clock += 1;
        let clock = book.clock;
        book.residents.insert(
            file.to_string(),
            Resident {
                size,
                tier,
                last_touch: clock,
            },
        );
    }

    fn on_evicted(&self, file: &str) {
        locks::lock(&self.state).residents.remove(file);
    }

    fn set_plan(&self, files: &[String]) {
        let mut book = locks::lock(&self.state);
        book.plan_next.clear();
        for (pos, name) in files.iter().enumerate() {
            book.plan_next
                .entry(name.clone())
                .or_default()
                .push_back(pos as u64);
        }
        book.plan_len = files.len() as u64;
    }

    fn note_plan_read(&self, file: &str) {
        let mut book = locks::lock(&self.state);
        let drained = match book.plan_next.get_mut(file) {
            Some(positions) => {
                positions.pop_front();
                positions.is_empty()
            }
            None => false,
        };
        if drained {
            book.plan_next.remove(file);
        }
    }

    /// Ascending rank: the lowest-ranked residents are evicted first.
    fn rank(&self, book: &Book, name: &str, r: &Resident, ctx: &EvictCtx<'_>) -> (f64, u64) {
        match self.kind {
            RankKind::Lru => (r.last_touch as f64, 0),
            // Belady: evict what the plan reads *farthest* in the future
            // (or never again). Negated so "farthest" ranks lowest. With
            // no plan submitted every file ties at 0 and recency breaks
            // the tie — graceful LRU fallback.
            RankKind::Clairvoyant => {
                let next = book
                    .plan_next
                    .get(name)
                    .and_then(|p| p.front().copied())
                    .unwrap_or(book.plan_len + 1);
                (-(next as f64), r.last_touch)
            }
            // Model-scored: evict the least valuable. Scores are quantized
            // so near-ties fall back to LRU order instead of churning on
            // noise in the fourth decimal.
            RankKind::Scored => (((ctx.score)(name) * 1000.0).round(), r.last_touch),
        }
    }

    fn victims(&self, tier: TierId, needed: u64, ctx: &EvictCtx<'_>) -> Vec<String> {
        let book = locks::lock(&self.state);
        let mut candidates: Vec<(&String, &Resident)> = book
            .residents
            .iter()
            .filter(|(name, r)| r.tier == tier && !(ctx.exempt)(name))
            .collect();
        candidates.sort_by(|(an, ar), (bn, br)| {
            let ka = self.rank(&book, an, ar, ctx);
            let kb = self.rank(&book, bn, br, ctx);
            ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1)).then(an.cmp(bn))
        });
        let mut victims = Vec::new();
        let mut freed = 0u64;
        for (name, r) in candidates {
            if freed >= needed || victims.len() >= ctx.max_victims {
                break;
            }
            freed += r.size;
            victims.push(name.clone());
        }
        if freed < needed {
            return Vec::new(); // cannot cover the shortfall — evict nobody
        }
        victims
    }
}

macro_rules! ranked_policy {
    ($(#[$doc:meta])* $ty:ident, $kind:expr, $name:literal) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $ty(Ranked);

        impl $ty {
            /// New empty policy.
            #[must_use]
            pub fn new() -> Self {
                Self(Ranked::new($kind))
            }
        }

        impl Default for $ty {
            fn default() -> Self {
                Self::new()
            }
        }

        impl EvictionPolicy for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn victims(&self, tier: TierId, needed: u64, ctx: &EvictCtx<'_>) -> Vec<String> {
                self.0.victims(tier, needed, ctx)
            }

            fn on_access(&self, file: &str, tier: TierId) {
                self.0.on_access(file, tier);
            }

            fn on_placed(&self, file: &str, size: u64, tier: TierId) {
                self.0.on_placed(file, size, tier);
            }

            fn on_evicted(&self, file: &str) {
                self.0.on_evicted(file);
            }

            fn set_plan(&self, files: &[String]) {
                self.0.set_plan(files);
            }

            fn note_plan_read(&self, file: &str) {
                self.0.note_plan_read(file);
            }
        }
    };
}

ranked_policy!(
    /// Classic least-recently-used: evict the resident with the oldest
    /// touch. The ablation the paper argues against — and the first thing
    /// that beats it once the fast tier cannot hold the dataset.
    LruEviction,
    RankKind::Lru,
    "lru"
);

ranked_policy!(
    /// Belady-style clairvoyant eviction: consult the submitted
    /// [`crate::prefetch::AccessPlan`] and evict whatever the current
    /// epoch reads farthest in the future — or never again. Falls back to
    /// LRU order when no plan is live.
    ClairvoyantEviction,
    RankKind::Clairvoyant,
    "clairvoyant"
);

ranked_policy!(
    /// Score-driven eviction: rank residents by the composed
    /// [`super::PlacementScorer`]'s value estimate (the learned model's
    /// reuse probability) and evict the least valuable, LRU-tie-broken.
    ScoredEviction,
    RankKind::Scored,
    "scored"
);

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(exempt: &'a dyn Fn(&str) -> bool, score: &'a dyn Fn(&str) -> f64) -> EvictCtx<'a> {
        EvictCtx {
            exempt,
            score,
            max_victims: super::super::MAX_EVICTIONS_PER_PLACE,
        }
    }

    const NOBODY: fn(&str) -> bool = |_| false;
    const FLAT: fn(&str) -> f64 = |_| 0.5;

    #[test]
    fn lru_orders_by_recency_and_selection_is_pure() {
        let p = LruEviction::new();
        p.on_placed("a", 10, 0);
        p.on_placed("b", 10, 0);
        p.on_placed("c", 10, 0);
        p.on_access("a", 0);
        let c = ctx(&NOBODY, &FLAT);
        assert_eq!(p.victims(0, 15, &c), vec!["b", "c"]);
        // Pure: same answer again.
        assert_eq!(p.victims(0, 15, &c), vec!["b", "c"]);
        p.on_evicted("b");
        assert_eq!(p.victims(0, 5, &c), vec!["c"]);
    }

    #[test]
    fn clairvoyant_evicts_farthest_next_use_and_falls_back_to_lru() {
        let p = ClairvoyantEviction::new();
        for name in ["a", "b", "c"] {
            p.on_placed(name, 10, 0);
        }
        let c = ctx(&NOBODY, &FLAT);
        let plan: Vec<String> = ["a", "b", "a", "c"].iter().map(|s| s.to_string()).collect();
        p.set_plan(&plan);
        // Next uses: a→0, b→1, c→3 ⇒ c is farthest.
        assert_eq!(p.victims(0, 1, &c), vec!["c"]);
        p.note_plan_read("a"); // a's next use becomes position 2
        p.note_plan_read("b"); // b never appears again ⇒ rank past plan end
        assert_eq!(p.victims(0, 1, &c), vec!["b"]);
        // Without a plan, recency decides (a was "touched" least recently
        // by placement order — none were accessed).
        p.set_plan(&[]);
        assert_eq!(p.victims(0, 1, &c), vec!["a"]);
    }

    #[test]
    fn scored_evicts_lowest_score_with_lru_tiebreak() {
        let p = ScoredEviction::new();
        p.on_placed("low", 10, 0);
        p.on_placed("high", 10, 0);
        p.on_placed("tie1", 10, 0);
        p.on_placed("tie2", 10, 0);
        p.on_access("tie1", 0);
        let score: fn(&str) -> f64 = |name| match name {
            "low" => 0.1,
            "high" => 0.9,
            _ => 0.5,
        };
        let c = ctx(&NOBODY, &score);
        assert_eq!(p.victims(0, 1, &c), vec!["low"]);
        // Among the 0.5 ties, tie2 is least recently touched.
        assert_eq!(p.victims(0, 25, &c), vec!["low", "tie2", "tie1"]);
    }

    #[test]
    fn exempt_files_are_skipped_and_shortfall_returns_empty() {
        let p = LruEviction::new();
        p.on_placed("a", 10, 0);
        p.on_placed("b", 10, 0);
        let pinned: fn(&str) -> bool = |n| n == "a";
        let c = ctx(&pinned, &FLAT);
        assert_eq!(p.victims(0, 10, &c), vec!["b"]);
        assert!(
            p.victims(0, 11, &c).is_empty(),
            "b alone cannot cover 11 bytes and a is exempt"
        );
        // Wrong tier → nothing.
        assert!(p.victims(1, 1, &c).is_empty());
    }

    #[test]
    fn no_eviction_never_selects() {
        let p = NoEviction;
        assert!(!p.may_evict());
        p.on_placed("a", 10, 0);
        let c = ctx(&NOBODY, &FLAT);
        assert!(p.victims(0, 1, &c).is_empty());
    }
}
