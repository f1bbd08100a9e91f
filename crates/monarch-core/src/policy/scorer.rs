//! Placement scorers: "which tier — and how valuable is this file?"
//!
//! `choose` is the reserve-during-place half (pick a tier with room and
//! reserve quota on it); `score`/`observe_outcome` are the value half,
//! consumed by [`super::ScoredEviction`] and the engine's reuse ledger.
//! [`LearnedScorer`] is the deliberately tiny in-repo model: online
//! logistic regression over four [`super::FileFeatures`] — access count,
//! EWMA inter-access gap, bytes, prefetch-reuse ratio — trained one SGD
//! step per observed eviction outcome. No external deps, a few hundred
//! nanoseconds per update, and it degrades to indifference (0.5) on files
//! it has never been taught about.

use std::sync::Mutex;

use crate::hierarchy::StorageHierarchy;
use crate::locks;
use crate::{Result, TierId};

use super::{FileFeatures, PlacementScorer};

/// Shared first-fit tier walk: top-down, skip quarantined tiers, reserve
/// on the first tier with room.
pub(crate) fn first_fit_choose(hierarchy: &StorageHierarchy, size: u64) -> Result<Option<TierId>> {
    for tier in hierarchy.local_tiers() {
        if hierarchy.health().tier(tier.id).is_quarantined() {
            continue;
        }
        let Some(quota) = tier.quota.as_ref() else {
            continue;
        };
        if quota.try_reserve(size) {
            return Ok(Some(tier.id));
        }
    }
    Ok(None)
}

/// Top-down first-fit without eviction — MONARCH's policy (§III-A) and
/// the tier walk every eviction-capable composition reuses.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstFitScorer;

impl PlacementScorer for FirstFitScorer {
    fn name(&self) -> &'static str {
        "first_fit"
    }

    fn choose(&self, hierarchy: &StorageHierarchy, size: u64) -> Result<Option<TierId>> {
        first_fit_choose(hierarchy, size)
    }
}

// ---------------------------------------------------------------------------
// LearnedScorer — online logistic regression, no external deps
// ---------------------------------------------------------------------------

/// SGD step size. Large on purpose: the model sees one observation per
/// eviction, so it must converge within a few dozen examples.
const LEARNING_RATE: f64 = 0.5;
/// Weight clamp keeping a pathological label stream from driving the
/// model into saturation it cannot recover from.
const WEIGHT_CLAMP: f64 = 8.0;

#[derive(Debug, Clone, Copy)]
struct Model {
    w: [f64; 4],
    b: f64,
    updates: u64,
}

/// Online logistic model estimating "will this file be read again while
/// resident?" from profiler features. `choose` delegates to the first-fit
/// tier walk — the learning shows up in `score`, which
/// [`super::ScoredEviction`] ranks evictions by.
#[derive(Debug)]
pub struct LearnedScorer {
    model: Mutex<Model>,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Normalize features into roughly `0.0..=1.0` inputs. Unknown files map
/// to the zero vector, so their score is `sigmoid(b)` — the learned base
/// rate rather than an arbitrary constant.
fn featurize(f: Option<&FileFeatures>) -> [f64; 4] {
    match f {
        None => [0.0; 4],
        Some(f) => [
            (f.accesses as f64).ln_1p() / 8.0,
            1.0 / (1.0 + f.ewma_gap_us / 1e6),
            (f.bytes as f64).ln_1p() / 32.0,
            f.prefetch_reuse.clamp(0.0, 1.0),
        ],
    }
}

impl LearnedScorer {
    /// New untrained model: every file scores 0.5.
    #[must_use]
    pub fn new() -> Self {
        Self {
            model: Mutex::new(Model {
                w: [0.0; 4],
                b: 0.0,
                updates: 0,
            }),
        }
    }

    /// Number of SGD updates applied so far.
    #[must_use]
    pub fn updates(&self) -> u64 {
        locks::lock(&self.model).updates
    }
}

impl Default for LearnedScorer {
    fn default() -> Self {
        Self::new()
    }
}

impl PlacementScorer for LearnedScorer {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn choose(&self, hierarchy: &StorageHierarchy, size: u64) -> Result<Option<TierId>> {
        first_fit_choose(hierarchy, size)
    }

    fn score(&self, features: Option<&FileFeatures>) -> f64 {
        let x = featurize(features);
        let m = locks::lock(&self.model);
        let z = m.b + m.w.iter().zip(x.iter()).map(|(w, x)| w * x).sum::<f64>();
        sigmoid(z)
    }

    fn observe_outcome(&self, features: Option<&FileFeatures>, reused: bool) {
        let x = featurize(features);
        let y = if reused { 1.0 } else { 0.0 };
        let mut m = locks::lock(&self.model);
        let z = m.b + m.w.iter().zip(x.iter()).map(|(w, x)| w * x).sum::<f64>();
        let grad = sigmoid(z) - y;
        for (w, xi) in m.w.iter_mut().zip(x.iter()) {
            *w = (*w - LEARNING_RATE * grad * xi).clamp(-WEIGHT_CLAMP, WEIGHT_CLAMP);
        }
        m.b = (m.b - LEARNING_RATE * grad).clamp(-WEIGHT_CLAMP, WEIGHT_CLAMP);
        m.updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(accesses: u64, gap_us: f64, reuse: f64) -> FileFeatures {
        FileFeatures {
            accesses,
            ewma_gap_us: gap_us,
            bytes: 1 << 20,
            prefetch_reuse: reuse,
        }
    }

    // The learned scorer's online-update "monotonicity quartet":
    // positive labels push a feature point's score up, negative labels
    // push it down, a mixed stream separates hot from cold, and no stream
    // escapes the weight clamp.

    #[test]
    fn positive_updates_raise_the_score_monotonically() {
        let s = LearnedScorer::new();
        let f = features(10, 5e5, 0.8);
        let mut last = s.score(Some(&f));
        assert!((last - 0.5).abs() < 1e-9, "untrained model is indifferent");
        for _ in 0..20 {
            s.observe_outcome(Some(&f), true);
            let now = s.score(Some(&f));
            assert!(now >= last, "score must not drop on a positive label");
            last = now;
        }
        assert!(last > 0.9, "20 positive labels converge: {last}");
    }

    #[test]
    fn negative_updates_lower_the_score_monotonically() {
        let s = LearnedScorer::new();
        let f = features(2, 1e9, 0.0);
        let mut last = s.score(Some(&f));
        for _ in 0..20 {
            s.observe_outcome(Some(&f), false);
            let now = s.score(Some(&f));
            assert!(now <= last, "score must not rise on a negative label");
            last = now;
        }
        assert!(last < 0.1, "20 negative labels converge: {last}");
    }

    #[test]
    fn mixed_stream_separates_hot_from_cold() {
        let s = LearnedScorer::new();
        let hot = features(50, 2e5, 0.9); // frequent, tight gaps, plan-predicted
        let cold = features(2, 8e8, 0.0); // rare, quarter-hour gaps
        for _ in 0..30 {
            s.observe_outcome(Some(&hot), true);
            s.observe_outcome(Some(&cold), false);
        }
        let hot_score = s.score(Some(&hot));
        let cold_score = s.score(Some(&cold));
        assert!(
            hot_score > cold_score + 0.5,
            "model separates the stream: hot={hot_score} cold={cold_score}"
        );
        assert_eq!(s.updates(), 60);
    }

    #[test]
    fn updates_stay_bounded_and_finite() {
        let s = LearnedScorer::new();
        let f = features(u64::MAX, 0.0, 1.0);
        for i in 0..10_000 {
            // Adversarial alternation at an extreme feature point.
            s.observe_outcome(Some(&f), i % 2 == 0);
        }
        let m = locks::lock(&s.model);
        for w in m.w {
            assert!(w.is_finite() && w.abs() <= WEIGHT_CLAMP, "w={w}");
        }
        assert!(m.b.is_finite() && m.b.abs() <= WEIGHT_CLAMP);
        drop(m);
        let score = s.score(Some(&f));
        assert!(score.is_finite() && (0.0..=1.0).contains(&score));
        // And unknown files still get the base rate, not garbage.
        let unknown = s.score(None);
        assert!(unknown.is_finite() && (0.0..=1.0).contains(&unknown));
    }
}
