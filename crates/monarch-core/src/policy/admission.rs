//! Admission policies: "is this file worth a tier slot?"
//!
//! Admission runs *before* a copy is scheduled, so a denial costs nothing
//! but the read staying on the PFS — and it is re-asked on the next miss,
//! so a file can earn admission as its profile evolves. All policies must
//! admit files the profiler has never seen: denying the unknown would lock
//! a cold-started hierarchy out of its own fast tiers.

use super::{AdmissionPolicy, DecisionPoint, FileFeatures};

/// Admit everything — the paper's (implicit) policy and the default.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn name(&self) -> &'static str {
        "admit_all"
    }

    fn admit(&self, _size: u64, _f: Option<&FileFeatures>, _p: DecisionPoint) -> bool {
        true
    }
}

/// Deny demand admissions for files the profiler has *proven* cold: read
/// at least twice with an EWMA inter-access gap beyond the reuse horizon.
/// Prefetch admissions always pass — the access plan is direct evidence
/// the file is about to be read, which beats any historical gap.
#[derive(Debug, Clone, Copy)]
pub struct ReuseAware {
    /// EWMA inter-access gap (µs) beyond which a file counts as cold.
    reuse_horizon_us: f64,
}

impl ReuseAware {
    /// Custom reuse horizon in microseconds.
    #[must_use]
    pub fn new(reuse_horizon_us: f64) -> Self {
        Self { reuse_horizon_us }
    }
}

impl Default for ReuseAware {
    /// Five minutes — generous against epoch-scale re-reads, strict
    /// against touch-once files.
    fn default() -> Self {
        Self::new(300e6)
    }
}

impl AdmissionPolicy for ReuseAware {
    fn name(&self) -> &'static str {
        "reuse_aware"
    }

    fn admit(&self, _size: u64, f: Option<&FileFeatures>, p: DecisionPoint) -> bool {
        if p == DecisionPoint::PrefetchAdmit {
            return true;
        }
        match f {
            // Unknown or single-touch files get the benefit of the doubt.
            None => true,
            Some(f) if f.accesses < 2 => true,
            Some(f) => f.ewma_gap_us <= self.reuse_horizon_us || f.prefetch_reuse > 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(accesses: u64, gap: f64) -> FileFeatures {
        FileFeatures {
            accesses,
            ewma_gap_us: gap,
            bytes: 1 << 20,
            prefetch_reuse: 0.0,
        }
    }

    #[test]
    fn admit_all_admits_all() {
        assert!(AdmitAll.admit(u64::MAX, None, DecisionPoint::DemandAdmit));
    }

    #[test]
    fn reuse_aware_denies_proven_cold_but_admits_unknown_and_planned() {
        let p = ReuseAware::default();
        let cold = features(5, 1e9); // ~17 min between reads
        let hot = features(5, 1e6); // 1s between reads
        assert!(!p.admit(1, Some(&cold), DecisionPoint::DemandAdmit));
        assert!(p.admit(1, Some(&hot), DecisionPoint::DemandAdmit));
        assert!(
            p.admit(1, None, DecisionPoint::DemandAdmit),
            "unknown admits"
        );
        assert!(
            p.admit(1, Some(&features(1, 0.0)), DecisionPoint::DemandAdmit),
            "first touch admits"
        );
        assert!(
            p.admit(1, Some(&cold), DecisionPoint::PrefetchAdmit),
            "the plan overrides history"
        );
    }
}
