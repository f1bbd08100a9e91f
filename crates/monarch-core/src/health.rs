//! Tier fault tolerance: error taxonomy, per-tier health tracking, and
//! the retry/backoff policy shared by the read path and the copy engine.
//!
//! Every driver failure is first classified ([`classify`]) as *transient*
//! (worth an in-place retry with backoff), *capacity* (`ENOSPC` — the tier
//! works, it is merely full; the install path evicts and retries once), or
//! *permanent* (the tier itself is suspect). Transient and permanent
//! errors feed a per-tier [`TierHealth`] tracker: an EWMA error rate plus
//! a consecutive-failure counter drive a closed → suspect → quarantined
//! state machine. A quarantined tier is skipped by placement and its
//! resident files are re-resolved down-hierarchy (ultimately to the PFS);
//! after a cooldown, a single *half-open probe* is allowed to ride on a
//! read (or a sim access) — success re-admits the tier, failure re-arms
//! the cooldown. One gate and one settle drive the machine; what a
//! transition books is [`crate::lifecycle::Lifecycle::tier_settled`]'s.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::locks;
use crate::{Error, TierId};

/// How a driver failure should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying in place with backoff (timeouts, broken pipes,
    /// short-lived device hiccups).
    Transient,
    /// The tier is healthy but full (`ENOSPC`): evict and retry, never
    /// quarantine.
    Capacity,
    /// The operation will not succeed on retry; counts heavily against
    /// the tier's health.
    Permanent,
}

/// Classify a middleware error for the fault-tolerance machinery.
///
/// `NotFound` is transient by convention: on the read path it is an
/// eviction race (retried against fresh metadata), and in a copy it means
/// the source listing went stale. Unrecognised I/O errors default to
/// transient — a dying device usually surfaces as `EIO`-style errors that
/// deserve a bounded retry before the EWMA quarantines the tier.
#[must_use]
pub fn classify(err: &Error) -> ErrorClass {
    match err {
        Error::Io(e) => {
            // ENOSPC has no stable `ErrorKind` on this toolchain; match the
            // raw errno.
            if e.raw_os_error() == Some(28) {
                return ErrorClass::Capacity;
            }
            use std::io::ErrorKind as K;
            match e.kind() {
                K::TimedOut
                | K::Interrupted
                | K::WouldBlock
                | K::BrokenPipe
                | K::ConnectionReset
                | K::ConnectionAborted
                | K::UnexpectedEof
                | K::NotFound => ErrorClass::Transient,
                K::PermissionDenied | K::Unsupported | K::InvalidInput | K::InvalidData => {
                    ErrorClass::Permanent
                }
                _ => ErrorClass::Transient,
            }
        }
        // Test-injected faults are deliberate and final
        // (`FlakyOutcome::Injected`: no hidden retries).
        Error::Injected(_) => ErrorClass::Permanent,
        _ => ErrorClass::Permanent,
    }
}

/// Classify `err` for the *tier health tracker*: `Some` only for real
/// device I/O failures. Middleware-logic errors (unknown file, shutdown)
/// and test-injected faults say nothing about the device's health, so they
/// fail their operation without moving the state machine — a scripted
/// `FlakyOutcome::Injected` (one injected failure, next attempt succeeds)
/// depends on this.
#[must_use]
pub fn device_error_class(err: &Error) -> Option<ErrorClass> {
    match err {
        Error::Io(_) => Some(classify(err)),
        _ => None,
    }
}

/// Error-rate EWMA smoothing factor (weight of the newest observation).
const EWMA_ALPHA: f64 = 0.3;
/// Error-rate EWMA above which a closed tier becomes suspect.
const SUSPECT_THRESHOLD: f64 = 0.3;
/// Error-rate EWMA above which a tier is quarantined outright.
const QUARANTINE_THRESHOLD: f64 = 0.6;
/// Consecutive failures that quarantine a tier regardless of the EWMA.
const FAILURE_LIMIT: u32 = 3;
/// In-place retries of a transient failure: 3, backing off from 2 ms up to
/// 200 ms.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    base_us: 2_000,
    cap_us: 200_000,
};

/// The one settable knob of the state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Quarantine cooldown before a half-open probe is permitted, in
    /// microseconds (virtual microseconds under the simulator).
    pub probe_cooldown_us: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            probe_cooldown_us: 2_000_000,
        }
    }
}

/// Health state of one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierState {
    /// Healthy: reads and placements proceed normally.
    #[default]
    Closed,
    /// Elevated error rate: still serving, but one more strike from
    /// quarantine.
    Suspect,
    /// Failed: skipped by placement, residents served down-hierarchy,
    /// awaiting a half-open probe.
    Quarantined,
}

impl TierState {
    /// Stable lowercase label (snapshots, gauges, CLI).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TierState::Closed => "closed",
            TierState::Suspect => "suspect",
            TierState::Quarantined => "quarantined",
        }
    }
}

/// May an operation go to the tier? What [`TierHealth::gate`] answers,
/// handed back to [`TierHealth::settle`] with the operation's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The tier is not quarantined: go ahead.
    Open,
    /// The tier is quarantined and this operation holds its half-open
    /// probe slot: go ahead, and settle the probe.
    Probe,
    /// The tier is quarantined: go elsewhere.
    Shut,
}

/// A state transition [`TierHealth::settle`] made that is booked (journal,
/// counters); the suspect ↔ closed flips are advisory and are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Nothing to book.
    None,
    /// The tier entered quarantine.
    Quarantined,
    /// A half-open probe succeeded: the tier is closed again.
    Recovered,
    /// A half-open probe failed: the cooldown is re-armed.
    ProbeFailed,
}

#[derive(Debug, Default)]
struct HealthInner {
    state: TierState,
    error_ewma: f64,
    consecutive_failures: u32,
    cooldown_us: u64,
    /// Earliest instant a half-open probe may be issued.
    probe_after_us: u64,
    probe_inflight: bool,
    errors_total: u64,
    successes_total: u64,
    quarantines: u64,
    probes: u64,
    recoveries: u64,
    last_transition_us: u64,
}

/// Per-tier health tracker: EWMA error rate + consecutive-failure counter
/// feeding the closed → suspect → quarantined state machine with timed
/// half-open probes. It is driven by one pair of calls around each
/// operation on the tier — [`Self::gate`] before, [`Self::settle`] after —
/// and each takes the clock as a closure, so real and virtual clocks drive
/// the same machine and a tier that never errored reads none.
#[derive(Debug)]
pub struct TierHealth {
    /// Set on the first recorded error; lets the gate and a success
    /// return without locking while the tier has never misbehaved (the
    /// hot path).
    interesting: AtomicBool,
    inner: Mutex<HealthInner>,
}

impl Default for TierHealth {
    fn default() -> Self {
        Self {
            interesting: AtomicBool::new(false),
            inner: Mutex::new(HealthInner {
                cooldown_us: HealthConfig::default().probe_cooldown_us,
                ..HealthInner::default()
            }),
        }
    }
}

impl TierHealth {
    /// May an operation go to the tier now? [`Gate::Open`] unless it is
    /// quarantined; then [`Gate::Probe`] for exactly one caller once the
    /// cooldown has elapsed — who must settle that probe — and
    /// [`Gate::Shut`] for everyone else. One relaxed load while the tier
    /// has never errored; `now_us` is only called on a quarantined tier.
    pub fn gate(&self, now_us: impl FnOnce() -> u64) -> Gate {
        if self.clean() {
            return Gate::Open;
        }
        let mut inner = locks::lock(&self.inner);
        if inner.state != TierState::Quarantined {
            return Gate::Open;
        }
        if inner.probe_inflight || now_us() < inner.probe_after_us {
            return Gate::Shut;
        }
        inner.probe_inflight = true;
        inner.probes += 1;
        Gate::Probe
    }

    /// Feed the outcome of an operation that `gate` let through (a
    /// [`Gate::Shut`] one never reached the tier: nothing happens) and
    /// return the transition it made. A probe succeeds only on `Ok`:
    /// success re-admits the tier (closed, counters reset), failure
    /// re-arms the cooldown. Otherwise a success decays the error EWMA
    /// and may close a suspect tier — one relaxed load while the tier has
    /// never errored — and a transient or permanent error may make it
    /// suspect or quarantine it. `Capacity` never counts against the tier
    /// (a full device is not a broken device).
    pub fn settle(
        &self,
        gate: Gate,
        outcome: std::result::Result<(), ErrorClass>,
        now_us: impl FnOnce() -> u64,
    ) -> Transition {
        match (gate, outcome) {
            (Gate::Shut, _) | (Gate::Open, Err(ErrorClass::Capacity)) => Transition::None,
            (Gate::Open, Ok(())) if !self.interesting.load(Ordering::Relaxed) => Transition::None,
            (Gate::Open, Ok(())) => {
                let mut inner = locks::lock(&self.inner);
                inner.successes_total += 1;
                inner.consecutive_failures = 0;
                inner.error_ewma *= 1.0 - EWMA_ALPHA;
                if inner.state == TierState::Suspect && inner.error_ewma < SUSPECT_THRESHOLD / 2.0 {
                    inner.state = TierState::Closed;
                    inner.last_transition_us = now_us();
                }
                Transition::None
            }
            (Gate::Open, Err(class)) => {
                self.interesting.store(true, Ordering::Relaxed);
                let mut inner = locks::lock(&self.inner);
                inner.errors_total += 1;
                inner.consecutive_failures += 1;
                inner.error_ewma = EWMA_ALPHA + (1.0 - EWMA_ALPHA) * inner.error_ewma;
                if inner.state != TierState::Quarantined
                    && (class == ErrorClass::Permanent
                        || inner.consecutive_failures >= FAILURE_LIMIT
                        || inner.error_ewma >= QUARANTINE_THRESHOLD)
                {
                    let now = now_us();
                    inner.state = TierState::Quarantined;
                    inner.probe_after_us = now.saturating_add(inner.cooldown_us);
                    inner.probe_inflight = false;
                    inner.quarantines += 1;
                    inner.last_transition_us = now;
                    return Transition::Quarantined;
                }
                if inner.state == TierState::Closed && inner.error_ewma >= SUSPECT_THRESHOLD {
                    inner.state = TierState::Suspect;
                    inner.last_transition_us = now_us();
                }
                Transition::None
            }
            (Gate::Probe, outcome) => {
                let now = now_us();
                let mut inner = locks::lock(&self.inner);
                inner.probe_inflight = false;
                if outcome.is_err() {
                    inner.errors_total += 1;
                    inner.probe_after_us = now.saturating_add(inner.cooldown_us);
                    return Transition::ProbeFailed;
                }
                inner.state = TierState::Closed;
                inner.error_ewma = 0.0;
                inner.consecutive_failures = 0;
                inner.recoveries += 1;
                inner.last_transition_us = now;
                Transition::Recovered
            }
        }
    }

    /// Never errored: its gate is open and a success settles nothing.
    #[inline]
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.interesting.load(Ordering::Relaxed)
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> TierState {
        if !self.interesting.load(Ordering::Relaxed) {
            return TierState::Closed;
        }
        locks::lock(&self.inner).state
    }

    /// True when the tier is quarantined (regardless of cooldown: only a
    /// successful probe re-opens it).
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        self.state() == TierState::Quarantined
    }

    fn snapshot(&self, tier: TierId, name: &str) -> TierHealthSnapshot {
        let inner = locks::lock(&self.inner);
        TierHealthSnapshot {
            tier,
            name: name.to_string(),
            state: inner.state.label().to_string(),
            error_ewma: inner.error_ewma,
            consecutive_failures: inner.consecutive_failures,
            errors_total: inner.errors_total,
            successes_total: inner.successes_total,
            quarantines: inner.quarantines,
            probes: inner.probes,
            recoveries: inner.recoveries,
            last_transition_us: inner.last_transition_us,
        }
    }
}

/// Serializable view of one tier's health.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TierHealthSnapshot {
    /// Tier id in the hierarchy.
    pub tier: TierId,
    /// Tier name.
    pub name: String,
    /// `"closed"`, `"suspect"`, or `"quarantined"`.
    pub state: String,
    /// Smoothed error rate in `[0, 1]`.
    pub error_ewma: f64,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Total failed operations recorded.
    pub errors_total: u64,
    /// Total successful operations recorded (only counted once the tier
    /// has errored at least once).
    pub successes_total: u64,
    /// Times the tier entered quarantine.
    pub quarantines: u64,
    /// Half-open probes issued.
    pub probes: u64,
    /// Successful probe re-admissions.
    pub recoveries: u64,
    /// Timestamp (µs, registry clock) of the last state transition.
    pub last_transition_us: u64,
}

/// Serializable health section: hierarchy-wide degraded flag plus the
/// per-tier trackers.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct HealthSnapshot {
    /// True while any tier is quarantined.
    pub degraded: bool,
    /// Per-tier health, top tier first (last entry is the PFS source).
    pub tiers: Vec<TierHealthSnapshot>,
}

/// Hierarchy-wide health: one [`TierHealth`] per level. Owned by the
/// [`crate::StorageHierarchy`] so the read path, placement policies,
/// transfer engine, and simulator all see the same trackers.
#[derive(Debug)]
pub struct HealthRegistry {
    names: Vec<String>,
    tiers: Vec<TierHealth>,
    origin: Instant,
}

impl HealthRegistry {
    /// A registry with one tracker per tier name, all closed.
    #[must_use]
    pub fn new(names: Vec<String>) -> Self {
        let tiers = names.iter().map(|_| TierHealth::default()).collect();
        Self {
            names,
            tiers,
            origin: Instant::now(),
        }
    }

    /// Set every tier's probe cooldown (tests use short ones).
    pub fn set_config(&self, cfg: HealthConfig) {
        for tier in &self.tiers {
            locks::lock(&tier.inner).cooldown_us = cfg.probe_cooldown_us;
        }
    }

    /// The tracker for `tier`. Panics on an out-of-range id (the registry
    /// is built from the hierarchy, so ids are always in range).
    #[must_use]
    pub fn tier(&self, tier: TierId) -> &TierHealth {
        &self.tiers[tier]
    }

    /// Record a success against `tier` outside any gate, at the
    /// registry's own clock. While the tier has never errored this is one
    /// relaxed load.
    pub fn record_success(&self, tier: TierId) {
        self.tiers[tier].settle(Gate::Open, Ok(()), || {
            u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
        });
    }

    /// True while any tier is quarantined.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.tiers.iter().any(TierHealth::is_quarantined)
    }

    /// The retry policy of a transient failure.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        RETRY
    }

    /// Snapshot every tier's tracker.
    #[must_use]
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            degraded: self.degraded(),
            tiers: self
                .tiers
                .iter()
                .enumerate()
                .map(|(id, t)| t.snapshot(id, &self.names[id]))
                .collect(),
        }
    }
}

/// Bounded exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum retries after the initial attempt.
    pub max_attempts: u32,
    /// Backoff before retry 1, doubling per attempt.
    pub base_us: u64,
    /// Backoff ceiling.
    pub cap_us: u64,
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based), in microseconds:
    /// exponential growth capped at `cap_us`, with the upper half jittered
    /// deterministically from `salt` so concurrent retries of different
    /// files decorrelate without consuming any RNG stream.
    #[must_use]
    pub fn backoff_us(&self, attempt: u32, salt: u64) -> u64 {
        let exp = self
            .base_us
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.cap_us)
            .max(1);
        let half = exp / 2;
        half + mix64(salt ^ u64::from(attempt)) % (exp - half + 1)
    }
}

/// One SplitMix64 step — the golden-ratio increment, then the
/// [`splitmix64`](crate::hash::splitmix64) finalizer: cheap, stateless bit
/// mixing for jitter.
#[must_use]
pub fn mix64(x: u64) -> u64 {
    crate::hash::splitmix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker with a 1 ms cooldown.
    fn tracker() -> TierHealth {
        let h = TierHealth::default();
        locks::lock(&h.inner).cooldown_us = 1_000;
        h
    }

    /// Settle an operation through an open gate at `now`.
    fn open(h: &TierHealth, outcome: std::result::Result<(), ErrorClass>, now: u64) -> Transition {
        h.settle(Gate::Open, outcome, || now)
    }

    #[test]
    fn classify_taxonomy() {
        use std::io::{Error as IoError, ErrorKind};
        let t = Error::Io(IoError::new(ErrorKind::TimedOut, "t"));
        assert_eq!(classify(&t), ErrorClass::Transient);
        let p = Error::Io(IoError::new(ErrorKind::PermissionDenied, "p"));
        assert_eq!(classify(&p), ErrorClass::Permanent);
        let c = Error::Io(IoError::from_raw_os_error(28));
        assert_eq!(classify(&c), ErrorClass::Capacity);
        assert_eq!(
            classify(&Error::Injected("x".into())),
            ErrorClass::Permanent
        );
        assert_eq!(
            classify(&Error::UnknownFile("f".into())),
            ErrorClass::Permanent
        );
        // Only real device I/O feeds the health tracker.
        assert_eq!(device_error_class(&t), Some(ErrorClass::Transient));
        assert_eq!(device_error_class(&Error::Injected("x".into())), None);
        assert_eq!(device_error_class(&Error::ShutDown), None);
    }

    /// DESIGN §10's diagram as a table: each state the gate can meet, each
    /// outcome the operation it let through can have, and the state and
    /// booked transition that follow.
    #[test]
    fn gate_and_settle_follow_the_state_diagram() {
        use ErrorClass::{Capacity, Permanent, Transient};
        use TierState::{Closed, Quarantined, Suspect};
        #[derive(Debug, Clone, Copy)]
        enum Start {
            Closed,
            Suspect,
            InCooldown,
            PastCooldown,
        }
        let rows = [
            (Start::Closed, Ok(()), Gate::Open, Closed, Transition::None),
            (
                Start::Closed,
                Err(Transient),
                Gate::Open,
                Suspect,
                Transition::None,
            ),
            (
                Start::Closed,
                Err(Permanent),
                Gate::Open,
                Quarantined,
                Transition::Quarantined,
            ),
            (
                Start::Closed,
                Err(Capacity),
                Gate::Open,
                Closed,
                Transition::None,
            ),
            // One success takes the EWMA 0.3 → 0.21, not yet under 0.15.
            (
                Start::Suspect,
                Ok(()),
                Gate::Open,
                Suspect,
                Transition::None,
            ),
            (
                Start::Suspect,
                Err(Transient),
                Gate::Open,
                Suspect,
                Transition::None,
            ),
            (
                Start::Suspect,
                Err(Permanent),
                Gate::Open,
                Quarantined,
                Transition::Quarantined,
            ),
            (
                Start::Suspect,
                Err(Capacity),
                Gate::Open,
                Suspect,
                Transition::None,
            ),
            // Nothing reaches a tier in its cooldown.
            (
                Start::InCooldown,
                Ok(()),
                Gate::Shut,
                Quarantined,
                Transition::None,
            ),
            (
                Start::InCooldown,
                Err(Transient),
                Gate::Shut,
                Quarantined,
                Transition::None,
            ),
            (
                Start::InCooldown,
                Err(Permanent),
                Gate::Shut,
                Quarantined,
                Transition::None,
            ),
            (
                Start::InCooldown,
                Err(Capacity),
                Gate::Shut,
                Quarantined,
                Transition::None,
            ),
            // The half-open probe succeeds only on `Ok`.
            (
                Start::PastCooldown,
                Ok(()),
                Gate::Probe,
                Closed,
                Transition::Recovered,
            ),
            (
                Start::PastCooldown,
                Err(Transient),
                Gate::Probe,
                Quarantined,
                Transition::ProbeFailed,
            ),
            (
                Start::PastCooldown,
                Err(Permanent),
                Gate::Probe,
                Quarantined,
                Transition::ProbeFailed,
            ),
            (
                Start::PastCooldown,
                Err(Capacity),
                Gate::Probe,
                Quarantined,
                Transition::ProbeFailed,
            ),
        ];
        for (from, outcome, gate, state, transition) in rows {
            let h = tracker();
            let now = match from {
                Start::Closed => 0,
                Start::Suspect => {
                    open(&h, Err(Transient), 0);
                    0
                }
                Start::InCooldown => {
                    open(&h, Err(Permanent), 0);
                    500
                }
                Start::PastCooldown => {
                    open(&h, Err(Permanent), 0);
                    1_500
                }
            };
            let row = format!("{from:?} × {outcome:?}");
            assert_eq!(h.gate(|| now), gate, "{row}: gate");
            assert_eq!(
                h.settle(gate, outcome, || now),
                transition,
                "{row}: transition"
            );
            assert_eq!(h.state(), state, "{row}: state");
        }
    }

    #[test]
    fn consecutive_failures_quarantine() {
        let h = tracker();
        assert_eq!(open(&h, Err(ErrorClass::Transient), 0), Transition::None);
        assert_eq!(open(&h, Err(ErrorClass::Transient), 1), Transition::None);
        assert_eq!(h.state(), TierState::Suspect);
        assert_eq!(
            open(&h, Err(ErrorClass::Transient), 2),
            Transition::Quarantined
        );
        assert!(h.is_quarantined());
        // Further errors while quarantined do not re-report the transition.
        assert_eq!(open(&h, Err(ErrorClass::Transient), 3), Transition::None);
    }

    #[test]
    fn successes_decay_suspect_back_to_closed() {
        let h = tracker();
        open(&h, Err(ErrorClass::Transient), 0);
        assert_eq!(h.state(), TierState::Suspect);
        for t in 1..20 {
            open(&h, Ok(()), t);
        }
        assert_eq!(h.state(), TierState::Closed);
    }

    #[test]
    fn probe_gated_by_cooldown_and_exclusive() {
        let h = tracker();
        open(&h, Err(ErrorClass::Permanent), 0);
        assert_eq!(h.gate(|| 500), Gate::Shut, "cooldown not elapsed");
        assert_eq!(h.gate(|| 1_500), Gate::Probe);
        assert_eq!(h.gate(|| 1_500), Gate::Shut, "probe slot is exclusive");
        h.settle(Gate::Probe, Err(ErrorClass::Transient), || 1_500);
        assert!(h.is_quarantined());
        assert_eq!(
            h.gate(|| 2_000),
            Gate::Shut,
            "failed probe re-arms the cooldown"
        );
        assert_eq!(h.gate(|| 2_600), Gate::Probe);
        h.settle(Gate::Probe, Ok(()), || 2_600);
        assert_eq!(h.state(), TierState::Closed);
        let snap = h.snapshot(0, "ssd");
        assert_eq!(snap.recoveries, 1);
        assert_eq!(snap.quarantines, 1);
        assert_eq!(snap.probes, 2);
    }

    #[test]
    fn permanent_error_quarantines_immediately() {
        let h = tracker();
        assert_eq!(
            open(&h, Err(ErrorClass::Permanent), 0),
            Transition::Quarantined
        );
    }

    #[test]
    fn capacity_errors_never_quarantine() {
        let h = tracker();
        for _ in 0..10 {
            assert_eq!(open(&h, Err(ErrorClass::Capacity), 0), Transition::None);
        }
        assert_eq!(h.state(), TierState::Closed);
    }

    /// A tier that never errored grants no probe and reads no clock.
    #[test]
    fn healthy_tier_never_grants_probes() {
        let h = TierHealth::default();
        let clock = || -> u64 { panic!("a healthy tier read the clock") };
        assert_eq!(h.gate(clock), Gate::Open);
        assert_eq!(h.settle(Gate::Open, Ok(()), clock), Transition::None);
        assert_eq!(
            h.settle(Gate::Open, Err(ErrorClass::Capacity), clock),
            Transition::None
        );
        assert_eq!(h.state(), TierState::Closed);
    }

    #[test]
    fn registry_snapshot_and_degraded() {
        let reg = HealthRegistry::new(vec!["ssd".into(), "pfs".into()]);
        assert!(!reg.degraded());
        reg.tier(0)
            .settle(Gate::Open, Err(ErrorClass::Permanent), || 0);
        assert!(reg.degraded());
        let snap = reg.snapshot();
        assert!(snap.degraded);
        assert_eq!(snap.tiers.len(), 2);
        assert_eq!(snap.tiers[0].state, "quarantined");
        assert_eq!(snap.tiers[1].state, "closed");
        // Round-trips through serde.
        let json = serde_json::to_string(&snap).unwrap();
        let back: HealthSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_us: 1_000,
            cap_us: 8_000,
        };
        let b1 = p.backoff_us(1, 42);
        let b2 = p.backoff_us(2, 42);
        let b4 = p.backoff_us(4, 42);
        assert!((500..=1_000).contains(&b1), "b1={b1}");
        assert!((1_000..=2_000).contains(&b2), "b2={b2}");
        assert!((4_000..=8_000).contains(&b4), "b4={b4}");
        // Deterministic for a given salt, decorrelated across salts.
        assert_eq!(p.backoff_us(3, 7), p.backoff_us(3, 7));
        assert!(p.backoff_us(10, 0) <= 8_000);
    }
}
