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
//! the cooldown.
//!
//! All state transitions take an explicit `now_us` timestamp so the same
//! machine runs under the real clock (the registry's `Instant` origin) and
//! the simulator's virtual clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};
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
        // Test-injected faults are deliberate and final (the legacy
        // `FaultyDriver` contract: no hidden retries).
        Error::Injected(_) => ErrorClass::Permanent,
        _ => ErrorClass::Permanent,
    }
}

/// Classify `err` for the *tier health tracker*: `Some` only for real
/// device I/O failures. Middleware-logic errors (unknown file, shutdown)
/// and test-injected faults say nothing about the device's health, so they
/// fail their operation without moving the state machine — the legacy
/// `FaultyDriver` contract (one injected failure, next attempt succeeds)
/// depends on this.
#[must_use]
pub fn device_error_class(err: &Error) -> Option<ErrorClass> {
    match err {
        Error::Io(_) => Some(classify(err)),
        _ => None,
    }
}

/// Tunables for the health state machine and the retry policy.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(default)]
pub struct HealthConfig {
    /// EWMA smoothing factor for the per-tier error rate (weight of the
    /// newest observation).
    pub ewma_alpha: f64,
    /// Error-rate EWMA above which a closed tier becomes suspect.
    pub suspect_threshold: f64,
    /// Error-rate EWMA above which a tier is quarantined outright.
    pub quarantine_threshold: f64,
    /// Consecutive failures that quarantine a tier regardless of EWMA.
    pub consecutive_failure_limit: u32,
    /// Quarantine cooldown before a half-open probe is permitted, in
    /// microseconds (virtual microseconds under the simulator).
    pub probe_cooldown_us: u64,
    /// Maximum in-place retries of a transient failure (attempt 0 is the
    /// original try).
    pub retry_max_attempts: u32,
    /// Base backoff before the first retry, in microseconds.
    pub retry_base_us: u64,
    /// Backoff ceiling in microseconds.
    pub retry_cap_us: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            ewma_alpha: 0.3,
            suspect_threshold: 0.3,
            quarantine_threshold: 0.6,
            consecutive_failure_limit: 3,
            probe_cooldown_us: 2_000_000,
            retry_max_attempts: 3,
            retry_base_us: 2_000,
            retry_cap_us: 200_000,
        }
    }
}

/// Health state of one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierState {
    /// Healthy: reads and placements proceed normally.
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

#[derive(Debug)]
struct HealthInner {
    state: TierState,
    error_ewma: f64,
    consecutive_failures: u32,
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
/// half-open probes. All methods take an explicit `now_us` so real and
/// virtual clocks drive the same machine.
#[derive(Debug)]
pub struct TierHealth {
    /// Set on the first recorded error; lets `record_success` return
    /// without locking while the tier has never misbehaved (the hot path).
    interesting: AtomicBool,
    inner: Mutex<HealthInner>,
}

impl Default for TierHealth {
    fn default() -> Self {
        Self {
            interesting: AtomicBool::new(false),
            inner: Mutex::new(HealthInner {
                state: TierState::Closed,
                error_ewma: 0.0,
                consecutive_failures: 0,
                probe_after_us: 0,
                probe_inflight: false,
                errors_total: 0,
                successes_total: 0,
                quarantines: 0,
                probes: 0,
                recoveries: 0,
                last_transition_us: 0,
            }),
        }
    }
}

impl TierHealth {
    /// Record a successful operation against the tier. Decays the error
    /// EWMA and may close a suspect tier. Free (one relaxed load) while
    /// the tier has never errored.
    pub fn record_success(&self, cfg: &HealthConfig, now_us: u64) {
        if self.interesting.load(Ordering::Relaxed) {
            self.decay(cfg, now_us);
        }
    }

    /// A success on a tier that has errored before (`interesting` is set;
    /// the caller tested it).
    fn decay(&self, cfg: &HealthConfig, now_us: u64) {
        let mut inner = locks::lock(&self.inner);
        inner.successes_total += 1;
        inner.consecutive_failures = 0;
        inner.error_ewma *= 1.0 - cfg.ewma_alpha;
        if inner.state == TierState::Suspect && inner.error_ewma < cfg.suspect_threshold / 2.0 {
            inner.state = TierState::Closed;
            inner.last_transition_us = now_us;
        }
    }

    /// Record a failed operation of class `class`; returns the state the
    /// tier is in afterwards plus whether *this* call quarantined it (so
    /// the caller journals the transition exactly once). `Capacity` errors
    /// never count against the tier (a full device is not a broken
    /// device).
    pub fn record_error(
        &self,
        class: ErrorClass,
        cfg: &HealthConfig,
        now_us: u64,
    ) -> (TierState, bool) {
        if class == ErrorClass::Capacity {
            return (self.state(), false);
        }
        self.interesting.store(true, Ordering::Relaxed);
        let mut inner = locks::lock(&self.inner);
        inner.errors_total += 1;
        inner.consecutive_failures += 1;
        inner.error_ewma = cfg.ewma_alpha + (1.0 - cfg.ewma_alpha) * inner.error_ewma;
        let mut transitioned = false;
        if inner.state != TierState::Quarantined
            && (class == ErrorClass::Permanent
                || inner.consecutive_failures >= cfg.consecutive_failure_limit
                || inner.error_ewma >= cfg.quarantine_threshold)
        {
            inner.state = TierState::Quarantined;
            inner.probe_after_us = now_us.saturating_add(cfg.probe_cooldown_us);
            inner.probe_inflight = false;
            inner.quarantines += 1;
            inner.last_transition_us = now_us;
            transitioned = true;
        } else if inner.state == TierState::Closed && inner.error_ewma >= cfg.suspect_threshold {
            inner.state = TierState::Suspect;
            inner.last_transition_us = now_us;
        }
        (inner.state, transitioned)
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

    /// Claim the half-open probe slot: returns `true` for exactly one
    /// caller once the cooldown has elapsed. The winner must attempt one
    /// operation against the tier and report back via [`Self::probe_result`].
    pub fn probe_permit(&self, now_us: u64) -> bool {
        if !self.interesting.load(Ordering::Relaxed) {
            return false;
        }
        let mut inner = locks::lock(&self.inner);
        if inner.state != TierState::Quarantined || inner.probe_inflight {
            return false;
        }
        if now_us < inner.probe_after_us {
            return false;
        }
        inner.probe_inflight = true;
        inner.probes += 1;
        true
    }

    /// Resolve an outstanding half-open probe: success re-admits the tier
    /// (state back to closed, counters reset); failure re-arms the
    /// quarantine cooldown.
    pub fn probe_result(&self, ok: bool, cfg: &HealthConfig, now_us: u64) {
        let mut inner = locks::lock(&self.inner);
        inner.probe_inflight = false;
        if ok {
            inner.state = TierState::Closed;
            inner.error_ewma = 0.0;
            inner.consecutive_failures = 0;
            inner.recoveries += 1;
            inner.last_transition_us = now_us;
        } else {
            inner.errors_total += 1;
            inner.probe_after_us = now_us.saturating_add(cfg.probe_cooldown_us);
        }
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

impl HealthSnapshot {
    /// Render the per-tier health table (`monarch health` output).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut o = String::with_capacity(512);
        o.push_str(if self.degraded {
            "hierarchy: DEGRADED (at least one tier quarantined)\n"
        } else {
            "hierarchy: healthy\n"
        });
        o.push_str(
            "tier  name          state        ewma   consec  errors  successes  quar  probes  recov\n",
        );
        for t in &self.tiers {
            o.push_str(&format!(
                "{:>4}  {:<12}  {:<11}  {:>5.2}  {:>6}  {:>6}  {:>9}  {:>4}  {:>6}  {:>5}\n",
                t.tier,
                t.name,
                t.state,
                t.error_ewma,
                t.consecutive_failures,
                t.errors_total,
                t.successes_total,
                t.quarantines,
                t.probes,
                t.recoveries,
            ));
        }
        o
    }
}

/// Hierarchy-wide health: one [`TierHealth`] per level plus the shared
/// [`HealthConfig`]. Owned by the [`crate::StorageHierarchy`] so the read
/// path, placement policies, transfer engine, and simulator all see the
/// same trackers.
#[derive(Debug)]
pub struct HealthRegistry {
    names: Vec<String>,
    tiers: Vec<TierHealth>,
    config: RwLock<HealthConfig>,
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
            config: RwLock::new(HealthConfig::default()),
            origin: Instant::now(),
        }
    }

    /// Replace the tunables (tests and the simulator use short cooldowns
    /// and virtual-time scales).
    pub fn set_config(&self, cfg: HealthConfig) {
        *locks::write(&self.config) = cfg;
    }

    /// Current tunables.
    #[must_use]
    pub fn config(&self) -> HealthConfig {
        locks::read(&self.config).clone()
    }

    /// Microseconds since the registry was created (the real-clock
    /// timestamp source; the simulator passes virtual micros instead).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The tracker for `tier`. Panics on an out-of-range id (the registry
    /// is built from the hierarchy, so ids are always in range).
    #[must_use]
    pub fn tier(&self, tier: TierId) -> &TierHealth {
        &self.tiers[tier]
    }

    /// Record a success against `tier` at the registry clock. While the
    /// tier has never errored this is one relaxed load: the config lock
    /// and the clock are only touched once there is a rate to decay.
    pub fn record_success(&self, tier: TierId) {
        let health = &self.tiers[tier];
        if health.interesting.load(Ordering::Relaxed) {
            health.decay(&locks::read(&self.config), self.now_us());
        }
    }

    /// Record an error against `tier` at the registry clock; returns the
    /// resulting state plus whether this call quarantined the tier.
    pub fn record_error(&self, tier: TierId, class: ErrorClass) -> (TierState, bool) {
        self.tiers[tier].record_error(class, &locks::read(&self.config), self.now_us())
    }

    /// True while any tier is quarantined.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.tiers.iter().any(TierHealth::is_quarantined)
    }

    /// The retry policy derived from the current config.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::from_config(&locks::read(&self.config))
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
    /// Derive the policy from a [`HealthConfig`].
    #[must_use]
    pub fn from_config(cfg: &HealthConfig) -> Self {
        Self {
            max_attempts: cfg.retry_max_attempts,
            base_us: cfg.retry_base_us,
            cap_us: cfg.retry_cap_us,
        }
    }

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

/// SplitMix64 finalizer: cheap, stateless bit mixing for jitter and for
/// the simulator's deterministic error sampling.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            probe_cooldown_us: 1_000,
            ..HealthConfig::default()
        }
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

    #[test]
    fn consecutive_failures_quarantine() {
        let h = TierHealth::default();
        let c = cfg();
        assert_eq!(
            h.record_error(ErrorClass::Transient, &c, 0),
            (TierState::Suspect, false)
        );
        assert_eq!(
            h.record_error(ErrorClass::Transient, &c, 1),
            (TierState::Suspect, false)
        );
        assert_eq!(
            h.record_error(ErrorClass::Transient, &c, 2),
            (TierState::Quarantined, true)
        );
        assert!(h.is_quarantined());
        // Further errors while quarantined do not re-report the transition.
        assert_eq!(
            h.record_error(ErrorClass::Transient, &c, 3),
            (TierState::Quarantined, false)
        );
    }

    #[test]
    fn permanent_error_quarantines_immediately() {
        let h = TierHealth::default();
        assert_eq!(
            h.record_error(ErrorClass::Permanent, &cfg(), 0),
            (TierState::Quarantined, true)
        );
    }

    #[test]
    fn capacity_errors_never_quarantine() {
        let h = TierHealth::default();
        let c = cfg();
        for _ in 0..10 {
            assert_eq!(
                h.record_error(ErrorClass::Capacity, &c, 0),
                (TierState::Closed, false)
            );
        }
    }

    #[test]
    fn successes_decay_suspect_back_to_closed() {
        let h = TierHealth::default();
        let c = cfg();
        h.record_error(ErrorClass::Transient, &c, 0);
        assert_eq!(h.state(), TierState::Suspect);
        for t in 1..20 {
            h.record_success(&c, t);
        }
        assert_eq!(h.state(), TierState::Closed);
    }

    #[test]
    fn probe_gated_by_cooldown_and_exclusive() {
        let h = TierHealth::default();
        let c = cfg();
        h.record_error(ErrorClass::Permanent, &c, 0);
        assert!(!h.probe_permit(500), "cooldown not elapsed");
        assert!(h.probe_permit(1_500));
        assert!(!h.probe_permit(1_500), "probe slot is exclusive");
        h.probe_result(false, &c, 1_500);
        assert!(h.is_quarantined());
        assert!(!h.probe_permit(2_000), "failed probe re-arms the cooldown");
        assert!(h.probe_permit(2_600));
        h.probe_result(true, &c, 2_600);
        assert_eq!(h.state(), TierState::Closed);
        let snap = h.snapshot(0, "ssd");
        assert_eq!(snap.recoveries, 1);
        assert_eq!(snap.quarantines, 1);
        assert_eq!(snap.probes, 2);
    }

    #[test]
    fn healthy_tier_never_grants_probes() {
        let h = TierHealth::default();
        assert!(!h.probe_permit(u64::MAX));
        assert_eq!(h.state(), TierState::Closed);
    }

    #[test]
    fn registry_snapshot_and_degraded() {
        let reg = HealthRegistry::new(vec!["ssd".into(), "pfs".into()]);
        assert!(!reg.degraded());
        reg.record_error(0, ErrorClass::Permanent);
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
