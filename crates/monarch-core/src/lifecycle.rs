//! A copy's lifecycle, booked once.
//!
//! A file's copy onto a local tier goes through five transitions —
//! [`scheduled`](Lifecycle::scheduled), [room made](Lifecycle::make_room),
//! [`placed`](Lifecycle::placed), [`unplaced`](Lifecycle::unplaced),
//! [`evicted`](Lifecycle::evicted) — and each one moves the namespace, the
//! tier's quota, the counters, the journal, the policy engine's books, the
//! residency timeline and the cluster view together. [`Lifecycle`] is the
//! one place that does so: one function per transition, every step of it
//! in a fixed order, under a timestamp the caller hands in. The
//! [`TransferEngine`](crate::transfer::TransferEngine) calls it from pool
//! threads under the registry's wall clock, the `dlpipe` simulator from
//! its event loop under virtual time, so what a simulated run records
//! about a copy is what the engine would have recorded.
//!
//! The bytes stay with the caller: deleting an evicted copy is a closure
//! the engine fills with `driver.remove` and the simulator with nothing,
//! and fetching and installing are not this module's business at all.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::cluster::ClusterView;
use crate::health::device_error_class;
use crate::hierarchy::{Quota, StorageHierarchy, TierId};
use crate::metadata::{MetadataContainer, PlacementState};
use crate::observe::{ResidencyEventKind, TransitionCause};
use crate::policy::{DecisionPoint, PlacementDecision, PolicyEngine};
use crate::pool::Lane;
use crate::stats::Stats;
use crate::telemetry::{EventKind, TelemetryRegistry};
use crate::{Error, Result};

/// Quota a copy holds on its target tier between
/// [`Lifecycle::make_room`] and the transition that settles it.
pub type Reservation = (TierId, u64);

/// Why a file that entered `Copying` leaves it without a placement.
#[derive(Debug, Clone, Copy)]
pub enum Unplaced<'a> {
    /// Admission refused the copy at this decision point. Booked by
    /// [`Lifecycle::scheduled`] itself: the copy was never counted as
    /// scheduled, and nobody else holds it.
    Denied(DecisionPoint),
    /// No tier took the file. Placement for it has ended (paper §III-B,
    /// last paragraph) — unless a tier is quarantined, in which case the
    /// answer is only good until the tier recovers.
    NoRoom,
    /// The fetch or the install failed.
    Failed(&'a Error),
    /// The request's deadline passed while the copy sat in the queue;
    /// `remote` when it was the install of bytes fetched from a peer.
    Expired {
        /// Queued on [`Lane::Remote`].
        remote: bool,
    },
    /// The instance is shutting down, or its pool refused the copy.
    ShutDown,
    /// The worker running the copy panicked.
    Panicked,
    /// A queued prefetch copy was withdrawn before it started.
    Canceled(TransitionCause),
}

/// What an eviction was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evict {
    /// An explicit `evict` intent (API or plan driven).
    Explicit,
    /// Picked by the eviction policy to make room for an incoming copy.
    MakeRoom,
    /// The device reported `ENOSPC` under a quota that had room.
    Enospc,
}

impl Evict {
    fn books(self) -> (DecisionPoint, TransitionCause, &'static str) {
        match self {
            Evict::Explicit => (
                DecisionPoint::PlanEvict,
                TransitionCause::Eviction,
                "explicit eviction pushed the file back to the PFS",
            ),
            Evict::MakeRoom => (
                DecisionPoint::PressureEvict,
                TransitionCause::Policy,
                "selected by the eviction policy to make room for an incoming copy",
            ),
            Evict::Enospc => (
                DecisionPoint::PressureEvict,
                TransitionCause::Policy,
                "evicted under ENOSPC pressure to free real device space",
            ),
        }
    }
}

/// The books of one instance's copies, over the parts the instance shares:
/// hierarchy, namespace, policy engine, telemetry registry (whose
/// [`TelemetryRegistry::stats`] are the counters) and, when clustered, the
/// residency view peers are told from.
pub struct Lifecycle {
    hierarchy: Arc<StorageHierarchy>,
    metadata: Arc<MetadataContainer>,
    policy: Arc<PolicyEngine>,
    telemetry: Arc<TelemetryRegistry>,
    /// `(view, this node's id)`; set once, by the builder.
    cluster_feed: OnceLock<(Arc<ClusterView>, usize)>,
}

impl Lifecycle {
    /// The books over `hierarchy`, decided for by `policy` — whose
    /// [`PolicyEngine::namespace`] is the instance's namespace — and
    /// reported through `telemetry`.
    #[must_use]
    pub fn new(
        hierarchy: Arc<StorageHierarchy>,
        policy: Arc<PolicyEngine>,
        telemetry: Arc<TelemetryRegistry>,
    ) -> Self {
        Self {
            hierarchy,
            metadata: Arc::clone(policy.namespace()),
            policy,
            telemetry,
            cluster_feed: OnceLock::new(),
        }
    }

    /// Mirror every placement and eviction from now on into `view` under
    /// `node`. The first feed set stays.
    pub fn set_cluster_feed(&self, view: Arc<ClusterView>, node: usize) {
        let _ = self.cluster_feed.set((view, node));
    }

    /// The storage hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &Arc<StorageHierarchy> {
        &self.hierarchy
    }

    /// The instance's namespace.
    #[must_use]
    pub fn metadata(&self) -> &Arc<MetadataContainer> {
        &self.metadata
    }

    /// The policy engine.
    #[must_use]
    pub fn policy(&self) -> &Arc<PolicyEngine> {
        &self.policy
    }

    /// The telemetry registry.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.telemetry
    }

    /// The counters.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        self.telemetry.stats()
    }

    fn quota(&self, tier: TierId) -> Option<&Quota> {
        self.hierarchy.tier(tier).ok()?.quota.as_ref()
    }

    fn quarantined(&self) -> bool {
        let health = self.hierarchy.health();
        self.hierarchy
            .local_tiers()
            .any(|t| health.tier(t.id).is_quarantined())
    }

    /// The journal entry of one policy verdict.
    fn verdict(&self, file: &str, point: DecisionPoint, verdict: &str, reason: &str) -> EventKind {
        EventKind::PolicyDecision {
            file: file.to_string(),
            point: point.as_str().to_string(),
            policy: self.policy.name().to_string(),
            verdict: verdict.to_string(),
            reason: reason.to_string(),
        }
    }

    /// *Scheduled*: win `Unplaced → Copying` for `file` and ask admission
    /// whether the copy is worth the bandwidth. `false` when no copy may
    /// be queued: another one holds the file, it is placed already, or
    /// admission refused. A denial is non-terminal — the file is
    /// `Unplaced` again and a later miss re-asks, so a file can earn
    /// admission as its profile warms. Remote installs skip the gate (the
    /// bytes are already fetched); a prefetch copy is pinned against
    /// eviction until its planned read arrives or it is un-placed.
    ///
    /// After `true` the caller owes the copy exactly one of
    /// [`Self::placed`] and [`Self::unplaced`].
    pub fn scheduled(&self, at: u64, file: &str, size: u64, lane: Lane) -> bool {
        // The target recorded here is provisional; the policy picks the
        // real destination when the copy is dispatched (paper §III-B: the
        // placement handler runs on a pool thread).
        if !matches!(self.metadata.begin_copy(file, 0), Ok(true)) {
            return false;
        }
        let point = match lane {
            Lane::Demand => Some(DecisionPoint::DemandAdmit),
            Lane::Prefetch => Some(DecisionPoint::PrefetchAdmit),
            Lane::Remote => None,
        };
        if let Some(point) = point {
            if !self.policy.admit(file, size, point) {
                self.unplaced(at, file, None, Unplaced::Denied(point));
                return false;
            }
            let reason = match lane {
                Lane::Prefetch => "plan entry admitted to the prefetch lane",
                _ => "demand miss admitted to the copy pipeline",
            };
            self.telemetry
                .event_at(at, self.verdict(file, point, "admit", reason));
        }
        self.stats().copy_scheduled();
        let (file, bytes) = (file.to_string(), size);
        if lane == Lane::Prefetch {
            self.stats().prefetch_scheduled();
            self.policy.pin(&file);
            self.telemetry
                .event_at(at, EventKind::PrefetchScheduled { file, bytes });
        } else {
            self.telemetry
                .event_at(at, EventKind::CopyScheduled { file, bytes });
        }
        true
    }

    /// *Room made*: carry out `decision` for the copy of `size` bytes of
    /// `file` — evict its victims, `remove` deleting each one's local copy,
    /// then reserve the bytes on its tier. Returns whether they are
    /// reserved (a decision without victims was reserved by the policy
    /// when it was made); from then on they are the copy's
    /// [`Reservation`], and the decision is journalled with the tier's
    /// occupancy. A victim somebody else is moving, or whose delete
    /// failed, is passed over: the reservation decides.
    pub fn make_room(
        &self,
        at: u64,
        file: &str,
        size: u64,
        decision: &PlacementDecision,
        mut remove: impl FnMut(&str) -> Result<()>,
    ) -> bool {
        let Some(quota) = self.quota(decision.tier) else {
            return false;
        };
        if !decision.evict.is_empty() {
            for victim in &decision.evict {
                let _ = self.evicted(at, victim, decision.tier, Evict::MakeRoom, || {
                    remove(victim)
                });
            }
            if !quota.try_reserve(size) {
                return false;
            }
        }
        self.telemetry.event_at(
            at,
            EventKind::PlacementDecided {
                file: file.to_string(),
                tier: decision.tier,
                used: quota.used(),
                capacity: quota.capacity(),
            },
        );
        true
    }

    /// *Evicted*: move `victim`, resident on `tier`, back to the source
    /// around `remove`, the delete of its local copy. `Ok(false)` when
    /// nothing was evicted: it is not resident there, or somebody else is
    /// moving it.
    ///
    /// The namespace moves first, so a reader racing the delete
    /// re-resolves to the source. Once it has moved the eviction *is*
    /// booked, whatever `remove` returned — the tier no longer answers for
    /// the file, so its quota is released and every book told; a failed
    /// delete is handed back afterwards, and is the only `Err` there is.
    pub fn evicted(
        &self,
        at: u64,
        victim: &str,
        tier: TierId,
        why: Evict,
        remove: impl FnOnce() -> Result<()>,
    ) -> Result<bool> {
        let source = self.hierarchy.source_id();
        let resident = self
            .metadata
            .get(victim)
            .filter(|i| i.state == PlacementState::Placed && i.tier == tier && tier != source);
        let Some(info) = resident else {
            return Ok(false);
        };
        let Ok(Some(removed)) = self.metadata.evict_with(victim, source, remove) else {
            return Ok(false);
        };
        if let Some(quota) = self.quota(tier) {
            quota.release(info.size);
        }
        self.stats().record_evict(tier);
        self.policy.on_evicted(victim);
        let (point, cause, reason) = why.books();
        self.telemetry
            .event_at(at, self.verdict(victim, point, "evict", reason));
        self.telemetry.event_at(
            at,
            EventKind::Evicted {
                file: victim.to_string(),
                tier,
                bytes: info.size,
            },
        );
        self.telemetry.observe().timeline().record_at(
            at,
            victim,
            tier,
            ResidencyEventKind::Evicted,
            cause,
        );
        if let Some((view, node)) = self.cluster_feed.get() {
            view.note_evicted(victim, *node);
        }
        removed.map(|()| true)
    }

    /// *Placed*: the copy of `file` is installed on `tier`, `took` after
    /// it was dispatched (when that is known), and its reservation has
    /// become the file's bytes there.
    pub fn placed(
        &self,
        at: u64,
        file: &str,
        size: u64,
        tier: TierId,
        lane: Lane,
        took: Option<Duration>,
    ) -> Result<()> {
        self.metadata.finish_copy(file, tier)?;
        self.policy.on_placed(file, size, tier);
        self.stats().copy_completed();
        if let (Some(took), true) = (took, self.telemetry.is_enabled()) {
            self.telemetry.copy_duration().record_duration(took);
        }
        self.telemetry.event_at(
            at,
            EventKind::CopyCompleted {
                file: file.to_string(),
                tier,
                bytes: size,
                micros: took.map_or(0, |t| u64::try_from(t.as_micros()).unwrap_or(u64::MAX)),
            },
        );
        let cause = match lane {
            // Remote installs are demand driven: a foreground read
            // triggered the peer fetch, only the install ran later.
            Lane::Demand | Lane::Remote => TransitionCause::Demand,
            Lane::Prefetch => TransitionCause::Plan,
        };
        self.telemetry.observe().timeline().record_at(
            at,
            file,
            tier,
            ResidencyEventKind::Admitted,
            cause,
        );
        if let Some((view, node)) = self.cluster_feed.get() {
            view.note_admitted(file, *node);
        }
        Ok(())
    }

    /// *Un-placed*: the scheduled copy of `file` ends without a placement.
    /// What it had `reserved` is released, the exit is counted and
    /// journalled under its reason, the prefetch pin lifts, and only then
    /// does the file leave `Copying` — so whoever schedules it next finds
    /// the books closed. The file stays retriable (`Unplaced`) on every
    /// exit but one: [`Unplaced::NoRoom`] with no tier quarantined pins it
    /// to the PFS.
    ///
    /// A failure while a tier is quarantined (this copy's failure may be
    /// what tripped it) is a *requeue*, not a failure: the next attempt is
    /// routed around the sick tier.
    pub fn unplaced(&self, at: u64, file: &str, reserved: Option<Reservation>, why: Unplaced<'_>) {
        let stats = self.stats();
        if let Some((tier, bytes)) = reserved {
            if let Some(quota) = self.quota(tier) {
                quota.release(bytes);
            }
            if matches!(why, Unplaced::Panicked) {
                self.telemetry.event_at(
                    at,
                    EventKind::ReservationReclaimed {
                        file: file.to_string(),
                        tier,
                        bytes,
                    },
                );
            }
        }
        let failed = |reason: String| {
            stats.copy_failed();
            EventKind::CopyFailed {
                file: file.to_string(),
                reason,
            }
        };
        let requeued = |reason: String| {
            stats.copy_requeue();
            EventKind::CopyRequeued {
                file: file.to_string(),
                reason,
            }
        };
        let mut terminal = false;
        let event = match why {
            Unplaced::Denied(point) => {
                stats.policy_denial();
                self.verdict(
                    file,
                    point,
                    "deny",
                    "admission policy refused the copy; the file stays on the PFS",
                )
            }
            Unplaced::NoRoom if self.quarantined() => {
                requeued("placement skipped while a tier is quarantined".to_string())
            }
            Unplaced::NoRoom => {
                terminal = true;
                stats.placement_skip();
                EventKind::PlacementSkipped {
                    file: file.to_string(),
                    reason: "no local tier had room".to_string(),
                }
            }
            Unplaced::Failed(e) if device_error_class(e).is_some() && self.quarantined() => {
                requeued(format!("target tier quarantined: {e}"))
            }
            Unplaced::Failed(e) => failed(e.to_string()),
            // The peer's bytes went stale in the queue and the file falls
            // back to the PFS, which an operator reads very differently
            // from a broken copy path: a distinct event.
            Unplaced::Expired { remote: true } => {
                stats.copy_failed();
                stats.copy_deadline_expired();
                stats.remote_timeout();
                EventKind::RemoteTimeout {
                    file: file.to_string(),
                    reason: "remote install deadline expired before a worker started it; \
                             file stays on the PFS"
                        .to_string(),
                }
            }
            Unplaced::Expired { remote: false } => {
                stats.copy_deadline_expired();
                failed("copy deadline expired before a worker started it".to_string())
            }
            Unplaced::ShutDown => failed("the instance shut down before the copy ran".to_string()),
            Unplaced::Panicked => failed("background copy task panicked".to_string()),
            Unplaced::Canceled(cause) => {
                stats.prefetch_cancel();
                self.telemetry.observe().timeline().record_at(
                    at,
                    file,
                    self.hierarchy.source_id(),
                    ResidencyEventKind::Canceled,
                    cause,
                );
                EventKind::PrefetchCanceled {
                    file: file.to_string(),
                }
            }
        };
        self.telemetry.event_at(at, event);
        self.policy.unpin(file);
        let _ = self.metadata.abort_copy(file, terminal);
    }
}
