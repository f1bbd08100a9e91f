//! A copy's lifecycle, and its tiers' health, booked once.
//!
//! A file's copy onto a local tier goes through five transitions —
//! [`scheduled`](Lifecycle::scheduled), [room made](Lifecycle::room),
//! [`placed`](Lifecycle::placed), [`unplaced`](Lifecycle::unplaced),
//! [`evicted`](Lifecycle::evicted) — and each one moves the namespace, the
//! tier's quota, the counters, the journal and the policy engine's books
//! together. (What peers are told this node holds is read off the
//! namespace, so a transition has nothing else to feed.) So is what the
//! copy does in between: a worker [`started`](Lifecycle::started) it, and
//! each [`stage`](Lifecycle::stage) of its install moved its bytes;
//! `placed` or `unplaced` closes the [`CopyRun`]. [`Lifecycle`] is the one
//! place that does so: one function per transition, every step of it
//! in a fixed order, under a timestamp the caller hands in. So are two
//! moves beside the copy's: what an operation on a tier did to the tier's
//! breaker ([`tier_settled`](Lifecycle::tier_settled)), and a read that
//! moved its file's queued prefetch copy onto the demand lane
//! ([`promoted`](Lifecycle::promoted)). The
//! [`TransferEngine`](crate::transfer::TransferEngine) calls it from pool
//! threads under the registry's wall clock, the `dlpipe` simulator from
//! its event loop under virtual time, so what a simulated run records
//! about a copy is what the engine would have recorded.
//!
//! So is a foreground read that has its bytes
//! ([`read_served`](Lifecycle::read_served)): the engine's read loop, its
//! peer path and the simulator book through that one call, so a read is
//! counted, classed, timed, traced and judged a prefetch hit the same way
//! under either clock. So is the walk of an access plan over the
//! [`PrefetchWindow`] its caller owns: [opened](Lifecycle::plan_opened),
//! [read](Lifecycle::plan_read) and [closed](Lifecycle::plan_closed).
//!
//! Each tier operation a copy makes is counted and timed here, once: the
//! engine's source fetches ([`fetch`](Lifecycle::fetch), for the install
//! and for a foreground read at the staging's frontier alike), its install
//! write ([`install`](Lifecycle::install), booked as a
//! [`stage`](Lifecycle::stage)) and a failed install's cleanup
//! ([`discard`](Lifecycle::discard)) go through the tier's one driver from
//! here. The simulator, whose tiers hold no bytes, books the same write
//! through `stage`. Deleting an evicted copy is a closure the engine fills
//! with `driver.remove` and the simulator with nothing.

use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Instant;

use crate::health::{device_error_class, ErrorClass, Gate, Transition};
use crate::hierarchy::{Quota, StorageHierarchy, TierId};
use crate::metadata::{FileId, MetadataContainer, Placement, PlacementState, ReadCount};
use crate::observe::{ReadClass, ReadTiming};
use crate::policy::{DecisionPoint, PolicyEngine};
use crate::pool::Lane;
use crate::prefetch::{PrefetchConfig, PrefetchWindow, ReadFeedback, ReadNote};
use crate::stats::{Stats, ThreadTally};
use crate::telemetry::{EventKind, TelemetryRegistry, TransitionCause};
use crate::trace::{names, FlowPhase, SpanRecord, QUEUE_TRACK};
use crate::{Error, Result};

/// Quota a copy holds on its target tier between
/// [`Lifecycle::room`] and the transition that settles it.
pub type Reservation = (TierId, u64);

/// How a copy's scheduling is traced; the default: it is not.
#[derive(Debug, Clone, Copy, Default)]
pub struct CopyFlow {
    /// The flow from the copy's scheduling to its run (`0`: untraced).
    pub id: u64,
    /// The `copy_scheduled` span's parent (`0`: a root).
    pub parent: u64,
    /// The track the `copy_scheduled` span is drawn on.
    pub track: u64,
    /// The `copy_scheduled` span starts the flow: no foreground read will.
    pub starts: bool,
}

/// A copy [`Lifecycle::scheduled`] queued, until a worker takes it.
#[derive(Debug, Clone, Copy)]
pub struct Queued {
    at: u64,
    lane: Lane,
    flow: u64,
}

/// A copy a worker took ([`Lifecycle::started`]), until
/// [`Lifecycle::placed`] or [`Lifecycle::unplaced`] closes it: when it
/// started, its `copy_exec` span id (`0`: untraced), the track its spans
/// are drawn on and the flow that span finishes.
#[derive(Debug)]
pub struct CopyRun {
    start: u64,
    exec: u64,
    /// The track the run's spans are drawn on.
    pub track: u64,
    flow: u64,
}

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
    fn books(self) -> (DecisionPoint, &'static str) {
        match self {
            Evict::Explicit => (
                DecisionPoint::PlanEvict,
                "explicit eviction pushed the file back to the PFS",
            ),
            Evict::MakeRoom => (
                DecisionPoint::PressureEvict,
                "selected by the eviction policy to make room for an incoming copy",
            ),
            Evict::Enospc => (
                DecisionPoint::PressureEvict,
                "evicted under ENOSPC pressure to free real device space",
            ),
        }
    }
}

/// How a foreground read got its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A read of the serving tier's driver.
    Tier,
    /// Out of the install staging of the file's in-flight copy.
    Staged {
        /// Bytes of the range the read fetched from the source itself (booked
        /// there as it fetched them); `0` when the staging held them all.
        fetched: u64,
    },
    /// From a peer node's fast tier, over the cluster transport.
    Peer,
}

/// Where a sampled read's span tree goes.
#[derive(Debug, Clone, Copy)]
pub struct ReadTrace {
    /// The `read` span's id.
    pub id: u64,
    /// Its parent span (`0`: a root).
    pub parent: u64,
    /// The track the tree is drawn on.
    pub track: u64,
    /// The flow its `driver_pread` starts to the copy it announced (`0`: none).
    pub flow: u64,
}

/// One foreground read that produced bytes, as
/// [`Lifecycle::read_served`] books it.
#[derive(Debug, Clone, Copy)]
pub struct ServedRead {
    /// The file's id in the namespace, whose lookup counted the access.
    pub id: FileId,
    /// Where in the file the read began.
    pub offset: u64,
    /// Bytes it returned.
    pub bytes: u64,
    /// The tier the lookup found the file on.
    pub home: TierId,
    /// The lookup found a copy of the file in flight.
    pub copying: bool,
    /// The tier that served it: `home` (the source, for a staged or peer
    /// read), or a lower one when the read was rerouted around a failing one.
    pub tier: TierId,
    /// How it was served.
    pub how: Served,
    /// What the plan cursor made of it.
    pub plan: ReadFeedback,
    /// How many reads it stands for in the time records: 1, the sampling
    /// period for a local hit that carries the clock, `0` for one that does not.
    pub weight: u64,
    /// Set when the read is sampled for tracing.
    pub trace: Option<ReadTrace>,
    /// When the read carried the clock: when it began, had looked its file
    /// up, had its serving tier, had its bytes and returned, in
    /// nanoseconds on the registry clock (virtual time in the simulator).
    pub marks: Option<[u64; 5]>,
}

/// The books of one instance's copies, over the parts the instance shares:
/// hierarchy, namespace, policy engine and telemetry registry (whose
/// [`TelemetryRegistry::stats`] are the counters).
pub struct Lifecycle {
    hierarchy: Arc<StorageHierarchy>,
    metadata: Arc<MetadataContainer>,
    policy: Arc<PolicyEngine>,
    telemetry: Arc<TelemetryRegistry>,
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
        }
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

    /// The name of `file`, for what leaves the process: a driver call, a
    /// journal event, a trace arg.
    pub(crate) fn name(&self, file: FileId) -> &str {
        self.metadata.name_of(file).unwrap_or_default()
    }

    /// The journal entry of one policy verdict.
    fn verdict(
        &self,
        file: FileId,
        point: DecisionPoint,
        verdict: &str,
        reason: &str,
    ) -> EventKind {
        EventKind::PolicyDecision {
            file: self.name(file).to_string(),
            point: point.as_str().to_string(),
            policy: self.policy.name().to_string(),
            verdict: verdict.to_string(),
            reason: reason.to_string(),
        }
    }

    /// *Scheduled*: win `Unplaced → Copying` for `file` and ask admission
    /// whether the copy is worth the bandwidth. `None` when no copy may
    /// be queued: another one holds the file, it is placed already, or
    /// admission refused. A denial is non-terminal — the file is
    /// `Unplaced` again and a later miss re-asks, so a file can earn
    /// admission as its profile warms. Remote installs skip the gate (the
    /// bytes are already fetched); a prefetch copy is pinned against
    /// eviction until its planned read arrives or it is un-placed. A
    /// traced copy leaves its `copy_scheduled` (`prefetch_scheduled`) span.
    ///
    /// After `Some` the caller owes the copy exactly one of
    /// [`Self::placed`] and [`Self::unplaced`], and hands the [`Queued`]
    /// copy to [`Self::started`] if a worker takes it.
    pub fn scheduled(
        &self,
        at: u64,
        file: FileId,
        size: u64,
        lane: Lane,
        flow: CopyFlow,
    ) -> Option<Queued> {
        // The target recorded here is provisional; the policy picks the
        // real destination when the copy is dispatched (paper §III-B: the
        // placement handler runs on a pool thread).
        if !self.metadata.begin_copy(file, 0) {
            return None;
        }
        let point = match lane {
            Lane::Demand => Some(DecisionPoint::DemandAdmit),
            Lane::Prefetch => Some(DecisionPoint::PrefetchAdmit),
            Lane::Remote => None,
        };
        if let Some(point) = point {
            if !self.policy.admit(file, size, point) {
                self.unplaced(at, file, None, Unplaced::Denied(point), None);
                return None;
            }
            let reason = match lane {
                Lane::Prefetch => "plan entry admitted to the prefetch lane",
                _ => "demand miss admitted to the copy pipeline",
            };
            self.telemetry
                .event_at(at, self.verdict(file, point, "admit", reason));
        }
        self.stats().copy_scheduled();
        let (name, bytes) = (self.name(file).to_string(), size);
        let span = if lane == Lane::Prefetch {
            self.stats().prefetch_scheduled();
            self.policy.pin(file);
            self.telemetry
                .event_at(at, EventKind::PrefetchScheduled { file: name, bytes });
            names::PREFETCH_SCHEDULED
        } else {
            self.telemetry
                .event_at(at, EventKind::CopyScheduled { file: name, bytes });
            names::COPY_SCHEDULED
        };
        if flow.id != 0 {
            let tr = self.telemetry.trace();
            let span = SpanRecord::new(span, "copy", flow.track, at, 0)
                .with_id(tr.next_id())
                .with_parent(flow.parent)
                .arg_str("file", self.name(file))
                .arg_u64("bytes", size);
            // `with_flow` makes the exporter emit the `flow` arg itself, so
            // only the non-starting variant adds it explicitly.
            tr.record(if flow.starts {
                span.with_flow(flow.id, FlowPhase::Start)
            } else {
                span.arg_u64("flow", flow.id)
            });
        }
        Some(Queued {
            at,
            lane,
            flow: flow.id,
        })
    }

    /// *Started*: a worker took the `queued` copy of `file`. Its wait is
    /// booked into the queue-wait histogram of the lane it was scheduled
    /// on. A copy that `runs` journals `copy_started`, and a traced one
    /// leaves its `queue_wait` span and opens its `copy_exec` span on the
    /// `track` it asks for; one that does not (the instance is shutting
    /// down, or its deadline passed) books the wait alone, and is un-placed
    /// next. The run is closed by [`Self::placed`] or [`Self::unplaced`].
    pub fn started(
        &self,
        at: u64,
        file: FileId,
        queued: Queued,
        track: impl FnOnce() -> u64,
        runs: bool,
    ) -> CopyRun {
        let wait = at.saturating_sub(queued.at);
        if self.telemetry.is_enabled() {
            let hist = match queued.lane {
                Lane::Demand => self.telemetry.queue_wait(),
                Lane::Remote => self.telemetry.queue_wait_remote(),
                Lane::Prefetch => self.telemetry.queue_wait_prefetch(),
            };
            hist.record(wait * 1_000);
        }
        let traced = runs && queued.flow != 0;
        let tr = self.telemetry.trace();
        let file = self.name(file);
        if runs {
            let file = file.to_string();
            self.telemetry.event_at(at, EventKind::CopyStarted { file });
        }
        if traced {
            // The wait belongs to neither the scheduling nor the executing
            // thread: it is drawn on a track of its own.
            tr.record(
                SpanRecord::new(names::QUEUE_WAIT, "copy", QUEUE_TRACK, queued.at, wait)
                    .with_id(tr.next_id())
                    .arg_str("file", file),
            );
        }
        CopyRun {
            start: at,
            exec: if traced { tr.next_id() } else { 0 },
            track: if traced { track() } else { 0 },
            flow: queued.flow,
        }
    }

    /// A span of the traced `run`, under its `copy_exec`.
    fn run_span(&self, run: &CopyRun, name: &'static str, from: u64, to: u64) -> SpanRecord {
        SpanRecord::new(name, "copy", run.track, from, to.saturating_sub(from))
            .with_id(self.telemetry.trace().next_id())
            .with_parent(run.exec)
    }

    /// *Room*: ask the policy where the copy of `size` bytes of `file`
    /// goes, and make room there: evict the decision's victims, `remove`
    /// deleting each one's copy on the tier it is given, then reserve the
    /// bytes on that tier (a decision without victims was reserved by the
    /// policy when it was made); once reserved, the decision is journalled
    /// with the tier's occupancy. A victim somebody else is moving, or
    /// whose delete failed, is passed over: the reservation decides.
    /// Returns the copy's [`Reservation`], or `None` when no tier took it
    /// (the caller un-places it [`NoRoom`](Unplaced::NoRoom)). `at` is read
    /// before and after the decision, which a traced `run` leaves as its
    /// `placement_decide` span.
    pub fn room(
        &self,
        at: impl Fn() -> u64,
        run: Option<&CopyRun>,
        file: FileId,
        size: u64,
        mut remove: impl FnMut(TierId, &str) -> Result<()>,
    ) -> Result<Option<Reservation>> {
        let decided = at();
        let decision = self.policy.place(&self.hierarchy, file, size)?;
        let at = at();
        if let Some(run) = run.filter(|r| r.exec != 0) {
            let mut span = self
                .run_span(run, names::PLACEMENT_DECIDE, decided, at)
                .arg_str("policy", self.policy.name());
            match &decision {
                Some(d) => span.args.extend(d.trace_args(&self.hierarchy)),
                None => span = span.arg_str("tier", "none"),
            }
            self.telemetry.trace().record(span);
        }
        let Some((quota, decision)) = decision.and_then(|d| Some((self.quota(d.tier)?, d))) else {
            return Ok(None);
        };
        if !decision.evict.is_empty() {
            for &victim in &decision.evict {
                let _ = self.evicted(at, victim, decision.tier, Evict::MakeRoom, || {
                    remove(decision.tier, self.name(victim))
                });
            }
            if !quota.try_reserve(size) {
                return Ok(None);
            }
        }
        self.telemetry.event_at(
            at,
            EventKind::PlacementDecided {
                file: self.name(file).to_string(),
                tier: decision.tier,
                used: quota.used(),
                capacity: quota.capacity(),
            },
        );
        Ok(Some((decision.tier, size)))
    }

    /// *Fetch*: read `dst.len()` bytes of `file` at `at` from the source,
    /// for a copy's install or a foreground read at its staging's frontier.
    /// The bytes read are counted on the source tier, and the fetch, failed
    /// or not, is one sample in its read-latency histogram; with telemetry
    /// off no clock is read.
    pub fn fetch(&self, file: FileId, at: u64, dst: &mut [u8]) -> Result<usize> {
        let source = self.hierarchy.source();
        let start = self.telemetry.is_enabled().then(Instant::now);
        let read = source.driver.read_at(self.name(file), at, dst);
        if let Some(start) = start {
            let hist = self.telemetry.read_latency(source.id);
            hist.record_duration(start.elapsed());
        }
        if let Ok(n) = read {
            self.stats().record_read(source.id, n as u64);
        }
        read
    }

    /// *Stage*: one half of a copy's install moved `bytes` through `tier`
    /// between `from` and `to`: the fetch from the source, or the write to
    /// the copy's tier. A write is counted on its tier and is one sample in
    /// its write-latency histogram; a traced `run` leaves its `copy_read`
    /// or `copy_write` span. (A spill that no worker ran has no `run`.)
    pub fn stage(&self, run: Option<&CopyRun>, tier: TierId, bytes: u64, from: u64, to: u64) {
        let fetched = tier == self.hierarchy.source_id();
        if !fetched {
            self.stats().record_write(tier, bytes);
            self.wrote(tier, from, to);
        }
        let Some(run) = run.filter(|run| run.exec != 0) else {
            return;
        };
        let name = if fetched {
            names::COPY_READ
        } else {
            names::COPY_WRITE
        };
        let tier = self.hierarchy.tier(tier).map_or("", |t| t.name.as_str());
        let span = self.run_span(run, name, from, to).arg_str("tier", tier);
        self.telemetry.trace().record(span.arg_u64("bytes", bytes));
    }

    /// A write to `tier` between `from` and `to`, in the tier's histogram.
    fn wrote(&self, tier: TierId, from: u64, to: u64) {
        if self.telemetry.is_enabled() {
            let took = to.saturating_sub(from);
            self.telemetry.write_latency(tier).record(took * 1_000);
        }
    }

    /// *Install*: write `data`, the whole of `file`, to `tier` through its
    /// driver, as the `run`'s write [`stage`](Self::stage), timed by `at`.
    /// A failed write is one sample in the tier's write-latency histogram
    /// too, and is counted nowhere else.
    pub fn install(
        &self,
        run: &CopyRun,
        tier: TierId,
        file: FileId,
        data: &[u8],
        at: impl Fn() -> u64,
    ) -> Result<()> {
        let driver = &self.hierarchy.tier(tier)?.driver;
        let from = at();
        let written = driver.write_full(self.name(file), data);
        match written {
            Ok(()) => self.stage(Some(run), tier, data.len() as u64, from, at()),
            Err(_) => self.wrote(tier, from, at()),
        }
        written
    }

    /// *Discard*: remove what a failed install may have left of `file` on
    /// `tier` (best effort; the POSIX driver's rename leaves nothing). A
    /// delete that went through is counted on the tier and journalled as
    /// `removed`.
    pub fn discard(&self, tier: TierId, file: FileId) {
        let name = self.name(file);
        let dest = self.hierarchy.tier(tier);
        if dest.is_ok_and(|dest| dest.driver.remove(name).is_ok()) {
            self.stats().record_remove(tier);
            let file = name.to_string();
            self.telemetry.event(EventKind::Removed { file, tier });
        }
    }

    /// Close `run` at `at`, with `outcome`: its time on the worker, and the
    /// traced run's `copy_exec` span, which finishes its flow.
    fn closed(&self, at: u64, file: FileId, run: &CopyRun, outcome: &str) {
        let took = at.saturating_sub(run.start);
        if self.telemetry.is_enabled() {
            self.telemetry.pool_exec().record(took * 1_000);
        }
        if run.exec != 0 {
            let bytes = self.metadata.placement(file).map_or(0, |info| info.size);
            self.telemetry.trace().record(
                SpanRecord::new(names::COPY_EXEC, "copy", run.track, run.start, took)
                    .with_id(run.exec)
                    .with_flow(run.flow, FlowPhase::Finish)
                    .arg_str("file", self.name(file))
                    .arg_u64("bytes", bytes)
                    .arg_str("outcome", outcome),
            );
        }
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
        victim: FileId,
        tier: TierId,
        why: Evict,
        remove: impl FnOnce() -> Result<()>,
    ) -> Result<bool> {
        let source = self.hierarchy.source_id();
        let info = self.metadata.placement(victim).filter(|p| p.tier == tier);
        let Some(info) = info.filter(|info| info.state == PlacementState::Placed && tier != source)
        else {
            return Ok(false);
        };
        let Some(removed) = self.metadata.evict_with(victim, source, remove) else {
            return Ok(false);
        };
        if let Some(quota) = self.quota(tier) {
            quota.release(info.size);
        }
        self.stats().record_evict(tier);
        self.policy.on_evicted(victim);
        let (point, reason) = why.books();
        self.telemetry
            .event_at(at, self.verdict(victim, point, "evict", reason));
        self.telemetry.event_at(
            at,
            EventKind::Evicted {
                file: self.name(victim).to_string(),
                tier,
                bytes: info.size,
            },
        );
        removed.map(|()| true)
    }

    /// *Placed*: the copy of `file` is installed on `tier`, and its
    /// reservation has become the file's bytes there. Its `run`, when a
    /// worker ran it, is closed: timed as the copy's duration, and traced
    /// with its `metadata_register` span. A prefetch-lane copy's placement
    /// is the instant its file counts as prefetched: the profiler compares
    /// later reads against it.
    pub fn placed(
        &self,
        at: u64,
        file: FileId,
        size: u64,
        tier: TierId,
        lane: Lane,
        run: Option<&CopyRun>,
    ) {
        self.metadata.finish_copy(file, tier);
        self.policy.on_placed_id(file);
        self.stats().copy_completed();
        let took = run.map(|run| at.saturating_sub(run.start));
        if let Some(run) = run {
            if self.telemetry.is_enabled() {
                self.telemetry
                    .copy_duration()
                    .record(took.unwrap_or(0) * 1_000);
            }
            if run.exec != 0 {
                let span = self.run_span(run, names::METADATA_REGISTER, at, at);
                let name = self.hierarchy.tier(tier).map_or("", |t| t.name.as_str());
                self.telemetry.trace().record(span.arg_str("tier", name));
            }
            self.closed(at, file, run, "completed");
        }
        self.telemetry.event_at(
            at,
            EventKind::CopyCompleted {
                file: self.name(file).to_string(),
                tier,
                bytes: size,
                micros: took.unwrap_or(0),
                cause: match lane {
                    // Remote installs are demand driven: a foreground read
                    // triggered the peer fetch, only the install ran later.
                    Lane::Demand | Lane::Remote => TransitionCause::Demand,
                    Lane::Prefetch => TransitionCause::Plan,
                },
            },
        );
        if lane == Lane::Prefetch {
            self.telemetry
                .profiler()
                .record_prefetch_staged_id(file, size, at);
        }
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
    ///
    /// The copy's `run`, when a worker took it, is closed first.
    pub fn unplaced(
        &self,
        at: u64,
        file: FileId,
        reserved: Option<Reservation>,
        why: Unplaced<'_>,
        run: Option<&CopyRun>,
    ) {
        if let Some(run) = run {
            let outcome = match why {
                Unplaced::NoRoom => "skipped",
                _ => "failed",
            };
            self.closed(at, file, run, outcome);
        }
        let (stats, name) = (self.stats(), self.name(file));
        if let Some((tier, bytes)) = reserved {
            if let Some(quota) = self.quota(tier) {
                quota.release(bytes);
            }
            if matches!(why, Unplaced::Panicked) {
                self.telemetry.event_at(
                    at,
                    EventKind::ReservationReclaimed {
                        file: name.to_string(),
                        tier,
                        bytes,
                    },
                );
            }
        }
        let failed = |reason: String| {
            stats.copy_failed();
            EventKind::CopyFailed {
                file: name.to_string(),
                reason,
            }
        };
        let requeued = |reason: String| {
            stats.copy_requeue();
            EventKind::CopyRequeued {
                file: name.to_string(),
                reason,
            }
        };
        // Is a local tier quarantined? (The source never is.)
        let degraded = self.hierarchy.health().degraded();
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
            Unplaced::NoRoom if degraded => {
                requeued("placement skipped while a tier is quarantined".to_string())
            }
            Unplaced::NoRoom => {
                terminal = true;
                stats.placement_skip();
                EventKind::PlacementSkipped {
                    file: name.to_string(),
                    reason: "no local tier had room".to_string(),
                }
            }
            Unplaced::Failed(e) if device_error_class(e).is_some() && degraded => {
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
                    file: name.to_string(),
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
                EventKind::PrefetchCanceled {
                    file: name.to_string(),
                    cause,
                }
            }
        };
        self.telemetry.event_at(at, event);
        self.policy.unpin(file);
        self.metadata.abort_copy(file, terminal);
    }

    /// *Promoted*: a foreground read of `file` moved the file's
    /// still-queued prefetch copy onto the demand lane.
    pub fn promoted(&self, at: u64, file: FileId) {
        self.stats().prefetch_promote();
        self.telemetry.event_at(
            at,
            EventKind::PrefetchPromoted {
                file: self.name(file).to_string(),
            },
        );
    }

    /// *Plan opened*: the window over `files` — `(id, size)` pairs of the
    /// namespace's files in plan order — for the caller to walk. The
    /// clairvoyant eviction policy ranks residents by their next use in
    /// the plan, and the pins of the plan before lift.
    #[must_use]
    pub fn plan_opened(&self, files: &[(FileId, u64)], cfg: PrefetchConfig) -> PrefetchWindow {
        let ids: Vec<FileId> = files.iter().map(|&(id, _)| id).collect();
        self.policy.set_plan(&ids);
        PrefetchWindow::new(files, cfg)
    }

    /// *Plan read*: a foreground read of `file` moves `window`'s cursor
    /// past the file's plan position. Its prefetch pin lifts, and the
    /// clairvoyant policy advances to its next use. `None`, and nothing
    /// moves, when the plan does not hold the file.
    pub fn plan_read(&self, window: &mut PrefetchWindow, file: FileId) -> Option<ReadNote> {
        let note = window.on_read(file)?;
        self.policy.unpin(file);
        self.policy.note_plan_read(file);
        Some(note)
    }

    /// *Plan closed*: the plan of `window`, if one was open, ends. Every
    /// pin lifts, and each entry the window issued that no read reached
    /// and that sits placed on a local tier is counted wasted.
    pub fn plan_closed(&self, window: Option<PrefetchWindow>) {
        self.policy.clear_pins();
        let source = self.hierarchy.source_id();
        let staged = |info: Placement| info.state == PlacementState::Placed && info.tier != source;
        for (id, issued, read_seen) in window.map_or_else(Vec::new, |mut w| w.drain()) {
            if issued && !read_seen && self.metadata.placement(id).is_some_and(staged) {
                self.stats().prefetch_wasted();
            }
        }
    }

    /// *Tier settled*: an operation on `tier` that `gate` let through came
    /// to `outcome`; settle the tier's breaker with it
    /// ([`TierHealth::settle`](crate::health::TierHealth::settle)). A
    /// quarantine is counted and journalled with the error as its reason,
    /// a probe's verdict is journalled, and a recovery counted. An error
    /// that says nothing about the device ([`device_error_class`] is
    /// `None`) settles only a probe. `at` is called only when the breaker
    /// has something to time, so a healthy tier's success reads no clock.
    ///
    /// The source tier has no breaker: every degraded read ends at the
    /// PFS, so nothing gates it and nothing may quarantine it. Its
    /// outcomes book nothing.
    pub fn tier_settled(
        &self,
        at: impl Fn() -> u64,
        tier: TierId,
        gate: Gate,
        outcome: std::result::Result<(), &Error>,
    ) {
        if tier == self.hierarchy.source_id() {
            return;
        }
        let class = match outcome.map_err(device_error_class) {
            Ok(()) => Ok(()),
            Err(Some(class)) => Err(class),
            Err(None) if gate == Gate::Probe => Err(ErrorClass::Permanent),
            Err(None) => return,
        };
        let stamp = OnceCell::new();
        let at = || *stamp.get_or_init(&at);
        let event = match self.hierarchy.health().tier(tier).settle(gate, class, at) {
            Transition::None => return,
            Transition::Quarantined => {
                self.stats().tier_quarantine();
                EventKind::TierQuarantined {
                    tier,
                    reason: outcome.err().map(ToString::to_string).unwrap_or_default(),
                }
            }
            Transition::ProbeFailed => EventKind::TierProbed { tier, ok: false },
            Transition::Recovered => {
                self.stats().tier_recovery();
                self.telemetry
                    .event_at(at(), EventKind::TierProbed { tier, ok: true });
                EventKind::TierRecovered { tier }
            }
        };
        self.telemetry.event_at(at(), event);
    }

    /// *Read served*: book a foreground read that produced bytes. Its bytes
    /// go to the counters by how it was served, a rerouted read is counted
    /// degraded, a prefetch hit counted by the one rule below, and the read
    /// classed ([`ReadClass::of`]) into the access profiler: its counts
    /// always; its phases, and for a read of a tier's driver the tier's
    /// read-latency sample, when it carried the clock at a weight. A sampled
    /// read leaves its `read → metadata_lookup → tier_resolve → driver_pread`
    /// span tree. An untimed, unsampled hit does nothing but relaxed adds.
    ///
    /// The booking looks up the calling thread's tally and its count of the
    /// file; the engine's read loop, which holds both, books through
    /// `read_served_by`.
    pub fn read_served(&self, read: &ServedRead) {
        let tally = self.stats().thread_tally();
        self.read_served_by(read, &tally, &self.metadata.counter(read.id, read.tier));
    }

    /// [`Self::read_served`] through the handles the read already holds: the
    /// tally its `Reading` guard entered and the count its lookup took.
    pub(crate) fn read_served_by(
        &self,
        read: &ServedRead,
        tally: &ThreadTally<'_>,
        count: &ReadCount<'_>,
    ) {
        let stats = self.stats();
        match read.how {
            Served::Tier => tally.record_read(read.tier, read.bytes),
            Served::Staged { fetched } => stats.record_staged(fetched == 0, read.bytes - fetched),
            Served::Peer => stats.peer_hit(read.bytes),
        }
        let degraded = read.tier != read.home;
        if degraded {
            stats.degraded_read();
        }
        // The one hit rule: a planned file's first read, once the window
        // has issued the file, served without touching the PFS — from a
        // local tier, or out of its copy's staging with nothing to fetch.
        let source = self.hierarchy.source_id();
        let hit = read.plan.first_issued
            && match read.how {
                Served::Tier => read.tier != source,
                Served::Staged { fetched } => fetched == 0,
                Served::Peer => false,
            };
        if hit {
            stats.prefetch_hit();
        }
        if let (Some(trace), Some(marks)) = (read.trace, read.marks) {
            self.trace_read(read, trace, marks);
        }
        if !self.telemetry.is_enabled() {
            return;
        }
        let timed = read.marks.filter(|_| read.weight > 0);
        if let (Some([.., resolve, pread, _]), Served::Tier) = (timed, read.how) {
            self.telemetry
                .read_latency(read.tier)
                .record_n(pread.saturating_sub(resolve), read.weight);
        }
        let class = ReadClass::of(
            read.how,
            degraded,
            read.home == source,
            read.plan.planned,
            read.copying,
        );
        self.telemetry.profiler().record_counted(
            tally,
            Some((read.id, count)),
            read.tier,
            read.bytes,
            class,
            hit,
            timed
                .map(|marks| ReadTiming::between(marks, read.weight))
                .as_ref(),
            timed.map_or(0, |[.., end]| end / 1_000),
        );
    }

    /// A sampled read's span tree; the `read` span points back at the
    /// prefetch copy that staged its file, if one did.
    fn trace_read(&self, read: &ServedRead, trace: ReadTrace, marks: [u64; 5]) {
        let tr = self.telemetry.trace();
        let [entry, lookup, resolve, pread, end] = marks.map(|ns| ns / 1_000);
        let tier = match read.how {
            Served::Peer => "peer",
            _ => self
                .hierarchy
                .tier(read.tier)
                .map_or("", |t| t.name.as_str()),
        };
        let child = |name, from: u64, to: u64| {
            SpanRecord::new(name, "read", trace.track, from, to.saturating_sub(from))
                .with_id(tr.next_id())
                .with_parent(trace.id)
        };
        tr.record(child(names::METADATA_LOOKUP, entry, lookup));
        tr.record(child(names::TIER_RESOLVE, lookup, resolve).arg_str("tier", tier));
        let pread = child(names::DRIVER_PREAD, resolve, pread)
            .arg_str("tier", tier)
            .arg_u64("bytes", read.bytes);
        tr.record(match trace.flow {
            0 => pread,
            flow => pread.with_flow(flow, FlowPhase::Start),
        });
        let span = SpanRecord::new(
            names::READ,
            "read",
            trace.track,
            entry,
            end.saturating_sub(entry),
        )
        .with_id(trace.id)
        .with_parent(trace.parent)
        .arg_str("file", self.name(read.id))
        .arg_u64("offset", read.offset)
        .arg_u64("bytes", read.bytes);
        tr.record(match read.plan.flow {
            0 => span,
            flow => span.arg_u64("prefetch_flow", flow),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, PolicyKind, TelemetryConfig};
    use crate::driver::{FlakyDriver, FlakyOutcome, MemDriver, StorageDriver};
    use crate::telemetry::Event;

    /// Books over a 1 MiB `ssd` and a `pfs` holding the 512-byte `f`.
    fn book() -> Lifecycle {
        books(PolicyKind::FirstFit, 1 << 20, &["f"])
    }

    /// Books over a `capacity`-byte `ssd` and a `pfs` holding the 512-byte
    /// `files`, decided for by `kind`.
    fn books(kind: PolicyKind, capacity: u64, files: &[&str]) -> Lifecycle {
        let mem = |name| -> Arc<dyn StorageDriver> { Arc::new(MemDriver::new(name)) };
        let telemetry = TelemetryConfig::default();
        books_on(kind, capacity, files, [mem("ssd"), mem("pfs")], &telemetry)
    }

    /// [`books`] over the given `ssd` and `pfs` drivers, reporting
    /// through a registry configured by `telemetry`.
    fn books_on(
        kind: PolicyKind,
        capacity: u64,
        files: &[&str],
        [ssd, pfs]: [Arc<dyn StorageDriver>; 2],
        telemetry: &TelemetryConfig,
    ) -> Lifecycle {
        let hierarchy = Arc::new(
            StorageHierarchy::new(vec![
                ("ssd".into(), ssd, Some(capacity)),
                ("pfs".into(), pfs, None),
            ])
            .unwrap(),
        );
        let policy = Arc::new(PolicyEngine::from_kind(kind, AdmissionKind::AdmitAll));
        let telemetry = Arc::new(TelemetryRegistry::with_namespace(
            vec!["ssd".into(), "pfs".into()],
            Arc::new(Stats::new(2)),
            telemetry,
            Arc::clone(policy.namespace()),
        ));
        for file in files {
            policy
                .namespace()
                .register(file, 512, hierarchy.source_id());
        }
        Lifecycle::new(hierarchy, policy, telemetry)
    }

    fn id(book: &Lifecycle, file: &str) -> FileId {
        book.metadata().resolve(file).unwrap()
    }

    /// Copy `file` onto the `ssd` off `lane`, at `at`; `removed` deletes
    /// each victim's copy.
    fn place_evicting(
        book: &Lifecycle,
        at: u64,
        file: FileId,
        lane: Lane,
        removed: impl FnMut(TierId, &str) -> Result<()>,
    ) {
        let queued = book.scheduled(at, file, 512, lane, CopyFlow::default());
        let run = book.started(at, file, queued.unwrap(), || 0, true);
        let room = book.room(|| at, Some(&run), file, 512, removed);
        let (tier, _) = room.unwrap().unwrap();
        book.placed(at, file, 512, tier, lane, Some(&run));
    }

    /// Copy `f` onto the `ssd` off `lane`, at `at`.
    fn place(book: &Lifecycle, at: u64, lane: Lane) {
        place_evicting(book, at, id(book, "f"), lane, |_, _| Ok(()));
    }

    /// The journal's last `n` events, oldest first.
    fn last(book: &Lifecycle, n: usize) -> Vec<Event> {
        let events = book.telemetry().journal().events();
        events[events.len() - n..].to_vec()
    }

    #[test]
    fn copy_completed_carries_its_lane_as_cause() {
        let book = book();
        for (at, lane, cause) in [
            (10, Lane::Demand, TransitionCause::Demand),
            // A peer-served install was triggered by a foreground read.
            (20, Lane::Remote, TransitionCause::Demand),
            (30, Lane::Prefetch, TransitionCause::Plan),
        ] {
            place(&book, at, lane);
            let done = &last(&book, 1)[0];
            assert!(
                matches!(&done.kind, EventKind::CopyCompleted { file, tier: 0, cause: c, .. }
                    if file == "f" && *c == cause),
                "{lane:?}: {done:?}"
            );
            // Only a prefetch-lane placement counts the file as prefetched.
            let staged = book.telemetry().profiler().profile("f");
            let staged = staged.map_or((0, 0), |p| (p.prefetched_bytes, p.staged_us));
            let want = if lane == Lane::Prefetch {
                (512, at)
            } else {
                (0, 0)
            };
            assert_eq!(staged, want, "{lane:?}");
            assert!(book
                .evicted(at, id(&book, "f"), 0, Evict::Explicit, || Ok(()))
                .unwrap());
        }
    }

    #[test]
    fn every_eviction_journals_its_policy_decision_then_evicted() {
        let book = book();
        for (at, why, point) in [
            (100, Evict::Explicit, "plan_evict"),
            (200, Evict::MakeRoom, "pressure_evict"),
            (300, Evict::Enospc, "pressure_evict"),
        ] {
            place(&book, at - 1, Lane::Demand);
            assert!(book.evicted(at, id(&book, "f"), 0, why, || Ok(())).unwrap());
            let pair = last(&book, 2);
            match (&pair[0].kind, &pair[1].kind) {
                (
                    EventKind::PolicyDecision {
                        file,
                        point: p,
                        verdict,
                        ..
                    },
                    EventKind::Evicted {
                        file: evicted,
                        tier: 0,
                        bytes: 512,
                    },
                ) => assert_eq!(
                    (
                        file.as_str(),
                        p.as_str(),
                        verdict.as_str(),
                        evicted.as_str()
                    ),
                    ("f", point, "evict", "f"),
                    "{why:?}"
                ),
                other => panic!("{why:?}: {other:?}"),
            }
            assert_eq!((pair[0].t_us, pair[1].t_us), (at, at), "{why:?}");
        }
    }

    #[test]
    fn a_read_is_booked_by_how_it_was_served() {
        let book = book();
        let id = id(&book, "f");
        let read = |home, tier, how, marks| ServedRead {
            id,
            offset: 0,
            bytes: 100,
            home,
            copying: false,
            tier,
            how,
            plan: ReadFeedback::default(),
            weight: 1,
            trace: None,
            marks,
        };
        // A timed read of the source, then one rerouted there from the
        // ssd the file lives on; a read that fetched 40 of its bytes into
        // its copy's staging and took 60 from it; a peer's.
        book.read_served(&read(1, 1, Served::Tier, Some([0, 10, 20, 2_020, 2_030])));
        book.read_served(&read(0, 1, Served::Tier, Some([0, 0, 0, 3_000, 3_000])));
        book.read_served(&read(1, 1, Served::Staged { fetched: 40 }, None));
        book.read_served(&read(1, 1, Served::Peer, None));
        let s = book.stats().snapshot();
        assert_eq!((s.tiers[1].reads, s.tiers[1].bytes_read), (2, 200));
        assert_eq!((s.staged_reads, s.staged_bytes), (0, 60));
        assert_eq!((s.peer_hits, s.peer_bytes), (1, 100));
        assert_eq!((s.timed_reads, s.degraded_reads), (2, 1));
        assert_eq!(book.telemetry().read_latency(1).count(), 2);
        let ledger = book.telemetry().profiler().ledger();
        assert_eq!(ledger.reads, 4);
        assert_eq!((ledger.pfs_cold_pread_us, ledger.degraded_pread_us), (2, 3));
        assert_eq!(ledger.read_wall_us, 5);
    }

    #[test]
    fn a_copys_fetch_and_write_are_sampled_once_failed_or_not() {
        for enabled in [true, false] {
            let pfs = MemDriver::new("pfs");
            pfs.insert("f", vec![7; 512]);
            let (ssd, pfs) = (
                Arc::new(FlakyDriver::new(MemDriver::new("ssd"))),
                Arc::new(FlakyDriver::new(pfs)),
            );
            pfs.script_reads([FlakyOutcome::Transient]);
            ssd.script_writes([FlakyOutcome::Transient]);
            let telemetry = if enabled {
                TelemetryConfig::default()
            } else {
                TelemetryConfig::disabled()
            };
            let tiers: [Arc<dyn StorageDriver>; 2] = [ssd.clone(), pfs.clone()];
            let book = books_on(PolicyKind::FirstFit, 1 << 20, &["f"], tiers, &telemetry);
            let f = id(&book, "f");
            let queued = book.scheduled(10, f, 512, Lane::Demand, CopyFlow::default());
            let run = book.started(10, f, queued.unwrap(), || 0, true);
            let (t, samples) = (book.telemetry(), |n| if enabled { n } else { 0 });
            let mut buf = vec![0; 512];
            // A failed fetch and a failed install write: one sample each
            // in the failing tier's histogram, and nothing counted.
            assert!(book.fetch(f, 0, &mut buf).is_err());
            assert!(book.install(&run, 0, f, &buf, || 20).is_err());
            assert_eq!(t.read_latency(1).count(), samples(1));
            assert_eq!(t.write_latency(0).count(), samples(1));
            let s = book.stats().snapshot();
            assert_eq!((s.tiers[1].reads, s.tiers[0].writes), (0, 0));
            // Through, they are counted as well.
            assert_eq!(book.fetch(f, 0, &mut buf).unwrap(), 512);
            book.install(&run, 0, f, &buf, || 20).unwrap();
            assert_eq!(t.read_latency(1).count(), samples(2));
            assert_eq!(t.write_latency(0).count(), samples(2));
            let s = book.stats().snapshot();
            assert_eq!((s.tiers[1].reads, s.tiers[1].bytes_read), (1, 512));
            assert_eq!((s.tiers[0].writes, s.tiers[0].bytes_written), (1, 512));
            assert_eq!(ssd.read_full("f").unwrap(), buf);
            // Discarding the install deletes it, counted and journalled.
            book.discard(0, f);
            assert_eq!(book.stats().snapshot().tiers[0].removes, 1);
            assert!(ssd.list().unwrap().is_empty());
            let removed =
                t.journal().events().iter().any(
                    |e| matches!(&e.kind, EventKind::Removed { file, tier: 0 } if file == "f"),
                );
            assert_eq!(removed, enabled);
        }
    }

    #[test]
    fn a_run_books_its_wait_by_lane_and_its_time_once() {
        let book = book();
        let (failed, f) = (
            Error::Io(std::io::Error::other("fetch failed")),
            id(&book, "f"),
        );
        // Each copy waits 5 µs on the lane it was scheduled on, then: a
        // demand copy is placed; a remote install fails; a prefetch copy is
        // refused by its worker (its deadline passed) and never runs.
        for (at, lane) in [(10, Lane::Demand), (20, Lane::Remote), (30, Lane::Prefetch)] {
            let queued = book.scheduled(at, f, 512, lane, CopyFlow::default());
            let runs = lane != Lane::Prefetch;
            let run = book.started(at + 5, f, queued.unwrap(), || 0, runs);
            match lane {
                Lane::Demand => {
                    let room = book.room(|| at + 5, Some(&run), f, 512, |_, _| Ok(()));
                    let (tier, _) = room.unwrap().unwrap();
                    book.placed(at + 9, f, 512, tier, lane, Some(&run));
                    assert!(book
                        .evicted(at + 9, f, 0, Evict::Explicit, || Ok(()))
                        .unwrap());
                }
                Lane::Remote => {
                    book.unplaced(at + 9, f, None, Unplaced::Failed(&failed), Some(&run))
                }
                Lane::Prefetch => {
                    let why = Unplaced::Expired { remote: false };
                    book.unplaced(at + 9, f, None, why, Some(&run));
                }
            }
        }
        let t = book.telemetry();
        for (lane, hist) in [
            ("demand", t.queue_wait()),
            ("remote", t.queue_wait_remote()),
            ("prefetch", t.queue_wait_prefetch()),
        ] {
            let waits = hist.snapshot();
            assert_eq!((waits.count, waits.sum_nanos), (1, 5_000), "{lane}");
        }
        // Every run is timed on its worker; only the placed one as a copy.
        let exec = t.pool_exec().snapshot();
        assert_eq!((exec.count, exec.sum_nanos), (3, 4_000 + 4_000 + 4_000));
        let copy = t.copy_duration().snapshot();
        assert_eq!((copy.count, copy.sum_nanos), (1, 4_000));
        // The refused copy journals no start.
        let events = t.journal().events();
        let started = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CopyStarted { .. }))
            .count();
        assert_eq!(started, 2);
    }

    #[test]
    fn a_withdrawn_prefetch_journals_who_withdrew_it() {
        for cause in [TransitionCause::Plan, TransitionCause::Drain] {
            let book = book();
            let f = id(&book, "f");
            assert!(book
                .scheduled(5, f, 512, Lane::Prefetch, CopyFlow::default())
                .is_some());
            book.unplaced(6, f, None, Unplaced::Canceled(cause), None);
            let canceled = &last(&book, 1)[0];
            assert!(
                matches!(&canceled.kind, EventKind::PrefetchCanceled { file, cause: c }
                    if file == "f" && *c == cause),
                "{canceled:?}"
            );
            assert_eq!(
                book.metadata().get("f").unwrap().state,
                PlacementState::Unplaced
            );
        }
    }

    #[test]
    fn an_lru_placement_evicts_by_id_and_journals_by_name() {
        // Room for one file: placing `g` makes the LRU policy evict `f`.
        let book = books(PolicyKind::LruEvict, 512, &["f", "g"]);
        place(&book, 10, Lane::Demand);
        let mut removed = Vec::new();
        place_evicting(&book, 20, id(&book, "g"), Lane::Demand, |tier, name| {
            removed.push((tier, name.to_string()));
            Ok(())
        });
        assert_eq!(
            removed,
            [(0, "f".to_string())],
            "the driver deletes by name"
        );
        let info = |file| book.metadata().get(file).unwrap();
        assert_eq!(
            (info("f").tier, info("f").state),
            (1, PlacementState::Unplaced)
        );
        assert_eq!(
            (info("g").tier, info("g").state),
            (0, PlacementState::Placed)
        );
        // Every transition went by id; the journal still names its files.
        let events = book.telemetry().journal().events();
        let named: Vec<(&str, &str)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::PolicyDecision { verdict, file, .. } => Some((verdict.as_str(), file)),
                EventKind::CopyCompleted { file, .. } => Some(("copy_completed", file)),
                EventKind::Evicted { file, .. } => Some(("evicted", file)),
                _ => None,
            })
            .map(|(what, file)| (what, file.as_str()))
            .collect();
        assert_eq!(
            named,
            [
                ("admit", "f"),
                ("copy_completed", "f"),
                ("admit", "g"),
                ("evict", "f"),
                ("evicted", "f"),
                ("copy_completed", "g"),
            ]
        );
    }
}
