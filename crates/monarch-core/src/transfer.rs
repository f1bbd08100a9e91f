//! The transfer engine: one copy pipeline for demand placement,
//! clairvoyant prefetch, and eviction.
//!
//! MONARCH's data movement used to be wired directly into the `Monarch`
//! facade; this module carves it out as [`TransferEngine`], which owns the
//! three-lane copy [`ThreadPool`], the [`PrefetchWindow`] over the submitted
//! access plan and the composed [`PolicyEngine`], and runs every copy
//! through the [`Lifecycle`] that books it. The read path keeps only
//! lookup → tier-resolve → `driver.pread` and hands every movement *intent*
//! to the engine:
//!
//! - [`TransferEngine::demand`] — place a file (pre-staging, or any
//!   caller without a read of its own), on the lane carried by the
//!   request's [`ReadCtx`];
//! - [`TransferEngine::demand_read`] — the same on behalf of the read that
//!   first touches the file, which is then served as the first fetch into
//!   the copy's install staging;
//! - [`TransferEngine::read_staged`] — serve a read of a file whose copy
//!   is in flight from that copy's install staging, so the file crosses
//!   the PFS link once (see the `staging` module for the protocol);
//! - [`TransferEngine::plan`] — stage upcoming plan entries on the
//!   low-priority prefetch lane, bounded by the lookahead window;
//! - [`TransferEngine::evict`] — push a resident file back to the PFS;
//! - [`TransferEngine::drain`] — cancel queued prefetch work *before*
//!   joining the workers, so shutdown never executes speculative copies.
//!
//! The same lane discipline (demand first, promote-on-demand, bulk cancel)
//! is captured by the generic [`LaneQueues`], shared between the real pool
//! and the `dlpipe` discrete-event simulator so both backends run one copy
//! pipeline rather than two hand-maintained replicas.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cluster::{Cluster, PeerError};
use crate::health::{device_error_class, ErrorClass, Gate};
use crate::hierarchy::TierId;
use crate::lifecycle::{CopyFlow, CopyRun, Evict, Lifecycle, Queued, Reservation, Unplaced};
use crate::locks;
use crate::metadata::{FileId, MetadataContainer, PlacementState};
use crate::policy::FeatureSource;
use crate::pool::{Lane, PoolProbe, ThreadPool};
use crate::prefetch::{AccessPlan, PrefetchConfig, PrefetchWindow, ReadFeedback};
use crate::staging::{Staged, Staging};
use crate::telemetry::{
    EventKind, PipelineSample, PrefetchSample, TelemetryRegistry, TelemetrySnapshot,
    TransitionCause,
};
use crate::trace::{names, SpanRecord};
use crate::{Error, Result};

// ---------------------------------------------------------------------------
// LaneQueues — the shared three-lane queue discipline
// ---------------------------------------------------------------------------

/// Three priority lanes, generic over what queues on them.
///
/// The [`ThreadPool`] queues whole jobs; the `dlpipe` simulator queues
/// shard indices — both need the same discipline: the demand lane always
/// drains first, then the remote lane (peer-fetched installs: demand
/// driven, but the triggering read was already served), then prefetch. A
/// queued prefetch entry can be promoted into the demand lane when a
/// foreground read arrives for it, and queued prefetch entries can be
/// bulk-canceled at a plan boundary — remote entries are *not* touched by
/// the bulk cancel; they are not speculative.
#[derive(Debug)]
pub struct LaneQueues<T> {
    demand: VecDeque<T>,
    remote: VecDeque<T>,
    prefetch: VecDeque<T>,
}

impl<T> Default for LaneQueues<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LaneQueues<T> {
    /// Three empty lanes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            demand: VecDeque::new(),
            remote: VecDeque::new(),
            prefetch: VecDeque::new(),
        }
    }

    /// Queue `item` at the back of `lane`.
    pub fn push(&mut self, lane: Lane, item: T) {
        match lane {
            Lane::Demand => self.demand.push_back(item),
            Lane::Remote => self.remote.push_back(item),
            Lane::Prefetch => self.prefetch.push_back(item),
        }
    }

    /// Dequeue the next item, demand lane first, then remote, then
    /// prefetch. Returns the lane the item was popped from (an entry
    /// promoted out of the prefetch lane reports [`Lane::Demand`] — it
    /// runs at demand priority).
    pub fn pop(&mut self) -> Option<(T, Lane)> {
        if let Some(item) = self.demand.pop_front() {
            return Some((item, Lane::Demand));
        }
        if let Some(item) = self.remote.pop_front() {
            return Some((item, Lane::Remote));
        }
        self.prefetch.pop_front().map(|item| (item, Lane::Prefetch))
    }

    /// Move the first queued prefetch entry matching `pred` to the back of
    /// the demand lane (the dedup guard: a demand miss upgrades the
    /// existing queued job instead of enqueueing a duplicate). Returns
    /// `false` when no queued prefetch entry matches.
    pub fn promote_where(&mut self, pred: impl FnMut(&T) -> bool) -> bool {
        let Some(i) = self.prefetch.iter().position(pred) else {
            return false;
        };
        let item = self.prefetch.remove(i).expect("position is in bounds");
        self.demand.push_back(item);
        true
    }

    /// Remove and return every queued prefetch entry (bulk cancel). The
    /// demand and remote lanes are untouched: remote entries are demand
    /// driven (a foreground read triggered the fetch), so canceling them
    /// at a plan boundary would throw away work a trainer already waited
    /// for.
    pub fn drain_prefetch(&mut self) -> Vec<T> {
        self.prefetch.drain(..).collect()
    }

    /// Number of entries queued on `lane`.
    #[must_use]
    pub fn queued(&self, lane: Lane) -> usize {
        match lane {
            Lane::Demand => self.demand.len(),
            Lane::Remote => self.remote.len(),
            Lane::Prefetch => self.prefetch.len(),
        }
    }

    /// Total queued entries across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.demand.len() + self.remote.len() + self.prefetch.len()
    }

    /// Whether all lanes are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.demand.is_empty() && self.remote.is_empty() && self.prefetch.is_empty()
    }
}

// ---------------------------------------------------------------------------
// ReadCtx — request-scoped context threaded into the engine
// ---------------------------------------------------------------------------

/// Request-scoped context a caller threads into [`TransferEngine::demand`]:
/// trace linkage, the lane to queue on, and an optional freshness deadline.
#[derive(Debug, Clone, Copy)]
pub struct ReadCtx {
    /// How the copy's scheduling is traced: the span that triggered it and
    /// the flow to its background `copy_exec` (the track is the scheduling
    /// thread's).
    pub flow: CopyFlow,
    /// Pool lane to queue the copy on.
    pub lane: Lane,
    /// Drop the copy (reverting its metadata) if a worker has not started
    /// it by this time (µs on the instance clock). `None` = no deadline.
    pub deadline: Option<u64>,
}

impl Default for ReadCtx {
    fn default() -> Self {
        Self::untraced()
    }
}

impl ReadCtx {
    /// Unsampled demand-lane request — the common fast path.
    #[must_use]
    pub fn untraced() -> Self {
        Self {
            flow: CopyFlow::default(),
            lane: Lane::Demand,
            deadline: None,
        }
    }

    /// Sampled request under span `parent`: the flow starts at the
    /// caller's foreground `driver_pread` span and finishes at the
    /// background `copy_exec`.
    #[must_use]
    pub fn traced(parent: u64, flow: u64) -> Self {
        Self {
            flow: CopyFlow {
                id: flow,
                parent,
                ..CopyFlow::default()
            },
            ..Self::untraced()
        }
    }

    /// Sampled request with no foreground read (pre-staging, prefetch):
    /// the flow starts at the `copy_scheduled` span itself.
    #[must_use]
    pub fn staged(parent: u64, flow: u64) -> Self {
        let mut ctx = Self::traced(parent, flow);
        ctx.flow.starts = true;
        ctx
    }

    /// Queue on `lane` instead of the default demand lane.
    #[must_use]
    pub fn on_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    /// Attach a start deadline (µs on the instance clock): the copy is dropped
    /// (metadata reverted, `copy_failed` journaled) if still queued past it.
    #[must_use]
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

// ---------------------------------------------------------------------------
// TransferEngine
// ---------------------------------------------------------------------------

/// What [`TransferEngine::drain`] did on the way down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued prefetch copies withdrawn before the workers were joined.
    pub canceled: usize,
    /// Worker threads that could not be joined (died outside the per-task
    /// panic catch).
    pub join_failures: u64,
}

/// Runtime state of the clairvoyant prefetcher: the knobs plus the window
/// over the currently submitted access plan (`None` until a plan arrives).
struct PrefetchState {
    cfg: PrefetchConfig,
    window: Mutex<Option<PrefetchWindow>>,
}

/// The movement engine: every inter-tier copy — demand placement,
/// pre-staging, clairvoyant prefetch — and every eviction goes through
/// here. Owns the three-lane pool and the plan window; what becomes of a copy
/// is booked by the instance's [`Lifecycle`], which it shares with the read
/// path's view of the same parts.
pub struct TransferEngine {
    book: Arc<Lifecycle>,
    shutting_down: Arc<AtomicBool>,
    pool: ThreadPool,
    /// Present only when `prefetch.lookahead > 0`, so a disabled
    /// configuration takes zero extra branches beyond one `Option` check.
    /// Shared (`Arc`) with detached [`Sampler`]s.
    prefetch: Option<Arc<PrefetchState>>,
    /// Install stagings of the queued and running copies, where
    /// [`TransferEngine::read_staged`] finds them (see [`Lease`]).
    stagings: Stagings,
}

/// The install staging of every queued or running copy, by file.
type Stagings = Arc<Mutex<HashMap<FileId, Arc<Staging>>>>;

/// What a scheduled copy *is*: the hold on its file's `Copying` state, on
/// the install staging registered with it and, once room is made, on the
/// quota reserved on its target tier. It is created in the step that wins
/// the file ([`TransferEngine::schedule`]) and settles the copy exactly
/// once — [`Lease::placed`] or [`Lease::unplaced`], or else its drop,
/// whichever way the job goes away: refused by the pool, withdrawn from
/// the queue unrun, or unwound by a panic. A job that runs moves the
/// metadata out of `Copying` before it ends, so its staging outlives that
/// state.
struct Lease {
    book: Arc<Lifecycle>,
    stagings: Stagings,
    shutting_down: Arc<AtomicBool>,
    id: FileId,
    staging: Arc<Staging>,
    /// Lane the copy was queued on — the journal's `copy_completed`
    /// attributes the resulting placement to demand or to the plan
    /// accordingly.
    lane: Lane,
    /// No worker has taken the job yet.
    queued: Cell<bool>,
    reserved: Cell<Option<Reservation>>,
    settled: Cell<bool>,
}

impl Lease {
    fn placed(&self, tier: TierId, run: &CopyRun) {
        let at = self.book.telemetry().clock().now_us();
        let size = self.staging.size();
        self.book
            .placed(at, self.id, size, tier, self.lane, Some(run));
        // The reservation has become the file's bytes on `tier`.
        self.reserved.set(None);
        self.settled.set(true);
    }

    fn unplaced(&self, why: Unplaced<'_>, run: Option<&CopyRun>) {
        self.settled.set(true);
        let at = self.book.telemetry().clock().now_us();
        self.book
            .unplaced(at, self.id, self.reserved.take(), why, run);
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        {
            let mut stagings = locks::lock(&self.stagings);
            // A failed copy reverts the metadata before its job ends; by
            // now a new copy of the file may have registered its own.
            if stagings
                .get(&self.id)
                .is_some_and(|s| Arc::ptr_eq(s, &self.staging))
            {
                stagings.remove(&self.id);
            }
        }
        if self.settled.get() {
            return;
        }
        let draining = self.shutting_down.load(Ordering::Acquire);
        let why = if std::thread::panicking() {
            Unplaced::Panicked
        } else if self.queued.get() && self.lane == Lane::Prefetch {
            // Speculative work that never left the queue: withdrawn at a
            // plan boundary, or by the drain that shutdown begins with
            // (which is also when a closed pool refuses it outright).
            Unplaced::Canceled(if draining {
                TransitionCause::Drain
            } else {
                TransitionCause::Plan
            })
        } else {
            Unplaced::ShutDown
        };
        self.unplaced(why, None);
    }
}

impl std::fmt::Debug for TransferEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferEngine")
            .field("threads", &self.pool.threads())
            .field("policy", &self.book.policy().name())
            .field("prefetch", &self.prefetch.is_some())
            .finish()
    }
}

impl TransferEngine {
    /// Assemble an engine over the instance's books. A copy task that
    /// panics needs no handler here: its [`Lease`] unwinds with it and
    /// reverts the file, so a later read can retry (same degradation as an
    /// I/O failure — the file stays on the PFS).
    #[must_use]
    pub fn new(book: Arc<Lifecycle>, pool_threads: usize, prefetch: PrefetchConfig) -> Self {
        // Reuse-aware admission and the learned scorer read the access
        // profiler through this bridge; rebinding is idempotent.
        book.policy()
            .bind_features(Arc::clone(book.telemetry()) as Arc<dyn FeatureSource>);
        Self {
            book,
            shutting_down: Arc::new(AtomicBool::new(false)),
            pool: ThreadPool::new(pool_threads),
            prefetch: prefetch.enabled().then(|| {
                Arc::new(PrefetchState {
                    cfg: prefetch,
                    window: Mutex::new(None),
                })
            }),
            stagings: Arc::default(),
        }
    }

    /// The engine's shutdown flag — shared with the read path so reads are
    /// rejected as soon as a drain begins.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutting_down)
    }

    /// Composed name (`admission/eviction/scorer`) of the policy engine
    /// driving this engine's decisions.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.book.policy().name()
    }

    /// Number of copy worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Copies queued (not yet started) on `lane`.
    #[must_use]
    pub fn queued(&self, lane: Lane) -> usize {
        self.pool.queued(lane)
    }

    /// Block until no copies are queued or running.
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Read-path recency signal: forward a foreground access of `id`,
    /// found on `tier`, to the policy engine (LRU-style policies rank by
    /// the stamp it leaves).
    #[inline]
    pub fn note_access(&self, id: FileId, tier: TierId) {
        self.book.policy().on_access_id(id, tier);
    }

    /// The instance's namespace.
    #[must_use]
    pub fn metadata(&self) -> &Arc<MetadataContainer> {
        self.book.metadata()
    }

    /// The books of the instance's copies and tiers.
    #[must_use]
    pub(crate) fn book(&self) -> &Arc<Lifecycle> {
        &self.book
    }

    /// Hand a placement copy to the pool if this request wins the
    /// `Unplaced → Copying` race. Returns whether a copy was scheduled.
    ///
    /// The [`ReadCtx`] carries trace linkage (a `copy_scheduled` span is
    /// recorded under `ctx.flow.parent` when sampled), the lane to queue on,
    /// and an optional start deadline.
    pub fn demand(&self, file: FileId, ctx: ReadCtx) -> bool {
        let Some(info) = self.book.metadata().placement(file) else {
            return false;
        };
        self.schedule(file, Arc::new(Staging::empty(info.size)), ctx)
    }

    /// [`Self::demand`] by the read that first touches `file`, of `size`
    /// bytes: announce the copy, then serve the read — `buf.len()` bytes at
    /// `offset`, inside the file — as the first fetch into the copy's
    /// staging, the way [`Self::read_staged`] serves every later one. Returns whether a
    /// copy was scheduled and, if the read was served there, the bytes it
    /// fetched from the source itself; a read
    /// that was not (it starts past offset 0, the pool is too far behind
    /// for reads to fill its copies, or its fetch failed) is left to its
    /// caller's plain path.
    ///
    /// The read holds the staging's frontier before anybody else can see
    /// the staging, so who fetches the first extent does not hang on how
    /// fast a worker wakes up; the worker decides the placement, evicts
    /// and reserves while that fetch is on the link. A read that brings
    /// the whole file fetches in place whatever the backlog: those bytes
    /// are all its copy will ever hold.
    pub fn demand_read(
        &self,
        file: FileId,
        size: u64,
        offset: u64,
        buf: &mut [u8],
        ctx: ReadCtx,
    ) -> (bool, Option<u64>) {
        let staging = Arc::new(Staging::empty(size));
        let may_start = buf.len() as u64 == size || self.may_start();
        let first = if may_start && offset == 0 && !buf.is_empty() {
            Staged::Frontier(staging.claim_first(buf.len() as u64))
        } else {
            Staged::Miss
        };
        if !self.schedule(file, Arc::clone(&staging), ctx) {
            return (false, None);
        }
        (true, self.read_through(file, &staging, first, offset, buf))
    }

    /// Schedule the copy of `file` through `staging` on `ctx`'s lane —
    /// which picks the admission point, the journal event and the span
    /// name — and hand it to the pool. `false` when no copy was queued:
    /// another one holds the file, admission refused, or the pool is
    /// shutting down.
    ///
    /// Winning `Unplaced → Copying` and registering `staging` are one step
    /// under the registry's lock: a read that sees `Copying` finds the
    /// staging, however closely it follows the transition.
    fn schedule(&self, file: FileId, staging: Arc<Staging>, ctx: ReadCtx) -> bool {
        let telemetry = self.book.telemetry();
        let size = staging.size();
        let at = telemetry.clock().now_us();
        let mut flow = ctx.flow;
        if flow.id != 0 {
            flow.track = telemetry.trace().register_current_thread();
        }
        let job = {
            let mut stagings = locks::lock(&self.stagings);
            let Some(queued) = self.book.scheduled(at, file, size, ctx.lane, flow) else {
                return false;
            };
            stagings.insert(file, Arc::clone(&staging));
            CopyJob {
                queued,
                deadline: ctx.deadline,
                lease: Lease {
                    book: Arc::clone(&self.book),
                    stagings: Arc::clone(&self.stagings),
                    shutting_down: Arc::clone(&self.shutting_down),
                    id: file,
                    staging,
                    lane: ctx.lane,
                    queued: Cell::new(true),
                    reserved: Cell::new(None),
                    settled: Cell::new(false),
                },
            }
        };
        // A refusal (the pool is shutting down) drops the job, and its
        // lease books the copy as un-placed.
        self.pool
            .submit_on(ctx.lane, Some(file), Box::new(move || job.run()))
    }

    /// Install bytes fetched from a peer node's fast tier: the remote-lane
    /// counterpart to [`TransferEngine::demand`], whose staging is full
    /// from the start. The triggering read was already served from
    /// `bytes`, so the install queues on [`Lane::Remote`] — behind local
    /// demand misses (a trainer is waiting on those), ahead of speculative
    /// prefetch. Carries the same deadline/cancellation/trace semantics as
    /// any other copy; a `remote_scheduled` event (with the serving peer)
    /// is journaled beside the usual copy lifecycle. Returns whether an
    /// install was scheduled (`false`: the peer's copy is not the file's
    /// size, a concurrent copy won the CAS, or the pool is shutting down).
    pub fn remote_admit(&self, file: FileId, bytes: Vec<u8>, peer: u64, ctx: ReadCtx) -> bool {
        let size = bytes.len() as u64;
        if Some(size) != self.book.metadata().placement(file).map(|info| info.size) {
            return false;
        }
        let ctx = ReadCtx {
            lane: Lane::Remote,
            ..ctx
        };
        let scheduled = self.schedule(file, Arc::new(Staging::full(bytes)), ctx);
        if scheduled {
            self.book.telemetry().event(EventKind::RemoteScheduled {
                file: self.book.name(file).to_string(),
                bytes: size,
                peer,
            });
        }
        scheduled
    }

    /// Try to serve a read of `buf.len()` bytes at `offset` of the unplaced
    /// file `id` from its owner node's fast tier (asked by name), for the
    /// caller to book. Returns the bytes copied into `buf` when the peer
    /// answered — the whole file then goes to the remote install lane — and
    /// `None` when the read should take the local path: the file is locally
    /// owned, or the peer was slow or down (the fallback is counted).
    pub fn peer_read(
        &self,
        cluster: &Cluster,
        id: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Option<usize> {
        let file = self.book.name(id);
        let owner = cluster.peer_owner(file)?;
        let bytes = match cluster.fetch_from(owner, file) {
            Ok(bytes) => bytes,
            Err(e) => {
                // Degrade to the PFS path, never to an error. A timeout is
                // journaled distinctly: "the peer was too slow" reads very
                // differently from "the peer does not hold the shard yet".
                self.book.stats().peer_fallback();
                if e == PeerError::Timeout {
                    self.book.stats().remote_timeout();
                    self.book.telemetry().event(EventKind::RemoteTimeout {
                        file: file.to_string(),
                        reason: format!(
                            "peer {owner} read exceeded its deadline; falling back to the PFS"
                        ),
                    });
                } else if e == PeerError::Dead {
                    // The dial gate refused without touching the network:
                    // the peer is quarantined after consecutive timeouts.
                    self.book.stats().peer_dead_skip();
                }
                return None;
            }
        };
        let tail = bytes.get(offset as usize..).unwrap_or_default();
        let n = buf.len().min(tail.len());
        buf[..n].copy_from_slice(&tail[..n]);
        // The whole file becomes a remote-lane install so later chunks
        // (and later epochs) hit the local tier. Bounded by the remote
        // deadline: if the install queue is backed up past it, the install
        // reverts and the file stays on the PFS.
        let wait_us = 1_000u64.saturating_mul(cluster.config().remote_deadline_ms.max(1));
        let at = self.book.telemetry().clock().now_us();
        let ctx = ReadCtx::untraced().with_deadline(at.saturating_add(wait_us));
        self.remote_admit(id, bytes, owner as u64, ctx);
        Some(n)
    }

    /// Serve the read of `buf.len()` bytes of `file` at `offset`
    /// (inside the file) from the install staging of the file's in-flight
    /// copy. `None` when there is nothing to be had there — no copy of the file
    /// is queued or running, or the read starts beyond what the copy has
    /// fetched or is fetching — and the caller reads the source itself.
    ///
    /// Below the staging's watermark the bytes are copied out; inside the
    /// range being fetched the read waits for that fetch; at an unclaimed
    /// frontier the read fetches the part it misses from the source into
    /// the staging itself, so a queued or busy worker never stalls it and
    /// the copy does not fetch those bytes again. Every source read issued
    /// here is recorded on the source tier, and the returned count says
    /// how much of the range this read fetched itself.
    ///
    /// Memory stays bounded by the pool, not by how far readers run ahead
    /// of it: a read starts the file-sized buffer of a copy that has not
    /// fetched yet only while the pool's backlog is no deeper than two
    /// copies per worker. Past that it reads the source on its own, as it
    /// did before stagings, and the copy fetches those bytes again.
    pub fn read_staged(&self, file: FileId, offset: u64, buf: &mut [u8]) -> Option<u64> {
        let staging = locks::lock(&self.stagings).get(&file).cloned()?;
        let first = staging.read(offset, buf, self.may_start());
        self.read_through(file, &staging, first, offset, buf)
    }

    /// Whether a read may start the buffer of a copy nobody has fetched
    /// for yet: the pool's backlog — queued and running copies — is no
    /// deeper than two per worker.
    fn may_start(&self) -> bool {
        self.pool.pending() <= 2 * self.pool.threads()
    }

    /// Carry a read through `staging` from `step`, what its first look at
    /// the staging made of it: fetch at the frontier as often as it is
    /// handed one, until the range is served or turns out not to be the
    /// staging's to serve.
    fn read_through<'a>(
        &self,
        file: FileId,
        staging: &'a Staging,
        mut step: Staged<'a>,
        offset: u64,
        buf: &mut [u8],
    ) -> Option<u64> {
        let mut fetched = 0;
        loop {
            match step {
                Staged::Served => break,
                Staged::Miss => return None,
                Staged::Frontier(claim) => {
                    // A failed fetch gives the frontier back; the caller's
                    // plain read retries it with the health machinery.
                    let (n, _) = claim.fill(|at, dst| self.book.fetch(file, at, dst)).ok()?;
                    fetched += n;
                }
            }
            // The fetch above saw to the buffer: nothing is left to start.
            step = staging.read(offset, buf, false);
        }
        Some(fetched as u64)
    }

    /// Submit the access plan for the upcoming epoch. A previously
    /// submitted plan is canceled first (queued prefetch copies are
    /// withdrawn; running ones finish). Names missing from the metadata
    /// namespace are dropped. Returns the number of admitted entries —
    /// `0` when prefetching is disabled, in which case this is a no-op.
    pub fn plan(&self, plan: &AccessPlan) -> usize {
        let Some(state) = &self.prefetch else {
            return 0;
        };
        self.close_window(state);
        let metadata = self.book.metadata();
        let files: Vec<(FileId, u64)> = plan
            .files()
            .iter()
            .filter_map(|name| metadata.resolve(name))
            .filter_map(|id| Some((id, metadata.placement(id)?.size)))
            .collect();
        let window = self.book.plan_opened(&files, state.cfg);
        let admitted = window.len();
        *locks::lock(&state.window) = Some(window);
        let tr = self.book.telemetry().trace();
        if tr.is_enabled() {
            tr.record(
                SpanRecord::new(
                    names::PLAN_SUBMIT,
                    "read",
                    tr.register_current_thread(),
                    self.book.telemetry().clock().now_us(),
                    0,
                )
                .with_id(tr.next_id())
                .arg_u64("entries", plan.len() as u64)
                .arg_u64("admitted", admitted as u64),
            );
        }
        self.pump();
        admitted
    }

    /// Cancel the current access plan: withdraw queued-but-unstarted
    /// prefetch copies (their metadata reverts to `Unplaced`) and close
    /// the window. Returns the number of withdrawn copies. Running copies
    /// are not interrupted.
    pub fn cancel_plan(&self) -> usize {
        match &self.prefetch {
            Some(state) => self.close_window(state),
            None => 0,
        }
    }

    /// Read-path prefetch bookkeeping: advance the plan cursor past the
    /// file `id` ([`Lifecycle::plan_read`]), upgrade a still-queued
    /// prefetch copy to the demand lane, and release more of the plan. The returned
    /// [`ReadFeedback`] is the read's plan facts, from which
    /// [`Lifecycle::read_served`] books a prefetch hit, and the flow id of
    /// the prefetch copy issued for this file (`0` if none / untraced), so
    /// the read span can point back at it.
    #[inline]
    pub fn note_read(&self, id: FileId) -> ReadFeedback {
        match &self.prefetch {
            Some(state) => self.walk_plan(state, id),
            None => ReadFeedback::default(),
        }
    }

    /// [`Self::note_read`] with a plan walker.
    fn walk_plan(&self, state: &PrefetchState, id: FileId) -> ReadFeedback {
        let note = {
            let mut guard = locks::lock(&state.window);
            let Some(window) = guard.as_mut() else {
                return ReadFeedback::default();
            };
            match self.book.plan_read(window, id) {
                Some(note) => note,
                None => return ReadFeedback::default(),
            }
        };
        if note.issued && !note.resolved && self.pool.promote(id) {
            // Dedup guard: the file's copy is still *queued* on the
            // prefetch lane — upgrade that job's priority instead of
            // letting the demand path wait behind unrelated prefetches
            // (it cannot enqueue a duplicate: the metadata CAS is held
            // by the queued job).
            self.book
                .promoted(self.book.telemetry().clock().now_us(), id);
        }
        // The cursor moved: more of the plan may now be issued.
        self.pump();
        note.into()
    }

    /// Evict `file` from its local tier back to the PFS source: the
    /// counterpart intent to [`TransferEngine::demand`], for policies and
    /// operators that want to free local capacity explicitly. Returns
    /// `Ok(false)` when the file is not locally resident (on the source,
    /// or a copy is in flight). The file reverts to `Unplaced`, so a later
    /// read may place it again.
    pub fn evict(&self, file: &str) -> Result<bool> {
        let metadata = self.book.metadata();
        let unknown = || Error::UnknownFile(file.to_string());
        let id = metadata.resolve(file).ok_or_else(unknown)?;
        let tier = self
            .book
            .hierarchy()
            .tier(metadata.placement(id).ok_or_else(unknown)?.tier)?;
        let at = self.book.telemetry().clock().now_us();
        self.book.evicted(at, id, tier.id, Evict::Explicit, || {
            tier.driver.remove(file)
        })
    }

    /// Shut the pipeline down: stop accepting work, withdraw every queued
    /// prefetch copy *before* joining the workers (shutdown must never
    /// spend time executing speculative copies), settle plan accounting,
    /// then drain the demand lane and join. The canceled count is
    /// journaled; unjoinable workers are counted, not propagated.
    pub fn drain(&mut self) -> DrainReport {
        self.drain_within(None)
    }

    /// [`Self::drain`] that waits at most `wait` for in-flight copies (see
    /// [`ThreadPool::shutdown_within`]) — what dropping a `Monarch` without
    /// `shutdown()` runs, so a wedged copy cannot hang the drop.
    pub fn drain_within(&mut self, wait: Option<Duration>) -> DrainReport {
        self.shutting_down.store(true, Ordering::Release);
        let canceled = match &self.prefetch {
            Some(state) => self.close_window(state),
            // No prefetcher was configured, but purge the lane anyway so
            // the ordering guarantee does not depend on configuration.
            None => self.pool.drain_prefetch(),
        };
        if canceled > 0 {
            self.book.telemetry().event(EventKind::PrefetchDrained {
                canceled: canceled as u64,
            });
        }
        self.pool.shutdown_within(wait);
        let join_failures = self.pool.join_failures();
        for _ in 0..join_failures {
            self.book.stats().pool_join_failure();
            self.book.telemetry().event(EventKind::WorkerJoinFailed {
                file: "monarch-copy-worker".to_string(),
            });
        }
        DrainReport {
            canceled,
            join_failures,
        }
    }

    /// Tear down the current window (plan switch, explicit cancel, or
    /// drain): withdraw every queued-but-unstarted prefetch copy — each job
    /// is dropped unrun in the pool, and its [`Lease`] books the
    /// cancellation (under the drain's cause once shutdown has begun, the
    /// plan's before) — and close the plan's books
    /// ([`Lifecycle::plan_closed`]). Returns the number withdrawn.
    fn close_window(&self, state: &PrefetchState) -> usize {
        let mut window = locks::lock(&state.window);
        let withdrawn = self.pool.drain_prefetch();
        self.book.plan_closed(window.take());
        withdrawn
    }

    /// Issue as much of the plan as the lookahead window and byte budget
    /// allow. Runs inline on plan submission and after each foreground
    /// read (the cursor advance is what releases more of the plan).
    fn pump(&self) {
        let Some(state) = &self.prefetch else { return };
        loop {
            let metadata = self.book.metadata();
            let (idx, id, size) = {
                let mut guard = locks::lock(&state.window);
                let Some(window) = guard.as_mut() else { return };
                // Copies that left `Copying` (completed, skipped, failed,
                // or reverted by the panic handler) release byte budget.
                window.poll_resolved(|id| {
                    !matches!(metadata.placement(id), Some(info) if matches!(info.state, PlacementState::Copying { .. }))
                });
                match window.next_to_issue() {
                    Some(pick) => pick,
                    None => return,
                }
            };
            // Scheduling happens outside the window lock: it touches the
            // metadata CAS, the journal, and the pool queue. Like prestage,
            // the flow starts at the scheduling span (there is no
            // foreground pread yet — the read it serves may be far in the
            // future) and finishes at the background copy_exec.
            let tr = self.book.telemetry().trace();
            let flow = if tr.is_enabled() { tr.next_id() } else { 0 };
            let scheduled = !self.shutting_down.load(Ordering::Acquire)
                && self.schedule(
                    id,
                    Arc::new(Staging::empty(size)),
                    ReadCtx::staged(0, flow).on_lane(Lane::Prefetch),
                );
            let mut guard = locks::lock(&state.window);
            if let Some(window) = guard.as_mut() {
                if scheduled {
                    window.set_flow(idx, flow);
                } else {
                    // Lost the CAS (a demand copy got there first, or the
                    // file is already placed), admission refused or the
                    // pool did: the entry is settled, release its budget
                    // share.
                    window.resolve(idx);
                }
            }
        }
    }

    /// A detached [`Sampler`] over this engine's shared parts (plus the
    /// peer-cache handle, which the facade owns). It holds only `Arc`s and
    /// a pool probe, so the metrics exporter can sample from its own
    /// threads without borrowing the engine — and keeps working, reporting
    /// drained queues, after the engine itself is gone.
    #[must_use]
    pub fn sampler(&self, cluster: Option<Arc<Cluster>>) -> Sampler {
        Sampler {
            book: Arc::clone(&self.book),
            probe: self.pool.probe(),
            prefetch: self.prefetch.as_ref().map(Arc::clone),
            shutting_down: Arc::clone(&self.shutting_down),
            cluster,
        }
    }
}

// ---------------------------------------------------------------------------
// Sampler — the one way to read an instance's state
// ---------------------------------------------------------------------------

/// A cloneable, detached view of one instance's live state. Everything
/// that reports state goes through it — [`Monarch`](crate::Monarch)'s own
/// getters, the HTTP exporter's `/metrics`, `/snapshot` and `/healthz`,
/// the FFI and the CLI views — so they cannot disagree: one document
/// ([`Sampler::snapshot`]), which the exposition renders. Sampling is
/// scrape-driven: gauges are as fresh as the call, with no background
/// thread.
#[derive(Clone)]
pub struct Sampler {
    book: Arc<Lifecycle>,
    probe: PoolProbe,
    prefetch: Option<Arc<PrefetchState>>,
    shutting_down: Arc<AtomicBool>,
    cluster: Option<Arc<Cluster>>,
}

impl Sampler {
    /// The instance's state document, its gauges read off live state — a
    /// handful of atomic loads plus two short lock acquisitions (pool
    /// queue, prefetch window) — as it is assembled.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let queued = PipelineSample::queued_by(|lane| self.probe.queued(lane));
        let prefetch = self.prefetch.as_ref().map(|state| {
            locks::lock(&state.window)
                .as_ref()
                .map_or_else(PrefetchSample::default, PrefetchWindow::sample)
        });
        let telemetry = self.book.telemetry();
        let gauges = telemetry.gauges(
            self.book.hierarchy(),
            self.book.metadata(),
            &PipelineSample {
                queued,
                running: self
                    .probe
                    .pending()
                    .saturating_sub(queued.iter().sum::<usize>()),
                prefetch,
                draining: self.draining(),
            },
        );
        telemetry.snapshot(
            gauges,
            self.book.hierarchy().health(),
            self.book.policy(),
            self.cluster.as_deref(),
        )
    }

    /// Prometheus-style text exposition of [`Self::snapshot`].
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.snapshot().exposition()
    }

    /// The `/healthz` word: `draining` once shutdown has begun, `degraded`
    /// while a tier is quarantined or a pool worker was lost, else `ok`.
    #[must_use]
    pub fn healthz(&self) -> &'static str {
        if self.draining() {
            "draining"
        } else if self.book.hierarchy().health().degraded()
            || self.book.telemetry().stats().snapshot().pool_join_failures > 0
        {
            "degraded"
        } else {
            "ok"
        }
    }

    /// The registry behind this view (the journal and the trace recorder
    /// export themselves).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        self.book.telemetry()
    }

    fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// CopyJob — the background placement task
// ---------------------------------------------------------------------------

/// A queued copy: its [`Lease`] (the pool outlives `&self` borrows, so the
/// lease owns `Arc`s of what the copy needs), what its scheduling booked
/// and the request's deadline.
struct CopyJob {
    /// What [`Lifecycle::started`] books its wait and its run from.
    queued: Queued,
    /// Drop the copy if a worker has not started it by this time (µs).
    deadline: Option<u64>,
    /// The file's id, install staging and reservation; dropped with the
    /// job.
    lease: Lease,
}

/// Bytes the copy fetches from the source per claim of its staging, at
/// most. Every fetch pays the source's per-operation cost once, and a read
/// that needs bytes inside the claimed range waits for the whole fetch;
/// 4 MiB beat 1 MiB on `BENCHMARK.json`'s `cold_epoch` and `warm_seq_256k`
/// (CHANGES.md). A copy that a read started also stops its claims one
/// read's length short of the file's end (the stride, `staging.rs`).
pub(crate) const FETCH_CHUNK: u64 = 4 << 20;

impl CopyJob {
    fn run(&self) {
        let lease = &self.lease;
        let book = &*lease.book;
        let telemetry = book.telemetry();
        lease.queued.set(false);
        let at = telemetry.clock().now_us();
        let refused = if lease.shutting_down.load(Ordering::Acquire) {
            Some(Unplaced::ShutDown)
        } else if self.deadline.is_some_and(|d| at > d) {
            // The request's freshness window closed while the copy sat in
            // the queue: doing the work now would be wasted bandwidth.
            // Same degradation as a failed copy — revert, retry on a later
            // touch.
            Some(Unplaced::Expired {
                remote: lease.lane == Lane::Remote,
            })
        } else {
            None
        };
        let track = || telemetry.trace().register_current_thread();
        let run = book.started(at, lease.id, self.queued, track, refused.is_none());
        if let Some(why) = refused {
            return lease.unplaced(why, Some(&run));
        }
        match self.try_place(&run) {
            Ok(true) => {}
            Ok(false) => lease.unplaced(Unplaced::NoRoom, Some(&run)),
            Err(e) => lease.unplaced(Unplaced::Failed(&e), Some(&run)),
        }
    }

    /// Make room for the file, fetch it into the lease's staging, install
    /// it and book the placement, as `run`. Returns `Ok(true)` if the file
    /// was placed, `Ok(false)` if no tier had room, `Err` on I/O failure
    /// (nothing half-installed visible to readers; the lease releases the
    /// reservation when the caller books the failure).
    fn try_place(&self, run: &CopyRun) -> Result<bool> {
        let lease = &self.lease;
        let book = &*lease.book;
        let (hierarchy, telemetry) = (book.hierarchy(), book.telemetry());
        let stats = book.stats();
        let size = lease.staging.size();
        let now = || telemetry.clock().now_us();
        // Evictions (eviction-capable policies only), then the reservation.
        let Some(reserved) = book.room(now, Some(run), lease.id, size, |tier, victim| {
            hierarchy.tier(tier)?.driver.remove(victim)
        })?
        else {
            return Ok(false);
        };
        // From here the bytes are the lease's: whichever way the job ends,
        // they are released or become the file's, once.
        lease.reserved.set(Some(reserved));
        let tier = reserved.0;

        // The install either succeeds or reports *which* tier failed: a
        // failed write is settled against the destination's breaker, a
        // failed read against the source's, which has none. It fills the
        // staging from its watermark — whatever the triggering read,
        // foreground reads at the frontier, or an earlier attempt already
        // fetched is not fetched again — then writes the finished buffer out.
        let staging = &lease.staging;
        let install = || -> std::result::Result<(), (TierId, Error)> {
            let source = hierarchy.source_id();
            let t_read = now();
            let mut fetched = 0u64;
            let mut next = staging.claim_next(FETCH_CHUNK);
            while let Some(claim) = next {
                let (n, after) = claim
                    .fill(|at, dst| book.fetch(lease.id, at, dst))
                    .map_err(|e| (source, e))?;
                fetched += n as u64;
                next = after;
            }
            let data = staging
                .whole()
                .expect("the staging has no unfetched range left to claim");
            if fetched > 0 {
                book.stage(Some(run), source, fetched, t_read, now());
                // Whoever was parked on the last fetch issues the next read
                // of the source; this thread is about to spend a file's
                // worth of memcpy on the install. When the two share a
                // core, let the reader go first.
                std::thread::yield_now();
            }
            book.install(run, tier, lease.id, data, now)
                .map_err(|e| (tier, e))
        };
        // Copy-path fault handling: transient device errors back off and
        // retry in place; ENOSPC (the quota had room but the device
        // disagrees — accounting drift or a shared device filling up
        // outside Monarch) evicts one resident file and retries once;
        // anything else fails the copy. Every device error is settled
        // against the tier that produced it.
        let retry = hierarchy.health().retry_policy();
        let mut attempts = 0u32;
        let mut evicted_for_space = false;
        let failure = loop {
            let (err_tier, e) = match install() {
                Ok(()) => break None,
                Err(te) => te,
            };
            let Some(class) = device_error_class(&e) else {
                break Some(e);
            };
            book.tier_settled(now, err_tier, Gate::Open, Err(&e));
            match class {
                ErrorClass::Transient if attempts < retry.max_attempts => {
                    attempts += 1;
                    stats.copy_retry();
                    let backoff = retry.backoff_us(attempts, size);
                    telemetry.clock().sleep(Duration::from_micros(backoff));
                }
                ErrorClass::Capacity if !evicted_for_space && err_tier == tier => {
                    evicted_for_space = true;
                    if !self.evict_for_space(tier) {
                        break Some(e);
                    }
                    stats.enospc_eviction();
                }
                _ => break Some(e),
            }
        };
        match failure {
            None => {
                lease.placed(tier, run);
                book.tier_settled(now, tier, Gate::Open, Ok(()));
                Ok(true)
            }
            Some(e) => {
                book.discard(tier, lease.id);
                Err(e)
            }
        }
    }

    /// ENOSPC recovery: evict one file resident on `tier` (other than the
    /// file being installed) back to the PFS to free real device space —
    /// the one [`PolicyEngine::pressure_victim`](crate::PolicyEngine::pressure_victim)
    /// picks. Returns whether a victim was evicted — a victim whose delete
    /// failed still is: its quota is free, and the retry will tell.
    fn evict_for_space(&self, tier: TierId) -> bool {
        let book = &*self.lease.book;
        let Ok(dest) = book.hierarchy().tier(tier) else {
            return false;
        };
        let Some(victim) = book.policy().pressure_victim(tier, self.lease.id) else {
            return false;
        };
        let at = book.telemetry().clock().now_us();
        !matches!(
            book.evicted(at, victim, tier, Evict::Enospc, || dest
                .driver
                .remove(book.name(victim))),
            Ok(false)
        )
    }
}

#[cfg(test)]
impl TransferEngine {
    /// `(watermark, end of the range being fetched)` of `file`'s install
    /// staging, while its copy is queued or running.
    pub(crate) fn staging_progress(&self, file: FileId) -> Option<(u64, Option<u64>)> {
        locks::lock(&self.stagings).get(&file).map(|s| s.progress())
    }

    /// Reads parked in `file`'s install staging, waiting on a fetch (`0`
    /// when no copy of it is queued or running).
    pub(crate) fn staging_parked(&self, file: FileId) -> usize {
        locks::lock(&self.stagings)
            .get(&file)
            .map_or(0, |s| s.parked())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::config::TelemetryConfig;
    use crate::config::{AdmissionKind, PolicyKind};
    use crate::driver::{open_gate, Gate, GatedDriver, MemDriver, StorageDriver};
    use crate::hierarchy::StorageHierarchy;
    use crate::lifecycle::{Served, ServedRead};
    use crate::policy::PolicyEngine;
    use crate::stats::Stats;
    use crate::telemetry::Event;
    use std::time::Duration;

    // -- LaneQueues ---------------------------------------------------------

    #[test]
    fn lane_queues_pop_demand_first() {
        let mut q = LaneQueues::new();
        q.push(Lane::Prefetch, "p0");
        q.push(Lane::Prefetch, "p1");
        q.push(Lane::Demand, "d0");
        assert_eq!(q.len(), 3);
        assert_eq!(q.queued(Lane::Demand), 1);
        assert_eq!(q.queued(Lane::Prefetch), 2);
        assert_eq!(q.pop(), Some(("d0", Lane::Demand)));
        assert_eq!(q.pop(), Some(("p0", Lane::Prefetch)));
        assert_eq!(q.pop(), Some(("p1", Lane::Prefetch)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn lane_queues_promote_moves_entry_behind_existing_demand() {
        let mut q = LaneQueues::new();
        q.push(Lane::Prefetch, "a");
        q.push(Lane::Prefetch, "b");
        q.push(Lane::Demand, "d");
        assert!(q.promote_where(|&x| x == "b"));
        assert!(
            !q.promote_where(|&x| x == "b"),
            "an entry promotes at most once"
        );
        assert!(!q.promote_where(|&x| x == "missing"));
        // Promoted entries queue behind existing demand but report the
        // demand lane when popped.
        assert_eq!(q.pop(), Some(("d", Lane::Demand)));
        assert_eq!(q.pop(), Some(("b", Lane::Demand)));
        assert_eq!(q.pop(), Some(("a", Lane::Prefetch)));
    }

    #[test]
    fn lane_queues_drain_prefetch_leaves_demand() {
        let mut q = LaneQueues::new();
        q.push(Lane::Prefetch, 1);
        q.push(Lane::Demand, 2);
        q.push(Lane::Prefetch, 3);
        assert_eq!(q.drain_prefetch(), vec![1, 3]);
        assert_eq!(q.queued(Lane::Prefetch), 0);
        assert_eq!(q.pop(), Some((2, Lane::Demand)));
    }

    #[test]
    fn lane_queues_remote_sits_between_demand_and_prefetch() {
        let mut q = LaneQueues::new();
        q.push(Lane::Prefetch, "p");
        q.push(Lane::Remote, "r");
        q.push(Lane::Demand, "d");
        assert_eq!(q.len(), 3);
        assert_eq!(q.queued(Lane::Remote), 1);
        assert_eq!(q.pop(), Some(("d", Lane::Demand)));
        assert_eq!(q.pop(), Some(("r", Lane::Remote)));
        assert_eq!(q.pop(), Some(("p", Lane::Prefetch)));
        assert!(q.is_empty());
    }

    #[test]
    fn lane_queues_drain_prefetch_leaves_remote() {
        // Remote entries are demand driven (a trainer already waited for
        // the peer fetch); a plan boundary must not throw them away.
        let mut q = LaneQueues::new();
        q.push(Lane::Remote, 1);
        q.push(Lane::Prefetch, 2);
        assert_eq!(q.drain_prefetch(), vec![2]);
        assert_eq!(q.queued(Lane::Remote), 1);
        assert_eq!(q.pop(), Some((1, Lane::Remote)));
    }

    // -- TransferEngine driven directly (no Monarch) ------------------------

    /// A PFS holding `n` 512-byte files named `f000`, `f001`, ...
    fn staged_pfs(n: usize) -> MemDriver {
        let pfs = MemDriver::new("pfs");
        for i in 0..n {
            pfs.insert(&format!("f{i:03}"), vec![i as u8; 512]);
        }
        pfs
    }

    fn assemble(
        pfs: Arc<dyn StorageDriver>,
        threads: usize,
        prefetch: PrefetchConfig,
    ) -> TransferEngine {
        let hierarchy = Arc::new(
            StorageHierarchy::new(vec![
                (
                    "ssd".into(),
                    Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
                    Some(1 << 20),
                ),
                ("pfs".into(), pfs, None),
            ])
            .unwrap(),
        );
        let stats = Arc::new(Stats::new(hierarchy.levels()));
        let policy = Arc::new(PolicyEngine::from_kind(
            PolicyKind::FirstFit,
            AdmissionKind::AdmitAll,
        ));
        // As in a built instance, the profiler's records go by the ids of
        // the policy engine's namespace.
        // On a manual clock: a copy's deadline passes when a test says so.
        let telemetry = Arc::new(
            TelemetryRegistry::with_namespace(
                vec!["ssd".into(), "pfs".into()],
                stats,
                &TelemetryConfig::default(),
                Arc::clone(policy.namespace()),
            )
            .with_clock(Clock::manual()),
        );
        for (name, size) in hierarchy.source().driver.list().unwrap() {
            policy
                .namespace()
                .register(&name, size, hierarchy.source_id());
        }
        let book = Arc::new(Lifecycle::new(hierarchy, policy, telemetry));
        TransferEngine::new(book, threads, prefetch)
    }

    /// Single-worker engine over a gated PFS: a demand copy pins the
    /// worker inside the gated source fetch, so queued jobs pile up
    /// deterministically behind it.
    fn gated_engine(n: usize, lookahead: usize) -> (TransferEngine, Gate) {
        let (gated, gate) = GatedDriver::new(staged_pfs(n));
        let engine = assemble(
            Arc::new(gated),
            1,
            PrefetchConfig {
                lookahead,
                max_inflight_bytes: 0,
            },
        );
        (engine, gate)
    }

    /// Pin the single worker: schedule a demand copy of `file` and wait
    /// for its `copy_started` journal event (fired just before the gated
    /// source fetch blocks).
    fn pin_worker(engine: &TransferEngine, file: &str) {
        assert!(engine.demand(id_of(engine, file), ReadCtx::untraced()));
        let started = || {
            engine
                .book
                .telemetry()
                .journal()
                .events()
                .iter()
                .any(|e| e.kind.tag() == "copy_started" && e.kind.file() == file)
        };
        for _ in 0..10_000 {
            if started() {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        panic!("worker never started the pinning copy of {file}");
    }

    fn started_order(engine: &TransferEngine) -> Vec<String> {
        engine
            .book
            .telemetry()
            .journal()
            .events()
            .iter()
            .filter(|e| e.kind.tag() == "copy_started")
            .map(|e| e.kind.file().to_string())
            .collect()
    }

    fn plan_of(names: &[&str]) -> AccessPlan {
        AccessPlan::new(names.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn demand_runs_before_queued_prefetch() {
        let (mut engine, gate) = gated_engine(4, 8);
        pin_worker(&engine, "f000");
        // Two plan entries queue on the prefetch lane behind the pinned
        // copy; a later demand copy must still run before both.
        assert_eq!(engine.plan(&plan_of(&["f001", "f002"])), 2);
        assert_eq!(engine.queued(Lane::Prefetch), 2);
        assert!(engine.demand(id_of(&engine, "f003"), ReadCtx::untraced()));
        open_gate(&gate);
        engine.wait_idle();
        assert_eq!(started_order(&engine), vec!["f000", "f003", "f001", "f002"]);
        assert_eq!(engine.book.stats().snapshot().copies_completed, 4);
        let report = engine.drain();
        assert_eq!(
            report,
            DrainReport {
                canceled: 0,
                join_failures: 0
            }
        );
    }

    #[test]
    fn note_read_promotes_queued_prefetch_job() {
        let (mut engine, gate) = gated_engine(3, 8);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001", "f002"])), 2);
        // A foreground read for the *second* queued entry upgrades its
        // existing job to the demand lane instead of duplicating the copy.
        let fb = engine.note_read(id_of(&engine, "f002"));
        assert!(fb.planned, "f002 was covered by the submitted plan");
        book_read(&engine, "f002", Served::Tier, fb);
        let stats = engine.book.stats().snapshot();
        assert_eq!(stats.prefetch_hits, 0, "still served from the source");
        assert_eq!(stats.prefetch_promoted, 1);
        assert_eq!(stats.copies_scheduled, 3, "no duplicate copy for f002");
        assert_eq!(engine.queued(Lane::Demand), 1);
        assert_eq!(engine.queued(Lane::Prefetch), 1);
        open_gate(&gate);
        engine.wait_idle();
        assert_eq!(started_order(&engine), vec!["f000", "f002", "f001"]);
        engine.drain();
    }

    fn id_of(engine: &TransferEngine, file: &str) -> FileId {
        engine.metadata().resolve(file).unwrap()
    }

    /// [`TransferEngine::read_staged`] of `file`, by name.
    fn read_staged(
        engine: &TransferEngine,
        file: &str,
        offset: u64,
        buf: &mut [u8],
    ) -> Option<u64> {
        engine.read_staged(id_of(engine, file), offset, buf)
    }

    /// Book a whole-file read of `file`, found on the source with its copy
    /// in flight and served there `how`, with the plan's feedback `plan`.
    fn book_read(engine: &TransferEngine, file: &str, how: Served, plan: ReadFeedback) {
        let source = engine.book.hierarchy().source_id();
        engine.book.read_served(&ServedRead {
            id: id_of(engine, file),
            offset: 0,
            bytes: 512,
            home: source,
            copying: true,
            tier: source,
            how,
            plan,
            weight: 0,
            trace: None,
            marks: None,
        });
    }

    #[test]
    fn a_planned_first_read_out_of_its_prefetch_staging_is_a_hit() {
        // The worker is pinned on f000, so f001's prefetch copy waits in
        // the queue while reads fill its staging at the frontier.
        let (gated, gate) = GatedDriver::new(staged_pfs(2));
        let prefetch = PrefetchConfig {
            lookahead: 8,
            max_inflight_bytes: 0,
        };
        let mut engine = assemble(Arc::new(gated.only("f000")), 1, prefetch);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001"])), 1);
        assert_eq!(engine.queued(Lane::Prefetch), 1);
        // Two reads of f001 race: one fetches the file into the copy's
        // staging, the other finds every byte there. The second notes the
        // plan first, so it is the file's first read: a hit.
        let mut buf = [0u8; 512];
        let fetched = [0, 0].map(|_| read_staged(&engine, "f001", 0, &mut buf));
        let first = engine.note_read(id_of(&engine, "f001"));
        book_read(&engine, "f001", Served::Staged { fetched: 0 }, first);
        // The read that fetched is neither first nor clear of the PFS.
        let second = engine.note_read(id_of(&engine, "f001"));
        book_read(&engine, "f001", Served::Staged { fetched: 512 }, second);
        let hits = engine.book.stats().snapshot().prefetch_hits;
        // Release the worker before asserting: a failure must not wedge
        // the engine's drop on the gated fetch.
        open_gate(&gate);
        engine.wait_idle();
        engine.drain();
        assert_eq!(fetched, [Some(512), Some(0)]);
        assert!(first.planned && first.first_issued && !second.first_issued);
        assert_eq!(hits, 1);
    }

    #[test]
    fn a_new_plan_withdraws_the_queued_prefetch_copies_with_cause_plan() {
        let (mut engine, gate) = gated_engine(4, 8);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001", "f002"])), 2);
        // The next plan boundary withdraws what the last one still queued.
        assert_eq!(engine.plan(&plan_of(&["f003"])), 1);
        let events = engine.book.telemetry().journal().events();
        let canceled: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::PrefetchCanceled {
                    file,
                    cause: TransitionCause::Plan,
                } => Some(file.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(canceled, ["f001", "f002"]);
        open_gate(&gate);
        engine.wait_idle();
        engine.drain();
    }

    #[test]
    fn drain_cancels_queued_prefetch_before_joining_workers() {
        // Regression (shutdown ordering): with the worker pinned inside an
        // in-flight copy, drain() must withdraw the queued prefetch jobs
        // *before* joining — otherwise the worker would execute the
        // speculative copies on its way out.
        let (mut engine, gate) = gated_engine(3, 8);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001", "f002"])), 2);
        // Release the in-flight copy only after drain has begun joining.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            open_gate(&gate);
        });
        let report = engine.drain();
        opener.join().unwrap();
        assert_eq!(report.canceled, 2, "both queued prefetch copies withdrawn");
        assert_eq!(report.join_failures, 0);
        // The in-flight copy finished; the canceled ones never ran and
        // their metadata reverted.
        assert_eq!(started_order(&engine), vec!["f000"]);
        assert_eq!(
            engine.book.metadata().get("f000").unwrap().state,
            PlacementState::Placed
        );
        for f in ["f001", "f002"] {
            let info = engine.book.metadata().get(f).unwrap();
            assert_eq!(info.state, PlacementState::Unplaced, "{f} reverted");
            assert_eq!(info.tier, engine.book.hierarchy().source_id());
        }
        // Run, withdrawn or never started: every staging went with its job.
        assert!(locks::lock(&engine.stagings).is_empty());
        let stats = engine.book.stats().snapshot();
        assert_eq!(stats.prefetch_canceled, 2);
        assert_eq!(stats.copies_completed, 1);
        // The canceled count is journaled, after the per-file cancels.
        let events = engine.book.telemetry().journal().events();
        let drained = events
            .iter()
            .find(|e| e.kind.tag() == "prefetch_drained")
            .expect("drain journals the canceled count");
        assert!(drained.to_json_line().contains("\"canceled\":2"));
        let cancels: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind.tag() == "prefetch_canceled")
            .collect();
        assert_eq!(cancels.len(), 2);
        assert!(drained.seq > cancels[1].seq);
        // Each per-file cancel says the drain withdrew it.
        for e in cancels {
            assert!(
                matches!(
                    e.kind,
                    EventKind::PrefetchCanceled {
                        cause: TransitionCause::Drain,
                        ..
                    }
                ),
                "{e:?}"
            );
        }
    }

    #[test]
    fn remote_admit_runs_after_demand_but_before_prefetch() {
        let (mut engine, gate) = gated_engine(5, 8);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001"])), 1);
        // Peer-fetched install queues on the remote lane; a later local
        // demand miss still outranks it.
        assert!(engine.remote_admit(
            id_of(&engine, "f002"),
            vec![2u8; 512],
            1,
            ReadCtx::untraced()
        ));
        assert!(engine.demand(id_of(&engine, "f003"), ReadCtx::untraced()));
        assert_eq!(engine.queued(Lane::Remote), 1);
        open_gate(&gate);
        engine.wait_idle();
        assert_eq!(started_order(&engine), vec!["f000", "f003", "f002", "f001"]);
        // The peer's bytes were the whole staging — placed without a
        // source fetch — and the scheduling peer is journaled.
        assert_eq!(
            engine.book.metadata().get("f002").unwrap().state,
            PlacementState::Placed
        );
        assert_eq!(engine.book.stats().snapshot().tiers[1].reads, 3);
        let events = engine.book.telemetry().journal().events();
        let sched = events
            .iter()
            .find(|e| e.kind.tag() == "remote_scheduled")
            .expect("remote install journaled");
        let line = sched.to_json_line();
        assert!(line.contains("\"file\":\"f002\""), "{line}");
        assert!(line.contains("\"peer\":1"), "{line}");
        // Every admit this engine performed is held on the local tier, which
        // is what a cluster snapshot reports.
        for f in ["f000", "f001", "f002", "f003"] {
            assert_eq!(engine.metadata().get(f).unwrap().tier, 0, "{f} not held");
        }
        engine.drain();
    }

    #[test]
    fn remote_admit_dedups_against_inflight_copies() {
        let (mut engine, gate) = gated_engine(2, 0);
        pin_worker(&engine, "f000");
        // The pinned demand copy holds f000's CAS: a remote install for
        // the same file must not double-schedule (or double-journal).
        assert!(!engine.remote_admit(
            id_of(&engine, "f000"),
            vec![0u8; 512],
            1,
            ReadCtx::untraced()
        ));
        open_gate(&gate);
        engine.wait_idle();
        assert!(engine
            .book
            .telemetry()
            .journal()
            .events()
            .iter()
            .all(|e| e.kind.tag() != "remote_scheduled"));
        engine.drain();
    }

    #[test]
    fn remote_deadline_expiry_journals_remote_timeout() {
        // Satellite fix: a remote install whose deadline lapses in the
        // queue journals the distinct `remote_timeout` event, not a
        // generic `copy_failed`, and the file falls back to the PFS.
        let (mut engine, gate) = gated_engine(2, 0);
        pin_worker(&engine, "f000");
        let clock = engine.book.telemetry().clock().clone();
        assert!(engine.remote_admit(
            id_of(&engine, "f001"),
            vec![1u8; 512],
            1,
            ReadCtx::untraced().with_deadline(clock.now_us())
        ));
        clock.advance(Duration::from_micros(1));
        open_gate(&gate);
        engine.wait_idle();
        let stats = engine.book.stats().snapshot();
        assert_eq!(stats.remote_timeouts, 1);
        assert_eq!(stats.copies_completed, 1, "only the pinned copy ran");
        let info = engine.book.metadata().get("f001").unwrap();
        assert_eq!(info.state, PlacementState::Unplaced, "fell back to the PFS");
        assert_eq!(info.tier, engine.book.hierarchy().source_id());
        let events = engine.book.telemetry().journal().events();
        assert!(
            events
                .iter()
                .any(|e| e.kind.tag() == "remote_timeout" && e.kind.file() == "f001"),
            "distinct remote_timeout event journaled"
        );
        assert!(
            events
                .iter()
                .all(|e| !(e.kind.tag() == "copy_failed" && e.kind.file() == "f001")),
            "no generic copy_failed for the timed-out remote install"
        );
        engine.drain();
    }

    #[test]
    fn expired_deadline_drops_copy_instead_of_running_it() {
        let (mut engine, gate) = gated_engine(2, 0);
        pin_worker(&engine, "f000");
        // Queued behind the pinned worker with an already-expired deadline:
        // by the time a worker dequeues it, the freshness window is gone.
        let clock = engine.book.telemetry().clock().clone();
        assert!(engine.demand(
            id_of(&engine, "f001"),
            ReadCtx::untraced().with_deadline(clock.now_us())
        ));
        clock.advance(Duration::from_micros(1));
        open_gate(&gate);
        engine.wait_idle();
        let stats = engine.book.stats().snapshot();
        assert_eq!(stats.copies_completed, 1, "only the pinned copy ran");
        assert_eq!(stats.copies_failed, 1);
        let info = engine.book.metadata().get("f001").unwrap();
        assert_eq!(
            info.state,
            PlacementState::Unplaced,
            "dropped copy reverted"
        );
        let events = engine.book.telemetry().journal().events();
        let failed = events
            .iter()
            .find(|e| e.kind.tag() == "copy_failed" && e.kind.file() == "f001")
            .expect("deadline drop journaled");
        assert!(failed.to_json_line().contains("deadline"));
        // The copy never started: no copy_started event for f001.
        assert_eq!(started_order(&engine), vec!["f000"]);
        // Its staging went with it: a read finds nothing to wait on.
        assert_eq!(engine.staging_progress(id_of(&engine, "f001")), None);
        assert_eq!(read_staged(&engine, "f001", 0, &mut [0u8; 8]), None);
        engine.drain();
    }

    #[test]
    fn a_queued_copy_serves_its_head_and_takes_what_reads_fetch_at_its_frontier() {
        let (gated, gate) = GatedDriver::new(staged_pfs(2));
        let mut engine = assemble(Arc::new(gated.only("f000")), 1, PrefetchConfig::disabled());
        pin_worker(&engine, "f000");
        // Queued behind the pinned worker, holding nothing yet.
        assert!(engine.demand(id_of(&engine, "f001"), ReadCtx::untraced()));
        assert_eq!(
            engine.staging_progress(id_of(&engine, "f001")),
            Some((0, None))
        );
        let mut buf = [0u8; 512];
        let served = Some;
        // The first read is the first fetch; what it brought is served.
        assert_eq!(
            read_staged(&engine, "f001", 0, &mut buf[..100]),
            served(100)
        );
        assert_eq!(read_staged(&engine, "f001", 20, &mut buf[..80]), served(0));
        // Straddling the watermark: 50 bytes from the staging, 150 fetched.
        assert_eq!(
            read_staged(&engine, "f001", 50, &mut buf[..200]),
            served(150)
        );
        assert_eq!(buf[..200], [1u8; 200]);
        assert_eq!(
            engine.staging_progress(id_of(&engine, "f001")),
            Some((250, None))
        );
        // Beyond the frontier: the plain path's business.
        assert_eq!(read_staged(&engine, "f001", 300, &mut buf[..10]), None);
        // The fetches are the source's reads; what the reads took from the
        // staging is their caller's to book, through `read_served`.
        let stats = engine.book.stats().snapshot();
        assert_eq!((stats.staged_reads, stats.staged_bytes), (0, 0));
        assert_eq!((stats.tiers[1].reads, stats.tiers[1].bytes_read), (2, 250));
        open_gate(&gate);
        engine.wait_idle();
        // The copy fetched what was left, and only that: in two claims, the
        // last as long as the first read's 100 bytes.
        let stats = engine.book.stats().snapshot();
        assert_eq!(stats.copies_completed, 2);
        assert_eq!(
            (stats.tiers[1].reads, stats.tiers[1].bytes_read),
            (5, 512 + 250 + 262)
        );
        assert_eq!(stats.tiers[0].bytes_written, 1024);
        assert_eq!(engine.staging_progress(id_of(&engine, "f001")), None);
        let ssd = &engine.book.hierarchy().tier(0).unwrap().driver;
        assert_eq!(ssd.read_full("f001").unwrap(), vec![1u8; 512]);
        engine.drain();
    }

    #[test]
    fn reads_do_not_fill_copies_the_pool_is_too_far_behind_to_install() {
        let (gated, gate) = GatedDriver::new(staged_pfs(6));
        let mut engine = assemble(Arc::new(gated.only("f000")), 1, PrefetchConfig::disabled());
        pin_worker(&engine, "f000");
        let mut buf = [0u8; 512];
        let served = Some;
        // One copy queued behind the one worker: a read may start filling it.
        assert!(engine.demand(id_of(&engine, "f001"), ReadCtx::untraced()));
        assert_eq!(
            read_staged(&engine, "f001", 0, &mut buf[..100]),
            served(100)
        );
        // Two more: the backlog is now deeper than two copies per worker.
        // Reads fill no further copy — each would hold a whole file until
        // the worker got to it — but the one already started goes on.
        assert!(engine.demand(id_of(&engine, "f002"), ReadCtx::untraced()));
        assert!(engine.demand(id_of(&engine, "f003"), ReadCtx::untraced()));
        assert_eq!(read_staged(&engine, "f002", 0, &mut buf[..64]), None);
        assert_eq!(read_staged(&engine, "f003", 0, &mut buf[..100]), None);
        assert_eq!(
            read_staged(&engine, "f001", 100, &mut buf[..100]),
            served(100)
        );
        assert_eq!(
            engine.staging_progress(id_of(&engine, "f001")),
            Some((200, None))
        );
        assert_eq!(
            engine.staging_progress(id_of(&engine, "f002")),
            Some((0, None))
        );
        assert_eq!(
            engine.staging_progress(id_of(&engine, "f003")),
            Some((0, None))
        );
        // The same holds for the read that announces a copy: part of a
        // file is left to the plain path, while a whole file — all its
        // copy will ever hold — is fetched in place, once.
        let ctx = ReadCtx::untraced();
        assert_eq!(
            engine.demand_read(id_of(&engine, "f004"), 512, 0, &mut buf[..100], ctx),
            (true, None)
        );
        assert_eq!(
            engine.staging_progress(id_of(&engine, "f004")),
            Some((0, None))
        );
        assert_eq!(
            engine.demand_read(id_of(&engine, "f005"), 512, 0, &mut buf, ctx),
            (true, served(512))
        );
        assert_eq!(buf, [5u8; 512]);
        assert_eq!(
            engine.staging_progress(id_of(&engine, "f005")),
            Some((512, None))
        );
        // Somebody else's copy holds the file: nothing is scheduled.
        assert_eq!(
            engine.demand_read(id_of(&engine, "f005"), 512, 0, &mut buf, ctx),
            (false, None)
        );
        open_gate(&gate);
        engine.wait_idle();
        let stats = engine.book.stats().snapshot();
        assert_eq!(stats.copies_completed, 6);
        // f001 in four fetches (its two reads', then the copy's body and
        // its last 100 bytes), f005 in the one its read made, the rest —
        // copies no read fetched for — in one each.
        assert_eq!(stats.tiers[1].reads, 4 + 1 + 4);
        assert_eq!(stats.tiers[1].bytes_read, 6 * 512);
        engine.drain();
    }

    #[test]
    fn evict_returns_resident_file_to_the_source() {
        let mut engine = assemble(Arc::new(staged_pfs(2)), 2, PrefetchConfig::disabled());
        assert!(engine.demand(id_of(&engine, "f000"), ReadCtx::untraced()));
        engine.wait_idle();
        assert_eq!(engine.book.metadata().get("f000").unwrap().tier, 0);
        let quota_used = || {
            engine
                .book
                .hierarchy()
                .tier(0)
                .unwrap()
                .quota
                .as_ref()
                .unwrap()
                .used()
        };
        assert_eq!(quota_used(), 512);

        assert!(engine.evict("f000").unwrap());
        let info = engine.book.metadata().get("f000").unwrap();
        assert_eq!(info.tier, engine.book.hierarchy().source_id());
        assert_eq!(info.state, PlacementState::Unplaced);
        assert_eq!(quota_used(), 0, "eviction released the quota");
        assert_eq!(engine.book.stats().snapshot().evictions, 1);
        assert!(engine
            .book
            .telemetry()
            .journal()
            .events()
            .iter()
            .any(|e| e.kind.tag() == "evicted" && e.kind.file() == "f000"));

        // Not resident any more: a second evict is a no-op...
        assert!(!engine.evict("f000").unwrap());
        // ...an unknown name is an error...
        assert!(matches!(
            engine.evict("missing"),
            Err(Error::UnknownFile(_))
        ));
        // ...and a later demand places the file again.
        assert!(engine.demand(id_of(&engine, "f000"), ReadCtx::untraced()));
        engine.wait_idle();
        assert_eq!(engine.book.metadata().get("f000").unwrap().tier, 0);
        engine.drain();
    }

    #[test]
    fn drain_without_prefetcher_still_purges_the_lane() {
        // The ordering guarantee must not depend on configuration: even
        // with no prefetcher, jobs sitting on the prefetch lane are
        // withdrawn rather than executed at shutdown.
        let (gated, gate) = GatedDriver::new(staged_pfs(3));
        let mut engine = assemble(Arc::new(gated), 1, PrefetchConfig::disabled());
        pin_worker(&engine, "f000");
        assert!(engine.demand(
            id_of(&engine, "f001"),
            ReadCtx::untraced().on_lane(Lane::Prefetch)
        ));
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            open_gate(&gate);
        });
        let report = engine.drain();
        opener.join().unwrap();
        assert_eq!(report.canceled, 1);
        assert_eq!(
            engine.book.metadata().get("f001").unwrap().state,
            PlacementState::Unplaced
        );
        assert_eq!(started_order(&engine), vec!["f000"]);
    }

    #[test]
    fn sampler_refreshes_tier_lane_and_prefetch_gauges() {
        let (mut engine, gate) = gated_engine(6, 8);
        let sampler = engine.sampler(None);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001", "f002", "f003"])), 3);
        let gauge_of = |name: &str, snap: &[crate::telemetry::GaugeSnapshot]| {
            snap.iter()
                .filter(|g| g.name == name)
                .map(|g| (g.labels.clone(), g.value))
                .collect::<Vec<_>>()
        };
        let snap = sampler.snapshot().gauges;
        // The pinned copy is executing; the three plan entries queue
        // behind it on the prefetch lane.
        assert_eq!(
            gauge_of("monarch_lane_queued", &snap),
            vec![
                (vec![("lane".into(), "demand".into())], 0.0),
                (vec![("lane".into(), "remote".into())], 0.0),
                (vec![("lane".into(), "prefetch".into())], 3.0),
            ]
        );
        assert_eq!(
            gauge_of("monarch_pool_inflight_jobs", &snap),
            vec![(vec![], 1.0)]
        );
        assert_eq!(
            gauge_of("monarch_prefetch_inflight_copies", &snap),
            vec![(vec![], 3.0)]
        );
        assert_eq!(gauge_of("monarch_draining", &snap), vec![(vec![], 0.0)]);
        // Capacity is the configured 1 MiB quota; nothing has landed yet.
        assert_eq!(
            gauge_of("monarch_tier_capacity_bytes", &snap),
            vec![(vec![("tier".into(), "ssd".into())], (1 << 20) as f64)]
        );
        assert_eq!(
            gauge_of("monarch_tier_files", &snap),
            vec![
                (vec![("tier".into(), "ssd".into())], 0.0),
                (vec![("tier".into(), "pfs".into())], 6.0),
            ]
        );

        open_gate(&gate);
        engine.wait_idle();
        engine.drain();
        let snap = sampler.snapshot().gauges;
        // All four copies landed on the SSD: occupancy, files, and the
        // drain flag all moved; both lanes are empty again.
        assert_eq!(
            gauge_of("monarch_tier_occupancy_bytes", &snap),
            vec![(vec![("tier".into(), "ssd".into())], 4.0 * 512.0)]
        );
        assert_eq!(
            gauge_of("monarch_tier_files", &snap),
            vec![
                (vec![("tier".into(), "ssd".into())], 4.0),
                (vec![("tier".into(), "pfs".into())], 2.0),
            ]
        );
        assert_eq!(
            gauge_of("monarch_lane_queued", &snap),
            vec![
                (vec![("lane".into(), "demand".into())], 0.0),
                (vec![("lane".into(), "remote".into())], 0.0),
                (vec![("lane".into(), "prefetch".into())], 0.0),
            ]
        );
        assert_eq!(
            gauge_of("monarch_pool_inflight_jobs", &snap),
            vec![(vec![], 0.0)]
        );
        assert_eq!(gauge_of("monarch_draining", &snap), vec![(vec![], 1.0)]);
        // Rendered exposition carries the gauge families too.
        let text = sampler.metrics_text();
        assert!(text.contains("# TYPE monarch_tier_occupancy_bytes gauge"));
        assert!(text.contains("monarch_lane_queued{lane=\"demand\"} 0"));
    }
}
