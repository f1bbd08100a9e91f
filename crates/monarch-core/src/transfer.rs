//! The transfer engine: one copy pipeline for demand placement,
//! clairvoyant prefetch, and eviction.
//!
//! MONARCH's data movement used to be wired directly into the `Monarch`
//! facade; this module carves it out as [`TransferEngine`], which owns the
//! two-lane copy [`ThreadPool`], the [`PrefetchWindow`] over the submitted
//! access plan, the composed [`PolicyEngine`], and all copy-lifecycle
//! telemetry and trace emission. The read path keeps only lookup → tier-resolve →
//! `driver.pread` and hands every movement *intent* to the engine:
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cluster::{Cluster, ClusterView, PeerError};
use crate::health::{device_error_class, ErrorClass};
use crate::hierarchy::TierId;
use crate::lifecycle::{Evict, Lifecycle, Reservation, Unplaced};
use crate::metadata::{FileId, FileInfo, MetadataContainer, PlacementState};
use crate::observe::{ReadClass, ResidencyEventKind, TimedRead, TransitionCause};
use crate::policy::FeatureSource;
use crate::pool::{Lane, PoolProbe, TaskCtx, ThreadPool};
use crate::prefetch::{AccessPlan, PrefetchConfig, PrefetchWindow};
use crate::staging::{Staged, Staging};
use crate::telemetry::{
    EventKind, PipelineSample, PrefetchSample, TelemetryRegistry, TelemetrySnapshot,
};
use crate::trace::{names, FlowPhase, SpanRecord, QUEUE_TRACK};
use crate::{Error, Result};

// ---------------------------------------------------------------------------
// LaneQueues — the shared two-lane queue discipline
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
/// Replaces the `(trace_parent, flow, start_flow)` argument tuples the
/// middleware used to pass around.
#[derive(Debug, Clone, Copy)]
pub struct ReadCtx {
    /// Span id of the operation that triggered the copy (`0` = unsampled).
    pub parent: u64,
    /// Trace flow id linking the trigger to the background `copy_exec`
    /// (`0` = unsampled).
    pub flow: u64,
    /// Put the flow's start endpoint on the `copy_scheduled` span itself —
    /// used when no foreground `driver_pread` exists to carry it
    /// (pre-staging, prefetch).
    pub start_flow: bool,
    /// Pool lane to queue the copy on.
    pub lane: Lane,
    /// Drop the copy (reverting its metadata) if a worker has not started
    /// it by this instant. `None` = no deadline.
    pub deadline: Option<Instant>,
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
            parent: 0,
            flow: 0,
            start_flow: false,
            lane: Lane::Demand,
            deadline: None,
        }
    }

    /// Sampled request: the flow starts at the caller's foreground
    /// `driver_pread` span and finishes at the background `copy_exec`.
    #[must_use]
    pub fn traced(parent: u64, flow: u64) -> Self {
        Self {
            parent,
            flow,
            ..Self::untraced()
        }
    }

    /// Sampled request with no foreground read (pre-staging): the flow
    /// starts at the `copy_scheduled` span itself.
    #[must_use]
    pub fn staged(parent: u64, flow: u64) -> Self {
        Self {
            parent,
            flow,
            start_flow: true,
            ..Self::untraced()
        }
    }

    /// Queue on `lane` instead of the default demand lane.
    #[must_use]
    pub fn on_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    /// Attach a start deadline: the copy is dropped (metadata reverted, a
    /// `copy_failed` event journaled) if still queued past `deadline`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// What [`TransferEngine::note_read`] learned about a foreground read —
/// the plan's answer to "did the prefetcher know about this file, and did
/// it help?". The read path threads it into the trace span (flow) and the
/// access profiler (classification).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadFeedback {
    /// Flow id of the prefetch copy issued for this file (`0` if none or
    /// untraced).
    pub flow: u64,
    /// The file was covered by the submitted access plan.
    pub planned: bool,
    /// This read was the file's first, and the plan had already staged it
    /// locally — a prefetch hit.
    pub prefetch_hit: bool,
}

/// How a read was served through its file's install staging (see
/// [`TransferEngine::read_staged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedRead {
    /// Bytes of the range the read fetched from the source itself, at the
    /// staging's frontier; `0` when it copied all of them out of the
    /// staging.
    pub fetched: usize,
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
/// here. Owns the two-lane pool and the plan window; what becomes of a copy
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

/// The install staging of every queued or running copy, by file name.
type Stagings = Arc<Mutex<HashMap<String, Arc<Staging>>>>;

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
    file: String,
    staging: Arc<Staging>,
    /// Lane the copy was queued on — the residency timeline attributes the
    /// resulting admission to demand or to the plan accordingly.
    lane: Lane,
    /// No worker has taken the job yet.
    queued: Cell<bool>,
    reserved: Cell<Option<Reservation>>,
    settled: Cell<bool>,
}

impl Lease {
    fn placed(&self, tier: TierId, took: Duration) -> Result<()> {
        let at = self.book.telemetry().now_micros();
        let size = self.staging.size();
        self.book
            .placed(at, &self.file, size, tier, self.lane, Some(took))?;
        // The reservation has become the file's bytes on `tier`.
        self.reserved.set(None);
        self.settled.set(true);
        Ok(())
    }

    fn unplaced(&self, why: Unplaced<'_>) {
        self.settled.set(true);
        let at = self.book.telemetry().now_micros();
        self.book
            .unplaced(at, &self.file, self.reserved.take(), why);
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        {
            let mut stagings = self.stagings.lock();
            // A failed copy reverts the metadata before its job ends; by
            // now a new copy of the file may have registered its own.
            if stagings
                .get(&self.file)
                .is_some_and(|s| Arc::ptr_eq(s, &self.staging))
            {
                stagings.remove(&self.file);
            }
        }
        if self.settled.get() {
            return;
        }
        let draining = self.shutting_down.load(Ordering::Acquire);
        self.unplaced(if std::thread::panicking() {
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
        });
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
    /// Assemble an engine over the instance's books. The pool is built
    /// with per-lane queue-wait stamping when the registry is enabled. A
    /// copy task that panics needs no handler here: its [`Lease`] unwinds
    /// with it and reverts the file, so a later read can retry (same
    /// degradation as an I/O failure — the file stays on the PFS).
    #[must_use]
    pub fn new(book: Arc<Lifecycle>, pool_threads: usize, prefetch: PrefetchConfig) -> Self {
        let telemetry = book.telemetry();
        let pool = if telemetry.is_enabled() {
            ThreadPool::with_telemetry(
                pool_threads,
                Arc::clone(telemetry.queue_wait()),
                Arc::clone(telemetry.queue_wait_remote()),
                Arc::clone(telemetry.queue_wait_prefetch()),
                Arc::clone(telemetry.pool_exec()),
            )
        } else {
            ThreadPool::new(pool_threads)
        };
        // Reuse-aware admission and the learned scorer read the access
        // profiler through this bridge; rebinding is idempotent.
        book.policy()
            .bind_features(Arc::clone(telemetry) as Arc<dyn FeatureSource>);
        Self {
            book,
            shutting_down: Arc::new(AtomicBool::new(false)),
            pool,
            prefetch: prefetch.enabled().then(|| {
                Arc::new(PrefetchState {
                    cfg: prefetch,
                    window: Mutex::new(None),
                })
            }),
            stagings: Arc::default(),
        }
    }

    /// Attach the peer-cache residency feed: from now on every admit and
    /// evict this engine performs is mirrored into `view` under `node`.
    /// Called once by the builder when a cluster is configured.
    pub fn set_cluster_feed(&self, view: Arc<ClusterView>, node: usize) {
        self.book.set_cluster_feed(view, node);
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

    /// Read-path recency signal: forward a foreground access to the
    /// placement policy (LRU-style policies feed on this).
    pub fn note_access(&self, file: &str, id: FileId, tier: TierId) {
        self.book.policy().on_access_id(id, file, tier);
    }

    /// The instance's namespace.
    #[must_use]
    pub fn metadata(&self) -> &Arc<MetadataContainer> {
        self.book.metadata()
    }

    /// Hand a placement copy to the pool if this request wins the
    /// `Unplaced → Copying` race. Returns whether a copy was scheduled.
    ///
    /// The [`ReadCtx`] carries trace linkage (a `copy_scheduled` span is
    /// recorded under `ctx.parent` when sampled), the lane to queue on,
    /// and an optional start deadline.
    pub fn demand(&self, file: &str, size: u64, ctx: ReadCtx) -> bool {
        self.schedule(file, Arc::new(Staging::empty(size)), ctx)
    }

    /// [`Self::demand`] by the read that first touches `file`: announce
    /// the copy, then serve the read — `buf.len()` bytes at `offset`,
    /// inside the file — as the first fetch into the copy's staging, the
    /// way [`Self::read_staged`] serves every later one. Returns whether a
    /// copy was scheduled, and how the read was served if it was; a read
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
        file: &str,
        size: u64,
        offset: u64,
        buf: &mut [u8],
        ctx: ReadCtx,
    ) -> (bool, Option<StagedRead>) {
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
    fn schedule(&self, file: &str, staging: Arc<Staging>, ctx: ReadCtx) -> bool {
        let telemetry = self.book.telemetry();
        let size = staging.size();
        let at = telemetry.now_micros();
        let lease = {
            let mut stagings = self.stagings.lock();
            if !self.book.scheduled(at, file, size, ctx.lane) {
                return false;
            }
            stagings.insert(file.to_string(), Arc::clone(&staging));
            Lease {
                book: Arc::clone(&self.book),
                stagings: Arc::clone(&self.stagings),
                shutting_down: Arc::clone(&self.shutting_down),
                file: file.to_string(),
                staging,
                lane: ctx.lane,
                queued: Cell::new(true),
                reserved: Cell::new(None),
                settled: Cell::new(false),
            }
        };
        if ctx.flow != 0 {
            let tr = telemetry.trace();
            let name = match ctx.lane {
                Lane::Prefetch => names::PREFETCH_SCHEDULED,
                Lane::Demand | Lane::Remote => names::COPY_SCHEDULED,
            };
            let sched = SpanRecord::new(name, "copy", tr.register_current_thread(), at, 0)
                .with_id(tr.next_id())
                .with_parent(ctx.parent)
                .arg_str("file", file)
                .arg_u64("bytes", size);
            // `with_flow` makes the exporter emit the `flow` arg itself, so
            // only the non-starting variant adds it explicitly.
            tr.record(if ctx.start_flow {
                sched.with_flow(ctx.flow, FlowPhase::Start)
            } else {
                sched.arg_u64("flow", ctx.flow)
            });
        }
        // A refusal (the pool is shutting down) drops the job, and its
        // lease books the copy as un-placed.
        let task_ctx = TaskCtx {
            label: file.to_string(),
            flow: ctx.flow,
        };
        let job = CopyJob {
            flow: ctx.flow,
            queued_us: at,
            deadline: ctx.deadline,
            lease,
        };
        self.pool
            .submit_on(ctx.lane, Some(task_ctx), Box::new(move || job.run()))
    }

    /// Install bytes fetched from a peer node's fast tier: the remote-lane
    /// counterpart to [`TransferEngine::demand`], whose staging is full
    /// from the start. The triggering read was already served from
    /// `bytes`, so the install queues on [`Lane::Remote`] — behind local
    /// demand misses (a trainer is waiting on those), ahead of speculative
    /// prefetch. Carries the same deadline/cancellation/trace semantics as
    /// any other copy; a `remote_scheduled` event (with the serving peer)
    /// is journaled beside the usual copy lifecycle. Returns whether an
    /// install was scheduled (`false`: the peer's copy is not `size` bytes
    /// long, a concurrent copy won the CAS, or the pool is shutting down).
    pub fn remote_admit(
        &self,
        file: &str,
        size: u64,
        bytes: Vec<u8>,
        peer: u64,
        ctx: ReadCtx,
    ) -> bool {
        if bytes.len() as u64 != size {
            return false;
        }
        let ctx = ReadCtx {
            lane: Lane::Remote,
            ..ctx
        };
        let scheduled = self.schedule(file, Arc::new(Staging::full(bytes)), ctx);
        if scheduled {
            self.book.telemetry().event(EventKind::RemoteScheduled {
                file: file.to_string(),
                bytes: size,
                peer,
            });
        }
        scheduled
    }

    /// Try to serve a read of an unplaced, peer-owned file from its owner
    /// node's fast tier. Returns `Some(n)` when the peer answered — the
    /// requested range was copied into `buf` and the whole file was handed
    /// to the remote install lane — and `None` when this read should take
    /// the normal local path (locally owned, already placed, or the peer
    /// was slow/down, in which case the fallback is counted and the read
    /// degrades to the PFS). `entry` is when the read entered the
    /// middleware, if the read is profiled.
    pub fn peer_read(
        &self,
        cluster: &Cluster,
        file: &str,
        offset: u64,
        buf: &mut [u8],
        entry: Option<Instant>,
    ) -> Option<usize> {
        let info = self.book.metadata().get(file)?;
        // Only first-touch misses go to a peer: placed files are local,
        // and an in-flight copy means bytes are already on their way.
        if info.state != PlacementState::Unplaced || offset >= info.size {
            return None;
        }
        let owner = cluster.peer_owner(file)?;
        let p_fetch = Instant::now();
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
        let p_pread = Instant::now();
        // Serve the requested range straight from the fetched buffer. The
        // namespace read counter still ticks; the per-tier counters do not
        // (no local tier did any work — `peer_bytes` accounts the traffic).
        let counted = self.book.metadata().resolve_for_read(file).ok();
        let want = buf.len().min(bytes.len().saturating_sub(offset as usize));
        buf[..want].copy_from_slice(&bytes[offset as usize..offset as usize + want]);
        self.book.stats().peer_hit(want as u64);
        // The whole file becomes a remote-lane install so later chunks
        // (and later epochs) hit the local tier. Bounded by the remote
        // deadline: if the install queue is backed up past it, the install
        // reverts and the file stays on the PFS.
        self.remote_admit(
            file,
            info.size,
            bytes,
            owner as u64,
            ReadCtx::untraced().with_deadline(Instant::now() + cluster.remote_deadline()),
        );
        // Advance the plan cursor as any read does; the source-tier id
        // keeps this from counting as a prefetch hit (the plan did not
        // stage these bytes — the peer did).
        let _ = self.note_read(file, self.book.hierarchy().source_id());
        if self.book.telemetry().is_enabled() {
            // Never a plain local hit, so always timed; a read that did
            // not bring the clock along starts its chain at the fetch.
            let p_entry = entry.unwrap_or(p_fetch);
            let p_end = Instant::now();
            self.book.stats().timed_read();
            self.book
                .telemetry()
                .stall_profile()
                .record(p_entry, p_fetch, p_fetch, p_pread, p_end);
            if let Some((id, counted)) = counted {
                let timed = TimedRead::between(
                    [p_entry, p_fetch, p_pread, p_end],
                    1,
                    self.book.telemetry().micros_at(p_end),
                    counted.reads,
                );
                self.book.telemetry().observe().profiler().record_read_id(
                    id,
                    0,
                    want as u64,
                    ReadClass::PeerBound,
                    false,
                    Some(&timed),
                );
            }
        }
        Some(want)
    }

    /// Serve the read of `buf.len()` bytes of `file` at `offset` (inside
    /// the file) from the install staging of the file's in-flight copy.
    /// `None` when there is nothing to be had there — no copy of the file
    /// is queued or running, or the read starts beyond what the copy has
    /// fetched or is fetching — and the caller reads the source itself.
    ///
    /// Below the staging's watermark the bytes are copied out; inside the
    /// range being fetched the read waits for that fetch; at an unclaimed
    /// frontier the read fetches the part it misses from the source into
    /// the staging itself, so a queued or busy worker never stalls it and
    /// the copy does not fetch those bytes again. Every source read issued
    /// here is recorded on the source tier, and the returned
    /// [`StagedRead`] says how much of the range this read fetched; what
    /// it took from the staging is counted as staged.
    ///
    /// Memory stays bounded by the pool, not by how far readers run ahead
    /// of it: a read starts the file-sized buffer of a copy that has not
    /// fetched yet only while the pool's backlog is no deeper than two
    /// copies per worker. Past that it reads the source on its own, as it
    /// did before stagings, and the copy fetches those bytes again.
    pub fn read_staged(&self, file: &str, offset: u64, buf: &mut [u8]) -> Option<StagedRead> {
        let staging = self.stagings.lock().get(file).cloned()?;
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
        file: &str,
        staging: &'a Staging,
        mut step: Staged<'a>,
        offset: u64,
        buf: &mut [u8],
    ) -> Option<StagedRead> {
        let source = self.book.hierarchy().source();
        let mut fetched = 0;
        loop {
            match step {
                Staged::Served => break,
                Staged::Miss => return None,
                Staged::Frontier(claim) => {
                    // A failed fetch gives the frontier back; the caller's
                    // plain read retries it with the health machinery.
                    let n = claim
                        .fill(|at, dst| source.driver.read_at(file, at, dst))
                        .ok()?;
                    self.book.stats().record_read(source.id, n as u64);
                    fetched += n;
                }
            }
            // The fetch above saw to the buffer: nothing is left to start.
            step = staging.read(offset, buf, false);
        }
        self.book
            .stats()
            .record_staged(fetched == 0, (buf.len() - fetched) as u64);
        Some(StagedRead { fetched })
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
        let mut files = Vec::with_capacity(plan.len());
        for name in plan.files() {
            if let Some(info) = self.book.metadata().get(name) {
                files.push((name.clone(), info.size));
            }
        }
        // The clairvoyant eviction book ranks residents by their next
        // planned use; pins from the previous plan are reset with it.
        let names: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
        self.book.policy().set_plan(&names);
        let window = PrefetchWindow::new(files, state.cfg);
        let admitted = window.len();
        *state.window.lock() = Some(window);
        let tr = self.book.telemetry().trace();
        if tr.is_enabled() {
            tr.record(
                SpanRecord::new(
                    names::PLAN_SUBMIT,
                    "read",
                    tr.register_current_thread(),
                    self.book.telemetry().now_micros(),
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

    /// Read-path prefetch bookkeeping: advance the plan cursor past
    /// `file`, count a hit when the plan staged it in time, upgrade a
    /// still-queued prefetch copy to the demand lane, and release more of
    /// the plan. The returned [`ReadFeedback`] carries the flow id of the
    /// prefetch copy issued for this file (`0` if none / untraced) so the
    /// read span can point back at it, plus the plan/hit facts the access
    /// profiler classifies the read by.
    pub fn note_read(&self, file: &str, served: TierId) -> ReadFeedback {
        let Some(state) = &self.prefetch else {
            return ReadFeedback::default();
        };
        let note = {
            let mut guard = state.window.lock();
            let Some(window) = guard.as_mut() else {
                return ReadFeedback::default();
            };
            match window.on_read(file) {
                Some(note) => note,
                None => return ReadFeedback::default(),
            }
        };
        // The plan's cursor moved past `file`: the prefetch pin (staged but
        // unread) lifts, and the clairvoyant book advances to its next use.
        self.book.policy().unpin(file);
        self.book.policy().note_plan_read(file);
        let mut fb = ReadFeedback {
            planned: true,
            ..ReadFeedback::default()
        };
        if note.issued {
            fb.flow = note.flow;
            if note.first_read && served != self.book.hierarchy().source_id() {
                // The plan staged this file before its first read arrived.
                self.book.stats().prefetch_hit();
                fb.prefetch_hit = true;
            }
            if !note.resolved && self.pool.promote(file) {
                // Dedup guard: the file's copy is still *queued* on the
                // prefetch lane — upgrade that job's priority instead of
                // letting the demand path wait behind unrelated prefetches
                // (it cannot enqueue a duplicate: the metadata CAS is held
                // by the queued job).
                self.book.stats().prefetch_promote();
                self.book.telemetry().event(EventKind::PrefetchPromoted {
                    file: file.to_string(),
                });
                self.book.telemetry().observe().timeline().record_at(
                    self.book.telemetry().now_micros(),
                    file,
                    served,
                    ResidencyEventKind::Promoted,
                    TransitionCause::Demand,
                );
            }
        }
        // The cursor moved: more of the plan may now be issued.
        self.pump();
        fb
    }

    /// Evict `file` from its local tier back to the PFS source: the
    /// counterpart intent to [`TransferEngine::demand`], for policies and
    /// operators that want to free local capacity explicitly. Returns
    /// `Ok(false)` when the file is not locally resident (on the source,
    /// or a copy is in flight). The file reverts to `Unplaced`, so a later
    /// read may place it again.
    pub fn evict(&self, file: &str) -> Result<bool> {
        let info = self
            .book
            .metadata()
            .get(file)
            .ok_or_else(|| Error::UnknownFile(file.to_string()))?;
        let tier = self.book.hierarchy().tier(info.tier)?;
        let at = self.book.telemetry().now_micros();
        self.book.evicted(at, file, info.tier, Evict::Explicit, || {
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
            None => self.withdraw_queued(None),
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
    /// drain): pull queued prefetch jobs out of the pool, revert their
    /// metadata, and settle hit/waste accounting for the closed plan.
    fn close_window(&self, state: &PrefetchState) -> usize {
        let mut guard = state.window.lock();
        let mut window = guard.take();
        let withdrawn = self.withdraw_queued(window.as_mut());
        // Pins belong to the closing plan; the next plan re-pins as it
        // stages.
        self.book.policy().clear_pins();
        let Some(mut window) = window else {
            return withdrawn;
        };
        // Wasted work: staged onto a local tier but never read before the
        // plan closed. (Copies still running when the plan closes are in
        // `Copying` and settle as neither hit nor waste.)
        let source = self.book.hierarchy().source_id();
        for (name, issued, read_seen) in window.drain() {
            if issued && !read_seen {
                if let Some(info) = self.book.metadata().get(&name) {
                    if info.state == PlacementState::Placed && info.tier != source {
                        self.book.stats().prefetch_wasted();
                    }
                }
            }
        }
        withdrawn
    }

    /// Withdraw every queued-but-unstarted prefetch copy from the pool —
    /// each job is dropped unrun in there, and its [`Lease`] books the
    /// cancellation (under the drain's cause once shutdown has begun, the
    /// plan's before) — and settle the entries in `window` when one is
    /// still open. Returns the number withdrawn.
    fn withdraw_queued(&self, window: Option<&mut PrefetchWindow>) -> usize {
        let canceled = self.pool.drain_prefetch();
        if let Some(window) = window {
            for ctx in &canceled {
                window.resolve_by_name(&ctx.label);
            }
        }
        canceled.len()
    }

    /// Issue as much of the plan as the lookahead window and byte budget
    /// allow. Runs inline on plan submission and after each foreground
    /// read (the cursor advance is what releases more of the plan).
    fn pump(&self) {
        let Some(state) = &self.prefetch else { return };
        loop {
            let (idx, name, size) = {
                let mut guard = state.window.lock();
                let Some(window) = guard.as_mut() else { return };
                // Copies that left `Copying` (completed, skipped, failed,
                // or reverted by the panic handler) release byte budget.
                window.poll_resolved(|name| {
                    !matches!(
                        self.book.metadata().get(name),
                        Some(FileInfo {
                            state: PlacementState::Copying { .. },
                            ..
                        })
                    )
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
                    &name,
                    Arc::new(Staging::empty(size)),
                    ReadCtx::staged(0, flow).on_lane(Lane::Prefetch),
                );
            let mut guard = state.window.lock();
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

    /// `(watermark, end of the range being fetched)` of `file`'s install
    /// staging, while its copy is queued or running.
    #[cfg(test)]
    pub(crate) fn staging_progress(&self, file: &str) -> Option<(u64, Option<u64>)> {
        self.stagings.lock().get(file).map(|s| s.progress())
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
/// the FFI and the CLI views — so they cannot disagree: one gauge refresh
/// ([`TelemetryRegistry::publish_gauges`]), one snapshot assembly
/// ([`TelemetryRegistry::snapshot`]), one exposition. Sampling is
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
    /// Re-sample every gauge family from live state. Cheap enough to run
    /// on each scrape: a handful of atomic loads plus two short lock
    /// acquisitions (pool queue, prefetch window).
    pub fn refresh(&self) {
        let queued = PipelineSample::queued_by(|lane| self.probe.queued(lane));
        let prefetch = self.prefetch.as_ref().map(|state| {
            state
                .window
                .lock()
                .as_ref()
                .map_or_else(PrefetchSample::default, |w| PrefetchSample {
                    copies: w.inflight() as u64,
                    bytes: w.inflight_bytes(),
                    lag_entries: w.next_index().saturating_sub(w.cursor()) as u64,
                })
        });
        self.book.telemetry().publish_gauges(
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
    }

    /// The instance's state document, gauges re-sampled first.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.refresh();
        self.book.telemetry().snapshot(
            self.book.hierarchy().health(),
            self.book.policy(),
            self.cluster.as_deref(),
        )
    }

    /// Prometheus-style text exposition, gauges re-sampled first.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.refresh();
        self.book.telemetry().prometheus_text()
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
/// lease owns `Arc`s of what the copy needs) and the request's trace and
/// deadline.
struct CopyJob {
    /// Flow id linking back to the sampled foreground operation that
    /// scheduled this copy; 0 when the trigger was not sampled.
    flow: u64,
    /// Registry-clock timestamp of the moment the task was enqueued
    /// (queue-wait span start).
    queued_us: u64,
    /// Drop the copy if a worker has not started it by this instant.
    deadline: Option<Instant>,
    /// The file's name, install staging and reservation; dropped with the
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

/// Per-copy trace context threaded into `try_place` so the chunk-level
/// spans (`placement_decide` / `copy_read` / `copy_write` /
/// `metadata_register`) parent under the enclosing `copy_exec`.
struct CopyTraceCtx {
    tid: u64,
    exec_id: u64,
}

impl CopyJob {
    fn run(&self) {
        let lease = &self.lease;
        let book = &*lease.book;
        let telemetry = book.telemetry();
        let file = lease.file.as_str();
        let size = lease.staging.size();
        lease.queued.set(false);
        if lease.shutting_down.load(Ordering::Acquire) {
            return lease.unplaced(Unplaced::ShutDown);
        }
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            // The request's freshness window closed while the copy sat in
            // the queue: doing the work now would be wasted bandwidth.
            // Same degradation as a failed copy — revert, retry on a later
            // touch.
            return lease.unplaced(Unplaced::Expired {
                remote: lease.lane == Lane::Remote,
            });
        }
        let tr = telemetry.trace();
        let traced = self.flow != 0 && tr.is_enabled();
        let exec_t0 = if traced { telemetry.now_micros() } else { 0 };
        let copy_trace = if traced {
            // The queue-wait interval spans enqueue → dequeue; it renders on
            // its own reserved track because it belongs to neither the
            // scheduling nor the executing thread.
            tr.record(
                SpanRecord::new(
                    names::QUEUE_WAIT,
                    "copy",
                    QUEUE_TRACK,
                    self.queued_us,
                    exec_t0.saturating_sub(self.queued_us),
                )
                .with_id(tr.next_id())
                .arg_str("file", file),
            );
            Some(CopyTraceCtx {
                tid: tr.register_current_thread(),
                exec_id: tr.next_id(),
            })
        } else {
            None
        };
        let started = Instant::now();
        telemetry.event(EventKind::CopyStarted {
            file: file.to_string(),
        });
        let result = self.try_place(started, copy_trace.as_ref());
        if let Some(ct) = &copy_trace {
            let outcome = match &result {
                Ok(Some(_)) => "completed",
                Ok(None) => "skipped",
                Err(_) => "failed",
            };
            tr.record(
                SpanRecord::new(
                    names::COPY_EXEC,
                    "copy",
                    ct.tid,
                    exec_t0,
                    telemetry.now_micros() - exec_t0,
                )
                .with_id(ct.exec_id)
                .with_flow(self.flow, FlowPhase::Finish)
                .arg_str("file", file)
                .arg_u64("bytes", size)
                .arg_str("outcome", outcome),
            );
        }
        match result {
            Ok(Some(_)) => {
                if let (Lane::Prefetch, Some(id)) = (lease.lane, book.metadata().resolve(file)) {
                    telemetry.observe().profiler().record_prefetch_staged_id(
                        id,
                        size,
                        telemetry.now_micros(),
                    );
                }
            }
            Ok(None) => lease.unplaced(Unplaced::NoRoom),
            Err(e) => lease.unplaced(Unplaced::Failed(&e)),
        }
    }

    /// Fetch the file into the lease's staging, install it and book the
    /// placement, `started` being when the worker took the job. Returns
    /// `Ok(Some(tier))` if the file was placed on `tier`, `Ok(None)` if no
    /// tier had room, `Err` on I/O failure (nothing half-installed visible
    /// to readers; the lease releases the reservation when the caller
    /// books the failure).
    fn try_place(&self, started: Instant, ct: Option<&CopyTraceCtx>) -> Result<Option<TierId>> {
        let lease = &self.lease;
        let book = &*lease.book;
        let (hierarchy, policy, telemetry) = (book.hierarchy(), book.policy(), book.telemetry());
        let stats = book.stats();
        let file = lease.file.as_str();
        let size = lease.staging.size();
        let tr = telemetry.trace();
        let t_decide = if ct.is_some() {
            telemetry.now_micros()
        } else {
            0
        };
        let decision = policy.place(hierarchy, file, size)?;
        if let Some(ct) = ct {
            let mut span = SpanRecord::new(
                names::PLACEMENT_DECIDE,
                "copy",
                ct.tid,
                t_decide,
                telemetry.now_micros() - t_decide,
            )
            .with_id(tr.next_id())
            .with_parent(ct.exec_id)
            .arg_str("policy", policy.name().to_string());
            if let Some(d) = &decision {
                for (key, value) in d.trace_args(hierarchy) {
                    span.args.push((key, value));
                }
            } else {
                span = span.arg_str("tier", "none");
            }
            tr.record(span);
        }
        let Some(decision) = decision else {
            return Ok(None);
        };
        let dest = hierarchy.tier(decision.tier)?;
        // Evictions (eviction-capable policies only), then the reservation.
        let at = telemetry.now_micros();
        if !book.make_room(at, file, size, &decision, |victim| {
            dest.driver.remove(victim)
        }) {
            return Ok(None);
        }
        // From here the bytes are the lease's: whichever way the job ends,
        // they are released or become the file's, once.
        lease.reserved.set(Some((decision.tier, size)));

        // The install either succeeds or reports *which* tier failed, so
        // health accounting blames the source on a failed read and the
        // destination on a failed write. It fills the staging from its
        // watermark — whatever the triggering read, foreground reads at the
        // frontier, or an earlier attempt already fetched is not fetched
        // again — then writes the finished buffer out.
        let staging = &lease.staging;
        let install = || -> std::result::Result<(), (TierId, Error)> {
            let source = hierarchy.source();
            let t_read = if ct.is_some() {
                telemetry.now_micros()
            } else {
                0
            };
            let mut fetched = 0u64;
            while let Some(claim) = staging.claim_next(FETCH_CHUNK) {
                let n = claim
                    .fill(|at, dst| source.driver.read_at(file, at, dst))
                    .map_err(|e| (source.id, e))?;
                stats.record_read(source.id, n as u64);
                fetched += n as u64;
            }
            if let (Some(ct), true) = (ct, fetched > 0) {
                tr.record(
                    SpanRecord::new(
                        names::COPY_READ,
                        "copy",
                        ct.tid,
                        t_read,
                        telemetry.now_micros() - t_read,
                    )
                    .with_id(tr.next_id())
                    .with_parent(ct.exec_id)
                    .arg_str("tier", &source.name)
                    .arg_u64("bytes", fetched),
                );
            }
            let data = staging
                .whole()
                .expect("the staging has no unfetched range left to claim");
            if fetched > 0 {
                // Whoever was parked on the last fetch issues the next read
                // of the source; this thread is about to spend a file's
                // worth of memcpy on the install. When the two share a
                // core, let the reader go first.
                std::thread::yield_now();
            }
            let t_write = if ct.is_some() {
                telemetry.now_micros()
            } else {
                0
            };
            dest.driver
                .write_full(file, data)
                .map_err(|e| (decision.tier, e))?;
            stats.record_write(decision.tier, data.len() as u64);
            if let Some(ct) = ct {
                tr.record(
                    SpanRecord::new(
                        names::COPY_WRITE,
                        "copy",
                        ct.tid,
                        t_write,
                        telemetry.now_micros() - t_write,
                    )
                    .with_id(tr.next_id())
                    .with_parent(ct.exec_id)
                    .arg_str("tier", &dest.name)
                    .arg_u64("bytes", data.len() as u64),
                );
            }
            Ok(())
        };
        // Copy-path fault handling: transient device errors back off and
        // retry in place; ENOSPC (the quota had room but the device
        // disagrees — accounting drift or a shared device filling up
        // outside Monarch) evicts one resident file and retries once;
        // anything else fails the copy. Every device error feeds the tier
        // health tracker of the tier that produced it.
        let health = hierarchy.health();
        let retry = health.retry_policy();
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
            let (_, quarantined_now) = health.record_error(err_tier, class);
            if quarantined_now {
                stats.tier_quarantine();
                telemetry.event(EventKind::TierQuarantined {
                    tier: err_tier,
                    reason: format!("copy of '{file}' failed: {e}"),
                });
            }
            match class {
                ErrorClass::Transient if attempts < retry.max_attempts => {
                    attempts += 1;
                    stats.copy_retry();
                    std::thread::sleep(Duration::from_micros(retry.backoff_us(attempts, size)));
                }
                ErrorClass::Capacity if !evicted_for_space && err_tier == decision.tier => {
                    evicted_for_space = true;
                    if !self.evict_for_space(decision.tier) {
                        break Some(e);
                    }
                    stats.enospc_eviction();
                }
                _ => break Some(e),
            }
        };
        match failure {
            None => {
                let t_reg = if ct.is_some() {
                    telemetry.now_micros()
                } else {
                    0
                };
                lease.placed(decision.tier, started.elapsed())?;
                health.record_success(decision.tier);
                if let Some(ct) = ct {
                    tr.record(
                        SpanRecord::new(
                            names::METADATA_REGISTER,
                            "copy",
                            ct.tid,
                            t_reg,
                            telemetry.now_micros() - t_reg,
                        )
                        .with_id(tr.next_id())
                        .with_parent(ct.exec_id)
                        .arg_str("tier", &dest.name),
                    );
                }
                Ok(Some(decision.tier))
            }
            Some(e) => {
                // Best effort: remove a possibly half-written destination
                // file (the POSIX driver's rename makes this a no-op there).
                if dest.driver.remove(file).is_ok() {
                    stats.record_remove(decision.tier);
                    telemetry.event(EventKind::Removed {
                        file: file.to_string(),
                        tier: decision.tier,
                    });
                }
                Err(e)
            }
        }
    }

    /// ENOSPC recovery: evict one file resident on `tier` (other than the
    /// file being installed) back to the PFS to free real device space.
    /// The eviction policy picks the victim when it has a preference among
    /// the resident candidates; otherwise the first non-exempt resident
    /// goes, so pressure is relieved even under no-eviction policies.
    /// Returns whether a victim was evicted — a victim whose delete failed
    /// still is: its quota is free, and the retry will tell.
    fn evict_for_space(&self, tier: TierId) -> bool {
        let book = &*self.lease.book;
        let keep = self.lease.file.as_str();
        let Ok(dest) = book.hierarchy().tier(tier) else {
            return false;
        };
        let mut candidates: Vec<(String, u64)> = Vec::new();
        book.metadata().for_each(|name, info| {
            if name != keep && info.state == PlacementState::Placed && info.tier == tier {
                candidates.push((name.to_string(), info.size));
            }
        });
        let Some(victim) = book.policy().pressure_victim(tier, &candidates, keep) else {
            return false;
        };
        let at = book.telemetry().now_micros();
        !matches!(
            book.evicted(at, &victim, tier, Evict::Enospc, || dest
                .driver
                .remove(&victim)),
            Ok(false)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;
    use crate::config::{AdmissionKind, PolicyKind};
    use crate::driver::{open_gate, Gate, GatedDriver, MemDriver, StorageDriver};
    use crate::hierarchy::StorageHierarchy;
    use crate::policy::PolicyEngine;
    use crate::stats::Stats;
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
        let telemetry = Arc::new(TelemetryRegistry::new(
            vec!["ssd".into(), "pfs".into()],
            stats,
            &TelemetryConfig::default(),
        ));
        let policy = Arc::new(PolicyEngine::from_kind(
            PolicyKind::FirstFit,
            AdmissionKind::AdmitAll,
        ));
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
        assert!(engine.demand(file, 512, ReadCtx::untraced()));
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
        assert!(engine.demand("f003", 512, ReadCtx::untraced()));
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
        let fb = engine.note_read("f002", engine.book.hierarchy().source_id());
        assert!(fb.planned, "f002 was covered by the submitted plan");
        assert!(!fb.prefetch_hit, "still served from the source");
        let stats = engine.book.stats().snapshot();
        assert_eq!(stats.prefetch_promoted, 1);
        assert_eq!(stats.copies_scheduled, 3, "no duplicate copy for f002");
        assert_eq!(engine.queued(Lane::Demand), 1);
        assert_eq!(engine.queued(Lane::Prefetch), 1);
        open_gate(&gate);
        engine.wait_idle();
        assert_eq!(started_order(&engine), vec!["f000", "f002", "f001"]);
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
        assert!(engine.stagings.lock().is_empty());
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
        let last_cancel = events
            .iter()
            .filter(|e| e.kind.tag() == "prefetch_canceled")
            .map(|e| e.seq)
            .max()
            .unwrap();
        assert!(drained.seq > last_cancel);
    }

    #[test]
    fn remote_admit_runs_after_demand_but_before_prefetch() {
        let (mut engine, gate) = gated_engine(5, 8);
        let view = Arc::new(crate::cluster::ClusterView::new());
        engine.set_cluster_feed(Arc::clone(&view), 3);
        pin_worker(&engine, "f000");
        assert_eq!(engine.plan(&plan_of(&["f001"])), 1);
        // Peer-fetched install queues on the remote lane; a later local
        // demand miss still outranks it.
        assert!(engine.remote_admit("f002", 512, vec![2u8; 512], 1, ReadCtx::untraced()));
        assert!(engine.demand("f003", 512, ReadCtx::untraced()));
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
        // Every admit this engine performed fed the cluster view under the
        // configured node id.
        for f in ["f000", "f001", "f002", "f003"] {
            assert!(view.holds(f, 3), "{f} missing from the cluster view");
        }
        engine.drain();
    }

    #[test]
    fn remote_admit_dedups_against_inflight_copies() {
        let (mut engine, gate) = gated_engine(2, 0);
        pin_worker(&engine, "f000");
        // The pinned demand copy holds f000's CAS: a remote install for
        // the same file must not double-schedule (or double-journal).
        assert!(!engine.remote_admit("f000", 512, vec![0u8; 512], 1, ReadCtx::untraced()));
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
        assert!(engine.remote_admit(
            "f001",
            512,
            vec![1u8; 512],
            1,
            ReadCtx::untraced().with_deadline(Instant::now())
        ));
        std::thread::sleep(Duration::from_millis(2));
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
        let expired = Instant::now();
        assert!(engine.demand("f001", 512, ReadCtx::untraced().with_deadline(expired)));
        std::thread::sleep(Duration::from_millis(2));
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
        assert_eq!(engine.staging_progress("f001"), None);
        assert_eq!(engine.read_staged("f001", 0, &mut [0u8; 8]), None);
        engine.drain();
    }

    #[test]
    fn a_queued_copy_serves_its_head_and_takes_what_reads_fetch_at_its_frontier() {
        let (gated, gate) = GatedDriver::new(staged_pfs(2));
        let mut engine = assemble(Arc::new(gated.only("f000")), 1, PrefetchConfig::disabled());
        pin_worker(&engine, "f000");
        // Queued behind the pinned worker, holding nothing yet.
        assert!(engine.demand("f001", 512, ReadCtx::untraced()));
        assert_eq!(engine.staging_progress("f001"), Some((0, None)));
        let mut buf = [0u8; 512];
        let served = |fetched| Some(StagedRead { fetched });
        // The first read is the first fetch; what it brought is served.
        assert_eq!(engine.read_staged("f001", 0, &mut buf[..100]), served(100));
        assert_eq!(engine.read_staged("f001", 20, &mut buf[..80]), served(0));
        // Straddling the watermark: 50 bytes from the staging, 150 fetched.
        assert_eq!(engine.read_staged("f001", 50, &mut buf[..200]), served(150));
        assert_eq!(buf[..200], [1u8; 200]);
        assert_eq!(engine.staging_progress("f001"), Some((250, None)));
        // Beyond the frontier: the plain path's business.
        assert_eq!(engine.read_staged("f001", 300, &mut buf[..10]), None);
        let stats = engine.book.stats().snapshot();
        assert_eq!((stats.staged_reads, stats.staged_bytes), (1, 130));
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
        assert_eq!(engine.staging_progress("f001"), None);
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
        let served = |fetched| Some(StagedRead { fetched });
        // One copy queued behind the one worker: a read may start filling it.
        assert!(engine.demand("f001", 512, ReadCtx::untraced()));
        assert_eq!(engine.read_staged("f001", 0, &mut buf[..100]), served(100));
        // Two more: the backlog is now deeper than two copies per worker.
        // Reads fill no further copy — each would hold a whole file until
        // the worker got to it — but the one already started goes on.
        assert!(engine.demand("f002", 512, ReadCtx::untraced()));
        assert!(engine.demand("f003", 512, ReadCtx::untraced()));
        assert_eq!(engine.read_staged("f002", 0, &mut buf[..64]), None);
        assert_eq!(engine.read_staged("f003", 0, &mut buf[..100]), None);
        assert_eq!(
            engine.read_staged("f001", 100, &mut buf[..100]),
            served(100)
        );
        assert_eq!(engine.staging_progress("f001"), Some((200, None)));
        assert_eq!(engine.staging_progress("f002"), Some((0, None)));
        assert_eq!(engine.staging_progress("f003"), Some((0, None)));
        // The same holds for the read that announces a copy: part of a
        // file is left to the plain path, while a whole file — all its
        // copy will ever hold — is fetched in place, once.
        let ctx = ReadCtx::untraced();
        assert_eq!(
            engine.demand_read("f004", 512, 0, &mut buf[..100], ctx),
            (true, None)
        );
        assert_eq!(engine.staging_progress("f004"), Some((0, None)));
        assert_eq!(
            engine.demand_read("f005", 512, 0, &mut buf, ctx),
            (true, served(512))
        );
        assert_eq!(buf, [5u8; 512]);
        assert_eq!(engine.staging_progress("f005"), Some((512, None)));
        // Somebody else's copy holds the file: nothing is scheduled.
        assert_eq!(
            engine.demand_read("f005", 512, 0, &mut buf, ctx),
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
        assert!(engine.demand("f000", 512, ReadCtx::untraced()));
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
        assert!(engine.demand("f000", 512, ReadCtx::untraced()));
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
        assert!(engine.demand("f001", 512, ReadCtx::untraced().on_lane(Lane::Prefetch)));
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
        sampler.refresh();
        let gauge_of = |name: &str, snap: &[crate::telemetry::GaugeSnapshot]| {
            snap.iter()
                .filter(|g| g.name == name)
                .map(|g| (g.labels.clone(), g.value))
                .collect::<Vec<_>>()
        };
        let snap = engine.book.telemetry().gauges().snapshot();
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
        sampler.refresh();
        let snap = engine.book.telemetry().gauges().snapshot();
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
        let text = engine.book.telemetry().prometheus_text();
        assert!(text.contains("# TYPE monarch_tier_occupancy_bytes gauge"));
        assert!(text.contains("monarch_lane_queued{lane=\"demand\"} 0"));
    }
}
