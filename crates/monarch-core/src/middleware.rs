//! The [`Monarch`] facade: the read path.
//!
//! `Monarch` ties the metadata container and storage hierarchy to the
//! `Monarch.read` operation that replaces the framework's `pread`, and
//! hands every data-movement *intent* to the
//! [`TransferEngine`](crate::transfer::TransferEngine) — one copy pipeline
//! for demand placement, pre-staging, clairvoyant prefetch, and eviction.
//! Construction goes through [`crate::MonarchBuilder`].
//!
//! Operation flow for a read of file `X` (paper §III-B):
//!
//! 1. look `X` up in the metadata container → current tier;
//! 2. if `X` has never been considered for placement, hand a demand intent
//!    to the engine *first*: it atomically wins the `Unplaced → Copying`
//!    transition and runs the policy + full-file copy on a pool thread,
//!    flipping the metadata so subsequent reads are served locally;
//! 3. forward the read to the tier's storage driver and return the bytes —
//!    or, while a copy of `X` is in flight (the one step 2 just announced
//!    included), fetch them into or take them from that copy's install
//!    staging, so the file crosses the PFS link once.
//!
//! Failures in the background path release reserved quota and revert the
//! metadata, so a crashed copy degrades to "file stays on the PFS".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::builder::MonarchBuilder;
use crate::cluster::Cluster;
use crate::config::MonarchConfig;
use crate::hierarchy::{StorageHierarchy, Tier};
use crate::metadata::{FileId, FileInfo, MetadataContainer, PlacementState};
use crate::observe::{ReadClass, TimedRead};
use crate::prefetch::AccessPlan;
use crate::serve::MetricsServer;
use crate::stats::{Stats, StatsSnapshot};
use crate::telemetry::{EventKind, TelemetryRegistry, TelemetrySnapshot, TIMED_HIT_PERIOD};
use crate::trace::{names, FlowPhase, SpanRecord};
use crate::transfer::{ReadCtx, Sampler, StagedRead, TransferEngine};
use crate::{Error, Result};

/// Outcome of the startup namespace scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitReport {
    /// Files discovered on the PFS source tier.
    pub files: u64,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Wall-clock duration of the scan.
    pub elapsed: Duration,
}

/// How long dropping a [`Monarch`] without [`Monarch::shutdown`] waits for
/// in-flight copies before detaching the pool.
const DROP_DRAIN_WAIT: Duration = Duration::from_secs(5);

/// One pass of the read loop that produced bytes: what the namespace said,
/// which tier served, and — when the read carried the clock — the instants
/// its chain began and after the lookup, the tier resolve and the pread.
struct ReadAttempt<'a> {
    id: FileId,
    info: FileInfo,
    tier: &'a Tier,
    /// Served by a lower tier than the resident one (quarantine/fallback).
    degraded: bool,
    /// Served through the install staging of the file's in-flight copy,
    /// which has booked the bytes: what the read fetched there on the
    /// source tier, what it took from the staging as staged.
    staged: Option<StagedRead>,
    /// Flow id of the placement copy this read announced (`0`: it
    /// announced none, or is not sampled).
    flow: u64,
    /// A plain local-tier hit: served by the local tier the file lives on.
    hit: bool,
    /// How many reads this one stands for in the time records; 0 for a
    /// hit whose turn to be timed it was not.
    weight: u64,
    n: usize,
    marks: Option<[Instant; 4]>,
}

/// The MONARCH middleware instance.
pub struct Monarch {
    hierarchy: Arc<StorageHierarchy>,
    metadata: Arc<MetadataContainer>,
    stats: Arc<Stats>,
    telemetry: Arc<TelemetryRegistry>,
    engine: TransferEngine,
    full_file_fetch: bool,
    /// Distributed peer cache, when configured: a miss on a peer-owned
    /// file tries the owner's fast tier before falling back to the PFS.
    cluster: Option<Arc<Cluster>>,
    /// Shared with the engine (its drain sets it), so reads are rejected
    /// as soon as shutdown begins.
    shutting_down: Arc<AtomicBool>,
    /// What every state getter below, and the exporter, reads through.
    sampler: Sampler,
    /// The `/metrics` exporter, when one was started via
    /// [`Monarch::serve`] (or the builder's `metrics_addr`). Stopped on
    /// shutdown so its threads never outlive the instance.
    server: std::sync::Mutex<Option<MetricsServer>>,
}

impl Monarch {
    /// Build a middleware instance from a configuration, constructing the
    /// backend drivers. Equivalent to
    /// `MonarchBuilder::from_config(config)?.build()`.
    pub fn new(config: MonarchConfig) -> Result<Self> {
        MonarchBuilder::from_config(config)?.build()
    }

    /// Assemble the facade over parts the builder constructed.
    pub(crate) fn from_parts(
        hierarchy: Arc<StorageHierarchy>,
        stats: Arc<Stats>,
        telemetry: Arc<TelemetryRegistry>,
        engine: TransferEngine,
        full_file_fetch: bool,
        cluster: Option<Arc<Cluster>>,
    ) -> Self {
        Self {
            hierarchy,
            metadata: Arc::clone(engine.metadata()),
            stats,
            telemetry,
            shutting_down: engine.shutdown_flag(),
            sampler: engine.sampler(cluster.clone()),
            engine,
            full_file_fetch,
            cluster,
            server: std::sync::Mutex::new(None),
        }
    }

    /// Populate the metadata container by scanning the PFS source tier —
    /// run once at startup, before the framework issues reads.
    pub fn init(&self) -> Result<InitReport> {
        let start = Instant::now();
        let source = self.hierarchy.source();
        let mut files = 0u64;
        let mut bytes = 0u64;
        for (name, size) in source.driver.list()? {
            if self.metadata.register(&name, size, source.id) {
                files += 1;
                bytes += size;
            }
        }
        Ok(InitReport {
            files,
            bytes,
            elapsed: start.elapsed(),
        })
    }

    /// The `Monarch.read` operation: read up to `buf.len()` bytes of `file`
    /// starting at `offset`, from whichever tier currently holds it.
    /// Returns the number of bytes read (0 at end-of-file).
    pub fn read(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.read_impl(file, offset, buf, 0)
    }

    /// [`Monarch::read`] with an optional trace parent (`0` = root): the
    /// recorded `read` span is parented under the caller's span so
    /// `read_full` renders as one tree in the viewer.
    fn read_impl(&self, file: &str, offset: u64, buf: &mut [u8], parent: u64) -> Result<usize> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(Error::ShutDown);
        }
        let _handle = self.telemetry.reads_in_flight().enter();
        // What a read reports splits into counts and times. Counts are
        // taken on every read. Times — the stall profile's four buckets,
        // which sum to the read's wall time, the tier's read latency, the
        // ledger's sums, and a sampled read's span tree (read →
        // metadata_lookup → tier_resolve → driver_pread) — all come from
        // one chain of monotonic instants, and the clock is read only when
        // something will consume it: on every read that is not a plain
        // local-tier hit, and on the hits whose turn it is. A hit's turn is
        // known here; what else the read is, only after its lookup, which
        // then starts the chain itself.
        let tr = self.telemetry.trace();
        let sampled = tr.sample_read();
        let profiled = self.telemetry.is_enabled();
        let hits = profiled.then(|| self.telemetry.local_hits());
        let turn = hits.is_some_and(|h| h.load(Ordering::Relaxed) % TIMED_HIT_PERIOD == 0);
        let entry = (turn || sampled).then(Instant::now);
        // Peer cache: a miss on a peer-owned file is served node-to-node
        // from the owner's fast tier, skipping the PFS entirely when the
        // peer answers. Any peer failure falls through to the normal path.
        if let Some(cluster) = &self.cluster {
            if let Some(n) = self.engine.peer_read(cluster, file, offset, buf, entry) {
                return Ok(n);
            }
        }
        // The read's span id comes first: the placement copy the read may
        // announce on its way is parented and flow-linked to it.
        let read_id = if sampled { tr.next_id() } else { 0 };
        let Some(attempt) = self.attempt_read(file, offset, buf, entry, turn, read_id)? else {
            return Ok(0);
        };
        let ReadAttempt {
            id,
            info,
            tier,
            degraded,
            staged,
            flow,
            hit,
            weight,
            n,
            marks,
        } = attempt;
        if let (true, Some(hits)) = (hit, hits) {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        if staged.is_none() {
            self.stats.record_read(tier.id, n as u64);
        }
        if degraded {
            self.stats.degraded_read();
        }
        // A read that fetched nothing itself was served by the copy.
        let staged = staged.is_some_and(|s| s.fetched == 0);
        // Clairvoyant bookkeeping: advance the plan cursor past this file,
        // count a hit, upgrade a still-queued prefetch copy to the demand
        // lane, and release more of the plan to the prefetcher.
        let feedback = self.engine.note_read(file, info.tier);
        let marks = marks
            .map(|[entry, lookup, resolve, pread]| [entry, lookup, resolve, pread, Instant::now()]);
        if let (true, Some([entry, lookup, resolve, pread, end])) = (sampled, marks) {
            let us = |t: Instant| self.telemetry.micros_at(t);
            let tid = tr.register_current_thread();
            tr.record(
                SpanRecord::new(
                    names::METADATA_LOOKUP,
                    "read",
                    tid,
                    us(entry),
                    us(lookup) - us(entry),
                )
                .with_id(tr.next_id())
                .with_parent(read_id),
            );
            tr.record(
                SpanRecord::new(
                    names::TIER_RESOLVE,
                    "read",
                    tid,
                    us(lookup),
                    us(resolve) - us(lookup),
                )
                .with_id(tr.next_id())
                .with_parent(read_id)
                .arg_str("tier", &tier.name),
            );
            // The flow starts at the foreground pread and finishes at the
            // background copy_exec — the causal arrow in the viewer.
            let mut pread_span = SpanRecord::new(
                names::DRIVER_PREAD,
                "read",
                tid,
                us(resolve),
                us(pread) - us(resolve),
            )
            .with_id(tr.next_id())
            .with_parent(read_id)
            .arg_str("tier", &tier.name)
            .arg_u64("bytes", n as u64);
            if flow != 0 {
                pread_span = pread_span.with_flow(flow, FlowPhase::Start);
            }
            tr.record(pread_span);
            let mut read_span =
                SpanRecord::new(names::READ, "read", tid, us(entry), us(end) - us(entry))
                    .with_id(read_id)
                    .with_parent(parent)
                    .arg_str("file", file)
                    .arg_u64("offset", offset)
                    .arg_u64("bytes", n as u64);
            // Point the read back at the prefetch copy that staged (or is
            // staging) its file — the clairvoyant analogue of the
            // demand-path flow arrow.
            if feedback.flow != 0 {
                read_span = read_span.arg_u64("prefetch_flow", feedback.flow);
            }
            tr.record(read_span);
        }
        if !profiled {
            return Ok(n);
        }
        let timed = marks.filter(|_| weight > 0);
        if let Some(marks @ [entry, .., end]) = timed {
            self.stats.timed_read();
            self.telemetry.stall_profile().record_n(marks, weight);
            if degraded {
                self.telemetry.stall_profile().record_degraded(end - entry);
            }
        }
        let profiler = self.telemetry.observe().profiler();
        if profiler.is_enabled() {
            // Where did this read's time go? A read served off the source
            // tier is classified by *why* the file was still there (see
            // [`ReadClass::of`]); one that *should* have been fast but was
            // rerouted around a quarantined tier is its own bucket — the
            // cost of degraded operation.
            let class = ReadClass::of(
                degraded,
                info.tier == self.hierarchy.source_id(),
                staged,
                feedback.planned,
                matches!(info.state, PlacementState::Copying { .. }),
            );
            let timed = timed.map(|[entry, _, resolve, pread, end]| {
                let t_us = self.telemetry.micros_at(end);
                TimedRead::between([entry, resolve, pread, end], weight, t_us, info.reads)
            });
            profiler.record_read_id(
                id,
                info.tier,
                n as u64,
                class,
                feedback.prefetch_hit,
                timed.as_ref(),
            );
        }
        Ok(n)
    }

    /// The lookup → tier-resolve → pread loop of one read: `Ok(None)` at
    /// end-of-file, otherwise the pass that produced bytes. `entry` is
    /// when the read's clock chain began, if it has; a pass that turns out
    /// not to be a plain local hit begins it there and then (its lookup is
    /// booked as free). `turn` says that, should the read be a plain local
    /// hit, it is one that is timed. The namespace counts the read, and the
    /// eviction policy hears of it, once, however many passes it takes.
    /// `read_id` is the read's span id when it is sampled (`0` otherwise).
    ///
    /// A pass that finds the file `Unplaced` announces its placement copy
    /// *before* reading — with the full-file-fetch optimisation disabled,
    /// only when the read covers the whole file (the §IV-A ablation) — and
    /// is then served as the first fetch into that copy's staging: its
    /// bytes are the copy's first bytes, and the worker places, evicts and
    /// reserves while they are on the link.
    ///
    /// Residency can change between the lookup and the pread (an LRU
    /// eviction may delete the cache-tier copy we just resolved). A
    /// vanished file is retried against fresh metadata, which by then
    /// points back at the source tier.
    ///
    /// Fault tolerance rides on the same loop: transient device errors
    /// are retried in place with backoff, sustained failure quarantines
    /// the tier and the read falls back down-hierarchy to the PFS
    /// source (graceful degradation — never an error while the source
    /// is healthy), and a read arriving after the quarantine cooldown
    /// may win the half-open probe slot and test the tier directly.
    fn attempt_read(
        &self,
        file: &str,
        offset: u64,
        buf: &mut [u8],
        mut entry: Option<Instant>,
        turn: bool,
        read_id: u64,
    ) -> Result<Option<ReadAttempt<'_>>> {
        let health = self.hierarchy.health();
        let source_id = self.hierarchy.source_id();
        let profiled = self.telemetry.is_enabled();
        let mut attempts = 0u32;
        // Once a pread on the resident tier has failed terminally, every
        // later iteration serves from the PFS source instead.
        let mut fallback = false;
        // One announce a read: a copy that admission refused is not asked
        // for again by the passes that follow.
        let mut announce = true;
        let mut flow = 0u64;
        let (id, first) = self.metadata.resolve_for_read(file)?;
        self.engine.note_access(file, id, first.tier);
        let mut first = Some(first);
        loop {
            let info = first.take().unwrap_or_else(|| self.metadata.info(id));
            let t_lookup = entry.map(|_| Instant::now());
            if offset >= info.size {
                return Ok(None);
            }
            let resident = self.hierarchy.tier(info.tier)?;
            // Pick the serving tier: normally the resident one; the PFS
            // source when the resident tier is quarantined or already
            // failed this read — unless this read wins the probe slot.
            let mut probing = false;
            let tier = if info.tier != source_id
                && (fallback || health.tier(info.tier).is_quarantined())
            {
                if !fallback && health.tier(info.tier).probe_permit(health.now_us()) {
                    probing = true;
                    resident
                } else {
                    self.hierarchy.tier(source_id)?
                }
            } else {
                resident
            };
            let degraded = tier.id != info.tier;
            let hit = tier.id != source_id && !probing;
            let weight = match (hit, turn) {
                (true, true) => TIMED_HIT_PERIOD,
                (true, false) => 0,
                (false, _) => u64::from(profiled),
            };
            let (t_lookup, t_resolve) = match t_lookup {
                Some(_) => (t_lookup, Some(Instant::now())),
                None if weight > 0 => {
                    entry = Some(Instant::now());
                    (entry, entry)
                }
                None => (None, None),
            };
            let want = buf.len().min((info.size - offset) as usize);
            // A file whose copy is in flight — or starts here — is read
            // through that copy's install staging when it covers the range,
            // so the bytes cross the PFS link once. Whatever the read waits
            // there falls between the same two instants as a pread.
            let staged = match info.state {
                PlacementState::Copying { .. } => {
                    match self.engine.read_staged(file, offset, &mut buf[..want]) {
                        // The copy settled since the lookup above and took
                        // its staging along: look again before reading the
                        // source for bytes that just landed on a tier.
                        None if self.metadata.info(id).state != info.state => continue,
                        staged => staged,
                    }
                }
                PlacementState::Unplaced
                    if announce && (self.full_file_fetch || want as u64 == info.size) =>
                {
                    announce = false;
                    let tr = self.telemetry.trace();
                    let candidate = if read_id != 0 { tr.next_id() } else { 0 };
                    let ctx = ReadCtx::traced(read_id, candidate);
                    match self
                        .engine
                        .demand_read(file, info.size, offset, &mut buf[..want], ctx)
                    {
                        (true, staged) => {
                            flow = candidate;
                            staged
                        }
                        // Somebody else's copy got there first: look again,
                        // and read through its staging.
                        (false, _) if self.metadata.info(id).state != info.state => continue,
                        (false, _) => None,
                    }
                }
                _ => None,
            };
            // The un-instrumented driver: the two instants around this
            // call feed the tier's read-latency histogram here and the
            // stall profile's driver_pread bucket later. Failed preads
            // are timed too. (A fetch made inside the staging went through
            // the instrumented driver, which is its histogram sample.) A
            // local copy that ends before the namespace size is damaged —
            // truncated underneath, say — and is not served short: it is a
            // permanent error, and the read falls back to the source.
            let outcome = match staged {
                Some(_) => Ok(want),
                None => match tier.raw.read_at(file, offset, &mut buf[..want]) {
                    Ok(n) if n < want && tier.id != source_id => {
                        Err(Error::Io(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("{file}: local copy ends {n} bytes into a {want}-byte read"),
                        )))
                    }
                    read => read,
                },
            };
            let t_pread = t_resolve.map(|_| Instant::now());
            if let (true, None, Some(start), Some(done)) = (weight > 0, staged, t_resolve, t_pread)
            {
                self.telemetry
                    .read_latency(tier.id)
                    .record_duration_n(done - start, weight);
            }
            let e = match outcome {
                Ok(n) => {
                    if probing {
                        health
                            .tier(tier.id)
                            .probe_result(true, &health.config(), health.now_us());
                        self.stats.tier_recovery();
                        self.telemetry.event(EventKind::TierProbed {
                            tier: tier.id,
                            ok: true,
                        });
                        self.telemetry
                            .event(EventKind::TierRecovered { tier: tier.id });
                    } else if !degraded && staged.is_none() {
                        health.record_success(tier.id);
                    }
                    return Ok(Some(ReadAttempt {
                        id,
                        info,
                        tier,
                        degraded,
                        staged,
                        flow,
                        hit,
                        weight,
                        n,
                        marks: entry.zip(t_lookup).zip(t_resolve).zip(t_pread).map(
                            |(((entry, lookup), resolve), pread)| [entry, lookup, resolve, pread],
                        ),
                    }));
                }
                Err(e) => e,
            };
            if probing {
                // Failed probe: re-arm the cooldown and serve this
                // read from the source on the next iteration.
                health
                    .tier(tier.id)
                    .probe_result(false, &health.config(), health.now_us());
                self.telemetry.event(EventKind::TierProbed {
                    tier: tier.id,
                    ok: false,
                });
                continue;
            }
            let retry = health.retry_policy();
            let vanished = match &e {
                Error::UnknownFile(_) => true,
                Error::Io(io) => io.kind() == std::io::ErrorKind::NotFound,
                _ => false,
            };
            if vanished && tier.id != source_id && attempts < retry.max_attempts {
                // The local copy this pass resolved was evicted under it
                // (the namespace moves on before the copy is deleted): go
                // round against fresh metadata. It says nothing about the
                // device, so it is not charged to the tier's health.
                attempts += 1;
                continue;
            }
            let Some(class) = crate::health::device_error_class(&e) else {
                // Logic errors (unknown file, shutdown, injected
                // test faults) propagate untouched.
                return Err(e);
            };
            let (_, quarantined_now) = health.record_error(tier.id, class);
            if quarantined_now {
                self.stats.tier_quarantine();
                self.telemetry.event(EventKind::TierQuarantined {
                    tier: tier.id,
                    reason: format!("read failed: {e}"),
                });
            }
            if class == crate::health::ErrorClass::Transient && attempts < retry.max_attempts {
                attempts += 1;
                // A missing file retries immediately, as it always has;
                // real device hiccups back off first.
                if !vanished {
                    self.stats.read_retry();
                    std::thread::sleep(Duration::from_micros(
                        retry.backoff_us(attempts, offset ^ file.len() as u64),
                    ));
                }
                continue;
            }
            if tier.id != source_id {
                // Out of retries (or permanent): degrade to the
                // PFS source instead of failing the read.
                fallback = true;
                continue;
            }
            return Err(e);
        }
    }

    /// Read the entire file through the middleware.
    pub fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let info = self
            .metadata
            .get(file)
            .ok_or_else(|| Error::UnknownFile(file.into()))?;
        let tr = self.telemetry.trace();
        let traced = tr.is_enabled();
        let t0 = if traced {
            self.telemetry.now_micros()
        } else {
            0
        };
        let id = if traced { tr.next_id() } else { 0 };
        let mut buf = vec![0u8; info.size as usize];
        let n = self.read_impl(file, 0, &mut buf, id)?;
        buf.truncate(n);
        if traced {
            let tid = tr.register_current_thread();
            tr.record(
                SpanRecord::new(
                    names::READ_FULL,
                    "read",
                    tid,
                    t0,
                    self.telemetry.now_micros() - t0,
                )
                .with_id(id)
                .arg_str("file", file)
                .arg_u64("bytes", n as u64),
            );
        }
        Ok(buf)
    }

    /// Size of `file` per the namespace.
    pub fn file_size(&self, file: &str) -> Result<u64> {
        self.metadata
            .get(file)
            .map(|i| i.size)
            .ok_or_else(|| Error::UnknownFile(file.into()))
    }

    /// Block until all scheduled background copies have finished.
    pub fn wait_placement_idle(&self) {
        self.engine.wait_idle();
    }

    /// Pre-stage the dataset: schedule placement for every file that has
    /// not been considered yet, without waiting for the framework to
    /// request it. This is the paper's placement option (i) — "training
    /// files are read from the PFS and placed in the corresponding storage
    /// levels before executing the training phase" (§III-A). MONARCH's
    /// default is option (ii), on-demand placement during the first epoch;
    /// pre-staging trades job start-up delay for a fully warm first epoch.
    ///
    /// Returns the number of placements scheduled. Call
    /// [`Self::wait_placement_idle`] to block until staging completes.
    pub fn prestage(&self) -> usize {
        let tr = self.telemetry.trace();
        let traced = tr.is_enabled();
        let t0 = if traced {
            self.telemetry.now_micros()
        } else {
            0
        };
        let prestage_id = if traced { tr.next_id() } else { 0 };
        let mut unplaced = Vec::new();
        self.metadata.for_each(|name, info| {
            if info.state == PlacementState::Unplaced {
                unplaced.push((name.to_string(), info.size));
            }
        });
        let mut scheduled = 0;
        for (name, size) in unplaced {
            if self.shutting_down.load(Ordering::Acquire) {
                break;
            }
            // Same dedup CAS as the read path; racing readers lose or win
            // harmlessly. Each staged copy gets its own flow, started on
            // the copy_scheduled span (no foreground pread exists here).
            let flow = if traced { tr.next_id() } else { 0 };
            if self
                .engine
                .demand(&name, size, ReadCtx::staged(prestage_id, flow))
            {
                scheduled += 1;
            }
        }
        if traced {
            let tid = tr.register_current_thread();
            tr.record(
                SpanRecord::new(
                    names::PRESTAGE,
                    "read",
                    tid,
                    t0,
                    self.telemetry.now_micros() - t0,
                )
                .with_id(prestage_id)
                .arg_u64("scheduled", scheduled as u64),
            );
        }
        scheduled
    }

    /// Submit the access plan for the upcoming epoch — the ordered file
    /// sequence of the framework's (seeded) shuffle. The engine stages
    /// plan entries ahead of the foreground read cursor, at most
    /// `prefetch_lookahead` positions ahead and within the in-flight byte
    /// budget, on the pool's low-priority prefetch lane.
    ///
    /// A previously submitted plan is canceled first (queued prefetch
    /// copies are withdrawn; running ones finish). Names missing from the
    /// metadata namespace are dropped. Returns the number of admitted
    /// (known, deduplicated) entries — `0` when prefetching is disabled
    /// (`prefetch_lookahead == 0`), in which case this is a no-op.
    pub fn submit_plan(&self, plan: &AccessPlan) -> usize {
        self.engine.plan(plan)
    }

    /// Cancel the current access plan: withdraw queued-but-unstarted
    /// prefetch copies (their metadata reverts to `Unplaced`) and close the
    /// window. Returns the number of withdrawn copies. Running copies are
    /// not interrupted.
    pub fn cancel_prefetch_plan(&self) -> usize {
        self.engine.cancel_plan()
    }

    /// Evict `file` from its local tier back to the PFS source, freeing
    /// its quota. Returns `Ok(false)` when the file is not locally
    /// resident (still on the source, or a copy is in flight). The file
    /// reverts to `Unplaced`, so a later read may place it again.
    pub fn evict(&self, file: &str) -> Result<bool> {
        self.engine.evict(file)
    }

    /// Current statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Composed name (`admission/eviction/scorer`) of the policy engine
    /// driving tier decisions.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.engine.policy_name()
    }

    /// The telemetry registry (histograms, journal, stats).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.telemetry
    }

    /// The instance's one state document — counters, histograms, freshly
    /// sampled gauges, and the health / policy / cluster sections (see
    /// [`TelemetrySnapshot`]).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.sampler.snapshot()
    }

    /// The peer-cache handle, when a cluster is configured.
    #[must_use]
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.cluster.as_ref()
    }

    /// Prometheus-style text exposition of the registry, with gauges
    /// re-sampled from live state first.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.sampler.metrics_text()
    }

    /// A detached view of this instance's state: what the getters above
    /// read through, and what the exporter serves from.
    #[must_use]
    pub fn sampler(&self) -> Sampler {
        self.sampler.clone()
    }

    /// The shutdown flag shared with the engine.
    #[cfg(test)]
    pub(crate) fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutting_down)
    }

    /// The server slot ([`Monarch::serve`] installs into it; `shutdown`
    /// stops whatever is in it).
    pub(crate) fn server_slot(&self) -> &std::sync::Mutex<Option<MetricsServer>> {
        &self.server
    }

    /// Buffered journal events as JSON lines (non-destructive).
    #[must_use]
    pub fn events_json(&self) -> String {
        self.telemetry.events_json()
    }

    /// Chrome Trace Event / Perfetto JSON for the recorded span trees
    /// (non-destructive; `{"traceEvents": []}` shell when tracing is off).
    /// Load the output in `ui.perfetto.dev` or `chrome://tracing`.
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.telemetry.trace().export_chrome_json()
    }

    /// The metadata container (read-mostly introspection).
    #[must_use]
    pub fn metadata(&self) -> &MetadataContainer {
        &self.metadata
    }

    /// The storage hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &StorageHierarchy {
        &self.hierarchy
    }

    /// Number of background copy threads.
    #[must_use]
    pub fn pool_threads(&self) -> usize {
        self.engine.threads()
    }

    /// Stop accepting reads, cancel queued prefetches *before* joining the
    /// workers, drain in-flight copies, and join the pool. Worker threads
    /// that died outside the per-task panic catch are counted in the
    /// returned snapshot (`pool_join_failures`) and journaled, instead of
    /// being silently discarded.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop(None);
        self.stats.snapshot()
    }

    /// Drain the engine (waiting at most `wait` for in-flight copies, when
    /// given), then stop the exporter and the peer server — peers still
    /// fetching degrade to their PFS. The shutdown flag flips first, so a
    /// scrape racing the drain sees `draining` on /healthz.
    fn stop(&mut self, wait: Option<Duration>) {
        self.engine.drain_within(wait);
        if let Some(server) = self
            .server
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            server.stop();
        }
        if let Some(cluster) = &self.cluster {
            cluster.stop_server();
        }
    }
}

/// Dropping an instance without [`Monarch::shutdown`] still drains it: no
/// background copy keeps writing into a tier directory (and no exporter
/// thread keeps serving) after the owner is gone. The wait for in-flight
/// copies is bounded (`DROP_DRAIN_WAIT`, 5 s); past it the pool is detached.
impl Drop for Monarch {
    fn drop(&mut self) {
        if !self.shutting_down.load(Ordering::Acquire) {
            self.stop(Some(DROP_DRAIN_WAIT));
        }
    }
}

impl std::fmt::Debug for Monarch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monarch")
            .field("levels", &self.hierarchy.levels())
            .field("files", &self.metadata.len())
            .field("policy", &self.engine.policy_name())
            .finish()
    }
}

#[cfg(test)]
#[path = "middleware_tests.rs"]
mod tests;
