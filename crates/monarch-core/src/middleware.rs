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
use crate::health::{device_error_class, ErrorClass, Gate};
use crate::hierarchy::StorageHierarchy;
use crate::lifecycle::{ReadTrace, Served, ServedRead};
use crate::locks;
use crate::metadata::{MetadataContainer, Placement, PlacementState};
use crate::prefetch::AccessPlan;
use crate::serve::MetricsServer;
use crate::stats::StatsSnapshot;
use crate::telemetry::{TelemetryRegistry, TelemetrySnapshot, TIMED_HIT_PERIOD};
use crate::trace::{names, SpanRecord};
use crate::transfer::{ReadCtx, Sampler, TransferEngine};
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

/// The MONARCH middleware instance.
pub struct Monarch {
    hierarchy: Arc<StorageHierarchy>,
    metadata: Arc<MetadataContainer>,
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
        telemetry: Arc<TelemetryRegistry>,
        engine: TransferEngine,
        full_file_fetch: bool,
        cluster: Option<Arc<Cluster>>,
    ) -> Self {
        Self {
            hierarchy,
            metadata: Arc::clone(engine.metadata()),
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
        self.read_impl(file, offset, |_| buf, 0)
    }

    /// [`Monarch::read`] into the buffer `buf` hands out once the lookup
    /// has the file's size, with an optional trace parent (`0` = root): the
    /// recorded `read` span is parented under the caller's span so
    /// `read_full` renders as one tree in the viewer.
    ///
    /// A plain local hit — a file `Placed` on a local tier whose health
    /// gate is open, read neither sampled nor on its thread's timing turn —
    /// is one straight pass: the lookup, the gate's relaxed load, the
    /// policy's access note, the tier's `read_at` and one booking. Every
    /// other read leaves the pass where it diverges and goes round the same
    /// loop with what the pass resolved. The namespace counts the read, and
    /// the eviction policy hears of it, once, however many passes it takes.
    ///
    /// A pass that finds the file `Unplaced` first asks the file's owner
    /// node, on a cluster, and is served node-to-node when the peer
    /// answers. Otherwise it announces the file's placement copy *before*
    /// reading — with the full-file-fetch optimisation disabled, only when
    /// the read covers the whole file (the §IV-A ablation) — and is then
    /// served as the first fetch into that copy's staging: its bytes are
    /// the copy's first bytes, and the worker places, evicts and reserves
    /// while they are on the link.
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
    fn read_impl<'b>(
        &self,
        file: &str,
        offset: u64,
        buf: impl FnOnce(u64) -> &'b mut [u8],
        parent: u64,
    ) -> Result<usize> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(Error::ShutDown);
        }
        let reading = self.telemetry.stats().enter_read();
        // What a read reports splits into counts and times. Counts are
        // taken on every read. Times — the stall profile's four buckets,
        // which sum to the read's wall time, the tier's read latency, the
        // ledger's sums, and a sampled read's span tree (read →
        // metadata_lookup → tier_resolve → driver_pread) — all come from
        // one chain of instants: when the read began, had looked its file
        // up, had its serving tier and had its bytes. The clock is read
        // only when something will consume it: on every read that is not a
        // plain local-tier hit, and on the hits whose turn it is. A hit's
        // turn is known here, from the plain local hits this thread's tally
        // holds; what else the read is, only after its lookup, which then
        // starts the chain itself (its lookup booked as free).
        let tr = self.telemetry.trace();
        let sampled = tr.sample_read();
        let profiled = self.telemetry.is_enabled();
        let turn = profiled && reading.local_hits().is_multiple_of(TIMED_HIT_PERIOD);
        let mut clock = (turn || sampled).then(|| [Instant::now(); 4]);
        let stamp = |clock: &mut Option<[Instant; 4]>, at: usize| {
            if let Some(marks) = clock {
                marks[at] = Instant::now();
            }
        };
        // The read's span id comes first: the placement copy the read may
        // announce on its way is parented and flow-linked to it.
        let read_id = if sampled { tr.next_id() } else { 0 };
        let (id, mut info, count) = self.metadata.resolve_for_read(file)?;
        self.engine.note_access(id, info.tier);
        let buf = buf(info.size);
        let look_again = || {
            self.metadata
                .placement(id)
                .ok_or_else(|| Error::UnknownFile(file.into()))
        };
        let (source, health) = (self.hierarchy.source_id(), self.hierarchy.health());
        let (book, now) = (self.engine.book(), || self.telemetry.now_micros());
        // Retries spent; the resident tier failed this read terminally (so
        // the source serves it); its one announce (a peer that failed, or
        // a copy admission refused, is not asked again); and the flow id
        // of the copy it announced (`0`: none, or not sampled).
        let (mut attempts, mut fallback, mut announce, mut flow) = (0, false, true, 0);
        let (tier, how, n, weight) = loop {
            stamp(&mut clock, 1);
            if offset >= info.size {
                return Ok(0);
            }
            let want = buf.len().min((info.size - offset) as usize);
            // Pick the serving tier: normally the resident one; the PFS
            // source when the resident tier's gate is shut or the tier
            // already failed this read. The source has no gate, and a tier
            // that never erred is open on one relaxed load.
            let clean = health.tier(info.tier).clean();
            let gate = match (info.tier == source, fallback) {
                (true, _) => Gate::Open,
                (false, true) => Gate::Shut,
                (false, false) if clean => Gate::Open,
                (false, false) => health.tier(info.tier).gate(now),
            };
            let tier = self.hierarchy.tier(match gate {
                Gate::Shut => source,
                _ => info.tier,
            })?;
            let probing = gate == Gate::Probe;
            let weight = match (tier.id != source && !probing, turn) {
                (true, true) => TIMED_HIT_PERIOD,
                (true, false) => 0,
                (false, _) => u64::from(profiled),
            };
            match clock.as_mut() {
                Some(marks) => marks[2] = Instant::now(),
                None if weight > 0 => clock = Some([Instant::now(); 4]),
                None => {}
            }
            // A file whose copy is in flight — or starts here — is read
            // through that copy's install staging when it covers the range,
            // so the bytes cross the PFS link once. A wait there, or for a
            // peer, falls between the same two instants as a pread.
            let moved = || {
                self.metadata
                    .placement(id)
                    .is_some_and(|now| now.state != info.state)
            };
            let served = match info.state {
                PlacementState::Placed => None,
                PlacementState::Copying { .. } => {
                    match self.engine.read_staged(id, offset, &mut buf[..want]) {
                        // The copy settled since the lookup above and took
                        // its staging along: look again before reading the
                        // source for bytes that just landed on a tier.
                        None if moved() => {
                            info = look_again()?;
                            continue;
                        }
                        staged => staged.map(|fetched| (Served::Staged { fetched }, want)),
                    }
                }
                PlacementState::Unplaced if announce => {
                    announce = false;
                    let peer = self.cluster.as_ref().and_then(|cluster| {
                        self.engine.peer_read(cluster, id, offset, &mut buf[..want])
                    });
                    match peer {
                        Some(n) => Some((Served::Peer, n)),
                        None if self.full_file_fetch || want as u64 == info.size => {
                            let candidate = if sampled { tr.next_id() } else { 0 };
                            let ctx = ReadCtx::traced(read_id, candidate);
                            let buf = &mut buf[..want];
                            match self.engine.demand_read(id, info.size, offset, buf, ctx) {
                                (true, staged) => {
                                    flow = candidate;
                                    staged.map(|fetched| (Served::Staged { fetched }, want))
                                }
                                // Somebody else's copy got there first: look
                                // again, and read through its staging.
                                (false, _) if moved() => {
                                    info = look_again()?;
                                    continue;
                                }
                                (false, _) => None,
                            }
                        }
                        None => None,
                    }
                }
                PlacementState::Unplaced => None,
            };
            // The tier's one driver: the two instants around this call are
            // the tier's read-latency sample and the stall profile's
            // driver_pread phase. (A fetch made inside the staging is its own
            // sample, booked by `Lifecycle::fetch`.) A local copy that ends
            // before the namespace size is damaged — truncated underneath,
            // say — and is not served short: it is a permanent error, and
            // the read falls back to the source.
            let outcome = match served {
                Some((_, n)) => Ok(n),
                None => match tier.driver.read_at(file, offset, &mut buf[..want]) {
                    Ok(n) if n < want && tier.id != source => Err(Error::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{file}: local copy ends {n} bytes into a {want}-byte read"),
                    ))),
                    read => read,
                },
            };
            stamp(&mut clock, 3);
            let e = match outcome {
                Ok(n) => {
                    // A success through the open gate of a tier that never
                    // erred settles nothing.
                    if !(clean && gate == Gate::Open) {
                        book.tier_settled(now, tier.id, gate, Ok(()));
                    }
                    if probing && served.is_none() {
                        reading.probed();
                    }
                    break (
                        tier.id,
                        served.map_or(Served::Tier, |(how, _)| how),
                        n,
                        weight,
                    );
                }
                Err(e) => e,
            };
            if let (true, Some([.., resolve, pread])) = (weight > 0, clock) {
                // A failed pread is timed too: its tier's latency shows it.
                self.telemetry
                    .read_latency(tier.id)
                    .record_duration_n(pread - resolve, weight);
            }
            info = look_again()?;
            if probing {
                // Failed probe: the cooldown re-arms, and the next pass
                // finds the gate shut and serves this read from the source.
                book.tier_settled(now, tier.id, gate, Err(&e));
                continue;
            }
            let retry = health.retry_policy();
            let vanished = match &e {
                Error::UnknownFile(_) => true,
                Error::Io(io) => io.kind() == std::io::ErrorKind::NotFound,
                _ => false,
            };
            if vanished && tier.id != source && attempts < retry.max_attempts {
                // The local copy this pass resolved was evicted under it
                // (the namespace moves on before the copy is deleted): go
                // round against fresh metadata. It says nothing about the
                // device, so it is not charged to the tier's health.
                attempts += 1;
                continue;
            }
            let Some(class) = device_error_class(&e) else {
                // Logic errors (unknown file, shutdown, injected
                // test faults) propagate untouched.
                return Err(e);
            };
            book.tier_settled(now, tier.id, gate, Err(&e));
            if class == ErrorClass::Transient && attempts < retry.max_attempts {
                attempts += 1;
                // A missing file retries immediately, as it always has;
                // real device hiccups back off first.
                if !vanished {
                    self.telemetry.stats().read_retry();
                    std::thread::sleep(Duration::from_micros(
                        retry.backoff_us(attempts, offset ^ file.len() as u64),
                    ));
                }
                continue;
            }
            if tier.id == source {
                return Err(e);
            }
            // Out of retries (or permanent): degrade to the PFS source
            // instead of failing the read.
            fallback = true;
        };
        // Clairvoyant bookkeeping: advance the plan cursor past this file,
        // upgrade a still-queued prefetch copy to the demand lane, and
        // release more of the plan to the prefetcher; the booking below
        // counts the hit, through the tally the read entered and the count
        // its lookup took.
        let plan = self.engine.note_read(id);
        let read = ServedRead {
            id,
            offset,
            bytes: n as u64,
            home: info.tier,
            copying: matches!(info.state, PlacementState::Copying { .. }),
            tier,
            how,
            plan,
            weight,
            trace: sampled.then(|| ReadTrace {
                id: read_id,
                parent,
                track: tr.register_current_thread(),
                flow,
            }),
            marks: clock.map(|[entry, lookup, resolve, pread]| {
                [entry, lookup, resolve, pread, Instant::now()].map(|t| self.telemetry.nanos_at(t))
            }),
        };
        book.read_served_by(&read, reading.tally(), &count);
        Ok(n)
    }

    /// Read the entire file through the middleware, into a buffer sized
    /// by the read's own lookup.
    pub fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let tr = self.telemetry.trace();
        let traced = tr.is_enabled();
        let t0 = traced.then(|| self.telemetry.now_micros());
        let id = if traced { tr.next_id() } else { 0 };
        let mut buf = Vec::new();
        let whole = &mut buf;
        let n = self.read_impl(
            file,
            0,
            move |size| {
                *whole = vec![0; size as usize];
                whole.as_mut_slice()
            },
            id,
        )?;
        buf.truncate(n);
        if let Some(t0) = t0 {
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
        let id = self.metadata.resolve(file);
        id.and_then(|id| self.metadata.placement(id))
            .map(|p| p.size)
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
        let t0 = traced.then(|| self.telemetry.now_micros());
        let prestage_id = if traced { tr.next_id() } else { 0 };
        let mut scheduled = 0;
        for id in self.metadata.ids() {
            if self.shutting_down.load(Ordering::Acquire) {
                break;
            }
            // A name interned outside the namespace is no file to stage.
            let unplaced = |info: Placement| info.state == PlacementState::Unplaced;
            if !self.metadata.placement(id).is_some_and(unplaced) {
                continue;
            }
            // Same dedup CAS as the read path; racing readers lose or win
            // harmlessly. Each staged copy gets its own flow, started on the
            // copy_scheduled span (no foreground pread exists here).
            let flow = if traced { tr.next_id() } else { 0 };
            if self.engine.demand(id, ReadCtx::staged(prestage_id, flow)) {
                scheduled += 1;
            }
        }
        if let Some(t0) = t0 {
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
        self.telemetry.stats().snapshot()
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

    /// Prometheus-style text exposition of
    /// [`Self::telemetry_snapshot`]'s document.
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
        self.telemetry.journal().json_lines()
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
        self.telemetry.stats().snapshot()
    }

    /// Drain the engine (waiting at most `wait` for in-flight copies, when
    /// given), then stop the exporter and the peer server — peers still
    /// fetching degrade to their PFS. The shutdown flag flips first, so a
    /// scrape racing the drain sees `draining` on /healthz.
    fn stop(&mut self, wait: Option<Duration>) {
        self.engine.drain_within(wait);
        if let Some(server) = locks::lock(&self.server).take() {
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
