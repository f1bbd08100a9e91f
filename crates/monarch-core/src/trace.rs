//! Causal request tracing: span trees from foreground reads to the
//! background copies they spawn, exported as Chrome Trace Event /
//! Perfetto JSON.
//!
//! The paper's core mechanism is a *causal chain*: a first read on the
//! PFS schedules a full-file background copy whose completion flips
//! later reads to the fast tier. Aggregate histograms (PR 1) cannot show
//! which read triggered which copy or where a slow read spent its time,
//! so this module records a span tree per sampled [`crate::Monarch::read`]
//!
//! ```text
//! read ─┬─ metadata_lookup
//!       ├─ tier_resolve
//!       ├─ driver_pread
//!       └─ copy_scheduled ··(flow id)··> queue_wait → copy_exec
//!                                          ├─ placement_decide
//!                                          ├─ copy_read / copy_write
//!                                          └─ metadata_register
//! ```
//!
//! and links the foreground tree to the background pipeline with a
//! Chrome *flow* (`ph:"s"` / `ph:"f"`) carrying the same id.
//!
//! # Design
//!
//! * **No new dependencies** — `std` only; JSON is emitted by hand with
//!   the same escaper the event journal uses.
//! * **Low overhead** — span ids come from one atomic counter; finished
//!   spans go to one of [`SHARDS`] mutex-protected per-shard buffers
//!   (picked by track id, so threads rarely contend) and are flushed in
//!   batches to a bounded global ring that drops the *oldest* spans
//!   first, like the event journal.
//! * **Zero-cost when off** — the default `trace_sample_every_n = 0`
//!   leaves [`TraceRecorder::sample_read`] as a single branch on an
//!   immutable `bool`; no atomics touched, no allocation, as with the
//!   latency histograms, which a disabled registry never records into.
//! * **Explicit timestamps** — callers supply microsecond timestamps, so
//!   the real middleware records spans on the instance clock (via
//!   [`crate::telemetry::TelemetryRegistry::clock`]) while the
//!   discrete-event simulator records *virtual-time* spans with the same
//!   shape; both exports load in Perfetto identically.
//!
//! Timestamps are microseconds since the instance clock's origin, which
//! is exactly the `ts` unit the Chrome Trace Event format wants.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::locks;
use crate::stripe::Striped;
use crate::telemetry::push_json_str;

/// Span names used by the middleware and the simulator. Kept as
/// constants so tests and exporters agree on spelling.
pub mod names {
    /// Foreground read root span.
    pub const READ: &str = "read";
    /// Whole-file read convenience wrapper.
    pub const READ_FULL: &str = "read_full";
    /// Namespace prestage root span (one per scheduled file).
    pub const PRESTAGE: &str = "prestage";
    /// Metadata container lookup inside a read.
    pub const METADATA_LOOKUP: &str = "metadata_lookup";
    /// Residency-to-tier resolution inside a read.
    pub const TIER_RESOLVE: &str = "tier_resolve";
    /// The tier driver `read_at` call serving the foreground read.
    pub const DRIVER_PREAD: &str = "driver_pread";
    /// Background copy admitted to the pool (carries the flow start).
    pub const COPY_SCHEDULED: &str = "copy_scheduled";
    /// Time a copy task spent queued before a worker picked it up.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Whole background copy execution on a pool worker (flow finish).
    pub const COPY_EXEC: &str = "copy_exec";
    /// Placement-policy decision inside a copy.
    pub const PLACEMENT_DECIDE: &str = "placement_decide";
    /// Source-tier read(s) of the file body inside a copy.
    pub const COPY_READ: &str = "copy_read";
    /// Destination-tier write of the file body inside a copy.
    pub const COPY_WRITE: &str = "copy_write";
    /// Residency registration that completes a copy.
    pub const METADATA_REGISTER: &str = "metadata_register";
    /// Access-plan submission root span (one per `submit_plan` call).
    pub const PLAN_SUBMIT: &str = "plan_submit";
    /// Prefetch copy admitted to the pool's prefetch lane (carries the
    /// flow start; the serving read references the same flow id in its
    /// `prefetch_flow` arg).
    pub const PREFETCH_SCHEDULED: &str = "prefetch_scheduled";
}

/// Reserved track id for queue-wait spans. Queue waits start at submit
/// time — before any worker owns the task — so they get their own track
/// instead of overlapping a worker's previous slice.
pub const QUEUE_TRACK: u64 = 2;
/// First track id handed out to real threads / synthetic sim tracks,
/// leaving low ids free for reserved tracks like [`QUEUE_TRACK`].
const FIRST_DYNAMIC_TID: u64 = 16;
/// Spans buffered per shard before a batch flush into the global ring.
const FLUSH_AT: usize = 64;
/// Shard count for the per-thread buffers (power of two).
const SHARDS: usize = 16;

static NEXT_TID: AtomicU64 = AtomicU64::new(FIRST_DYNAMIC_TID);

thread_local! {
    static CUR_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide stable track id for the calling thread, assigned on
/// first use. Shared across recorders so a thread keeps one identity.
#[must_use]
pub fn current_tid() -> u64 {
    CUR_TID.with(|t| *t)
}

/// A span attribute value (rendered into the Chrome `args` object).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// A string attribute.
    Str(String),
    /// An unsigned integer attribute.
    U64(u64),
}

/// Whether a span starts, finishes, or does not participate in a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowPhase {
    /// Not part of a flow (the `flow` id is still rendered as an arg if
    /// non-zero, for grep-ability).
    #[default]
    None,
    /// This span emits the flow start (`ph:"s"`).
    Start,
    /// This span emits the flow finish (`ph:"f", bp:"e"`).
    Finish,
}

/// One finished span. Timestamps are microseconds since the owning
/// registry's origin (wall-clock for the middleware, virtual time for
/// the simulator).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (one of [`names`], by convention).
    pub name: &'static str,
    /// Chrome category (groups spans in the Perfetto UI).
    pub cat: &'static str,
    /// Track (thread) id the span renders on.
    pub tid: u64,
    /// Start, microseconds since the registry origin.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Unique span id (0 = unassigned).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Flow id linking a read tree to the copy it spawned (0 = none).
    pub flow: u64,
    /// This span's role in the flow, if any.
    pub flow_phase: FlowPhase,
    /// Extra attributes rendered into the Chrome `args` object.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanRecord {
    /// A span with the given identity and timing, no parent and no flow.
    #[must_use]
    pub fn new(name: &'static str, cat: &'static str, tid: u64, ts_us: u64, dur_us: u64) -> Self {
        Self {
            name,
            cat,
            tid,
            ts_us,
            dur_us,
            id: 0,
            parent: 0,
            flow: 0,
            flow_phase: FlowPhase::None,
            args: Vec::new(),
        }
    }

    /// Set the span id.
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Set the parent span id.
    #[must_use]
    pub fn with_parent(mut self, parent: u64) -> Self {
        self.parent = parent;
        self
    }

    /// Attach a flow id and this span's role in it.
    #[must_use]
    pub fn with_flow(mut self, flow: u64, phase: FlowPhase) -> Self {
        self.flow = flow;
        self.flow_phase = phase;
        self
    }

    /// Attach a string attribute.
    #[must_use]
    pub fn arg_str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.args.push((key, ArgValue::Str(value.into())));
        self
    }

    /// Attach an integer attribute.
    #[must_use]
    pub fn arg_u64(mut self, key: &'static str, value: u64) -> Self {
        self.args.push((key, ArgValue::U64(value)));
        self
    }
}

/// Sharded, bounded span recorder.
///
/// One per [`crate::telemetry::TelemetryRegistry`]. Construction fixes
/// the sampling rate and capacity; when sampling is off the recorder is
/// permanently disabled and every entry point short-circuits.
#[derive(Debug)]
pub struct TraceRecorder {
    enabled: bool,
    sample_every_n: u64,
    capacity: usize,
    read_seq: Striped<AtomicU64>,
    next_id: AtomicU64,
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    ring: Mutex<VecDeque<SpanRecord>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    track_names: Mutex<BTreeMap<u64, String>>,
}

impl TraceRecorder {
    /// Build a recorder sampling every `sample_every_n`-th read (0
    /// disables tracing entirely), keeping at most `capacity` spans.
    #[must_use]
    pub fn new(sample_every_n: u64, capacity: usize) -> Self {
        Self {
            enabled: sample_every_n > 0,
            sample_every_n,
            capacity: capacity.max(1),
            read_seq: Striped::new(),
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            track_names: Mutex::new(BTreeMap::new()),
        }
    }

    /// A permanently disabled recorder (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0, 1)
    }

    /// Whether any tracing can happen at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sampling decision for the calling thread's next foreground read:
    /// true for every `sample_every_n`-th read of each thread, its first
    /// included (a thread past the owned stripes shares a count, and about
    /// that rate, with the threads handed the same copy). The disabled path
    /// is one branch on an immutable bool.
    #[inline]
    pub fn sample_read(&self) -> bool {
        self.enabled && {
            let seq = self.read_seq.local(AtomicU64::default);
            let n = seq.load(Ordering::Relaxed);
            seq.add(|seq| seq, 1);
            n.is_multiple_of(self.sample_every_n)
        }
    }

    /// Allocate a fresh span/flow id (never 0).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Assign (or look up) the calling thread's track id and register
    /// its OS thread name for the exported `thread_name` metadata.
    pub fn register_current_thread(&self) -> u64 {
        let tid = current_tid();
        if self.enabled {
            if let Some(name) = std::thread::current().name() {
                let mut names = locks::lock(&self.track_names);
                names.entry(tid).or_insert_with(|| name.to_string());
            }
        }
        tid
    }

    /// Name a track explicitly (simulator tracks, reserved tracks).
    pub fn set_track_name(&self, tid: u64, name: impl Into<String>) {
        if self.enabled {
            locks::lock(&self.track_names).insert(tid, name.into());
        }
    }

    /// Record one finished span. No-op when disabled.
    pub fn record(&self, span: SpanRecord) {
        if !self.enabled {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[(span.tid as usize) % SHARDS];
        let batch = {
            let mut buf = locks::lock(shard);
            buf.push(span);
            if buf.len() < FLUSH_AT {
                return;
            }
            std::mem::take(&mut *buf)
        };
        self.flush_batch(batch);
    }

    fn flush_batch(&self, batch: Vec<SpanRecord>) {
        if batch.is_empty() {
            return;
        }
        let mut ring = locks::lock(&self.ring);
        for span in batch {
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(span);
        }
    }

    /// Spans recorded since construction (including later-dropped ones).
    #[must_use]
    pub fn spans_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans evicted from the ring because it was full.
    #[must_use]
    pub fn spans_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained spans, time-ordered. Non-destructive:
    /// shard buffers are flushed into the ring but nothing is consumed.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        for shard in &self.shards {
            let batch = std::mem::take(&mut *locks::lock(shard));
            self.flush_batch(batch);
        }
        let ring = locks::lock(&self.ring);
        let mut v: Vec<SpanRecord> = ring.iter().cloned().collect();
        drop(ring);
        v.sort_by_key(|s| (s.ts_us, s.id));
        v
    }

    /// Export the retained spans as a Chrome Trace Event / Perfetto JSON
    /// document (`{"traceEvents": [...]}`): `ph:"X"` complete events
    /// carrying span/parent ids in `args`, `ph:"M"` metadata naming the
    /// process and tracks, and `ph:"s"`/`ph:"f"` flow events for every
    /// flow id that has **both** endpoints retained (so flows always
    /// resolve in the viewer). Non-destructive.
    #[must_use]
    pub fn export_chrome_json(&self) -> String {
        let spans = self.spans();

        // A flow is emitted only when both its start and finish survived
        // the ring; a dangling `s` or `f` renders as a broken arrow.
        let mut starts = std::collections::BTreeSet::new();
        let mut finishes = std::collections::BTreeSet::new();
        for s in &spans {
            match s.flow_phase {
                FlowPhase::Start if s.flow != 0 => {
                    starts.insert(s.flow);
                }
                FlowPhase::Finish if s.flow != 0 => {
                    finishes.insert(s.flow);
                }
                _ => {}
            }
        }

        let mut out = String::with_capacity(256 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push_event = |out: &mut String, body: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(body);
        };

        let mut body = String::new();
        body.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"monarch\"}}",
        );
        push_event(&mut out, &body);
        for (tid, name) in locks::lock(&self.track_names).iter() {
            body.clear();
            body.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            body.push_str(&tid.to_string());
            body.push_str(",\"args\":{\"name\":");
            push_json_str(&mut body, name);
            body.push_str("}}");
            push_event(&mut out, &body);
        }

        for s in &spans {
            body.clear();
            body.push_str("{\"name\":");
            push_json_str(&mut body, s.name);
            body.push_str(",\"cat\":");
            push_json_str(&mut body, s.cat);
            body.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":");
            body.push_str(&s.tid.to_string());
            body.push_str(",\"ts\":");
            body.push_str(&s.ts_us.to_string());
            body.push_str(",\"dur\":");
            body.push_str(&s.dur_us.to_string());
            body.push_str(",\"args\":{\"span_id\":");
            body.push_str(&s.id.to_string());
            body.push_str(",\"parent_id\":");
            body.push_str(&s.parent.to_string());
            if s.flow != 0 {
                body.push_str(",\"flow\":");
                body.push_str(&s.flow.to_string());
            }
            for (key, value) in &s.args {
                body.push(',');
                push_json_str(&mut body, key);
                body.push(':');
                match value {
                    ArgValue::Str(v) => push_json_str(&mut body, v),
                    ArgValue::U64(v) => body.push_str(&v.to_string()),
                }
            }
            body.push_str("}}");
            push_event(&mut out, &body);

            // Flow endpoints bind to the slice enclosing (ts, tid), so
            // both are stamped inside the span they decorate.
            if s.flow != 0 && starts.contains(&s.flow) && finishes.contains(&s.flow) {
                let ph = match s.flow_phase {
                    FlowPhase::Start => Some("\"s\""),
                    FlowPhase::Finish => Some("\"f\",\"bp\":\"e\""),
                    FlowPhase::None => None,
                };
                if let Some(ph) = ph {
                    body.clear();
                    body.push_str("{\"name\":\"copy_flow\",\"cat\":\"flow\",\"ph\":");
                    body.push_str(ph);
                    body.push_str(",\"id\":");
                    body.push_str(&s.flow.to_string());
                    body.push_str(",\"pid\":1,\"tid\":");
                    body.push_str(&s.tid.to_string());
                    body.push_str(",\"ts\":");
                    body.push_str(&s.ts_us.to_string());
                    body.push('}');
                    push_event(&mut out, &body);
                }
            }
        }
        out.push_str("]}");
        out
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, ts: u64, dur: u64) -> SpanRecord {
        SpanRecord::new(name, "test", tid, ts, dur)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = TraceRecorder::disabled();
        assert!(!r.is_enabled());
        assert!(!r.sample_read());
        r.record(span("read", 1, 0, 5));
        r.set_track_name(7, "x");
        assert_eq!(r.spans_recorded(), 0);
        assert!(r.spans().is_empty());
        let json = r.export_chrome_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
    }

    #[test]
    fn sampling_keeps_every_nth_read() {
        let r = TraceRecorder::new(4, 128);
        let hits: Vec<bool> = (0..12).map(|_| r.sample_read()).collect();
        let want: Vec<bool> = (0..12).map(|i| i % 4 == 0).collect();
        assert_eq!(hits, want);
        let every = TraceRecorder::new(1, 128);
        assert!((0..8).all(|_| every.sample_read()));
    }

    #[test]
    fn each_thread_keeps_every_nth_of_its_own_reads() {
        // Two threads read through one recorder at once; each counts on
        // its own stripe, so each keeps exactly a quarter of its reads
        // however the two interleave.
        let r = TraceRecorder::new(4, 128);
        std::thread::scope(|s| {
            let threads =
                [(); 2].map(|()| s.spawn(|| (0..100).filter(|_| r.sample_read()).count()));
            for sampled in threads {
                assert_eq!(sampled.join().unwrap(), 25);
            }
        });
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let r = TraceRecorder::new(1, 128);
        let a = r.next_id();
        let b = r.next_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let r = TraceRecorder::new(1, 4);
        // Same tid → same shard → deterministic flush order.
        for i in 0..(FLUSH_AT as u64 * 2) {
            r.record(span("read", 1, i, 1).with_id(i + 1));
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(r.spans_recorded(), FLUSH_AT as u64 * 2);
        assert_eq!(r.spans_dropped(), FLUSH_AT as u64 * 2 - 4);
        // The survivors are the newest four.
        assert_eq!(spans[0].ts_us, FLUSH_AT as u64 * 2 - 4);
    }

    #[test]
    fn export_contains_spans_flows_and_metadata() {
        let r = TraceRecorder::new(1, 128);
        r.set_track_name(16, "reader-0");
        r.set_track_name(200, "copy-0");
        let flow = r.next_id();
        r.record(
            span("read", 16, 10, 30)
                .with_id(r.next_id())
                .arg_str("file", "shard-00000")
                .arg_u64("bytes", 4096),
        );
        r.record(
            span("copy_scheduled", 16, 35, 2)
                .with_id(r.next_id())
                .with_flow(flow, FlowPhase::Start),
        );
        r.record(
            span("copy_exec", 200, 50, 400)
                .with_id(r.next_id())
                .with_flow(flow, FlowPhase::Finish)
                .arg_str("tier", "ssd"),
        );
        let json = r.export_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"thread_name\""), "{json}");
        assert!(json.contains("\"name\":\"reader-0\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"file\":\"shard-00000\""), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""), "{json}");
        // Export is non-destructive.
        assert_eq!(r.spans().len(), 3);
        assert!(r.export_chrome_json().contains("\"ph\":\"s\""));
    }

    #[test]
    fn dangling_flows_are_suppressed() {
        let r = TraceRecorder::new(1, 128);
        r.record(
            span("copy_scheduled", 1, 0, 1)
                .with_id(1)
                .with_flow(9, FlowPhase::Start),
        );
        let json = r.export_chrome_json();
        // The flow id still appears as an arg, but no s/f pair is
        // emitted without both endpoints.
        assert!(json.contains("\"flow\":9"), "{json}");
        assert!(!json.contains("\"ph\":\"s\""), "{json}");
        assert!(!json.contains("\"ph\":\"f\""), "{json}");
    }

    #[test]
    fn escaping_goes_through_the_journal_escaper() {
        let r = TraceRecorder::new(1, 16);
        r.record(span("read", 1, 0, 1).with_id(1).arg_str("file", "a\"b\\c"));
        let json = r.export_chrome_json();
        assert!(json.contains("\"file\":\"a\\\"b\\\\c\""), "{json}");
    }

    #[test]
    fn tids_are_stable_per_thread_and_distinct() {
        let here = current_tid();
        assert_eq!(here, current_tid());
        assert!(here >= QUEUE_TRACK);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(here, other);
    }
}
