//! The benchmark's view of each tier from outside: one wrapper around the
//! tier's shipped driver that counts every call, charges the tier's device
//! model and, in a traced repetition, records a span per call.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use monarch_core::driver::PosixDriver;
use monarch_core::{Result, StorageDriver};

use crate::env::file_index;

// ---------------------------------------------------------------------------
// Device models
// ---------------------------------------------------------------------------

/// What one operation costs on a modelled device:
/// `op_cost + bytes / bytes_per_s`.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    pub bytes_per_s: u64,
    pub op_cost: Duration,
    /// Wait for the deadline by spinning, not sleeping: exact to the
    /// microsecond, for a device whose operations are shorter than the
    /// overshoot of `sleep`.
    pub spin: bool,
}

/// The link to the shared file system, behind every read of the PFS tier.
pub const PFS_LINK: LinkModel = LinkModel {
    bytes_per_s: 256 << 20,
    op_cost: Duration::from_micros(100),
    spin: false,
};

/// A node-local NVMe device. Only `warm_seq_256k` puts it in front of the
/// fast tier: without it that workload runs at memory-copy speed, which on
/// this class of machine wanders by a fifth between runs.
pub const NVME: LinkModel = LinkModel {
    bytes_per_s: 4 << 30,
    op_cost: Duration::from_micros(20),
    spin: true,
};

thread_local! {
    /// By how much this thread's last sleep on a device overshot its
    /// deadline. The thread's next operation is scheduled as if it had
    /// arrived that much earlier, so that the overshoot of `sleep` (tens
    /// of microseconds, more on an idle virtual CPU) is not charged again
    /// and again, while everything the program does between two
    /// operations is.
    static OVERSHOOT: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// One FIFO device shared by everything that reads through it: each
/// operation owns it for the model's cost and returns at the absolute
/// deadline that gives it.
pub struct Link {
    pub model: LinkModel,
    free_at: Mutex<Instant>,
    pub ops: AtomicU64,
    pub bytes: AtomicU64,
    pub busy_ns: AtomicU64,
    pub wait_ns: AtomicU64,
}

impl Link {
    pub fn new(model: LinkModel) -> Self {
        Self {
            model,
            free_at: Mutex::new(Instant::now()),
            ops: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        }
    }

    /// Charge an operation that arrived at `arrival` and moved `bytes`;
    /// returns once the device has carried it.
    pub fn carry(&self, arrival: Instant, bytes: u64) {
        let m = &self.model;
        let arrival = arrival.checked_sub(OVERSHOOT.take()).unwrap_or(arrival);
        let cost = m.op_cost + Duration::from_nanos(bytes * 1_000_000_000 / m.bytes_per_s);
        let (start, end) = {
            let mut free_at = self.free_at.lock().expect("link mutex is never poisoned");
            let start = (*free_at).max(arrival);
            *free_at = start + cost;
            (start, *free_at)
        };
        self.ops.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
        self.busy_ns.fetch_add(cost.as_nanos() as u64, Relaxed);
        self.wait_ns.fetch_add(
            start.saturating_duration_since(arrival).as_nanos() as u64,
            Relaxed,
        );
        if m.spin {
            while Instant::now() < end {
                std::hint::spin_loop();
            }
        } else {
            let left = end.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                std::thread::sleep(left);
                OVERSHOOT.set(Instant::now().saturating_duration_since(end));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// What a span covers. The first is the root of a request; the rest are
/// driver calls, children of the read that issued them or, from a
/// background copy, roots keyed by file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    Read,
    FastReadAt,
    PfsReadAt,
    PfsReadFull,
    FastWrite,
    FastRemove,
    Other,
}

impl SpanKind {
    fn label(self) -> (&'static str, &'static str) {
        match self {
            SpanKind::Read => ("Monarch::read", "middleware"),
            SpanKind::FastReadAt => ("fast.read_at", "driver"),
            SpanKind::PfsReadAt => ("pfs.read_at", "driver"),
            SpanKind::PfsReadFull => ("pfs.read_full", "driver"),
            SpanKind::FastWrite => ("fast.write_full", "driver"),
            SpanKind::FastRemove => ("fast.remove", "driver"),
            SpanKind::Other => ("driver.other", "driver"),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    pub ok: bool,
    pub tid: u16,
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    /// The read this span serves; 0 for background work.
    pub request: u32,
    pub file: u32,
    pub bytes: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

thread_local! {
    /// `(span id, request id)` of the `Monarch::read` running on this thread.
    static CURRENT: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

const SLOTS: usize = 8;

/// Spans of one traced repetition, kept in memory reserved up front (one
/// buffer per thread) and written out when the run ends.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU32,
    next_slot: AtomicU32,
    slots: Vec<Mutex<Vec<Span>>>,
    pub dropped: AtomicU64,
}

impl Tracer {
    pub fn new(spans_per_thread: usize) -> Self {
        Self {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            next_slot: AtomicU32::new(0),
            slots: (0..SLOTS)
                .map(|_| Mutex::new(Vec::with_capacity(spans_per_thread)))
                .collect(),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Relaxed);
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.on.load(Relaxed)
    }

    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Relaxed)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Store `span` in the calling thread's buffer; never reallocates.
    pub fn push(&self, mut span: Span) {
        let slot = THREAD_SLOT.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_slot.fetch_add(1, Relaxed) as usize % SLOTS);
            }
            s.get()
        });
        span.tid = slot as u16;
        let mut buf = self.slots[slot]
            .lock()
            .expect("span buffer is never poisoned");
        if buf.len() < buf.capacity() {
            buf.push(span);
        } else {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Take every span recorded so far, ordered by start.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for slot in &self.slots {
            // `drain` keeps the buffer's reserved capacity.
            all.extend(
                slot.lock()
                    .expect("span buffer is never poisoned")
                    .drain(..),
            );
        }
        all.sort_by_key(|s| s.start_ns);
        all
    }
}

/// Run `read` as the root span of one request on this thread.
pub fn traced_read<T>(tracer: &Tracer, file: u32, read: impl FnOnce() -> Option<T>) -> Option<T> {
    let id = tracer.next_id();
    CURRENT.with(|c| c.set((id, id)));
    let start = Instant::now();
    let out = read();
    let dur_ns = start.elapsed().as_nanos() as u64;
    CURRENT.with(|c| c.set((0, 0)));
    tracer.push(Span {
        kind: SpanKind::Read,
        ok: out.is_some(),
        tid: 0,
        id,
        parent: 0,
        request: id,
        file,
        bytes: 0,
        start_ns: tracer.ns(start),
        dur_ns,
    });
    out
}

/// Chrome trace (`chrome://tracing`, Perfetto) of the first `limit` spans.
pub fn write_chrome_trace(path: &Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().take(limit).enumerate() {
        let (name, cat) = s.kind.label();
        let sep = if i == 0 { "" } else { ",\n" };
        write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"file\":{},\"bytes\":{},\"ok\":{}}}}}",
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent,
            s.request,
            s.file,
            s.bytes,
            s.ok
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

// ---------------------------------------------------------------------------
// The tier wrapper
// ---------------------------------------------------------------------------

/// Calls, bytes and (traced only) nanoseconds of one kind of driver call.
#[derive(Default)]
pub struct OpCount {
    pub calls: AtomicU64,
    pub bytes: AtomicU64,
    pub ns: AtomicU64,
}

impl OpCount {
    pub fn get(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Relaxed),
            self.bytes.load(Relaxed),
            self.ns.load(Relaxed),
        )
    }
}

/// Wraps the shipped `PosixDriver` of one tier. Counts always; charges
/// the tier's device model, if it has one, for every read; records spans
/// while the tracer is on.
pub struct TierProbe {
    inner: PosixDriver,
    is_pfs: bool,
    link: Option<Arc<Link>>,
    tracer: Arc<Tracer>,
    pub read_at: OpCount,
    pub read_full: OpCount,
    pub write_full: OpCount,
    pub remove: OpCount,
}

impl TierProbe {
    /// The fast tier over `dir`, read through `link` when it has a model.
    pub fn fast(dir: &Path, link: Option<Arc<Link>>, tracer: Arc<Tracer>) -> Result<Self> {
        Ok(Self::new(
            PosixDriver::new("fast", dir)?,
            false,
            link,
            tracer,
        ))
    }

    /// The PFS tier over `dir`, read through `link`.
    pub fn pfs(dir: &Path, link: Arc<Link>, tracer: Arc<Tracer>) -> Result<Self> {
        Ok(Self::new(
            PosixDriver::new("pfs", dir)?,
            true,
            Some(link),
            tracer,
        ))
    }

    fn new(inner: PosixDriver, is_pfs: bool, link: Option<Arc<Link>>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            is_pfs,
            link,
            tracer,
            read_at: OpCount::default(),
            read_full: OpCount::default(),
            write_full: OpCount::default(),
            remove: OpCount::default(),
        }
    }

    /// Run one driver call: device charge, counters and, when traced, a
    /// span.
    fn call<T>(
        &self,
        count: &OpCount,
        kind: SpanKind,
        file: &str,
        on_link: bool,
        op: impl FnOnce() -> Result<T>,
        bytes_of: impl Fn(&T) -> u64,
    ) -> Result<T> {
        let traced = self.tracer.is_on();
        let link = self.link.as_ref().filter(|_| on_link);
        let start = (traced || link.is_some()).then(Instant::now);
        let out = op();
        let bytes = out.as_ref().map_or(0, &bytes_of);
        if let (Some(link), Some(start)) = (link, start) {
            link.carry(start, bytes);
        }
        count.calls.fetch_add(1, Relaxed);
        count.bytes.fetch_add(bytes, Relaxed);
        if let (true, Some(start)) = (traced, start) {
            let dur_ns = start.elapsed().as_nanos() as u64;
            count.ns.fetch_add(dur_ns, Relaxed);
            let (parent, request) = CURRENT.with(Cell::get);
            self.tracer.push(Span {
                kind,
                ok: out.is_ok(),
                tid: 0,
                id: self.tracer.next_id(),
                parent,
                request,
                file: file_index(file),
                bytes: bytes.min(u64::from(u32::MAX)) as u32,
                start_ns: self.tracer.ns(start),
                dur_ns,
            });
        }
        out
    }

    fn kind(&self, fast: SpanKind, pfs: SpanKind) -> SpanKind {
        if self.is_pfs {
            pfs
        } else {
            fast
        }
    }

    /// `PosixDriver::write_full` without its `sync_data`: temp file, then
    /// rename. On a disk-backed file system the sync puts the shared block
    /// device into every install (1 MiB: 1.5 to 10 ms here, run to run),
    /// and the run's numbers become the disk's.
    fn write_unsynced(&self, file: &str, data: &[u8]) -> Result<()> {
        let path = self.inner.root().join(file);
        let tmp = path.with_extension("bench-tmp");
        std::fs::write(&tmp, data)?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }
}

impl StorageDriver for TierProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let kind = self.kind(SpanKind::FastReadAt, SpanKind::PfsReadAt);
        self.call(
            &self.read_at,
            kind,
            file,
            true,
            || self.inner.read_at(file, offset, buf),
            |n| *n as u64,
        )
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let kind = self.kind(SpanKind::Other, SpanKind::PfsReadFull);
        self.call(
            &self.read_full,
            kind,
            file,
            true,
            || self.inner.read_full(file),
            |d| d.len() as u64,
        )
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        let len = data.len() as u64;
        self.call(
            &self.write_full,
            SpanKind::FastWrite,
            file,
            false,
            || self.write_unsynced(file, data),
            |()| len,
        )
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.call(
            &self.remove,
            SpanKind::FastRemove,
            file,
            false,
            || self.inner.remove(file),
            |()| 0,
        )
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        self.inner.file_size(file)
    }

    // The namespace scan is metadata traffic; the models charge data only.
    fn list(&self) -> Result<Vec<(String, u64)>> {
        self.inner.list()
    }
}
