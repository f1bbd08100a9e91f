//! Storage drivers: the per-tier I/O abstraction.
//!
//! A driver hides the backend behind a small object-safe trait so tiers can
//! be backed by a real directory ([`PosixDriver`]), RAM ([`MemDriver`]), a
//! fault-injecting wrapper ([`FlakyDriver`]) or — in the `dlpipe`
//! simulation — a modelled device. Files are addressed by their *logical
//! name* (the dataset-relative path), mirroring the paper's `Monarch.read`
//! which takes a filename rather than a file descriptor.
//!
//! A driver neither counts nor times its calls. Each tier holds one, and
//! its callers book what they ask of it where they book the rest: the read
//! loop a foreground pread (its latency sample is taken from the instants
//! the stall profile already reads), [`crate::lifecycle::Lifecycle`] a
//! copy's source fetch, install write and failed-install cleanup.

use std::cell::Cell;
use std::fs;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};

use crate::hash::FxHashMap;
use crate::locks;
use crate::stripe::StripedRwLock;
use crate::{Error, Result};

/// Backend I/O abstraction for one storage tier.
pub trait StorageDriver: Send + Sync {
    /// Short backend name (for stats and debugging).
    fn name(&self) -> &str;

    /// Read up to `buf.len()` bytes at `offset`; returns the bytes read
    /// (short reads happen at end-of-file only). `buf` is an output: an
    /// implementation writes `buf[..n]` before it returns `Ok(n)` and makes
    /// nothing of what `buf` held — a copy's staging hands it memory that
    /// nobody has written yet.
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// Read the entire file.
    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let size = self.file_size(file)?;
        let mut buf = vec![0u8; size as usize];
        let n = self.read_at(file, 0, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Create or replace `file` with `data`.
    fn write_full(&self, file: &str, data: &[u8]) -> Result<()>;

    /// Remove `file` (used by eviction-capable ablation policies).
    fn remove(&self, file: &str) -> Result<()>;

    /// Size of `file` in bytes.
    fn file_size(&self, file: &str) -> Result<u64>;

    /// Enumerate `(name, size)` of every file on the backend — the
    /// namespace-population scan run at startup.
    fn list(&self) -> Result<Vec<(String, u64)>>;
}

// ---------------------------------------------------------------------------
// POSIX driver
// ---------------------------------------------------------------------------

/// Descriptors a driver keeps open: half the common 1024 soft
/// `RLIMIT_NOFILE`.
pub(crate) const FD_CACHED: usize = 512;
/// While the table is full, one miss in this many (per thread) evicts and
/// caches; the others are served on a descriptor of their own and leave
/// every gate alone.
const FULL_ADMIT_PERIOD: u32 = 16;
/// Suffix of an install's temp file; [`PosixDriver::list`] skips it.
const TMP_SUFFIX: &str = ".monarch-tmp";
/// Reads of at most this many bytes of a cached file are copied out of a
/// mapping of it: the kernel's fault-around window. Larger reads keep
/// `pread` and its readahead.
const MAPPED_READ_MAX: usize = 64 << 10;
/// What a read reports when a page of its mapped copy could not be read.
const EIO: i32 = 5;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod mapped;

/// Elsewhere nothing is mapped: every read is a `pread`.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod mapped {
    pub(super) enum Mapping {}

    impl Mapping {
        pub(super) fn new(_: &std::fs::File) -> Option<Self> {
            None
        }

        pub(super) fn read(&self, _: u64, _: &mut [u8]) -> Option<usize> {
            match *self {}
        }
    }

    pub(super) fn mappable(_: &std::path::Path) -> bool {
        false
    }
}

use mapped::Mapping;

/// A cached descriptor, and the mapping of its file once a small read has
/// asked for one (`Some(None)`: the file could not be mapped).
struct Cached {
    file: fs::File,
    map: OnceLock<Option<Mapping>>,
}

impl Cached {
    /// The file's mapping, made on first use, when `small` says the read
    /// may use one.
    #[inline]
    fn mapping(&self, small: bool) -> Option<&Mapping> {
        if !small {
            return None;
        }
        self.map.get_or_init(|| Mapping::new(&self.file)).as_ref()
    }
}

/// The descriptor cache. `epoch` counts invalidations, so a reader that
/// opened a file while one ran does not cache what may be a descriptor of
/// the replaced inode.
#[derive(Default)]
struct FdTable {
    epoch: u64,
    files: FxHashMap<Box<str>, Cached>,
}

/// `pread` until `buf` is full or the file ends: one syscall when the
/// first call fills the buffer.
fn pread_full(f: &fs::File, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match f.read_at(&mut buf[filled..], offset + filled as u64) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Whether this miss on a full table is the thread's one in
/// [`FULL_ADMIT_PERIOD`]. With more live files than [`FD_CACHED`] and no
/// reuse, nearly every read misses, and a miss that took every gate would
/// stop every reader; a file read in many chunks is still cached within a
/// few of them, so a full table keeps following what is being read.
fn admit_to_full_table() -> bool {
    thread_local! {
        static MISSES: Cell<u32> = const { Cell::new(0) };
    }
    MISSES.with(|m| {
        m.set(m.get().wrapping_add(1));
        m.get().is_multiple_of(FULL_ADMIT_PERIOD)
    })
}

/// `EMFILE` / `ENFILE`: the process or the system is out of descriptors.
fn out_of_descriptors(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(24 | 23))
}

/// Driver over a real directory tree (the production path: an XFS mount on
/// the node-local SSD, or the Lustre dataset directory).
///
/// `read_at` is one `pread` on a cached descriptor, or — for a read of at
/// most `MAPPED_READ_MAX` = 64 KiB — a copy out of a read-only shared
/// mapping of the file, made by the first such read of the cached entry and
/// unmapped with its descriptor: no system call at all. A driver whose root
/// is on a network or parallel file system maps nothing. A page of a
/// mapped copy that cannot be read (a file truncated underneath, a device
/// failing on page-in) makes the read fail with `EIO`, as `pread` would,
/// and forgets the entry. The cache is one table
/// of at most `FD_CACHED` = 512 descriptors, keyed by logical name, behind
/// a reader-striped gate ([`StripedRwLock`]): a read holds its own stripe's
/// gate shared across the `pread` or copy — that, not a reference count, is
/// what keeps the descriptor and mapping alive — so two readers write no
/// common cache line here; whoever changes the table (a first open,
/// `write_full`, `remove`) takes every gate. That is cheap while the
/// directory's live files fit the
/// table; once it is full, one miss in `FULL_ADMIT_PERIOD` replaces an
/// entry and the rest read on a descriptor of their own, so a working set
/// larger than the table does not put every reader behind every miss. The
/// cache is coherent with this driver's own writes:
/// `write_full` and `remove` invalidate the name, and a failed open is
/// never cached. The contract for everyone else is that a name in the
/// directory is replaced only through this driver, or after this driver's
/// `remove` of it — a file swapped underneath a cached descriptor keeps
/// being read from the old inode.
pub struct PosixDriver {
    name: String,
    root: PathBuf,
    fds: StripedRwLock<FdTable>,
    /// Distinguishes the temp files of concurrent installs.
    installs: AtomicU64,
    /// Small reads may be served from mappings: `root` is on a local file
    /// system.
    mappable: bool,
}

impl PosixDriver {
    /// Create a driver rooted at `root`; the directory is created if absent
    /// (local cache tiers start empty).
    pub fn new(name: impl Into<String>, root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self {
            name: name.into(),
            mappable: mapped::mappable(&root),
            root,
            fds: StripedRwLock::new(FdTable::default()),
            installs: AtomicU64::new(0),
        })
    }

    /// Root directory of this backend.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }

    /// Forget the cached descriptor of `file`. Runs *after* the directory
    /// entry changed: a reader that opened in between sees the epoch move
    /// and does not cache; one that opens afterwards gets the new file.
    ///
    /// Here and below, a descriptor that leaves the table is closed (and
    /// its mapping unmapped) once the gates are open again: the last close
    /// of an unlinked file frees its blocks, and every reader would wait
    /// for that.
    fn invalidate(&self, file: &str) {
        let _stale = {
            let mut fds = self.fds.write();
            fds.epoch += 1;
            fds.files.remove(file)
        };
    }

    /// Close every cached descriptor.
    fn drop_cache(&self) {
        let _stale = {
            let mut fds = self.fds.write();
            fds.epoch += 1;
            std::mem::take(&mut fds.files)
        };
    }
}

impl StorageDriver for PosixDriver {
    fn name(&self) -> &str {
        &self.name
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let small = self.mappable && buf.len() <= MAPPED_READ_MAX;
        let (epoch, full) = {
            // The gate is held across the pread or copy, which keeps the
            // descriptor open and the mapping in place without a reference
            // count to bounce.
            let fds = self.fds.read();
            if let Some(cached) = fds.files.get(file) {
                let Some(map) = cached.mapping(small) else {
                    return Ok(pread_full(&cached.file, offset, buf)?);
                };
                if let Some(n) = map.read(offset, buf) {
                    return Ok(n);
                }
                // A page of the copy could not be read: report it as
                // `pread` would, and open the file afresh next time.
                drop(fds);
                self.invalidate(file);
                return Err(std::io::Error::from_raw_os_error(EIO).into());
            }
            (fds.epoch, fds.files.len() >= FD_CACHED)
        };
        // The gate is dropped: `write()` below would wait for it.
        let path = self.resolve(file);
        let f = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if out_of_descriptors(&e) => {
                // Give the descriptors back and serve this read uncached.
                self.drop_cache();
                return Ok(pread_full(&fs::File::open(&path)?, offset, buf)?);
            }
            Err(e) => return Err(e.into()),
        };
        let n = pread_full(&f, offset, buf)?;
        if full && !admit_to_full_table() {
            return Ok(n);
        }
        let mut fds = self.fds.write();
        if fds.epoch != epoch {
            return Ok(n);
        }
        let _evicted = if fds.files.len() >= FD_CACHED {
            let victim = fds.files.keys().next().cloned();
            victim.and_then(|victim| fds.files.remove(&victim))
        } else {
            None
        };
        // Two readers may have opened the same file: the later one wins.
        let cached = Cached {
            file: f,
            map: OnceLock::new(),
        };
        let _replaced = fds.files.insert(file.into(), cached);
        // Before `_evicted` and `_replaced` are closed.
        drop(fds);
        Ok(n)
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        Ok(fs::read(self.resolve(file))?)
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        let path = self.resolve(file);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // Write to a temp name then rename, so concurrent readers never see
        // a half-copied file after the metadata flips to this tier. The
        // temp name keeps the whole file name and a per-install number:
        // `a.tfrecord` and `a.idx`, or two installs of one name, never
        // share one.
        let mut tmp = path.clone().into_os_string();
        tmp.push(format!(
            ".{}{TMP_SUFFIX}",
            self.installs.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = PathBuf::from(tmp);
        // No `sync_data`: a cache tier is never the source of truth. The
        // namespace is scanned from the source alone and a new instance
        // adopts nothing it finds in a tier directory, so what a crash
        // loses here is placed again from the PFS.
        let written = fs::write(&tmp, data).and_then(|()| fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        self.invalidate(file);
        Ok(written?)
    }

    fn remove(&self, file: &str) -> Result<()> {
        let removed = fs::remove_file(self.resolve(file));
        self.invalidate(file);
        Ok(removed?)
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        Ok(fs::metadata(self.resolve(file))?.len())
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let meta = entry.metadata()?;
                if meta.is_dir() {
                    stack.push(entry.path());
                } else {
                    let rel = entry
                        .path()
                        .strip_prefix(&self.root)
                        .expect("entry under root")
                        .to_string_lossy()
                        .into_owned();
                    // A leftover of an interrupted install is not data.
                    if !rel.ends_with(TMP_SUFFIX) {
                        out.push((rel, meta.len()));
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// In-memory driver
// ---------------------------------------------------------------------------

/// RAM-backed driver: unit tests, the RAM tier of the multi-level
/// extension, and a stand-in for tmpfs.
pub struct MemDriver {
    name: String,
    files: RwLock<FxHashMap<String, Arc<Vec<u8>>>>,
}

impl MemDriver {
    /// Empty in-memory backend.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            files: RwLock::new(FxHashMap::default()),
        }
    }

    /// Pre-populate a file (e.g. to stage a dataset on a test "PFS").
    pub fn insert(&self, file: &str, data: Vec<u8>) {
        locks::write(&self.files).insert(file.into(), Arc::new(data));
    }
}

impl StorageDriver for MemDriver {
    fn name(&self) -> &str {
        &self.name
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let data = {
            let files = locks::read(&self.files);
            files
                .get(file)
                .cloned()
                .ok_or_else(|| Error::UnknownFile(file.into()))?
        };
        let start = (offset as usize).min(data.len());
        let n = buf.len().min(data.len() - start);
        buf[..n].copy_from_slice(&data[start..start + n]);
        Ok(n)
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        let files = locks::read(&self.files);
        files
            .get(file)
            .map(|d| d.as_ref().clone())
            .ok_or_else(|| Error::UnknownFile(file.into()))
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        locks::write(&self.files).insert(file.into(), Arc::new(data.to_vec()));
        Ok(())
    }

    fn remove(&self, file: &str) -> Result<()> {
        locks::write(&self.files)
            .remove(file)
            .map(|_| ())
            .ok_or_else(|| Error::UnknownFile(file.into()))
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        let files = locks::read(&self.files);
        files
            .get(file)
            .map(|d| d.len() as u64)
            .ok_or_else(|| Error::UnknownFile(file.into()))
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        let files = locks::read(&self.files);
        let mut out: Vec<_> = files
            .iter()
            .map(|(k, v)| (k.clone(), v.len() as u64))
            .collect();
        out.sort();
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Gated driver (test support)
// ---------------------------------------------------------------------------

/// Shared latch that holds a [`GatedDriver`]'s reads closed until
/// [`open_gate`] is called.
pub type Gate = Arc<(Mutex<bool>, Condvar)>;

/// Open `gate`, releasing every blocked and future read of the
/// [`GatedDriver`] it came from.
pub fn open_gate(gate: &Gate) {
    let (lock, cv) = &**gate;
    *locks::lock(lock) = true;
    cv.notify_all();
}

/// Test-support wrapper whose `read_at` (and with it the default
/// `read_full`) blocks until its [`Gate`] opens.
///
/// Background copies fetch the source through `read_at`, so pinning a
/// worker inside one makes queueing, promotion, and cancellation behaviour
/// deterministic: jobs pile up behind the blocked copy in a known order.
/// Foreground reads of the source go through the same call. A test whose
/// foreground reads must keep being served while the copy pipeline is
/// wedged — the degraded mode the middleware promises — reads other files
/// than the one it gates ([`GatedDriver::only`]).
pub struct GatedDriver<D> {
    inner: D,
    gate: Gate,
    /// Gate reads of this file alone; `None` gates every read.
    only: Option<String>,
}

impl<D: StorageDriver> GatedDriver<D> {
    /// Wrap `inner` behind a closed gate; returns the driver and the gate
    /// handle used to open it later.
    #[must_use]
    pub fn new(inner: D) -> (Self, Gate) {
        let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
        (
            Self {
                inner,
                gate: Arc::clone(&gate),
                only: None,
            },
            gate,
        )
    }

    /// Hold only reads of `file` at the gate; every other file reads
    /// straight through.
    #[must_use]
    pub fn only(mut self, file: &str) -> Self {
        self.only = Some(file.to_string());
        self
    }
}

impl<D: StorageDriver> StorageDriver for GatedDriver<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if self.only.as_deref().is_none_or(|only| only == file) {
            let (lock, cv) = &*self.gate;
            let mut open = locks::lock(lock);
            while !*open {
                open = locks::wait(cv, open);
            }
        }
        self.inner.read_at(file, offset, buf)
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        self.inner.write_full(file, data)
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.inner.remove(file)
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        self.inner.file_size(file)
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        self.inner.list()
    }
}

// ---------------------------------------------------------------------------
// Scripted fault injection
// ---------------------------------------------------------------------------

/// Outcome of one scripted [`FlakyDriver`] operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlakyOutcome {
    /// Pass through to the inner driver.
    Ok,
    /// Fail with a transient I/O error (`TimedOut` — retried with backoff
    /// by the health machinery).
    Transient,
    /// Fail with a permanent I/O error (`PermissionDenied` — quarantines
    /// the tier).
    Permanent,
    /// Fail with `ENOSPC` (the install path's evict-and-retry trigger).
    Enospc,
    /// Fail with [`Error::Injected`]: a logic error, not an I/O one, so
    /// nothing retries it and it propagates as it is — what a failed
    /// background copy must survive with metadata and quotas consistent.
    Injected,
}

impl FlakyOutcome {
    fn into_error(self, what: &str, driver: &str) -> Error {
        match self {
            FlakyOutcome::Ok => unreachable!("Ok outcomes never build errors"),
            FlakyOutcome::Transient => Error::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("injected transient fault in {what}"),
            )),
            FlakyOutcome::Permanent => Error::Io(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                format!("injected permanent fault in {what}"),
            )),
            FlakyOutcome::Enospc => Error::Io(std::io::Error::from_raw_os_error(28)),
            FlakyOutcome::Injected => Error::Injected(format!("{what} on {driver}")),
        }
    }
}

/// Test harness driver that fails operations from *scripted sequences* and
/// supports a shared outage switch that fails every data operation while
/// set — the building blocks for failed-copy, retry, quarantine,
/// half-open-probe, and ENOSPC tests.
///
/// Reads (`read_at`/`read_full`) consume the read script; `write_full`
/// consumes the write script, `remove` the remove script. An exhausted
/// script passes through.
pub struct FlakyDriver<D> {
    inner: D,
    reads: Mutex<std::collections::VecDeque<FlakyOutcome>>,
    writes: Mutex<std::collections::VecDeque<FlakyOutcome>>,
    removes: Mutex<std::collections::VecDeque<FlakyOutcome>>,
    outage: Arc<AtomicBool>,
    injected: AtomicU64,
}

impl<D: StorageDriver> FlakyDriver<D> {
    /// Wrap `inner` with empty scripts and the outage switch off.
    #[must_use]
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            reads: Mutex::new(std::collections::VecDeque::new()),
            writes: Mutex::new(std::collections::VecDeque::new()),
            removes: Mutex::new(std::collections::VecDeque::new()),
            outage: Arc::new(AtomicBool::new(false)),
            injected: AtomicU64::new(0),
        }
    }

    /// How many operations have failed so far, scripted or in an outage.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Append outcomes to the read script.
    pub fn script_reads(&self, outcomes: impl IntoIterator<Item = FlakyOutcome>) {
        locks::lock(&self.reads).extend(outcomes);
    }

    /// Append outcomes to the write script.
    pub fn script_writes(&self, outcomes: impl IntoIterator<Item = FlakyOutcome>) {
        locks::lock(&self.writes).extend(outcomes);
    }

    /// Append outcomes to the remove script. A failed remove leaves the
    /// file where it is.
    pub fn script_removes(&self, outcomes: impl IntoIterator<Item = FlakyOutcome>) {
        locks::lock(&self.removes).extend(outcomes);
    }

    /// The shared outage switch: while `true`, every data operation fails
    /// with a transient error (a tier-loss window).
    #[must_use]
    pub fn outage_switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.outage)
    }

    fn next(
        &self,
        script: &Mutex<std::collections::VecDeque<FlakyOutcome>>,
        what: &str,
    ) -> Result<()> {
        if self.outage.load(Ordering::Acquire) {
            return Err(self.fail(FlakyOutcome::Transient, what));
        }
        match locks::lock(script).pop_front() {
            None | Some(FlakyOutcome::Ok) => Ok(()),
            Some(fail) => Err(self.fail(fail, what)),
        }
    }

    fn fail(&self, outcome: FlakyOutcome, what: &str) -> Error {
        self.injected.fetch_add(1, Ordering::Relaxed);
        outcome.into_error(what, self.inner.name())
    }
}

impl<D: StorageDriver> StorageDriver for FlakyDriver<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.next(&self.reads, "read_at")?;
        self.inner.read_at(file, offset, buf)
    }

    fn read_full(&self, file: &str) -> Result<Vec<u8>> {
        self.next(&self.reads, "read_full")?;
        self.inner.read_full(file)
    }

    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        self.next(&self.writes, "write_full")?;
        self.inner.write_full(file, data)
    }

    fn remove(&self, file: &str) -> Result<()> {
        // The outage switch is about data operations; a delete during an
        // outage goes through, as it always has.
        match locks::lock(&self.removes).pop_front() {
            None | Some(FlakyOutcome::Ok) => self.inner.remove(file),
            Some(fail) => Err(self.fail(fail, "remove")),
        }
    }

    fn file_size(&self, file: &str) -> Result<u64> {
        self.inner.file_size(file)
    }

    fn list(&self) -> Result<Vec<(String, u64)>> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_driver_basics() {
        let d = MemDriver::new("m");
        d.insert("a", vec![1, 2, 3, 4, 5]);
        assert_eq!(d.file_size("a").unwrap(), 5);
        let mut buf = [0u8; 3];
        assert_eq!(d.read_at("a", 1, &mut buf).unwrap(), 3);
        assert_eq!(buf, [2, 3, 4]);
        // Read past EOF is a short read.
        assert_eq!(d.read_at("a", 4, &mut buf).unwrap(), 1);
        assert_eq!(d.read_full("a").unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(d.list().unwrap(), vec![("a".to_string(), 5)]);
        d.remove("a").unwrap();
        assert!(d.read_full("a").is_err());
    }

    #[test]
    fn posix_driver_roundtrip() {
        let root = std::env::temp_dir().join(format!("monarch-posix-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let d = PosixDriver::new("p", &root).unwrap();
        d.write_full("sub/dir/file.bin", &[9u8; 100]).unwrap();
        assert_eq!(d.file_size("sub/dir/file.bin").unwrap(), 100);
        let mut buf = [0u8; 10];
        assert_eq!(d.read_at("sub/dir/file.bin", 95, &mut buf).unwrap(), 5);
        assert_eq!(d.read_full("sub/dir/file.bin").unwrap().len(), 100);
        let listing = d.list().unwrap();
        assert_eq!(listing, vec![("sub/dir/file.bin".to_string(), 100)]);
        d.remove("sub/dir/file.bin").unwrap();
        assert!(d.file_size("sub/dir/file.bin").is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn posix_write_is_atomic_rename() {
        let root = std::env::temp_dir().join(format!("monarch-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let d = PosixDriver::new("p", &root).unwrap();
        d.write_full("f", b"first").unwrap();
        d.write_full("f", b"second").unwrap();
        assert_eq!(d.read_full("f").unwrap(), b"second");
        // No leftover temp files.
        assert_eq!(d.list().unwrap().len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    /// A fresh directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("monarch-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    /// Descriptors of this process that point under `root` (other tests
    /// open files of their own meanwhile).
    fn open_under(root: &Path) -> usize {
        fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|e| fs::read_link(e.ok()?.path()).ok())
            .filter(|target| target.starts_with(root))
            .count()
    }

    /// Mappings of this process of files under `root`.
    fn mapped_under(root: &Path) -> usize {
        let root = root.to_str().unwrap();
        fs::read_to_string("/proc/self/maps")
            .unwrap()
            .lines()
            .filter(|line| line.contains(root))
            .count()
    }

    fn read4(d: &PosixDriver, file: &str) -> Result<[u8; 4]> {
        let mut buf = [0u8; 4];
        d.read_at(file, 0, &mut buf).map(|_| buf)
    }

    #[test]
    fn fd_cache_follows_remove_and_write_full() {
        let root = scratch("fdcache");
        let d = PosixDriver::new("p", &root).unwrap();
        d.write_full("f", b"old!").unwrap();
        assert_eq!(&read4(&d, "f").unwrap(), b"old!", "now cached");
        // A replaced file is read, not the cached descriptor's old inode.
        d.write_full("f", b"new!").unwrap();
        assert_eq!(&read4(&d, "f").unwrap(), b"new!");
        // A removed file is gone, cached descriptor or not…
        d.remove("f").unwrap();
        match read4(&d, "f") {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("read after remove: {other:?}"),
        }
        // …and the miss was not cached: once the name is back — written
        // behind the driver's back, which is allowed after a `remove` —
        // it is read.
        fs::write(root.join("f"), b"back").unwrap();
        assert_eq!(&read4(&d, "f").unwrap(), b"back");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fd_cache_is_bounded() {
        let root = scratch("fdbound");
        let d = PosixDriver::new("p", &root).unwrap();
        let files = FD_CACHED + 200;
        for i in 0..files {
            fs::write(root.join(format!("f{i}")), [i as u8; 4]).unwrap();
        }
        let open_here = || open_under(&root);
        let mapped_here = || mapped_under(&root);
        for round in 0..3 {
            for i in 0..files {
                assert_eq!(read4(&d, &format!("f{i}")).unwrap(), [i as u8; 4]);
            }
            let open = open_here();
            assert!(
                open > 0 && open <= FD_CACHED,
                "round {round}: {open} descriptors open for {files} files"
            );
            let mapped = mapped_here();
            assert!(
                mapped <= open && (round == 0 || mapped > 0 || !d.mappable),
                "round {round}: {mapped} mappings beside {open} descriptors"
            );
        }
        drop(d);
        assert_eq!(open_here(), 0, "dropping the driver closes the cache");
        assert_eq!(mapped_here(), 0, "dropping the driver unmaps the cache");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_full_fd_cache_adopts_a_file_that_keeps_being_read() {
        let root = scratch("fdfull");
        let d = PosixDriver::new("p", &root).unwrap();
        for i in 0..=FD_CACHED {
            fs::write(root.join(format!("f{i}")), [i as u8; 4]).unwrap();
        }
        for i in 0..FD_CACHED {
            read4(&d, &format!("f{i}")).unwrap();
        }
        let cached = |name: &str| d.fds.read().files.contains_key(name);
        let late = format!("f{FD_CACHED}");
        // Most misses on a full table are served uncached; a thread's one
        // in `FULL_ADMIT_PERIOD` evicts and caches. On a thread of its own:
        // the count starts at zero.
        std::thread::scope(|s| {
            s.spawn(|| {
                for miss in 1..=FULL_ADMIT_PERIOD {
                    assert!(!cached(&late), "cached by miss {}", miss - 1);
                    assert_eq!(read4(&d, &late).unwrap(), [FD_CACHED as u8; 4]);
                }
                assert!(cached(&late), "{late} is never cached");
            });
        });
        assert_eq!(d.fds.read().files.len(), FD_CACHED);
        assert_eq!(open_under(&root), FD_CACHED);
        fs::remove_dir_all(&root).unwrap();
    }

    /// The descriptor law: a read is served from the file its name means
    /// now, or not at all — whatever `write_full` and `remove` do meanwhile.
    /// Read with `pread` (a read larger than `MAPPED_READ_MAX`)…
    #[test]
    fn reads_racing_installs_and_removes_see_whole_versions_of_the_named_file() {
        race_installs_and_removes("fdlaw", MAPPED_READ_MAX + 1);
    }

    /// …and out of the cached files' mappings (4 KiB reads).
    #[test]
    fn mapped_reads_racing_installs_and_removes_see_whole_versions() {
        race_installs_and_removes("fdlaw-mapped", 4096);
    }

    fn race_installs_and_removes(tag: &str, read_len: usize) {
        const NAMES: usize = 64;
        const LEN: usize = 4096;
        const CYCLES: u32 = 12;
        // Every 8-byte word of version `v` of file `i` says so.
        let body = |i: usize, v: u32| -> Vec<u8> {
            let word = ((i as u64) << 32 | u64::from(v)).to_le_bytes();
            word.iter().copied().cycle().take(LEN).collect()
        };
        let root = scratch(tag);
        let d = PosixDriver::new("p", &root).unwrap();
        let names: Vec<String> = (0..NAMES).map(|i| format!("f{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            d.write_full(name, &body(i, 0)).unwrap();
        }
        let open_here = || open_under(&root);
        let mapped_here = || mapped_under(&root);
        // Steps the writer has taken on each name, three a cycle: v1
        // installed, `remove` about to run, v2 installed. A read that began
        // at step `m` may not be served anything older than `floor(m)`,
        // and may find nothing only if a remove was pending at `m` or a
        // step was taken while it ran.
        let steps: Vec<AtomicU64> = (0..NAMES).map(|_| AtomicU64::new(0)).collect();
        let floor = |m: u64| 2 * (m / 3) + u64::from(!m.is_multiple_of(3));
        let done = AtomicBool::new(false);
        struct SetOnDrop<'a>(&'a AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let start = std::sync::Barrier::new(9);
        let served = std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|r| {
                    let (d, names, steps, done, start) = (&d, &names, &steps, &done, &start);
                    s.spawn(move || {
                        let mut buf = vec![0u8; read_len];
                        let mut served = 0u64;
                        start.wait();
                        for i in (0..NAMES).cycle().skip(r * 8) {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            let before = steps[i].load(Ordering::SeqCst);
                            let got = d.read_at(&names[i], 0, &mut buf);
                            let after = steps[i].load(Ordering::SeqCst);
                            let name = &names[i];
                            match got {
                                Ok(n) => {
                                    assert_eq!(n, LEN, "{name}: a partial file");
                                    let word = u64::from_le_bytes(buf[..8].try_into().unwrap());
                                    assert_eq!((word >> 32) as usize, i, "another file's bytes");
                                    let v = word & 0xFFFF_FFFF;
                                    assert!(
                                        floor(before) <= v && v <= floor(after) + 1,
                                        "{name}: version {v} between steps {before} and {after}"
                                    );
                                    assert!(
                                        buf[..LEN].chunks(8).all(|w| w == &buf[..8]),
                                        "{name}: a mix of versions"
                                    );
                                    served += 1;
                                }
                                Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                                    assert!(
                                        before % 3 == 2 || after != before,
                                        "{name}: NotFound with the file in place"
                                    );
                                }
                                Err(e) => panic!("{name}: {e}"),
                            }
                        }
                        served
                    })
                })
                .collect();
            {
                // Stops the readers when the writer is through — or panics.
                let _stop = SetOnDrop(&done);
                start.wait();
                for cycle in 0..CYCLES {
                    for (i, name) in names.iter().enumerate() {
                        d.write_full(name, &body(i, 2 * cycle + 1)).unwrap();
                        steps[i].fetch_add(1, Ordering::SeqCst);
                        steps[i].fetch_add(1, Ordering::SeqCst);
                        d.remove(name).unwrap();
                        d.write_full(name, &body(i, 2 * cycle + 2)).unwrap();
                        steps[i].fetch_add(1, Ordering::SeqCst);
                    }
                    // Cached descriptors, the readers' opens in flight and
                    // one install's temp file: re-opened names must not
                    // pile up, nor their mappings.
                    let open = open_here();
                    assert!(open <= FD_CACHED, "cycle {cycle}: {open} descriptors");
                    let mapped = mapped_here();
                    assert!(mapped <= FD_CACHED, "cycle {cycle}: {mapped} mappings");
                }
            }
            readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
        });
        assert!(served > 0);
        assert!(open_here() > 0, "the cache is in use");
        drop(d);
        assert_eq!(open_here(), 0, "dropping the driver closes the cache");
        assert_eq!(mapped_here(), 0, "dropping the driver unmaps the cache");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_installs_of_same_stem_files_do_not_collide() {
        // `a.tfrecord` and `a.idx` used to share the temp name
        // `a.monarch-tmp`: one install renamed the other's bytes into
        // place, or failed because its temp file had just been renamed.
        let root = scratch("tmpname");
        let d = PosixDriver::new("p", &root).unwrap();
        let start = std::sync::Barrier::new(2);
        for round in 0..200u32 {
            std::thread::scope(|s| {
                for (name, fill) in [("a.tfrecord", 0x11u8), ("a.idx", 0x22u8)] {
                    let (d, start) = (&d, &start);
                    s.spawn(move || {
                        start.wait();
                        d.write_full(name, &vec![fill; 64 << 10])
                            .unwrap_or_else(|e| panic!("round {round}: install of {name}: {e}"));
                    });
                }
            });
            for (name, fill) in [("a.tfrecord", 0x11u8), ("a.idx", 0x22u8)] {
                let data = d.read_full(name).unwrap();
                assert!(
                    data.len() == 64 << 10 && data.iter().all(|b| *b == fill),
                    "round {round}: {name} holds another install's bytes"
                );
            }
        }
        // A temp file left by an interrupted install is not a dataset file.
        fs::write(root.join("a.tfrecord.7.monarch-tmp"), b"partial").unwrap();
        let names: Vec<String> = d.list().unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.idx", "a.tfrecord"]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn faulty_driver_budget() {
        let inner = MemDriver::new("m");
        inner.insert("a", vec![0u8; 8]);
        let d = FlakyDriver::new(inner);
        d.script_writes([FlakyOutcome::Injected; 2]);
        assert!(d.write_full("x", b"1").is_err());
        assert!(d.write_full("x", b"1").is_err());
        assert!(d.write_full("x", b"1").is_ok());
        assert_eq!(d.injected(), 2);
        // Reads unaffected by a Writes fault kind.
        assert!(d.read_full("a").is_ok());
    }

    #[test]
    fn faulty_driver_all_kind() {
        let inner = MemDriver::new("m");
        inner.insert("a", vec![0u8; 8]);
        let d = FlakyDriver::new(inner);
        d.script_reads([FlakyOutcome::Injected]);
        d.script_writes([FlakyOutcome::Injected]);
        assert!(d.read_full("a").is_err());
        assert!(d.read_full("a").is_ok());
        assert!(matches!(d.write_full("x", b"1"), Err(Error::Injected(_))));
        assert!(d.write_full("x", b"1").is_ok());
    }

    #[test]
    fn flaky_driver_scripts_and_outage() {
        let inner = MemDriver::new("m");
        inner.insert("a", vec![7u8; 4]);
        let d = FlakyDriver::new(inner);
        d.script_reads([
            FlakyOutcome::Transient,
            FlakyOutcome::Ok,
            FlakyOutcome::Permanent,
        ]);
        d.script_writes([FlakyOutcome::Enospc]);
        let mut buf = [0u8; 4];
        // Scripted: transient, then pass, then permanent, then exhausted.
        match d.read_at("a", 0, &mut buf) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
            other => panic!("expected transient error, got {other:?}"),
        }
        assert_eq!(d.read_at("a", 0, &mut buf).unwrap(), 4);
        assert!(d.read_full("a").is_err());
        assert_eq!(d.read_full("a").unwrap().len(), 4);
        match d.write_full("b", &[1]) {
            Err(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected ENOSPC, got {other:?}"),
        }
        d.write_full("b", &[1]).unwrap();
        // A scripted remove failure leaves the file where it is.
        d.script_removes([FlakyOutcome::Transient]);
        assert!(d.remove("b").is_err());
        assert_eq!(d.read_full("b").unwrap(), [1]);
        d.remove("b").unwrap();
        assert!(d.read_full("b").is_err());
        // Outage switch fails every data op until cleared.
        let outage = d.outage_switch();
        outage.store(true, Ordering::Release);
        assert!(d.read_at("a", 0, &mut buf).is_err());
        assert!(d.write_full("c", &[2]).is_err());
        assert!(d.file_size("a").is_ok(), "metadata ops pass through");
        outage.store(false, Ordering::Release);
        assert_eq!(d.read_at("a", 0, &mut buf).unwrap(), 4);
    }
}
