//! Read-only shared mappings of cached files, and the `SIGBUS` guard that
//! turns a fault on one into `EIO`.
//!
//! A small read served by [`Mapping::read`] is a bounds-checked copy out of
//! the page cache: no system call, no descriptor reference count. What a
//! `pread` reports as `EIO` — a page past the end of a file truncated
//! underneath, a device that fails on page-in — a mapping reports as
//! `SIGBUS` on the reading thread. [`Mapping::new`] therefore installs, once
//! per process and before the first mapping exists, a handler that knows
//! which bytes the calling thread is copying: a fault inside them replaces
//! the faulting page with an anonymous zero page, marks the mapping
//! poisoned and lets the copy finish, and the read then reports `None`.
//! Every other `SIGBUS` goes to the handler that was installed before. A
//! host that replaces the `SIGBUS` handler after the first mapping loses
//! the guard: a fault on a mapped copy then takes that handler's course.
//!
//! The layouts below are those of 64-bit Linux (x86_64, aarch64); the
//! module is compiled there only.

use std::ffi::{c_char, c_int, c_void, CString};
use std::fs::File;
use std::os::unix::ffi::OsStrExt;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::ptr;
use std::sync::atomic::{compiler_fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

const PROT_READ: c_int = 0x1;
const MAP_SHARED: c_int = 0x01;
const MAP_PRIVATE: c_int = 0x02;
const MAP_FIXED: c_int = 0x10;
const MAP_ANONYMOUS: c_int = 0x20;
const MADV_RANDOM: c_int = 1;
const SIGBUS: c_int = 7;
const SA_SIGINFO: c_int = 0x4;
const SA_ONSTACK: c_int = 0x0800_0000;
const SIG_DFL: usize = 0;
const SIG_IGN: usize = 1;
const SC_PAGESIZE: c_int = 30;

/// `statfs` magic numbers of network and parallel file systems: Lustre,
/// GPFS, NFS, CIFS, SMB2, SMB, CephFS, BeeGFS, FUSE, 9p. A page of a file
/// there can change on another node, and a fault on one waits for the
/// network; their files are read with `pread`.
const NETWORK_MAGIC: [u32; 10] = [
    0x0BD0_0BD0,
    0x4750_4653,
    0x6969,
    0xFF53_4D42,
    0xFE53_4D42,
    0x517B,
    0x00C3_6400,
    0x1983_0326,
    0x6573_5546,
    0x0102_1997,
];

/// `struct sigaction` as glibc and musl declare it.
#[repr(C)]
#[derive(Clone, Copy)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: c_int,
    restorer: usize,
}

impl SigAction {
    /// `handler` with `flags` and nothing blocked.
    const fn new(handler: usize, flags: c_int) -> Self {
        Self {
            handler,
            mask: [0; 16],
            flags,
            restorer: 0,
        }
    }
}

/// The head of `siginfo_t`, up to the fault address.
#[repr(C)]
struct SigInfo {
    signo: c_int,
    errno: c_int,
    code: c_int,
    _pad: c_int,
    addr: usize,
}

/// `struct statfs`: `f_type` leads; the rest (120 bytes on x86_64) is
/// room.
#[repr(C)]
struct StatFs {
    f_type: i64,
    _rest: [u64; 31],
}

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
    fn raise(sig: c_int) -> c_int;
    fn sysconf(name: c_int) -> i64;
    fn statfs(path: *const c_char, buf: *mut StatFs) -> c_int;
}

const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// Whether files under `root` may be mapped: its file system is known and
/// is not a network or parallel one.
pub(super) fn mappable(root: &Path) -> bool {
    let Ok(path) = CString::new(root.as_os_str().as_bytes()) else {
        return false;
    };
    let mut fs = StatFs {
        f_type: 0,
        _rest: [0; 31],
    };
    // SAFETY: `path` is NUL-terminated and `fs` is writable and larger
    // than any `struct statfs` of the supported targets.
    let ok = unsafe { statfs(path.as_ptr(), &mut fs) } == 0;
    ok && !NETWORK_MAGIC.contains(&(fs.f_type as u32))
}

/// A read-only shared mapping of a whole file, unmapped on drop.
pub(super) struct Mapping {
    base: *const u8,
    len: usize,
    /// Set by the guard when a copy out of this mapping faulted: one of
    /// its pages may now read as zeros.
    poisoned: AtomicBool,
}

// SAFETY: the mapping is read-only and lives until `drop`; every access
// goes through `read`, which copies out of it, and `poisoned` is atomic.
unsafe impl Send for Mapping {}
// SAFETY: as above.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map `file` (`PROT_READ`, `MAP_SHARED`, `MADV_RANDOM`). `None` for an
    /// empty file, a failed `mmap`, or when the guard could not be
    /// installed.
    pub(super) fn new(file: &File) -> Option<Self> {
        let len = usize::try_from(file.metadata().ok()?.len())
            .ok()
            .filter(|&len| len > 0 && len <= isize::MAX as usize)?;
        if !*GUARD.get_or_init(install_guard) {
            return None;
        }
        // SAFETY: a fresh read-only mapping of an open descriptor; the
        // kernel picks the address, so nothing existing is replaced.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if base == MAP_FAILED {
            return None;
        }
        // SAFETY: `base..base + len` is the mapping just made. Advice only:
        // a failure changes nothing.
        unsafe { madvise(base, len, MADV_RANDOM) };
        Some(Self {
            base: base.cast_const().cast(),
            len,
            poisoned: AtomicBool::new(false),
        })
    }

    /// Copy up to `buf.len()` bytes at `offset` into `buf`: `Some(n)`, short
    /// at the end of the mapping, or `None` when a page of the copy could
    /// not be read (and then `buf` holds zeros in its place).
    #[inline]
    pub(super) fn read(&self, offset: u64, buf: &mut [u8]) -> Option<usize> {
        let start = usize::try_from(offset).map_or(self.len, |o| o.min(self.len));
        let n = buf.len().min(self.len - start);
        let src = self.base.wrapping_add(start);
        IN_FLIGHT.with(|copy| {
            copy.poisoned
                .store(ptr::from_ref(&self.poisoned) as usize, Ordering::Relaxed);
            copy.start.store(src as usize, Ordering::Relaxed);
            copy.end.store(src as usize + n, Ordering::Relaxed);
        });
        // The fences keep the copy between the range being published and
        // withdrawn: the handler runs on this thread, at the faulting load.
        compiler_fence(Ordering::SeqCst);
        // SAFETY: `src..src + n` lies inside the mapping, which outlives
        // this call (`&self`), and `buf` holds at least `n` bytes. The
        // bytes are copied, never referenced: a cache tier's file is not
        // written while it is cached (the driver's ownership contract), and
        // a page that faults is replaced before the copy goes on.
        unsafe { ptr::copy_nonoverlapping(src, buf.as_mut_ptr(), n) };
        compiler_fence(Ordering::SeqCst);
        IN_FLIGHT.with(|copy| copy.end.store(0, Ordering::Relaxed));
        // Acquire: another reader's fault poisons the page this copy may
        // have read as zeros.
        (!self.poisoned.load(Ordering::Acquire)).then_some(n)
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `new`; `&mut self` means no copy out
        // of it is in flight.
        unsafe { munmap(self.base.cast_mut().cast(), self.len) };
    }
}

/// The calling thread's mapped copy in flight: the source range
/// `[start, end)` (empty when `end` is 0) and the address of its mapping's
/// `poisoned` flag. Const-initialised and free of destructors, so the
/// handler can read it at any point of the thread's life.
struct InFlight {
    start: AtomicUsize,
    end: AtomicUsize,
    poisoned: AtomicUsize,
}

thread_local! {
    static IN_FLIGHT: InFlight = const {
        InFlight {
            start: AtomicUsize::new(0),
            end: AtomicUsize::new(0),
            poisoned: AtomicUsize::new(0),
        }
    };
}

/// Whether the guard is installed; decided by the first mapping.
static GUARD: OnceLock<bool> = OnceLock::new();
/// The `SIGBUS` disposition the guard replaced.
static PREVIOUS: OnceLock<SigAction> = OnceLock::new();
static PAGE: AtomicUsize = AtomicUsize::new(0);

fn install_guard() -> bool {
    // SAFETY: `sysconf` has no preconditions.
    let page = unsafe { sysconf(SC_PAGESIZE) };
    let Some(page) = usize::try_from(page).ok().filter(|p| p.is_power_of_two()) else {
        return false;
    };
    PAGE.store(page, Ordering::Relaxed);
    let mut previous = SigAction::new(SIG_DFL, 0);
    // SAFETY: a query: `previous` is a writable `struct sigaction`.
    if unsafe { sigaction(SIGBUS, ptr::null(), &mut previous) } != 0 {
        return false;
    }
    // Recorded before the guard can run.
    let _ = PREVIOUS.set(previous);
    let handler: extern "C" fn(c_int, *mut SigInfo, *mut c_void) = on_sigbus;
    let guard = SigAction::new(handler as usize, SA_SIGINFO | SA_ONSTACK);
    // SAFETY: `guard` is a valid `struct sigaction` whose handler does
    // only async-signal-safe work (atomics, `mmap`, `sigaction`, `raise`).
    unsafe { sigaction(SIGBUS, &guard, ptr::null_mut()) == 0 }
}

extern "C" fn on_sigbus(sig: c_int, info: *mut SigInfo, ctx: *mut c_void) {
    // SAFETY: the kernel passes a valid `siginfo_t` to an `SA_SIGINFO`
    // handler; `si_addr` is the fault address for a `SIGBUS`.
    let (addr, code) = unsafe { ((*info).addr, (*info).code) };
    let flag = IN_FLIGHT
        .try_with(|copy| {
            let (start, end) = (
                copy.start.load(Ordering::Relaxed),
                copy.end.load(Ordering::Relaxed),
            );
            (start <= addr && addr < end).then(|| copy.poisoned.load(Ordering::Relaxed))
        })
        .ok()
        .flatten();
    if let Some(flag) = flag {
        // SAFETY: `flag` is the `poisoned` field of the mapping this thread
        // is copying from, which outlives the copy.
        unsafe { &*(flag as *const AtomicBool) }.store(true, Ordering::Release);
        let page = PAGE.load(Ordering::Relaxed);
        // SAFETY: the page holding `addr` lies inside the mapping being
        // copied from (mappings start on a page boundary and cover whole
        // pages), so only that mapping's page is replaced; the faulting
        // load then reads zeros.
        let zero = unsafe {
            mmap(
                (addr & !(page - 1)) as *mut c_void,
                page,
                PROT_READ,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED,
                -1,
                0,
            )
        };
        if zero != MAP_FAILED {
            return;
        }
    }
    chain(sig, info, ctx, code);
}

/// Hand a `SIGBUS` that is not the guard's to the disposition it replaced.
fn chain(sig: c_int, info: *mut SigInfo, ctx: *mut c_void, code: c_int) {
    let previous = PREVIOUS.get().copied();
    match previous.map_or(SIG_DFL, |p| p.handler) {
        // Sent by a process (`si_code <= 0`), not raised by a fault.
        SIG_IGN if code <= 0 => {}
        SIG_DFL | SIG_IGN => {
            // SAFETY: restores the default action, then raises the signal
            // again: it is blocked in this handler, so it is delivered — and
            // ends the process — when the handler returns.
            unsafe {
                sigaction(SIGBUS, &SigAction::new(SIG_DFL, 0), ptr::null_mut());
                raise(SIGBUS);
            }
        }
        handler if previous.is_some_and(|p| p.flags & SA_SIGINFO != 0) => {
            // SAFETY: the previous handler was installed with `SA_SIGINFO`,
            // so this is its signature; it gets the kernel's arguments.
            let f: extern "C" fn(c_int, *mut SigInfo, *mut c_void) =
                unsafe { std::mem::transmute(handler) };
            f(sig, info, ctx);
        }
        handler => {
            // SAFETY: a plain `sa_handler`.
            let f: extern "C" fn(c_int) = unsafe { std::mem::transmute(handler) };
            f(sig);
        }
    }
}
