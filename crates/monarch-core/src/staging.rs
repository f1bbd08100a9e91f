//! Install staging: the bytes of one file while it is `Copying`, shared by
//! the background copy and the foreground reads that race it, so that every
//! byte crosses the PFS link once.
//!
//! A [`Staging`] is a file-sized buffer filled strictly front to back. Its
//! *watermark* is the length of the contiguous prefix already fetched; at
//! most one *claim* — the range `[watermark, claimed_to)` somebody is
//! fetching right now — is in flight at a time. The copy worker and a
//! foreground read that reaches the frontier run the same step: take the
//! claim, `read_at` the range from the source straight into the buffer,
//! publish it (the watermark moves to the claim's end), wake the waiters.
//!
//! Once the copy holds the frontier it keeps it: each of its fetches
//! publishes its extent and takes the copy's next claim in one critical
//! section, before anybody is woken. Its claims stop one *stride* short of
//! the file's end — the length of the first extent a foreground read
//! fetched — so its last fetch is one read long: the reader parked on the
//! body wakes to find it claimed, yields so its `read_at` reaches the link
//! first, and copies out the rest of the body while it is on the link. A
//! read whose own fetch leaves bytes to fetch yields too, after publishing,
//! so a copy parked behind it claims them before the reader asks again.
//!
//! Invariants:
//!
//! - **prefix only** — bytes below the watermark are final and never
//!   written again; bytes at or above it are never read. The second half is
//!   also what lets the buffer be allocated uninitialised: a byte is read
//!   only after the fetch that wrote it published it;
//! - **one claim** — the claimed range starts at the watermark and is
//!   written only by the claim's holder;
//! - **released on every exit** — a [`Claim`] is an RAII guard: error and
//!   unwind give the frontier back and wake the waiters, success hands it
//!   to the copy's next claim or gives it back, so nobody waits longer
//!   than the driver call they wait on — whatever becomes of the copy
//!   meanwhile;
//! - **unregistered last** — the transfer engine stops handing a staging
//!   out only after the file's metadata left `Copying`. Whoever still
//!   holds it then is served from it as before.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::{Condvar, Mutex, OnceLock};

use crate::locks;
use crate::{Error, Result};

/// A byte buffer written front to back by one thread at a time while other
/// threads read the part already written. Which part that is, and who may
/// write, is the [`Staging`]'s business; this type only hands out the
/// slices.
struct SplitBuf(Box<[UnsafeCell<MaybeUninit<u8>>]>);

// SAFETY: the cells are plain bytes. Every shared access goes through
// `published` or `claimed`, whose callers keep the ranges they read and
// the one range being written disjoint (see `Staging`).
unsafe impl Sync for SplitBuf {}

impl From<Vec<u8>> for SplitBuf {
    /// A buffer whose every byte is initialised; takes over the allocation.
    fn from(bytes: Vec<u8>) -> Self {
        let bytes: Box<[u8]> = bytes.into_boxed_slice();
        // SAFETY: `UnsafeCell<MaybeUninit<u8>>` is `repr(transparent)` over
        // `MaybeUninit<u8>`, which has the layout of `u8` and admits every
        // value of it: both slice types have one layout, and the
        // allocation may be freed through either.
        Self(unsafe { Box::from_raw(Box::into_raw(bytes) as *mut [UnsafeCell<MaybeUninit<u8>>]) })
    }
}

impl SplitBuf {
    /// `len` bytes, none of them initialised: the allocator hands the
    /// memory over untouched, so a page costs nothing until a fetch writes
    /// to it.
    fn uninit(len: usize) -> Self {
        let cells = Box::<[UnsafeCell<MaybeUninit<u8>>]>::new_uninit_slice(len);
        // SAFETY: an `UnsafeCell<MaybeUninit<u8>>` has no invalid state —
        // uninitialised memory is a value of it.
        Self(unsafe { cells.assume_init() })
    }

    /// The bytes of `range` (bounds-checked).
    ///
    /// # Safety
    /// Every byte of `range` has been written, and none is written while
    /// the slice lives: the range lies below the watermark its caller
    /// observed under the staging's lock, or the buffer was made from
    /// bytes.
    unsafe fn published(&self, range: Range<usize>) -> &[u8] {
        let cells = &self.0[range];
        // SAFETY: in bounds by the slicing above; initialised and not
        // written concurrently by the caller's contract.
        unsafe { std::slice::from_raw_parts(cells.as_ptr().cast::<u8>(), cells.len()) }
    }

    /// The bytes of `range` for writing (bounds-checked). They may be
    /// uninitialised: the slice is to be written, not read.
    ///
    /// # Safety
    /// The caller holds the staging's one claim, `range` lies inside it,
    /// and no other slice of the range exists: readers stay below the
    /// watermark, which is the claim's start. The caller reads no byte of
    /// the slice it has not written.
    #[allow(clippy::mut_from_ref)]
    unsafe fn claimed(&self, range: Range<usize>) -> &mut [u8] {
        let cells = &self.0[range];
        // SAFETY: in bounds by the slicing above; exclusive by the
        // caller's contract.
        unsafe {
            std::slice::from_raw_parts_mut(
                UnsafeCell::raw_get(cells.as_ptr()).cast::<u8>(),
                cells.len(),
            )
        }
    }
}

/// What the lock guards.
struct Fill {
    watermark: u64,
    /// End of the range being fetched, which starts at the watermark.
    claimed_to: Option<u64>,
    /// Length of the first extent a foreground read published; 0 until then.
    stride: u64,
    /// Reads waiting on a fetch right now.
    #[cfg(test)]
    parked: usize,
}

/// One file's install staging. See the module docs for the protocol.
pub(crate) struct Staging {
    size: u64,
    /// Holds `[0, watermark)`. Allocated once, file-sized, by whoever
    /// fetches first: a copy that waits in the queue holds no memory.
    buf: OnceLock<SplitBuf>,
    fill: Mutex<Fill>,
    /// Signalled whenever the watermark or the claim changes.
    moved: Condvar,
}

/// What [`Staging::read`] made of one read.
pub(crate) enum Staged<'a> {
    /// The whole range was copied out of the staging.
    Served,
    /// The range reaches past the watermark and nobody is fetching there:
    /// the caller now holds the claim on the missing part. Fill it, then
    /// read again.
    Frontier(Claim<'a>),
    /// Not to be had here: the range starts beyond what is fetched or
    /// being fetched. Take the plain path.
    Miss,
}

impl Staging {
    /// A staging for a file of `size` bytes, none of them fetched yet.
    pub(crate) fn empty(size: u64) -> Self {
        Self::with(size, OnceLock::new(), 0)
    }

    /// A staging that is full from the start: the whole file is `bytes`
    /// (a peer fetch), and nothing is left to fetch.
    pub(crate) fn full(bytes: Vec<u8>) -> Self {
        let size = bytes.len() as u64;
        Self::with(size, OnceLock::from(SplitBuf::from(bytes)), size)
    }

    fn with(size: u64, buf: OnceLock<SplitBuf>, watermark: u64) -> Self {
        Self {
            size,
            buf,
            fill: Mutex::new(Fill {
                watermark,
                claimed_to: None,
                stride: 0,
                #[cfg(test)]
                parked: 0,
            }),
            moved: Condvar::new(),
        }
    }

    /// The file's size.
    pub(crate) fn size(&self) -> u64 {
        self.size
    }

    /// Serve the read of `out.len()` bytes at `offset` (the caller keeps
    /// the range inside the file). Waits while the bytes it needs are
    /// being fetched. Without `may_start` the read gets the frontier only
    /// of a staging whose buffer an earlier fetch already allocated.
    pub(crate) fn read(&self, offset: u64, out: &mut [u8], may_start: bool) -> Staged<'_> {
        let end = offset + out.len() as u64;
        let mut fill = locks::lock(&self.fill);
        let mut woken = false;
        loop {
            if end <= fill.watermark {
                // Woken by a publish whose fetcher holds the next claim: on
                // a shared core, let its `read_at` reach the link first.
                let behind_a_fetch = woken && fill.claimed_to.is_some();
                drop(fill);
                if behind_a_fetch {
                    std::thread::yield_now();
                }
                out.copy_from_slice(self.published(offset as usize..end as usize));
                return Staged::Served;
            }
            match fill.claimed_to {
                // Being fetched, or next in line behind the fetch.
                Some(to) if offset <= to => {
                    #[cfg(test)]
                    {
                        fill.parked += 1;
                    }
                    fill = locks::wait(&self.moved, fill);
                    #[cfg(test)]
                    {
                        fill.parked -= 1;
                    }
                    woken = true;
                }
                None if offset <= fill.watermark && (may_start || self.buf.get().is_some()) => {
                    return Staged::Frontier(self.claim(&mut fill, end, None));
                }
                _ => return Staged::Miss,
            }
        }
    }

    /// The copy's first claim, on the next at most `max` unfetched bytes,
    /// waiting out a foreground fetch at the frontier. `None` once every
    /// byte is published. Each fetch of the copy takes the next claim
    /// itself ([`Claim::fill`]).
    pub(crate) fn claim_next(&self, max: u64) -> Option<Claim<'_>> {
        let mut fill = locks::lock(&self.fill);
        while fill.watermark < self.size {
            if fill.claimed_to.is_none() {
                return Some(self.copy_claim(&mut fill, max));
            }
            fill = locks::wait(&self.moved, fill);
        }
        None
    }

    /// The copy's claim from the (free, unfinished) frontier: at most
    /// `max` bytes, and a claim that would cross into the file's last
    /// stride ends where that starts.
    fn copy_claim(&self, fill: &mut Fill, max: u64) -> Claim<'_> {
        let mut end = self.size.min(fill.watermark + max);
        let last = self.size - fill.stride;
        if fill.watermark < last {
            end = end.min(last);
        }
        self.claim(fill, end, Some(max))
    }

    /// The claim on `[0, end)` of a staging nobody else has seen yet, for
    /// the read that is about to announce its copy: its bytes are the
    /// copy's first.
    pub(crate) fn claim_first(&self, end: u64) -> Claim<'_> {
        let mut fill = locks::lock(&self.fill);
        assert!(
            fill.watermark == 0 && fill.claimed_to.is_none(),
            "the first claim is taken before the staging is shared"
        );
        self.claim(&mut fill, end.min(self.size), None)
    }

    /// Hand out the (free) frontier up to `end`, to a read or, with its
    /// fetch size, to the copy.
    fn claim(&self, fill: &mut Fill, end: u64, copy: Option<u64>) -> Claim<'_> {
        fill.claimed_to = Some(end);
        Claim {
            staging: self,
            range: fill.watermark..end,
            copy,
        }
    }

    /// The bytes of `range`, which its caller saw at or below the
    /// watermark under the lock.
    fn published(&self, range: Range<usize>) -> &[u8] {
        match self.buf.get() {
            // SAFETY: the range lies below a watermark read under the
            // lock: a fetch wrote every byte of it before publishing it
            // under that lock (or the buffer was made from bytes), and
            // published bytes are never written again.
            Some(buf) => unsafe { buf.published(range) },
            // Nobody fetched yet, so the watermark is 0.
            None => {
                assert!(range.is_empty(), "published bytes have a buffer");
                &[]
            }
        }
    }

    /// The whole file, once every byte is published.
    pub(crate) fn whole(&self) -> Option<&[u8]> {
        let full = locks::lock(&self.fill).watermark == self.size;
        full.then(|| self.published(0..self.size as usize))
    }

    /// `(watermark, end of the range being fetched)`.
    #[cfg(test)]
    pub(crate) fn progress(&self) -> (u64, Option<u64>) {
        let fill = locks::lock(&self.fill);
        (fill.watermark, fill.claimed_to)
    }

    /// Reads waiting on a fetch right now.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        locks::lock(&self.fill).parked
    }
}

/// The right to fetch `range` into a [`Staging`]; dropping it, filled or
/// not, gives the frontier back and wakes everybody.
pub(crate) struct Claim<'a> {
    staging: &'a Staging,
    range: Range<u64>,
    /// The copy's fetch size when the copy holds the claim; `None` for a
    /// read's, whose published extent may set the stride.
    copy: Option<u64>,
}

impl<'a> Claim<'a> {
    /// Fetch the claimed range with `read_at(offset, dst)` and publish it;
    /// returns the bytes fetched and, for the copy's claim, the copy's next
    /// claim (`None` once the file is whole): taken in the publish's
    /// critical section, so the frontier is never free between two fetches
    /// of the copy. A failed or short read publishes nothing.
    ///
    /// `dst` is memory nobody has written: `read_at` fills it and does not
    /// read it, and the count it returns is taken as the number of bytes
    /// it wrote from the front — what [`crate::StorageDriver::read_at`]
    /// promises.
    pub(crate) fn fill(
        self,
        read_at: impl FnOnce(u64, &mut [u8]) -> Result<usize>,
    ) -> Result<(usize, Option<Claim<'a>>)> {
        let staging = self.staging;
        let buf = staging.buf.get_or_init(|| {
            let size = usize::try_from(staging.size).expect("a staged file fits in memory");
            SplitBuf::uninit(size)
        });
        let range = self.range.start as usize..self.range.end as usize;
        let want = range.len();
        // SAFETY: this is the staging's one claim (`claimed_to` was unset
        // when it was taken and stays set until `self` drops or publishes),
        // `range` is
        // the claimed range, and readers stay below the watermark, which
        // does not move until the publish below. The bytes are handed to
        // `read_at` to be written; nothing here reads them.
        let n = read_at(self.range.start, unsafe { buf.claimed(range) })?;
        if n < want {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("source returned {n} of {want} bytes"),
            )));
        }
        // All `want` bytes are written: from here on they may be read.
        let mut fill = locks::lock(&staging.fill);
        fill.watermark = self.range.end;
        fill.claimed_to = None;
        let next = match self.copy {
            Some(max) => {
                (fill.watermark < staging.size).then(|| staging.copy_claim(&mut fill, max))
            }
            None => {
                if fill.stride == 0 {
                    fill.stride = want as u64;
                }
                None
            }
        };
        // A read's fetch that leaves bytes to fetch may have woken the copy
        // parked behind it: on a shared core, let it claim them first.
        let yield_to_copy = self.copy.is_none() && fill.watermark < staging.size;
        drop(fill);
        staging.moved.notify_all();
        if yield_to_copy {
            std::thread::yield_now();
        }
        // The frontier was handed on (or freed) above: dropping this claim
        // must not free it again.
        std::mem::forget(self);
        Ok((n, next))
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        locks::lock(&self.staging.fill).claimed_to = None;
        self.staging.moved.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 % 251) as u8).collect()
    }

    /// `read_at` over `src` that adds what it reads to `fetched`.
    fn source<'a>(
        src: &'a [u8],
        fetched: &'a AtomicU64,
    ) -> impl Fn(u64, &mut [u8]) -> Result<usize> + 'a {
        move |at, dst| {
            dst.copy_from_slice(&src[at as usize..at as usize + dst.len()]);
            fetched.fetch_add(dst.len() as u64, Ordering::Relaxed);
            Ok(dst.len())
        }
    }

    /// The copy's loop, as the transfer engine runs it: its first claim,
    /// then each next one its fetches hand on. Returns the claimed ranges.
    fn copy(
        staging: &Staging,
        max: u64,
        read_at: impl Fn(u64, &mut [u8]) -> Result<usize>,
    ) -> Vec<(u64, u64)> {
        let mut claims = Vec::new();
        let mut next = staging.claim_next(max);
        while let Some(claim) = next {
            claims.push((claim.range.start, claim.range.end));
            next = claim.fill(&read_at).unwrap().1;
        }
        claims
    }

    fn served(staging: &Staging, src: &[u8], offset: usize, len: usize) -> bool {
        let mut out = vec![0u8; len];
        match staging.read(offset as u64, &mut out, true) {
            Staged::Served => {
                assert_eq!(out, src[offset..offset + len], "bytes at {offset}+{len}");
                true
            }
            _ => false,
        }
    }

    #[test]
    fn head_is_served_and_the_frontier_is_claimed_by_the_read_that_reaches_it() {
        let src = pattern(1000);
        let fetched = AtomicU64::new(0);
        let staging = Staging::empty(1000);
        // The announcing read's extent, taken before anybody else sees the
        // staging.
        let claim = staging.claim_first(400);
        assert_eq!(claim.range, 0..400);
        assert_eq!(claim.fill(source(&src, &fetched)).unwrap().0, 400);
        assert!(served(&staging, &src, 0, 400));
        assert!(served(&staging, &src, 123, 200));
        // Far ahead of anything fetched or being fetched: not ours.
        let mut out = [0u8; 10];
        assert!(matches!(staging.read(401, &mut out, true), Staged::Miss));
        // A read that straddles the watermark claims only what is missing,
        // and the buffer is there: it needs nobody's leave.
        let mut out = vec![0u8; 300];
        let Staged::Frontier(claim) = staging.read(300, &mut out, false) else {
            panic!("the frontier is free");
        };
        assert_eq!(claim.range, 400..600);
        assert_eq!(staging.progress(), (400, Some(600)));
        assert_eq!(claim.fill(source(&src, &fetched)).unwrap().0, 200);
        assert_eq!(staging.progress(), (600, None));
        assert!(served(&staging, &src, 300, 300));
        assert_eq!(fetched.load(Ordering::Relaxed), 600);
        assert!(staging.whole().is_none());
        // The copy takes the rest in bounded claims.
        let claims = copy(&staging, 256, source(&src, &fetched));
        assert_eq!(claims, [(600, 856), (856, 1000)]);
        assert_eq!(
            fetched.load(Ordering::Relaxed),
            1000,
            "nothing fetched twice"
        );
        assert_eq!(staging.whole().unwrap(), &src[..]);
    }

    #[test]
    fn the_copys_last_claim_is_one_foreground_stride_long() {
        use crate::transfer::FETCH_CHUNK;
        /// A foreground fetch at the watermark, before the copy claims.
        enum Head {
            /// The announcing read's extent, `claim_first`.
            First(u64),
            /// A reader's frontier claim.
            Read(u64),
            /// An announcing read whose fetch fails.
            Failed(u64),
        }
        const K: u64 = 1 << 10;
        const M: u64 = 1 << 20;
        /// What happened, the file's size, the foreground fetches, and the
        /// copy's claims after them (`FETCH_CHUNK` is 4 MiB).
        type Case = (&'static str, u64, &'static [Head], &'static [(u64, u64)]);
        let cases: [Case; 7] = [
            (
                "a 512 KiB announcing read",
                4 * M,
                &[Head::First(512 * K)],
                &[(512 * K, 3584 * K), (3584 * K, 4 * M)],
            ),
            (
                "a 512 KiB frontier read",
                4 * M,
                &[Head::Read(512 * K)],
                &[(512 * K, 3584 * K), (3584 * K, 4 * M)],
            ),
            (
                "no foreground fetch",
                10 * M,
                &[],
                &[(0, 4 * M), (4 * M, 8 * M), (8 * M, 10 * M)],
            ),
            ("a whole-file head", 4 * M, &[Head::First(4 * M)], &[]),
            (
                "a head longer than half the file",
                4 * M,
                &[Head::First(3 * M)],
                &[(3 * M, 4 * M)],
            ),
            (
                "a failed head",
                4 * M,
                &[Head::Failed(512 * K)],
                &[(0, 4 * M)],
            ),
            (
                "the first extent sets the stride, later ones do not",
                4 * M,
                &[Head::First(512 * K), Head::Read(M)],
                &[(1536 * K, 3584 * K), (3584 * K, 4 * M)],
            ),
        ];
        for (case, size, heads, want) in cases {
            let src = pattern(size as usize);
            let fetched = AtomicU64::new(0);
            let staging = Staging::empty(size);
            for head in heads {
                let at = staging.progress().0;
                match *head {
                    Head::First(len) => {
                        staging
                            .claim_first(len)
                            .fill(source(&src, &fetched))
                            .unwrap();
                    }
                    Head::Read(len) => {
                        let mut out = vec![0u8; len as usize];
                        let Staged::Frontier(claim) = staging.read(at, &mut out, true) else {
                            panic!("{case}: the frontier is free");
                        };
                        claim.fill(source(&src, &fetched)).unwrap();
                    }
                    Head::Failed(len) => {
                        let failed = staging
                            .claim_first(len)
                            .fill(|_, _| Err(Error::Injected("source down".into())));
                        assert!(failed.is_err(), "{case}");
                    }
                }
            }
            let claims = copy(&staging, FETCH_CHUNK, source(&src, &fetched));
            assert_eq!(claims, want, "{case}");
            assert_eq!(fetched.load(Ordering::Relaxed), size, "{case}");
            assert_eq!(staging.whole().unwrap(), &src[..], "{case}");
        }
    }

    #[test]
    fn a_staging_created_full_needs_no_fetch() {
        let src = pattern(64);
        let staging = Staging::full(src.clone());
        assert!(staging.claim_next(1 << 20).is_none());
        assert_eq!(staging.whole().unwrap(), &src[..]);
        assert!(served(&staging, &src, 10, 54));
        // A file without bytes is full whichever way it was made, and a
        // read of nothing is served without a buffer.
        for empty in [Staging::full(Vec::new()), Staging::empty(0)] {
            assert!(empty.claim_next(1).is_none());
            assert!(empty.whole().unwrap().is_empty());
            assert!(matches!(empty.read(0, &mut [], false), Staged::Served));
        }
    }

    #[test]
    fn a_failed_short_or_unwound_fetch_publishes_nothing_and_frees_the_frontier() {
        let src = pattern(100);
        let staging = Staging::empty(100);
        // Nobody fetched yet: a read may be the first fetch only if it is
        // allowed to start the buffer.
        let mut out = [0u8; 30];
        assert!(matches!(staging.read(0, &mut out, false), Staged::Miss));
        let claim = staging.claim_next(50).unwrap();
        assert!(claim
            .fill(|_, _| Err(Error::Injected("source down".into())))
            .is_err());
        assert_eq!(staging.progress(), (0, None));
        let claim = staging.claim_next(50).unwrap();
        let short = claim.fill(|_, dst| Ok(dst.len() - 1));
        assert!(
            matches!(short, Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof)
        );
        assert_eq!(staging.progress(), (0, None));
        let claim = staging.claim_next(50).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            claim.fill(|_, _| panic!("driver bug"))
        }));
        assert!(unwound.is_err());
        assert_eq!(staging.progress(), (0, None));
        // Whoever comes next gets the frontier, not a wait.
        let fetched = AtomicU64::new(0);
        let mut out = [0u8; 30];
        let Staged::Frontier(claim) = staging.read(0, &mut out, true) else {
            panic!("the frontier is free again");
        };
        claim.fill(source(&src, &fetched)).unwrap();
        assert!(served(&staging, &src, 0, 30));
    }

    #[test]
    fn readers_inside_a_claim_wait_for_its_fetch_and_no_longer() {
        let src = pattern(4096);
        let fetched = AtomicU64::new(0);
        let staging = Staging::empty(4096);
        let claim = staging.claim_next(2048).unwrap();
        let (done, results) = mpsc::channel();
        std::thread::scope(|s| {
            // Inside the claim, straddling its end, and right behind it:
            // all wait; the last then finds the frontier free.
            for (offset, len) in [(0, 512), (1000, 1048), (1500, 1000), (2048, 100)] {
                let (staging, src, fetched, done) = (&staging, &src, &fetched, done.clone());
                s.spawn(move || {
                    let mut out = vec![0u8; len];
                    loop {
                        match staging.read(offset as u64, &mut out, true) {
                            Staged::Served => break,
                            Staged::Frontier(claim) => {
                                claim.fill(source(src, fetched)).unwrap();
                            }
                            Staged::Miss => panic!("{offset}+{len} is at or behind the claim"),
                        }
                    }
                    assert_eq!(out, src[offset..offset + len]);
                    done.send(offset).unwrap();
                });
            }
            // Nobody is served while the fetch is out.
            assert!(results.recv_timeout(Duration::from_millis(50)).is_err());
            claim.fill(source(&src, &fetched)).unwrap();
            let mut offsets: Vec<usize> = (0..4)
                .map(|_| results.recv_timeout(Duration::from_secs(10)).unwrap())
                .collect();
            offsets.sort_unstable();
            assert_eq!(offsets, [0, 1000, 1500, 2048]);
        });
        // [0, 2048) by the claim; the two reads past its end fetched the
        // rest of what they needed between them, each byte once.
        assert_eq!(fetched.load(Ordering::Relaxed), staging.progress().0);
        assert!(staging.progress().0 >= 2500);
    }

    #[test]
    fn a_reader_woken_by_the_copys_body_finds_the_last_stride_claimed() {
        const SIZE: u64 = 1000;
        const STRIDE: u64 = 100;
        let src = pattern(SIZE as usize);
        let (copied, read) = (AtomicU64::new(0), AtomicU64::new(0));
        let staging = Staging::empty(SIZE);
        // The announcing read's extent sets the stride; the copy's body
        // claim stops where the last stride starts.
        let head = staging.claim_first(STRIDE).fill(source(&src, &read));
        assert!(head.unwrap().1.is_none(), "a read's fetch hands nothing on");
        let body = staging.claim_next(SIZE).unwrap();
        assert_eq!(body.range, STRIDE..SIZE - STRIDE);
        let (woke, wakes) = mpsc::channel();
        std::thread::scope(|s| {
            // The reader walks the rest of the file a stride at a time and
            // reports the staging's progress when its first read is served.
            let (staging, src, read) = (&staging, &src, &read);
            s.spawn(move || {
                let mut out = vec![0u8; STRIDE as usize];
                for offset in (STRIDE..SIZE).step_by(STRIDE as usize) {
                    loop {
                        match staging.read(offset, &mut out, true) {
                            Staged::Served => break,
                            Staged::Frontier(claim) => {
                                claim.fill(source(src, read)).unwrap();
                            }
                            Staged::Miss => panic!("the reader is never ahead of the copy"),
                        }
                    }
                    assert_eq!(out, src[offset as usize..(offset + STRIDE) as usize]);
                    if offset == STRIDE {
                        woke.send(staging.progress()).unwrap();
                    }
                }
            });
            // The body's fetch is held while the reader is parked inside it.
            assert!(wakes.recv_timeout(Duration::from_millis(50)).is_err());
            let (n, last) = body.fill(source(src, &copied)).unwrap();
            assert_eq!(n as u64, SIZE - 2 * STRIDE);
            // The copy is held again: the reader woken by the body's publish
            // finds the last stride already the copy's, not a free frontier.
            let at_wake = wakes.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(at_wake, (SIZE - STRIDE, Some(SIZE)));
            let last = last.expect("the copy holds the last stride");
            assert!(last.fill(source(src, &copied)).unwrap().1.is_none());
        });
        // The reader was served without a source read of its own.
        assert_eq!(read.load(Ordering::Relaxed), STRIDE);
        assert_eq!(copied.load(Ordering::Relaxed), SIZE - STRIDE);
        assert_eq!(staging.whole().unwrap(), &src[..]);
    }

    #[test]
    fn every_byte_is_fetched_once_however_reads_and_the_copy_interleave() {
        const SIZE: usize = 300_000;
        let src = pattern(SIZE);
        for round in 0..20u64 {
            let fetched = AtomicU64::new(0);
            let staging = Staging::empty(SIZE as u64);
            // Some rounds start from a prefix an earlier read fetched.
            let mut head = vec![0u8; (round as usize * 977) % 5000];
            if let Staged::Frontier(claim) = staging.read(0, &mut head, true) {
                claim.fill(source(&src, &fetched)).unwrap();
            }
            std::thread::scope(|s| {
                let (staging, src, fetched) = (&staging, &src, &fetched);
                s.spawn(move || {
                    let read_at = source(src, fetched);
                    copy(staging, 40_000, |at, dst| {
                        std::thread::yield_now();
                        read_at(at, dst)
                    });
                });
                // Front-to-back walkers with their own chunk sizes; the
                // last chunk of each is short.
                for reader in 0..6u64 {
                    s.spawn(move || {
                        let chunk = [517, 4096, 10_000, 65_536, 3, 33_333][reader as usize];
                        let mut out = vec![0u8; chunk];
                        let mut offset = 0;
                        while offset < SIZE {
                            let len = chunk.min(SIZE - offset);
                            match staging.read(offset as u64, &mut out[..len], true) {
                                Staged::Served => {
                                    assert_eq!(out[..len], src[offset..offset + len]);
                                    offset += len;
                                }
                                Staged::Frontier(claim) => {
                                    claim.fill(source(src, fetched)).unwrap();
                                }
                                Staged::Miss => panic!("a walker is never ahead of the frontier"),
                            }
                        }
                    });
                }
            });
            assert_eq!(fetched.load(Ordering::Relaxed), SIZE as u64);
            assert_eq!(staging.whole().unwrap(), &src[..]);
        }
    }
}
