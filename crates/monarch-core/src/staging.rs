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
//! Invariants:
//!
//! - **prefix only** — bytes below the watermark are final and never
//!   written again; bytes at or above it are never read;
//! - **one claim** — the claimed range starts at the watermark and is
//!   written only by the claim's holder;
//! - **released on every exit** — a [`Claim`] is an RAII guard: success,
//!   error and unwind all give the frontier back and wake the waiters, so
//!   nobody waits longer than the driver call they wait on — whatever
//!   becomes of the copy meanwhile;
//! - **unregistered last** — the transfer engine stops handing a staging
//!   out only after the file's metadata left `Copying`. Whoever still
//!   holds it then is served from it as before.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::{Error, Result};

/// A byte buffer written front to back by one thread at a time while other
/// threads read the part already written. Which part that is, and who may
/// write, is the [`Staging`]'s business; this type only hands out the
/// slices.
struct SplitBuf(Box<[UnsafeCell<u8>]>);

// SAFETY: the cells are plain bytes. Every shared access goes through
// `published` or `claimed`, whose callers keep the ranges they read and
// the one range being written disjoint (see `Staging`).
unsafe impl Sync for SplitBuf {}

impl From<Vec<u8>> for SplitBuf {
    fn from(bytes: Vec<u8>) -> Self {
        let bytes: Box<[u8]> = bytes.into_boxed_slice();
        // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`: both
        // slice types have one layout, and the allocation may be freed
        // through either.
        Self(unsafe { Box::from_raw(Box::into_raw(bytes) as *mut [UnsafeCell<u8>]) })
    }
}

impl SplitBuf {
    fn len(&self) -> usize {
        self.0.len()
    }

    /// The bytes of `range` (bounds-checked).
    ///
    /// # Safety
    /// No byte of `range` is written while the slice lives: the range lies
    /// below the watermark its caller observed under the staging's lock.
    unsafe fn published(&self, range: Range<usize>) -> &[u8] {
        let cells = &self.0[range];
        // SAFETY: in bounds by the slicing above; not written concurrently
        // by the caller's contract.
        unsafe { std::slice::from_raw_parts(cells.as_ptr().cast::<u8>(), cells.len()) }
    }

    /// The bytes of `range` for writing (bounds-checked).
    ///
    /// # Safety
    /// The caller holds the staging's one claim, `range` lies inside it,
    /// and no other slice of the range exists: readers stay below the
    /// watermark, which is the claim's start.
    #[allow(clippy::mut_from_ref)]
    unsafe fn claimed(&self, range: Range<usize>) -> &mut [u8] {
        let cells = &self.0[range];
        // SAFETY: in bounds by the slicing above; exclusive by the
        // caller's contract.
        unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(cells.as_ptr()), cells.len()) }
    }
}

/// What the lock guards.
struct Fill {
    /// Holds `[0, watermark)`. As long as nobody fetched anything it is no
    /// larger than the bytes the staging was created with — a queued copy
    /// costs its donated prefix, not its file; the first fetch replaces it
    /// with a file-sized buffer.
    buf: Arc<SplitBuf>,
    watermark: u64,
    /// End of the range being fetched, which starts at the watermark.
    claimed_to: Option<u64>,
}

/// One file's install staging. See the module docs for the protocol.
pub(crate) struct Staging {
    size: u64,
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
    /// A staging for a file of `size` bytes whose first `head.len()` bytes
    /// are already known (a whole-file read or a peer fetch makes a
    /// staging that is full from the start).
    pub(crate) fn new(size: u64, mut head: Vec<u8>) -> Self {
        head.truncate(usize::try_from(size).unwrap_or(usize::MAX));
        Self {
            size,
            fill: Mutex::new(Fill {
                watermark: head.len() as u64,
                buf: Arc::new(SplitBuf::from(head)),
                claimed_to: None,
            }),
            moved: Condvar::new(),
        }
    }

    /// Serve the read of `out.len()` bytes at `offset` (the caller keeps
    /// the range inside the file). Waits while the bytes it needs are
    /// being fetched. Without `may_grow` the read gets the frontier only
    /// of a staging that already holds its file-sized buffer.
    pub(crate) fn read(&self, offset: u64, out: &mut [u8], may_grow: bool) -> Staged<'_> {
        let end = offset + out.len() as u64;
        let mut fill = self.fill.lock();
        loop {
            if end <= fill.watermark {
                let buf = Arc::clone(&fill.buf);
                drop(fill);
                // SAFETY: the range lies below the watermark read under
                // the lock, and published bytes are never written again.
                out.copy_from_slice(unsafe { buf.published(offset as usize..end as usize) });
                return Staged::Served;
            }
            match fill.claimed_to {
                // Being fetched, or next in line behind the fetch.
                Some(to) if offset <= to => self.moved.wait(&mut fill),
                None if offset <= fill.watermark
                    && (may_grow || fill.buf.len() as u64 == self.size) =>
                {
                    return Staged::Frontier(self.claim(&mut fill, end));
                }
                _ => return Staged::Miss,
            }
        }
    }

    /// The copy's side: claim the next at most `max` unfetched bytes,
    /// waiting out a foreground fetch at the frontier. `None` once every
    /// byte is published.
    pub(crate) fn claim_next(&self, max: u64) -> Option<Claim<'_>> {
        let mut fill = self.fill.lock();
        while fill.watermark < self.size {
            if fill.claimed_to.is_none() {
                let end = self.size.min(fill.watermark + max);
                return Some(self.claim(&mut fill, end));
            }
            self.moved.wait(&mut fill);
        }
        None
    }

    /// Hand out the (free) frontier up to `end`.
    fn claim(&self, fill: &mut Fill, end: u64) -> Claim<'_> {
        fill.claimed_to = Some(end);
        Claim {
            staging: self,
            range: fill.watermark..end,
        }
    }

    /// The whole file, once every byte is published.
    pub(crate) fn whole(&self) -> Option<Whole> {
        let fill = self.fill.lock();
        (fill.watermark == self.size).then(|| Whole(Arc::clone(&fill.buf)))
    }

    /// `(watermark, end of the range being fetched)`.
    #[cfg(test)]
    pub(crate) fn progress(&self) -> (u64, Option<u64>) {
        let fill = self.fill.lock();
        (fill.watermark, fill.claimed_to)
    }
}

/// Every byte of a full [`Staging`].
pub(crate) struct Whole(Arc<SplitBuf>);

impl std::ops::Deref for Whole {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `Staging::whole` saw the watermark at the file's size,
        // so every byte is published and none is written again.
        unsafe { self.0.published(0..self.0.len()) }
    }
}

/// The right to fetch `range` into a [`Staging`]; dropping it, filled or
/// not, gives the frontier back and wakes everybody.
pub(crate) struct Claim<'a> {
    staging: &'a Staging,
    range: Range<u64>,
}

impl Claim<'_> {
    /// Fetch the claimed range with `read_at(offset, dst)` and publish it;
    /// returns the bytes fetched. A failed or short read publishes nothing.
    pub(crate) fn fill(
        self,
        read_at: impl FnOnce(u64, &mut [u8]) -> Result<usize>,
    ) -> Result<usize> {
        let staging = self.staging;
        let buf = {
            let mut fill = staging.fill.lock();
            if (fill.buf.len() as u64) < staging.size {
                // The first fetch: from here on the staging holds a whole
                // file.
                let mut whole = vec![0u8; staging.size as usize];
                let have = fill.watermark as usize;
                // SAFETY: `[0, watermark)` is published.
                whole[..have].copy_from_slice(unsafe { fill.buf.published(0..have) });
                fill.buf = Arc::new(SplitBuf::from(whole));
            }
            Arc::clone(&fill.buf)
        };
        let range = self.range.start as usize..self.range.end as usize;
        let want = range.len();
        // SAFETY: this is the staging's one claim (`claimed_to` was unset
        // when it was taken and stays set until `self` drops), `range` is
        // the claimed range, and readers stay below the watermark, which
        // does not move until the publish below.
        let n = read_at(self.range.start, unsafe { buf.claimed(range) })?;
        if n < want {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("source returned {n} of {want} bytes"),
            )));
        }
        staging.fill.lock().watermark = self.range.end;
        Ok(n)
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.staging.fill.lock().claimed_to = None;
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
        let staging = Staging::new(1000, src[..400].to_vec());
        assert!(served(&staging, &src, 0, 400));
        assert!(served(&staging, &src, 123, 200));
        // Far ahead of anything fetched or being fetched: not ours.
        let mut out = [0u8; 10];
        assert!(matches!(staging.read(401, &mut out, true), Staged::Miss));
        // A read that straddles the watermark claims only what is missing.
        let mut out = vec![0u8; 300];
        // …once somebody may start the file-sized buffer.
        assert!(matches!(staging.read(300, &mut out, false), Staged::Miss));
        let Staged::Frontier(claim) = staging.read(300, &mut out, true) else {
            panic!("the frontier is free");
        };
        assert_eq!(claim.range, 400..600);
        assert_eq!(staging.progress(), (400, Some(600)));
        assert_eq!(claim.fill(source(&src, &fetched)).unwrap(), 200);
        assert_eq!(staging.progress(), (600, None));
        assert!(served(&staging, &src, 300, 300));
        assert_eq!(fetched.load(Ordering::Relaxed), 200);
        assert!(staging.whole().is_none());
        // The copy takes the rest in bounded claims.
        let mut claims = Vec::new();
        while let Some(claim) = staging.claim_next(256) {
            claims.push(claim.range.clone());
            claim.fill(source(&src, &fetched)).unwrap();
        }
        assert_eq!(claims, [600..856, 856..1000]);
        assert_eq!(
            fetched.load(Ordering::Relaxed),
            600,
            "nothing fetched twice"
        );
        assert_eq!(&*staging.whole().unwrap(), &src[..]);
    }

    #[test]
    fn a_staging_created_full_needs_no_fetch() {
        let src = pattern(64);
        // Longer than the file says: the excess is dropped.
        let mut bytes = src.clone();
        bytes.extend_from_slice(b"tail");
        let staging = Staging::new(64, bytes);
        assert!(staging.claim_next(1 << 20).is_none());
        assert_eq!(&*staging.whole().unwrap(), &src[..]);
        assert!(served(&staging, &src, 10, 54));
        let empty = Staging::new(0, Vec::new());
        assert!(empty.claim_next(1).is_none());
        assert!(empty.whole().unwrap().is_empty());
    }

    #[test]
    fn a_failed_short_or_unwound_fetch_publishes_nothing_and_frees_the_frontier() {
        let src = pattern(100);
        let staging = Staging::new(100, Vec::new());
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
        let staging = Staging::new(4096, Vec::new());
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
    fn every_byte_is_fetched_once_however_reads_and_the_copy_interleave() {
        const SIZE: usize = 300_000;
        let src = pattern(SIZE);
        for round in 0..20u64 {
            let fetched = AtomicU64::new(0);
            let staging = Staging::new(SIZE as u64, src[..(round as usize * 977) % 5000].to_vec());
            std::thread::scope(|s| {
                let (staging, src, fetched) = (&staging, &src, &fetched);
                s.spawn(move || {
                    while let Some(claim) = staging.claim_next(40_000) {
                        claim.fill(source(src, fetched)).unwrap();
                        std::thread::yield_now();
                    }
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
            assert_eq!(
                fetched.load(Ordering::Relaxed) + staging_head(round),
                SIZE as u64
            );
            assert_eq!(&*staging.whole().unwrap(), &src[..]);
        }

        fn staging_head(round: u64) -> u64 {
            (round * 977) % 5000
        }
    }
}
