//! Per-thread striping for counters the read hit path touches.
//!
//! A counter every reader increments is a cache line bouncing between
//! cores, and even a line no other core touches costs a locked instruction
//! per add. [`Striped<T>`] keeps [`STRIPES`] copies of `T` a thread can own
//! and as many shared ones, each on cache lines of its own, allocated on
//! first use. A live thread owns one stripe: it claims the lowest free
//! index on first use (a compare-and-swap on one claim mask, so its index
//! is the same in every striped value) and a thread-local destructor
//! releases it at exit. The owner, the copy's only writer, adds with a
//! relaxed load and store ([`Local::add`]). A thread that found no stripe
//! free is handed a shared copy round-robin and adds there with
//! `fetch_add`: past [`STRIPES`] live threads, the threads beyond share
//! [`STRIPES`] lines, fewer to a line than if all of them shared. The
//! release and the next claim are a release/acquire pair, so a new owner
//! continues from the last one's values. A snapshot folds the copies.
//!
//! [`StripedRwLock<T>`] puts one gate per stripe index in front of a
//! read-mostly value: a reader locks its own stripe's gate, a writer all.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::locks;

/// Stripes a thread can own; the shared copies follow them.
pub(crate) const STRIPES: usize = 16;
const COPIES: usize = 2 * STRIPES;

/// Bit `i` set: a live thread owns stripe `i`.
static CLAIMED: AtomicU32 = AtomicU32::new(0);
/// Threads handed a shared copy so far.
static SHARED: AtomicUsize = AtomicUsize::new(0);

/// The next shared copy, round-robin.
fn shared() -> usize {
    STRIPES + SHARED.fetch_add(1, Ordering::Relaxed) % STRIPES
}

/// The calling thread's stripe (`usize::MAX` until its first use).
struct Claim(Cell<usize>);

impl Drop for Claim {
    fn drop(&mut self) {
        if self.0.get() < STRIPES {
            CLAIMED.fetch_and(!(1 << self.0.get()), Ordering::Release);
        }
    }
}

thread_local! {
    static CLAIM: Claim = const { Claim(Cell::new(usize::MAX)) };
}

/// The calling thread's stripe, claimed on first use; a shared copy when
/// none is free, or when the thread is exiting.
#[inline]
fn stripe_index() -> usize {
    let claim = || {
        let free = |held: u32| !held & ((1 << STRIPES) - 1);
        CLAIMED
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |held| {
                (free(held) != 0).then(|| held | 1 << free(held).trailing_zeros())
            })
            .map_or_else(|_| shared(), |held| free(held).trailing_zeros() as usize)
    };
    CLAIM
        .try_with(|c| {
            if c.0.get() == usize::MAX {
                c.0.set(claim());
            }
            c.0.get()
        })
        .unwrap_or_else(|_| shared())
}

/// Keeps neighbouring stripes (separate heap allocations, possibly
/// adjacent) off each other's cache lines.
#[derive(Debug)]
#[repr(align(128))]
struct Padded<T>(T);

/// 2 × [`STRIPES`] lazily allocated copies of `T`: the owned ones, then the
/// shared ones.
#[derive(Debug)]
pub(crate) struct Striped<T> {
    cells: [OnceLock<Box<Padded<T>>>; COPIES],
}

impl<T> Striped<T> {
    pub(crate) const fn new() -> Self {
        Self {
            cells: [const { OnceLock::new() }; COPIES],
        }
    }

    /// The calling thread's copy, built with `init` on first use.
    #[inline]
    pub(crate) fn local(&self, init: impl FnOnce() -> T) -> Local<'_, T> {
        let stripe = stripe_index();
        let cell = self.cells[stripe].get_or_init(|| Box::new(Padded(init())));
        Local(&cell.0, stripe < STRIPES, PhantomData)
    }

    /// The calling thread's own copy, built with `init` on first use;
    /// `None` on a thread that owns no stripe, for which nothing is built.
    #[inline]
    pub(crate) fn owned(&self, init: impl FnOnce() -> T) -> Option<&T> {
        let cell = self.cells[..STRIPES].get(stripe_index())?;
        Some(&cell.get_or_init(|| Box::new(Padded(init()))).0)
    }

    /// Every copy allocated so far.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.cells.iter().filter_map(|c| c.get().map(|p| &p.0))
    }
}

impl<T> Default for Striped<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Add `n` (wrapping) to `cell` with a plain load and store: exact only
/// from the one thread that writes it, the owner of its stripe.
#[inline]
pub(crate) fn add_owned(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// The calling thread's copy of a [`Striped`] value, and whether the thread
/// owns it. Not `Send`: an owner's plain adds are exact from its thread only.
pub(crate) struct Local<'a, T>(&'a T, bool, PhantomData<*const ()>);

impl<T> Local<'_, T> {
    /// Add `n` (wrapping) to the cell `cell` picks out of this copy.
    #[inline]
    pub(crate) fn add(&self, cell: impl FnOnce(&T) -> &AtomicU64, n: u64) {
        let cell = cell(self.0);
        if self.1 {
            add_owned(cell, n);
        } else {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise the cell `cell` picks out of this copy to `value`.
    #[inline]
    pub(crate) fn max(&self, cell: impl FnOnce(&T) -> &AtomicU64, value: u64) {
        let cell = cell(self.0);
        // A new maximum is rare; the load keeps the common case read-only.
        if value > cell.load(Ordering::Relaxed) {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }
}

impl<T> Deref for Local<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0
    }
}

/// A reader-writer lock for a value that is read on a hot path and written
/// rarely: one gate per stripe index (2 × [`STRIPES`]), each on cache lines
/// of its own, in front of one `T`. [`read`](Self::read) takes the calling
/// thread's gate shared — two atomic operations on a line only the thread
/// owning that stripe touches (or the threads a shared copy was handed
/// to) — and [`write`](Self::write) takes every gate exclusive, in index
/// order (so two writers cannot deadlock), which costs one uncontended lock
/// pair a gate. The gates are allocated eagerly: 4 KiB a lock.
///
/// A thread must not ask for `write` while it holds a read guard (there is
/// no upgrade: it would wait for itself). Gate poisoning is ignored, so `T`
/// must stay valid if a writer panics between two of its updates.
pub(crate) struct StripedRwLock<T> {
    gates: Box<[Padded<RwLock<()>>; COPIES]>,
    value: UnsafeCell<T>,
}

// SAFETY: the same bounds as `std::sync::RwLock<T>`: a read guard hands out
// `&T` on many threads at once (`T: Sync`) and a write guard hands out
// `&mut T` on whichever thread locked (`T: Send`); the gates keep the two
// apart (see the guards' `Deref` impls).
unsafe impl<T: Send + Sync> Sync for StripedRwLock<T> {}

impl<T> StripedRwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        Self {
            gates: Box::new(std::array::from_fn(|_| Padded(RwLock::new(())))),
            value: UnsafeCell::new(value),
        }
    }

    /// Shared access through the calling thread's gate.
    #[inline]
    pub(crate) fn read(&self) -> StripedReadGuard<'_, T> {
        self.read_stripe(stripe_index())
    }

    fn read_stripe(&self, stripe: usize) -> StripedReadGuard<'_, T> {
        let gate = locks::read(&self.gates[stripe].0);
        StripedReadGuard {
            // SAFETY: a writer holds every gate exclusive, this one
            // included, for as long as it can reach the value mutably; so
            // while `gate` is held shared nobody writes the value, and the
            // reference lives no longer than `gate` (same guard).
            value: unsafe { &*self.value.get() },
            _gate: gate,
        }
    }

    /// Exclusive access: returns once every reader that entered before it,
    /// on any stripe, has left.
    pub(crate) fn write(&self) -> StripedWriteGuard<'_, T> {
        StripedWriteGuard {
            // `from_fn` calls in index order.
            _gates: std::array::from_fn(|i| locks::write(&self.gates[i].0)),
            lock: self,
        }
    }
}

/// Shared access to the value of a [`StripedRwLock`].
pub(crate) struct StripedReadGuard<'a, T> {
    value: &'a T,
    _gate: RwLockReadGuard<'a, ()>,
}

impl<T> Deref for StripedReadGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.value
    }
}

/// Exclusive access to the value of a [`StripedRwLock`].
pub(crate) struct StripedWriteGuard<'a, T> {
    lock: &'a StripedRwLock<T>,
    _gates: [RwLockWriteGuard<'a, ()>; COPIES],
}

impl<T> Deref for StripedWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard holds every gate exclusive, so no read guard
        // and no other write guard exists while it lives.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for StripedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes this the only reference
        // handed out through the guard.
        unsafe { &mut *self.lock.value.get() }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn copies_are_lazy_and_sum_across_threads() {
        let s: Striped<AtomicU64> = Striped::new();
        assert_eq!(s.iter().count(), 0, "nothing allocated before first use");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.local(AtomicU64::default).add(|c| c, 1);
                    }
                });
            }
        });
        let total: u64 = s.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 4000);
        assert!(s.iter().count() <= 4);
    }

    /// Whether the calling test, `name`, is alone with the claim mask.
    /// Threads of other tests hold stripes too, so in the test binary the
    /// test runs itself again in a child process, checks that it passed
    /// there and gets `false`; in the child it gets `true`, and runs.
    pub(crate) fn alone(name: &str) -> bool {
        const CHILD: &str = "MONARCH_STRIPE_ALONE_CHILD";
        if std::env::var_os(CHILD).is_some() {
            return true;
        }
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", name, "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .expect("the child test runs");
        let log = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success() && log.contains("1 passed"), "{log}");
        false
    }

    #[test]
    fn live_threads_own_distinct_stripes_and_hand_them_on() {
        if !alone("stripe::tests::live_threads_own_distinct_stripes_and_hand_them_on") {
            return;
        }
        // Two waves of more threads than stripes, all of a wave alive at
        // once; the second starts after the first has exited.
        const THREADS: usize = 24;
        let s: Striped<AtomicU64> = Striped::new();
        // How many live threads own each stripe.
        let owners: [AtomicU64; STRIPES] = [const { AtomicU64::new(0) }; STRIPES];
        // Each thread's stripe, and whether another live thread owned it.
        let wave = || -> Vec<(usize, bool)> {
            let all_in = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                let threads: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (s, owners, all_in) = (&s, &owners, &all_in);
                        scope.spawn(move || {
                            for _ in 0..(t + 1) * 100 {
                                s.local(AtomicU64::default).add(|c| c, 1);
                            }
                            let stripe = stripe_index();
                            let owned = stripe < STRIPES;
                            let clash = owned && owners[stripe].fetch_add(1, Ordering::SeqCst) > 0;
                            // Nobody leaves before everybody has claimed.
                            all_in.wait();
                            if owned {
                                owners[stripe].fetch_sub(1, Ordering::SeqCst);
                            }
                            (stripe, clash)
                        })
                    })
                    .collect();
                // An explicit join waits for the thread's exit, its
                // thread-local destructors (the release) included.
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            })
        };
        for stripes in [wave(), wave()] {
            assert!(stripes.iter().all(|&(_, clash)| !clash), "{stripes:?}");
            let mut held: Vec<usize> = stripes.iter().map(|&(i, _)| i).collect();
            held.sort_unstable();
            // Every stripe owned once (the second time: claimed again after
            // the first wave released it), and the threads left over each
            // on a shared copy of their own.
            let (owned, rest) = held.split_at(STRIPES);
            assert!(owned.iter().copied().eq(0..STRIPES), "{stripes:?}");
            assert!(rest.iter().all(|&i| i >= STRIPES), "{stripes:?}");
            assert!(rest.windows(2).all(|w| w[0] < w[1]), "{stripes:?}");
        }
        let total: u64 = s.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let per_wave = (1..=THREADS as u64).sum::<u64>() * 100;
        assert_eq!(total, 2 * per_wave, "an owner's add was lost");
    }

    #[test]
    fn a_writer_excludes_readers_on_every_stripe() {
        let lock = StripedRwLock::new(0u32);
        let mut w = lock.write();
        *w = 7;
        for gate in lock.gates.iter() {
            assert!(gate.0.try_read().is_err(), "a gate is open under a writer");
        }
        drop(w);
        for stripe in 0..COPIES {
            assert_eq!(*lock.read_stripe(stripe), 7);
        }
    }

    #[test]
    fn readers_on_different_stripes_hold_their_gates_at_once() {
        let lock = StripedRwLock::new(1u32);
        let (a, b) = (lock.read_stripe(0), lock.read_stripe(1));
        assert_eq!(*a + *b, 2);
        // Each holds its own gate, and only that one.
        assert!(lock.gates[0].0.try_write().is_err());
        assert!(lock.gates[1].0.try_write().is_err());
        assert!(lock.gates[2].0.try_write().is_ok());
        // A second reader of a held stripe shares its gate.
        assert_eq!(*lock.read_stripe(0), 1);
    }

    #[test]
    fn write_returns_only_after_an_earlier_reader_has_left() {
        use std::sync::atomic::AtomicBool;
        let lock = StripedRwLock::new(0u32);
        let reader_left = AtomicBool::new(false);
        let entered = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                // The last gate: the writer already holds every other
                // gate when it gets to this one.
                let r = lock.read_stripe(COPIES - 1);
                entered.wait();
                // Long enough for a writer that does not wait to get in.
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert_eq!(*r, 0, "written under a reader");
                reader_left.store(true, Ordering::Release);
                drop(r);
            });
            entered.wait();
            let mut w = lock.write();
            assert!(
                reader_left.load(Ordering::Acquire),
                "write() overtook a reader"
            );
            *w = 1;
        });
    }

    #[test]
    fn more_threads_than_stripes_still_exclude() {
        // More readers than gates, so that some share one; a writer bumps
        // the two halves one after the other, and no reader may see them
        // apart.
        let lock = StripedRwLock::new((0u64, 0u64));
        let threads = 2 * STRIPES + 1;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..400 {
                        if i % 10 == 0 {
                            let mut w = lock.write();
                            w.0 += 1;
                            std::thread::yield_now();
                            w.1 += 1;
                        } else {
                            let r = lock.read();
                            assert_eq!(r.0, r.1, "read between a writer's two updates");
                        }
                    }
                });
            }
        });
        let w = lock.write();
        assert_eq!((w.0, w.1), (threads as u64 * 40, threads as u64 * 40));
    }
}
