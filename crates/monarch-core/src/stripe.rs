//! Per-thread striping for counters the read hit path touches.
//!
//! A counter every reader increments is one cache line bouncing between
//! cores. [`Striped<T>`] keeps up to [`STRIPES`] copies of `T`, each on its
//! own cache lines; a thread records into the copy its index selects and a
//! snapshot folds the copies together. Copies are allocated on first use,
//! so a freshly built registry costs nothing per counter. With more threads
//! than stripes two threads share a copy — still correct (the cells are
//! atomics), just no longer private.
//!
//! [`StripedRwLock<T>`] applies the same idea to a read-mostly structure
//! every reader must hold still while it works: one value behind
//! [`STRIPES`] gates. A reader locks only its own stripe's gate, so two
//! readers on different stripes write no common cache line; a writer locks
//! all of them.

use std::cell::{Cell, UnsafeCell};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::locks;

/// Copies kept per striped counter.
pub(crate) const STRIPES: usize = 16;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe, handed out round-robin on first use so
/// threads started together land on different stripes.
#[inline]
fn stripe_index() -> usize {
    STRIPE.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % STRIPES);
        }
        s.get()
    })
}

/// Keeps neighbouring stripes (separate heap allocations, possibly
/// adjacent) off each other's cache lines.
#[repr(align(128))]
struct Padded<T>(T);

/// Up to [`STRIPES`] lazily allocated copies of `T`.
pub(crate) struct Striped<T> {
    cells: [OnceLock<Box<Padded<T>>>; STRIPES],
}

impl<T> Striped<T> {
    pub(crate) const fn new() -> Self {
        Self {
            cells: [const { OnceLock::new() }; STRIPES],
        }
    }

    /// The calling thread's copy, built with `init` on first use.
    #[inline]
    pub(crate) fn local(&self, init: impl FnOnce() -> T) -> &T {
        &self.cells[stripe_index()]
            .get_or_init(|| Box::new(Padded(init())))
            .0
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

/// A reader-writer lock for a value that is read on a hot path and written
/// rarely: [`STRIPES`] gates, each on cache lines of its own, in front of
/// one `T`. [`read`](Self::read) takes the calling thread's gate shared —
/// two atomic operations on a line only the threads of that stripe touch —
/// and [`write`](Self::write) takes every gate exclusive, in index order
/// (so two writers cannot deadlock), which costs `STRIPES` uncontended
/// lock pairs. The gates are allocated eagerly: 2 KiB a lock.
///
/// A thread must not ask for `write` while it holds a read guard (there is
/// no upgrade: it would wait for itself). Gate poisoning is ignored, so `T`
/// must stay valid if a writer panics between two of its updates.
pub(crate) struct StripedRwLock<T> {
    gates: Box<[Padded<RwLock<()>>; STRIPES]>,
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
    _gates: [RwLockWriteGuard<'a, ()>; STRIPES],
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
mod tests {
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
                        s.local(AtomicU64::default).fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let total: u64 = s.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 4000);
        assert!(s.iter().count() <= 4);
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
        for stripe in 0..STRIPES {
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
                // The last stripe: the writer already holds every other
                // gate when it gets to this one.
                let r = lock.read_stripe(STRIPES - 1);
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
        // Readers share stripes here; a writer bumps the two halves one
        // after the other, and no reader may see them apart.
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
