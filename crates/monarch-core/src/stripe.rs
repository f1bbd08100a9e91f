//! Per-thread striping for counters the read hit path touches.
//!
//! A counter every reader increments is one cache line bouncing between
//! cores. [`Striped<T>`] keeps up to [`STRIPES`] copies of `T`, each on its
//! own cache lines; a thread records into the copy its index selects and a
//! snapshot folds the copies together. Copies are allocated on first use,
//! so a freshly built registry costs nothing per counter. With more threads
//! than stripes two threads share a copy — still correct (the cells are
//! atomics), just no longer private.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
}
