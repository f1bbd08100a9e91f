//! The crate's one poison rule, written once: **a holder's panic releases
//! the lock and the next caller proceeds.**
//!
//! Every `std::sync` lock in `monarch-core` is taken through these
//! functions, never with `.lock().unwrap()` or `.expect(..)`. A poisoned
//! lock would otherwise turn one panic into a panic on every later caller,
//! and one caller cannot afford that: a copy's [`crate::lifecycle`] lease
//! settles itself while its worker unwinds, and settling takes the same
//! locks (the stagings, the journal) that the panicking code
//! may have been holding. So the state behind each lock must stay valid
//! between any two of its updates, which the crate's structures already
//! are: books, queues and counters whose every step is a whole insert,
//! remove or store.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Lock `mutex`, past a poisoned holder.
#[inline]
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Take `lock` shared, past a poisoned writer.
#[inline]
pub(crate) fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take `lock` exclusive, past a poisoned writer.
#[inline]
pub(crate) fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Release `guard`, block until `cv` is notified, and lock again.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait`] for at most `timeout`.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_holders_panic_releases_the_lock_for_the_next_caller() {
        let m = Arc::new(Mutex::new(1u32));
        let l = Arc::new(RwLock::new(2u32));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let joined = std::thread::spawn(move || {
            let _m = lock(&m2);
            let _l = write(&l2);
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(joined.is_err());
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 1;
        *write(&l) += 1;
        assert_eq!((*lock(&m), *read(&l)), (2, 3));
    }

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *lock(m) = 7;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = lock(m);
        while *g != 7 {
            g = wait(cv, g);
        }
        drop(g);
        t.join().unwrap();
        assert_eq!(*lock(m), 7);
    }

    #[test]
    fn rwlock_allows_parallel_readers() {
        let l = RwLock::new(5);
        let a = read(&l);
        let b = read(&l);
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *write(&l) += 1;
        assert_eq!(*read(&l), 6);
    }

    #[test]
    fn wait_timeout_times_out() {
        // Nobody notifies: the wait ends on its own, with the lock held.
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let mut g = wait_timeout(&cv, lock(&m), Duration::from_millis(10));
        *g += 1;
        drop(g);
        assert_eq!(*lock(&m), 1);
    }
}
