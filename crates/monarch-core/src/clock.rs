//! The instance's one clock (DESIGN §3.3): every time `monarch-core` books
//! or waits on is read through a [`Clock`], and the builder hands clones of
//! one to every part of an instance, so they share its origin. A manual
//! clock, for tests, stands still until told to move; its `sleep` moves it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nanoseconds since an origin, and a way to wait. Clones share the origin
/// (and a manual clock's hand).
#[derive(Debug, Clone)]
pub struct Clock(Source);

#[derive(Debug, Clone)]
enum Source {
    Host(Instant),
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// The host's monotonic clock, its origin now.
    #[must_use]
    pub fn host() -> Self {
        Self(Source::Host(Instant::now()))
    }

    /// A clock at 0 that moves only by [`Self::advance`] and [`Self::sleep`].
    #[must_use]
    pub fn manual() -> Self {
        Self(Source::Manual(Arc::default()))
    }

    /// Nanoseconds since the origin.
    #[inline]
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            Source::Host(origin) => u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Source::Manual(ns) => ns.load(Ordering::Acquire),
        }
    }

    /// Microseconds since the origin.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.now_ns() / 1_000
    }

    /// Wait `d`: the host clock blocks the thread, a manual one moves on.
    pub fn sleep(&self, d: Duration) {
        match &self.0 {
            Source::Host(_) => std::thread::sleep(d),
            Source::Manual(_) => self.advance(d),
        }
    }

    /// Move a manual clock on by `d`; panics on the host clock.
    pub fn advance(&self, d: Duration) {
        let Source::Manual(ns) = &self.0 else {
            panic!("only a manual clock is advanced by hand");
        };
        ns.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manual_clock_moves_only_when_told_and_its_clones_share_it() {
        let clock = Clock::manual();
        let twin = clock.clone();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(Duration::from_micros(3));
        twin.sleep(Duration::from_nanos(500));
        assert_eq!((clock.now_ns(), twin.now_us()), (3_500, 3));
    }

    #[test]
    fn the_host_clock_is_monotonic_from_its_origin_and_its_clones_share_it() {
        let clock = Clock::host();
        let twin = clock.clone();
        let a = clock.now_ns();
        clock.sleep(Duration::from_millis(1));
        let b = twin.now_ns();
        assert!(b >= a + 1_000_000, "{a} then {b}");
    }

    #[test]
    #[should_panic(expected = "manual clock")]
    fn the_host_clock_cannot_be_advanced() {
        Clock::host().advance(Duration::from_secs(1));
    }
}
