//! The *storage hierarchy*: ordered tiers, each a storage driver plus a
//! capacity quota.
//!
//! Tiers are ordered by the system designer (here: descending performance).
//! All tiers except the last start empty and are read-write; the last tier
//! is the PFS — it holds the full dataset and is treated as a read-only
//! source. Quota accounting uses reserve/commit semantics so concurrent
//! background copies can never oversubscribe a tier.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::driver::StorageDriver;
use crate::health::HealthRegistry;
use crate::{Error, Result};

/// Index of a tier inside the hierarchy; 0 is the fastest tier and
/// `levels() - 1` is the PFS source tier.
pub type TierId = usize;

/// Deepest hierarchy supported, the PFS included: a file's counters line in
/// the namespace has one bytes cell per level beside its read count
/// (64 bytes = 8 cells), and the paper's deployments have two or three.
pub const MAX_LEVELS: usize = 7;

/// Capacity accounting for one tier.
///
/// `used` covers both committed bytes and in-flight reservations, so a
/// reservation that later fails must be released explicitly.
#[derive(Debug)]
pub struct Quota {
    capacity: u64,
    used: AtomicU64,
}

impl Quota {
    /// A quota with `capacity` bytes.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: AtomicU64::new(0),
        }
    }

    /// Attempt to reserve `bytes`; returns `true` on success. Lock-free CAS
    /// loop so reader threads never block each other here.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let Some(next) = cur.checked_add(bytes) else {
                return false;
            };
            if next > self.capacity {
                return false;
            }
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release a previous reservation (copy failed or file evicted).
    pub fn release(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(prev >= bytes, "quota release underflow: {prev} - {bytes}");
    }

    /// Bytes currently reserved/committed.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Free bytes.
    #[must_use]
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used())
    }
}

/// One level of the hierarchy.
pub struct Tier {
    /// Tier id (position in the hierarchy).
    pub id: TierId,
    /// Human-readable name, e.g. `"ssd"` or `"lustre"`.
    pub name: String,
    /// Backend abstraction performing the actual I/O (wrapped by
    /// [`StorageHierarchy::instrument_drivers`], when that ran).
    pub driver: Arc<dyn StorageDriver>,
    /// The backend as it was handed to [`StorageHierarchy::new`], never
    /// wrapped. The foreground read path preads through this one and feeds
    /// the tier's read-latency histogram from the clock reads it already
    /// takes for the stall profile, instead of timing the call twice.
    pub raw: Arc<dyn StorageDriver>,
    /// Capacity quota; `None` means unbounded (the PFS source tier).
    pub quota: Option<Quota>,
    /// Read-only tiers never receive placements (the PFS).
    pub read_only: bool,
}

impl std::fmt::Debug for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tier")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("capacity", &self.quota.as_ref().map(Quota::capacity))
            .field("read_only", &self.read_only)
            .finish()
    }
}

/// The ordered set of tiers.
#[derive(Debug)]
pub struct StorageHierarchy {
    tiers: Vec<Tier>,
    /// Per-tier fault-tolerance trackers (see [`crate::health`]); shared
    /// by the read path, placement policies, and the transfer engine.
    health: Arc<HealthRegistry>,
}

impl StorageHierarchy {
    /// Build a hierarchy from `(name, driver, capacity)` triples, in
    /// descending performance order. The last entry becomes the read-only
    /// PFS source tier; its capacity, if given, is ignored.
    pub fn new(mut levels: Vec<(String, Arc<dyn StorageDriver>, Option<u64>)>) -> Result<Self> {
        if levels.len() < 2 {
            return Err(Error::InvalidConfig(
                "hierarchy needs at least one local tier plus the PFS source tier".into(),
            ));
        }
        if levels.len() > MAX_LEVELS {
            return Err(Error::InvalidConfig(format!(
                "hierarchy has {} levels; at most {MAX_LEVELS} are supported",
                levels.len()
            )));
        }
        let last = levels.len() - 1;
        let mut tiers = Vec::with_capacity(levels.len());
        for (id, (name, driver, capacity)) in levels.drain(..).enumerate() {
            let read_only = id == last;
            if !read_only && capacity.is_none() {
                return Err(Error::InvalidConfig(format!(
                    "local tier {id} ({name}) must declare a capacity"
                )));
            }
            tiers.push(Tier {
                id,
                name,
                raw: Arc::clone(&driver),
                driver,
                quota: (!read_only).then(|| Quota::new(capacity.unwrap_or(0))),
                read_only,
            });
        }
        let health = Arc::new(HealthRegistry::new(
            tiers.iter().map(|t| t.name.clone()).collect(),
        ));
        Ok(Self { tiers, health })
    }

    /// The hierarchy's health registry.
    #[must_use]
    pub fn health(&self) -> &Arc<HealthRegistry> {
        &self.health
    }

    /// Number of levels, including the PFS.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.tiers.len()
    }

    /// Tier by id.
    pub fn tier(&self, id: TierId) -> Result<&Tier> {
        self.tiers.get(id).ok_or(Error::UnknownTier(id))
    }

    /// The PFS source tier (always the last level).
    #[must_use]
    pub fn source(&self) -> &Tier {
        self.tiers.last().expect("hierarchy has >= 2 tiers")
    }

    /// Id of the PFS source tier.
    #[must_use]
    pub fn source_id(&self) -> TierId {
        self.tiers.len() - 1
    }

    /// Iterate the writable local tiers in descending performance order
    /// (levels `0 ..= N-2`).
    pub fn local_tiers(&self) -> impl Iterator<Item = &Tier> {
        self.tiers[..self.tiers.len() - 1].iter()
    }

    /// All tiers, top to bottom.
    #[must_use]
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Replace each tier's driver with `wrap(tier_id, driver)` — the hook
    /// [`crate::Monarch`] uses to interpose
    /// [`crate::driver::TimedDriver`] latency instrumentation at exactly
    /// one point, the driver boundary. [`Tier::raw`] keeps the unwrapped
    /// driver: foreground reads go through it and are timed by the read
    /// path itself, so a wrapper installed here sees background traffic
    /// (`read_full`, `write_full`, `remove`) only.
    pub fn instrument_drivers<F>(&mut self, mut wrap: F)
    where
        F: FnMut(TierId, Arc<dyn StorageDriver>) -> Arc<dyn StorageDriver>,
    {
        for tier in &mut self.tiers {
            tier.driver = wrap(tier.id, Arc::clone(&tier.driver));
        }
    }

    /// True when every local tier lacks room for even a minimal file — the
    /// condition under which the placement phase ends early.
    #[must_use]
    pub fn local_full(&self, smallest_file: u64) -> bool {
        self.local_tiers()
            .all(|t| t.quota.as_ref().is_none_or(|q| q.free() < smallest_file))
    }

    /// Total free bytes across local tiers.
    #[must_use]
    pub fn local_free(&self) -> u64 {
        self.local_tiers()
            .map(|t| t.quota.as_ref().map_or(0, Quota::free))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MemDriver;

    fn mem() -> Arc<dyn StorageDriver> {
        Arc::new(MemDriver::new("m"))
    }

    fn two_level(cap: u64) -> StorageHierarchy {
        StorageHierarchy::new(vec![
            ("ssd".into(), mem(), Some(cap)),
            ("pfs".into(), mem(), None),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(StorageHierarchy::new(vec![("pfs".into(), mem(), None)]).is_err());
        assert!(StorageHierarchy::new(vec![
            ("ssd".into(), mem(), None), // missing capacity
            ("pfs".into(), mem(), None),
        ])
        .is_err());
        // One bytes cell per level on a file's counters line, and no more.
        let levels = |n: usize| {
            let mut tiers: Vec<_> = (1..n)
                .map(|i| (format!("t{i}"), mem(), Some(1u64)))
                .collect();
            tiers.push(("pfs".into(), mem(), None));
            StorageHierarchy::new(tiers)
        };
        assert_eq!(levels(MAX_LEVELS).unwrap().levels(), MAX_LEVELS);
        assert!(matches!(
            levels(MAX_LEVELS + 1),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn source_is_last_and_readonly() {
        let h = two_level(100);
        assert_eq!(h.levels(), 2);
        assert_eq!(h.source_id(), 1);
        assert!(h.source().read_only);
        assert!(h.source().quota.is_none());
        assert_eq!(h.local_tiers().count(), 1);
    }

    #[test]
    fn quota_reserve_release() {
        let q = Quota::new(100);
        assert!(q.try_reserve(60));
        assert!(!q.try_reserve(50));
        assert!(q.try_reserve(40));
        assert_eq!(q.free(), 0);
        q.release(60);
        assert_eq!(q.used(), 40);
        assert!(q.try_reserve(60));
    }

    #[test]
    fn quota_zero_sized_reservations() {
        let q = Quota::new(0);
        assert!(q.try_reserve(0));
        assert!(!q.try_reserve(1));
    }

    #[test]
    fn quota_concurrent_never_oversubscribes() {
        let q = Arc::new(Quota::new(1000));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = 0u64;
                    for _ in 0..1000 {
                        if q.try_reserve(7) {
                            got += 7;
                        }
                    }
                    got
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total <= 1000);
        assert_eq!(q.used(), total);
    }

    #[test]
    fn instrument_drivers_wraps_every_tier() {
        use crate::driver::TimedDriver;
        use crate::telemetry::LatencyHistogram;
        let mut h = two_level(100);
        let hist = Arc::new(LatencyHistogram::new());
        let reads = Arc::clone(&hist);
        h.instrument_drivers(move |_, driver| {
            Arc::new(TimedDriver::new(
                driver,
                Arc::clone(&reads),
                Arc::new(LatencyHistogram::new()),
            ))
        });
        let mut buf = [0u8; 1];
        let _ = h.tier(0).unwrap().driver.read_at("missing", 0, &mut buf);
        let _ = h.tier(1).unwrap().driver.read_at("missing", 0, &mut buf);
        assert_eq!(hist.count(), 2, "both tiers' drivers are wrapped");
    }

    #[test]
    fn local_full_detection() {
        let h = two_level(100);
        assert!(!h.local_full(1));
        assert!(h.tier(0).unwrap().quota.as_ref().unwrap().try_reserve(100));
        assert!(h.local_full(1));
        assert!(!h.local_full(0));
        assert_eq!(h.local_free(), 0);
    }
}
