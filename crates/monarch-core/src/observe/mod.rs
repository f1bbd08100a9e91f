//! The workload observatory: longitudinal, per-file observability.
//!
//! The gauges and the stall profile explain *this instant*; this module
//! explains *this epoch*. Two layers, the first feeding the second:
//!
//! 1. [`AccessProfiler`] (`profiler`) — bounded per-file records in a
//!    slab indexed by the namespace's file ids (access count, first/last
//!    tick, EWMA inter-access gap, bytes per tier, prefetch hit/miss
//!    tallies), the stall profile every timed read's phases are written
//!    to, and the monotonic time-lost ledger read partly off it, fed from
//!    the read path and the transfer engine;
//! 2. [`ObserveReport`] (`report`) — the per-epoch roll-up: wall time
//!    attributed to pfs-bound / copy-lane-saturated / prefetch-lag /
//!    lock-or-queue / compute-bound, plus top-K hot and wasted
//!    (prefetched-never-read) files.
//!
//! The telemetry registry owns the profiler
//! ([`TelemetryRegistry::profiler`](crate::telemetry::TelemetryRegistry::profiler));
//! its snapshot rides the existing `TelemetrySnapshot` (and so the
//! `/snapshot` endpoint, the FFI, and the simulator's `RunReport`) as the
//! optional `observe` section. Where a file lived and when is read off the
//! event journal, the one transition log (DESIGN §7.2). The per-file
//! records double as the feature source the learned placement policies
//! want.

pub mod profiler;
pub mod report;

use serde::{Deserialize, Serialize};

pub use profiler::{
    AccessProfiler, FileProfile, FileProfileSnapshot, LedgerSnapshot, ProfilerSnapshot, ReadClass,
    ReadTiming,
};
pub use report::{HotFile, LedgerBuckets, ObserveReport, WastedFile};

/// The `observe` section of the JSON telemetry snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObserveSnapshot {
    /// Per-file access records and the time-lost ledger.
    pub profiler: ProfilerSnapshot,
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::config::TelemetryConfig;
    use crate::health::HealthRegistry;
    use crate::policy::PolicyEngine;
    use crate::stats::Stats;
    use crate::telemetry::{TelemetryRegistry, TelemetrySnapshot};

    fn snapshot(enabled: bool) -> TelemetrySnapshot {
        let cfg = TelemetryConfig {
            enabled,
            ..TelemetryConfig::default()
        };
        let r = TelemetryRegistry::new(
            vec!["ssd".into(), "pfs".into()],
            Arc::new(Stats::new(2)),
            &cfg,
        );
        r.profiler().record_read(
            "f",
            1,
            8,
            ReadClass::PfsCold,
            false,
            ReadTiming {
                lock_wait_ns: 1_000,
                pread_ns: 9_000,
                ..ReadTiming::default()
            },
            100,
        );
        let health = HealthRegistry::new(r.tier_names().to_vec());
        let policy = PolicyEngine::from_kind(Default::default(), Default::default());
        r.snapshot(Vec::new(), &health, &policy, None)
    }

    #[test]
    fn disabled_observatory_snapshots_to_none() {
        let snap = snapshot(false);
        assert!(snap.observe.is_none());
        let json = serde_json::to_string(&snap).unwrap();
        assert!(!json.contains("\"observe\""), "{json}");
    }

    #[test]
    fn enabled_observe_section_carries_the_profiler() {
        let snap = snapshot(true);
        let observe = snap.observe.unwrap();
        assert_eq!(observe.profiler.ledger.reads, 1);
        // Serde round-trip (the section rides TelemetrySnapshot), and the
        // profiler is the section's only key.
        let json = serde_json::to_string(&observe).unwrap();
        assert!(json.starts_with("{\"profiler\":") && !json.contains("timeline"));
        let back: ObserveSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, observe);
    }
}
