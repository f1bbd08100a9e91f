//! One producer per number: every counter the instance keeps reaches the
//! exposition with its value, the exposition's families are a fixed list,
//! and the one state document has a fixed, versioned shape.

use std::collections::BTreeSet;
use std::sync::Arc;

use monarch_core::driver::MemDriver;
use monarch_core::policy::{FirstFitScorer, LruEviction, PolicyEngine, ReuseAware};
use monarch_core::{Monarch, MonarchBuilder, PrefetchConfig, StorageDriver, StorageHierarchy};

const SMALL: usize = 512;

/// Two `MemDriver` tiers; the fast one holds two small files, LRU evicts,
/// prefetch is on, and reuse-aware admission with a zero horizon refuses a
/// demand copy of any file already read twice.
/// After [`exercise`] the instance has served reads from both tiers,
/// placed, evicted and been denied.
fn instance() -> Monarch {
    let pfs = MemDriver::new("pfs");
    for i in 0..4 {
        pfs.insert(&format!("small{i}"), vec![i as u8; SMALL]);
    }
    pfs.insert("big", vec![9u8; 4 * SMALL]);
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
            Some(2 * SMALL as u64),
        ),
        ("pfs".into(), Arc::new(pfs), None),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy_engine(Arc::new(PolicyEngine::new(
            Arc::new(ReuseAware::new(0.0)),
            Arc::new(LruEviction),
            Arc::new(FirstFitScorer),
        )))
        .prefetch(PrefetchConfig {
            lookahead: 2,
            ..PrefetchConfig::disabled()
        })
        .pool_threads(2)
        .build()
        .unwrap();
    m.init().unwrap();
    m
}

fn exercise(m: &Monarch) {
    let mut buf = vec![0u8; 4 * SMALL];
    // Three small files cycle through two slots, so each read of them
    // misses until the third miss of `small0` is refused; `small2` then
    // hits.
    for file in [
        "small0", "small1", "small2", "big", "small0", "small1", "small2", "small0", "small2",
    ] {
        assert!(m.read(file, 0, &mut buf).unwrap() > 0);
        m.wait_placement_idle();
    }
    m.evict("small2").unwrap();
}

/// The family names behind the `# TYPE` lines of an exposition.
fn typed_families(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split(' ').next().unwrap().to_string())
        .collect()
}

#[test]
fn every_stats_scalar_is_exported_with_its_value() {
    let m = instance();
    exercise(&m);
    let stats = m.stats();
    assert!(stats.local_reads() > 0 && stats.pfs_reads() > 0);
    assert!(stats.copies_completed > 0, "placed");
    assert!(stats.evictions > 0, "evicted");
    assert!(stats.policy_denials > 0, "denied");
    assert!(
        stats.timed_reads >= stats.pfs_reads(),
        "every miss is timed"
    );

    // Walk the snapshot as a consumer sees it — its serialised keys — so a
    // counter that is kept and serialised but not exported cannot hide.
    let text = m.metrics_text();
    let doc = serde_json::to_value(&stats).unwrap();
    let mut scalars = 0;
    for (key, value) in doc.as_object().unwrap().iter() {
        let Some(value) = value.as_u64() else {
            assert_eq!(key, "tiers", "the only non-scalar field");
            continue;
        };
        let line = format!("monarch_{key}_total {value}");
        assert!(
            text.lines().any(|l| l == line),
            "`{line}` missing from the exposition"
        );
        scalars += 1;
    }
    assert_eq!(scalars, stats.counters().len());
    m.shutdown();
}

#[test]
fn exposition_families_are_the_golden_list() {
    // HEAD bc32a48's `# TYPE` lines, minus `monarch_journal_dropped_total`
    // (one value under two names; `monarch_events_dropped_total` stays),
    // plus `monarch_policy_denials_total` (counted since PR 10, never
    // exported) and `monarch_timed_reads_total` (PR 19: how many reads the
    // time records rest on).
    const GOLDEN: &[&str] = &[
        "monarch_copies_completed_total",
        "monarch_copies_deadline_expired_total",
        "monarch_copies_failed_total",
        "monarch_copies_scheduled_total",
        "monarch_copy_duration_seconds",
        "monarch_copy_requeues_total",
        "monarch_copy_retries_total",
        "monarch_degraded",
        "monarch_degraded_reads_total",
        "monarch_draining",
        "monarch_enospc_evictions_total",
        "monarch_events_dropped_total",
        "monarch_evictions_total",
        "monarch_journal_events_total",
        "monarch_lane_queued",
        "monarch_peer_bytes_total",
        "monarch_peer_dead_skips_total",
        "monarch_peer_fallbacks_total",
        "monarch_peer_hits_total",
        "monarch_placement_skipped_total",
        "monarch_policy_denials_total",
        "monarch_pool_exec_seconds",
        "monarch_pool_inflight_jobs",
        "monarch_pool_join_failures_total",
        "monarch_pool_prefetch_queue_wait_seconds",
        "monarch_pool_queue_wait_seconds",
        "monarch_pool_remote_queue_wait_seconds",
        "monarch_prefetch_canceled_total",
        "monarch_prefetch_hits_total",
        "monarch_prefetch_inflight_bytes",
        "monarch_prefetch_inflight_copies",
        "monarch_prefetch_promoted_total",
        "monarch_prefetch_wasted_total",
        "monarch_prefetch_window_lag_entries",
        "monarch_prefetches_scheduled_total",
        "monarch_profile_files_tracked",
        "monarch_profile_untracked_reads_total",
        "monarch_read_degraded_fallback_seconds",
        "monarch_read_latency_seconds",
        "monarch_read_retries_total",
        "monarch_read_stall_copy_wait_seconds",
        "monarch_read_stall_driver_pread_seconds",
        "monarch_read_stall_lock_wait_seconds",
        "monarch_read_stall_queue_wait_seconds",
        "monarch_reads_in_flight",
        "monarch_remote_timeouts_total",
        "monarch_removes_total",
        "monarch_staged_bytes_total",
        "monarch_staged_reads_total",
        "monarch_tier_capacity_bytes",
        "monarch_tier_files",
        "monarch_tier_health_state",
        "monarch_tier_occupancy_bytes",
        "monarch_tier_quarantines_total",
        "monarch_tier_read_bytes_total",
        "monarch_tier_reads_total",
        "monarch_tier_recoveries_total",
        "monarch_tier_removes_total",
        "monarch_tier_writes_total",
        "monarch_tier_written_bytes_total",
        "monarch_timed_reads_total",
        "monarch_trace_spans_dropped_total",
        "monarch_trace_spans_total",
        "monarch_write_latency_seconds",
    ];
    let m = instance();
    let text = m.metrics_text();
    let typed = typed_families(&text);
    let golden: BTreeSet<String> = GOLDEN.iter().map(|s| s.to_string()).collect();
    assert_eq!(typed, golden);
    assert_eq!(
        text.lines().filter(|l| l.starts_with("# TYPE ")).count(),
        GOLDEN.len(),
        "a family is declared twice"
    );
    // Each family is one contiguous block: its `# HELP`, its `# TYPE`, then
    // every sample of it.
    let family_of = |line: &str| -> String {
        let declared = line
            .strip_prefix("# HELP ")
            .or_else(|| line.strip_prefix("# TYPE "));
        if let Some(rest) = declared {
            return rest.split(' ').next().unwrap().to_string();
        }
        let metric = line.split(['{', ' ']).next().unwrap();
        ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| metric.strip_suffix(suffix))
            .find(|family| typed.contains(*family))
            .unwrap_or(metric)
            .to_string()
    };
    let mut blocks: Vec<(String, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        let family = family_of(line);
        match blocks.last_mut() {
            Some((open, lines)) if *open == family => lines.push(line),
            _ => blocks.push((family, vec![line])),
        }
    }
    assert_eq!(blocks.len(), GOLDEN.len(), "a family is split");
    for (family, lines) in &blocks {
        assert!(
            lines[0].starts_with(&format!("# HELP {family} ")),
            "{lines:?}"
        );
        assert!(
            lines[1].starts_with(&format!("# TYPE {family} ")),
            "{lines:?}"
        );
        assert!(lines.len() > 2, "{family} has no samples");
    }
    m.shutdown();
}

#[test]
fn snapshot_schema_is_versioned_and_golden() {
    // Adding a key extends this list; removing or re-typing one is a
    // `SCHEMA_VERSION` bump (DESIGN §7). `cluster` appears when clustered.
    const KEYS: &[&str] = &[
        "copy_duration",
        "events_dropped",
        "events_recorded",
        "gauges",
        "health",
        "observe",
        "policy",
        "pool_exec",
        "queue_wait",
        "queue_wait_prefetch",
        "queue_wait_remote",
        "read_latency",
        "schema_version",
        "spans_dropped",
        "spans_recorded",
        "stall_profile",
        "stats",
        "tier_names",
        "write_latency",
    ];
    let m = instance();
    exercise(&m);
    let snap = m.telemetry_snapshot();
    assert_eq!(snap.schema_version, 2);
    let doc = serde_json::to_value(&snap).unwrap();
    let mut keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    keys.sort_unstable();
    assert_eq!(keys, KEYS);
    // Version 2 removed `observe.timeline`: the journal is the one
    // transition log, and the profiler the section's only key.
    let observe: Vec<&str> = doc["observe"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(observe, ["profiler"]);
    // A section is the document's top-level key, and the whole is the
    // document.
    assert_eq!(snap.section(Some("policy")).as_ref(), doc.get("policy"));
    assert_eq!(snap.section(None).as_ref(), Some(&doc));
    assert!(snap.section(Some("timeline")).is_none());
    // The policy section is the engine's own view, live.
    let policy = snap.policy.as_ref().expect("policy section");
    assert_eq!(policy.name, m.policy_name());
    assert_eq!(
        policy.demand_denials + policy.prefetch_denials,
        snap.stats.policy_denials
    );
    // And the document survives its own serialisation.
    let back: monarch_core::TelemetrySnapshot =
        serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
    assert_eq!(back, snap);
    m.shutdown();
}
