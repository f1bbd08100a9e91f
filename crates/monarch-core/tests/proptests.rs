//! Property-based tests for the middleware's core invariants.

use std::sync::Arc;

use monarch_core::config::{AdmissionKind, PolicyKind};
use monarch_core::driver::MemDriver;
use monarch_core::hierarchy::{Quota, StorageHierarchy};
use monarch_core::metadata::PlacementState;
use monarch_core::observe::{AccessProfiler, ReadClass, ReadTiming};
use monarch_core::policy::{EvictCtx, EvictionPolicy, LfuEviction, LruEviction, PolicyEngine};
use monarch_core::prefetch::{PrefetchConfig, PrefetchWindow};
use monarch_core::telemetry::LatencyHistogram;
use monarch_core::{MonarchBuilder, Stats, StorageDriver, TelemetryConfig, TelemetryRegistry};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Greedily issue everything the window allows, asserting each entry is
/// issued at most once, then resolve it (copy "completes" instantly).
fn pump_window(w: &mut PrefetchWindow, issued: &mut [bool]) -> Result<(), TestCaseError> {
    while let Some((idx, _, _)) = w.next_to_issue() {
        prop_assert!(!issued[idx], "entry {} issued twice", idx);
        issued[idx] = true;
        w.resolve(idx);
    }
    Ok(())
}

/// Build a hierarchy of `caps` local mem tiers plus a mem PFS holding the
/// given files.
fn build(caps: &[u64], files: &[(String, u64)]) -> StorageHierarchy {
    let pfs = MemDriver::new("pfs");
    for (name, size) in files {
        pfs.insert(name, vec![0xa5u8; *size as usize]);
    }
    let mut levels: Vec<(String, Arc<dyn StorageDriver>, Option<u64>)> = caps
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            (
                format!("t{i}"),
                Arc::new(MemDriver::new(format!("t{i}"))) as Arc<dyn StorageDriver>,
                Some(c),
            )
        })
        .collect();
    levels.push(("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None));
    StorageHierarchy::new(levels).unwrap()
}

fn file_set(n: usize) -> Vec<(String, u64)> {
    (0..n).map(|i| (format!("f{i:04}"), 0)).collect()
}

proptest! {
    /// Quota is never oversubscribed, whatever the interleaving of
    /// reservations and releases.
    #[test]
    fn quota_never_oversubscribed(cap in 1u64..10_000, ops in prop::collection::vec((0u64..512, any::<bool>()), 1..200)) {
        let q = Quota::new(cap);
        let mut held: Vec<u64> = Vec::new();
        for (bytes, release_first) in ops {
            if release_first && !held.is_empty() {
                let b = held.swap_remove(0);
                q.release(b);
            }
            if q.try_reserve(bytes) {
                held.push(bytes);
            }
            let total: u64 = held.iter().sum();
            prop_assert_eq!(q.used(), total);
            prop_assert!(q.used() <= cap);
        }
    }

    /// FirstFit invariants: a placed file's reserved bytes land on the
    /// first tier that could hold it, never evicting, never oversubscribing.
    #[test]
    fn first_fit_invariants(caps in prop::collection::vec(64u64..2048, 1..4),
                            sizes in prop::collection::vec(1u64..512, 1..64)) {
        let files: Vec<(String, u64)> = sizes.iter().enumerate()
            .map(|(i, &s)| (format!("f{i:04}"), s))
            .collect();
        let h = build(&caps, &file_set(files.len()));
        let p = PolicyEngine::from_kind(PolicyKind::FirstFit, AdmissionKind::AdmitAll);
        for (name, size) in &files {
            if let Some(d) = p.place(&h, name, *size).unwrap() {
                prop_assert!(d.evict.is_empty());
                prop_assert!(d.tier < caps.len());
                // Every faster tier was genuinely full for this size.
                for t in 0..d.tier {
                    let free = h.tier(t).unwrap().quota.as_ref().unwrap().free();
                    prop_assert!(free < *size, "tier {t} had {free} free for {size}");
                }
            }
        }
        for (i, &cap) in caps.iter().enumerate() {
            let used = h.tier(i).unwrap().quota.as_ref().unwrap().used();
            prop_assert!(used <= cap);
        }
    }

    /// RoundRobin never oversubscribes either.
    #[test]
    fn round_robin_respects_quota(caps in prop::collection::vec(64u64..1024, 2..4),
                                  sizes in prop::collection::vec(1u64..256, 1..64)) {
        let h = build(&caps, &[]);
        let p = PolicyEngine::from_kind(PolicyKind::RoundRobin, AdmissionKind::AdmitAll);
        for (i, &size) in sizes.iter().enumerate() {
            let _ = p.place(&h, &format!("f{i}"), size).unwrap();
        }
        for (i, &cap) in caps.iter().enumerate() {
            prop_assert!(h.tier(i).unwrap().quota.as_ref().unwrap().used() <= cap);
        }
    }

    /// End-to-end: any workload of (file, offset) reads against a
    /// middleware with arbitrary local capacity serves exactly the staged
    /// bytes, and afterwards every file is in a consistent placement state
    /// with tier-0 usage within quota.
    #[test]
    fn middleware_serves_correct_bytes(
        cap in 0u64..4096,
        nfiles in 1usize..12,
        reads in prop::collection::vec((0usize..12, 0u64..600), 1..80),
    ) {
        let files: Vec<(String, u64)> = (0..nfiles)
            .map(|i| (format!("f{i:04}"), 64 + (i as u64 * 37) % 400))
            .collect();
        let pfs = MemDriver::new("pfs");
        let mut contents = Vec::new();
        for (i, (name, size)) in files.iter().enumerate() {
            let data: Vec<u8> = (0..*size).map(|j| (i as u8) ^ (j as u8)).collect();
            pfs.insert(name, data.clone());
            contents.push(data);
        }
        let h = StorageHierarchy::new(vec![
            ("ssd".into(), Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>, Some(cap)),
            ("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None),
        ]).unwrap();
        let m = MonarchBuilder::new()
            .hierarchy(h)
            .policy(PolicyKind::FirstFit)
            .pool_threads(2)
            .build()
            .unwrap();
        m.init().unwrap();
        let mut buf = vec![0u8; 128];
        for (fi, offset) in reads {
            let fi = fi % nfiles;
            let (name, size) = &files[fi];
            let n = m.read(name, offset, &mut buf).unwrap();
            if offset >= *size {
                prop_assert_eq!(n, 0);
            } else {
                let want = (*size - offset).min(buf.len() as u64) as usize;
                prop_assert_eq!(n, want);
                prop_assert_eq!(&buf[..n], &contents[fi][offset as usize..offset as usize + n]);
            }
        }
        m.wait_placement_idle();
        let used = m.hierarchy().tier(0).unwrap().quota.as_ref().unwrap().used();
        prop_assert!(used <= cap);
        // Placement states are terminal-consistent: nothing left Copying.
        m.metadata().for_each(|_, info| {
            assert_ne!(
                std::mem::discriminant(&info.state),
                std::mem::discriminant(&PlacementState::Copying { target: 0 })
            );
        });
        let stats = m.stats();
        prop_assert_eq!(stats.copies_scheduled,
                        stats.copies_completed + stats.copies_failed + stats.placement_skipped);
        prop_assert_eq!(stats.evictions, 0);
    }

    /// Concurrent histogram recording never loses a sample: count, sum and
    /// max are exact whatever the thread interleaving.
    #[test]
    fn histogram_concurrent_never_loses_counts(
        chunks in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000_000, 1..200), 1..8),
    ) {
        let h = LatencyHistogram::new();
        let expected_count: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let expected_sum: u64 = chunks.iter().flatten().sum();
        let expected_max: u64 = chunks.iter().flatten().copied().max().unwrap_or(0);
        std::thread::scope(|s| {
            let h = &h;
            for chunk in &chunks {
                s.spawn(move || {
                    for &v in chunk {
                        h.record(v);
                    }
                });
            }
        });
        prop_assert_eq!(h.count(), expected_count);
        prop_assert_eq!(h.sum(), expected_sum);
        prop_assert_eq!(h.max(), expected_max);
    }

    /// Striping is invisible: the same values recorded from several
    /// threads (each into its own stripe) summarise, and expose their
    /// Prometheus `_bucket` series, exactly as when one thread records
    /// them all into one stripe.
    #[test]
    fn striped_histogram_equals_single_stripe(
        values in prop::collection::vec(0u64..(1u64 << 40), 1..400),
        threads in 2usize..6,
    ) {
        let registry = || {
            TelemetryRegistry::new(
                vec!["ssd".into(), "pfs".into()],
                Arc::new(Stats::new(2)),
                &TelemetryConfig::default(),
            )
        };
        let (one, many) = (registry(), registry());
        for &v in &values {
            one.copy_duration().record(v);
        }
        std::thread::scope(|s| {
            for part in values.chunks(values.len().div_ceil(threads)) {
                let many = &many;
                s.spawn(move || part.iter().for_each(|&v| many.copy_duration().record(v)));
            }
        });
        prop_assert_eq!(one.copy_duration().snapshot(), many.copy_duration().snapshot());
        for bound in [0, 15, 1_000, 1 << 20, u64::MAX] {
            prop_assert_eq!(
                one.copy_duration().count_le(bound),
                many.copy_duration().count_le(bound)
            );
        }
        let series = |r: &TelemetryRegistry| -> Vec<String> {
            r.prometheus_text()
                .lines()
                .filter(|l| l.starts_with("monarch_copy_duration_seconds"))
                .map(str::to_owned)
                .collect()
        };
        prop_assert_eq!(series(&one).len(), 11, "8 le buckets, +Inf, sum, count");
        prop_assert_eq!(series(&one), series(&many));
        // Merging a multi-stripe histogram folds every stripe in.
        let merged = LatencyHistogram::new();
        merged.merge(many.copy_duration());
        prop_assert_eq!(merged.snapshot(), one.copy_duration().snapshot());
    }

    /// Quantile estimates stay within one log-linear bucket of the exact
    /// order statistic: exact below the linear range, ≤ 1/16 relative
    /// error above it.
    #[test]
    fn histogram_quantile_within_one_bucket(
        values in prop::collection::vec(0u64..(1u64 << 44), 1..500),
        qs in prop::collection::vec(0.0f64..=1.0, 1..6),
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in qs {
            let est = h.quantile(q);
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            let exact = sorted[rank];
            prop_assert!(est >= exact, "q={} est={} exact={}", q, est, exact);
            prop_assert!(
                est <= exact + exact / 16 + 1,
                "q={} est={} exact={}", q, est, exact
            );
        }
    }

    /// Prefetch window safety under any interleaving of issue pumps,
    /// foreground reads (in and out of plan), resolves (valid and bogus
    /// indices) and oracle sweeps: the issue frontier never outruns
    /// `cursor + lookahead`, no entry is ever issued twice, the byte cap
    /// holds whenever more than one copy is in flight, and the epoch-end
    /// drain leaves the window inert with exact accounting.
    #[test]
    fn prefetch_window_invariants(
        lookahead in 0usize..8,
        max_bytes in prop_oneof![Just(0u64), 1u64..2000],
        sizes in prop::collection::vec(1u64..600, 0..30),
        ops in prop::collection::vec((0u8..4, 0usize..32), 0..200),
    ) {
        let files: Vec<(String, u64)> = sizes.iter().enumerate()
            .map(|(i, &s)| (format!("f{i:03}"), s))
            .collect();
        let mut w = PrefetchWindow::new(
            files.clone(),
            PrefetchConfig { lookahead, max_inflight_bytes: max_bytes },
        );
        let mut issued = std::collections::HashSet::new();
        for (op, arg) in ops {
            match op {
                0 => {
                    if let Some((idx, name, size)) = w.next_to_issue() {
                        prop_assert!(lookahead > 0, "disabled window issued a copy");
                        prop_assert!(
                            idx < w.cursor() + lookahead,
                            "issued {} beyond cursor {} + lookahead {}",
                            idx, w.cursor(), lookahead
                        );
                        prop_assert!(issued.insert(idx), "entry {} issued twice", idx);
                        prop_assert_eq!(name.as_str(), files[idx].0.as_str());
                        prop_assert_eq!(size, files[idx].1);
                    }
                }
                1 => {
                    let name = format!("f{arg:03}");
                    let before = w.cursor();
                    let note = w.on_read(&name);
                    if arg < files.len() {
                        let n = note.expect("in-plan read observed");
                        prop_assert_eq!(n.index, arg);
                        prop_assert!(w.cursor() >= before, "cursor moved backwards");
                        prop_assert!(w.cursor() > arg, "cursor behind the read");
                    } else {
                        prop_assert!(note.is_none(), "out-of-plan read noted");
                        prop_assert_eq!(w.cursor(), before);
                    }
                }
                2 => w.resolve(arg),
                _ => w.poll_resolved(|n| n.ends_with('7')),
            }
            prop_assert!(w.inflight() <= issued.len());
            if max_bytes > 0 && w.inflight() > 1 {
                prop_assert!(
                    w.inflight_bytes() <= max_bytes,
                    "{} in-flight bytes exceed the {} cap",
                    w.inflight_bytes(), max_bytes
                );
            }
        }
        // Epoch boundary: drain closes the window cleanly and reports the
        // exact issue record.
        let report = w.drain();
        prop_assert_eq!(report.len(), files.len());
        prop_assert_eq!(w.inflight(), 0);
        prop_assert_eq!(w.inflight_bytes(), 0);
        prop_assert!(w.next_to_issue().is_none(), "drained window issued");
        for (i, (name, was_issued, _)) in report.iter().enumerate() {
            prop_assert_eq!(name.as_str(), files[i].0.as_str());
            prop_assert_eq!(*was_issued, issued.contains(&i));
        }
    }

    /// Liveness complement to the safety test: whatever read order the
    /// foreground takes, pumping after every read stages each plan entry
    /// exactly once, and a full read pass flushes the whole plan.
    #[test]
    fn prefetch_window_issues_every_entry_exactly_once(
        n in 1usize..40,
        lookahead in 1usize..6,
        reads in prop::collection::vec(0usize..40, 0..120),
    ) {
        let files: Vec<(String, u64)> = (0..n).map(|i| (format!("f{i:03}"), 8)).collect();
        let mut w = PrefetchWindow::new(
            files,
            PrefetchConfig { lookahead, max_inflight_bytes: 0 },
        );
        let mut issued = vec![false; n];
        pump_window(&mut w, &mut issued)?;
        for ri in reads {
            w.on_read(&format!("f{:03}", ri % n));
            pump_window(&mut w, &mut issued)?;
        }
        for i in 0..n {
            w.on_read(&format!("f{i:03}"));
            pump_window(&mut w, &mut issued)?;
        }
        prop_assert!(issued.iter().all(|&b| b), "full read pass must flush the plan");
        prop_assert_eq!(w.cursor(), n);
        for (name, was_issued, read_seen) in w.drain() {
            prop_assert!(was_issued && read_seen, "{} missed", name);
        }
    }

    /// Access-profiler EWMA invariant: whatever the (monotonic) access
    /// rhythm, the smoothed inter-access gap is a convex combination of
    /// observed gaps, so it stays within [min, max] of them — and the
    /// first/last/accesses bookkeeping is exact.
    #[test]
    fn profiler_ewma_bounded_by_observed_gaps(
        start in 0u64..1_000_000,
        gaps in prop::collection::vec(0u64..1_000_000, 1..50),
    ) {
        let p = AccessProfiler::new(true, 2, 16);
        let mut t = start;
        p.record_read("f", 0, 1, ReadClass::Fast, false, ReadTiming::default(), t);
        for &g in &gaps {
            t += g;
            p.record_read("f", 0, 1, ReadClass::Fast, false, ReadTiming::default(), t);
        }
        let snap = p.snapshot();
        let f = &snap.files[0].profile;
        prop_assert_eq!(f.accesses, gaps.len() as u64 + 1);
        prop_assert_eq!(f.first_us, start);
        prop_assert_eq!(f.last_us, t);
        let lo = *gaps.iter().min().unwrap() as f64;
        let hi = *gaps.iter().max().unwrap() as f64;
        prop_assert!(
            f.ewma_gap_us >= lo - 1e-9 && f.ewma_gap_us <= hi + 1e-9,
            "ewma {} outside observed gap range [{}, {}]",
            f.ewma_gap_us, lo, hi
        );
    }

    /// Profiler accounting is exact across the shard merge and the
    /// tracking bound: every read lands either in a tracked per-file
    /// record or in the untracked tally, the ledger counts all of them,
    /// and the per-class pread sums reproduce the input exactly.
    #[test]
    fn profiler_accounting_exact_across_shards(
        max_files in 1usize..20,
        reads in prop::collection::vec(
            ((0usize..40, 0u8..4), (0u64..10_000, 0u64..5_000)), 1..200),
    ) {
        let p = AccessProfiler::new(true, 2, max_files);
        let mut per_class = [0u64; 4];
        let mut wall = 0u64;
        for (i, &((fi, class_i), (bytes, pread))) in reads.iter().enumerate() {
            let class = match class_i {
                0 => ReadClass::Fast,
                1 => ReadClass::PfsCold,
                2 => ReadClass::LaneSaturated,
                _ => ReadClass::PrefetchLag,
            };
            per_class[class_i as usize] += pread;
            wall += pread + 2;
            let timing = ReadTiming {
                wall_us: pread + 2,
                pread_us: pread,
                lock_queue_us: 1,
                copy_wait_us: 1,
            };
            p.record_read(
                &format!("f{fi:03}"), 0, bytes, class, false, timing, i as u64,
            );
        }
        let snap = p.snapshot();
        prop_assert!(snap.tracked <= max_files as u64);
        prop_assert_eq!(snap.files.len() as u64, snap.tracked);
        let tracked_reads: u64 = snap.files.iter().map(|f| f.profile.accesses).sum();
        prop_assert_eq!(tracked_reads + snap.untracked_reads, reads.len() as u64);
        prop_assert_eq!(snap.ledger.reads, reads.len() as u64);
        prop_assert_eq!(snap.ledger.read_wall_us, wall);
        prop_assert_eq!(snap.ledger.fast_pread_us, per_class[0]);
        prop_assert_eq!(snap.ledger.pfs_cold_pread_us, per_class[1]);
        prop_assert_eq!(snap.ledger.lane_sat_pread_us, per_class[2]);
        prop_assert_eq!(snap.ledger.prefetch_lag_pread_us, per_class[3]);
        prop_assert_eq!(snap.ledger.lock_queue_us, reads.len() as u64);
        prop_assert_eq!(snap.ledger.copy_wait_us, reads.len() as u64);
    }

    /// LRU ablation policy: tier-0 usage stays within quota across an
    /// arbitrary access pattern even with evictions happening.
    #[test]
    fn lru_quota_safe(cap in 200u64..1000,
                      accesses in prop::collection::vec(0usize..10, 1..60)) {
        let files: Vec<(String, u64)> = (0..10)
            .map(|i| (format!("f{i}"), 100 + (i as u64 * 53) % 150))
            .collect();
        let pfs = MemDriver::new("pfs");
        for (name, size) in &files {
            pfs.insert(name, vec![1u8; *size as usize]);
        }
        let h = StorageHierarchy::new(vec![
            ("ssd".into(), Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>, Some(cap)),
            ("pfs".into(), Arc::new(pfs) as Arc<dyn StorageDriver>, None),
        ]).unwrap();
        let m = MonarchBuilder::new()
            .hierarchy(h)
            .policy(PolicyKind::LruEvict)
            .pool_threads(1)
            .build()
            .unwrap();
        m.init().unwrap();
        let mut buf = vec![0u8; 64];
        for fi in accesses {
            let (name, _) = &files[fi];
            m.read(name, 0, &mut buf).unwrap();
            m.wait_placement_idle();
            let used = m.hierarchy().tier(0).unwrap().quota.as_ref().unwrap().used();
            prop_assert!(used <= cap, "used {used} > cap {cap}");
        }
    }

    /// Eviction-policy safety: whatever the interleaving of placements and
    /// touches, victims never include an exempt (pinned) file — and files
    /// never placed (still in flight) are structurally unselectable because
    /// they are not in the resident book. Selection is pure: re-asking
    /// returns the same victims, and a non-empty answer covers the request.
    #[test]
    fn eviction_never_selects_exempt_or_inflight_files(
        n in 1usize..12,
        touches in prop::collection::vec(0usize..12, 0..60),
        pins in prop::collection::vec(any::<bool>(), 12),
        needed in 1u64..1500,
    ) {
        let p = LruEviction::new();
        for i in 0..n {
            p.on_placed(&format!("f{i}"), 100, 0);
        }
        for fi in &touches {
            p.on_access(&format!("f{}", fi % n), 0);
        }
        // "g0" is accessed but never placed — an in-flight copy's touches
        // must not conjure it into the book.
        p.on_access("g0", 0);
        let exempt = |name: &str| {
            name.strip_prefix('f')
                .and_then(|i| i.parse::<usize>().ok())
                .is_some_and(|i| pins[i])
        };
        let score = |_: &str| 0.5;
        let c = EvictCtx { exempt: &exempt, score: &score, max_victims: 64 };
        let victims = p.victims(0, needed, &c);
        for v in &victims {
            prop_assert!(!exempt(v), "{} was exempt", v);
            prop_assert!(v != "g0", "in-flight file selected");
        }
        prop_assert_eq!(&p.victims(0, needed, &c), &victims, "selection must be pure");
        if !victims.is_empty() {
            prop_assert!(victims.len() as u64 * 100 >= needed, "undersized selection");
        }
    }

    /// LRU ordering under interleaved placements and touches: the single
    /// victim for a minimal request is exactly the least-recently-touched
    /// non-exempt resident (each event gets a unique logical clock tick, so
    /// the order is total).
    #[test]
    fn lru_victim_is_least_recently_touched(
        n in 2usize..10,
        touches in prop::collection::vec(0usize..10, 1..80),
    ) {
        let p = LruEviction::new();
        let mut last = vec![0u64; n];
        let mut clock = 0u64;
        for (i, slot) in last.iter_mut().enumerate() {
            p.on_placed(&format!("f{i}"), 1, 0);
            clock += 1;
            *slot = clock;
        }
        for fi in touches {
            let fi = fi % n;
            p.on_access(&format!("f{fi}"), 0);
            clock += 1;
            last[fi] = clock;
        }
        let expected = (0..n).min_by_key(|&i| last[i]).unwrap();
        let exempt = |_: &str| false;
        let score = |_: &str| 0.5;
        let c = EvictCtx { exempt: &exempt, score: &score, max_victims: 64 };
        prop_assert_eq!(p.victims(0, 1, &c), vec![format!("f{expected}")]);
    }

    /// LFU ordering under interleaved touches: the single victim is the
    /// least-frequently-touched resident, with recency breaking ties.
    #[test]
    fn lfu_victim_is_least_frequently_touched(
        n in 2usize..10,
        touches in prop::collection::vec(0usize..10, 1..80),
    ) {
        let p = LfuEviction::new();
        let mut count = vec![0u64; n];
        let mut last = vec![0u64; n];
        let mut clock = 0u64;
        for (i, slot) in last.iter_mut().enumerate() {
            p.on_placed(&format!("f{i}"), 1, 0);
            clock += 1;
            *slot = clock;
        }
        for fi in touches {
            let fi = fi % n;
            p.on_access(&format!("f{fi}"), 0);
            clock += 1;
            count[fi] += 1;
            last[fi] = clock;
        }
        let expected = (0..n).min_by_key(|&i| (count[i], last[i])).unwrap();
        let exempt = |_: &str| false;
        let score = |_: &str| 0.5;
        let c = EvictCtx { exempt: &exempt, score: &score, max_victims: 64 };
        prop_assert_eq!(p.victims(0, 1, &c), vec![format!("f{expected}")]);
    }
}
