//! The model-behaviour snapshot: `BENCH_sim_epoch.json`, committed at the
//! repo root, plus the tolerance-gated comparison that `scripts/check.sh
//! model` runs against it.
//!
//! `sim_epoch` holds virtual-time epoch seconds, bytes moved, and hit
//! ratios from fixed-seed miniature MONARCH simulations. It is
//! deterministic — any drift beyond tolerance is a change in what the
//! model *does*, not noise — and it says nothing about how fast the code
//! runs: wall-clock performance is `BENCHMARK.json`'s job.

use std::path::{Path, PathBuf};

use dlpipe::config::{EnvConfig, MonarchSimConfig, Setup};
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;
use dlpipe::sim::Sharding;
use serde::{Deserialize, Serialize};

/// One normalized measurement inside a [`BenchDoc`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable identifier, e.g. `monarch/epoch1_seconds`.
    pub id: String,
    /// The gated value.
    pub value: f64,
    /// Unit of `value`: `s`, `bytes`, `ratio`, `count`.
    pub unit: String,
    /// Comparison direction: `true` means a *drop* in `value` is the
    /// regression (hit ratios); default `false` means a rise is (seconds,
    /// bytes moved).
    #[serde(default)]
    pub higher_is_better: bool,
}

/// A committed snapshot: the model's behaviour at one git revision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchDoc {
    /// Snapshot family (`sim_epoch`) — names the file `BENCH_<name>.json`.
    pub name: String,
    /// `git rev-parse --short HEAD` at capture time (`unknown` outside a
    /// checkout).
    pub git_rev: String,
    /// Normalized measurements, in execution order.
    pub entries: Vec<BenchEntry>,
}

/// One entry that moved beyond tolerance (or disappeared).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Entry id from the baseline.
    pub id: String,
    /// Human-readable description of the failure.
    pub detail: String,
}

/// Short git revision of the working tree, or `"unknown"`.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| String::from("unknown"), |s| s.trim().to_string())
}

/// Repository root (where `BENCH_sim_epoch.json` lives).
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn sim_entry(id: &str, value: f64, unit: &str, higher_is_better: bool) -> BenchEntry {
    BenchEntry {
        id: id.to_string(),
        value,
        unit: unit.to_string(),
        higher_is_better,
    }
}

/// `(name, value, unit, higher_is_better)` rows as the entries
/// `<group>/<name>`.
fn group(group: &str, rows: &[(&str, f64, &str, bool)]) -> Vec<BenchEntry> {
    rows.iter()
        .map(|&(name, value, unit, up)| sim_entry(&format!("{group}/{name}"), value, unit, up))
        .collect()
}

/// Generate the `sim_epoch` snapshot: a fixed-seed miniature MONARCH run
/// (24 MiB dataset, 2 epochs) reduced to the paper's headline shape —
/// per-epoch virtual seconds, PFS bytes moved, and the local-tier hit
/// ratio — plus the `sim_cluster`, `sim_outage` and `sim_policy`
/// variants. Deterministic, so the tolerance gate catches behaviour
/// drift.
#[must_use]
pub fn sim_epoch_doc() -> BenchDoc {
    let geom = DatasetGeom::miniature("bench", 24_576, 9);
    let setup = Setup::Monarch(MonarchSimConfig::with_ssd_capacity(8 << 30));
    let env = EnvConfig::default();
    let r = crate::run_once(&setup, &geom, &ModelProfile::lenet(), &env, 0x5eed, 2);
    let stats = &r.telemetry.as_ref().expect("telemetry").stats;
    let (e1, e2) = (r.epochs[0].seconds, r.epochs[1].seconds);
    let pfs_bytes = crate::pfs_bytes_read(&r) as f64;
    let (hit_ratio, copies) = (stats.local_hit_ratio(), stats.copies_completed as f64);
    let mut entries = group(
        "monarch",
        &[
            ("epoch1_seconds", e1, "s", false),
            ("epoch2_seconds", e2, "s", false),
            ("pfs_bytes_read", pfs_bytes, "bytes", false),
            ("local_hit_ratio", hit_ratio, "ratio", true),
            ("copies_completed", copies, "count", false),
        ],
    );
    entries.extend(sim_cluster_entries());
    entries.extend(sim_outage_entries());
    entries.extend(sim_policy_entries());
    BenchDoc {
        name: "sim_epoch".into(),
        git_rev: git_rev(),
        entries,
    }
}

/// The `sim_outage` variant inside the `sim_epoch` snapshot: the
/// [`crate::ssd_outage`] scenario that `bench fig chaos_outage` runs, on a
/// smaller dataset. Gated claims: degraded-mode throughput stays at the
/// no-fast-tier (vanilla-lustre) floor, the breaker quarantines and then
/// re-admits the tier, and the post-recovery epoch returns to local-read
/// speed.
fn sim_outage_entries() -> Vec<BenchEntry> {
    let geom = DatasetGeom::miniature("outage-bench", 24_576, 9);
    let run = crate::ssd_outage(&geom, 0x5eed, 0xfa11);
    let t = run.faulted.telemetry.as_ref().expect("telemetry");
    let health = t.health.as_ref().expect("health");
    let rate = run.faulted.fault_windows[0].samples_per_s;
    let floor = run.floor.fault_windows[0].samples_per_s;
    let recovery_s = run.faulted.epochs[2].seconds;
    let recoveries = health.tiers.iter().map(|h| h.recoveries).sum::<u64>() as f64;
    let degraded = t.stats.degraded_reads as f64;
    group(
        "sim_outage",
        &[
            ("degraded_samples_per_s", rate, "samples/s", true),
            ("degraded_vs_lustre_ratio", rate / floor, "ratio", true),
            ("recovery_epoch_seconds", recovery_s, "s", false),
            ("recoveries", recoveries, "count", true),
            ("degraded_reads", degraded, "count", false),
        ],
    )
}

/// The `sim_policy` variant inside the `sim_epoch` snapshot: the
/// partial-cache policy ablation — fast tier at half the dataset on a
/// congested PFS ([`EnvConfig::congested_pfs`]), clairvoyant lookahead
/// 64, three epochs. Gated claims: LRU eviction beats the paper's
/// no-eviction first-fit on wall time (the ratio entry), the clairvoyant
/// policy at least matches LRU, and recycling the quota slashes
/// synchronous PFS ops. Deterministic virtual time, so any drift is a
/// behaviour change.
fn sim_policy_entries() -> Vec<BenchEntry> {
    use monarch_core::config::PolicyKind;
    let geom = DatasetGeom::miniature("policy-bench", 16_384, 42);
    let (model, env) = (ModelProfile::lenet(), EnvConfig::congested_pfs());
    // (total seconds, PFS ops, evictions) of one run.
    let run = |policy| {
        let cfg = MonarchSimConfig::policy_ablation(policy, geom.total_bytes() / 2);
        let r = crate::run_once(&Setup::Monarch(cfg), &geom, &model, &env, 1, 3);
        let evictions = r.telemetry.as_ref().expect("telemetry").stats.evictions;
        (r.total_seconds(), r.pfs_ops() as f64, evictions as f64)
    };
    let (ff_s, ff_ops, _) = run(PolicyKind::FirstFit);
    let (lru_s, lru_ops, evictions) = run(PolicyKind::LruEvict);
    let (clair_s, ..) = run(PolicyKind::Clairvoyant);
    let (learned_s, ..) = run(PolicyKind::Learned);
    group(
        "sim_policy",
        &[
            ("first_fit_total_seconds", ff_s, "s", false),
            ("lru_total_seconds", lru_s, "s", false),
            ("lru_vs_first_fit_ratio", lru_s / ff_s, "ratio", false),
            ("clairvoyant_total_seconds", clair_s, "s", false),
            ("learned_total_seconds", learned_s, "s", false),
            ("lru_evictions", evictions, "count", true),
            ("lru_pfs_ops", lru_ops, "count", false),
            ("first_fit_pfs_ops", ff_ops, "count", false),
        ],
    )
}

/// The `sim_cluster` variant inside the `sim_epoch` snapshot: the
/// [`crate::peer_cluster`] scenario that `bench fig peer_scaling` sweeps,
/// at 4 nodes with static ownership, reduced to the scaling claim —
/// warm-epoch aggregate throughput, per-node PFS bytes, and peer-hit
/// volume.
fn sim_cluster_entries() -> Vec<BenchEntry> {
    let geom = DatasetGeom::miniature("cluster-bench", 12_288, 7);
    let r = crate::peer_cluster(&geom, 4, Sharding::Static, 0xc1a5, 2);
    let warm = r.epochs.len() - 1;
    let e = &r.epochs[warm];
    let (agg, pfs) = (r.agg_bytes_per_s(warm), r.pfs_bytes_per_node(warm));
    let (hits, fallbacks) = (e.peer_hits as f64, e.peer_fallbacks as f64);
    group(
        "sim_cluster",
        &[
            ("warm_epoch_seconds", e.seconds, "s", false),
            ("agg_bytes_per_s", agg, "bytes/s", true),
            ("pfs_bytes_per_node", pfs, "bytes", false),
            ("peer_hits", hits, "count", true),
            ("peer_fallbacks", fallbacks, "count", false),
        ],
    )
}

/// Write `doc` as `BENCH_<name>.json` at the repo root; returns the path.
///
/// # Errors
/// Propagates serialization and I/O failures as strings.
pub fn write(doc: &BenchDoc) -> Result<PathBuf, String> {
    let path = repo_root().join(format!("BENCH_{}.json", doc.name));
    let json = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| e.to_string())?;
    Ok(path)
}

/// Load a committed baseline.
///
/// # Errors
/// Propagates read and parse failures as strings.
pub fn load(path: &Path) -> Result<BenchDoc, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Diff `run` against `baseline`: every baseline entry must be present
/// and must not regress by more than `tolerance` (a fraction, e.g. 0.15)
/// in its bad direction. Improvements always pass; entries new in `run`
/// are ignored (they gate once committed).
#[must_use]
pub fn compare(baseline: &BenchDoc, run: &BenchDoc, tolerance: f64) -> Vec<Violation> {
    let mut violations = Vec::new();
    for base in &baseline.entries {
        let Some(cur) = run.entries.iter().find(|e| e.id == base.id) else {
            violations.push(Violation {
                id: base.id.clone(),
                detail: "present in baseline but missing from this run".into(),
            });
            continue;
        };
        if base.value == 0.0 {
            // Zero baselines (e.g. a bytes counter at 0) gate exactly:
            // any nonzero regression in the bad direction fails.
            let regressed = if base.higher_is_better {
                cur.value < 0.0
            } else {
                cur.value > 0.0
            };
            if regressed {
                violations.push(Violation {
                    id: base.id.clone(),
                    detail: format!("baseline 0 {u}, now {v} {u}", v = cur.value, u = base.unit),
                });
            }
            continue;
        }
        let rel = (cur.value - base.value) / base.value;
        let regression = if base.higher_is_better { -rel } else { rel };
        if regression > tolerance {
            violations.push(Violation {
                id: base.id.clone(),
                detail: format!(
                    "{dir} {pct:.1}% (baseline {b:.1} {u}, now {c:.1} {u}, tolerance {t:.0}%)",
                    dir = if rel > 0.0 { "up" } else { "down" },
                    pct = rel.abs() * 100.0,
                    b = base.value,
                    c = cur.value,
                    u = base.unit,
                    t = tolerance * 100.0,
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: Vec<BenchEntry>) -> BenchDoc {
        BenchDoc {
            name: "t".into(),
            git_rev: "abc".into(),
            entries,
        }
    }

    fn entry(id: &str, value: f64, higher_is_better: bool) -> BenchEntry {
        sim_entry(id, value, "s", higher_is_better)
    }

    #[test]
    fn compare_is_direction_aware() {
        let base = doc(vec![entry("lat", 100.0, false), entry("hits", 0.8, true)]);
        // Latency down 50% and hits up: both improvements, no violations.
        let better = doc(vec![entry("lat", 50.0, false), entry("hits", 0.9, true)]);
        assert!(compare(&base, &better, 0.15).is_empty());
        // Latency up 16% and hits down 20%: both out of tolerance.
        let worse = doc(vec![entry("lat", 116.0, false), entry("hits", 0.64, true)]);
        let v = compare(&base, &worse, 0.15);
        assert_eq!(v.len(), 2, "{v:?}");
        // Within tolerance: 10% either way passes.
        let near = doc(vec![entry("lat", 110.0, false), entry("hits", 0.75, true)]);
        assert!(compare(&base, &near, 0.15).is_empty());
    }

    #[test]
    fn missing_entries_are_violations() {
        let base = doc(vec![entry("lat", 100.0, false)]);
        let run = doc(vec![entry("other", 1.0, false)]);
        let v = compare(&base, &run, 0.15);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("missing"));
    }

    #[test]
    fn zero_baselines_gate_exactly() {
        let base = doc(vec![entry("pfs_bytes", 0.0, false)]);
        assert!(compare(&base, &doc(vec![entry("pfs_bytes", 0.0, false)]), 0.15).is_empty());
        assert_eq!(
            compare(&base, &doc(vec![entry("pfs_bytes", 7.0, false)]), 0.15).len(),
            1
        );
    }

    #[test]
    fn doc_round_trips_through_json() {
        let d = doc(vec![
            entry("monarch/epoch1_seconds", 123.5, false),
            entry("monarch/local_hit_ratio", 0.9, true),
        ]);
        let json = serde_json::to_string_pretty(&d).unwrap();
        let back: BenchDoc = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].id, "monarch/epoch1_seconds");
        assert_eq!(back.entries[0].value, 123.5);
        assert!(back.entries[1].higher_is_better);
    }

    #[test]
    fn sim_epoch_doc_is_deterministic() {
        let a = sim_epoch_doc();
        let b = sim_epoch_doc();
        assert!(!a.entries.is_empty());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.id, y.id);
            assert!(
                (x.value - y.value).abs() < 1e-9,
                "{}: {} vs {}",
                x.id,
                x.value,
                y.value
            );
        }
        // The miniature dataset fully fits: epoch 2 must beat epoch 1 and
        // the hit ratio must be meaningful.
        let get = |id: &str| a.entries.iter().find(|e| e.id == id).unwrap().value;
        assert!(get("monarch/epoch2_seconds") < get("monarch/epoch1_seconds"));
        assert!(get("monarch/local_hit_ratio") > 0.5);
        assert!(get("monarch/pfs_bytes_read") > 0.0);
        // The sim_cluster variant rides in the same doc: peers must be
        // serving traffic on the warm epoch.
        assert!(get("sim_cluster/peer_hits") > 0.0);
        assert!(get("sim_cluster/agg_bytes_per_s") > 0.0);
        assert!(get("sim_cluster/pfs_bytes_per_node") > 0.0);
        // The sim_outage chaos variant: degraded mode holds the
        // no-fast-tier floor and the breaker re-admitted the tier.
        assert!(get("sim_outage/degraded_vs_lustre_ratio") > 0.9);
        assert!(get("sim_outage/recoveries") >= 1.0);
        assert!(get("sim_outage/degraded_reads") > 0.0);
        // The sim_policy ablation: eviction beats the no-eviction
        // baseline on the congested-PFS partial cache, clairvoyant at
        // least matches LRU, and PFS ops collapse.
        assert!(get("sim_policy/lru_vs_first_fit_ratio") < 0.6);
        assert!(
            get("sim_policy/clairvoyant_total_seconds")
                <= get("sim_policy/lru_total_seconds") * 1.05
        );
        assert!(get("sim_policy/lru_evictions") > 0.0);
        assert!(get("sim_policy/lru_pfs_ops") < get("sim_policy/first_fit_pfs_ops") / 3.0);
    }
}
