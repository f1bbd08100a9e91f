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

use dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;
use dlpipe::sim::{ClusterConfig, ClusterTrainer, Sharding};
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

/// Generate the `sim_epoch` snapshot: a fixed-seed miniature MONARCH run
/// (24 MiB dataset, 2 epochs) reduced to the paper's headline shape —
/// per-epoch virtual seconds, PFS bytes moved, and the local-tier hit
/// ratio — plus the `sim_cluster` peer-cache variant
/// ([`sim_cluster_entries`]). Deterministic, so the tolerance gate
/// catches behaviour drift.
#[must_use]
pub fn sim_epoch_doc() -> BenchDoc {
    let geom = DatasetGeom::miniature("bench", 24_576, 9);
    let model = ModelProfile::lenet();
    let r = crate::run_once(
        &Setup::Monarch(MonarchSimConfig::with_ssd_capacity(8 << 30)),
        &geom,
        &model,
        &EnvConfig::default(),
        0x5eed,
        2,
    );
    let t = r.telemetry.as_ref().expect("monarch runs attach telemetry");
    let pfs_bytes: u64 = r
        .epochs
        .iter()
        .map(|e| e.devices[r.pfs_device].bytes_read())
        .sum();
    let mut entries = Vec::new();
    for (i, e) in r.epochs.iter().enumerate() {
        entries.push(sim_entry(
            &format!("monarch/epoch{}_seconds", i + 1),
            e.seconds,
            "s",
            false,
        ));
    }
    entries.push(sim_entry(
        "monarch/pfs_bytes_read",
        pfs_bytes as f64,
        "bytes",
        false,
    ));
    entries.push(sim_entry(
        "monarch/local_hit_ratio",
        t.stats.local_hit_ratio(),
        "ratio",
        true,
    ));
    entries.push(sim_entry(
        "monarch/copies_completed",
        t.stats.copies_completed as f64,
        "count",
        false,
    ));
    entries.extend(sim_cluster_entries());
    entries.extend(sim_outage_entries());
    entries.extend(sim_policy_entries());
    BenchDoc {
        name: "sim_epoch".into(),
        git_rev: git_rev(),
        entries,
    }
}

/// The `sim_outage` variant inside the `sim_epoch` snapshot: the chaos
/// scenario — a full SSD outage spanning the middle half of epoch 2 of a
/// fully-fitting run. Gated claims: degraded-mode throughput stays at the
/// no-fast-tier (vanilla-lustre) floor, the breaker quarantines and then
/// re-admits the tier, and the post-recovery epoch returns to local-read
/// speed. The window bounds come from a healthy probe run with the same
/// seed, so the whole triple is deterministic.
fn sim_outage_entries() -> Vec<BenchEntry> {
    use simfs::{FaultKind, FaultPlan};
    let geom = DatasetGeom::miniature("outage-bench", 24_576, 9);
    let model = ModelProfile::lenet();
    let env = EnvConfig {
        interference: false,
        ..EnvConfig::default()
    };
    let setup = Setup::Monarch(MonarchSimConfig::with_ssd_capacity(8 << 30));
    let healthy = crate::run_once(&setup, &geom, &model, &env, 0x5eed, 3);
    let e1_start = healthy.metadata_init_seconds + healthy.epochs[0].seconds;
    let plan = FaultPlan::new(0xfa11).with_window(
        "ssd",
        e1_start + 0.25 * healthy.epochs[1].seconds,
        e1_start + 0.75 * healthy.epochs[1].seconds,
        FaultKind::Outage,
    );
    let faulted_env = EnvConfig {
        fault_plan: Some(plan),
        ..env.clone()
    };
    let faulted = crate::run_once(&setup, &geom, &model, &faulted_env, 0x5eed, 3);
    // Vanilla-lustre never routes through the SSD, so with the same plan
    // attached the window entry is a pure no-fast-tier throughput marker
    // over the identical virtual-time interval.
    let baseline = crate::run_once(
        &Setup::VanillaLustre,
        &geom,
        &model,
        &faulted_env,
        0x5eed,
        3,
    );
    let t = faulted
        .telemetry
        .as_ref()
        .expect("monarch attaches telemetry");
    let health = t.health.as_ref().expect("monarch attaches health");
    let window_rate = faulted.fault_windows[0].samples_per_s;
    let floor_rate = baseline.fault_windows[0].samples_per_s;
    vec![
        sim_entry(
            "sim_outage/degraded_samples_per_s",
            window_rate,
            "samples/s",
            true,
        ),
        sim_entry(
            "sim_outage/degraded_vs_lustre_ratio",
            window_rate / floor_rate,
            "ratio",
            true,
        ),
        sim_entry(
            "sim_outage/recovery_epoch_seconds",
            faulted.epochs[2].seconds,
            "s",
            false,
        ),
        sim_entry(
            "sim_outage/recoveries",
            health.tiers.iter().map(|h| h.recoveries).sum::<u64>() as f64,
            "count",
            true,
        ),
        sim_entry(
            "sim_outage/degraded_reads",
            t.stats.degraded_reads as f64,
            "count",
            false,
        ),
    ]
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
    let model = ModelProfile::lenet();
    let cap = geom.total_bytes() / 2;
    let env = EnvConfig::congested_pfs();
    let run = |policy| {
        crate::run_once(
            &Setup::Monarch(MonarchSimConfig::policy_ablation(policy, cap)),
            &geom,
            &model,
            &env,
            1,
            3,
        )
    };
    let ff = run(PolicyKind::FirstFit);
    let lru = run(PolicyKind::LruEvict);
    let clair = run(PolicyKind::Clairvoyant);
    let learned = run(PolicyKind::Learned);
    let lru_stats = &lru.telemetry.as_ref().expect("telemetry").stats;
    vec![
        sim_entry(
            "sim_policy/first_fit_total_seconds",
            ff.total_seconds(),
            "s",
            false,
        ),
        sim_entry(
            "sim_policy/lru_total_seconds",
            lru.total_seconds(),
            "s",
            false,
        ),
        sim_entry(
            "sim_policy/lru_vs_first_fit_ratio",
            lru.total_seconds() / ff.total_seconds(),
            "ratio",
            false,
        ),
        sim_entry(
            "sim_policy/clairvoyant_total_seconds",
            clair.total_seconds(),
            "s",
            false,
        ),
        sim_entry(
            "sim_policy/learned_total_seconds",
            learned.total_seconds(),
            "s",
            false,
        ),
        sim_entry(
            "sim_policy/lru_evictions",
            lru_stats.evictions as f64,
            "count",
            true,
        ),
        sim_entry(
            "sim_policy/lru_pfs_ops",
            lru.pfs_ops() as f64,
            "count",
            false,
        ),
        sim_entry(
            "sim_policy/first_fit_pfs_ops",
            ff.pfs_ops() as f64,
            "count",
            false,
        ),
    ]
}

/// The `sim_cluster` variant inside the `sim_epoch` snapshot: a
/// fixed-seed 4-node peer-cache run (global-shuffle workload, per-node
/// quota 1/16 of the dataset) reduced to the scaling claim — warm-epoch
/// aggregate throughput, per-node PFS bytes, and peer-hit volume.
fn sim_cluster_entries() -> Vec<BenchEntry> {
    let geom = DatasetGeom::miniature("cluster-bench", 12_288, 7);
    let quota = geom.total_bytes() / 16;
    let r = ClusterTrainer::new(
        ClusterConfig {
            monarch_ssd_capacity: Some(quota),
            ..ClusterConfig::monarch_peer(4, Sharding::Static)
        },
        geom,
        ModelProfile::lenet(),
        PipelineConfig::default().with_seed(0xc1a5),
        EnvConfig::default(),
    )
    .run(2);
    let warm = r.epochs.len() - 1;
    vec![
        sim_entry(
            "sim_cluster/warm_epoch_seconds",
            r.epochs[warm].seconds,
            "s",
            false,
        ),
        sim_entry(
            "sim_cluster/agg_bytes_per_s",
            r.agg_bytes_per_s(warm),
            "bytes/s",
            true,
        ),
        sim_entry(
            "sim_cluster/pfs_bytes_per_node",
            r.pfs_bytes_per_node(warm),
            "bytes",
            false,
        ),
        sim_entry(
            "sim_cluster/peer_hits",
            r.epochs[warm].peer_hits as f64,
            "count",
            true,
        ),
        sim_entry(
            "sim_cluster/peer_fallbacks",
            r.epochs[warm].peer_fallbacks as f64,
            "count",
            false,
        ),
    ]
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
