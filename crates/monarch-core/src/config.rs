//! Middleware configuration — the knobs the paper's "system designer"
//! specifies before execution (§III-B): the ordered storage tiers, the
//! placement policy, and the copy pool size.

use serde::{Deserialize, Serialize};

/// Backend kind for a tier.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BackendKind {
    /// Real directory tree (production path).
    Posix {
        /// Root directory of the backend.
        path: String,
    },
    /// In-memory backend (tests, RAM tier).
    Mem,
}

/// One tier of the hierarchy, ordered fastest-first; the final entry is the
/// read-only PFS source holding the dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Human-readable tier name.
    pub name: String,
    /// Backend kind.
    pub backend: BackendKind,
    /// Capacity in bytes; required for all tiers except the last.
    #[serde(default)]
    pub capacity: Option<u64>,
}

impl TierConfig {
    /// A POSIX tier rooted at `path`.
    pub fn posix(name: impl Into<String>, path: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            backend: BackendKind::Posix { path: path.into() },
            capacity: None,
        }
    }

    /// An in-memory tier.
    pub fn mem(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            backend: BackendKind::Mem,
            capacity: None,
        }
    }

    /// Set the capacity quota.
    #[must_use]
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = Some(bytes);
        self
    }
}

/// Policy selector: which admission/eviction/scorer composition the
/// [`crate::policy::PolicyEngine`] runs (see
/// [`crate::policy::PolicyEngine::from_kind`] for the exact triples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PolicyKind {
    /// The paper's top-down first-fit without eviction.
    #[default]
    FirstFit,
    /// First-fit with LRU eviction (ablation; named for the legacy
    /// `LruEvict` policy this selector used to construct).
    LruEvict,
    /// First-fit with Belady-style eviction driven by the access plan.
    Clairvoyant,
    /// Learned placement scoring + score-ranked eviction (online
    /// logistic model over profiler features).
    Learned,
}

impl PolicyKind {
    /// Parse the CLI/FFI spelling (the serde snake_case names, plus the
    /// `lru` shorthand). `None` for unknown spellings.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "first_fit" => PolicyKind::FirstFit,
            "lru_evict" | "lru" => PolicyKind::LruEvict,
            "clairvoyant" => PolicyKind::Clairvoyant,
            "learned" => PolicyKind::Learned,
            _ => return None,
        })
    }

    /// Every selector, in ablation order (CLI usage text, experiment
    /// sweeps).
    #[must_use]
    pub fn all() -> [PolicyKind; 4] {
        [
            PolicyKind::FirstFit,
            PolicyKind::LruEvict,
            PolicyKind::Clairvoyant,
            PolicyKind::Learned,
        ]
    }

    /// The canonical snake_case spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyKind::FirstFit => "first_fit",
            PolicyKind::LruEvict => "lru_evict",
            PolicyKind::Clairvoyant => "clairvoyant",
            PolicyKind::Learned => "learned",
        }
    }
}

/// Admission selector: the "is this file worth a tier slot?" half of the
/// policy engine, orthogonal to [`PolicyKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AdmissionKind {
    /// Admit everything (the paper's implicit behaviour; default).
    #[default]
    AdmitAll,
    /// Deny demand admissions for profiler-proven cold files.
    ReuseAware,
}

impl AdmissionKind {
    /// Parse the CLI/FFI spelling: `admit_all` or `reuse_aware`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "admit_all" => AdmissionKind::AdmitAll,
            "reuse_aware" => AdmissionKind::ReuseAware,
            _ => return None,
        })
    }
}

/// Telemetry knobs: whether to record at all, and how often to trace.
///
/// Defaults keep everything on — recording is relaxed-atomic and the
/// journal append is `O(1)`; what they cost a warm read is
/// `telemetry.on_minus_off_ns` in `BENCHMARK.json`.
/// Setting `enabled: false` keeps the `Stats` counters and turns off the
/// rest — latency histograms (no read or copy is timed), the journal, the
/// access profiler (per-file profiles, stall profile, ledger) and tracing —
/// for a zero-overhead baseline. The rings and the profiler are bounded by
/// constants (4096 journal events, 65536 spans, 65536 profiled files); a
/// config naming a key that once set one parses, and the key is ignored.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch: when false only the `Stats` counters are kept; the
    /// histograms, the journal, tracing and the workload observatory
    /// (access profiler, stall profile) are off.
    #[serde(default = "default_true")]
    pub enabled: bool,
    /// Record a causal span tree for every N-th `read` (plus the copy it
    /// spawns). 0 — the default — disables tracing entirely; the read
    /// path then pays a single branch on an immutable bool.
    #[serde(default)]
    pub trace_sample_every_n: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            trace_sample_every_n: 0,
        }
    }
}

impl TelemetryConfig {
    /// Everything but the counters off: no histograms, journal or profiler.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Defaults plus tracing on every read — what `monarch trace` and the
    /// trace tests use.
    #[must_use]
    pub fn with_tracing() -> Self {
        Self {
            trace_sample_every_n: 1,
            ..Self::default()
        }
    }
}

/// Full middleware configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonarchConfig {
    /// Ordered tiers; last = PFS source.
    pub tiers: Vec<TierConfig>,
    /// Background copy pool size (paper default: 6).
    #[serde(default = "default_pool_threads")]
    pub pool_threads: usize,
    /// Placement policy.
    #[serde(default)]
    pub policy: PolicyKind,
    /// Admission policy (orthogonal to `policy`; default admits all).
    #[serde(default)]
    pub admission: AdmissionKind,
    /// When true (paper behaviour) a partial read of an unplaced file
    /// triggers a background fetch of the *full* file, so subsequent chunks
    /// of the same file hit local storage.
    #[serde(default = "default_true")]
    pub full_file_fetch: bool,
    /// Telemetry recording knobs.
    #[serde(default)]
    pub telemetry: TelemetryConfig,
    /// Clairvoyant prefetch: how many access-plan entries past the
    /// foreground read cursor may have copies in flight. 0 — the default —
    /// disables prefetching; submitted plans are ignored and behaviour is
    /// identical to reactive placement.
    #[serde(default)]
    pub prefetch_lookahead: usize,
    /// Cap on the summed size of issued-but-unfinished prefetch copies
    /// (backpressure so prefetch cannot flood the copy pool). 0 means
    /// unbounded; the default is 256 MiB. Only meaningful when
    /// `prefetch_lookahead > 0`.
    #[serde(default = "default_prefetch_max_inflight_bytes")]
    pub prefetch_max_inflight_bytes: u64,
    /// When set, the built instance starts the `/metrics` HTTP exporter on
    /// this address (e.g. `"127.0.0.1:9464"`; port `0` picks a free port).
    /// `None` — the default — starts no server.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics_addr: Option<String>,
    /// Distributed peer cache membership. `None` — the default — runs
    /// single-node: no shard map, no peer server, no remote lane traffic.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cluster: Option<crate::cluster::ClusterConfig>,
}

pub(crate) fn default_pool_threads() -> usize {
    6
}

fn default_prefetch_max_inflight_bytes() -> u64 {
    256 << 20
}

fn default_true() -> bool {
    true
}

impl MonarchConfig {
    /// A configuration over `tiers` (fastest first, the PFS source last)
    /// with every other field at the default a JSON document that leaves
    /// it out gets. Set a field by assigning it, or with struct update
    /// syntax: `MonarchConfig { pool_threads: 4, ..MonarchConfig::new(tiers) }`.
    #[must_use]
    pub fn new(tiers: Vec<TierConfig>) -> Self {
        Self {
            tiers,
            pool_threads: default_pool_threads(),
            policy: PolicyKind::default(),
            admission: AdmissionKind::default(),
            full_file_fetch: default_true(),
            telemetry: TelemetryConfig::default(),
            prefetch_lookahead: 0,
            prefetch_max_inflight_bytes: default_prefetch_max_inflight_bytes(),
            metrics_addr: None,
            cluster: None,
        }
    }

    /// Parse a configuration from JSON (the FFI surface loads this from the
    /// path in `MONARCH_CONFIG`).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let cfg = MonarchConfig::new(vec![
            TierConfig::mem("ssd").with_capacity(100),
            TierConfig::mem("pfs"),
        ]);
        assert_eq!(cfg.pool_threads, 6);
        assert_eq!(cfg.policy, PolicyKind::FirstFit);
        assert!(cfg.full_file_fetch);
        assert_eq!(cfg.tiers.len(), 2);
        assert_eq!(cfg.prefetch_lookahead, 0, "prefetch is opt-in");
        assert_eq!(cfg.prefetch_max_inflight_bytes, 256 << 20);
        // The defaults are the serde ones: a document naming only the
        // tiers parses to the same configuration.
        let json = r#"{"tiers": [
            {"name": "ssd", "backend": "mem", "capacity": 100},
            {"name": "pfs", "backend": "mem"}
        ]}"#;
        assert_eq!(MonarchConfig::from_json(json).unwrap(), cfg);
    }

    #[test]
    fn prefetch_knobs_build_and_parse() {
        let cfg = MonarchConfig {
            prefetch_lookahead: 32,
            prefetch_max_inflight_bytes: 64 << 20,
            ..MonarchConfig::new(vec![
                TierConfig::mem("ssd").with_capacity(100),
                TierConfig::mem("pfs"),
            ])
        };
        assert_eq!(cfg.prefetch_lookahead, 32);
        assert_eq!(cfg.prefetch_max_inflight_bytes, 64 << 20);
        let back = MonarchConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);

        let json = r#"{
            "tiers": [
                {"name": "ssd", "backend": "mem", "capacity": 10},
                {"name": "pfs", "backend": "mem"}
            ],
            "prefetch_lookahead": 8
        }"#;
        let cfg = MonarchConfig::from_json(json).unwrap();
        assert_eq!(cfg.prefetch_lookahead, 8);
        assert_eq!(
            cfg.prefetch_max_inflight_bytes,
            256 << 20,
            "default cap applies"
        );
    }

    #[test]
    fn json_roundtrip() {
        let cfg = MonarchConfig {
            pool_threads: 6,
            policy: PolicyKind::FirstFit,
            ..MonarchConfig::new(vec![
                TierConfig::posix("ssd", "/scratch").with_capacity(115 << 30),
                TierConfig::posix("lustre", "/mnt/lustre/imagenet"),
            ])
        };
        let json = cfg.to_json();
        let back = MonarchConfig::from_json(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn json_defaults_apply() {
        let json = r#"{
            "tiers": [
                {"name": "ssd", "backend": {"posix": {"path": "/s"}}, "capacity": 10},
                {"name": "pfs", "backend": {"posix": {"path": "/p"}}}
            ]
        }"#;
        let cfg = MonarchConfig::from_json(json).unwrap();
        assert_eq!(cfg.pool_threads, 6);
        assert_eq!(cfg.policy, PolicyKind::FirstFit);
        assert!(cfg.full_file_fetch);
        assert!(cfg.telemetry.enabled);
        assert_eq!(cfg.telemetry.trace_sample_every_n, 0, "tracing is opt-in");
    }

    #[test]
    fn cluster_section_parses_and_roundtrips() {
        let json = r#"{
            "tiers": [
                {"name": "ssd", "backend": "mem", "capacity": 10},
                {"name": "pfs", "backend": "mem"}
            ],
            "cluster": {"node_id": 1, "nodes": ["10.0.0.1:9470", "10.0.0.2:9470"],
                        "shard_seed": 7}
        }"#;
        let cfg = MonarchConfig::from_json(json).unwrap();
        let cluster = cfg.cluster.as_ref().expect("cluster section parsed");
        assert_eq!(cluster.node_id, 1);
        assert_eq!(cluster.nodes.len(), 2);
        assert_eq!(cluster.shard_seed, 7);
        assert_eq!(cluster.peer_timeout_ms, 250, "timeout defaults apply");
        assert!(cluster.serve);
        let back = MonarchConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);
        // Absent section stays absent (and is not serialized).
        let solo = MonarchConfig::new(vec![TierConfig::mem("pfs")]);
        assert!(solo.cluster.is_none());
        assert!(!solo.to_json().contains("cluster"));
    }

    #[test]
    fn policy_kinds_parse_and_roundtrip() {
        for kind in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("lru"), Some(PolicyKind::LruEvict));
        assert_eq!(PolicyKind::parse("belady"), None);
        assert_eq!(PolicyKind::parse("lfu"), None);
        let cfg = MonarchConfig {
            policy: PolicyKind::Learned,
            admission: AdmissionKind::ReuseAware,
            ..MonarchConfig::new(vec![TierConfig::mem("pfs")])
        };
        let back = MonarchConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.policy, PolicyKind::Learned);
        assert_eq!(back.admission, AdmissionKind::ReuseAware);
        // Absent fields default.
        let json = r#"{"tiers": [{"name": "pfs", "backend": "mem"}]}"#;
        let cfg = MonarchConfig::from_json(json).unwrap();
        assert_eq!(cfg.admission, AdmissionKind::AdmitAll);
        // Admission spellings.
        assert_eq!(
            AdmissionKind::parse("admit_all"),
            Some(AdmissionKind::AdmitAll)
        );
        assert_eq!(
            AdmissionKind::parse("reuse_aware"),
            Some(AdmissionKind::ReuseAware)
        );
        assert_eq!(AdmissionKind::parse("size_threshold:4096"), None);
        assert_eq!(AdmissionKind::parse("nope"), None);
    }

    #[test]
    fn telemetry_config_parses() {
        let json = r#"{
            "tiers": [
                {"name": "ssd", "backend": "mem", "capacity": 10},
                {"name": "pfs", "backend": "mem"}
            ],
            "telemetry": {"enabled": true, "trace_sample_every_n": 8}
        }"#;
        let cfg = MonarchConfig::from_json(json).unwrap();
        assert!(cfg.telemetry.enabled);
        assert_eq!(cfg.telemetry.trace_sample_every_n, 8);
        // A config written when the rings and the profiler had knobs still
        // parses: the keys are ignored, and the constants apply.
        let old = json.replace(
            r#""trace_sample_every_n": 8"#,
            r#""trace_sample_every_n": 8, "journal": false, "journal_capacity": 16,
               "trace_capacity": 1024, "profiler": false, "profiler_max_files": 3,
               "timeline_capacity": 8"#,
        );
        assert_ne!(old, json);
        assert_eq!(MonarchConfig::from_json(&old).unwrap(), cfg);
        let off = TelemetryConfig::disabled();
        assert!(!off.enabled);
        assert_eq!(off.trace_sample_every_n, 0);
        let tracing = TelemetryConfig::with_tracing();
        assert!(tracing.enabled && tracing.trace_sample_every_n == 1);
    }
}
