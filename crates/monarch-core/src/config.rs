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
    /// Rotate across local tiers, no eviction (ablation).
    RoundRobin,
    /// First-fit with LRU eviction (ablation; named for the legacy
    /// `LruEvict` policy this selector used to construct).
    LruEvict,
    /// First-fit with LFU eviction (recency tie-break).
    Lfu,
    /// First-fit with GDSF-style cost-aware eviction.
    CostAware,
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
            "round_robin" => PolicyKind::RoundRobin,
            "lru_evict" | "lru" => PolicyKind::LruEvict,
            "lfu" => PolicyKind::Lfu,
            "cost_aware" => PolicyKind::CostAware,
            "clairvoyant" => PolicyKind::Clairvoyant,
            "learned" => PolicyKind::Learned,
            _ => return None,
        })
    }

    /// Every selector, in ablation order (CLI usage text, experiment
    /// sweeps).
    #[must_use]
    pub fn all() -> [PolicyKind; 7] {
        [
            PolicyKind::FirstFit,
            PolicyKind::RoundRobin,
            PolicyKind::LruEvict,
            PolicyKind::Lfu,
            PolicyKind::CostAware,
            PolicyKind::Clairvoyant,
            PolicyKind::Learned,
        ]
    }

    /// The canonical snake_case spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyKind::FirstFit => "first_fit",
            PolicyKind::RoundRobin => "round_robin",
            PolicyKind::LruEvict => "lru_evict",
            PolicyKind::Lfu => "lfu",
            PolicyKind::CostAware => "cost_aware",
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
    /// Deny files larger than a byte threshold.
    SizeThreshold {
        /// Largest admissible file in bytes.
        max_bytes: u64,
    },
    /// Deny demand admissions for profiler-proven cold files.
    ReuseAware,
}

impl AdmissionKind {
    /// Parse the CLI/FFI spelling: `admit_all`, `reuse_aware`, or
    /// `size_threshold:<bytes>`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(bytes) = s.strip_prefix("size_threshold:") {
            return bytes
                .parse()
                .ok()
                .map(|max_bytes| AdmissionKind::SizeThreshold { max_bytes });
        }
        Some(match s {
            "admit_all" => AdmissionKind::AdmitAll,
            "reuse_aware" => AdmissionKind::ReuseAware,
            _ => return None,
        })
    }
}

/// Telemetry knobs: histogram/journal recording and the journal bound.
///
/// Defaults keep everything on — recording is relaxed-atomic and the
/// journal append is `O(1)`; what they cost a warm read is
/// `telemetry.on_minus_off_ns` in `BENCHMARK.json`.
/// Setting `enabled: false` skips driver wrapping and pool stamping
/// entirely for a zero-overhead baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch: when false no histograms are recorded, drivers are
    /// not wrapped, and the journal is off.
    #[serde(default = "default_true")]
    pub enabled: bool,
    /// Record copy-lifecycle/placement events into the journal.
    #[serde(default = "default_true")]
    pub journal: bool,
    /// Ring-buffer bound: oldest events are overwritten past this count.
    #[serde(default = "default_journal_capacity")]
    pub journal_capacity: usize,
    /// Record a causal span tree for every N-th `read` (plus the copy it
    /// spawns). 0 — the default — disables tracing entirely; the read
    /// path then pays a single branch on an immutable bool.
    #[serde(default)]
    pub trace_sample_every_n: u64,
    /// Span-ring bound: oldest spans are dropped past this count.
    #[serde(default = "default_trace_capacity")]
    pub trace_capacity: usize,
    /// Workload observatory: per-file access profiler + tier-residency
    /// timeline. Gated by `enabled` as well — off when either is false.
    #[serde(default = "default_true")]
    pub profiler: bool,
    /// Profiler bound: distinct files tracked; further names only bump a
    /// global untracked-reads counter.
    #[serde(default = "default_profiler_max_files")]
    pub profiler_max_files: usize,
    /// Residency-timeline ring bound: oldest transitions are dropped
    /// past this count.
    #[serde(default = "default_timeline_capacity")]
    pub timeline_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            journal: true,
            journal_capacity: default_journal_capacity(),
            trace_sample_every_n: 0,
            trace_capacity: default_trace_capacity(),
            profiler: true,
            profiler_max_files: default_profiler_max_files(),
            timeline_capacity: default_timeline_capacity(),
        }
    }
}

impl TelemetryConfig {
    /// Everything off: no histograms, no journal, unwrapped drivers.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            journal: false,
            profiler: false,
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

fn default_journal_capacity() -> usize {
    4096
}

fn default_trace_capacity() -> usize {
    65536
}

fn default_profiler_max_files() -> usize {
    65536
}

fn default_timeline_capacity() -> usize {
    4096
}

impl MonarchConfig {
    /// Start building a configuration.
    #[must_use]
    pub fn builder() -> MonarchConfigBuilder {
        MonarchConfigBuilder::default()
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

/// Builder for [`MonarchConfig`].
#[derive(Debug, Default)]
pub struct MonarchConfigBuilder {
    tiers: Vec<TierConfig>,
    pool_threads: Option<usize>,
    policy: PolicyKind,
    admission: AdmissionKind,
    full_file_fetch: Option<bool>,
    telemetry: Option<TelemetryConfig>,
    prefetch_lookahead: Option<usize>,
    prefetch_max_inflight_bytes: Option<u64>,
    metrics_addr: Option<String>,
    cluster: Option<crate::cluster::ClusterConfig>,
}

impl MonarchConfigBuilder {
    /// Append a tier (fastest first; add the PFS last).
    #[must_use]
    pub fn tier(mut self, tier: TierConfig) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Background copy pool size.
    #[must_use]
    pub fn pool_threads(mut self, n: usize) -> Self {
        self.pool_threads = Some(n);
        self
    }

    /// Placement policy.
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Admission policy.
    #[must_use]
    pub fn admission(mut self, admission: AdmissionKind) -> Self {
        self.admission = admission;
        self
    }

    /// Toggle the full-file-fetch optimisation.
    #[must_use]
    pub fn full_file_fetch(mut self, on: bool) -> Self {
        self.full_file_fetch = Some(on);
        self
    }

    /// Telemetry recording knobs.
    #[must_use]
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Clairvoyant prefetch lookahead (plan entries past the read cursor;
    /// 0 disables prefetching).
    #[must_use]
    pub fn prefetch_lookahead(mut self, n: usize) -> Self {
        self.prefetch_lookahead = Some(n);
        self
    }

    /// Cap on in-flight prefetch copy bytes (0 = unbounded).
    #[must_use]
    pub fn prefetch_max_inflight_bytes(mut self, bytes: u64) -> Self {
        self.prefetch_max_inflight_bytes = Some(bytes);
        self
    }

    /// Address for the `/metrics` HTTP exporter (`None` = no server).
    #[must_use]
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Join a distributed peer cache (`None` default = single-node).
    #[must_use]
    pub fn cluster(mut self, cfg: crate::cluster::ClusterConfig) -> Self {
        self.cluster = Some(cfg);
        self
    }

    /// Finish building.
    #[must_use]
    pub fn build(self) -> MonarchConfig {
        MonarchConfig {
            tiers: self.tiers,
            pool_threads: self.pool_threads.unwrap_or_else(default_pool_threads),
            policy: self.policy,
            admission: self.admission,
            full_file_fetch: self.full_file_fetch.unwrap_or(true),
            telemetry: self.telemetry.unwrap_or_default(),
            prefetch_lookahead: self.prefetch_lookahead.unwrap_or(0),
            prefetch_max_inflight_bytes: self
                .prefetch_max_inflight_bytes
                .unwrap_or_else(default_prefetch_max_inflight_bytes),
            metrics_addr: self.metrics_addr,
            cluster: self.cluster,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let cfg = MonarchConfig::builder()
            .tier(TierConfig::mem("ssd").with_capacity(100))
            .tier(TierConfig::mem("pfs"))
            .build();
        assert_eq!(cfg.pool_threads, 6);
        assert_eq!(cfg.policy, PolicyKind::FirstFit);
        assert!(cfg.full_file_fetch);
        assert_eq!(cfg.tiers.len(), 2);
        assert_eq!(cfg.prefetch_lookahead, 0, "prefetch is opt-in");
        assert_eq!(cfg.prefetch_max_inflight_bytes, 256 << 20);
    }

    #[test]
    fn prefetch_knobs_build_and_parse() {
        let cfg = MonarchConfig::builder()
            .tier(TierConfig::mem("ssd").with_capacity(100))
            .tier(TierConfig::mem("pfs"))
            .prefetch_lookahead(32)
            .prefetch_max_inflight_bytes(64 << 20)
            .build();
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
        let cfg = MonarchConfig::builder()
            .tier(TierConfig::posix("ssd", "/scratch").with_capacity(115 << 30))
            .tier(TierConfig::posix("lustre", "/mnt/lustre/imagenet"))
            .pool_threads(6)
            .policy(PolicyKind::FirstFit)
            .build();
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
        assert!(cfg.telemetry.journal);
        assert_eq!(cfg.telemetry.journal_capacity, 4096);
        assert_eq!(cfg.telemetry.trace_sample_every_n, 0, "tracing is opt-in");
        assert_eq!(cfg.telemetry.trace_capacity, 65536);
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
        let solo = MonarchConfig::builder()
            .tier(TierConfig::mem("pfs"))
            .build();
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
        let cfg = MonarchConfig::builder()
            .tier(TierConfig::mem("pfs"))
            .policy(PolicyKind::Learned)
            .admission(AdmissionKind::SizeThreshold { max_bytes: 1 << 20 })
            .build();
        let back = MonarchConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.policy, PolicyKind::Learned);
        assert_eq!(
            back.admission,
            AdmissionKind::SizeThreshold { max_bytes: 1 << 20 }
        );
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
        assert_eq!(
            AdmissionKind::parse("size_threshold:4096"),
            Some(AdmissionKind::SizeThreshold { max_bytes: 4096 })
        );
        assert_eq!(AdmissionKind::parse("size_threshold:x"), None);
        assert_eq!(AdmissionKind::parse("nope"), None);
    }

    #[test]
    fn telemetry_config_parses() {
        let json = r#"{
            "tiers": [
                {"name": "ssd", "backend": "mem", "capacity": 10},
                {"name": "pfs", "backend": "mem"}
            ],
            "telemetry": {"enabled": true, "journal": false, "journal_capacity": 16,
                          "trace_sample_every_n": 8, "trace_capacity": 1024}
        }"#;
        let cfg = MonarchConfig::from_json(json).unwrap();
        assert!(cfg.telemetry.enabled);
        assert!(!cfg.telemetry.journal);
        assert_eq!(cfg.telemetry.journal_capacity, 16);
        assert_eq!(cfg.telemetry.trace_sample_every_n, 8);
        assert_eq!(cfg.telemetry.trace_capacity, 1024);
        let off = TelemetryConfig::disabled();
        assert!(!off.enabled && !off.journal);
        assert_eq!(off.trace_sample_every_n, 0);
        let tracing = TelemetryConfig::with_tracing();
        assert!(tracing.enabled && tracing.trace_sample_every_n == 1);
    }
}
