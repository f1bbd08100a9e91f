//! [`MonarchBuilder`]: the one way to assemble a [`Monarch`] instance.
//!
//! Every optional part — the policy engine, pool size, telemetry knobs,
//! clairvoyant prefetch — has a sensible default, so the common test setup
//! is `MonarchBuilder::new().hierarchy(h).build()?`. Production configs go
//! through [`MonarchBuilder::from_config`], which also constructs the
//! backend drivers. The builder wires the shared parts (stats, telemetry,
//! metadata) into a [`TransferEngine`](crate::transfer::TransferEngine)
//! and hands the engine to the read-path facade.

use std::sync::Arc;

use crate::clock::Clock;
use crate::cluster::{Cluster, ClusterConfig, PeerTransport};
use crate::config::{
    default_pool_threads, AdmissionKind, BackendKind, MonarchConfig, PolicyKind, TelemetryConfig,
};
use crate::driver::{MemDriver, PosixDriver, StorageDriver};
use crate::hierarchy::StorageHierarchy;
use crate::lifecycle::Lifecycle;
use crate::middleware::Monarch;
use crate::policy::PolicyEngine;
use crate::prefetch::PrefetchConfig;
use crate::stats::Stats;
use crate::telemetry::TelemetryRegistry;
use crate::transfer::TransferEngine;
use crate::{Error, Result};

/// Builder for [`Monarch`]. Only the storage hierarchy is mandatory.
pub struct MonarchBuilder {
    hierarchy: Option<StorageHierarchy>,
    policy: Option<Arc<PolicyEngine>>,
    policy_kind: PolicyKind,
    admission: AdmissionKind,
    pool_threads: usize,
    full_file_fetch: bool,
    telemetry: TelemetryConfig,
    prefetch: PrefetchConfig,
    metrics_addr: Option<String>,
    cluster: Option<ClusterConfig>,
    peer_transport: Option<Arc<dyn PeerTransport>>,
    clock: Clock,
}

impl Default for MonarchBuilder {
    fn default() -> Self {
        Self {
            hierarchy: None,
            policy: None,
            policy_kind: PolicyKind::default(),
            admission: AdmissionKind::default(),
            pool_threads: default_pool_threads(),
            full_file_fetch: true,
            telemetry: TelemetryConfig::default(),
            prefetch: PrefetchConfig::disabled(),
            metrics_addr: None,
            cluster: None,
            peer_transport: None,
            clock: Clock::host(),
        }
    }
}

impl MonarchBuilder {
    /// Start with defaults: admit-all/no-eviction/first-fit policy, the
    /// paper's 6-thread copy pool, full-file fetch on, default telemetry,
    /// prefetching off.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Seed the builder from a configuration, constructing the backend
    /// drivers (`Posix` tiers touch the filesystem, hence `Result`). The
    /// setters can still override any part before [`Self::build`].
    pub fn from_config(config: MonarchConfig) -> Result<Self> {
        let mut levels: Vec<(String, Arc<dyn StorageDriver>, Option<u64>)> =
            Vec::with_capacity(config.tiers.len());
        for tier in &config.tiers {
            let driver: Arc<dyn StorageDriver> = match &tier.backend {
                BackendKind::Posix { path } => {
                    Arc::new(PosixDriver::new(tier.name.clone(), path.clone())?)
                }
                BackendKind::Mem => Arc::new(MemDriver::new(tier.name.clone())),
            };
            levels.push((tier.name.clone(), driver, tier.capacity));
        }
        Ok(Self {
            hierarchy: Some(StorageHierarchy::new(levels)?),
            policy: None,
            policy_kind: config.policy,
            admission: config.admission,
            pool_threads: config.pool_threads,
            full_file_fetch: config.full_file_fetch,
            telemetry: config.telemetry,
            prefetch: PrefetchConfig {
                lookahead: config.prefetch_lookahead,
                max_inflight_bytes: config.prefetch_max_inflight_bytes,
            },
            metrics_addr: config.metrics_addr,
            cluster: config.cluster,
            ..Self::default()
        })
    }

    /// The storage hierarchy (mandatory).
    #[must_use]
    pub fn hierarchy(mut self, hierarchy: StorageHierarchy) -> Self {
        self.hierarchy = Some(hierarchy);
        self
    }

    /// Select the policy triple by config kind (default:
    /// [`PolicyKind::FirstFit`], the paper baseline). The admission gate
    /// composes independently via [`Self::admission`].
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy_kind = kind;
        self.policy = None;
        self
    }

    /// Admission gate in front of demand and prefetch copies (default:
    /// [`AdmissionKind::AdmitAll`]).
    #[must_use]
    pub fn admission(mut self, admission: AdmissionKind) -> Self {
        self.admission = admission;
        self.policy = None;
        self
    }

    /// Install a fully custom policy engine (tests, embedders composing
    /// their own trait implementations). Overrides [`Self::policy`] and
    /// [`Self::admission`]. The engine carries the instance's namespace
    /// ([`PolicyEngine::namespace`]), so give each instance its own.
    #[must_use]
    pub fn policy_engine(mut self, engine: Arc<PolicyEngine>) -> Self {
        self.policy = Some(engine);
        self
    }

    /// Background copy pool size (default: the paper's 6).
    #[must_use]
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.pool_threads = threads;
        self
    }

    /// Whether a partial read of an unplaced file triggers a full-file
    /// background fetch (default: true, the paper behaviour).
    #[must_use]
    pub fn full_file_fetch(mut self, on: bool) -> Self {
        self.full_file_fetch = on;
        self
    }

    /// Telemetry knobs (default: histograms + journal on, tracing off).
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Clairvoyant prefetch knobs (default: disabled).
    #[must_use]
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Start the `/metrics` HTTP exporter on `addr` as part of
    /// [`Self::build`] (e.g. `"127.0.0.1:9464"`; port `0` picks a free
    /// port — read it back with [`Monarch::serve_addr`]). A failed bind
    /// fails the build.
    #[must_use]
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Join a distributed peer cache: shard the dataset across `cfg.nodes`
    /// and serve/fetch hot files node-to-node (default: single-node, no
    /// cluster). The peer server starts on `cfg.nodes[cfg.node_id]` during
    /// [`Self::build`] unless `cfg.serve` is false.
    #[must_use]
    pub fn cluster(mut self, cfg: ClusterConfig) -> Self {
        self.cluster = Some(cfg);
        self
    }

    /// Override the peer transport (tests and the simulator; default: the
    /// real TCP transport over the configured peer addresses). Only
    /// meaningful together with [`Self::cluster`].
    #[must_use]
    pub fn peer_transport(mut self, transport: Arc<dyn PeerTransport>) -> Self {
        self.peer_transport = Some(transport);
        self
    }

    /// The instance's one clock (default: the host's). A test hands in a
    /// [`Clock::manual`] to wait out cooldowns and backoffs without sleeping.
    #[must_use]
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Assemble the middleware: stats + telemetry registry, the books of
    /// the copies over the tiers' drivers, the transfer engine owning the
    /// copy pool and prefetch window, and the read-path facade over them.
    pub fn build(self) -> Result<Monarch> {
        let hierarchy = self.hierarchy.ok_or_else(|| {
            Error::InvalidConfig("MonarchBuilder requires a storage hierarchy".into())
        })?;
        // Validate cluster membership before any threads spin up.
        if let Some(cfg) = &self.cluster {
            cfg.validate()?;
        }
        let policy = self
            .policy
            .unwrap_or_else(|| Arc::new(PolicyEngine::from_kind(self.policy_kind, self.admission)));
        let stats = Arc::new(Stats::new(hierarchy.levels()));
        let tier_names: Vec<String> = hierarchy.tiers().iter().map(|t| t.name.clone()).collect();
        // The policy engine brings the instance's namespace; the profiler
        // keeps its per-file records by the same ids. One clock goes to the
        // registry (and through it the engine), the breakers and the peers.
        let namespace = Arc::clone(policy.namespace());
        let telemetry =
            TelemetryRegistry::with_namespace(tier_names, stats, &self.telemetry, namespace);
        let telemetry = Arc::new(telemetry.with_clock(self.clock.clone()));
        let hierarchy = Arc::new(hierarchy.with_clock(self.clock.clone()));
        let book = Arc::new(Lifecycle::new(
            Arc::clone(&hierarchy),
            policy,
            Arc::clone(&telemetry),
        ));
        let mut engine = TransferEngine::new(book, self.pool_threads, self.prefetch);
        // Peer cache: build the handle and start serving this node's shard
        // (unless the config says client-only).
        let cluster = match self.cluster {
            Some(cfg) => {
                let cluster = match self.peer_transport {
                    Some(transport) => Cluster::new(cfg, transport),
                    None => Cluster::with_tcp_transport(cfg),
                };
                let cluster = Arc::new(cluster.with_clock(self.clock));
                if cluster.config().serve {
                    if let Err(e) =
                        cluster.start_server(Arc::clone(&hierarchy), Arc::clone(engine.metadata()))
                    {
                        // A node that cannot serve its shard silently
                        // degrades the whole cluster's hit rate — fail the
                        // build, but drain the already-running pool first.
                        engine.drain();
                        return Err(e);
                    }
                }
                Some(cluster)
            }
            None => None,
        };
        let monarch =
            Monarch::from_parts(hierarchy, telemetry, engine, self.full_file_fetch, cluster);
        if let Some(addr) = &self.metrics_addr {
            // An unusable metrics address is a configuration error, not
            // something to discover from silent scrape failures — but the
            // engine's pool is already running, so drain it before failing.
            if let Err(e) = monarch.serve(addr) {
                monarch.shutdown();
                return Err(e);
            }
        }
        Ok(monarch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_hierarchy() -> StorageHierarchy {
        let pfs = MemDriver::new("pfs");
        pfs.insert("f", vec![9u8; 64]);
        let ssd = Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>;
        StorageHierarchy::new(vec![
            ("ssd".into(), ssd, Some(1 << 20)),
            ("pfs".into(), Arc::new(pfs), None),
        ])
        .unwrap()
    }

    #[test]
    fn defaults_match_the_paper() {
        let m = MonarchBuilder::new()
            .hierarchy(tiny_hierarchy())
            .build()
            .unwrap();
        assert_eq!(m.pool_threads(), 6);
        assert_eq!(m.policy_name(), "admit_all/none/first_fit");
    }

    #[test]
    fn policy_and_admission_compose_by_kind() {
        let m = MonarchBuilder::new()
            .hierarchy(tiny_hierarchy())
            .policy(PolicyKind::LruEvict)
            .admission(AdmissionKind::ReuseAware)
            .build()
            .unwrap();
        assert_eq!(m.policy_name(), "reuse_aware/lru/first_fit");
    }

    #[test]
    fn custom_policy_engine_overrides_the_kinds() {
        let engine = Arc::new(PolicyEngine::from_kind(
            PolicyKind::Learned,
            AdmissionKind::AdmitAll,
        ));
        let m = MonarchBuilder::new()
            .hierarchy(tiny_hierarchy())
            .policy(PolicyKind::FirstFit)
            .policy_engine(engine)
            .build()
            .unwrap();
        assert_eq!(m.policy_name(), "admit_all/scored/learned");
    }
}
