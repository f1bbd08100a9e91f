//! # monarch-core — the MONARCH storage-tiering middleware
//!
//! Reimplementation of the middleware described in *MONARCH: Hierarchical
//! Storage Management for Deep Learning Frameworks* (IEEE CLUSTER 2021).
//! MONARCH sits between a DL framework and a hierarchy of storage backends
//! (e.g. a compute node's local SSD above a shared parallel file system) and
//! transparently migrates dataset files toward the fastest tier with free
//! capacity, so that repeated-epoch training traffic stops hammering the
//! shared PFS.
//!
//! The crate keeps the paper's three-module decomposition:
//!
//! - [`hierarchy`] — the *storage hierarchy*: an ordered list of tiers, each
//!   backed by a [`driver::StorageDriver`] with a capacity quota; the last
//!   tier is the read-only PFS holding the full dataset.
//! - [`policy`] — the *placement handler*, generalised: a composed
//!   [`policy::PolicyEngine`] of admission gate, eviction policy, and
//!   placement scorer (the paper's policy is the default triple — admit
//!   all, top-down first-fit, **no eviction**), plus a background copy
//!   [`pool::ThreadPool`] that moves file contents between tiers.
//! - [`metadata`] — the *metadata container*: an ephemeral, thread-safe
//!   virtual namespace mapping each file to its size and current tier.
//!
//! The entry point is [`Monarch`], built through [`MonarchBuilder`]. Its
//! [`Monarch::read`] replaces the framework's `pread`: it serves the
//! requested byte range from the file's current tier and, on first touch,
//! hands a demand intent to the [`transfer::TransferEngine`] — the single
//! copy pipeline behind demand placement, pre-staging, clairvoyant
//! prefetch, and eviction — which copies the *full* file into the highest
//! tier with room, so later chunks of a large TFRecord shard hit local
//! storage even within the first epoch.
//!
//! ```no_run
//! use monarch_core::config::{MonarchConfig, TierConfig};
//! use monarch_core::Monarch;
//!
//! let cfg = MonarchConfig::builder()
//!     .tier(TierConfig::posix("ssd", "/local/scratch").with_capacity(115 << 30))
//!     .tier(TierConfig::posix("lustre", "/mnt/pfs/imagenet"))
//!     .pool_threads(6)
//!     .build();
//! let monarch = Monarch::new(cfg).unwrap();
//! monarch.init().unwrap();
//! let mut buf = vec![0u8; 256 << 10];
//! let n = monarch.read("train-00000.tfrecord", 0, &mut buf).unwrap();
//! # let _ = n;
//! ```

pub mod builder;
pub mod cluster;
pub mod config;
pub mod driver;
pub mod error;
pub mod hash;
pub mod health;
pub mod hierarchy;
pub mod lifecycle;
pub mod metadata;
pub mod middleware;
pub mod observe;
pub mod policy;
pub mod pool;
pub mod prefetch;
pub mod serve;
mod staging;
pub mod stats;
mod stripe;
pub mod telemetry;
pub mod trace;
pub mod transfer;

pub use builder::MonarchBuilder;
pub use cluster::{
    Cluster, ClusterConfig, ClusterSnapshot, ClusterView, PeerError, PeerServer, PeerTransport,
    ShardMap, TcpPeerTransport,
};
pub use config::{MonarchConfig, TelemetryConfig};
pub use driver::StorageDriver;
pub use error::{Error, Result};
pub use health::{
    classify, device_error_class, ErrorClass, HealthConfig, HealthRegistry, HealthSnapshot,
    RetryPolicy, TierHealth, TierHealthSnapshot, TierState,
};
pub use hierarchy::{StorageHierarchy, Tier, TierId};
pub use lifecycle::Lifecycle;
pub use metadata::MetadataContainer;
pub use middleware::{InitReport, Monarch};
pub use observe::{
    AccessProfiler, Observatory, ObserveReport, ObserveSnapshot, ReadClass, ResidencyTimeline,
};
pub use policy::{
    AdmissionPolicy, DecisionPoint, EvictionPolicy, FeatureSource, FileFeatures, PlacementDecision,
    PlacementScorer, PolicyEngine, PolicySnapshot,
};
pub use prefetch::{AccessPlan, PrefetchConfig, PrefetchWindow};
pub use serve::MetricsServer;
pub use stats::{Stats, StatsSnapshot};
pub use telemetry::{
    Event, EventJournal, EventKind, Gauge, GaugeGuard, GaugeRegistry, GaugeSnapshot,
    HistogramSnapshot, InFlight, LatencyHistogram, StallProfile, StallProfileSnapshot,
    TelemetryRegistry, TelemetrySnapshot, ThroughputSampler, TimeSeries,
};
pub use trace::{ArgValue, FlowPhase, SpanRecord, TraceRecorder};
pub use transfer::{DrainReport, LaneQueues, ReadCtx, ReadFeedback, Sampler, TransferEngine};
