//! Distributed peer cache: serve hot tiers node-to-node.
//!
//! MONARCH's single-node design wastes aggregate fast-tier bandwidth in a
//! multi-node job: every node independently re-stages the same files from
//! the shared PFS. FanStore's fix — shard the dataset across the nodes'
//! local tiers and serve remote hits peer-to-peer — makes aggregate
//! SSD/NIC bandwidth scale with the cluster while per-node PFS traffic
//! stays flat. This module is that layer:
//!
//! - [`ShardMap`] — a deterministic, seeded consistent-hash ring mapping
//!   every logical file to its *owner* node. All nodes compute the same
//!   assignment from `(nodes, shard_seed)` with no coordination.
//! - [`PeerTransport`] — the fetch abstraction. [`TcpPeerTransport`] is a
//!   real std-only TCP client (length-prefixed request/response, bounded
//!   per-peer connection pool, timeouts, one retry); paper-scale runs use
//!   a simulated transport whose NIC contention lives in `simfs`.
//! - [`PeerServer`] — the serving side: a tiny accept loop handing each
//!   connection to a handler that streams locally-resident files out of
//!   the fast tier.
//! - [`Cluster`] — the per-node handle the middleware consults on a miss:
//!   "is this file peer-owned, and can the owner serve it faster than the
//!   PFS?". Failures always degrade to the PFS path, never to an error.
//!   What the node holds is the namespace's to say: its snapshot counts the
//!   files placed on a local tier ([`Cluster::snapshot`]).
//!
//! Wire protocol (version-less by design — both ends ship together):
//! request = `u32` big-endian name length + name bytes; response = one
//! status byte (0 = ok, 1 = not resident, 2 = error) + `u64` big-endian
//! payload length + payload.

use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::clock::Clock;
use crate::hash::{hash_str, splitmix64};
use crate::health::{ErrorClass, Gate, TierHealth};
use crate::hierarchy::StorageHierarchy;
use crate::locks;
use crate::metadata::{MetadataContainer, PlacementState};
use crate::{Error, Result, TierId};

/// Virtual points per node on the consistent-hash ring. 64 keeps the
/// worst-case load imbalance under ~10% for the node counts the paper's
/// experiments use (1–8) while the ring stays small enough to rebuild on
/// every membership change.
const VNODES_PER_NODE: u32 = 64;

/// Upper bound on a single peer response (1 GiB) — a corrupted length
/// prefix must not allocate unbounded memory.
const MAX_RESPONSE_BYTES: u64 = 1 << 30;

// ---------------------------------------------------------------------------
// Cluster configuration
// ---------------------------------------------------------------------------

/// Static cluster membership and transport tuning. Optional section of
/// [`crate::config::MonarchConfig`]; absent = single-node (everything in
/// this module is bypassed).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// This node's index into `nodes`.
    pub node_id: usize,
    /// Peer addresses (`host:port`), indexed by node id; `nodes[node_id]`
    /// is the address this node's [`PeerServer`] listens on.
    pub nodes: Vec<String>,
    /// Seed for the consistent-hash shard assignment. All nodes of a job
    /// must agree on it.
    #[serde(default)]
    pub shard_seed: u64,
    /// Per-request peer I/O timeout (connect, read, write), milliseconds.
    #[serde(default = "default_peer_timeout_ms")]
    pub peer_timeout_ms: u64,
    /// Deadline for a queued remote-lane install, milliseconds: if no pool
    /// worker starts it in time the install falls back to the PFS source
    /// and journals a `remote_timeout` event.
    #[serde(default = "default_remote_deadline_ms")]
    pub remote_deadline_ms: u64,
    /// Idle TCP connections kept pooled per peer.
    #[serde(default = "default_pool_conns")]
    pub pool_conns_per_peer: usize,
    /// Whether this node starts a [`PeerServer`] on `nodes[node_id]`.
    /// Disabled in client-only processes (e.g. an inspection CLI).
    #[serde(default = "default_true")]
    pub serve: bool,
}

fn default_peer_timeout_ms() -> u64 {
    250
}

fn default_remote_deadline_ms() -> u64 {
    2_000
}

fn default_pool_conns() -> usize {
    2
}

fn default_true() -> bool {
    true
}

impl ClusterConfig {
    /// A config for `nodes` with this node at `node_id`, defaults
    /// elsewhere.
    #[must_use]
    pub fn new(node_id: usize, nodes: Vec<String>) -> Self {
        Self {
            node_id,
            nodes,
            shard_seed: 0,
            peer_timeout_ms: default_peer_timeout_ms(),
            remote_deadline_ms: default_remote_deadline_ms(),
            pool_conns_per_peer: default_pool_conns(),
            serve: true,
        }
    }

    /// Validate membership invariants.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(Error::InvalidConfig("cluster.nodes is empty".into()));
        }
        if self.node_id >= self.nodes.len() {
            return Err(Error::InvalidConfig(format!(
                "cluster.node_id {} out of range for {} node(s)",
                self.node_id,
                self.nodes.len()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shard map
// ---------------------------------------------------------------------------

/// Deterministic consistent-hash assignment of file → owner node.
///
/// Every node builds the same ring from `(nodes, seed)`: each node
/// contributes [`VNODES_PER_NODE`] points at `splitmix64(seed ⊕ node ⊕
/// replica)`, and a file's owner is the node of the first ring point at or
/// after the file's key hash (wrapping). Reshuffled-sharding experiments
/// salt the key hash with the epoch number so ownership rotates without
/// rebuilding the ring.
#[derive(Debug, Clone)]
pub struct ShardMap {
    nodes: usize,
    seed: u64,
    /// Ring points sorted by position: `(hash, owner)`.
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// A ring over `nodes` nodes (minimum 1) with `seed`.
    #[must_use]
    pub fn new(nodes: usize, seed: u64) -> Self {
        let nodes = nodes.max(1);
        let mut ring = Vec::with_capacity(nodes * VNODES_PER_NODE as usize);
        for node in 0..nodes as u32 {
            for replica in 0..VNODES_PER_NODE {
                let point = splitmix64(
                    seed ^ (u64::from(node) << 32 | u64::from(replica))
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                ring.push((point, node));
            }
        }
        ring.sort_unstable();
        Self { nodes, seed, ring }
    }

    /// Number of nodes on the ring.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The shard seed the ring was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Owner node of `file` under static sharding.
    #[must_use]
    pub fn owner(&self, file: &str) -> usize {
        self.owner_salted(file, 0)
    }

    /// Owner node of `file` with an extra `salt` mixed into the key hash —
    /// reshuffled-sharding experiments pass the epoch number so ownership
    /// rotates per epoch while staying deterministic across nodes.
    #[must_use]
    pub fn owner_salted(&self, file: &str, salt: u64) -> usize {
        let key =
            splitmix64(hash_str(file) ^ self.seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9)));
        let idx = self.ring.partition_point(|&(h, _)| h < key);
        let (_, node) = self.ring[idx % self.ring.len()];
        node as usize
    }

    /// How many of `files` each node owns — the shard-balance stat the
    /// `monarch cluster` subcommand prints.
    #[must_use]
    pub fn load<'a, I: IntoIterator<Item = &'a str>>(&self, files: I) -> Vec<u64> {
        let mut counts = vec![0u64; self.nodes];
        for f in files {
            counts[self.owner(f)] += 1;
        }
        counts
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Why a peer fetch failed. Every variant degrades to the PFS path — peer
/// failures are never surfaced to the reading trainer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerError {
    /// Could not connect or the connection died mid-request.
    Unavailable(String),
    /// The peer answered but does not hold the file on a local tier.
    NotResident,
    /// The peer did not answer within the per-request timeout.
    Timeout,
    /// The peer answered garbage (bad status byte, oversized length).
    Protocol(String),
    /// The peer is marked dead (too many consecutive timeouts/failures) and
    /// its probe cooldown has not elapsed — the dial was skipped entirely.
    Dead,
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Unavailable(e) => write!(f, "peer unavailable: {e}"),
            PeerError::NotResident => write!(f, "peer does not hold the file"),
            PeerError::Timeout => write!(f, "peer fetch timed out"),
            PeerError::Protocol(e) => write!(f, "peer protocol error: {e}"),
            PeerError::Dead => write!(f, "peer marked dead; dial skipped until probe cooldown"),
        }
    }
}

/// Fetch abstraction between nodes. Implemented by [`TcpPeerTransport`]
/// for real clusters and by in-process/simulated transports in tests and
/// the `dlpipe` simulator.
pub trait PeerTransport: Send + Sync {
    /// Fetch the full contents of `file` from node `peer`.
    fn fetch(&self, peer: usize, file: &str) -> std::result::Result<Vec<u8>, PeerError>;
}

/// Map an I/O error from a peer socket to a [`PeerError`], classifying
/// timeouts separately so the caller can journal `remote_timeout` rather
/// than a generic failure.
fn classify_io(e: &std::io::Error) -> PeerError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => PeerError::Timeout,
        _ => PeerError::Unavailable(e.to_string()),
    }
}

/// Real std-only TCP transport: length-prefixed request/response over a
/// bounded per-peer connection pool, per-request timeout, and one retry on
/// a fresh connection (a pooled socket may have been closed by the peer
/// between requests).
pub struct TcpPeerTransport {
    peers: Vec<String>,
    timeout: Duration,
    max_pooled: usize,
    pools: Vec<Mutex<Vec<TcpStream>>>,
}

impl TcpPeerTransport {
    /// A transport over `peers` (indexed by node id) with per-request
    /// `timeout` and at most `max_pooled` idle connections per peer.
    #[must_use]
    pub fn new(peers: Vec<String>, timeout: Duration, max_pooled: usize) -> Self {
        let pools = (0..peers.len()).map(|_| Mutex::new(Vec::new())).collect();
        Self {
            peers,
            timeout,
            max_pooled,
            pools,
        }
    }

    fn connect(&self, peer: usize) -> std::result::Result<TcpStream, PeerError> {
        let addr = self
            .peers
            .get(peer)
            .ok_or_else(|| PeerError::Unavailable(format!("unknown peer {peer}")))?;
        let sockaddr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(|e| PeerError::Unavailable(e.to_string()))?
            .next()
            .ok_or_else(|| PeerError::Unavailable(format!("unresolvable address {addr}")))?;
        let stream =
            TcpStream::connect_timeout(&sockaddr, self.timeout).map_err(|e| classify_io(&e))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| PeerError::Unavailable(e.to_string()))?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|e| PeerError::Unavailable(e.to_string()))?;
        Ok(stream)
    }

    fn request(stream: &mut TcpStream, file: &str) -> std::result::Result<Vec<u8>, PeerError> {
        let name = file.as_bytes();
        let len = u32::try_from(name.len())
            .map_err(|_| PeerError::Protocol("file name too long".into()))?;
        let mut req = Vec::with_capacity(4 + name.len());
        req.extend_from_slice(&len.to_be_bytes());
        req.extend_from_slice(name);
        stream.write_all(&req).map_err(|e| classify_io(&e))?;
        let mut head = [0u8; 9];
        stream.read_exact(&mut head).map_err(|e| classify_io(&e))?;
        let status = head[0];
        let body_len = u64::from_be_bytes(head[1..9].try_into().expect("8 bytes"));
        match status {
            0 => {
                if body_len > MAX_RESPONSE_BYTES {
                    return Err(PeerError::Protocol(format!(
                        "response length {body_len} exceeds bound"
                    )));
                }
                let mut body = vec![0u8; body_len as usize];
                stream.read_exact(&mut body).map_err(|e| classify_io(&e))?;
                Ok(body)
            }
            1 => Err(PeerError::NotResident),
            2 => Err(PeerError::Unavailable("peer reported an error".into())),
            s => Err(PeerError::Protocol(format!("unknown status byte {s}"))),
        }
    }

    fn checkout(&self, peer: usize) -> Option<TcpStream> {
        locks::lock(self.pools.get(peer)?).pop()
    }

    fn checkin(&self, peer: usize, stream: TcpStream) {
        if let Some(pool) = self.pools.get(peer) {
            let mut pool = locks::lock(pool);
            if pool.len() < self.max_pooled {
                pool.push(stream);
            }
        }
    }
}

impl PeerTransport for TcpPeerTransport {
    fn fetch(&self, peer: usize, file: &str) -> std::result::Result<Vec<u8>, PeerError> {
        // First attempt on a pooled connection if one exists; a stale
        // pooled socket (peer restarted, idle-closed) fails fast and the
        // retry below runs on a fresh connection. NotResident is
        // authoritative — retrying would not change it.
        if let Some(mut stream) = self.checkout(peer) {
            match Self::request(&mut stream, file) {
                Ok(body) => {
                    self.checkin(peer, stream);
                    return Ok(body);
                }
                Err(PeerError::NotResident) => return Err(PeerError::NotResident),
                Err(_) => {}
            }
        }
        let mut stream = self.connect(peer)?;
        let out = Self::request(&mut stream, file);
        if out.is_ok() {
            self.checkin(peer, stream);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Peer server
// ---------------------------------------------------------------------------

/// Server-side counters, separate from [`crate::Stats`] because they count
/// what this node *served to others*, not what its own reads consumed.
#[derive(Debug, Default)]
pub struct ServeCounters {
    requests: AtomicU64,
    hits: AtomicU64,
    bytes: AtomicU64,
}

impl ServeCounters {
    fn record(&self, served: Option<u64>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = served {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(b, Ordering::Relaxed);
        }
    }

    /// `(requests, hits, bytes)` served so far.
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// The serving side of the peer cache: accepts connections on the node's
/// cluster address and streams locally-resident files out of their fast
/// tier. Files still on the PFS (or mid-copy) answer "not resident" — the
/// requester falls back to its own PFS read, keeping the PFS the single
/// source of truth.
pub struct PeerServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl PeerServer {
    /// Bind `addr` and start the accept loop. `addr` may use port 0 to let
    /// the OS pick (tests); [`PeerServer::local_addr`] reports the bound
    /// address.
    pub fn start(
        addr: &str,
        hierarchy: Arc<StorageHierarchy>,
        metadata: Arc<MetadataContainer>,
        counters: Arc<ServeCounters>,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let acceptor = std::thread::Builder::new()
            .name("monarch-peer-srv".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let hierarchy = Arc::clone(&hierarchy);
                            let metadata = Arc::clone(&metadata);
                            let counters = Arc::clone(&counters);
                            // One handler thread per connection: peers pool
                            // and reuse connections, so the live handler
                            // count tracks the peer count, not the request
                            // rate.
                            let _ = std::thread::Builder::new()
                                .name("monarch-peer-conn".into())
                                .spawn(move || {
                                    Self::serve_conn(&stream, &hierarchy, &metadata, &counters);
                                });
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })
            .expect("spawn peer server acceptor");
        Ok(Self {
            local_addr,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn serve_conn(
        stream: &TcpStream,
        hierarchy: &StorageHierarchy,
        metadata: &MetadataContainer,
        counters: &ServeCounters,
    ) {
        let mut stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        stream.set_nodelay(true).ok();
        // Generous handler-side timeout: an idle pooled client connection
        // parks here between requests; the read unblocks on the next
        // request or closes the handler when the idle window lapses.
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
        loop {
            let mut len_buf = [0u8; 4];
            if stream.read_exact(&mut len_buf).is_err() {
                return; // peer closed or idled out
            }
            let name_len = u32::from_be_bytes(len_buf) as usize;
            if name_len == 0 || name_len > 4096 {
                return;
            }
            let mut name = vec![0u8; name_len];
            if stream.read_exact(&mut name).is_err() {
                return;
            }
            let Ok(file) = String::from_utf8(name) else {
                return;
            };
            let body = Self::read_resident(&file, hierarchy, metadata);
            counters.record(body.as_ref().map(|b| b.len() as u64));
            let ok = match body {
                Some(bytes) => {
                    let mut head = [0u8; 9];
                    head[0] = 0;
                    head[1..9].copy_from_slice(&(bytes.len() as u64).to_be_bytes());
                    stream.write_all(&head).is_ok() && stream.write_all(&bytes).is_ok()
                }
                None => {
                    let mut head = [0u8; 9];
                    head[0] = 1;
                    stream.write_all(&head).is_ok()
                }
            };
            if !ok {
                return;
            }
        }
    }

    /// The file's bytes if (and only if) it is fully resident on one of
    /// this node's local tiers. Mid-copy and PFS-resident files are not
    /// served — the peer cache must never become a slower proxy for the
    /// PFS the requester can read itself.
    fn read_resident(
        file: &str,
        hierarchy: &StorageHierarchy,
        metadata: &MetadataContainer,
    ) -> Option<Vec<u8>> {
        let info = metadata
            .resolve(file)
            .and_then(|id| metadata.placement(id))?;
        if info.state != PlacementState::Placed || info.tier == hierarchy.source_id() {
            return None;
        }
        let tier = hierarchy.tier(info.tier).ok()?;
        tier.driver.read_full(file).ok()
    }

    /// Stop accepting and join the acceptor. Live handler threads finish
    /// their current request and exit when their socket closes or idles
    /// out.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PeerServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for PeerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The per-node cluster handle
// ---------------------------------------------------------------------------

/// Everything one node needs to take part in the peer cache: the shard
/// map, the transport, and (optionally) the serving side. Owned by the
/// middleware; consulted on every `Unplaced` miss.
pub struct Cluster {
    cfg: ClusterConfig,
    shard: ShardMap,
    transport: Arc<dyn PeerTransport>,
    served: Arc<ServeCounters>,
    server: Mutex<Option<PeerServer>>,
    /// Per-peer dial gate, one [`TierHealth`] state machine per node:
    /// consecutive timeouts/failures quarantine the peer ("dead"), dials
    /// are skipped for the probe cooldown, then one fetch at a time is let
    /// through as a half-open probe. A peer that answers (even with
    /// "not resident") is alive.
    peer_health: Vec<TierHealth>,
    clock: Clock,
}

impl Cluster {
    /// A cluster handle over `cfg` with an explicit `transport` (tests and
    /// the simulator inject theirs; real nodes use
    /// [`Cluster::with_tcp_transport`]).
    #[must_use]
    pub fn new(cfg: ClusterConfig, transport: Arc<dyn PeerTransport>) -> Self {
        let shard = ShardMap::new(cfg.nodes.len(), cfg.shard_seed);
        let peer_health = (0..cfg.nodes.len())
            .map(|_| TierHealth::default())
            .collect();
        Self {
            cfg,
            shard,
            transport,
            served: Arc::new(ServeCounters::default()),
            server: Mutex::new(None),
            peer_health,
            clock: Clock::host(),
        }
    }

    /// This handle's dial gates on the instance's `clock`.
    pub(crate) fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// A cluster handle whose transport is a [`TcpPeerTransport`] over the
    /// configured peer addresses.
    #[must_use]
    pub fn with_tcp_transport(cfg: ClusterConfig) -> Self {
        let transport = Arc::new(TcpPeerTransport::new(
            cfg.nodes.clone(),
            Duration::from_millis(cfg.peer_timeout_ms.max(1)),
            cfg.pool_conns_per_peer,
        ));
        Self::new(cfg, transport)
    }

    /// Start the serving side on `nodes[node_id]` (bind errors propagate —
    /// a node that cannot serve its shard would silently halve the
    /// cluster's hit rate).
    pub fn start_server(
        &self,
        hierarchy: Arc<StorageHierarchy>,
        metadata: Arc<MetadataContainer>,
    ) -> Result<SocketAddr> {
        let addr = self
            .cfg
            .nodes
            .get(self.cfg.node_id)
            .cloned()
            .ok_or_else(|| Error::InvalidConfig("cluster.node_id out of range".into()))?;
        let server = PeerServer::start(&addr, hierarchy, metadata, Arc::clone(&self.served))?;
        let bound = server.local_addr();
        *locks::lock(&self.server) = Some(server);
        Ok(bound)
    }

    /// Stop the serving side (idempotent). Used by shutdown and by the
    /// peer-death e2e test.
    pub fn stop_server(&self) {
        if let Some(mut s) = locks::lock(&self.server).take() {
            s.stop();
        }
    }

    /// The address the running peer server actually bound (`None` when not
    /// serving). Tests bind port 0 and read the real port back from here.
    #[must_use]
    pub fn server_addr(&self) -> Option<SocketAddr> {
        locks::lock(&self.server)
            .as_ref()
            .map(PeerServer::local_addr)
    }

    /// This node's id.
    #[must_use]
    pub fn node_id(&self) -> usize {
        self.cfg.node_id
    }

    /// The static config.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The shard map.
    #[must_use]
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard
    }

    /// `Some(owner)` when `file` is owned by another node — the signal the
    /// middleware uses to try the peer path before the PFS.
    #[must_use]
    pub fn peer_owner(&self, file: &str) -> Option<usize> {
        let owner = self.shard.owner(file);
        (owner != self.cfg.node_id).then_some(owner)
    }

    /// Fetch `file` from `peer` over the transport, gated by the peer's
    /// health state: a dead peer is not dialed at all (`PeerError::Dead`,
    /// instant) until its probe cooldown elapses, after which a single
    /// fetch probes it. Timeouts and connection failures feed the state
    /// machine; an answering peer — including "not resident" — is healthy.
    pub fn fetch_from(&self, peer: usize, file: &str) -> std::result::Result<Vec<u8>, PeerError> {
        let Some(health) = self.peer_health.get(peer) else {
            return self.transport.fetch(peer, file);
        };
        let gate = health.gate(|| self.clock.now_us());
        if gate == Gate::Shut {
            return Err(PeerError::Dead);
        }
        let out = self.transport.fetch(peer, file);
        let answered = match &out {
            Err(PeerError::Timeout | PeerError::Unavailable(_) | PeerError::Protocol(_)) => {
                Err(ErrorClass::Transient)
            }
            _ => Ok(()),
        };
        health.settle(gate, answered, || self.clock.now_us());
        out
    }

    /// Node ids currently marked dead (quarantined by the dial gate).
    #[must_use]
    pub fn dead_peers(&self) -> Vec<usize> {
        self.peer_health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_quarantined())
            .map(|(id, _)| id)
            .collect()
    }

    /// Serializable roster + counter snapshot. `stats` supplies the
    /// client-side peer counters (they live in [`crate::Stats`] with the
    /// rest of the read-path counters); `files`, the node's namespace,
    /// what it holds: the files placed on a tier above `source`.
    #[must_use]
    pub fn snapshot(
        &self,
        stats: &crate::stats::StatsSnapshot,
        files: &MetadataContainer,
        source: TierId,
    ) -> ClusterSnapshot {
        let (requests, hits, bytes) = self.served.snapshot();
        let held: u64 = files.residency_histogram(source).iter().sum();
        let mut held_by_node = vec![0; self.cfg.nodes.len()];
        if let Some(mine) = held_by_node.get_mut(self.cfg.node_id) {
            *mine = held;
        }
        ClusterSnapshot {
            node_id: self.cfg.node_id,
            nodes: self.cfg.nodes.clone(),
            shard_seed: self.cfg.shard_seed,
            peer_hits: stats.peer_hits,
            peer_bytes: stats.peer_bytes,
            peer_fallbacks: stats.peer_fallbacks,
            remote_timeouts: stats.remote_timeouts,
            peer_dead_skips: stats.peer_dead_skips,
            dead_peers: self.dead_peers(),
            served_requests: requests,
            served_hits: hits,
            served_bytes: bytes,
            view_files: held,
            held_by_node,
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("node_id", &self.cfg.node_id)
            .field("nodes", &self.cfg.nodes.len())
            .field("shard_seed", &self.cfg.shard_seed)
            .finish()
    }
}

/// Serializable cluster state: the `cluster` section of the telemetry
/// snapshot (`/snapshot`, FFI `monarch_cluster_stats_json`, `monarch
/// cluster`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// This node's id.
    pub node_id: usize,
    /// Peer addresses, indexed by node id.
    pub nodes: Vec<String>,
    /// Shard seed all nodes agreed on.
    pub shard_seed: u64,
    /// Reads served node-to-node from a peer's fast tier (client side).
    pub peer_hits: u64,
    /// Bytes fetched from peers instead of the PFS (client side).
    pub peer_bytes: u64,
    /// Peer fetches that fell back to the PFS (client side).
    pub peer_fallbacks: u64,
    /// Remote-lane installs that timed out waiting on a peer.
    pub remote_timeouts: u64,
    /// Peer fetches skipped without dialing because the peer was marked
    /// dead (quarantined after consecutive timeouts).
    #[serde(default)]
    pub peer_dead_skips: u64,
    /// Node ids currently marked dead by the dial gate.
    #[serde(default)]
    pub dead_peers: Vec<usize>,
    /// Requests this node's server answered (hits plus not-resident).
    pub served_requests: u64,
    /// Requests this node's server answered with file bytes.
    pub served_hits: u64,
    /// Bytes this node's server shipped to peers.
    pub served_bytes: u64,
    /// Files this node holds on its local tiers.
    pub view_files: u64,
    /// Files held per node (index = node id): this node's count, 0 for
    /// the peers, whose holdings are theirs to report.
    pub held_by_node: Vec<u64>,
}

impl ClusterSnapshot {
    /// Render the roster + shard stats table (`monarch cluster` output).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str(&format!(
            "cluster: {} node(s), shard seed {}, this node = {}\n",
            self.nodes.len(),
            self.shard_seed,
            self.node_id
        ));
        for (id, addr) in self.nodes.iter().enumerate() {
            let held = self.held_by_node.get(id).copied().unwrap_or(0);
            let marker = if id == self.node_id { "*" } else { " " };
            let dead = if self.dead_peers.contains(&id) {
                "  DEAD"
            } else {
                ""
            };
            o.push_str(&format!(
                " {marker} node {id:<3} {addr:<24} {held:>8} file(s) held{dead}\n"
            ));
        }
        o.push_str(&format!(
            "peer cache: {} hits / {} fallbacks / {} remote timeouts / {} dead skips, {} B fetched\n",
            self.peer_hits,
            self.peer_fallbacks,
            self.remote_timeouts,
            self.peer_dead_skips,
            self.peer_bytes
        ));
        o.push_str(&format!(
            "served to peers: {} hits of {} requests, {} B shipped; this node holds {} file(s)\n",
            self.served_hits, self.served_requests, self.served_bytes, self.view_files
        ));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MemDriver;

    #[test]
    fn shard_map_is_deterministic_and_total() {
        let a = ShardMap::new(4, 42);
        let b = ShardMap::new(4, 42);
        for i in 0..100 {
            let f = format!("f{i:03}");
            let owner = a.owner(&f);
            assert!(owner < 4);
            assert_eq!(owner, b.owner(&f), "two nodes must agree on {f}");
        }
        // A different seed produces a different assignment somewhere.
        let c = ShardMap::new(4, 7);
        assert!(
            (0..100).any(|i| a.owner(&format!("f{i:03}")) != c.owner(&format!("f{i:03}"))),
            "seed must matter"
        );
    }

    #[test]
    fn shard_map_balances_across_nodes() {
        let m = ShardMap::new(4, 0);
        let names: Vec<String> = (0..400).map(|i| format!("train-{i:05}.tfrecord")).collect();
        let load = m.load(names.iter().map(String::as_str));
        assert_eq!(load.iter().sum::<u64>(), 400);
        for (node, &n) in load.iter().enumerate() {
            assert!(
                (40..=220).contains(&n),
                "node {node} owns {n}/400 — consistent hashing should spread better"
            );
        }
    }

    #[test]
    fn shard_map_salt_rotates_ownership() {
        let m = ShardMap::new(4, 3);
        let moved = (0..100)
            .filter(|i| {
                let f = format!("f{i}");
                m.owner_salted(&f, 1) != m.owner_salted(&f, 2)
            })
            .count();
        assert!(moved > 20, "only {moved}/100 files moved between epochs");
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let m = ShardMap::new(1, 9);
        assert_eq!(m.owner("anything"), 0);
    }

    fn hierarchy_with(files: &[(&str, &[u8])]) -> (Arc<StorageHierarchy>, Arc<MetadataContainer>) {
        let fast = MemDriver::new("ssd");
        let pfs = MemDriver::new("pfs");
        for (name, data) in files {
            fast.insert(name, data.to_vec());
            pfs.insert(name, data.to_vec());
        }
        let hierarchy = Arc::new(
            StorageHierarchy::new(vec![
                ("ssd".into(), Arc::new(fast), Some(1 << 20)),
                ("pfs".into(), Arc::new(pfs), None),
            ])
            .unwrap(),
        );
        let metadata = Arc::new(MetadataContainer::default());
        for (name, data) in files {
            metadata.register(name, data.len() as u64, hierarchy.source_id());
        }
        (hierarchy, metadata)
    }

    /// Mark `file` fully resident on tier 0, as a finished copy would.
    fn place_local(metadata: &MetadataContainer, file: &str) {
        let id = metadata.resolve(file).unwrap();
        assert!(metadata.begin_copy(id, 0));
        metadata.finish_copy(id, 0);
    }

    #[test]
    fn tcp_roundtrip_serves_resident_files_only() {
        let (hierarchy, metadata) = hierarchy_with(&[("hot", b"peer-bytes"), ("cold", b"nope")]);
        place_local(&metadata, "hot");
        let counters = Arc::new(ServeCounters::default());
        let mut server = PeerServer::start(
            "127.0.0.1:0",
            Arc::clone(&hierarchy),
            Arc::clone(&metadata),
            Arc::clone(&counters),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let t = TcpPeerTransport::new(vec![addr], Duration::from_millis(500), 2);

        assert_eq!(t.fetch(0, "hot").unwrap(), b"peer-bytes");
        // Second fetch rides the pooled connection.
        assert_eq!(t.fetch(0, "hot").unwrap(), b"peer-bytes");
        // PFS-resident files are refused: the requester reads the PFS
        // itself instead of proxying through a peer.
        assert_eq!(t.fetch(0, "cold"), Err(PeerError::NotResident));
        assert_eq!(t.fetch(0, "missing"), Err(PeerError::NotResident));

        let (requests, hits, bytes) = counters.snapshot();
        assert_eq!(requests, 4);
        assert_eq!(hits, 2);
        assert_eq!(bytes, 20);
        server.stop();
        // A dead server degrades to Unavailable/Timeout, never a panic.
        // (The pooled connection may still answer until the handler
        // notices the closed listener, so drain the pool with a fresh
        // transport.)
        let t2 = TcpPeerTransport::new(
            vec![server.local_addr().to_string()],
            Duration::from_millis(100),
            2,
        );
        assert!(matches!(
            t2.fetch(0, "hot"),
            Err(PeerError::Unavailable(_) | PeerError::Timeout)
        ));
    }

    #[test]
    fn fetch_from_unresolvable_peer_is_unavailable() {
        let t = TcpPeerTransport::new(
            vec!["definitely-not-a-host:1".into()],
            Duration::from_millis(50),
            1,
        );
        assert!(matches!(t.fetch(0, "f"), Err(PeerError::Unavailable(_))));
        assert!(matches!(t.fetch(9, "f"), Err(PeerError::Unavailable(_))));
    }

    #[test]
    fn cluster_handle_routes_and_snapshots() {
        struct Echo;
        impl PeerTransport for Echo {
            fn fetch(&self, peer: usize, file: &str) -> std::result::Result<Vec<u8>, PeerError> {
                Ok(format!("{peer}:{file}").into_bytes())
            }
        }
        let cfg = ClusterConfig::new(0, vec!["a:1".into(), "b:2".into(), "c:3".into()]);
        let cluster = Cluster::new(cfg, Arc::new(Echo));
        // peer_owner is None exactly when this node owns the file.
        let mut saw_local = false;
        let mut saw_remote = false;
        for i in 0..64 {
            let f = format!("f{i}");
            match cluster.peer_owner(&f) {
                None => {
                    assert_eq!(cluster.shard_map().owner(&f), 0);
                    saw_local = true;
                }
                Some(owner) => {
                    assert_ne!(owner, 0);
                    assert_eq!(
                        cluster.fetch_from(owner, &f).unwrap(),
                        format!("{owner}:{f}").into_bytes()
                    );
                    saw_remote = true;
                }
            }
        }
        assert!(saw_local && saw_remote);

        let (hierarchy, metadata) = hierarchy_with(&[("f1", b"x"), ("f2", b"y")]);
        place_local(&metadata, "f1");
        let stats = crate::Stats::new(2);
        stats.peer_hit(128);
        stats.peer_fallback();
        let snap = cluster.snapshot(&stats.snapshot(), &metadata, hierarchy.source_id());
        assert_eq!(snap.node_id, 0);
        assert_eq!(snap.nodes.len(), 3);
        assert_eq!(snap.peer_hits, 1);
        assert_eq!(snap.peer_bytes, 128);
        assert_eq!(snap.peer_fallbacks, 1);
        assert_eq!(snap.view_files, 1);
        assert_eq!(snap.held_by_node, vec![1, 0, 0]);
        let table = snap.render_table();
        assert!(table.contains("3 node(s)"));
        assert!(table.contains("* node 0"));
        // Round-trips as JSON for /snapshot and the FFI.
        let json = serde_json::to_string(&snap).unwrap();
        let back: ClusterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn a_node_past_the_64th_reports_what_it_holds() {
        struct Nowhere;
        impl PeerTransport for Nowhere {
            fn fetch(&self, _: usize, _: &str) -> std::result::Result<Vec<u8>, PeerError> {
                Err(PeerError::NotResident)
            }
        }
        let nodes = (0..70).map(|i| format!("n{i}:1")).collect();
        let cluster = Cluster::new(ClusterConfig::new(69, nodes), Arc::new(Nowhere));
        let (hierarchy, metadata) = hierarchy_with(&[("a", b"1"), ("b", b"2"), ("c", b"3")]);
        place_local(&metadata, "a");
        place_local(&metadata, "b");
        let stats = crate::Stats::new(2).snapshot();
        let snap = cluster.snapshot(&stats, &metadata, hierarchy.source_id());
        assert_eq!(snap.held_by_node.len(), 70);
        assert_eq!(snap.held_by_node[69], 2);
        assert_eq!(snap.held_by_node.iter().sum::<u64>(), 2);
        assert_eq!(snap.view_files, 2);
    }

    #[test]
    fn dead_peer_is_not_dialed_until_probe_recovers_it() {
        use std::sync::atomic::AtomicU64;
        // A transport that times out until told otherwise, counting dials.
        struct Flaky {
            dials: AtomicU64,
            healthy: AtomicBool,
        }
        impl PeerTransport for Flaky {
            fn fetch(&self, _peer: usize, file: &str) -> std::result::Result<Vec<u8>, PeerError> {
                self.dials.fetch_add(1, Ordering::SeqCst);
                if self.healthy.load(Ordering::SeqCst) {
                    Ok(file.as_bytes().to_vec())
                } else {
                    Err(PeerError::Timeout)
                }
            }
        }
        let transport = Arc::new(Flaky {
            dials: AtomicU64::new(0),
            healthy: AtomicBool::new(false),
        });
        let cfg = ClusterConfig::new(0, vec!["a:1".into(), "b:2".into()]);
        let clock = Clock::manual();
        let cluster = Cluster::new(cfg, Arc::clone(&transport) as Arc<dyn PeerTransport>)
            .with_clock(clock.clone());

        // Consecutive timeouts trip the peer's dial gate.
        for _ in 0..3 {
            assert_eq!(cluster.fetch_from(1, "f"), Err(PeerError::Timeout));
        }
        assert_eq!(cluster.dead_peers(), vec![1]);
        let dialed = transport.dials.load(Ordering::SeqCst);
        // Dead peer: fetches are refused without touching the transport.
        for _ in 0..5 {
            assert_eq!(cluster.fetch_from(1, "f"), Err(PeerError::Dead));
        }
        assert_eq!(
            transport.dials.load(Ordering::SeqCst),
            dialed,
            "a dead peer must not be dialed during the cooldown"
        );
        // Recovery: 1 µs short of the cooldown the peer is still skipped;
        // once it elapses, a single probe dial goes through, succeeds, and
        // the peer is live again.
        transport.healthy.store(true, Ordering::SeqCst);
        clock.advance(Duration::from_micros(crate::health::PROBE_COOLDOWN_US - 1));
        assert_eq!(cluster.fetch_from(1, "f"), Err(PeerError::Dead));
        assert_eq!(transport.dials.load(Ordering::SeqCst), dialed);
        clock.advance(Duration::from_micros(1));
        assert_eq!(cluster.fetch_from(1, "f").unwrap(), b"f");
        assert_eq!(transport.dials.load(Ordering::SeqCst), dialed + 1);
        assert!(cluster.dead_peers().is_empty());

        // Snapshot carries the dead-peer roster and the skip counter.
        let stats = crate::Stats::new(2);
        stats.peer_dead_skip();
        let snap = cluster.snapshot(&stats.snapshot(), &MetadataContainer::default(), 1);
        assert_eq!(snap.peer_dead_skips, 1);
        assert!(snap.dead_peers.is_empty());
        assert!(snap.render_table().contains("dead skips"));
    }

    #[test]
    fn cluster_config_validates_membership() {
        assert!(ClusterConfig::new(0, vec![]).validate().is_err());
        assert!(ClusterConfig::new(2, vec!["a:1".into()])
            .validate()
            .is_err());
        assert!(ClusterConfig::new(0, vec!["a:1".into()]).validate().is_ok());
    }
}
