//! Distributed peer-cache integration: two in-process MONARCH nodes over
//! loopback TCP sharing one PFS directory. A file staged on node A's fast
//! tier is served to node B without a second PFS read; a peer that does
//! not hold its shard yet — or whose listener has died mid-epoch — makes
//! node B degrade to its own PFS read instead of erroring.

use std::fs;
use std::path::{Path, PathBuf};

use monarch::core::cluster::ShardMap;
use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::{ClusterConfig, Monarch};
use monarch::tfrecord::synth::{generate, DatasetSpec};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-cluster-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn node_config(ssd: &Path, pfs: &Path, capacity: u64, cluster: ClusterConfig) -> MonarchConfig {
    MonarchConfig::builder()
        .tier(TierConfig::posix("ssd", ssd.to_string_lossy().to_string()).with_capacity(capacity))
        .tier(TierConfig::posix("pfs", pfs.to_string_lossy().to_string()))
        .pool_threads(2)
        .cluster(cluster)
        .build()
}

/// Reads served by the node's own PFS tier (the source, always last).
fn pfs_reads(m: &Monarch) -> u64 {
    m.stats().tiers.last().expect("at least one tier").reads
}

#[test]
fn peer_serves_staged_files_and_degrades_to_pfs() {
    let root = tmp("e2e");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(2 << 20, 256, 21);
    let ds = generate(&spec, &data).unwrap();
    let names: Vec<String> = ds
        .shards
        .iter()
        .map(|s| s.file_name().unwrap().to_string_lossy().into_owned())
        .collect();

    // Both nodes must agree on the shard seed; pick one (deterministically)
    // that gives node 0 enough shards to stage and node 1 at least one, so
    // the scenario below cannot collapse into a single owner.
    let (seed, owned0) = (0u64..64)
        .find_map(|seed| {
            let map = ShardMap::new(2, seed);
            let owned0: Vec<String> = names
                .iter()
                .filter(|n| map.owner(n) == 0)
                .cloned()
                .collect();
            (owned0.len() >= 3 && owned0.len() < names.len()).then_some((seed, owned0))
        })
        .expect("some seed splits the shards across both nodes");

    // Node A: serves on an OS-assigned loopback port. Node 1's address is
    // a placeholder — A only stages its own shards and never dials out.
    let mut cluster_a = ClusterConfig::new(0, vec!["127.0.0.1:0".into(), "127.0.0.1:9".into()]);
    cluster_a.shard_seed = seed;
    let a = Monarch::new(node_config(
        &root.join("ssd-a"),
        &data,
        ds.total_bytes,
        cluster_a,
    ))
    .unwrap();
    a.init().unwrap();

    // Stage every node-0-owned shard but one on A's fast tier; the holdout
    // exercises the "peer does not hold the shard yet" degradation.
    let holdout = owned0.last().unwrap().clone();
    for name in &owned0[..owned0.len() - 1] {
        assert!(!a.read_full(name).unwrap().is_empty());
    }
    a.wait_placement_idle();
    let a_addr = a
        .cluster()
        .expect("node A is clustered")
        .server_addr()
        .expect("node A serves its shard")
        .to_string();

    // Node B: same membership (A's real bound address), same seed. No
    // connection pooling, so every fetch dials fresh — once A's listener
    // dies, the very next fetch sees the refusal instead of a warm socket.
    let mut cluster_b = ClusterConfig::new(1, vec![a_addr, "127.0.0.1:0".into()]);
    cluster_b.shard_seed = seed;
    cluster_b.pool_conns_per_peer = 0;
    let b = Monarch::new(node_config(
        &root.join("ssd-b"),
        &data,
        ds.total_bytes,
        cluster_b,
    ))
    .unwrap();
    b.init().unwrap();

    // A staged file is served peer-to-peer: byte-identical to the PFS
    // copy, no PFS read on B, peer counters tick.
    let before = pfs_reads(&b);
    let via_peer = b.read_full(&owned0[0]).unwrap();
    assert_eq!(via_peer, fs::read(data.join(&owned0[0])).unwrap());
    let s = b.stats();
    assert!(s.peer_hits >= 1, "expected a peer hit, got {s:?}");
    assert!(s.peer_bytes >= via_peer.len() as u64);
    assert_eq!(
        pfs_reads(&b),
        before,
        "a peer-served read must not touch the PFS"
    );
    // Its time went in once, through the profiler: the fetch is a pread in
    // the stall profile and peer-bound time in the ledger, whose wall is
    // the profile's.
    let snap = b.telemetry_snapshot();
    let ledger = snap.observe.as_ref().expect("profiler on").profiler.ledger;
    let stall = &snap.stall_profile;
    assert!(ledger.peer_bound_pread_us > 0, "{ledger:?}");
    assert!(stall.driver_pread.sum_nanos / 1_000 >= ledger.peer_bound_pread_us);
    let phases = [
        &stall.lock_wait,
        &stall.queue_wait,
        &stall.driver_pread,
        &stall.copy_wait,
    ];
    let wall: u64 = phases.iter().map(|h| h.sum_nanos).sum();
    assert_eq!(ledger.read_wall_us, wall / 1_000);

    // The holdout is peer-owned but not resident on A: B falls back to its
    // own PFS read and still gets the bytes.
    let fallbacks = b.stats().peer_fallbacks;
    let before = pfs_reads(&b);
    let via_pfs = b.read_full(&holdout).unwrap();
    assert_eq!(via_pfs, fs::read(data.join(&holdout)).unwrap());
    assert!(b.stats().peer_fallbacks > fallbacks);
    assert!(pfs_reads(&b) > before, "fallback must read the PFS");

    // Kill A's listener mid-epoch: reads of A-owned shards degrade to the
    // PFS — counted, never an error.
    b.wait_placement_idle();
    a.cluster().unwrap().stop_server();
    assert!(a.cluster().unwrap().server_addr().is_none());
    let fallbacks = b.stats().peer_fallbacks;
    let bytes = b.read_full(&owned0[1]).unwrap();
    assert_eq!(bytes, fs::read(data.join(&owned0[1])).unwrap());
    assert!(
        b.stats().peer_fallbacks > fallbacks,
        "a dead listener must degrade to the PFS"
    );

    // The roster snapshot carries the client-side counters.
    let snap = b.telemetry_snapshot().cluster.expect("node B is clustered");
    assert_eq!(snap.node_id, 1);
    assert_eq!(snap.nodes.len(), 2);
    assert!(snap.peer_hits >= 1 && snap.peer_fallbacks >= 2);

    b.shutdown();
    a.shutdown();
    fs::remove_dir_all(&root).unwrap();
}
