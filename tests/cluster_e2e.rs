//! Distributed peer-cache integration: two in-process MONARCH nodes over
//! loopback TCP sharing one PFS directory. A file staged on node A's fast
//! tier is served to node B without a second PFS read; a peer that does
//! not hold its shard yet — or whose listener has died mid-epoch — makes
//! node B degrade to its own PFS read instead of erroring.

use std::fs;
use std::path::{Path, PathBuf};

use monarch::core::cluster::ShardMap;
use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::core::trace::{names, ArgValue};
use monarch::core::{ClusterConfig, Monarch, TelemetryConfig};
use monarch::tfrecord::synth::{generate, DatasetSpec};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-cluster-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn node_config(ssd: &Path, pfs: &Path, capacity: u64, cluster: ClusterConfig) -> MonarchConfig {
    MonarchConfig {
        pool_threads: 2,
        cluster: Some(cluster),
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", ssd.to_string_lossy().to_string()).with_capacity(capacity),
            TierConfig::posix("pfs", pfs.to_string_lossy().to_string()),
        ])
    }
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

#[test]
fn a_peer_served_read_is_booked_like_any_read() {
    // A read node B serves from node A's fast tier goes through the one
    // booking call every read goes through: one access of its file, one
    // read in the ledger, timed at weight 1 as peer-bound, and — sampled —
    // one `read` span whose `driver_pread` child is the peer fetch.
    let root = tmp("booked");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 64, 5);
    let ds = generate(&spec, &data).unwrap();
    let names_on_pfs: Vec<String> = ds
        .shards
        .iter()
        .map(|s| s.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    let (seed, shard) = (0u64..64)
        .find_map(|seed| {
            let map = ShardMap::new(2, seed);
            let owned0 = names_on_pfs.iter().find(|n| map.owner(n) == 0)?;
            Some((seed, owned0.clone()))
        })
        .expect("some seed gives node 0 a shard");

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
    a.read_full(&shard).unwrap();
    a.wait_placement_idle();
    let a_addr = a.cluster().unwrap().server_addr().unwrap().to_string();

    let mut cluster_b = ClusterConfig::new(1, vec![a_addr, "127.0.0.1:0".into()]);
    cluster_b.shard_seed = seed;
    let mut cfg = node_config(&root.join("ssd-b"), &data, ds.total_bytes, cluster_b);
    cfg.telemetry = TelemetryConfig::with_tracing();
    let b = Monarch::new(cfg).unwrap();
    b.init().unwrap();

    let mut buf = vec![0u8; 4096];
    let n = b.read(&shard, 0, &mut buf).unwrap();
    assert_eq!(buf[..n], fs::read(data.join(&shard)).unwrap()[..n]);
    let stats = b.stats();
    assert_eq!((stats.peer_hits, stats.peer_bytes), (1, n as u64));
    assert_eq!(pfs_reads(&b), 0, "the peer served it");
    assert_eq!(stats.timed_reads, 1);

    // Counted once: in the namespace and in the ledger.
    assert_eq!(b.metadata().get(&shard).unwrap().reads, 1);
    let snap = b.telemetry_snapshot();
    let ledger = snap.observe.as_ref().expect("profiler on").profiler.ledger;
    assert_eq!(ledger.reads, 1);
    // Timed at weight 1, its pread all peer-bound.
    let pread = &snap.stall_profile.driver_pread;
    assert_eq!(pread.count, 1);
    assert!(ledger.peer_bound_pread_us > 0, "{ledger:?}");
    assert_eq!(ledger.peer_bound_pread_us, pread.sum_nanos / 1_000);
    let others = ledger.fast_pread_us
        + ledger.pfs_cold_pread_us
        + ledger.lane_sat_pread_us
        + ledger.staged_pread_us
        + ledger.prefetch_lag_pread_us
        + ledger.degraded_pread_us;
    assert_eq!(others, 0, "{ledger:?}");

    // One `read` span; its `driver_pread` child is the fetch the ledger
    // books as peer-bound, inside the read.
    let spans = b.telemetry().trace().spans();
    let reads: Vec<_> = spans.iter().filter(|s| s.name == names::READ).collect();
    assert_eq!(reads.len(), 1, "{spans:?}");
    let read = reads[0];
    let preads: Vec<_> = spans
        .iter()
        .filter(|s| s.name == names::DRIVER_PREAD && s.parent == read.id)
        .collect();
    assert_eq!(preads.len(), 1, "{spans:?}");
    let fetch = preads[0];
    assert!(fetch
        .args
        .iter()
        .any(|(k, v)| *k == "tier" && matches!(v, ArgValue::Str(t) if t == "peer")));
    assert!(fetch.dur_us.abs_diff(ledger.peer_bound_pread_us) <= 1);
    assert!(fetch.ts_us >= read.ts_us);
    assert!(fetch.ts_us + fetch.dur_us <= read.ts_us + read.dur_us);

    b.shutdown();
    a.shutdown();
    fs::remove_dir_all(&root).unwrap();
}
