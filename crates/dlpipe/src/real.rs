//! Real-mode training driver: the same pipeline shape as the simulator,
//! but with actual threads reading actual bytes from actual directories —
//! through the real [`monarch_core::Monarch`] middleware when the setup
//! asks for it.
//!
//! This path exists for *correctness*, not performance claims: the
//! integration tests use it to check that a concurrent tf.data-style
//! workload through MONARCH delivers byte-identical data, places files
//! within quota, and converges to local serving — at miniature scale.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use monarch_core::driver::{PosixDriver, StorageDriver};
use monarch_core::telemetry::{ThroughputSampler, TimeSeries};
use monarch_core::Monarch;
use simfs::rng::SimRng;

use crate::config::PipelineConfig;

/// How chunks are served in real mode.
pub enum RealBackend {
    /// Read straight from a directory (the vanilla setups).
    Direct(PosixDriver),
    /// Read through the MONARCH middleware.
    Monarch(Arc<Monarch>),
}

impl RealBackend {
    fn read(&self, file: &str, offset: u64, buf: &mut [u8]) -> monarch_core::Result<usize> {
        match self {
            RealBackend::Direct(d) => d.read_at(file, offset, buf),
            RealBackend::Monarch(m) => m.read(file, offset, buf),
        }
    }

    fn file_size(&self, file: &str) -> monarch_core::Result<u64> {
        match self {
            RealBackend::Direct(d) => d.file_size(file),
            RealBackend::Monarch(m) => m.file_size(file),
        }
    }
}

/// Result of one real-mode epoch.
#[derive(Debug, Clone)]
pub struct RealEpoch {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Chunk reads issued.
    pub chunk_reads: u64,
    /// Payload bytes delivered to the trainer.
    pub bytes: u64,
    /// XOR-fold of all delivered bytes — cheap content fingerprint; equal
    /// across setups ⇔ the pipeline delivered the same data.
    pub fingerprint: u64,
    /// Wall-clock read-throughput samples `(seconds, bytes/s)` — the same
    /// [`TimeSeries`] schema the simulator emits; empty unless
    /// `PipelineConfig::trace_interval_secs` is set.
    pub throughput: TimeSeries,
}

/// Real-mode trainer over a sharded dataset directory.
pub struct RealTrainer {
    backend: Arc<RealBackend>,
    shards: Vec<String>,
    pipeline: PipelineConfig,
}

impl RealTrainer {
    /// Train from the shard files found under `dataset_dir` (their
    /// *logical* names are paths relative to that directory).
    pub fn new(
        backend: RealBackend,
        dataset_dir: &Path,
        pipeline: PipelineConfig,
    ) -> std::io::Result<Self> {
        let mut shards: Vec<String> = std::fs::read_dir(dataset_dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        shards.sort();
        Ok(Self {
            backend: Arc::new(backend),
            shards,
            pipeline,
        })
    }

    /// Shard names the trainer will stream.
    #[must_use]
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// The exact shard order [`RealTrainer::run_epoch`] will stream for
    /// `epoch` — the shuffle is seeded, so a caller can compute the order
    /// beforehand and hand it to [`Monarch::submit_plan`] as a clairvoyant
    /// access plan.
    #[must_use]
    pub fn epoch_order(&self, epoch: usize) -> Vec<String> {
        let mut order = self.shards.clone();
        let mut rng = SimRng::new(self.pipeline.seed ^ (epoch as u64).wrapping_mul(0x9e37));
        rng.shuffle(&mut order);
        order
    }

    /// Run one epoch: shuffle shards, stream them with N reader threads in
    /// `chunk_bytes` reads, fold every delivered byte into the
    /// fingerprint.
    pub fn run_epoch(&self, epoch: usize) -> monarch_core::Result<RealEpoch> {
        let start = Instant::now();
        let order = self.epoch_order(epoch);

        let reads = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let fp = Arc::new(AtomicU64::new(0));
        let sampler = self
            .pipeline
            .trace_interval_secs
            .map(|iv| Mutex::new(ThroughputSampler::new(iv)));
        // The readers' work queue: each takes the next shard of `order`.
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| -> monarch_core::Result<()> {
            let mut handles = Vec::new();
            for _ in 0..self.pipeline.readers.max(1) {
                let (order, next) = (&order, &next);
                let backend = Arc::clone(&self.backend);
                let reads = Arc::clone(&reads);
                let bytes = Arc::clone(&bytes);
                let fp = Arc::clone(&fp);
                let sampler = sampler.as_ref();
                let chunk = self.pipeline.chunk_bytes as usize;
                handles.push(scope.spawn(move || -> monarch_core::Result<()> {
                    let mut buf = vec![0u8; chunk];
                    while let Some(shard) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let size = backend.file_size(shard)?;
                        let mut offset = 0u64;
                        while offset < size {
                            let n = backend.read(shard, offset, &mut buf)?;
                            if n == 0 {
                                break;
                            }
                            reads.fetch_add(1, Ordering::Relaxed);
                            let cum = bytes.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
                            if let Some(s) = sampler {
                                s.lock()
                                    .expect("sampler lock")
                                    .observe(start.elapsed().as_secs_f64(), cum);
                            }
                            // Order-independent fingerprint: XOR of
                            // byte-value × position-in-file hashes.
                            let mut acc = 0u64;
                            for (i, &b) in buf[..n].iter().enumerate() {
                                let pos = offset + i as u64;
                                acc ^= (u64::from(b).wrapping_add(1))
                                    .wrapping_mul(pos.wrapping_add(0x9e37_79b9_7f4a_7c15));
                            }
                            fp.fetch_xor(acc, Ordering::Relaxed);
                            offset += n as u64;
                        }
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join().expect("reader thread")?;
            }
            Ok(())
        })?;

        Ok(RealEpoch {
            seconds: start.elapsed().as_secs_f64(),
            chunk_reads: reads.load(Ordering::Relaxed),
            bytes: bytes.load(Ordering::Relaxed),
            fingerprint: fp.load(Ordering::Relaxed),
            throughput: sampler
                .map(|m| m.into_inner().expect("sampler lock").into_series())
                .unwrap_or_default(),
        })
    }

    /// Run `epochs` epochs back-to-back.
    pub fn run(&self, epochs: usize) -> monarch_core::Result<Vec<RealEpoch>> {
        (0..epochs).map(|e| self.run_epoch(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monarch_core::config::{MonarchConfig, TierConfig};
    use std::fs;
    use std::path::PathBuf;
    use tfrecord::synth::{generate, DatasetSpec};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dlpipe-real-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn make_dataset(dir: &Path) -> u64 {
        let spec = DatasetSpec::miniature(512 << 10, 64, 99);
        generate(&spec, dir).unwrap().total_bytes
    }

    #[test]
    fn direct_trainer_reads_everything() {
        let root = tmp("direct");
        let data = root.join("data");
        let total = make_dataset(&data);
        let backend = RealBackend::Direct(PosixDriver::new("pfs", &data).unwrap());
        let t = RealTrainer::new(
            backend,
            &data,
            PipelineConfig {
                readers: 4,
                chunk_bytes: 8 << 10,
                prefetch_batches: 2,
                seed: 1,
                trace_interval_secs: Some(0.0),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        let e = t.run_epoch(0).unwrap();
        assert_eq!(e.bytes, total);
        assert!(e.chunk_reads > 0);
        // Interval 0 samples on every elapsed-time advance: the trace must
        // be non-empty, time-ordered, and end near the total volume.
        assert!(!e.throughput.is_empty(), "tracing enabled but no samples");
        for w in e.throughput.windows(2) {
            assert!(w[1].0 > w[0].0, "trace times must increase");
        }
        assert!(e.throughput.iter().any(|&(_, rate)| rate > 0.0));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn epoch_order_predicts_the_shuffle() {
        let root = tmp("order");
        let data = root.join("data");
        make_dataset(&data);
        let backend = RealBackend::Direct(PosixDriver::new("pfs", &data).unwrap());
        let t = RealTrainer::new(
            backend,
            &data,
            PipelineConfig {
                readers: 1,
                chunk_bytes: 8 << 10,
                prefetch_batches: 2,
                seed: 42,
                trace_interval_secs: None,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        // Deterministic, a permutation of the shard set, and epoch-varying.
        assert_eq!(t.epoch_order(0), t.epoch_order(0));
        let mut sorted = t.epoch_order(3);
        sorted.sort();
        assert_eq!(sorted, t.shards());
        assert_ne!(t.epoch_order(0), t.epoch_order(1), "epochs share a shuffle");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn monarch_trainer_matches_direct_fingerprint() {
        let root = tmp("monarch");
        let data = root.join("data");
        let cache = root.join("cache");
        let total = make_dataset(&data);

        let pipeline = PipelineConfig {
            readers: 4,
            chunk_bytes: 8 << 10,
            prefetch_batches: 2,
            seed: 1,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        };
        let direct = RealTrainer::new(
            RealBackend::Direct(PosixDriver::new("pfs", &data).unwrap()),
            &data,
            pipeline.clone(),
        )
        .unwrap();
        let want = direct.run_epoch(0).unwrap();

        let cfg = MonarchConfig {
            pool_threads: 3,
            ..MonarchConfig::new(vec![
                TierConfig::posix("ssd", cache.to_string_lossy().to_string()).with_capacity(total),
                TierConfig::posix("pfs", data.to_string_lossy().to_string()),
            ])
        };
        let monarch = Arc::new(Monarch::new(cfg).unwrap());
        monarch.init().unwrap();
        let t =
            RealTrainer::new(RealBackend::Monarch(Arc::clone(&monarch)), &data, pipeline).unwrap();

        // Epoch 1: bytes identical even while placement races underneath.
        let e1 = t.run_epoch(0).unwrap();
        assert_eq!(e1.bytes, want.bytes);
        assert_eq!(e1.fingerprint, want.fingerprint, "epoch-1 content mismatch");

        monarch.wait_placement_idle();
        let placed = monarch.stats();
        assert!(placed.copies_completed > 0, "nothing was placed");

        // Epoch 2: served from the local tier, still identical bytes.
        let e2 = t.run_epoch(1).unwrap();
        assert_eq!(e2.fingerprint, want.fingerprint, "epoch-2 content mismatch");
        let stats = monarch.stats();
        let local_delta = stats.tiers[0].reads - placed.tiers[0].reads;
        let pfs_delta = stats.tiers[1].reads - placed.tiers[1].reads;
        assert!(
            local_delta > 0,
            "epoch 2 never hit the local tier: {stats:?}"
        );
        assert_eq!(pfs_delta, 0, "epoch 2 should not touch the PFS: {stats:?}");
        fs::remove_dir_all(&root).unwrap();
    }
}
