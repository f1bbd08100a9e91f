//! The benchmark's vocabulary: workload and metric names, units,
//! directions and bounds. `BENCHMARK.json` repeats this table for the
//! driver; `check-manifest` fails when the two disagree.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric. `bound` is the share by which an end-to-end metric
/// may worsen before a change counts as a regression; per-layer metrics
/// carry none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "warm_seq_256k",
        "control: placed files behind a modelled NVMe device, 1 reader, sequential 256 KiB reads; device-bound, so only an added copy or lock on large reads moves it",
    ),
    (
        "warm_rand_4k",
        "hit path: placed files, 2 readers, random 4 KiB reads; the name-keyed maps and their locks are the work",
    ),
    (
        "cold_epoch",
        "miss path: empty fast tier, first_fit, chunked first-touch reads race full-file background copies for the PFS link",
    ),
    (
        "churn_lru",
        "eviction path: fast tier half the dataset, lru_evict, Zipf whole-file reads settled one by one; bypasses chunked hits",
    ),
];

use Better::{Higher, Lower};

/// What a user of the middleware sees; the same four on every workload.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_mib_s", "MiB/s", Higher, 0.25),
    e2e("overhead_ratio", "ratio", Lower, 0.15),
    e2e("pfs_amplification", "ratio", Lower, 0.10),
];

/// Single-layer numbers from the traced repetition and the probes; the
/// prefix is the `monarch-core` module the number belongs to.
pub const PER_LAYER: [Metric; 62] = [
    layer("middleware.read_calls", "count", Lower),
    layer("middleware.read_span_ns", "ns", Lower),
    layer("middleware.read_self_ns", "ns", Lower),
    layer("middleware.hit_read_p50_us", "us", Lower),
    layer("middleware.hit_read_p99_us", "us", Lower),
    layer("middleware.miss_read_p50_us", "us", Lower),
    layer("middleware.failed_read_share", "ratio", Lower),
    layer("middleware.scaling_2t", "ratio", Higher),
    layer("middleware.init_scan_us_per_file", "us", Lower),
    layer("middleware.read_mem_4k_ns", "ns", Lower),
    layer("middleware.read_mem_4k_notel_ns", "ns", Lower),
    layer("middleware.budget_sum_ns", "ns", Lower),
    layer("middleware.unattributed_ns", "ns", Lower),
    layer("metadata.fast_hit_share", "ratio", Higher),
    layer("metadata.lookup_ns", "ns", Lower),
    layer("metadata.lookup_2t_ns", "ns", Lower),
    layer("policy.evictions", "count", Lower),
    layer("policy.evictions_per_miss", "ratio", Lower),
    layer("policy.on_access_ns", "ns", Lower),
    layer("policy.on_access_lru_ns", "ns", Lower),
    layer("policy.on_access_2t_ns", "ns", Lower),
    layer("health.read_retries", "count", Lower),
    layer("health.degraded_reads", "count", Lower),
    layer("health.resolve_ns", "ns", Lower),
    layer("driver.fast_read_calls", "count", Lower),
    layer("driver.fast_read_ns", "ns", Lower),
    layer("driver.pfs_read_calls", "count", Lower),
    layer("driver.pfs_read_ns", "ns", Lower),
    layer("driver.pfs_read_bytes", "bytes", Lower),
    layer("driver.fast_write_calls", "count", Lower),
    layer("driver.fast_write_bytes", "bytes", Lower),
    layer("driver.fast_write_ms", "ms", Lower),
    layer("driver.fast_remove_calls", "count", Lower),
    layer("driver.posix_read_4k_ns", "ns", Lower),
    layer("driver.bare_pread_4k_ns", "ns", Lower),
    layer("driver.posix_read_256k_ns", "ns", Lower),
    layer("driver.bare_pread_256k_ns", "ns", Lower),
    layer("driver.posix_write_1m_ms", "ms", Lower),
    layer("driver.posix_remove_us", "us", Lower),
    layer("driver.mem_read_4k_ns", "ns", Lower),
    layer("transfer.copies_scheduled", "count", Lower),
    layer("transfer.copies_completed", "count", Higher),
    layer("transfer.copies_failed", "count", Lower),
    layer("transfer.placement_skipped", "count", Lower),
    layer("transfer.bg_pfs_bytes", "bytes", Lower),
    layer("transfer.copy_latency_ms", "ms", Lower),
    layer("transfer.time_to_placed_s", "s", Lower),
    layer("pool.queue_wait_ms", "ms", Lower),
    layer("pool.exec_ms", "ms", Lower),
    layer("pool.submit_drain_us", "us", Lower),
    layer("stats.external_mismatch", "count", Lower),
    layer("stats.record_read_ns", "ns", Lower),
    layer("telemetry.on_minus_off_ns", "ns", Lower),
    layer("telemetry.stall_record_ns", "ns", Lower),
    layer("observe.record_read_ns", "ns", Lower),
    layer("pfs_link.busy_share", "ratio", Lower),
    layer("pfs_link.wait_ms", "ms", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans_dropped", "count", Lower),
    layer("process.cpu_us_per_read", "us", Lower),
    layer("process.peak_rss_mib", "MiB", Lower),
    layer("env.spin_drift", "ratio", Lower),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(n, _)| *n)
}
