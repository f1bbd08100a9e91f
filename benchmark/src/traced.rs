//! The traced repetition: the same sequences with a span around every
//! `Monarch::read` and every driver call, turned into per-layer metrics.
//! End-to-end numbers never come from here.

use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use monarch_core::TelemetryConfig;

use crate::drivers::{write_chrome_trace, Span, SpanKind, Tracer};
use crate::env::{cpu_ns_and_peak_rss_mib, median, percentile, spin_ns};
use crate::probes;
use crate::workload::{
    monarch_half, sequence, verify_all, Dataset, Half, Kind, Op, Rig, RunOpts, Shape,
};

/// Spans written to the trace file; the metrics use all of them.
const TRACE_FILE_SPANS: usize = 50_000;
/// Repetitions of the 1-reader/2-reader and telemetry on/off comparisons.
const COMPARISONS: usize = 5;

pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Durations of the reads of one traced half, split by serving tier.
struct ReadSpans {
    calls: u64,
    span_ns: u64,
    self_ns: u64,
    hit_ns: Vec<u64>,
    miss_ns: Vec<u64>,
}

/// A read's self time is its span minus the driver spans it caused; the
/// tier of that driver span says hit or miss.
fn analyse(spans: &[Span]) -> ReadSpans {
    let max_id = spans.iter().map(|s| s.id).max().unwrap_or(0) as usize;
    let mut child_ns = vec![0u64; max_id + 1];
    let mut served_by_pfs = vec![false; max_id + 1];
    for s in spans.iter().filter(|s| s.parent != 0) {
        child_ns[s.parent as usize] += s.dur_ns;
        served_by_pfs[s.parent as usize] |= s.kind == SpanKind::PfsReadAt;
    }
    let mut out = ReadSpans {
        calls: 0,
        span_ns: 0,
        self_ns: 0,
        hit_ns: Vec::new(),
        miss_ns: Vec::new(),
    };
    for s in spans.iter().filter(|s| s.kind == SpanKind::Read) {
        out.calls += 1;
        out.span_ns += s.dur_ns;
        out.self_ns += s.dur_ns.saturating_sub(child_ns[s.id as usize]);
        if served_by_pfs[s.id as usize] {
            out.miss_ns.push(s.dur_ns);
        } else {
            out.hit_ns.push(s.dur_ns);
        }
    }
    out.hit_ns.sort_unstable();
    out.miss_ns.sort_unstable();
    out
}

fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// The traced measurement of one workload; writes `trace_path`.
pub fn run_traced(
    shape: &Shape,
    data: &Dataset,
    opts: &RunOpts,
    trace_path: &Path,
) -> monarch_core::Result<Traced> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    let mut m: Vec<(&'static str, f64)> = probes::run(&data.run_dir, opts.seed, opts.smoke)?;
    let spin_before = spin_ns();

    // Two spans per read, plus the copies' driver calls, per thread.
    let tracer = Arc::new(Tracer::new(
        2 * shape.reads_per_pair + 4 * shape.files + 1024,
    ));
    let fresh = |name: &str, telemetry| Rig::set_up(shape, data, &tracer, telemetry, name);
    let ops = sequence(shape, opts.seed, 0);
    let half = |rig: &Rig, ops: &[Vec<Op>], traced: bool| -> Half {
        tracer.set_on(traced);
        let h = monarch_half(shape, data, rig, ops, traced.then_some(&*tracer));
        rig.monarch.wait_placement_idle();
        tracer.set_on(false);
        h
    };

    // As in the untraced run, the first set-up and half only warm up.
    let warm_up = fresh("fast", TelemetryConfig::default())?;
    half(&warm_up, &ops, false);
    warm_up.shut_down();

    // Repetition 0 is traced from the set-up on: its spans and counters
    // are the per-layer numbers. Later repetitions alternate untraced and
    // traced halves of the same sequence for the tracing overhead.
    tracer.set_on(true);
    let mut rig = fresh("fast", TelemetryConfig::default())?;
    let setup_spans = tracer.drain();
    let link_busy_before = rig.link.busy_ns.load(Relaxed);
    let (link_wait_before, link_ops_before) =
        (rig.link.wait_ns.load(Relaxed), rig.link.ops.load(Relaxed));
    let first = half(&rig, &ops, true);
    let mut spans = tracer.drain();
    let dropped = tracer.dropped.load(Relaxed);
    let reads = analyse(&spans);
    let stats = rig.monarch.stats();
    let telemetry = Arc::clone(rig.monarch.telemetry());
    let (fast_ra, fast_rf, fast_w, fast_rm) = (
        rig.fast.read_at.get(),
        rig.fast.read_full.get(),
        rig.fast.write_full.get(),
        rig.fast.remove.get(),
    );
    let (pfs_ra, pfs_rf) = (rig.pfs.read_at.get(), rig.pfs.read_full.get());
    let link_busy = rig.link.busy_ns.load(Relaxed) - link_busy_before;
    let link_wait = rig.link.wait_ns.load(Relaxed) - link_wait_before;
    let link_ops = rig.link.ops.load(Relaxed) - link_ops_before;
    let init = rig.init;
    let staging_s = rig.staging_s;

    let (hits, misses) = (reads.hit_ns.len() as u64, reads.miss_ns.len() as u64);
    let mut put = |name: &'static str, v: f64| m.push((name, if v.is_finite() { v } else { 0.0 }));
    put("middleware.read_calls", reads.calls as f64);
    put("middleware.read_span_ns", per(reads.span_ns, reads.calls));
    put("middleware.read_self_ns", per(reads.self_ns, reads.calls));
    put(
        "middleware.hit_read_p50_us",
        percentile(&reads.hit_ns, 0.50) as f64 / 1e3,
    );
    put(
        "middleware.hit_read_p99_us",
        percentile(&reads.hit_ns, 0.99) as f64 / 1e3,
    );
    put(
        "middleware.miss_read_p50_us",
        percentile(&reads.miss_ns, 0.50) as f64 / 1e3,
    );
    put(
        "middleware.failed_read_share",
        per(first.failed, first.attempted),
    );
    put(
        "middleware.init_scan_us_per_file",
        per(init.elapsed.as_nanos() as u64, init.files) / 1e3,
    );
    put("metadata.fast_hit_share", per(hits, hits + misses));
    put("policy.evictions", stats.evictions as f64);
    put("policy.evictions_per_miss", per(stats.evictions, misses));
    put("health.read_retries", stats.read_retries as f64);
    put("health.degraded_reads", stats.degraded_reads as f64);
    put("driver.fast_read_calls", fast_ra.0 as f64);
    put("driver.fast_read_ns", per(fast_ra.2, fast_ra.0));
    put("driver.pfs_read_calls", (pfs_ra.0 + pfs_rf.0) as f64);
    put(
        "driver.pfs_read_ns",
        per(pfs_ra.2 + pfs_rf.2, pfs_ra.0 + pfs_rf.0),
    );
    put("driver.pfs_read_bytes", (pfs_ra.1 + pfs_rf.1) as f64);
    put("driver.fast_write_calls", fast_w.0 as f64);
    put("driver.fast_write_bytes", fast_w.1 as f64);
    put("driver.fast_write_ms", per(fast_w.2, fast_w.0) / 1e6);
    put("driver.fast_remove_calls", fast_rm.0 as f64);
    put("transfer.copies_scheduled", stats.copies_scheduled as f64);
    put("transfer.copies_completed", stats.copies_completed as f64);
    put("transfer.copies_failed", stats.copies_failed as f64);
    put("transfer.placement_skipped", stats.placement_skipped as f64);
    put("transfer.bg_pfs_bytes", pfs_rf.1 as f64);
    put(
        "transfer.copy_latency_ms",
        telemetry.copy_duration().mean() as f64 / 1e6,
    );
    // Staged: prestage to idle. Otherwise: first read to the last copy
    // settled, which `half` waits for after the timed reads.
    let first_read_ns = spans
        .iter()
        .find(|s| s.kind == SpanKind::Read)
        .map_or(0, |s| s.start_ns);
    let last_end_ns = spans
        .iter()
        .map(|s| s.start_ns + s.dur_ns)
        .max()
        .unwrap_or(0);
    put(
        "transfer.time_to_placed_s",
        if shape.staged() {
            staging_s
        } else {
            (last_end_ns - first_read_ns) as f64 / 1e9
        },
    );
    put(
        "pool.queue_wait_ms",
        telemetry.queue_wait().mean() as f64 / 1e6,
    );
    put("pool.exec_ms", telemetry.pool_exec().mean() as f64 / 1e6);
    // The shipped counters against the wrappers' own, tier by tier.
    let (fast_t, pfs_t) = (&stats.tiers[0], &stats.tiers[1]);
    let mismatch = [
        (fast_t.reads, fast_ra.0 + fast_rf.0),
        (fast_t.bytes_read, fast_ra.1 + fast_rf.1),
        (fast_t.writes, fast_w.0),
        (fast_t.bytes_written, fast_w.1),
        (fast_t.removes, fast_rm.0),
        (pfs_t.reads, pfs_ra.0 + pfs_rf.0),
        (pfs_t.bytes_read, pfs_ra.1 + pfs_rf.1),
    ]
    .iter()
    .map(|(shipped, seen)| shipped.abs_diff(*seen))
    .sum::<u64>();
    put("stats.external_mismatch", mismatch as f64);
    put("pfs_link.busy_share", per(link_busy, first.wall_ns));
    put("pfs_link.wait_ms", per(link_wait, link_ops) / 1e6);
    put("trace.spans_dropped", dropped as f64);

    // Tracing overhead: the same sequence with the tracer off and on.
    let (mut walls_on, mut walls_off, mut cpu_us) =
        (vec![first.wall_ns as f64], Vec::new(), Vec::new());
    let mut rep = 0usize;
    while rep < 2 || Instant::now() < deadline {
        for traced in if rep.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        } {
            if !shape.staged() {
                rig.shut_down();
                rig = fresh("fast", TelemetryConfig::default())?;
            }
            let h = half(&rig, &ops, traced);
            tracer.drain();
            if traced {
                walls_on.push(h.wall_ns as f64);
            } else {
                walls_off.push(h.wall_ns as f64);
                cpu_us.push(h.cpu_ns as f64 / 1e3 / h.attempted as f64);
            }
        }
        rep += 1;
    }
    put(
        "trace.overhead_share",
        median(&walls_on) / median(&walls_off) - 1.0,
    );
    put("process.cpu_us_per_read", median(&cpu_us));

    // `warm_rand_4k` also compares one reader with two, and the shipped
    // telemetry default with telemetry off; elsewhere both read 0.
    let (mut scaling, mut on_minus_off) = (0.0, 0.0);
    if shape.kind == Kind::WarmRand {
        let one = &ops[..1];
        let rate = |h: Half| h.attempted as f64 / (h.wall_ns as f64 / 1e9);
        let off_rig = fresh("fast-notel", TelemetryConfig::disabled())?;
        let (mut r1, mut r2, mut on_ns, mut off_ns) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..COMPARISONS {
            let h1 = half(&rig, one, false);
            r1.push(rate(h1));
            on_ns.push(h1.wall_ns as f64 / h1.attempted as f64);
            r2.push(rate(half(&rig, &ops, false)));
            let h0 = half(&off_rig, one, false);
            off_ns.push(h0.wall_ns as f64 / h0.attempted as f64);
        }
        off_rig.shut_down();
        scaling = median(&r2) / (2.0 * median(&r1));
        on_minus_off = median(&on_ns) - median(&off_ns);
    }
    put("middleware.scaling_2t", scaling);
    put("telemetry.on_minus_off_ns", on_minus_off);

    let (equal, attempted, failed) = verify_all(shape, data, &rig.monarch);
    rig.shut_down();
    put("process.peak_rss_mib", cpu_ns_and_peak_rss_mib().1);
    put(
        "env.spin_drift",
        (spin_ns() as f64 / spin_before as f64 - 1.0).abs(),
    );

    let mut all = setup_spans;
    all.append(&mut spans);
    write_chrome_trace(trace_path, &all, TRACE_FILE_SPANS)?;
    Ok(Traced {
        metrics: m,
        correct: equal,
        attempted: first.attempted + attempted,
        failed: first.failed + failed,
    })
}
