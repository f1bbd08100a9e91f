//! Micro-probes: each read-path layer of `monarch-core` timed alone
//! through its public functions, and their sum set against one whole
//! `Monarch::read` over `MemDriver` — ROADMAP item 1's layer budget, taken
//! from outside.

use std::fs;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use monarch_core::config::{AdmissionKind, PolicyKind};
use monarch_core::driver::{MemDriver, PosixDriver};
use monarch_core::observe::profiler::ReadTiming;
use monarch_core::pool::ThreadPool;
use monarch_core::{
    AccessProfiler, HealthRegistry, MetadataContainer, Monarch, MonarchBuilder, PolicyEngine,
    ReadClass, Stats, StorageDriver, StorageHierarchy, TelemetryConfig, TelemetryRegistry,
};

use crate::env::{file_name, median, Rng};

const FILES: usize = 64;
const FILE_SIZE: usize = 256 << 10;
const BATCHES: usize = 5;

/// Median over `BATCHES` batches of the mean nanoseconds of `op(i)`.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let batch = || {
        let t = Instant::now();
        (0..iters).for_each(&mut op);
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    median(
        &std::iter::repeat_with(batch)
            .take(BATCHES)
            .collect::<Vec<_>>(),
    )
}

/// The same, with `op` running on two threads at once; nanoseconds per
/// operation of one thread.
fn ns_per_op_2t(iters: usize, op: impl Fn(usize) + Sync) -> f64 {
    let batch = || {
        let t = Instant::now();
        std::thread::scope(|s| {
            for half in 0..2 {
                let op = &op;
                s.spawn(move || (0..iters).for_each(|i| op(2 * i + half)));
            }
        });
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    median(
        &std::iter::repeat_with(batch)
            .take(BATCHES)
            .collect::<Vec<_>>(),
    )
}

/// A Monarch over two `MemDriver` tiers with every file placed.
fn mem_monarch(telemetry: TelemetryConfig) -> monarch_core::Result<Monarch> {
    let pfs = MemDriver::new("pfs");
    for i in 0..FILES {
        pfs.insert(&file_name(i), vec![i as u8; FILE_SIZE]);
    }
    let hierarchy = StorageHierarchy::new(vec![
        (
            "fast".into(),
            Arc::new(MemDriver::new("fast")),
            Some(1 << 30),
        ),
        ("pfs".into(), Arc::new(pfs), None),
    ])?;
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .telemetry(telemetry)
        .build()?;
    m.init()?;
    m.prestage();
    m.wait_placement_idle();
    Ok(m)
}

/// Every probe, as `(metric name, value)`. `dir` is scratch space on the
/// run's file system for the `PosixDriver` probes; `smoke` cuts every
/// iteration count by 16.
pub fn run(dir: &Path, seed: u64, smoke: bool) -> monarch_core::Result<Vec<(&'static str, f64)>> {
    let n = |iters: usize| if smoke { iters / 16 } else { iters };
    let mut out = Vec::new();
    let names: Vec<String> = (0..FILES).map(file_name).collect();
    let mut rng = Rng::stream(seed, 0x9_80BE);
    // One fixed random schedule of (file, 4 KiB-aligned offset) for all.
    let picks: Vec<(usize, u64)> = (0..4096)
        .map(|_| {
            (
                rng.below(FILES as u64) as usize,
                rng.below((FILE_SIZE / 4096) as u64) * 4096,
            )
        })
        .collect();
    let pick = |i: usize| picks[i % picks.len()];
    let mut buf = vec![0u8; 256 << 10];

    // The whole read, telemetry on and off.
    for (name, telemetry) in [
        ("middleware.read_mem_4k_ns", TelemetryConfig::default()),
        (
            "middleware.read_mem_4k_notel_ns",
            TelemetryConfig::disabled(),
        ),
    ] {
        let m = mem_monarch(telemetry)?;
        let ns = ns_per_op(n(100_000), |i| {
            let (f, off) = pick(i);
            std::hint::black_box(m.read(&names[f], off, &mut buf[..4096]).expect("mem read"));
        });
        m.shutdown();
        out.push((name, ns));
    }

    // The layers under it, in read-path order.
    let metadata = MetadataContainer::default();
    for n in &names {
        metadata.register(n, FILE_SIZE as u64, 0);
    }
    let lookup = |i: usize| {
        std::hint::black_box(
            metadata
                .lookup_for_read(&names[pick(i).0])
                .expect("registered"),
        );
    };
    let lookup_ns = ns_per_op(n(200_000), lookup);
    out.push(("metadata.lookup_ns", lookup_ns));
    out.push(("metadata.lookup_2t_ns", ns_per_op_2t(n(200_000), lookup)));

    let first_fit = PolicyEngine::from_kind(PolicyKind::FirstFit, AdmissionKind::AdmitAll);
    let lru = PolicyEngine::from_kind(PolicyKind::LruEvict, AdmissionKind::AdmitAll);
    for n in &names {
        lru.on_placed(n, FILE_SIZE as u64, 0);
    }
    let on_access_ns = ns_per_op(n(200_000), |i| first_fit.on_access(&names[pick(i).0], 0));
    out.push(("policy.on_access_ns", on_access_ns));
    out.push((
        "policy.on_access_lru_ns",
        ns_per_op(n(200_000), |i| lru.on_access(&names[pick(i).0], 0)),
    ));
    out.push((
        "policy.on_access_2t_ns",
        ns_per_op_2t(n(200_000), |i| first_fit.on_access(&names[pick(i).0], 0)),
    ));

    // What `read` asks the health registry on a healthy tier.
    let health = HealthRegistry::new(vec!["fast".into(), "pfs".into()]);
    let resolve_ns = ns_per_op(n(200_000), |_| {
        std::hint::black_box(health.retry_policy());
        std::hint::black_box(health.tier(0).is_quarantined());
        health.record_success(0);
    });
    out.push(("health.resolve_ns", resolve_ns));

    let mem = MemDriver::new("fast");
    for n in &names {
        mem.insert(n, vec![7u8; FILE_SIZE]);
    }
    let mem_read_ns = ns_per_op(n(200_000), |i| {
        let (f, off) = pick(i);
        std::hint::black_box(
            mem.read_at(&names[f], off, &mut buf[..4096])
                .expect("mem read_at"),
        );
    });
    out.push(("driver.mem_read_4k_ns", mem_read_ns));

    let stats = Arc::new(Stats::new(2));
    let record_read_ns = ns_per_op(n(1_000_000), |_| stats.record_read(0, 4096));
    out.push(("stats.record_read_ns", record_read_ns));

    // The stall profile's cost is its five clock reads plus the record.
    let registry = TelemetryRegistry::new(
        vec!["fast".into(), "pfs".into()],
        Arc::clone(&stats),
        &TelemetryConfig::default(),
    );
    let stall_ns = ns_per_op(n(200_000), |_| {
        let t = [(); 5].map(|()| Instant::now());
        registry
            .stall_profile()
            .record(t[0], t[1], t[2], t[3], t[4]);
    });
    out.push(("telemetry.stall_record_ns", stall_ns));

    let profiler = AccessProfiler::new(true, 2, 65_536);
    let observe_ns = ns_per_op(n(200_000), |i| {
        profiler.record_read(
            &names[pick(i).0],
            0,
            4096,
            ReadClass::Fast,
            false,
            ReadTiming::default(),
            i as u64,
        );
    });
    out.push(("observe.record_read_ns", observe_ns));

    let budget = lookup_ns
        + on_access_ns
        + resolve_ns
        + mem_read_ns
        + record_read_ns
        + stall_ns
        + observe_ns;
    let whole = out[0].1; // middleware.read_mem_4k_ns, pushed first
    out.push(("middleware.budget_sum_ns", budget));
    out.push(("middleware.unattributed_ns", whole - budget));

    // The shipped POSIX driver against a bare pread of the same bytes.
    let posix_dir = dir.join("probe");
    let posix = PosixDriver::new("probe", &posix_dir)?;
    let payload = vec![0x5Au8; FILE_SIZE];
    for n in &names {
        posix.write_full(n, &payload)?;
    }
    let fds: Vec<fs::File> = names
        .iter()
        .map(|n| fs::File::open(posix_dir.join(n)))
        .collect::<std::io::Result<_>>()?;
    for (len, iters, posix_name, bare_name) in [
        (
            4096usize,
            50_000,
            "driver.posix_read_4k_ns",
            "driver.bare_pread_4k_ns",
        ),
        (
            FILE_SIZE,
            2_000,
            "driver.posix_read_256k_ns",
            "driver.bare_pread_256k_ns",
        ),
    ] {
        // Keep the read inside the file: a whole-file read starts at 0.
        let at = |i: usize| {
            let (f, off) = pick(i);
            (f, off.min((FILE_SIZE - len) as u64))
        };
        let posix_ns = ns_per_op(n(iters), |i| {
            let (f, off) = at(i);
            std::hint::black_box(
                posix
                    .read_at(&names[f], off, &mut buf[..len])
                    .expect("posix read_at"),
            );
        });
        out.push((posix_name, posix_ns));
        let bare_ns = ns_per_op(n(iters), |i| {
            let (f, off) = at(i);
            std::hint::black_box(fds[f].read_at(&mut buf[..len], off).expect("pread"));
        });
        out.push((bare_name, bare_ns));
    }
    let mib = vec![0xA5u8; 1 << 20];
    let write_ns = ns_per_op(16, |i| {
        posix
            .write_full(&format!("w{}", i % 4), &mib)
            .expect("write_full")
    });
    out.push(("driver.posix_write_1m_ms", write_ns / 1e6));
    let remove_ns = ns_per_op(FILES / BATCHES, {
        let mut next = 0;
        move |_| {
            posix.remove(&names[next]).expect("remove");
            next += 1;
        }
    });
    out.push(("driver.posix_remove_us", remove_ns / 1e3));
    drop(fds);
    let _ = fs::remove_dir_all(&posix_dir);

    let pool = ThreadPool::new(1);
    let drain_ns = ns_per_op(20, |_| {
        for _ in 0..100 {
            pool.submit(Box::new(|| {}));
        }
        pool.wait_idle();
    });
    out.push(("pool.submit_drain_us", drain_ns / 100.0 / 1e3));
    drop(pool);
    Ok(out)
}

/// The layer-budget table; warns when the parts miss the whole by more
/// than a tenth.
pub fn print_budget(probes: &[(&'static str, f64)]) {
    let get = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    println!("layer budget of one 4 KiB Monarch::read over MemDriver (ns):");
    for part in [
        "metadata.lookup_ns",
        "policy.on_access_ns",
        "health.resolve_ns",
        "driver.mem_read_4k_ns",
        "stats.record_read_ns",
        "telemetry.stall_record_ns",
        "observe.record_read_ns",
    ] {
        println!("  {part:<32} {:>9.1}", get(part));
    }
    let (sum, whole, rest) = (
        get("middleware.budget_sum_ns"),
        get("middleware.read_mem_4k_ns"),
        get("middleware.unattributed_ns"),
    );
    println!("  {:<32} {sum:>9.1}", "middleware.budget_sum_ns");
    println!("  {:<32} {whole:>9.1}", "middleware.read_mem_4k_ns");
    println!("  {:<32} {rest:>9.1}", "middleware.unattributed_ns");
    if rest.abs() > 0.10 * whole {
        println!(
            "  warning: {:.0} % of the read is not attributed to a probed layer",
            100.0 * rest / whole
        );
    }
}
