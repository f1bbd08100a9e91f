//! The four workloads: their shapes, seeded operation sequences, the
//! Monarch and bare halves of a pair, and the untraced measurement.

use std::fs;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use monarch_core::config::PolicyKind;
use monarch_core::{
    InitReport, Monarch, MonarchBuilder, StorageDriver, StorageHierarchy, TelemetryConfig,
};

use crate::drivers::{traced_read, Link, LinkModel, TierProbe, Tracer, NVME, PFS_LINK};
use crate::env::{
    cpu_ns_and_peak_rss_mib, file_name, generate_dataset, hash_all, hash_sample, Rng,
};

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    WarmSeq,
    WarmRand,
    ColdEpoch,
    ChurnLru,
}

/// Everything that fixes a workload apart from the seed.
#[derive(Clone, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub kind: Kind,
    pub files: usize,
    pub file_size: usize,
    pub read_size: usize,
    pub reads_per_pair: usize,
    pub readers: usize,
    pub pool_threads: usize,
    pub fast_capacity: u64,
    pub policy: PolicyKind,
    /// Device model in front of the fast tier, if any.
    pub fast_device: Option<LinkModel>,
    pub min_pairs: usize,
}

impl Shape {
    /// The shape of workload `name`; `smoke` divides file and read counts
    /// by 16 so the whole suite runs in seconds.
    pub fn of(name: &str, smoke: bool) -> Option<Self> {
        let name = crate::spec::workload_names().find(|n| *n == name)?;
        let (kind, files, file_size, read_size, reads_per_pair) = match name {
            "warm_seq_256k" => (Kind::WarmSeq, 16, 8 * MIB, 256 * KIB, 2048),
            "warm_rand_4k" => (Kind::WarmRand, 256, 256 * KIB, 4 * KIB, 100_000),
            "cold_epoch" => (Kind::ColdEpoch, 32, 4 * MIB, 512 * KIB, 0),
            "churn_lru" => (Kind::ChurnLru, 128, 256 * KIB, 256 * KIB, 768),
            _ => unreachable!("every name in the spec table has a shape"),
        };
        let div = if smoke { 16 } else { 1 };
        let files = (files / div).max(4);
        let dataset = (files * file_size) as u64;
        let mut s = Self {
            name,
            kind,
            files,
            file_size,
            read_size,
            reads_per_pair: reads_per_pair / div,
            readers: 1,
            pool_threads: 1,
            fast_capacity: 2 * dataset,
            policy: PolicyKind::FirstFit,
            fast_device: None,
            min_pairs: if smoke { 2 } else { 10 },
        };
        match kind {
            // Readers and pool workers never exceed the two cores: on the
            // warm workloads the pool only works while the readers wait.
            Kind::WarmSeq => (s.pool_threads, s.fast_device) = (2, Some(NVME)),
            Kind::WarmRand => (s.readers, s.pool_threads) = (2, 2),
            Kind::ColdEpoch => s.reads_per_pair = files * (file_size / read_size),
            Kind::ChurnLru => (s.fast_capacity, s.policy) = (dataset / 2, PolicyKind::LruEvict),
        }
        Some(s)
    }

    /// Files are on the fast tier before the timed reads start.
    pub fn staged(&self) -> bool {
        matches!(self.kind, Kind::WarmSeq | Kind::WarmRand)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub file: u32,
    pub offset: u32,
}

/// The reads of one pair, one list per reader, from `(seed, pair)` alone.
/// Each pair draws its own sequence so that a run's medians average over
/// sequences instead of depending on one.
pub fn sequence(shape: &Shape, seed: u64, pair: u64) -> Vec<Vec<Op>> {
    let mut rng = Rng::stream(seed, 0x5EED_0000 + pair);
    let chunks = (shape.file_size / shape.read_size) as u64;
    let mut order: Vec<u32> = (0..shape.files as u32).collect();
    rng.shuffle(&mut order);
    let op = |file: u32, chunk: u64| Op {
        file,
        offset: (chunk * shape.read_size as u64) as u32,
    };
    let ops: Vec<Op> = match shape.kind {
        Kind::WarmSeq | Kind::ColdEpoch => order
            .iter()
            .cycle()
            .flat_map(|&f| (0..chunks).map(move |c| op(f, c)))
            .take(shape.reads_per_pair)
            .collect(),
        Kind::WarmRand => (0..shape.reads_per_pair)
            .map(|_| op(rng.below(shape.files as u64) as u32, rng.below(chunks)))
            .collect(),
        Kind::ChurnLru => {
            // Zipf(0.9) over a seeded ranking of the files, stratified:
            // rank r is read as often as its weight says (largest
            // remainders make up the count) and the seed shuffles the
            // order, so the hit share moves little from seed to seed.
            let weights: Vec<f64> = (1..=shape.files).map(|r| (r as f64).powf(-0.9)).collect();
            let total: f64 = weights.iter().sum();
            let share = |r: usize| weights[r] * shape.reads_per_pair as f64 / total;
            let mut by_remainder: Vec<usize> = (0..shape.files).collect();
            by_remainder.sort_by(|a, b| share(*b).fract().total_cmp(&share(*a).fract()));
            let whole: usize = (0..shape.files).map(|r| share(r) as usize).sum();
            let extra = &by_remainder[..shape.reads_per_pair - whole];
            let mut ops: Vec<Op> = (0..shape.files)
                .flat_map(|r| {
                    let count = share(r) as usize + usize::from(extra.contains(&r));
                    std::iter::repeat_n(op(order[r], 0), count)
                })
                .collect();
            rng.shuffle(&mut ops);
            ops
        }
    };
    let per_reader = ops.len().div_ceil(shape.readers);
    ops.chunks(per_reader.max(1)).map(<[Op]>::to_vec).collect()
}

/// Directories and seeded dataset of one run.
pub struct Dataset {
    pub pfs_dir: PathBuf,
    pub run_dir: PathBuf,
    pub names: Vec<String>,
    /// Full-content fingerprint of each file as generated.
    pub expected: Vec<u64>,
}

impl Dataset {
    pub fn generate(shape: &Shape, run_dir: &Path, seed: u64) -> std::io::Result<Self> {
        let pfs_dir = run_dir.join("pfs");
        let expected = generate_dataset(&pfs_dir, shape.files, shape.file_size, seed)?;
        Ok(Self {
            pfs_dir,
            run_dir: run_dir.to_path_buf(),
            names: (0..shape.files).map(file_name).collect(),
            expected,
        })
    }
}

/// One Monarch instance over probed tiers, and what building it cost.
pub struct Rig {
    pub monarch: Monarch,
    pub fast: Arc<TierProbe>,
    pub pfs: Arc<TierProbe>,
    /// The PFS link; its byte count is what the run cost the PFS.
    pub link: Arc<Link>,
    pub fast_link: Option<Arc<Link>>,
    pub fast_dir: PathBuf,
    /// `build` + `init` + staging to the workload's start state.
    pub setup_s: f64,
    /// The staging part of `setup_s` (0 when nothing is staged).
    pub staging_s: f64,
    /// What the set-up read over the link.
    pub setup_link_bytes: u64,
    pub init: InitReport,
}

impl Rig {
    /// Build a Monarch over an empty fast directory named `fast_name` and
    /// bring it to the workload's start state.
    pub fn set_up(
        shape: &Shape,
        data: &Dataset,
        tracer: &Arc<Tracer>,
        telemetry: TelemetryConfig,
        fast_name: &str,
    ) -> monarch_core::Result<Self> {
        let fast_dir = data.run_dir.join(fast_name);
        let _ = fs::remove_dir_all(&fast_dir);
        let link = Arc::new(Link::new(PFS_LINK));
        let fast_link = shape.fast_device.map(|model| Arc::new(Link::new(model)));
        let start = Instant::now();
        let fast = Arc::new(TierProbe::fast(
            &fast_dir,
            fast_link.clone(),
            Arc::clone(tracer),
        )?);
        let pfs = Arc::new(TierProbe::pfs(
            &data.pfs_dir,
            Arc::clone(&link),
            Arc::clone(tracer),
        )?);
        let hierarchy = StorageHierarchy::new(vec![
            (
                "fast".into(),
                Arc::clone(&fast) as Arc<dyn StorageDriver>,
                Some(shape.fast_capacity),
            ),
            (
                "pfs".into(),
                Arc::clone(&pfs) as Arc<dyn StorageDriver>,
                None,
            ),
        ])?;
        let monarch = MonarchBuilder::new()
            .hierarchy(hierarchy)
            .policy(shape.policy)
            .pool_threads(shape.pool_threads)
            .telemetry(telemetry)
            .build()?;
        let init = monarch.init()?;
        let staging = Instant::now();
        if shape.staged() {
            monarch.prestage();
            monarch.wait_placement_idle();
        }
        Ok(Self {
            monarch,
            fast,
            pfs,
            setup_link_bytes: link.bytes.load(Relaxed),
            link,
            fast_link,
            fast_dir,
            setup_s: start.elapsed().as_secs_f64(),
            staging_s: if shape.staged() {
                staging.elapsed().as_secs_f64()
            } else {
                0.0
            },
            init,
        })
    }

    pub fn shut_down(self) {
        self.monarch.wait_placement_idle();
        self.monarch.shutdown();
    }
}

/// One side of a pair.
#[derive(Clone, Copy, Default, Debug)]
pub struct Half {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Run each reader's list through `read`, timing first read to last.
fn run_readers(
    shape: &Shape,
    ops: &[Vec<Op>],
    read: impl Fn(&Op, &mut [u8]) -> Option<usize> + Sync,
) -> Half {
    let reader = |ops: &[Op]| {
        let mut buf = vec![0u8; shape.read_size];
        let (mut fp, mut failed) = (0u64, 0u64);
        for op in ops {
            match read(op, &mut buf) {
                Some(n) if n == shape.read_size => fp = hash_sample(fp, &buf[..n]),
                _ => failed += 1,
            }
        }
        (fp, failed)
    };
    let (cpu0, _) = cpu_ns_and_peak_rss_mib();
    let start = Instant::now();
    let results: Vec<(u64, u64)> = if ops.len() == 1 {
        vec![reader(&ops[0])]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = ops.iter().map(|o| s.spawn(|| reader(o))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        })
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (cpu1, _) = cpu_ns_and_peak_rss_mib();
    Half {
        wall_ns,
        cpu_ns: cpu1 - cpu0,
        fingerprint: results
            .iter()
            .fold(0, |h, (fp, _)| hash_all(h, &fp.to_le_bytes())),
        attempted: ops.iter().map(|o| o.len() as u64).sum(),
        failed: results.iter().map(|(_, f)| f).sum(),
    }
}

/// The sequence through `Monarch::read`; with a tracer, each read is the
/// root span of a request.
pub fn monarch_half(
    shape: &Shape,
    data: &Dataset,
    rig: &Rig,
    ops: &[Vec<Op>],
    tracer: Option<&Tracer>,
) -> Half {
    let m = &rig.monarch;
    // `churn_lru` settles the copy and eviction each read started before
    // the next one, so cache state is a function of the sequence alone.
    let settle = shape.kind == Kind::ChurnLru;
    run_readers(shape, ops, |op, buf| {
        let name = &data.names[op.file as usize];
        let n = match tracer {
            Some(t) => traced_read(t, op.file, || m.read(name, u64::from(op.offset), buf).ok()),
            None => m.read(name, u64::from(op.offset), buf).ok(),
        };
        if settle {
            m.wait_placement_idle();
        }
        n
    })
}

/// What the Monarch half is compared with: a plain `pread` of the same
/// bytes — from open descriptors on the fast directory (and through the
/// fast tier's device model, if it has one) when the files are staged,
/// through the same modelled PFS link otherwise.
pub enum Bare {
    Fds(Vec<fs::File>, Option<Arc<Link>>),
    Link(Arc<TierProbe>),
}

impl Bare {
    pub fn of(shape: &Shape, data: &Dataset, rig: &Rig) -> std::io::Result<Self> {
        if shape.staged() {
            let open = |n: &String| fs::File::open(rig.fast_dir.join(n));
            let fds = data.names.iter().map(open).collect::<Result<_, _>>()?;
            Ok(Bare::Fds(fds, rig.fast_link.clone()))
        } else {
            Ok(Bare::Link(Arc::clone(&rig.pfs)))
        }
    }
}

pub fn bare_half(shape: &Shape, data: &Dataset, bare: &Bare, ops: &[Vec<Op>]) -> Half {
    run_readers(shape, ops, |op, buf| match bare {
        Bare::Fds(fds, device) => {
            let arrival = Instant::now();
            let n = fds[op.file as usize]
                .read_at(buf, u64::from(op.offset))
                .ok()?;
            if let Some(device) = device {
                device.carry(arrival, n as u64);
            }
            Some(n)
        }
        Bare::Link(pfs) => pfs
            .read_at(&data.names[op.file as usize], u64::from(op.offset), buf)
            .ok(),
    })
}

/// Read every file front to back through `Monarch::read`, hash every
/// byte, and compare with what the generator wrote. Returns
/// `(all equal, reads attempted, reads failed)`.
pub fn verify_all(shape: &Shape, data: &Dataset, m: &Monarch) -> (bool, u64, u64) {
    let mut buf = vec![0u8; shape.read_size];
    let (mut equal, mut attempted, mut failed) = (true, 0u64, 0u64);
    for (name, expected) in data.names.iter().zip(&data.expected) {
        let mut h = 0u64;
        for offset in (0..shape.file_size).step_by(shape.read_size) {
            attempted += 1;
            match m.read(name, offset as u64, &mut buf) {
                Ok(n) if n == shape.read_size => h = hash_all(h, &buf[..n]),
                _ => failed += 1,
            }
        }
        equal &= h == *expected;
    }
    (equal, attempted, failed)
}

/// Flip one byte of one staged fast-tier copy (the smoke test's proof that
/// the correctness check is live).
pub fn flip_one_byte(rig: &Rig, data: &Dataset) -> std::io::Result<()> {
    let path = rig.fast_dir.join(&data.names[0]);
    let mut bytes = fs::read(&path)?;
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x01;
    fs::write(&path, bytes)
}

/// Per-pair values of the end-to-end metrics, and the run's verdict.
#[derive(Default)]
pub struct Untraced {
    pub setup_s: Vec<f64>,
    pub throughput_mib_s: Vec<f64>,
    pub overhead_ratio: Vec<f64>,
    pub pfs_amplification: Vec<f64>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

pub struct RunOpts {
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub flip_byte: bool,
}

/// Set-ups a staged workload repeats for its `setup_s` median.
const STAGED_SETUPS: usize = 5;
/// No run measures longer than this, whatever `--seconds` and the minimum
/// pair count say.
const HARD_CAP: Duration = Duration::from_secs(150);

/// The untraced measurement: repeated set-ups, then pairs of (Monarch
/// half, bare half) in alternating order until `seconds` are used.
pub fn run_untraced(
    shape: &Shape,
    data: &Dataset,
    opts: &RunOpts,
) -> monarch_core::Result<Untraced> {
    let tracer = Arc::new(Tracer::new(0));
    let fresh = || Rig::set_up(shape, data, &tracer, TelemetryConfig::default(), "fast");
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    let mut out = Untraced {
        correct: true,
        ..Untraced::default()
    };
    // A staged workload repeats its set-up for the median and keeps the
    // last rig for all pairs; the others build a fresh rig per pair, which
    // is also their set-up sample. The first set-up of a run is a warm-up:
    // it writes into memory the guest has not touched yet, which the host
    // backs page by page at many times the steady cost.
    let mut rig = fresh()?;
    if shape.staged() {
        for _ in 0..STAGED_SETUPS {
            rig.shut_down();
            rig = fresh()?;
            out.setup_s.push(rig.setup_s);
        }
        if opts.flip_byte {
            flip_one_byte(&rig, data)?;
        }
    }
    // Pair 0 is a warm-up and is not recorded, for the same reason.
    for pair in 0u64.. {
        let ops = sequence(shape, opts.seed, pair);
        let bare = Bare::of(shape, data, &rig)?;
        let monarch_side = || {
            let before = rig.link.bytes.load(Relaxed);
            let half = monarch_half(shape, data, &rig, &ops, None);
            // Copies still running after the last read are part of what
            // the sequence cost the PFS.
            rig.monarch.wait_placement_idle();
            (half, rig.link.bytes.load(Relaxed) - before)
        };
        // Staged pairs alternate which half runs first, so that drift of
        // the machine falls on both sides. A half that installs files
        // always runs first, straight after the set-up that deleted the
        // previous pair's copies: it then writes into the pages just
        // freed. After the idle bare half the guest has handed those pages
        // back to the host, and the same writes cost several times more.
        let ((m, link_bytes), b) = if pair % 2 == 0 || !shape.staged() {
            let m = monarch_side();
            (m, bare_half(shape, data, &bare, &ops))
        } else {
            let b = bare_half(shape, data, &bare, &ops);
            (monarch_side(), b)
        };
        if pair > 0 {
            let payload_mib =
                ((m.attempted - m.failed) * shape.read_size as u64) as f64 / MIB as f64;
            out.throughput_mib_s
                .push(payload_mib / (m.wall_ns as f64 / 1e9));
            out.overhead_ratio.push(m.wall_ns as f64 / b.wall_ns as f64);
            out.pfs_amplification
                .push((rig.setup_link_bytes + link_bytes) as f64 / touched_bytes(shape, &ops));
        }
        out.correct &= m.fingerprint == b.fingerprint;
        out.attempted += m.attempted;
        out.failed += m.failed;
        let now = Instant::now();
        let enough = pair as usize >= shape.min_pairs && now >= deadline;
        if enough || now >= started + HARD_CAP {
            break;
        }
        if !shape.staged() {
            rig.shut_down();
            rig = fresh()?;
            out.setup_s.push(rig.setup_s);
        }
    }
    let (equal, attempted, failed) = verify_all(shape, data, &rig.monarch);
    out.correct &= equal;
    out.attempted += attempted;
    out.failed += failed;
    rig.shut_down();
    Ok(out)
}

/// Bytes of the distinct files a sequence touches; a staged workload
/// stages, and so touches, the whole dataset.
fn touched_bytes(shape: &Shape, ops: &[Vec<Op>]) -> f64 {
    if shape.staged() {
        return (shape.files * shape.file_size) as f64;
    }
    let mut seen = vec![false; shape.files];
    ops.iter()
        .flatten()
        .for_each(|op| seen[op.file as usize] = true);
    (seen.iter().filter(|s| **s).count() * shape.file_size) as f64
}
