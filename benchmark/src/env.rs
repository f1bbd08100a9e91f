//! Seeded inputs, fingerprints, process accounting and the run directory.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: every input of a run derives from `--seed` through this.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
}

/// Fingerprint of every byte of `data`, folded into `h`. Hashing a file
/// in pieces gives the hash of the whole when every piece but the last is
/// a multiple of 8 bytes.
pub fn hash_all(mut h: u64, data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, word(c));
    }
    for &b in chunks.remainder() {
        h = mix(h, u64::from(b));
    }
    h
}

/// Fingerprint of a read inside a timed half: its length and three words.
/// Cheap enough to leave the timing alone; the untimed verify pass hashes
/// every byte.
pub fn hash_sample(h: u64, data: &[u8]) -> u64 {
    let n = data.len();
    let mut h = mix(h, n as u64);
    if n >= 8 {
        h = mix(h, word(&data[..8]));
        h = mix(h, word(&data[(n / 2) & !7..][..8]));
        h = mix(h, word(&data[n - 8..]));
    }
    h
}

/// Name of dataset file `i`.
pub fn file_name(i: usize) -> String {
    format!("f{i:05}.bin")
}

/// Index back from a [`file_name`] (trace arguments).
pub fn file_index(name: &str) -> u32 {
    name.get(1..6)
        .and_then(|d| d.parse().ok())
        .unwrap_or(u32::MAX)
}

/// Write `files` files of `size` seeded bytes under `dir`; returns the
/// full-content fingerprint of each.
pub fn generate_dataset(
    dir: &Path,
    files: usize,
    size: usize,
    seed: u64,
) -> std::io::Result<Vec<u64>> {
    fs::create_dir_all(dir)?;
    let mut buf = vec![0u8; size];
    let mut expected = Vec::with_capacity(files);
    for i in 0..files {
        let mut rng = Rng::stream(seed, i as u64 + 1);
        for c in buf.chunks_mut(8) {
            let w = rng.next().to_le_bytes();
            c.copy_from_slice(&w[..c.len()]);
        }
        expected.push(hash_all(0, &buf));
        fs::File::create(dir.join(file_name(i)))?.write_all(&buf)?;
    }
    Ok(expected)
}

#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `(process CPU in ns over all threads, peak RSS in MiB)`.
pub fn cpu_ns_and_peak_rss_mib() -> (u64, f64) {
    let mut u = RUsage::default();
    // SAFETY: `RUsage` has the size and field order of the 64-bit Linux
    // `struct rusage` (two timevals, then fourteen longs), it is a valid
    // exclusive pointer for the call, and RUSAGE_SELF (0) only writes it.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let ns = |t: [i64; 2]| t[0] as u64 * 1_000_000_000 + t[1] as u64 * 1_000;
    (ns(u.utime) + ns(u.stime), u.maxrss as f64 / 1024.0)
}

/// A fixed arithmetic loop, timed: run before and after a workload, its
/// drift says whether something else used the machine meanwhile.
pub fn spin_ns() -> u64 {
    let best = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x0123_4567_89AB_CDEF_u64;
            for i in 0..4_000_000u64 {
                x = mix(x, i);
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as u64
        })
        .min();
    best.expect("five spins")
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them
/// (exclusive method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let d = pos - j as f64;
        let lo = v[j - 1];
        let hi = v[j.min(n - 1)];
        lo + (hi - lo) * d
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact `q`-quantile of integer samples (nearest rank).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// The run's private directory; removed again when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create(root: &Path, label: &str) -> std::io::Result<Self> {
        let dir = root.join(format!("{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // The parent is the benchmark's own `run/`; leave nothing behind
        // when this was the last run in it.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}
