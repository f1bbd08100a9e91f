//! The warm hit path: no heap allocation per read, and correct bytes while
//! files churn in and out of a real directory tier under eight readers.
//! And, with the same counting allocator, the miss path's one buffer: a
//! reader that fills a copy's staging allocates the file-sized buffer and
//! nothing else of that order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use monarch_core::config::PolicyKind;
use monarch_core::driver::{open_gate, GatedDriver, MemDriver, PosixDriver};
use monarch_core::{Monarch, MonarchBuilder, StorageDriver, StorageHierarchy};

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Those of at least [`LARGE`] bytes.
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A chunk of a file, or more.
const LARGE: usize = 64 << 10;

fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    if size >= LARGE {
        LARGE_ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// The system allocator, counting calls per thread — per thread so that
/// pool workers and other tests in this binary do not disturb a count.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell`s, whose access neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const FILES: usize = 16;
const SIZE: usize = 64 << 10;

fn name(i: usize) -> String {
    format!("shard-{i:03}.tfrecord")
}

/// Contents of file `i`: a function of `(i, offset)`, so any chunk can be
/// checked on its own.
fn contents(i: usize) -> Vec<u8> {
    (0..SIZE).map(|at| (at * 7 + i * 131) as u8).collect()
}

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("monarch-hit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A PFS directory holding the dataset, and an empty fast directory.
fn posix_tiers(tag: &str) -> (PathBuf, Arc<dyn StorageDriver>, Arc<dyn StorageDriver>) {
    let root = scratch(tag);
    let pfs = PosixDriver::new("pfs", root.join("pfs")).unwrap();
    for i in 0..FILES {
        pfs.write_full(&name(i), &contents(i)).unwrap();
    }
    let fast = PosixDriver::new("fast", root.join("fast")).unwrap();
    (root, Arc::new(fast), Arc::new(pfs))
}

fn mem_tiers() -> (Arc<dyn StorageDriver>, Arc<dyn StorageDriver>) {
    let pfs = MemDriver::new("pfs");
    for i in 0..FILES {
        pfs.insert(&name(i), contents(i));
    }
    (Arc::new(MemDriver::new("fast")), Arc::new(pfs))
}

fn monarch(
    fast: Arc<dyn StorageDriver>,
    pfs: Arc<dyn StorageDriver>,
    capacity: u64,
    policy: PolicyKind,
) -> Monarch {
    let hierarchy = StorageHierarchy::new(vec![
        ("fast".into(), fast, Some(capacity)),
        ("pfs".into(), pfs, None),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy(policy)
        .pool_threads(2)
        .build()
        .unwrap();
    m.init().unwrap();
    m
}

/// Heap allocations the calling thread makes over one pass of 4 KiB reads
/// across every (placed) file, after a first pass that lets lazily built
/// state — this thread's counter stripes, cached descriptors, the
/// profiler's per-file records — come into being.
fn allocations_per_warm_pass(m: &Monarch) -> u64 {
    m.prestage();
    m.wait_placement_idle();
    let names: Vec<String> = (0..FILES).map(name).collect();
    let mut buf = vec![0u8; 4096];
    let mut pass = |check: bool| {
        for (i, file) in names.iter().enumerate() {
            for chunk in [0usize, 5, 15] {
                let n = m.read(file, (chunk * 4096) as u64, &mut buf).unwrap();
                assert_eq!(n, 4096);
                if check {
                    assert_eq!(buf[..], contents(i)[chunk * 4096..][..4096]);
                }
            }
        }
    };
    pass(true);
    let before = ALLOCS.with(Cell::get);
    pass(false);
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_read_over_mem_driver_does_not_allocate() {
    let (fast, pfs) = mem_tiers();
    let m = monarch(fast, pfs, u64::MAX / 2, PolicyKind::FirstFit);
    assert_eq!(allocations_per_warm_pass(&m), 0);
    assert_eq!(m.stats().tiers[0].reads, 2 * 3 * FILES as u64, "all hits");
    m.shutdown();
}

#[test]
fn warm_read_over_posix_driver_does_not_allocate() {
    let (root, fast, pfs) = posix_tiers("alloc");
    let m = monarch(fast, pfs, u64::MAX / 2, PolicyKind::FirstFit);
    assert_eq!(allocations_per_warm_pass(&m), 0);
    assert_eq!(m.stats().tiers[0].reads, 2 * 3 * FILES as u64, "all hits");
    m.shutdown();
    std::fs::remove_dir_all(root).unwrap();
}

/// A reader walks a file front to back while the one worker is busy
/// elsewhere, so every fetch into the copy's staging is the reader's. Of
/// allocations the size of a chunk or more it makes one: the staging's
/// buffer, file-sized from its first fetch. (It used to make two — a copy
/// of the first chunk to hand to the copy, then a zero-filled whole file
/// to carry that chunk over into.)
#[test]
fn filling_a_staging_allocates_one_buffer() {
    const CHUNK: usize = LARGE;
    const CHUNKS: usize = 8;
    let pfs = MemDriver::new("pfs");
    pfs.insert("pin", vec![0u8; 64]);
    pfs.insert("walked", vec![7u8; CHUNKS * CHUNK]);
    let (gated, gate) = GatedDriver::new(pfs);
    let hierarchy = StorageHierarchy::new(vec![
        (
            "fast".into(),
            Arc::new(MemDriver::new("fast")) as Arc<dyn StorageDriver>,
            Some(u64::MAX / 2),
        ),
        ("pfs".into(), Arc::new(gated.only("pin")), None),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    std::thread::scope(|s| {
        // Holds `pin`'s frontier at the gate; the worker waits behind it.
        let pin = s.spawn(|| m.read_full("pin").unwrap());
        while m.stats().copies_scheduled < 1 {
            std::thread::yield_now();
        }
        let mut buf = vec![0u8; CHUNK];
        let before = LARGE_ALLOCS.with(Cell::get);
        for chunk in 0..CHUNKS {
            let n = m.read("walked", (chunk * CHUNK) as u64, &mut buf).unwrap();
            assert_eq!(n, CHUNK);
            assert!(buf.iter().all(|b| *b == 7));
        }
        assert_eq!(LARGE_ALLOCS.with(Cell::get) - before, 1);
        open_gate(&gate);
        pin.join().unwrap();
    });
    m.wait_placement_idle();
    let stats = m.stats();
    assert_eq!(stats.copies_completed, 2);
    // The reader fetched the file, chunk by chunk; the copy, nothing.
    assert_eq!(stats.tiers[1].reads, 1 + CHUNKS as u64);
    assert_eq!(stats.tiers[1].bytes_read, (64 + CHUNKS * CHUNK) as u64);
    m.shutdown();
}

/// Eight readers over an LRU tier holding half the dataset, while a ninth
/// thread keeps evicting: files leave and re-enter the fast directory
/// (and the descriptor cache) under the readers, who must never see an
/// error or a byte of another file or another version.
#[test]
fn readers_see_correct_bytes_while_files_are_evicted_and_replaced() {
    const READERS: usize = 8;
    const ROUNDS: usize = 40;
    let (root, fast, pfs) = posix_tiers("churn");
    let m = monarch(fast, pfs, (FILES * SIZE / 2) as u64, PolicyKind::LruEvict);
    let expected: Vec<Vec<u8>> = (0..FILES).map(contents).collect();
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let (m, start, expected) = (&m, &start, &expected);
                s.spawn(move || {
                    let mut buf = vec![0u8; 16 << 10];
                    start.wait();
                    for round in 0..ROUNDS {
                        for step in 0..FILES {
                            let i = (step * (t + 1) + round) % FILES;
                            let offset = ((round + step + t) % 4) * buf.len();
                            let n = m
                                .read(&name(i), offset as u64, &mut buf)
                                .unwrap_or_else(|e| panic!("reader {t}: read of {}: {e}", name(i)));
                            assert_eq!(n, buf.len());
                            assert!(
                                buf[..] == expected[i][offset..][..n],
                                "reader {t}: wrong bytes from {} at {offset}",
                                name(i)
                            );
                        }
                    }
                })
            })
            .collect();
        // On top of the LRU's own pressure evictions.
        let evictor = s.spawn(|| {
            start.wait();
            while !done.load(Ordering::Acquire) {
                for i in 0..FILES {
                    let _ = m.evict(&name(i));
                }
            }
        });
        for r in readers {
            r.join().expect("reader panicked");
        }
        done.store(true, Ordering::Release);
        evictor.join().expect("evictor panicked");
    });
    m.wait_placement_idle();
    let stats = m.stats();
    assert!(stats.evictions > 0 && stats.copies_completed > FILES as u64 / 2);
    assert_eq!(
        stats.degraded_reads, 0,
        "a vanished copy is not a sick tier"
    );
    let used = m
        .hierarchy()
        .tier(0)
        .unwrap()
        .quota
        .as_ref()
        .unwrap()
        .used();
    assert!(used <= (FILES * SIZE / 2) as u64, "quota exceeded: {used}");
    m.shutdown();
    std::fs::remove_dir_all(root).unwrap();
}
