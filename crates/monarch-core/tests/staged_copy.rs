//! The once-only property of a copy and the reads that race it: while a
//! file is `Copying`, readers that walk it front to back and the copy
//! worker fetch every byte of it from the source exactly once between
//! them, whatever their chunk sizes and however they interleave. Only a
//! reader that jumps ahead of the copy's frontier reads the source on its
//! own account. The read that first touches a file is no exception: it
//! announces the copy and fetches into it, so its bytes are the copy's
//! first, and two such reads at once are one fetch.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;

use monarch_core::driver::{open_gate, Gate, GatedDriver, MemDriver};
use monarch_core::hierarchy::StorageHierarchy;
use monarch_core::metadata::PlacementState;
use monarch_core::{Monarch, MonarchBuilder, Result, StorageDriver};

/// Larger than one fetch of the copy worker, and not a multiple of any
/// reader's chunk.
const SIZE: usize = (5 << 20) + 123;
const COLD: &str = "cold";
/// Sorts before `COLD`, so `prestage` schedules it first.
const PIN: &str = "a-pin";

fn cold_bytes() -> Vec<u8> {
    (0..SIZE).map(|i| (i * 31 % 253) as u8).collect()
}

/// One `read_at` the source served.
struct Fetch {
    by: ThreadId,
    file: String,
    bytes: u64,
}

/// Every read the source served, in order.
#[derive(Clone, Default)]
struct Tally(Arc<(Mutex<Vec<Fetch>>, Condvar)>);

impl Tally {
    fn sum(&self, of: impl Fn(&Fetch) -> bool) -> u64 {
        let fetches = self.0 .0.lock().unwrap();
        fetches.iter().filter(|f| of(f)).map(|f| f.bytes).sum()
    }

    /// Bytes of `COLD` read from the source.
    fn total(&self) -> u64 {
        self.bytes(COLD)
    }

    /// Bytes of `COLD` these threads read from the source.
    fn of(&self, threads: &[ThreadId]) -> u64 {
        self.sum(|f| f.file == COLD && threads.contains(&f.by))
    }

    fn bytes(&self, file: &str) -> u64 {
        self.sum(|f| f.file == file)
    }

    fn ops(&self, file: &str) -> usize {
        let fetches = self.0 .0.lock().unwrap();
        fetches.iter().filter(|f| f.file == file).count()
    }

    /// Block until the source has served `n` reads of `file`.
    fn wait_for_ops(&self, file: &str, n: usize) {
        let (fetches, served) = &*self.0;
        let mut fetches = fetches.lock().unwrap();
        while fetches.iter().filter(|f| f.file == file).count() < n {
            fetches = served.wait(fetches).unwrap();
        }
    }
}

/// A source that keeps a [`Tally`].
struct Tallied {
    inner: MemDriver,
    tally: Tally,
}

impl Tallied {
    /// Holding `COLD` and `PIN`.
    fn new(tally: &Tally) -> Self {
        let inner = MemDriver::new("pfs");
        inner.insert(COLD, cold_bytes());
        inner.insert(PIN, vec![0u8; 64]);
        Self {
            inner,
            tally: tally.clone(),
        }
    }
}

impl StorageDriver for Tallied {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let n = self.inner.read_at(file, offset, buf)?;
        let (fetches, served) = &*self.tally.0;
        fetches.lock().unwrap().push(Fetch {
            by: std::thread::current().id(),
            file: file.to_string(),
            bytes: n as u64,
        });
        served.notify_all();
        Ok(n)
    }
    fn write_full(&self, file: &str, data: &[u8]) -> Result<()> {
        self.inner.write_full(file, data)
    }
    fn remove(&self, file: &str) -> Result<()> {
        self.inner.remove(file)
    }
    fn file_size(&self, file: &str) -> Result<u64> {
        self.inner.file_size(file)
    }
    fn list(&self) -> Result<Vec<(String, u64)>> {
        self.inner.list()
    }
}

/// A one-worker Monarch over `source`, behind a gate that holds reads of
/// `gated` alone until it is opened.
fn monarch(source: Tallied, gated: &str) -> (Monarch, Gate) {
    let (gate_driver, gate) = GatedDriver::new(source);
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
            Some(64 << 20),
        ),
        (
            "pfs".into(),
            Arc::new(gate_driver.only(gated)) as Arc<dyn StorageDriver>,
            None,
        ),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    (m, gate)
}

/// A one-worker Monarch with the copy of `COLD` scheduled. With `pinned`
/// the worker sits in the gated copy of `PIN` until the returned gate is
/// opened, so only reads move `COLD`'s frontier; otherwise the worker is
/// already filling it.
fn scheduled(tally: &Tally, pinned: bool) -> (Monarch, Gate) {
    let (m, gate) = monarch(Tallied::new(tally), PIN);
    if !pinned {
        open_gate(&gate);
    }
    assert_eq!(m.prestage(), 2);
    (m, gate)
}

/// Read `COLD` from `start` in steps of `step` bytes (backwards when
/// negative) until the file's edge, checking every byte.
fn walk(m: &Monarch, want: &[u8], start: usize, step: isize) -> ThreadId {
    let chunk = step.unsigned_abs();
    let mut buf = vec![0u8; chunk];
    let mut offset = start;
    loop {
        let len = chunk.min(SIZE - offset);
        let n = m.read(COLD, offset as u64, &mut buf[..len]).unwrap();
        assert_eq!(n, len, "short read at {offset}");
        assert!(buf[..n] == want[offset..offset + n], "bytes at {offset}");
        if step > 0 {
            offset += n;
            if offset == SIZE {
                break;
            }
        } else if offset == 0 {
            break;
        } else {
            offset = offset.saturating_sub(chunk);
        }
    }
    std::thread::current().id()
}

/// The last chunk of every walker is short, and walkers of different
/// chunk sizes keep straddling the watermark the others left.
const CHUNKS: [isize; 6] = [1000, 4096, 10_000, 65_536, 300_000, 1 << 20];

#[test]
fn walkers_and_the_copy_fetch_every_byte_once() {
    let want = cold_bytes();
    for pinned in [false, true] {
        let tally = Tally::default();
        let (m, gate) = scheduled(&tally, pinned);
        std::thread::scope(|s| {
            for chunk in CHUNKS {
                let (m, want) = (&m, &want);
                s.spawn(move || walk(m, want, 0, chunk));
            }
        });
        open_gate(&gate);
        m.wait_placement_idle();
        assert_eq!(
            tally.total(),
            SIZE as u64,
            "pinned {pinned}: source bytes read"
        );
        let stats = m.stats();
        assert_eq!(stats.copies_completed, 2);
        if pinned {
            // Every read was of a file in `Copying`: what the walkers got
            // is what they fetched plus what they took from the staging.
            let returned = CHUNKS.len() * SIZE;
            assert_eq!(stats.tiers[1].bytes_read, (SIZE + 64) as u64);
            assert_eq!(stats.staged_bytes, (returned - SIZE) as u64);
        }
        let info = m.metadata().get(COLD).unwrap();
        assert_eq!((info.tier, info.state), (0, PlacementState::Placed));
        assert_eq!(m.read_full(COLD).unwrap(), want);
    }
}

#[test]
fn only_readers_ahead_of_the_frontier_read_the_source_on_their_own() {
    let want = cold_bytes();
    let tally = Tally::default();
    // Pinned: the frontier moves only as fast as the walkers push it, so
    // the two strays below stay ahead of it for a while.
    let (m, gate) = scheduled(&tally, true);
    // Nothing is fetched yet: a read in the middle of the file is the
    // source's to serve, and leaves the staging as it was.
    let mut buf = vec![0u8; 50_000];
    assert_eq!(m.read(COLD, (SIZE / 2) as u64, &mut buf).unwrap(), 50_000);
    assert!(buf[..] == want[SIZE / 2..SIZE / 2 + 50_000]);
    let me = std::thread::current().id();
    assert_eq!((tally.total(), tally.of(&[me])), (50_000, 50_000));
    let strays = std::thread::scope(|s| {
        for chunk in CHUNKS {
            let (m, want) = (&m, &want);
            s.spawn(move || walk(m, want, 0, chunk));
        }
        let (m, want) = (&m, &want);
        let ahead = s.spawn(move || walk(m, want, SIZE / 2, 50_000));
        let backward = s.spawn(move || walk(m, want, SIZE - 70_000, -70_000));
        [me, ahead.join().unwrap(), backward.join().unwrap()]
    });
    open_gate(&gate);
    m.wait_placement_idle();
    assert!(tally.total() >= (SIZE + 50_000) as u64);
    assert!(
        tally.total() - tally.of(&strays) <= SIZE as u64,
        "walkers and the copy fetched {} of {SIZE} bytes",
        tally.total() - tally.of(&strays)
    );
    assert_eq!(m.metadata().get(COLD).unwrap().tier, 0);
    assert_eq!(m.read_full(COLD).unwrap(), want);
}

#[test]
fn two_first_touch_reads_of_one_range_are_one_fetch() {
    const CHUNK: usize = 64 << 10;
    let want = cold_bytes();
    let tally = Tally::default();
    // Reads of `COLD` are held at the source: whoever gets there stays
    // there until both readers have looked the file up.
    let (m, gate) = monarch(Tallied::new(&tally), COLD);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (m, want) = (&m, &want);
            s.spawn(move || {
                let mut buf = vec![0u8; CHUNK];
                assert_eq!(m.read(COLD, 0, &mut buf).unwrap(), CHUNK);
                assert!(buf[..] == want[..CHUNK]);
            });
        }
        // The namespace counts a read when it resolves the file.
        while m.metadata().get(COLD).unwrap().reads < 2 {
            std::thread::yield_now();
        }
        open_gate(&gate);
    });
    m.wait_placement_idle();
    // One of them announced the copy and fetched the range into it; the
    // other was served from there. The copy fetched the rest.
    assert_eq!(tally.total(), SIZE as u64, "source bytes read");
    let stats = m.stats();
    assert_eq!((stats.copies_scheduled, stats.copies_completed), (1, 1));
    assert_eq!((stats.staged_reads, stats.staged_bytes), (1, CHUNK as u64));
    assert_eq!(m.read_full(COLD).unwrap(), want);
}

/// A source of `files` more files of `size` bytes, the `i`th filled with
/// `i + 1`.
fn epoch_source(tally: &Tally, files: usize, size: usize) -> (Tallied, Vec<String>) {
    let source = Tallied::new(tally);
    let names: Vec<String> = (0..files).map(|i| format!("e{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        source.inner.insert(name, vec![i as u8 + 1; size]);
    }
    (source, names)
}

#[test]
fn a_chunked_first_epoch_crosses_the_link_once_in_few_operations() {
    const FILES: usize = 8;
    const CHUNK: usize = 64 << 10;
    const CHUNKS: usize = 8;
    let tally = Tally::default();
    let (source, names) = epoch_source(&tally, FILES, CHUNKS * CHUNK);
    let (m, gate) = monarch(source, PIN);
    open_gate(&gate);
    let mut buf = vec![0u8; CHUNK];
    for (i, name) in names.iter().enumerate() {
        for chunk in 0..CHUNKS {
            let n = m.read(name, (chunk * CHUNK) as u64, &mut buf).unwrap();
            assert_eq!(n, CHUNK);
            assert!(buf.iter().all(|b| *b == i as u8 + 1));
            if chunk == 0 {
                // The reader of a real first epoch is held up by the link
                // for as long as the copy's fetch takes; here it waits for
                // that fetch, so that who fetches what does not hang on how
                // soon the worker wakes.
                tally.wait_for_ops(name, 2);
            }
        }
    }
    m.wait_placement_idle();
    for name in &names {
        // The first read's chunk, fetched in place; the copy's body; and
        // the last chunk, one read long, fetched by whichever of the copy
        // and the reader got to it first.
        assert_eq!(tally.ops(name), 3, "source operations on {name}");
        assert_eq!(tally.bytes(name), (CHUNKS * CHUNK) as u64, "{name}");
    }
    let stats = m.stats();
    assert_eq!(stats.copies_completed, FILES as u64);
    assert_eq!(stats.tiers[1].reads, 3 * FILES as u64);
    assert_eq!(stats.tiers[1].bytes_read, (FILES * CHUNKS * CHUNK) as u64);
}

#[test]
fn a_whole_file_first_touch_read_is_the_only_fetch_of_its_file() {
    const SIZE: usize = 256 << 10;
    let tally = Tally::default();
    let (source, names) = epoch_source(&tally, 4, SIZE);
    let (m, gate) = monarch(source, PIN);
    // An idle pool: the copy has nothing left to fetch.
    assert_eq!(m.read_full(&names[0]).unwrap(), vec![1u8; SIZE]);
    m.wait_placement_idle();
    assert_eq!(
        (tally.ops(&names[0]), tally.bytes(&names[0])),
        (1, SIZE as u64)
    );
    // A pool further behind than reads may fill: one copy stuck at the
    // gate (behind the claim of the read that announced it), two queued.
    std::thread::scope(|s| {
        let pin = s.spawn(|| m.read_full(PIN).unwrap());
        while m.stats().copies_scheduled < 2 {
            std::thread::yield_now();
        }
        let mut byte = [0u8; 1];
        for name in &names[1..3] {
            assert_eq!(m.read(name, 0, &mut byte).unwrap(), 1);
        }
        assert_eq!(m.stats().copies_scheduled, 4);
        assert_eq!(m.stats().copies_completed, 1);
        assert_eq!(m.read_full(&names[3]).unwrap(), vec![4u8; SIZE]);
        assert_eq!(
            (tally.ops(&names[3]), tally.bytes(&names[3])),
            (1, SIZE as u64)
        );
        open_gate(&gate);
        assert_eq!(pin.join().unwrap(), vec![0u8; 64]);
    });
    m.wait_placement_idle();
    assert_eq!(m.stats().copies_completed, 5);
    assert_eq!(
        (tally.ops(&names[3]), tally.bytes(&names[3])),
        (1, SIZE as u64)
    );
    assert_eq!(m.metadata().get(&names[3]).unwrap().tier, 0);
    assert_eq!(m.read_full(&names[3]).unwrap(), vec![4u8; SIZE]);
}
