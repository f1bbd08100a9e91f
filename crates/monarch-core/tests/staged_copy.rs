//! The once-only property of a copy and the reads that race it: while a
//! file is `Copying`, readers that walk it front to back and the copy
//! worker fetch every byte of it from the source exactly once between
//! them, whatever their chunk sizes and however they interleave. Only a
//! reader that jumps ahead of the copy's frontier reads the source on its
//! own account.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use monarch_core::driver::{open_gate, GatedDriver, MemDriver};
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

/// Bytes of `COLD` each thread read from the source.
#[derive(Clone, Default)]
struct Tally(Arc<Mutex<HashMap<ThreadId, u64>>>);

impl Tally {
    fn total(&self) -> u64 {
        self.0.lock().unwrap().values().sum()
    }

    fn of(&self, threads: &[ThreadId]) -> u64 {
        let tally = self.0.lock().unwrap();
        threads.iter().filter_map(|t| tally.get(t)).sum()
    }
}

/// A source holding `COLD` and `PIN` that keeps a [`Tally`].
struct Tallied {
    inner: MemDriver,
    tally: Tally,
}

impl Tallied {
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
        if file == COLD {
            let mut tally = self.tally.0.lock().unwrap();
            *tally.entry(std::thread::current().id()).or_default() += n as u64;
        }
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

/// A one-worker Monarch with the copy of `COLD` scheduled. With `pinned`
/// the worker sits in the gated copy of `PIN` until the returned gate is
/// opened, so only reads move `COLD`'s frontier; otherwise the worker is
/// already filling it.
fn scheduled(tally: &Tally, pinned: bool) -> (Monarch, monarch_core::driver::Gate) {
    let (gated, gate) = GatedDriver::new(Tallied::new(tally));
    if !pinned {
        open_gate(&gate);
    }
    let hierarchy = StorageHierarchy::new(vec![
        (
            "ssd".into(),
            Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
            Some(64 << 20),
        ),
        (
            "pfs".into(),
            Arc::new(gated.only(PIN)) as Arc<dyn StorageDriver>,
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
