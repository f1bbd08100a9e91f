//! The *metadata container*: an ephemeral virtual namespace over the whole
//! storage hierarchy.
//!
//! Each file is tracked by a [`FileInfo`] holding its size, current tier and
//! placement state. The namespace is populated at job start by scanning the
//! dataset directory on the PFS tier, continuously updated while the
//! training job runs, and simply dropped when the job ends (the paper's
//! "ephemeral storage model").
//!
//! The namespace is fixed by that scan, so a file's *name* is only needed at
//! the API boundary. [`MetadataContainer::register`] interns each name to a
//! dense [`FileId`], and everything a read needs lives in one id-indexed
//! slab, two cache lines per file — what a hit only *reads*, and what it
//! *adds to*:
//!
//! ```text
//! slot     = { identity (line 0) | counters (line 1) }               128 bytes
//! identity = { name, size: u64, place: u64, touched: u64 }
//! counters = { reads: u64, bytes: [u64; MAX_LEVELS] }      (64-byte aligned)
//! place    = [ 63..48 unused | 47..32 copy target | 31..16 tier | 4 prefetched | 3 pinned | 2 reused | 1..0 state ]
//! state    = 0 absent, 1 unplaced, 2 copying, 3 placed
//! ```
//!
//! The slab is the one residency book: where a file lives, and what the
//! policy engine stamps on it. `touched` is the file's recency, read off
//! one logical clock that every placement and every access under an
//! evicting policy advances; the eviction policies rank a tier's `Placed`
//! files by it ([`MetadataContainer::evictable`]). `pinned` marks a file a
//! prefetch staged ahead of its read, which no policy may evict;
//! `prefetched` marks for good a file a prefetch ever staged.
//!
//! The identity line is written at registration and on placement
//! transitions — and, under an evicting policy only, by a hit's touch — so
//! concurrent hits under the paper's first-fit share it clean. The counters
//! line holds the file's access count and bytes per tier, which the access
//! profiler reports from here. A read does not add to it but to a *count
//! cell* of its thread's stripe (see the `stripe` module): 512 a thread,
//! `{ key: tier + 1, reads, bytes }`, cell `i` for id `i`; a read of an id
//! past them, or on a thread past the owned stripes, adds to the line, and
//! a cell whose file moves tier flushes to it. Readers of the counts fold
//! the line with the cells, exact once the counting threads are quiet.
//!
//! Names resolve through an insert-only open-addressing index whose cells
//! are atomics (`hash tag | id + 1`): a lookup is one hash, a probe and a
//! name compare — no lock, no write to anything shared — then acquire loads
//! from the slot's identity and one add to the reading thread's cell.
//! Writers (`register`, which runs during the scan) serialise on a mutex.
//! The index grows by building a table twice the size and publishing it;
//! superseded tables are kept until the container drops, so a reader that
//! loaded the old one finishes on valid memory (together they are smaller
//! than the current table). Placement transitions are compare-and-swap
//! loops on `place`. The `reused` bit is the policy engine's reuse ledger
//! and `pinned` its prefetch pins (see [`crate::policy::PolicyEngine`]),
//! `prefetched` the access profiler's mark, kept here so that they ride
//! the same word. The slab grows in doubling chunks that never move, so
//! ids stay valid and readers never wait for an append. The access
//! profiler keeps the rest of its per-file records in a slab of the same
//! geometry beside this one ([`locate`]), addressed by the same ids.

use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hash::hash_str;
use crate::hierarchy::MAX_LEVELS;
use crate::locks;
use crate::stripe::{add_owned, Striped};
use crate::{Error, Result, TierId};

/// Placement lifecycle of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementState {
    /// Only present on the source (PFS) tier; not yet considered.
    Unplaced,
    /// A background copy toward `target` is in flight; reads still go to the
    /// file's current tier.
    Copying {
        /// Destination tier of the in-flight copy.
        target: TierId,
    },
    /// Resident on its current tier (which may be the PFS if placement was
    /// skipped, e.g. because local tiers filled up).
    Placed,
}

/// Where a file is: a [`FileInfo`] without its count, which is what a
/// read's lookup, and a read that goes round again, need of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// File size in bytes.
    pub size: u64,
    /// Tier currently serving reads for this file.
    pub tier: TierId,
    /// Placement lifecycle state.
    pub state: PlacementState,
}

/// Per-file record — the paper's *file info*.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// File size in bytes.
    pub size: u64,
    /// Tier currently serving reads for this file.
    pub tier: TierId,
    /// Placement lifecycle state.
    pub state: PlacementState,
    /// Number of times the file has been read (feeds eviction policies in
    /// the ablation experiments; the paper's FirstFit ignores it).
    pub reads: u64,
}

/// Dense identity of one file inside the [`MetadataContainer`] that issued
/// it: an index into that container's slab. Only meaningful there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(u32);

impl FileId {
    /// The id as a dense index: the `n`-th name a container interned has
    /// index `n`. For slabs kept beside the container's own (the access
    /// profiler's per-file records, a simulator's shards).
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A file placed on a tier, as [`MetadataContainer::evictable`] hands it
/// to the eviction policies.
#[derive(Debug, Clone, Copy)]
pub struct Resident {
    /// The file's id.
    pub id: FileId,
    /// Its size in bytes.
    pub size: u64,
    /// Its touch stamp: the logical clock at its placement or its latest
    /// access under an evicting policy, whichever came last. No two files
    /// share one.
    pub touched: u64,
}

// ---------------------------------------------------------------------------
// The packed placement word
// ---------------------------------------------------------------------------

const STATE_MASK: u64 = 0b11;
/// Interned for per-file bookkeeping only; not part of the namespace.
const ABSENT: u64 = 0;
const UNPLACED: u64 = 1;
const COPYING: u64 = 2;
const PLACED: u64 = 3;
/// A bit of the placement word that the policy engine or the access
/// profiler keeps on a file.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mark {
    /// Read since placement — the policy engine's reuse label.
    Reused = 1 << 2,
    /// Staged by a prefetch, not read yet — the policy engine's pin.
    Pinned = 1 << 3,
    /// Staged by a prefetch at some point — the access profiler's mark.
    Prefetched = 1 << 4,
}
const TIER_SHIFT: u32 = 16;
const TARGET_SHIFT: u32 = 32;
const FIELD_MASK: u64 = 0xFFFF;

fn tier_bits(tier: TierId) -> u64 {
    u64::from(u16::try_from(tier).expect("tier ids fit 16 bits"))
}

fn pack(state: PlacementState, tier: TierId) -> u64 {
    let (tag, target) = match state {
        PlacementState::Unplaced => (UNPLACED, 0),
        PlacementState::Copying { target } => (COPYING, tier_bits(target)),
        PlacementState::Placed => (PLACED, 0),
    };
    tag | tier_bits(tier) << TIER_SHIFT | target << TARGET_SHIFT
}

/// `(state, tier)` of a word whose state is not `ABSENT`.
fn unpack(place: u64) -> (PlacementState, TierId) {
    let state = match place & STATE_MASK {
        COPYING => PlacementState::Copying {
            target: (place >> TARGET_SHIFT & FIELD_MASK) as TierId,
        },
        PLACED => PlacementState::Placed,
        _ => PlacementState::Unplaced,
    };
    (state, (place >> TIER_SHIFT & FIELD_MASK) as TierId)
}

// ---------------------------------------------------------------------------
// The slab
// ---------------------------------------------------------------------------

/// What the reads of a file add up to beyond the count cells: a cache line
/// of its own, so an add dirties nothing a lookup of this or any other
/// file reads.
#[derive(Default)]
#[repr(align(64))]
struct Counters {
    reads: AtomicU64,
    /// Bytes served to the foreground per tier (index = tier id).
    bytes: [AtomicU64; MAX_LEVELS],
}

/// One file: the identity a lookup reads, then the counters a read adds
/// to, a line each.
#[derive(Default)]
#[repr(C, align(64))]
struct Slot {
    /// Set once, before the id is published in the index.
    name: OnceLock<Box<str>>,
    size: AtomicU64,
    place: AtomicU64,
    /// The touch stamp (see [`Resident::touched`]).
    touched: AtomicU64,
    counters: Counters,
}

const _: () = {
    use std::mem::{align_of, offset_of, size_of};
    assert!(align_of::<Counters>() == 64 && size_of::<Counters>() == 64);
    assert!(offset_of!(Slot, counters) % 64 == 0);
    // No identity field reaches into the counters' line.
    assert!(offset_of!(Slot, name) + size_of::<OnceLock<Box<str>>>() <= offset_of!(Slot, size));
    assert!(offset_of!(Slot, size) + 8 <= offset_of!(Slot, place));
    assert!(offset_of!(Slot, place) + 8 <= offset_of!(Slot, touched));
    assert!(offset_of!(Slot, touched) + 8 <= offset_of!(Slot, counters));
    assert!(size_of::<Slot>() <= 128);
};

// ---------------------------------------------------------------------------
// Count cells
// ---------------------------------------------------------------------------

/// Count cells a thread keeps per namespace (12 KiB), for the ids below it:
/// as many as a driver keeps descriptors open, so a namespace the table
/// holds has a cell for every file.
pub(crate) const COUNT_CELLS: usize = crate::driver::FD_CACHED;

/// One thread's reads and bytes of its file on one tier that are not on the
/// file's counters line yet. Only the owner of its stripe writes it.
struct CountCell {
    /// The tier, plus one; 0 while empty.
    key: AtomicU64,
    reads: AtomicU64,
    bytes: AtomicU64,
}

/// A thread's cells before its first read: every key 0 (empty). Built as a
/// constant, so that a reader's first read does not pay a loop for them.
const fn empty_cells() -> CountCells {
    [const {
        CountCell {
            key: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }; COUNT_CELLS]
}

type CountCells = [CountCell; COUNT_CELLS];

impl CountCell {
    fn held(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// The one writer of a slot's counters line: add `reads` and `bytes`
/// served from `tier` (no cell: no such level in any hierarchy).
fn flush(slot: &Slot, tier: TierId, reads: u64, bytes: u64) {
    if reads > 0 {
        slot.counters.reads.fetch_add(reads, Ordering::Relaxed);
    }
    if let (Some(cell), true) = (slot.counters.bytes.get(tier), bytes > 0) {
        cell.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Where a read's counts go: the calling thread's cell for its file and
/// tier, or the file's counters line (an id past the cells, a thread that
/// owns no stripe). Not `Send`: the owner's adds are exact from it only.
pub struct ReadCount<'a> {
    slot: &'a Slot,
    key: u64,
    cell: Option<&'a CountCell>,
    _owner: PhantomData<*const ()>,
}

impl ReadCount<'_> {
    fn tier(&self) -> TierId {
        (self.key - 1) as TierId
    }

    /// Count one read.
    #[inline]
    pub(crate) fn add_read(&self) {
        match self.cell {
            Some(cell) => add_owned(&cell.reads, 1),
            None => flush(self.slot, self.tier(), 1, 0),
        }
    }

    /// Count `bytes` served from `tier` (in the cell while it holds this
    /// file on this tier); returns whether the file is [`Mark::Prefetched`].
    #[inline]
    pub(crate) fn add_bytes(&self, tier: TierId, bytes: u64) -> bool {
        match self.cell {
            Some(cell) if tier == self.tier() && cell.key.load(Ordering::Relaxed) == self.key => {
                add_owned(&cell.bytes, bytes);
            }
            _ => flush(self.slot, tier, 0, bytes),
        }
        self.slot.place.load(Ordering::Relaxed) & Mark::Prefetched as u64 != 0
    }
}

/// log2 of the first chunk's length; chunk `k` holds `1 << (k + 6)` slots.
/// Small, so that a fresh container over a small namespace costs a page.
const FIRST_CHUNK_BITS: u32 = 6;
/// Enough doubling chunks for every `u32` id.
pub(crate) const CHUNKS: usize = 27;

/// `(chunk, offset)` of the `index`-th id in a slab of doubling chunks.
#[inline]
pub(crate) fn locate(index: usize) -> (usize, usize) {
    let n = index as u64 + (1 << FIRST_CHUNK_BITS);
    let top = 63 - n.leading_zeros();
    ((top - FIRST_CHUNK_BITS) as usize, (n - (1 << top)) as usize)
}

/// Slots in chunk `chunk` of such a slab.
pub(crate) fn chunk_len(chunk: usize) -> usize {
    1 << (chunk as u32 + FIRST_CHUNK_BITS)
}

/// Append-only slot storage in doubling chunks. A chunk is allocated when
/// the first id inside it is handed out and never moves afterwards, so
/// `slot` needs no lock.
struct Slab {
    chunks: [OnceLock<Box<[Slot]>>; CHUNKS],
    next: AtomicU32,
}

impl Slab {
    fn new() -> Self {
        Self {
            chunks: [const { OnceLock::new() }; CHUNKS],
            next: AtomicU32::new(0),
        }
    }

    /// Ids handed out so far; every one of them has its chunk.
    fn len(&self) -> u32 {
        self.next.load(Ordering::Acquire)
    }

    /// Hand out the next id, allocating its chunk if it is the first in
    /// it. Callers serialise (the index's writer lock).
    fn push(&self) -> (FileId, &Slot) {
        let id = self.next.load(Ordering::Relaxed);
        assert!(id < u32::MAX, "the namespace holds at most 2^32 - 1 files");
        let (chunk, offset) = locate(id as usize);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..chunk_len(chunk)).map(|_| Slot::default()).collect());
        self.next.store(id + 1, Ordering::Release);
        (FileId(id), &slots[offset])
    }

    #[inline]
    fn slot(&self, id: FileId) -> &Slot {
        let (chunk, offset) = locate(id.index());
        &self.chunks[chunk]
            .get()
            .expect("file id was issued by this container")[offset]
    }
}

// ---------------------------------------------------------------------------
// The name index
// ---------------------------------------------------------------------------

/// log2 of the first index table's length; table `k` has `1 << (k + 7)`
/// cells and is replaced once half full.
const FIRST_TABLE_BITS: u32 = 7;
/// Enough doubling tables to index every `u32` id at half load.
const TABLES: usize = 27;

/// A cell: 0 when empty, else the hash's low half above `id + 1`.
fn cell_of(hash: u64, id: FileId) -> u64 {
    hash << 32 | (u64::from(id.0) + 1)
}

/// Insert-only `name → FileId` hash index, lock-free for readers.
struct Index {
    tables: [OnceLock<Box<[AtomicU64]>>; TABLES],
    /// The table lookups use; `TABLES` until the first insert builds one.
    current: AtomicUsize,
    /// Serialises writers; holds the number of names indexed.
    entries: Mutex<usize>,
}

impl Index {
    fn new() -> Self {
        Self {
            tables: [const { OnceLock::new() }; TABLES],
            current: AtomicUsize::new(TABLES),
            entries: Mutex::new(0),
        }
    }

    /// Where `hash` starts probing in a table of `len` cells: the hash's
    /// high half (the low half is the cell's tag).
    fn home(hash: u64, len: usize) -> usize {
        (hash >> 32) as usize & (len - 1)
    }

    /// The id `name` was interned to, and the slot its name was found in.
    #[inline]
    fn find<'s>(&self, slab: &'s Slab, name: &str) -> Option<(FileId, &'s Slot)> {
        let table = self
            .tables
            .get(self.current.load(Ordering::Acquire))?
            .get()?;
        let hash = hash_str(name);
        let mut i = Self::home(hash, table.len());
        loop {
            let cell = table[i].load(Ordering::Acquire);
            if cell == 0 {
                return None;
            }
            if cell >> 32 == hash & 0xFFFF_FFFF {
                let id = FileId((cell as u32) - 1);
                let slot = slab.slot(id);
                if slot.name.get().is_some_and(|n| **n == *name) {
                    return Some((id, slot));
                }
            }
            i = (i + 1) & (table.len() - 1);
        }
    }

    /// Put `cell` in the first empty cell of `table` at or after its home.
    fn place(table: &[AtomicU64], hash: u64, cell: u64) {
        let mut i = Self::home(hash, table.len());
        while table[i].load(Ordering::Relaxed) != 0 {
            i = (i + 1) & (table.len() - 1);
        }
        table[i].store(cell, Ordering::Release);
    }

    /// Index the name already stored in slot `id`. The caller holds
    /// `entries` and has checked the name is not indexed yet.
    fn insert(&self, entries: &mut usize, slab: &Slab, id: FileId, name: &str) {
        let mut k = self.current.load(Ordering::Relaxed);
        let cells = |k: usize| 1usize << (k as u32 + FIRST_TABLE_BITS);
        if k == TABLES || (*entries + 1) * 2 > cells(k) {
            // First insert, or the table would pass half load: build the
            // next one from every id issued so far (all but `id` itself
            // are in the old table), then publish it below.
            k = if k == TABLES { 0 } else { k + 1 };
            let table: Box<[AtomicU64]> = (0..cells(k)).map(|_| AtomicU64::new(0)).collect();
            for old in (0..slab.len()).map(FileId).filter(|old| *old != id) {
                if let Some(old_name) = slab.slot(old).name.get() {
                    let hash = hash_str(old_name);
                    Self::place(&table, hash, cell_of(hash, old));
                }
            }
            self.tables[k]
                .set(table)
                .expect("a table is built once, under the writer lock");
        }
        let table = self.tables[k].get().expect("current table exists");
        let hash = hash_str(name);
        Self::place(table, hash, cell_of(hash, id));
        self.current.store(k, Ordering::Release);
        *entries += 1;
    }
}

// ---------------------------------------------------------------------------
// The container
// ---------------------------------------------------------------------------

/// The logical clock touch stamps are read off, on a line of its own: an
/// evicting policy advances it on every hit, and no lookup reads it.
#[derive(Default)]
#[repr(align(64))]
struct Clock(AtomicU64);

/// Thread-safe namespace: lock-free lookups, serialised registration.
pub struct MetadataContainer {
    index: Index,
    slab: Slab,
    /// Each owned stripe's count cells, built on its thread's first read.
    cells: Striped<CountCells>,
    /// Names in the namespace (interned-only names are not counted).
    registered: AtomicUsize,
    clock: Clock,
}

impl std::fmt::Debug for MetadataContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetadataContainer")
            .field("files", &self.len())
            .finish()
    }
}

impl Default for MetadataContainer {
    fn default() -> Self {
        Self {
            index: Index::new(),
            slab: Slab::new(),
            cells: Striped::new(),
            registered: AtomicUsize::new(0),
            clock: Clock::default(),
        }
    }
}

impl MetadataContainer {
    /// The id `name` was interned to, in the namespace or not.
    #[inline]
    pub(crate) fn find(&self, name: &str) -> Option<FileId> {
        self.index.find(&self.slab, name).map(|(id, _)| id)
    }

    /// Every id handed out so far, interned-only names included, in
    /// index order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = FileId> {
        (0..self.slab.len()).map(FileId)
    }

    /// The name `id` was interned from (`None` only while its slot is
    /// mid-registration).
    pub(crate) fn name_of(&self, id: FileId) -> Option<&str> {
        self.slab.slot(id).name.get().map(|n| &**n)
    }

    /// Reads counted on `id` so far.
    pub(crate) fn reads_of(&self, id: FileId) -> u64 {
        self.counts(id).0
    }

    /// Bytes served to the foreground from each of the first `tiers`
    /// tiers on `id`.
    pub(crate) fn bytes_of(&self, id: FileId, tiers: usize) -> Vec<u64> {
        self.counts(id).1[..tiers.min(MAX_LEVELS)].to_vec()
    }

    /// `id`'s reads and bytes per tier: its counters line plus every
    /// stripe's cell. Exact once the counting threads are quiet; a fold that
    /// races a flush may miss the cell's counts, never count them twice.
    fn counts(&self, id: FileId) -> (u64, [u64; MAX_LEVELS]) {
        let slot = self.slab.slot(id);
        let mut reads = slot.counters.reads.load(Ordering::Relaxed);
        let mut bytes: [u64; MAX_LEVELS] =
            std::array::from_fn(|tier| slot.counters.bytes[tier].load(Ordering::Relaxed));
        // A flush empties its cell's key before it adds to the line: a
        // line seen with the add has the cell below seen empty or re-keyed.
        fence(Ordering::Acquire);
        let cells = self.cells.iter().take_while(|_| id.index() < COUNT_CELLS);
        for cells in cells {
            let cell = &cells[id.index()];
            let key = cell.key.load(Ordering::Acquire);
            if key == 0 {
                continue;
            }
            let (r, b) = cell.held();
            // Counts zeroed by a re-keying since are seen with its key gone.
            fence(Ordering::Acquire);
            if cell.key.load(Ordering::Relaxed) == key {
                reads = reads.wrapping_add(r);
                if let Some(sum) = bytes.get_mut(key as usize - 1) {
                    *sum = sum.wrapping_add(b);
                }
            }
        }
        (reads, bytes)
    }

    /// The calling thread's count of `id`'s reads of `tier`: its cell, or
    /// the file's line for an id past the cells.
    #[inline]
    pub(crate) fn counter(&self, id: FileId, tier: TierId) -> ReadCount<'_> {
        self.count_in(id, self.slab.slot(id), tier)
    }

    #[inline]
    fn count_in<'a>(&'a self, id: FileId, slot: &'a Slot, tier: TierId) -> ReadCount<'a> {
        let key = tier as u64 + 1;
        // An id past the cells counts on its file's line, looking none up.
        let cells = (id.index() < COUNT_CELLS)
            .then(|| self.cells.owned(empty_cells))
            .flatten();
        let cell = cells.map(|cells| {
            let cell = &cells[id.index()];
            let held = cell.key.load(Ordering::Relaxed);
            if held == key {
                return cell;
            }
            // Empty, flush, zero, key: a fold (`counts`) sees the counts
            // under the key they were taken for, or not at all.
            if held != 0 {
                cell.key.store(0, Ordering::Relaxed);
                fence(Ordering::Release);
                let (r, b) = cell.held();
                flush(slot, (held - 1) as TierId, r, b);
                cell.reads.store(0, Ordering::Relaxed);
                cell.bytes.store(0, Ordering::Relaxed);
            }
            cell.key.store(key, Ordering::Release);
            cell
        });
        ReadCount {
            slot,
            key,
            cell,
            _owner: PhantomData,
        }
    }

    /// Where `id` is, without its count: what a read that goes round again
    /// needs. `None` for an id that was only interned: it is no file.
    #[must_use]
    pub fn placement(&self, id: FileId) -> Option<Placement> {
        let slot = self.slab.slot(id);
        let place = slot.place.load(Ordering::Acquire);
        (place & STATE_MASK != ABSENT).then(|| Self::placement_of(slot, place))
    }

    /// The current record of a file [`Self::resolve`] or
    /// [`Self::resolve_for_read`] resolved, its count folded; `None` for an
    /// id that was only interned.
    #[must_use]
    pub fn info(&self, id: FileId) -> Option<FileInfo> {
        let placement = self.placement(id)?;
        Some(Self::info_of(placement, self.reads_of(id)))
    }

    /// The slot of `name`, created absent if the name has none. `entries`
    /// is the index's writer lock, held by the caller.
    fn find_or_insert(&self, entries: &mut usize, name: &str) -> (FileId, &Slot) {
        if let Some(found) = self.index.find(&self.slab, name) {
            return found;
        }
        let (id, slot) = self.slab.push();
        slot.name
            .set(name.into())
            .expect("a fresh slot has no name");
        self.index.insert(entries, &self.slab, id, name);
        (id, slot)
    }

    /// `find`, restricted to the namespace; the slot and the placement
    /// word that proved membership come along.
    #[inline]
    fn find_registered(&self, name: &str) -> Result<(FileId, &Slot, u64)> {
        self.index
            .find(&self.slab, name)
            .map(|(id, slot)| (id, slot, slot.place.load(Ordering::Acquire)))
            .filter(|(_, _, place)| place & STATE_MASK != ABSENT)
            .ok_or_else(|| Error::UnknownFile(name.into()))
    }

    fn placement_of(slot: &Slot, place: u64) -> Placement {
        let (state, tier) = unpack(place);
        Placement {
            size: slot.size.load(Ordering::Relaxed),
            tier,
            state,
        }
    }

    fn info_of(p: Placement, reads: u64) -> FileInfo {
        FileInfo {
            size: p.size,
            tier: p.tier,
            state: p.state,
            reads,
        }
    }

    /// Register a file discovered on tier `tier` (normally the PFS).
    /// Returns `false` if the name was already present (the existing entry
    /// is kept — re-scans must not clobber live placement state).
    pub fn register(&self, name: &str, size: u64, tier: TierId) -> bool {
        // Registrations serialise on the writer lock, so a plain store
        // settles the slot; the size goes first so that whoever sees the
        // state leave `ABSENT` (acquire) sees it.
        let mut entries = locks::lock(&self.index.entries);
        let (_, slot) = self.find_or_insert(&mut entries, name);
        if slot.place.load(Ordering::Relaxed) & STATE_MASK != ABSENT {
            return false;
        }
        slot.size.store(size, Ordering::Relaxed);
        slot.place
            .store(pack(PlacementState::Unplaced, tier), Ordering::Release);
        self.registered.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The id of `name`, interning it if it has none. A name interned this
    /// way is *not* added to the namespace (lookups still report it
    /// unknown until [`Self::register`] sees it): it only gives the policy
    /// engine somewhere to keep per-file bits for names it is told about
    /// outside a scan.
    pub(crate) fn intern(&self, name: &str) -> FileId {
        match self.find(name) {
            Some(id) => id,
            None => {
                let mut entries = locks::lock(&self.index.entries);
                self.find_or_insert(&mut entries, name).0
            }
        }
    }

    /// The id of a file in the namespace.
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<FileId> {
        self.find_registered(name).ok().map(|(id, _, _)| id)
    }

    /// Look up a file and count its read in the calling thread's cell for
    /// it and its tier, which comes along for the booking's bytes, with the
    /// id. Nothing is folded: [`Self::info`] sums the cells.
    #[inline]
    pub fn resolve_for_read(&self, name: &str) -> Result<(FileId, Placement, ReadCount<'_>)> {
        let (id, slot, place) = self.find_registered(name)?;
        let placement = Self::placement_of(slot, place);
        let count = self.count_in(id, slot, placement.tier);
        count.add_read();
        Ok((id, placement, count))
    }

    /// Look up a file, counting its read.
    pub fn lookup_for_read(&self, name: &str) -> Result<Placement> {
        self.resolve_for_read(name).map(|(_, p, _)| p)
    }

    /// Look up a file without touching counters; its count folded.
    pub fn get(&self, name: &str) -> Option<FileInfo> {
        let (id, slot, place) = self.find_registered(name).ok()?;
        Some(Self::info_of(
            Self::placement_of(slot, place),
            self.reads_of(id),
        ))
    }

    /// Apply `next` to the placement word of `id` until it sticks; `None`
    /// from `next` leaves the word alone, and so does an `ABSENT` word (an
    /// interned id is no file to move). Returns the word `next` last saw and
    /// whether it was replaced. Bits outside the state, tier and target
    /// fields (the reuse label, the pin, the prefetched mark) are carried
    /// over.
    fn transition(
        &self,
        id: FileId,
        mut next: impl FnMut(PlacementState, TierId) -> Option<(PlacementState, TierId)>,
    ) -> (u64, bool) {
        let keep = !(STATE_MASK | FIELD_MASK << TIER_SHIFT | FIELD_MASK << TARGET_SHIFT);
        let place = &self.slab.slot(id).place;
        let swapped = place.fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
            let (state, tier) = (old & STATE_MASK != ABSENT).then(|| unpack(old))?;
            next(state, tier).map(|(state, tier)| old & keep | pack(state, tier))
        });
        match swapped {
            Ok(old) => (old, true),
            Err(old) => (old, false),
        }
    }

    /// Atomically transition `Unplaced -> Copying{target}`. Returns `true`
    /// if this call won the race; concurrent readers of the same fresh file
    /// must schedule exactly one background copy.
    pub fn begin_copy(&self, id: FileId, target: TierId) -> bool {
        self.transition(id, |state, tier| {
            (state == PlacementState::Unplaced)
                .then_some((PlacementState::Copying { target }, tier))
        })
        .1
    }

    /// Complete an in-flight copy: the file now lives on `tier`, stamped
    /// as touched now.
    pub fn finish_copy(&self, id: FileId, tier: TierId) {
        let (old, placed) = self.transition(id, |_, _| Some((PlacementState::Placed, tier)));
        debug_assert_eq!(old & STATE_MASK, COPYING);
        if placed {
            self.stamp(id);
        }
    }

    /// Abort an in-flight copy; the file stays on its current tier. If
    /// `terminal` is true the file is marked `Placed` (on the PFS) so no
    /// further placement is attempted — used when local tiers are full.
    pub fn abort_copy(&self, id: FileId, terminal: bool) {
        let state = if terminal {
            PlacementState::Placed
        } else {
            PlacementState::Unplaced
        };
        self.transition(id, |_, tier| Some((state, tier)));
    }

    /// Evict a `Placed` file back to tier `to` around `remove`, the delete
    /// of its local copy. While `remove` runs the file is held in
    /// `Copying` on `to`: reads already go to `to`, and no placement can
    /// start, so the delete can never take out a copy installed after the
    /// eviction was decided. Afterwards the file is `Unplaced` on `to`.
    /// Returns `None` (and does not run `remove`) when the file is not
    /// `Placed` — someone else is moving it.
    pub fn evict_with<T>(&self, id: FileId, to: TierId, remove: impl FnOnce() -> T) -> Option<T> {
        let (_, held) = self.transition(id, |state, _| {
            (state == PlacementState::Placed)
                .then_some((PlacementState::Copying { target: to }, to))
        });
        if !held {
            return None;
        }
        let out = remove();
        self.abort_copy(id, false);
        Some(out)
    }

    /// Set (`on`) or clear `mark` on `id`, returning whether it was set.
    /// A mark that already reads as asked is not written again, so a warm
    /// file's marks cost its hits a load.
    #[inline]
    pub(crate) fn set_mark(&self, id: FileId, mark: Mark, on: bool) -> bool {
        let (place, bit) = (&self.slab.slot(id).place, mark as u64);
        if (place.load(Ordering::Relaxed) & bit != 0) == on {
            return on;
        }
        let old = if on {
            place.fetch_or(bit, Ordering::Relaxed)
        } else {
            place.fetch_and(!bit, Ordering::Relaxed)
        };
        old & bit != 0
    }

    /// Whether `mark` is set on `id`.
    #[inline]
    pub(crate) fn marked(&self, id: FileId, mark: Mark) -> bool {
        self.slab.slot(id).place.load(Ordering::Relaxed) & mark as u64 != 0
    }

    /// Stamp `id` with the next tick of the clock.
    fn stamp(&self, id: FileId) {
        let tick = self.clock.0.fetch_add(1, Ordering::Relaxed) + 1;
        self.slab.slot(id).touched.store(tick, Ordering::Relaxed);
    }

    /// A read of `id` served from `tier`: restamp the file if it is placed
    /// there. Only an evicting policy calls this — it is the one shared
    /// write of its hits.
    #[inline]
    pub(crate) fn touch(&self, id: FileId, tier: TierId) {
        let place = self.slab.slot(id).place.load(Ordering::Relaxed);
        if place & STATE_MASK == PLACED && (place >> TIER_SHIFT & FIELD_MASK) as TierId == tier {
            self.stamp(id);
        }
    }

    /// How many files are pinned.
    pub(crate) fn pinned(&self) -> u64 {
        self.ids()
            .filter(|&id| self.marked(id, Mark::Pinned))
            .count() as u64
    }

    /// The files placed on `tier` that no pin protects, in id order: the
    /// candidates every eviction policy chooses its victims among. A file
    /// in flight is not `Placed`, so it is never one.
    pub fn evictable(&self, tier: TierId) -> impl Iterator<Item = Resident> + '_ {
        let want = PLACED | tier_bits(tier) << TIER_SHIFT;
        let mask = STATE_MASK | Mark::Pinned as u64 | FIELD_MASK << TIER_SHIFT;
        self.ids().filter_map(move |id| {
            let slot = self.slab.slot(id);
            (slot.place.load(Ordering::Acquire) & mask == want).then(|| Resident {
                id,
                size: slot.size.load(Ordering::Relaxed),
                touched: slot.touched.load(Ordering::Relaxed),
            })
        })
    }

    /// Number of registered files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.registered.load(Ordering::Relaxed)
    }

    /// True if no files are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes across all registered files.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.placements().map(|p| p.size).sum()
    }

    /// Count of files currently resident on each tier (index = tier id).
    #[must_use]
    pub fn residency_histogram(&self, tiers: usize) -> Vec<u64> {
        let mut hist = vec![0u64; tiers];
        for p in self.placements().filter(|p| p.tier < tiers) {
            hist[p.tier] += 1;
        }
        hist
    }

    /// Every file's placement, its count not folded.
    fn placements(&self) -> impl Iterator<Item = Placement> + '_ {
        self.ids().filter_map(|id| self.placement(id))
    }

    /// Visit every entry (snapshot order is unspecified).
    pub fn for_each<F: FnMut(&str, &FileInfo)>(&self, mut f: F) {
        for id in self.ids() {
            let slot = self.slab.slot(id);
            let place = slot.place.load(Ordering::Acquire);
            // A slot mid-registration has no name (or no state) yet.
            if let (Some(name), true) = (slot.name.get(), place & STATE_MASK != ABSENT) {
                let info = Self::info_of(Self::placement_of(slot, place), self.reads_of(id));
                f(name, &info);
            }
        }
    }
}

#[cfg(test)]
impl MetadataContainer {
    /// The clock's latest tick: the stamp of the latest touch.
    pub(crate) fn clock(&self) -> u64 {
        self.clock.0.load(Ordering::Relaxed)
    }

    /// `id`'s counters line alone: its reads and its bytes per tier.
    pub(crate) fn line_counts(&self, id: FileId) -> (u64, [u64; MAX_LEVELS]) {
        let slot = self.slab.slot(id);
        let bytes = std::array::from_fn(|tier| slot.counters.bytes[tier].load(Ordering::Relaxed));
        (slot.counters.reads.load(Ordering::Relaxed), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn register_and_lookup() {
        let m = MetadataContainer::default();
        assert!(m.register("a", 10, 1));
        assert!(
            !m.register("a", 99, 0),
            "duplicate register must be refused"
        );
        let info = m.lookup_for_read("a").unwrap();
        assert_eq!(info.size, 10);
        assert_eq!(info.tier, 1);
        assert_eq!(info.state, PlacementState::Unplaced);
        assert_eq!(m.get("a").unwrap().reads, 1);
    }

    /// `m` with `name` registered on tier 1 at `size` bytes, and its id.
    fn file(m: &MetadataContainer, name: &str, size: u64) -> FileId {
        assert!(m.register(name, size, 1));
        m.resolve(name).unwrap()
    }

    #[test]
    fn unknown_file_errors() {
        let m = MetadataContainer::default();
        assert!(matches!(
            m.lookup_for_read("nope"),
            Err(Error::UnknownFile(_))
        ));
        // An interned id is no file: every transition loses the race and
        // leaves its word absent, so the name stays outside the namespace.
        let id = m.intern("nope");
        assert!(!m.begin_copy(id, 0));
        m.abort_copy(id, true);
        assert_eq!(m.evict_with(id, 1, || ()), None);
        assert_eq!(m.slab.slot(id).place.load(Ordering::Relaxed), ABSENT);
        assert!(m.get("nope").is_none());
    }

    #[test]
    fn copy_lifecycle() {
        let m = MetadataContainer::default();
        let f = file(&m, "f", 100);
        assert!(m.begin_copy(f, 0));
        assert!(!m.begin_copy(f, 0), "second begin must lose the race");
        // While copying, reads still resolve to the old tier.
        assert_eq!(m.lookup_for_read("f").unwrap().tier, 1);
        m.finish_copy(f, 0);
        let info = m.get("f").unwrap();
        assert_eq!(info.tier, 0);
        assert_eq!(info.state, PlacementState::Placed);
        assert!(!m.begin_copy(f, 0), "placed file must not re-copy");
    }

    #[test]
    fn abort_copy_retries_or_terminates() {
        let m = MetadataContainer::default();
        let f = file(&m, "f", 100);
        assert!(m.begin_copy(f, 0));
        m.abort_copy(f, false);
        assert_eq!(m.get("f").unwrap().state, PlacementState::Unplaced);
        assert!(m.begin_copy(f, 0), "non-terminal abort allows retry");
        m.abort_copy(f, true);
        assert_eq!(m.get("f").unwrap().state, PlacementState::Placed);
        assert!(!m.begin_copy(f, 0), "terminal abort pins the file");
    }

    #[test]
    fn eviction_roundtrip() {
        let m = MetadataContainer::default();
        let f = file(&m, "f", 100);
        assert!(m.begin_copy(f, 0));
        m.finish_copy(f, 0);
        assert_eq!(m.evict_with(f, 1, || ()), Some(()));
        let info = m.get("f").unwrap();
        assert_eq!(info.tier, 1);
        assert_eq!(info.state, PlacementState::Unplaced);
        assert!(m.begin_copy(f, 0), "evicted file is placeable again");
    }

    #[test]
    fn histogram_and_totals() {
        let m = MetadataContainer::default();
        let ids: Vec<FileId> = (0..100).map(|i| file(&m, &format!("f{i}"), 10)).collect();
        assert_eq!(m.len(), 100);
        assert_eq!(m.total_bytes(), 1000);
        for &id in &ids[..30] {
            m.begin_copy(id, 0);
            m.finish_copy(id, 0);
        }
        assert_eq!(m.residency_histogram(2), vec![30, 70]);
    }

    #[test]
    fn concurrent_begin_copy_single_winner() {
        let m = Arc::new(MetadataContainer::default());
        let hot = file(&m, "hot", 1);
        let winners = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                let winners = Arc::clone(&winners);
                std::thread::spawn(move || {
                    if m.begin_copy(hot, 0) {
                        winners.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(winners.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ids_stay_valid_while_the_index_and_slab_grow() {
        // Through several index tables (the first has 128 cells and is
        // replaced at half load) and slab chunks (the first has 64 slots).
        let m = MetadataContainer::default();
        let n = 3000u64;
        let ids: Vec<FileId> = (0..n)
            .map(|i| {
                let name = format!("shard-{i:05}.tfrecord");
                assert!(m.register(&name, i, 1));
                m.resolve(&name).unwrap()
            })
            .collect();
        assert_eq!(m.len(), n as usize);
        assert_eq!(m.total_bytes(), n * (n - 1) / 2);
        for (i, id) in ids.iter().enumerate() {
            let name = format!("shard-{i:05}.tfrecord");
            assert_eq!(m.resolve(&name), Some(*id), "{name} kept its id");
            assert_eq!(m.get(&name).unwrap().size, i as u64);
        }
        assert!(m.resolve("shard-03000.tfrecord").is_none());
    }

    #[test]
    fn interned_names_stay_outside_the_namespace_until_registered() {
        let m = MetadataContainer::default();
        let id = m.intern("ghost");
        assert_eq!(m.intern("ghost"), id, "interning is idempotent");
        assert!(m.get("ghost").is_none());
        assert!(m.resolve("ghost").is_none());
        assert!(matches!(
            m.lookup_for_read("ghost"),
            Err(Error::UnknownFile(_))
        ));
        assert!(m.is_empty());
        let mut seen = 0;
        m.for_each(|_, _| seen += 1);
        assert_eq!(seen, 0);
        // Registering the name later adopts the slot.
        assert!(m.register("ghost", 7, 1));
        assert_eq!(m.resolve("ghost"), Some(id));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn reuse_label_survives_placement_transitions() {
        let m = MetadataContainer::default();
        let id = file(&m, "f", 10);
        assert!(!m.set_mark(id, Mark::Reused, false));
        m.set_mark(id, Mark::Reused, true);
        assert!(m.begin_copy(id, 0));
        m.finish_copy(id, 0);
        let info = m.get("f").unwrap();
        assert_eq!((info.tier, info.state), (0, PlacementState::Placed));
        assert!(
            m.set_mark(id, Mark::Reused, false),
            "transitions carry the label over"
        );
        assert!(!m.set_mark(id, Mark::Reused, false), "taking it clears it");
    }

    #[test]
    fn evict_with_holds_the_file_while_the_copy_is_deleted() {
        let m = MetadataContainer::default();
        let f = file(&m, "f", 10);
        assert_eq!(m.evict_with(f, 1, || ()), None, "not placed");
        m.begin_copy(f, 0);
        m.finish_copy(f, 0);
        let during = m
            .evict_with(f, 1, || {
                // Reads already resolve to the source, and nobody can
                // start a placement that the delete would then destroy.
                assert!(!m.begin_copy(f, 0));
                m.get("f").unwrap()
            })
            .unwrap();
        assert_eq!(during.tier, 1);
        assert_eq!(during.state, PlacementState::Copying { target: 1 });
        let after = m.get("f").unwrap();
        assert_eq!((after.tier, after.state), (1, PlacementState::Unplaced));
    }

    #[test]
    fn lookups_run_while_the_namespace_grows() {
        // Readers resolve the first name (and count their reads on it)
        // while a writer pushes the index through several rebuilds.
        let m = MetadataContainer::default();
        m.register("first", 1, 1);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let reads = std::thread::scope(|s| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut n = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            assert_eq!(m.lookup_for_read("first").unwrap().size, 1);
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            for i in 0..5000 {
                assert!(m.register(&format!("g{i}"), 2, 1));
            }
            stop.store(true, Ordering::Relaxed);
            readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
        });
        assert_eq!(m.get("first").unwrap().reads, reads);
        assert_eq!(m.len(), 5001);
    }

    #[test]
    fn for_each_visits_all() {
        let m = MetadataContainer::default();
        m.register("a", 1, 0);
        m.register("b", 2, 0);
        let mut seen = Vec::new();
        m.for_each(|name, info| seen.push((name.to_string(), info.size)));
        seen.sort();
        assert_eq!(seen, vec![("a".into(), 1), ("b".into(), 2)]);
    }

    #[test]
    fn a_cell_flushes_when_its_file_moves_tier_and_ids_past_the_cells_have_none() {
        // The counting thread must own a stripe, which other tests' threads
        // may all hold: the test runs alone, in a child process.
        if !crate::stripe::tests::alone(
            "metadata::tests::a_cell_flushes_when_its_file_moves_tier_and_ids_past_the_cells_have_none",
        ) {
            return;
        }
        let m = MetadataContainer::default();
        for i in 0..=COUNT_CELLS {
            m.register(&format!("f{i}"), 1, 0);
        }
        // Id 512 is past the cells.
        let (a, b) = (FileId(0), FileId(COUNT_CELLS as u32));
        for _ in 0..3 {
            let count = m.counter(a, 0);
            count.add_read();
            count.add_bytes(0, 10);
        }
        let b_count = m.counter(b, 0);
        b_count.add_read();
        b_count.add_bytes(0, 7);
        assert_eq!(m.line_counts(a), (0, [0; MAX_LEVELS]), "a is in its cell");
        let mut seven = [0; MAX_LEVELS];
        seven[0] = 7;
        assert_eq!(m.line_counts(b), (1, seven), "b is on its line");
        assert_eq!((m.reads_of(a), m.bytes_of(a, 2)), (3, vec![30, 0]));
        // a moves to tier 1: its cell flushes what tier 0 served.
        m.counter(a, 1).add_read();
        let mut thirty = [0; MAX_LEVELS];
        thirty[0] = 30;
        assert_eq!(m.line_counts(a), (3, thirty), "the cell flushed");
        assert_eq!((m.reads_of(a), m.bytes_of(a, 2)), (4, vec![30, 0]));
        assert_eq!((m.reads_of(b), m.bytes_of(b, 2)), (1, vec![7, 0]));
    }
}
