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
//! identity = { name, size: u64, place: u64 }
//! counters = { reads: u64, bytes: [u64; MAX_LEVELS] }      (64-byte aligned)
//! place    = [ 63..48 unused | 47..32 copy target | 31..16 tier | 2 reused | 1..0 state ]
//! state    = 0 absent, 1 unplaced, 2 copying, 3 placed
//! ```
//!
//! The identity line is written at registration and on placement
//! transitions only, so concurrent hits share it clean. The counters line
//! is the one line a hit writes that another reader's hit may also write —
//! and then only a reader of the same file: its access count and the bytes
//! it was served per tier, which the access profiler reports from here
//! rather than from cells of its own.
//!
//! Names resolve through an insert-only open-addressing index whose cells
//! are atomics (`hash tag | id + 1`): a lookup is one hash, a probe and a
//! name compare — no lock, no write to anything shared — then acquire loads
//! from the slot's identity and one add to the file's own read counter.
//! Writers (`register`, which runs during the scan) serialise on a mutex.
//! The index grows by building a table twice the size and publishing it;
//! superseded tables are kept until the container drops, so a reader that
//! loaded the old one finishes on valid memory (together they are smaller
//! than the current table). Placement transitions are compare-and-swap
//! loops on `place`. The `reused` bit is the policy engine's reuse ledger
//! (see [`crate::policy::PolicyEngine`]), kept here so it rides the same
//! word. The slab grows in doubling chunks that never move, so ids stay
//! valid and readers never wait for an append. The access profiler keeps
//! the rest of its per-file records in a slab of the same geometry beside
//! this one ([`locate`]), addressed by the same ids.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::hash::hash_str;
use crate::hierarchy::MAX_LEVELS;
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
    /// The id as a dense index, for slabs kept beside the container's own
    /// (the access profiler's per-file records).
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
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
/// Read since placement — the policy engine's reuse label.
const REUSED: u64 = 1 << 2;
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

/// What every read of a file adds to: a cache line of its own, so the
/// adds dirty nothing a lookup of this or any other file reads.
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
    counters: Counters,
}

const _: () = {
    use std::mem::{align_of, offset_of, size_of};
    assert!(align_of::<Counters>() == 64 && size_of::<Counters>() == 64);
    assert!(offset_of!(Slot, counters) % 64 == 0);
    // No identity field reaches into the counters' line.
    assert!(offset_of!(Slot, name) + size_of::<OnceLock<Box<str>>>() <= offset_of!(Slot, size));
    assert!(offset_of!(Slot, size) + 8 <= offset_of!(Slot, place));
    assert!(offset_of!(Slot, place) + 8 <= offset_of!(Slot, counters));
    assert!(size_of::<Slot>() <= 128);
};

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

    fn find(&self, slab: &Slab, name: &str) -> Option<FileId> {
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
                if slab.slot(id).name.get().is_some_and(|n| **n == *name) {
                    return Some(id);
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

/// Thread-safe namespace: lock-free lookups, serialised registration.
pub struct MetadataContainer {
    index: Index,
    slab: Slab,
    /// Names in the namespace (interned-only names are not counted).
    registered: AtomicUsize,
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
            registered: AtomicUsize::new(0),
        }
    }
}

impl MetadataContainer {
    /// The id `name` was interned to, in the namespace or not.
    #[inline]
    pub(crate) fn find(&self, name: &str) -> Option<FileId> {
        self.index.find(&self.slab, name)
    }

    /// Every id handed out so far, interned-only names included, in
    /// index order.
    pub(crate) fn ids(&self) -> impl ExactSizeIterator<Item = FileId> {
        (0..self.slab.len()).map(FileId)
    }

    /// The name `id` was interned from (`None` only while its slot is
    /// mid-registration).
    pub(crate) fn name_of(&self, id: FileId) -> Option<&str> {
        self.slab.slot(id).name.get().map(|n| &**n)
    }

    /// Reads counted on `id` so far.
    pub(crate) fn reads_of(&self, id: FileId) -> u64 {
        self.slab.slot(id).counters.reads.load(Ordering::Relaxed)
    }

    /// Count `bytes` served to the foreground from `tier` on `id`'s
    /// counters line (no cell: no such level in any hierarchy).
    #[inline]
    pub(crate) fn count_bytes(&self, id: FileId, tier: TierId, bytes: u64) {
        if let Some(cell) = self.slab.slot(id).counters.bytes.get(tier) {
            cell.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Bytes served to the foreground from each of the first `tiers`
    /// tiers on `id`.
    pub(crate) fn bytes_of(&self, id: FileId, tiers: usize) -> Vec<u64> {
        let cells = &self.slab.slot(id).counters.bytes;
        cells[..tiers.min(MAX_LEVELS)]
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
            .collect()
    }

    /// Count one read of `id` — for a caller that accounts a read no
    /// [`Self::resolve_for_read`] saw. Returns the count including it.
    pub(crate) fn count_read(&self, id: FileId) -> u64 {
        let reads = &self.slab.slot(id).counters.reads;
        reads.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current record of a file [`Self::resolve_for_read`] resolved,
    /// without touching counters: a read that goes round again (its copy
    /// was evicted under it, its tier failed) is still one read.
    pub(crate) fn info(&self, id: FileId) -> FileInfo {
        let slot = self.slab.slot(id);
        Self::info_of(
            slot,
            slot.place.load(Ordering::Acquire),
            slot.counters.reads.load(Ordering::Relaxed),
        )
    }

    /// The slot of `name`, created absent if the name has none. `entries`
    /// is the index's writer lock, held by the caller.
    fn find_or_insert(&self, entries: &mut usize, name: &str) -> (FileId, &Slot) {
        if let Some(id) = self.find(name) {
            return (id, self.slab.slot(id));
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
        self.find(name)
            .map(|id| {
                let slot = self.slab.slot(id);
                (id, slot, slot.place.load(Ordering::Acquire))
            })
            .filter(|(_, _, place)| place & STATE_MASK != ABSENT)
            .ok_or_else(|| Error::UnknownFile(name.into()))
    }

    fn info_of(slot: &Slot, place: u64, reads: u64) -> FileInfo {
        let (state, tier) = unpack(place);
        FileInfo {
            size: slot.size.load(Ordering::Relaxed),
            tier,
            state,
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
        let mut entries = self.index.entries.lock();
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
                let mut entries = self.index.entries.lock();
                self.find_or_insert(&mut entries, name).0
            }
        }
    }

    /// The id of a file in the namespace.
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<FileId> {
        self.find_registered(name).ok().map(|(id, _, _)| id)
    }

    /// Look up a file, bumping its read counter; its id comes along so the
    /// caller can address the file without hashing the name again.
    pub fn resolve_for_read(&self, name: &str) -> Result<(FileId, FileInfo)> {
        let (id, slot, place) = self.find_registered(name)?;
        let reads = slot.counters.reads.fetch_add(1, Ordering::Relaxed) + 1;
        Ok((id, Self::info_of(slot, place, reads)))
    }

    /// Look up a file, bumping its read counter.
    pub fn lookup_for_read(&self, name: &str) -> Result<FileInfo> {
        self.resolve_for_read(name).map(|(_, info)| info)
    }

    /// Look up a file without touching counters.
    pub fn get(&self, name: &str) -> Option<FileInfo> {
        let (_, slot, place) = self.find_registered(name).ok()?;
        Some(Self::info_of(
            slot,
            place,
            slot.counters.reads.load(Ordering::Relaxed),
        ))
    }

    /// Apply `next` to the placement word of `name` until it sticks;
    /// `None` from `next` leaves the word alone. Returns the word `next`
    /// last saw and whether it was replaced. Bits outside the state, tier
    /// and target fields (the reuse label) are carried over.
    fn transition(
        &self,
        name: &str,
        mut next: impl FnMut(PlacementState, TierId) -> Option<(PlacementState, TierId)>,
    ) -> Result<(u64, bool)> {
        let (_, slot, _) = self.find_registered(name)?;
        let keep = !(STATE_MASK | FIELD_MASK << TIER_SHIFT | FIELD_MASK << TARGET_SHIFT);
        let swapped = slot
            .place
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
                let (state, tier) = unpack(old);
                next(state, tier).map(|(state, tier)| old & keep | pack(state, tier))
            });
        Ok(match swapped {
            Ok(old) => (old, true),
            Err(old) => (old, false),
        })
    }

    /// Atomically transition `Unplaced -> Copying{target}`. Returns `true`
    /// if this call won the race; concurrent readers of the same fresh file
    /// must schedule exactly one background copy.
    pub fn begin_copy(&self, name: &str, target: TierId) -> Result<bool> {
        self.transition(name, |state, tier| {
            (state == PlacementState::Unplaced)
                .then_some((PlacementState::Copying { target }, tier))
        })
        .map(|(_, won)| won)
    }

    /// Complete an in-flight copy: the file now lives on `tier`.
    pub fn finish_copy(&self, name: &str, tier: TierId) -> Result<()> {
        let (old, _) = self.transition(name, |_, _| Some((PlacementState::Placed, tier)))?;
        debug_assert_eq!(old & STATE_MASK, COPYING);
        Ok(())
    }

    /// Abort an in-flight copy; the file stays on its current tier. If
    /// `terminal` is true the file is marked `Placed` (on the PFS) so no
    /// further placement is attempted — used when local tiers are full.
    pub fn abort_copy(&self, name: &str, terminal: bool) -> Result<()> {
        let state = if terminal {
            PlacementState::Placed
        } else {
            PlacementState::Unplaced
        };
        self.transition(name, |_, tier| Some((state, tier)))?;
        Ok(())
    }

    /// Evict a `Placed` file back to tier `to` around `remove`, the delete
    /// of its local copy. While `remove` runs the file is held in
    /// `Copying` on `to`: reads already go to `to`, and no placement can
    /// start, so the delete can never take out a copy installed after the
    /// eviction was decided. Afterwards the file is `Unplaced` on `to`.
    /// Returns `None` (and does not run `remove`) when the file is not
    /// `Placed` — someone else is moving it.
    pub fn evict_with<T>(
        &self,
        name: &str,
        to: TierId,
        remove: impl FnOnce() -> T,
    ) -> Result<Option<T>> {
        let (_, held) = self.transition(name, |state, _| {
            (state == PlacementState::Placed)
                .then_some((PlacementState::Copying { target: to }, to))
        })?;
        if !held {
            return Ok(None);
        }
        let out = remove();
        self.abort_copy(name, false)?;
        Ok(Some(out))
    }

    /// Set the reuse label of `id`. Read-only once the label is set, which
    /// is the steady state of a warm file.
    #[inline]
    pub(crate) fn mark_reused(&self, id: FileId) {
        let place = &self.slab.slot(id).place;
        if place.load(Ordering::Relaxed) & REUSED == 0 {
            place.fetch_or(REUSED, Ordering::Relaxed);
        }
    }

    /// Clear the reuse label of `id`, returning whether it was set.
    pub(crate) fn take_reused(&self, id: FileId) -> bool {
        self.slab
            .slot(id)
            .place
            .fetch_and(!REUSED, Ordering::Relaxed)
            & REUSED
            != 0
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
        let mut total = 0;
        self.for_each(|_, info| total += info.size);
        total
    }

    /// Count of files currently resident on each tier (index = tier id).
    #[must_use]
    pub fn residency_histogram(&self, tiers: usize) -> Vec<u64> {
        let mut hist = vec![0u64; tiers];
        self.for_each(|_, info| {
            if info.tier < tiers {
                hist[info.tier] += 1;
            }
        });
        hist
    }

    /// Visit every entry (snapshot order is unspecified).
    pub fn for_each<F: FnMut(&str, &FileInfo)>(&self, mut f: F) {
        for id in self.ids() {
            let slot = self.slab.slot(id);
            let place = slot.place.load(Ordering::Acquire);
            // A slot mid-registration has no name (or no state) yet.
            if let (Some(name), true) = (slot.name.get(), place & STATE_MASK != ABSENT) {
                let reads = slot.counters.reads.load(Ordering::Relaxed);
                f(name, &Self::info_of(slot, place, reads));
            }
        }
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

    #[test]
    fn unknown_file_errors() {
        let m = MetadataContainer::default();
        assert!(matches!(
            m.lookup_for_read("nope"),
            Err(Error::UnknownFile(_))
        ));
        assert!(matches!(
            m.begin_copy("nope", 0),
            Err(Error::UnknownFile(_))
        ));
    }

    #[test]
    fn copy_lifecycle() {
        let m = MetadataContainer::default();
        m.register("f", 100, 1);
        assert!(m.begin_copy("f", 0).unwrap());
        assert!(
            !m.begin_copy("f", 0).unwrap(),
            "second begin must lose the race"
        );
        // While copying, reads still resolve to the old tier.
        assert_eq!(m.lookup_for_read("f").unwrap().tier, 1);
        m.finish_copy("f", 0).unwrap();
        let info = m.get("f").unwrap();
        assert_eq!(info.tier, 0);
        assert_eq!(info.state, PlacementState::Placed);
        assert!(
            !m.begin_copy("f", 0).unwrap(),
            "placed file must not re-copy"
        );
    }

    #[test]
    fn abort_copy_retries_or_terminates() {
        let m = MetadataContainer::default();
        m.register("f", 100, 1);
        assert!(m.begin_copy("f", 0).unwrap());
        m.abort_copy("f", false).unwrap();
        assert_eq!(m.get("f").unwrap().state, PlacementState::Unplaced);
        assert!(
            m.begin_copy("f", 0).unwrap(),
            "non-terminal abort allows retry"
        );
        m.abort_copy("f", true).unwrap();
        assert_eq!(m.get("f").unwrap().state, PlacementState::Placed);
        assert!(
            !m.begin_copy("f", 0).unwrap(),
            "terminal abort pins the file"
        );
    }

    #[test]
    fn eviction_roundtrip() {
        let m = MetadataContainer::default();
        m.register("f", 100, 1);
        assert!(m.begin_copy("f", 0).unwrap());
        m.finish_copy("f", 0).unwrap();
        assert_eq!(m.evict_with("f", 1, || ()).unwrap(), Some(()));
        let info = m.get("f").unwrap();
        assert_eq!(info.tier, 1);
        assert_eq!(info.state, PlacementState::Unplaced);
        assert!(
            m.begin_copy("f", 0).unwrap(),
            "evicted file is placeable again"
        );
    }

    #[test]
    fn histogram_and_totals() {
        let m = MetadataContainer::default();
        for i in 0..100 {
            m.register(&format!("f{i}"), 10, 1);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.total_bytes(), 1000);
        for i in 0..30 {
            let n = format!("f{i}");
            m.begin_copy(&n, 0).unwrap();
            m.finish_copy(&n, 0).unwrap();
        }
        assert_eq!(m.residency_histogram(2), vec![30, 70]);
    }

    #[test]
    fn concurrent_begin_copy_single_winner() {
        let m = Arc::new(MetadataContainer::default());
        m.register("hot", 1, 1);
        let winners = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                let winners = Arc::clone(&winners);
                std::thread::spawn(move || {
                    if m.begin_copy("hot", 0).unwrap() {
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
        m.register("f", 10, 1);
        let id = m.resolve("f").unwrap();
        assert!(!m.take_reused(id));
        m.mark_reused(id);
        assert!(m.begin_copy("f", 0).unwrap());
        m.finish_copy("f", 0).unwrap();
        let info = m.get("f").unwrap();
        assert_eq!((info.tier, info.state), (0, PlacementState::Placed));
        assert!(m.take_reused(id), "transitions carry the label over");
        assert!(!m.take_reused(id), "taking it clears it");
    }

    #[test]
    fn evict_with_holds_the_file_while_the_copy_is_deleted() {
        let m = MetadataContainer::default();
        m.register("f", 10, 1);
        assert_eq!(m.evict_with("f", 1, || ()).unwrap(), None, "not placed");
        m.begin_copy("f", 0).unwrap();
        m.finish_copy("f", 0).unwrap();
        let during = m
            .evict_with("f", 1, || {
                // Reads already resolve to the source, and nobody can
                // start a placement that the delete would then destroy.
                assert!(!m.begin_copy("f", 0).unwrap());
                m.get("f").unwrap()
            })
            .unwrap()
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
}
