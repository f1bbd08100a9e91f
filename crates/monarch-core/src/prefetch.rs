//! Clairvoyant prefetching: access-plan-driven staging ahead of the read
//! cursor.
//!
//! DL training frameworks know the shuffled access order of an epoch *before*
//! the epoch starts (the shuffle is seeded). Reactive placement — MONARCH's
//! default — only stages a file after its first read misses the fast tier, so
//! epoch 1 pays a PFS round-trip per file. The prefetch subsystem removes that
//! penalty (the idea behind NoPFS-style clairvoyant prefetching): the loader
//! submits an [`AccessPlan`] (the ordered file-name sequence for the upcoming
//! epoch) and a prefetcher walks the plan *ahead* of the foreground read
//! cursor, issuing background copies through the normal placement path.
//!
//! Two mechanisms keep prefetch from starving demand traffic:
//!
//! - **Bounded lookahead** — at most `lookahead` plan entries may be issued
//!   beyond the furthest plan position the foreground readers have reached.
//!   Reads advance the cursor, which releases more of the plan.
//! - **In-flight byte cap** — the sum of sizes of issued-but-unfinished
//!   prefetch copies stays under `max_inflight_bytes` (one copy is always
//!   allowed so a single file larger than the cap cannot stall the window).
//!
//! This module is the pure bookkeeping core: [`PrefetchWindow`] tracks the
//! plan, the cursor, and the in-flight set, and decides *which* file to issue
//! next. It never touches storage: its owner — the transfer engine, or the
//! `dlpipe` simulator — walks it through
//! [`Lifecycle`](crate::lifecycle::Lifecycle)'s plan calls.

use crate::hash::FxHashMap;
use crate::metadata::FileId;
use crate::telemetry::PrefetchSample;

/// An ordered sequence of file names the framework expects to read next,
/// e.g. one epoch of a seeded shuffle.
///
/// Duplicates are allowed (the window keeps the first occurrence); unknown
/// files are dropped at submission time against the metadata namespace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessPlan {
    files: Vec<String>,
}

impl AccessPlan {
    /// Build a plan from an ordered list of file names.
    #[must_use]
    pub fn new(files: Vec<String>) -> Self {
        Self { files }
    }

    /// Parse a newline-separated list of file names (the FFI wire format).
    /// Blank lines and surrounding whitespace are ignored.
    #[must_use]
    pub fn from_lines(text: &str) -> Self {
        Self {
            files: text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_owned)
                .collect(),
        }
    }

    /// The ordered file names.
    #[must_use]
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// Number of entries in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the plan holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// Knobs bounding how far and how heavily the prefetcher runs ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// How many plan entries past the read cursor may be issued. `0`
    /// disables prefetching entirely.
    pub lookahead: usize,
    /// Cap on the summed size of issued-but-unfinished prefetch copies.
    /// `0` means unbounded.
    pub max_inflight_bytes: u64,
}

impl PrefetchConfig {
    /// Disabled: plans are accepted but never issue a copy.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            lookahead: 0,
            max_inflight_bytes: 0,
        }
    }

    /// True when prefetching is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.lookahead > 0
    }
}

/// One plan entry's lifecycle inside the window.
#[derive(Debug, Clone)]
struct Entry {
    id: FileId,
    size: u64,
    /// A copy was issued for this entry (at most once, ever).
    issued: bool,
    /// The issued copy reached a terminal state (completed, skipped,
    /// failed, or canceled) — it no longer counts against the byte cap.
    resolved: bool,
    /// The foreground has read this file at least once.
    read_seen: bool,
    /// Trace flow id of the issued copy (0 = none / tracing off).
    flow: u64,
}

/// What [`PrefetchWindow::on_read`] observed about a foreground read.
#[derive(Debug, Clone, Copy)]
pub struct ReadNote {
    /// Plan position of the file.
    pub index: usize,
    /// First time the foreground touched this file.
    pub first_read: bool,
    /// A prefetch copy was issued for it.
    pub issued: bool,
    /// That copy already reached a terminal state.
    pub resolved: bool,
    /// Trace flow id of the issued copy (0 = none).
    pub flow: u64,
}

/// What the plan cursor made of a foreground read, for
/// [`Lifecycle::read_served`](crate::lifecycle::Lifecycle::read_served) to
/// judge the prefetch hit by and to trace and class the read with.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadFeedback {
    /// Flow id of the prefetch copy issued for this file (`0` if none or
    /// untraced).
    pub flow: u64,
    /// The file was covered by the submitted access plan.
    pub planned: bool,
    /// This read was the file's first, and the window had issued the file:
    /// a prefetch hit when the read does not touch the PFS.
    pub first_issued: bool,
}

impl From<ReadNote> for ReadFeedback {
    fn from(note: ReadNote) -> Self {
        Self {
            flow: note.flow,
            planned: true,
            first_issued: note.issued && note.first_read,
        }
    }
}

/// Bookkeeping for one submitted plan: cursor, lookahead window, and the
/// in-flight byte budget. Pure state machine — storage-free, lock-free
/// (callers wrap it in a mutex).
#[derive(Debug)]
pub struct PrefetchWindow {
    entries: Vec<Entry>,
    pos: FxHashMap<FileId, usize>,
    /// Next plan index eligible for issue. Invariant: `next <= cursor + lookahead`.
    next: usize,
    /// One past the furthest plan position the foreground has read.
    cursor: usize,
    lookahead: usize,
    max_inflight_bytes: u64,
    /// Plan indices issued and not yet resolved.
    inflight: Vec<usize>,
    inflight_bytes: u64,
}

impl PrefetchWindow {
    /// Build a window over `(id, size)` pairs of the namespace's files in
    /// plan order. Duplicates keep their first occurrence only.
    #[must_use]
    pub fn new(files: &[(FileId, u64)], cfg: PrefetchConfig) -> Self {
        let mut entries = Vec::with_capacity(files.len());
        let mut pos = FxHashMap::default();
        for &(id, size) in files {
            if pos.contains_key(&id) {
                continue;
            }
            pos.insert(id, entries.len());
            entries.push(Entry {
                id,
                size,
                issued: false,
                resolved: false,
                read_seen: false,
                flow: 0,
            });
        }
        Self {
            entries,
            pos,
            next: 0,
            cursor: 0,
            lookahead: cfg.lookahead,
            max_inflight_bytes: cfg.max_inflight_bytes,
            inflight: Vec::new(),
            inflight_bytes: 0,
        }
    }

    /// Number of (deduplicated) plan entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the plan holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One past the furthest plan position read by the foreground.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Summed size of issued-but-unresolved prefetch copies.
    #[must_use]
    pub fn inflight_bytes(&self) -> u64 {
        self.inflight_bytes
    }

    /// Number of issued-but-unresolved prefetch copies.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// The window's part of the pipeline gauges: copies issued and not yet
    /// resolved, their bytes, and how far the issue index runs ahead of the
    /// read cursor.
    #[must_use]
    pub fn sample(&self) -> PrefetchSample {
        PrefetchSample {
            copies: self.inflight.len() as u64,
            bytes: self.inflight_bytes,
            lag_entries: self.next.saturating_sub(self.cursor) as u64,
        }
    }

    /// Record a foreground read. Advances the cursor to just past the
    /// file's plan position (never backwards) and reports the entry's
    /// prefetch state. Files not in the plan return `None` and leave the
    /// window untouched.
    pub fn on_read(&mut self, file: FileId) -> Option<ReadNote> {
        let &idx = self.pos.get(&file)?;
        let e = &mut self.entries[idx];
        let first_read = !e.read_seen;
        e.read_seen = true;
        let note = ReadNote {
            index: idx,
            first_read,
            issued: e.issued,
            resolved: e.resolved,
            flow: e.flow,
        };
        if idx + 1 > self.cursor {
            self.cursor = idx + 1;
        }
        Some(note)
    }

    /// Pick the next plan entry to issue, honouring the lookahead window
    /// and the in-flight byte cap, and mark it issued. Returns `None` when
    /// the window is closed (plan exhausted, lookahead reached, or byte
    /// budget spent). Each entry is returned at most once, ever.
    pub fn next_to_issue(&mut self) -> Option<(usize, FileId, u64)> {
        // `lookahead == 0` is the disabled configuration: it must never
        // issue, even after foreground reads drag the cursor past
        // unissued entries (where `next < cursor + 0` would hold).
        if self.lookahead == 0
            || self.next >= self.entries.len()
            || self.next >= self.cursor + self.lookahead
        {
            return None;
        }
        let size = self.entries[self.next].size;
        // Always allow one copy in flight so a file larger than the cap
        // cannot wedge the window.
        if self.max_inflight_bytes > 0
            && !self.inflight.is_empty()
            && self.inflight_bytes.saturating_add(size) > self.max_inflight_bytes
        {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        let e = &mut self.entries[idx];
        e.issued = true;
        self.inflight.push(idx);
        self.inflight_bytes += size;
        Some((idx, e.id, size))
    }

    /// Attach the trace flow id of the copy issued for `index`.
    pub fn set_flow(&mut self, index: usize, flow: u64) {
        if let Some(e) = self.entries.get_mut(index) {
            e.flow = flow;
        }
    }

    /// Mark an issued entry terminal (copy completed, skipped, failed, or
    /// canceled), releasing its share of the byte budget. Idempotent.
    pub fn resolve(&mut self, index: usize) {
        let Some(e) = self.entries.get_mut(index) else {
            return;
        };
        if !e.issued || e.resolved {
            return;
        }
        e.resolved = true;
        self.inflight.retain(|&i| i != index);
        self.inflight_bytes = self.inflight_bytes.saturating_sub(e.size);
    }

    /// Sweep the in-flight set with a terminal-state oracle (typically the
    /// metadata container: a file whose state left `Copying` is terminal)
    /// and resolve every entry the oracle confirms.
    pub fn poll_resolved(&mut self, is_terminal: impl Fn(FileId) -> bool) {
        let done: Vec<usize> = self
            .inflight
            .iter()
            .copied()
            .filter(|&i| is_terminal(self.entries[i].id))
            .collect();
        for idx in done {
            self.resolve(idx);
        }
    }

    /// Close the window: resolve everything still in flight and report
    /// per-entry `(id, issued, read_seen)` for hit/waste accounting.
    /// Afterwards the window is inert: nothing further will issue.
    pub fn drain(&mut self) -> Vec<(FileId, bool, bool)> {
        let inflight = std::mem::take(&mut self.inflight);
        for idx in inflight {
            let e = &mut self.entries[idx];
            e.resolved = true;
        }
        self.inflight_bytes = 0;
        self.next = self.entries.len();
        self.cursor = self.entries.len();
        self.entries
            .iter()
            .map(|e| (e.id, e.issued, e.read_seen))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::MetadataContainer;

    /// The id of `name` in one namespace shared by every test of this
    /// module: equal names, equal ids.
    fn id(name: &str) -> FileId {
        static NAMES: std::sync::OnceLock<MetadataContainer> = std::sync::OnceLock::new();
        NAMES.get_or_init(MetadataContainer::default).intern(name)
    }

    fn plan(n: usize, size: u64) -> Vec<(FileId, u64)> {
        (0..n).map(|i| (id(&format!("f{i:03}")), size)).collect()
    }

    fn cfg(lookahead: usize, max_bytes: u64) -> PrefetchConfig {
        PrefetchConfig {
            lookahead,
            max_inflight_bytes: max_bytes,
        }
    }

    #[test]
    fn issues_at_most_lookahead_ahead_of_cursor() {
        let mut w = PrefetchWindow::new(&plan(10, 100), cfg(3, 0));
        let mut issued = Vec::new();
        while let Some((i, _, _)) = w.next_to_issue() {
            issued.push(i);
        }
        assert_eq!(
            issued,
            vec![0, 1, 2],
            "cursor 0 + lookahead 3 bounds the burst"
        );

        // Reading f000 moves the cursor to 1 and releases exactly one more.
        assert!(w.on_read(id("f000")).unwrap().first_read);
        assert_eq!(w.next_to_issue().map(|(i, _, _)| i), Some(3));
        assert_eq!(w.next_to_issue(), None);
    }

    #[test]
    fn byte_cap_backpressure_and_release() {
        let mut w = PrefetchWindow::new(&plan(10, 100), cfg(10, 250));
        assert!(w.next_to_issue().is_some());
        assert!(w.next_to_issue().is_some());
        assert_eq!(
            w.next_to_issue(),
            None,
            "third 100-byte copy would exceed 250"
        );
        assert_eq!(w.inflight_bytes(), 200);

        w.resolve(0);
        assert_eq!(w.inflight_bytes(), 100);
        assert_eq!(w.next_to_issue().map(|(i, _, _)| i), Some(2));
    }

    #[test]
    fn oversized_file_still_issues_when_alone() {
        let mut w = PrefetchWindow::new(&plan(2, 1000), cfg(2, 64));
        assert!(
            w.next_to_issue().is_some(),
            "one in-flight copy is always allowed"
        );
        assert_eq!(w.next_to_issue(), None);
        w.resolve(0);
        assert!(w.next_to_issue().is_some());
    }

    #[test]
    fn never_reissues_and_dedups_plan() {
        let files = [(id("a"), 1), (id("b"), 1), (id("a"), 1)];
        let mut w = PrefetchWindow::new(&files, cfg(10, 0));
        assert_eq!(w.len(), 2, "duplicate keeps first occurrence");
        let ids: Vec<FileId> =
            std::iter::from_fn(|| w.next_to_issue().map(|(_, f, _)| f)).collect();
        assert_eq!(ids, vec![id("a"), id("b")]);
        w.on_read(id("a"));
        w.on_read(id("b"));
        assert_eq!(w.next_to_issue(), None, "issued entries never come back");
    }

    #[test]
    fn reads_outside_plan_are_ignored() {
        let mut w = PrefetchWindow::new(&plan(2, 1), cfg(1, 0));
        assert!(w.on_read(id("not-in-plan")).is_none());
        assert_eq!(w.cursor(), 0);
    }

    #[test]
    fn read_note_reports_prefetch_state() {
        let mut w = PrefetchWindow::new(&plan(3, 1), cfg(3, 0));
        let (i, _, _) = w.next_to_issue().unwrap();
        w.set_flow(i, 77);
        let n = w.on_read(id("f000")).unwrap();
        assert!(n.first_read && n.issued && !n.resolved);
        assert_eq!(n.flow, 77);
        w.resolve(i);
        let n = w.on_read(id("f000")).unwrap();
        assert!(!n.first_read && n.resolved);
    }

    #[test]
    fn drain_is_terminal_and_reports_accounting() {
        let mut w = PrefetchWindow::new(&plan(4, 10), cfg(2, 0));
        w.next_to_issue().unwrap();
        w.next_to_issue().unwrap();
        w.on_read(id("f000"));
        let report = w.drain();
        assert_eq!(w.inflight(), 0);
        assert_eq!(w.inflight_bytes(), 0);
        assert_eq!(w.next_to_issue(), None, "drained window issues nothing");
        // (id, issued, read_seen)
        assert_eq!(report[0], (id("f000"), true, true));
        assert_eq!(report[1], (id("f001"), true, false));
        assert_eq!(report[2], (id("f002"), false, false));
    }

    #[test]
    fn poll_resolved_uses_oracle() {
        let mut w = PrefetchWindow::new(&plan(3, 5), cfg(3, 0));
        w.next_to_issue().unwrap();
        w.next_to_issue().unwrap();
        w.poll_resolved(|f| f == id("f000"));
        assert_eq!(w.inflight(), 1);
        assert_eq!(w.inflight_bytes(), 5);
    }

    #[test]
    fn access_plan_from_lines_skips_blanks() {
        let p = AccessPlan::from_lines("a\n\n  b  \nc\n");
        assert_eq!(p.files(), ["a", "b", "c"]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
