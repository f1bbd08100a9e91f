//! The copy-lifecycle [`EventJournal`]: a bounded ring of [`Event`]s.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::locks;
use crate::TierId;

/// Why a copy entered a tier, or why a queued one was withdrawn: the
/// `cause` of `copy_completed` and `prefetch_canceled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TransitionCause {
    /// A foreground read demanded the file (a peer-served install too: a
    /// read triggered the peer fetch).
    Demand,
    /// The access plan (clairvoyant prefetch) drove it.
    Plan,
    /// The transfer engine's drain withdrew it at shutdown.
    Drain,
}

/// A structured telemetry event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", tag = "event")]
pub enum EventKind {
    /// A background copy was handed to the pool.
    CopyScheduled {
        /// Logical file name.
        file: String,
        /// File size in bytes.
        bytes: u64,
    },
    /// A pool worker began executing the copy.
    CopyStarted {
        /// Logical file name.
        file: String,
    },
    /// The copy installed the file on `tier`.
    CopyCompleted {
        /// Logical file name.
        file: String,
        /// Destination tier.
        tier: TierId,
        /// Bytes written.
        bytes: u64,
        /// Copy duration, microseconds (wall clock or virtual).
        micros: u64,
        /// What drove the copy: `demand` or `plan`.
        cause: TransitionCause,
    },
    /// The copy failed; quota was released and metadata reverted.
    CopyFailed {
        /// Logical file name.
        file: String,
        /// Failure description.
        reason: String,
    },
    /// The placement policy chose a destination tier.
    PlacementDecided {
        /// Logical file name.
        file: String,
        /// Chosen tier.
        tier: TierId,
        /// Tier quota bytes in use after the reservation.
        used: u64,
        /// Tier quota capacity in bytes.
        capacity: u64,
    },
    /// No tier had room; the file stays on the PFS.
    PlacementSkipped {
        /// Logical file name.
        file: String,
        /// Why placement was skipped.
        reason: String,
    },
    /// A file was evicted from a tier. The `policy_decision` journalled
    /// just before it, at the same `t_us`, says why (`plan_evict` or
    /// `pressure_evict`).
    Evicted {
        /// Logical file name.
        file: String,
        /// Tier the file was evicted from.
        tier: TierId,
        /// File size in bytes.
        bytes: u64,
    },
    /// A file was removed from a tier for a non-eviction reason
    /// (failed-copy cleanup, teardown).
    Removed {
        /// Logical file name.
        file: String,
        /// Tier the file was removed from.
        tier: TierId,
    },
    /// A prefetch copy was issued from an access plan (the prefetch-lane
    /// analogue of `copy_scheduled`).
    PrefetchScheduled {
        /// Logical file name.
        file: String,
        /// File size in bytes.
        bytes: u64,
    },
    /// A demand read arrived for a file whose prefetch copy was still
    /// queued; the job was promoted to the demand lane instead of
    /// enqueueing a duplicate.
    PrefetchPromoted {
        /// Logical file name.
        file: String,
    },
    /// A queued prefetch copy was canceled before running (its plan was
    /// replaced or dropped).
    PrefetchCanceled {
        /// Logical file name.
        file: String,
        /// Who withdrew it: the plan (`plan`) or the drain (`drain`).
        cause: TransitionCause,
    },
    /// A copy-pool worker thread could not be joined at shutdown (it died
    /// of a panic outside the per-task catch). `file` carries the worker's
    /// thread name.
    WorkerJoinFailed {
        /// Worker thread name (reported in the journal's file column).
        file: String,
    },
    /// The transfer engine's drain withdrew queued prefetch copies before
    /// joining its workers (the per-file cancels precede this summary).
    PrefetchDrained {
        /// Number of queued prefetch copies withdrawn.
        canceled: u64,
    },
    /// A remote-lane install was scheduled: a peer served the file's bytes
    /// node-to-node and the install stages them locally (the peer-cache
    /// analogue of `copy_scheduled`).
    RemoteScheduled {
        /// Logical file name.
        file: String,
        /// File size in bytes.
        bytes: u64,
        /// Owning peer's node id.
        peer: u64,
    },
    /// A remote read exceeded its deadline (peer slow or down); the job
    /// fell back to copying from the PFS source instead of aborting.
    /// Distinct from `copy_failed` so peer slowness is attributable.
    RemoteTimeout {
        /// Logical file name.
        file: String,
        /// What timed out.
        reason: String,
    },
    /// A tier crossed the quarantine threshold (permanent error, too many
    /// consecutive failures, or error-rate EWMA); placement skips it and
    /// reads of its resident files fall back down-hierarchy.
    TierQuarantined {
        /// Quarantined tier.
        tier: TierId,
        /// What pushed it over (error class / threshold description).
        reason: String,
    },
    /// A half-open probe ran against a quarantined tier.
    TierProbed {
        /// Probed tier.
        tier: TierId,
        /// Whether the probe I/O succeeded.
        ok: bool,
    },
    /// A quarantined tier was re-admitted after a successful probe.
    TierRecovered {
        /// Recovered tier.
        tier: TierId,
    },
    /// A copy aimed at a now-quarantined tier was requeued (placement
    /// re-run against the healthy tiers) instead of failing outright.
    CopyRequeued {
        /// Logical file name.
        file: String,
        /// Why the original target was abandoned.
        reason: String,
    },
    /// A dead copy's tier-capacity reservation was reclaimed during
    /// panic-revert cleanup (quota released, metadata already reverted).
    ReservationReclaimed {
        /// Logical file name.
        file: String,
        /// Tier whose quota was released.
        tier: TierId,
        /// Bytes released.
        bytes: u64,
    },
    /// A policy verdict at one of the engine's four decision points
    /// (demand admit, prefetch admit, pressure/ENOSPC evict, plan evict).
    PolicyDecision {
        /// Logical file name the verdict applies to.
        file: String,
        /// Decision point (`demand_admit` / `prefetch_admit` /
        /// `pressure_evict` / `plan_evict`).
        point: String,
        /// Composed policy name (`admission/eviction/scorer`).
        policy: String,
        /// Verdict: `admit`, `deny`, or `evict`.
        verdict: String,
        /// Why (cause attribution for `monarch report`).
        reason: String,
    },
}

impl EventKind {
    /// The snake_case tag used in JSON lines and displays.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::CopyScheduled { .. } => "copy_scheduled",
            EventKind::CopyStarted { .. } => "copy_started",
            EventKind::CopyCompleted { .. } => "copy_completed",
            EventKind::CopyFailed { .. } => "copy_failed",
            EventKind::PlacementDecided { .. } => "placement_decided",
            EventKind::PlacementSkipped { .. } => "placement_skipped",
            EventKind::Evicted { .. } => "evicted",
            EventKind::Removed { .. } => "removed",
            EventKind::PrefetchScheduled { .. } => "prefetch_scheduled",
            EventKind::PrefetchPromoted { .. } => "prefetch_promoted",
            EventKind::PrefetchCanceled { .. } => "prefetch_canceled",
            EventKind::WorkerJoinFailed { .. } => "worker_join_failed",
            EventKind::PrefetchDrained { .. } => "prefetch_drained",
            EventKind::RemoteScheduled { .. } => "remote_scheduled",
            EventKind::RemoteTimeout { .. } => "remote_timeout",
            EventKind::TierQuarantined { .. } => "tier_quarantined",
            EventKind::TierProbed { .. } => "tier_probed",
            EventKind::TierRecovered { .. } => "tier_recovered",
            EventKind::CopyRequeued { .. } => "copy_requeued",
            EventKind::ReservationReclaimed { .. } => "reservation_reclaimed",
            EventKind::PolicyDecision { .. } => "policy_decision",
        }
    }

    /// Logical file name the event refers to.
    #[must_use]
    pub fn file(&self) -> &str {
        match self {
            EventKind::CopyScheduled { file, .. }
            | EventKind::CopyStarted { file }
            | EventKind::CopyCompleted { file, .. }
            | EventKind::CopyFailed { file, .. }
            | EventKind::PlacementDecided { file, .. }
            | EventKind::PlacementSkipped { file, .. }
            | EventKind::Evicted { file, .. }
            | EventKind::Removed { file, .. }
            | EventKind::PrefetchScheduled { file, .. }
            | EventKind::PrefetchPromoted { file }
            | EventKind::PrefetchCanceled { file, .. }
            | EventKind::WorkerJoinFailed { file }
            | EventKind::RemoteScheduled { file, .. }
            | EventKind::RemoteTimeout { file, .. }
            | EventKind::CopyRequeued { file, .. }
            | EventKind::ReservationReclaimed { file, .. }
            | EventKind::PolicyDecision { file, .. } => file,
            // Drain summaries and tier-health transitions are not about
            // any one file.
            EventKind::PrefetchDrained { .. }
            | EventKind::TierQuarantined { .. }
            | EventKind::TierProbed { .. }
            | EventKind::TierRecovered { .. } => "",
        }
    }
}

/// One journal entry: a sequence number, a timestamp (microseconds since
/// registry creation — wall clock in the middleware, virtual time in the
/// simulator) and the event payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Monotonic sequence number (global across the journal's lifetime,
    /// including events later overwritten by the ring).
    pub seq: u64,
    /// Microseconds since the registry was created.
    pub t_us: u64,
    /// The event payload.
    #[serde(flatten)]
    pub kind: EventKind,
}

/// Append a JSON string literal (with escaping) to `out`: the trace
/// exporter's hand-rolled emitter writes its strings through it.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Render the event as one JSON object (no trailing newline): the
    /// `serde` document of this type.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("an event always serializes")
    }
}

/// Bounded ring-buffer journal of [`Event`]s.
///
/// Appends are `O(1)`: under the (short) lock the ring pops its oldest
/// entry when full and pushes the new one. When disabled, `record` is a
/// single branch.
pub struct EventJournal {
    enabled: bool,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    buf: Mutex<VecDeque<Event>>,
}

impl EventJournal {
    /// A journal keeping at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize, enabled: bool) -> Self {
        let capacity = capacity.max(1);
        Self {
            enabled,
            capacity,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
        }
    }

    /// Whether the journal records anything (fixed at construction).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Maximum events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events recorded over the journal's lifetime (including overwritten
    /// ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events overwritten by the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        locks::lock(&self.buf).len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an event stamped `t_us` microseconds.
    pub fn record_at(&self, t_us: u64, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        let mut buf = locks::lock(&self.buf);
        // Sequence assigned under the lock so buffered events are strictly
        // ordered by seq.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(Event { seq, t_us, kind });
    }

    /// Copy out the buffered events, oldest first (non-destructive).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        locks::lock(&self.buf).iter().cloned().collect()
    }

    /// Render the buffered events as JSON lines (one object per line,
    /// oldest first), leaving the journal intact.
    #[must_use]
    pub fn json_lines(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96);
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&e.to_json_line());
        }
        out
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}
