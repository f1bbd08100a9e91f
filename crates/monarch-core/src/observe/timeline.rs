//! The tier-residency timeline: a bounded event log of per-file tier
//! transitions, reconstructable into "where did file X live between t0
//! and t1".
//!
//! The event journal already records copy lifecycle events, but it is a
//! mixed stream bounded for liveness, not for history: a busy run evicts
//! the early epoch's admissions long before anyone asks about them. The
//! timeline keeps only *transitions* — admitted / promoted / evicted /
//! canceled, each with the cause that moved it — so the same ring depth
//! covers a much longer stretch of placement history, and
//! [`ResidencyTimeline::residency`] can replay it into residency spans.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::hierarchy::TierId;
use crate::locks;

/// What happened to the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ResidencyEventKind {
    /// A copy landed: the file became resident on `tier`.
    Admitted,
    /// A queued prefetch copy was promoted to the demand lane (no tier
    /// change yet — informational).
    Promoted,
    /// The file left `tier`, back to the source.
    Evicted,
    /// A queued copy toward `tier` was withdrawn before it ran.
    Canceled,
}

/// Why it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TransitionCause {
    /// A foreground read demanded the file.
    Demand,
    /// The access plan (clairvoyant prefetch) drove it.
    Plan,
    /// A placement decision pushed it out (legacy/explicit evictions).
    Eviction,
    /// An eviction-policy verdict pushed it out (LRU/clairvoyant/learned
    /// selection making room for a newcomer).
    Policy,
    /// Engine shutdown withdrew it.
    Drain,
}

/// One transition. Timestamps are registry-clock microseconds (virtual
/// micros in the simulator).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidencyEvent {
    /// Monotonic sequence number (gaps mean the ring dropped history).
    pub seq: u64,
    /// Transition instant.
    pub t_us: u64,
    /// Logical file name.
    pub file: String,
    /// The tier entered (Admitted), left (Evicted), or targeted
    /// (Promoted/Canceled).
    pub tier: TierId,
    /// What happened.
    pub kind: ResidencyEventKind,
    /// Why.
    pub cause: TransitionCause,
}

/// A contiguous stretch of local-tier residency reconstructed from the
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidencySpan {
    /// The local tier the file lived on.
    pub tier: TierId,
    /// Span start (admission, clipped to the query window).
    pub from_us: u64,
    /// Span end (eviction, or the query window's end while resident).
    pub to_us: u64,
}

/// Bounded, non-draining ring of [`ResidencyEvent`]s.
pub struct ResidencyTimeline {
    enabled: bool,
    capacity: usize,
    ring: Mutex<VecDeque<ResidencyEvent>>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for ResidencyTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidencyTimeline")
            .field("enabled", &self.enabled)
            .field("capacity", &self.capacity)
            .field("recorded", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl ResidencyTimeline {
    /// A timeline holding at most `capacity` events (oldest dropped
    /// first). Disabled timelines take one branch per call.
    #[must_use]
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether the timeline records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a transition at `t_us`.
    pub fn record_at(
        &self,
        t_us: u64,
        file: &str,
        tier: TierId,
        kind: ResidencyEventKind,
        cause: TransitionCause,
    ) {
        if !self.enabled {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = locks::lock(&self.ring);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ResidencyEvent {
            seq,
            t_us,
            file: file.to_string(),
            tier,
            kind,
            cause,
        });
    }

    /// Transitions recorded over the lifetime (including dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Transitions overwritten by the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The buffered events, oldest first. **Non-destructive**: the ring
    /// keeps its contents, so concurrent consumers all see the same
    /// history.
    #[must_use]
    pub fn events(&self) -> Vec<ResidencyEvent> {
        locks::lock(&self.ring).iter().cloned().collect()
    }

    /// Replay the timeline into `file`'s local-tier residency spans
    /// overlapping `[t0_us, t1_us]`. An admission with no matching
    /// eviction is still resident: its span is clipped to `t1_us`.
    #[must_use]
    pub fn residency(&self, file: &str, t0_us: u64, t1_us: u64) -> Vec<ResidencySpan> {
        let mut spans = Vec::new();
        let mut open: Option<(TierId, u64)> = None;
        for ev in locks::lock(&self.ring).iter().filter(|e| e.file == file) {
            match ev.kind {
                ResidencyEventKind::Admitted => {
                    // Re-admission without an eviction event (history gap):
                    // close the stale span at the new admission.
                    if let Some((tier, since)) = open.take() {
                        spans.push((tier, since, ev.t_us));
                    }
                    open = Some((ev.tier, ev.t_us));
                }
                ResidencyEventKind::Evicted => {
                    if let Some((tier, since)) = open.take() {
                        spans.push((tier, since, ev.t_us));
                    }
                }
                ResidencyEventKind::Promoted | ResidencyEventKind::Canceled => {}
            }
        }
        if let Some((tier, since)) = open {
            spans.push((tier, since, t1_us.max(since)));
        }
        spans
            .into_iter()
            .filter(|&(_, from, to)| to >= t0_us && from <= t1_us)
            .map(|(tier, from, to)| ResidencySpan {
                tier,
                from_us: from.max(t0_us),
                to_us: to.min(t1_us),
            })
            .collect()
    }

    /// Serializable snapshot: counters plus the buffered events.
    #[must_use]
    pub fn snapshot(&self) -> TimelineSnapshot {
        TimelineSnapshot {
            recorded: self.recorded(),
            dropped: self.dropped(),
            events: self.events(),
        }
    }
}

/// Serializable timeline state — the `timeline` section of the observe
/// snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineSnapshot {
    /// Transitions recorded over the lifetime.
    pub recorded: u64,
    /// Transitions overwritten by the ring bound.
    pub dropped: u64,
    /// The buffered events, oldest first.
    pub events: Vec<ResidencyEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timeline_records_nothing() {
        let t = ResidencyTimeline::new(false, 8);
        t.record_at(
            1,
            "f",
            0,
            ResidencyEventKind::Admitted,
            TransitionCause::Demand,
        );
        assert_eq!(t.recorded(), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn ring_bound_drops_oldest_and_counts() {
        let t = ResidencyTimeline::new(true, 2);
        for i in 0..4u64 {
            t.record_at(
                i,
                &format!("f{i}"),
                0,
                ResidencyEventKind::Admitted,
                TransitionCause::Plan,
            );
        }
        assert_eq!(t.recorded(), 4);
        assert_eq!(t.dropped(), 2);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].file, "f2");
        assert_eq!(evs[1].seq, 3);
        // Non-destructive: a second export sees the same events.
        assert_eq!(t.events(), evs);
    }

    #[test]
    fn residency_reconstruction_clips_and_closes() {
        let t = ResidencyTimeline::new(true, 64);
        let admit = |t_us, file: &str, tier| {
            t.record_at(
                t_us,
                file,
                tier,
                ResidencyEventKind::Admitted,
                TransitionCause::Demand,
            );
        };
        let evict = |t_us, file: &str, tier| {
            t.record_at(
                t_us,
                file,
                tier,
                ResidencyEventKind::Evicted,
                TransitionCause::Eviction,
            );
        };
        admit(100, "x", 0);
        evict(300, "x", 0);
        admit(500, "x", 1);
        admit(150, "y", 0);

        // Full window: both of x's residencies, the second still open.
        let spans = t.residency("x", 0, 1_000);
        assert_eq!(
            spans,
            vec![
                ResidencySpan {
                    tier: 0,
                    from_us: 100,
                    to_us: 300
                },
                ResidencySpan {
                    tier: 1,
                    from_us: 500,
                    to_us: 1_000
                },
            ]
        );
        // Clipped window inside the first span.
        let spans = t.residency("x", 200, 250);
        assert_eq!(
            spans,
            vec![ResidencySpan {
                tier: 0,
                from_us: 200,
                to_us: 250
            }]
        );
        // Window before any admission: empty.
        assert!(t.residency("x", 0, 50).is_empty());
        // Other files do not leak in.
        assert_eq!(t.residency("y", 0, 1_000).len(), 1);
    }

    #[test]
    fn promoted_and_canceled_do_not_open_spans() {
        let t = ResidencyTimeline::new(true, 8);
        t.record_at(
            10,
            "f",
            0,
            ResidencyEventKind::Promoted,
            TransitionCause::Demand,
        );
        t.record_at(
            20,
            "f",
            0,
            ResidencyEventKind::Canceled,
            TransitionCause::Drain,
        );
        assert!(t.residency("f", 0, 100).is_empty());
        assert_eq!(t.recorded(), 2);
    }
}
