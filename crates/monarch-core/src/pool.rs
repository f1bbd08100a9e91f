//! Background copy thread pool with three priority lanes.
//!
//! The paper's prototype used the CTPL C++ thread-pool library; this is an
//! equivalent built on the shared three-lane queue discipline
//! ([`crate::transfer::LaneQueues`]): a fixed set of worker threads
//! draining a *demand* lane (copies scheduled by a foreground read miss),
//! then a *remote* lane (installs of bytes fetched from a peer), before a
//! *prefetch* lane (copies issued ahead of the read cursor by the
//! clairvoyant prefetcher), with graceful shutdown (drain-then-join) and
//! an in-flight counter so callers can wait for quiescence — used by tests
//! and by the end-of-epoch barrier in the real trainer.
//!
//! The lane split is what lets prefetch traffic ride along without ever
//! starving demand misses: a worker always prefers the demand lane, and a
//! queued prefetch job can be [`ThreadPool::promote`]d into the demand lane
//! when a foreground read arrives for its file (the dedup guard — the read
//! upgrades the existing job instead of enqueueing a duplicate copy).
//! Queued-but-unstarted prefetch jobs can also be bulk-canceled with
//! [`ThreadPool::drain_prefetch`] at an epoch boundary.
//!
//! Accounting invariant: every increment of `pending` is matched by exactly
//! one decrement-and-notify, whether the task runs, panics, is refused by a
//! closed pool, or is canceled out of the prefetch lane. `wait_idle`
//! correctness depends on this — a leaked increment parks waiters forever.
//!
//! The pool keeps no telemetry: what a copy waited and ran is booked by the
//! copy itself ([`Lifecycle::started`](crate::lifecycle::Lifecycle::started)).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::locks;
use crate::metadata::FileId;
use crate::transfer::LaneQueues;

/// A unit of background work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Which priority lane a task is queued on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Copies scheduled by a foreground read miss. Always drained first.
    Demand,
    /// Installs of file bytes fetched from a peer node's fast tier. Demand
    /// driven (a foreground read triggered the fetch) but the read was
    /// already served from the fetched buffer, so these yield to local
    /// demand copies while still outranking speculative prefetch.
    Remote,
    /// Copies issued ahead of the read cursor. Run only when the demand
    /// lane is empty; may be promoted or canceled while queued.
    Prefetch,
}

/// What travels through the queue: the closure plus its label — the file
/// the task copies, the key [`ThreadPool::promote`] looks for.
struct Job {
    label: Option<FileId>,
    run: Task,
}

/// The three lanes plus the closed flag, under one lock so lane moves
/// (promotion) and shutdown are atomic with respect to workers popping.
struct Queues {
    lanes: LaneQueues<Job>,
    closed: bool,
}

struct Shared {
    /// Tasks submitted but not yet finished (queued + running).
    pending: AtomicUsize,
    /// Total tasks ever submitted (accepted by the queue).
    submitted: AtomicU64,
    /// Tasks whose closure panicked (caught; the worker survives).
    panicked: AtomicU64,
    /// Worker threads that could not be joined at shutdown (their thread
    /// panicked outside the per-task catch).
    join_failures: AtomicU64,
    /// Lane queues; workers sleep on `work_cv` when all are empty.
    queues: Mutex<Queues>,
    work_cv: Condvar,
    /// Wakes `wait_idle` when `pending` hits zero.
    idle_mutex: Mutex<()>,
    idle_cv: Condvar,
}

impl Shared {
    fn new(closed: bool) -> Self {
        Self {
            pending: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            join_failures: AtomicU64::new(0),
            queues: Mutex::new(Queues {
                lanes: LaneQueues::new(),
                closed,
            }),
            work_cv: Condvar::new(),
            idle_mutex: Mutex::new(()),
            idle_cv: Condvar::new(),
        }
    }

    /// Balance one `pending` increment and wake idle waiters at zero.
    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = locks::lock(&self.idle_mutex);
            self.idle_cv.notify_all();
        }
    }
}

/// Fixed-size background worker pool.
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// A cloneable, read-only view of a pool's queue accounting, detached from
/// the pool's lifetime. The engine's [`Sampler`](crate::transfer::Sampler)
/// holds one so the document it assembles can carry lane depth and
/// in-flight jobs without borrowing the [`ThreadPool`] (which the transfer
/// engine owns by value).
#[derive(Clone)]
pub struct PoolProbe {
    shared: Arc<Shared>,
}

impl PoolProbe {
    /// Number of queued (not yet started) jobs on a lane.
    #[must_use]
    pub fn queued(&self, lane: Lane) -> usize {
        locks::lock(&self.shared.queues).lanes.queued(lane)
    }

    /// Tasks submitted but not yet completed (queued + running).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for PoolProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolProbe")
            .field("pending", &self.pending())
            .finish()
    }
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (minimum 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared::new(false));
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("monarch-copy-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let mut q = locks::lock(&shared.queues);
                            loop {
                                if let Some((job, _lane)) = q.lanes.pop() {
                                    break Some(job);
                                }
                                if q.closed {
                                    break None;
                                }
                                q = locks::wait(&shared.work_cv, q);
                            }
                        };
                        let Some(job) = job else { return };
                        // A panicking task must not kill the worker or
                        // leak its `pending` increment: either would
                        // eventually hang `wait_idle`.
                        if catch_unwind(AssertUnwindSafe(job.run)).is_err() {
                            shared.panicked.fetch_add(1, Ordering::Relaxed);
                        }
                        shared.finish_one();
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self { workers, shared }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// A detached [`PoolProbe`] over this pool's queue accounting.
    #[must_use]
    pub fn probe(&self) -> PoolProbe {
        PoolProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Submit a demand-lane task. Returns `false` if the pool is shutting
    /// down.
    pub fn submit(&self, task: Task) -> bool {
        self.submit_on(Lane::Demand, None, task)
    }

    /// Submit a task on a specific lane, under `label` if it has one.
    /// Returns `false` if the pool is shutting down.
    pub fn submit_on(&self, lane: Lane, label: Option<FileId>, task: Task) -> bool {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        {
            let mut q = locks::lock(&self.shared.queues);
            if q.closed {
                drop(q);
                // Shutdown raced us: roll back our increment through the
                // same path a finished task takes, so a waiter that
                // observed the transient pending count is woken rather
                // than parked forever.
                self.shared.finish_one();
                return false;
            }
            q.lanes.push(lane, Job { label, run: task });
        }
        self.shared.work_cv.notify_one();
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Move a queued prefetch-lane job to the back of the demand lane
    /// (dedup guard: a demand miss for a file already queued as a prefetch
    /// upgrades the existing job instead of enqueueing a duplicate).
    /// Returns `false` when no queued prefetch job carries `label` — it
    /// already started, finished, or never existed.
    pub fn promote(&self, label: FileId) -> bool {
        let mut q = locks::lock(&self.shared.queues);
        q.lanes.promote_where(|j| j.label == Some(label))
    }

    /// Cancel every queued-but-unstarted prefetch-lane job, balancing
    /// their `pending` increments, and return how many were removed. Each
    /// is dropped unrun, so whatever it owns reverts its side effects
    /// (e.g. a copy's metadata `Copying` state). Running jobs are
    /// unaffected.
    pub fn drain_prefetch(&self) -> usize {
        let dropped: Vec<Job> = {
            let mut q = locks::lock(&self.shared.queues);
            q.lanes.drain_prefetch()
        };
        let canceled = dropped.len();
        for job in dropped {
            // Dropped unrun: what it owns settles before the count says so.
            drop(job);
            self.shared.finish_one();
        }
        canceled
    }

    /// Number of queued (not yet started) jobs on a lane.
    #[must_use]
    pub fn queued(&self, lane: Lane) -> usize {
        locks::lock(&self.shared.queues).lanes.queued(lane)
    }

    /// Tasks submitted but not yet completed.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Total tasks accepted (refused submissions are not counted).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.shared.submitted.load(Ordering::Relaxed)
    }

    /// Tasks whose closure panicked (the panic is caught and counted; the
    /// worker keeps serving).
    #[must_use]
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Worker threads that could not be joined at the last shutdown —
    /// each one died of a panic outside the per-task catch. Surfaced in
    /// the middleware's stats and journal instead of panicking the caller.
    #[must_use]
    pub fn join_failures(&self) -> u64 {
        self.shared.join_failures.load(Ordering::Relaxed)
    }

    /// Block until no tasks are queued or running.
    pub fn wait_idle(&self) {
        let mut guard = locks::lock(&self.shared.idle_mutex);
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            guard = locks::wait(&self.shared.idle_cv, guard);
        }
    }

    /// Drain outstanding work and join the workers. A worker that cannot
    /// be joined (it died of a panic outside the per-task catch) is
    /// counted in [`ThreadPool::join_failures`] rather than propagating
    /// the panic into the caller.
    pub fn shutdown(&mut self) {
        self.shutdown_within(None);
    }

    /// [`Self::shutdown`] that gives outstanding work at most `wait` to
    /// finish. Past the bound the workers are detached instead of joined —
    /// they still run the queue dry and exit, but the caller no longer
    /// waits for a wedged task.
    pub fn shutdown_within(&mut self, wait: Option<Duration>) {
        {
            let mut q = locks::lock(&self.shared.queues);
            if q.closed && self.workers.is_empty() {
                return;
            }
            q.closed = true;
        }
        self.shared.work_cv.notify_all();
        if let Some(wait) = wait {
            let deadline = Instant::now() + wait;
            let mut guard = locks::lock(&self.shared.idle_mutex);
            while self.shared.pending.load(Ordering::Acquire) != 0 {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    self.workers.clear();
                    return;
                }
                guard = locks::wait_timeout(&self.shared.idle_cv, guard, left);
            }
        }
        for w in self.workers.drain(..) {
            if w.join().is_err() {
                self.shared.join_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn bounded_shutdown_detaches_a_wedged_worker() {
        let mut pool = ThreadPool::new(1);
        let (release, wedged) = std::sync::mpsc::channel::<()>();
        let (started_tx, started) = std::sync::mpsc::channel::<()>();
        assert!(pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            let _ = wedged.recv();
        })));
        started.recv().unwrap();
        // The task cannot finish until `release` fires, so an unbounded
        // shutdown would hang here; the bounded one gives up and detaches.
        pool.shutdown_within(Some(Duration::from_millis(20)));
        assert_eq!(pool.threads(), 0, "workers detached, not joined");
        assert_eq!(pool.pending(), 1, "the wedged task is still running");
        assert!(!pool.submit(Box::new(|| {})), "the queue is closed");
        release.send(()).unwrap();
        pool.wait_idle();
    }

    #[test]
    fn runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            assert!(pool.submit(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })));
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.submitted(), 100);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let pool = ThreadPool::new(1);
        pool.wait_idle();
    }

    #[test]
    fn shutdown_drains_queue() {
        let mut pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(1));
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 16);
        // Submitting after shutdown is refused and not counted.
        assert!(!pool.submit(Box::new(|| {})));
        assert_eq!(pool.submitted(), 16);
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.join_failures(), 0);
    }

    #[test]
    fn min_one_thread() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn tasks_run_concurrently() {
        // With 4 workers, 4 tasks that each wait for the others should all
        // make progress (deadlocks if the pool serialized them).
        let pool = ThreadPool::new(4);
        let barrier = Arc::new(Barrier::new(4));
        for _ in 0..4 {
            let b = Arc::clone(&barrier);
            pool.submit(Box::new(move || {
                b.wait();
            }));
        }
        pool.wait_idle();
    }

    #[test]
    fn panicking_task_does_not_leak_pending_or_kill_worker() {
        // Regression: a panic used to unwind past the decrement, leaving
        // `pending` stuck above zero (wait_idle hangs) and killing the
        // worker thread.
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicU32::new(0));
        pool.submit(Box::new(|| panic!("task panic")));
        let c = Arc::clone(&counter);
        pool.submit(Box::new(move || {
            c.fetch_add(1, Ordering::Relaxed);
        }));
        pool.wait_idle();
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "worker survived the panic"
        );
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.panicked(), 1);
    }

    /// A pool already closed with no workers, so `submit`
    /// deterministically hits the refused-submission branch.
    fn closed_pool() -> ThreadPool {
        ThreadPool {
            workers: Vec::new(),
            shared: Arc::new(Shared::new(true)),
        }
    }

    #[test]
    fn failed_send_keeps_pending_balanced() {
        // Regression: the refused-submission rollback used to skip the
        // idle notification, so a waiter that observed the transient
        // increment could park forever.
        let pool = Arc::new(closed_pool());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Waiters hammer wait_idle while submits transiently bump pending.
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&pool);
                let s = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !s.load(Ordering::Relaxed) {
                        p.wait_idle();
                    }
                })
            })
            .collect();
        for _ in 0..1000 {
            assert!(!pool.submit(Box::new(|| {})));
            assert_eq!(pool.pending(), 0, "refused submit must roll back pending");
        }
        assert_eq!(pool.submitted(), 0, "refused submissions are not counted");
        stop.store(true, Ordering::Relaxed);
        for w in waiters {
            w.join().unwrap();
        }
        pool.wait_idle();
    }

    /// Labels as the engine hands them out: the ids of a namespace.
    fn labels() -> impl Fn(&str) -> Option<FileId> {
        let files = crate::metadata::MetadataContainer::default();
        move |name| Some(files.intern(name))
    }

    #[test]
    fn panics_with_and_without_task_context_are_counted() {
        let pool = ThreadPool::new(1);
        pool.submit(Box::new(|| panic!("anonymous")));
        pool.submit_on(
            Lane::Demand,
            labels()("train-00042.tfrecord"),
            Box::new(|| panic!("copy died")),
        );
        pool.wait_idle();
        assert_eq!(pool.panicked(), 2);
    }

    /// Pin the single worker inside a gate task so queued jobs pile up
    /// deterministically, then release the gate.
    fn gated_pool() -> (ThreadPool, Arc<Barrier>) {
        let pool = ThreadPool::new(1);
        let gate = Arc::new(Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.submit(Box::new(move || {
            g.wait();
        }));
        // Wait for the worker to dequeue the gate job, so the `queued`
        // counts below see only the jobs a test submits afterwards.
        while pool.queued(Lane::Demand) != 0 {
            std::thread::yield_now();
        }
        (pool, gate)
    }

    fn push(order: &Arc<Mutex<Vec<String>>>, tag: &str) -> Task {
        let o = Arc::clone(order);
        let tag = tag.to_string();
        Box::new(move || locks::lock(&o).push(tag))
    }

    #[test]
    fn demand_lane_preempts_prefetch_lane() {
        let (pool, gate) = gated_pool();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            pool.submit_on(Lane::Prefetch, None, push(&order, &format!("p{i}")));
        }
        // Submitted last, runs first: the demand lane always wins.
        pool.submit(push(&order, "demand"));
        assert_eq!(pool.queued(Lane::Prefetch), 3);
        assert_eq!(pool.queued(Lane::Demand), 1);
        gate.wait();
        pool.wait_idle();
        assert_eq!(*locks::lock(&order), vec!["demand", "p0", "p1", "p2"]);
    }

    #[test]
    fn promote_moves_queued_prefetch_into_demand_lane() {
        let (pool, gate) = gated_pool();
        let order = Arc::new(Mutex::new(Vec::new()));
        let ctx = labels();
        pool.submit_on(Lane::Prefetch, ctx("a"), push(&order, "a"));
        pool.submit_on(Lane::Prefetch, ctx("b"), push(&order, "b"));
        pool.submit(push(&order, "demand"));
        let id = |label| ctx(label).unwrap();

        assert!(pool.promote(id("b")), "queued prefetch job is promotable");
        assert!(!pool.promote(id("b")), "a job promotes at most once");
        assert!(!pool.promote(id("missing")));
        assert_eq!(pool.queued(Lane::Demand), 2);
        assert_eq!(pool.queued(Lane::Prefetch), 1);

        gate.wait();
        pool.wait_idle();
        // "b" jumped the prefetch lane but queues behind existing demand.
        assert_eq!(*locks::lock(&order), vec!["demand", "b", "a"]);
    }

    #[test]
    fn drain_prefetch_cancels_queued_jobs_and_stays_balanced() {
        let (pool, gate) = gated_pool();
        let order = Arc::new(Mutex::new(Vec::new()));
        let ctx = labels();
        pool.submit_on(Lane::Prefetch, ctx("a"), push(&order, "a"));
        pool.submit_on(Lane::Prefetch, ctx("b"), push(&order, "b"));
        pool.submit(push(&order, "demand"));

        assert_eq!(pool.drain_prefetch(), 2);
        assert_eq!(pool.queued(Lane::Prefetch), 0);

        gate.wait();
        pool.wait_idle();
        assert_eq!(
            *locks::lock(&order),
            vec!["demand"],
            "canceled closures never ran"
        );
        assert_eq!(
            pool.pending(),
            0,
            "drained jobs balanced their pending bumps"
        );
    }

    #[test]
    fn probe_tracks_queue_depth_independently_of_pool() {
        let (pool, gate) = gated_pool();
        let probe = pool.probe();
        pool.submit_on(Lane::Prefetch, None, Box::new(|| {}));
        pool.submit(Box::new(|| {}));
        assert_eq!(probe.queued(Lane::Prefetch), 1);
        assert_eq!(probe.queued(Lane::Demand), 1);
        // gate task (running) + two queued jobs.
        assert_eq!(probe.pending(), 3);
        gate.wait();
        pool.wait_idle();
        assert_eq!(probe.pending(), 0);
        // The clone keeps working after the pool shuts down.
        drop(pool);
        assert_eq!(probe.queued(Lane::Demand), 0);
    }

    #[test]
    fn shutdown_counts_join_failures_instead_of_panicking() {
        let mut pool = ThreadPool::new(1);
        // Inject a worker that dies outside the per-task catch — joining
        // it yields Err. Shutdown must swallow it and count it.
        let doomed = std::thread::Builder::new()
            .name("monarch-copy-doomed".into())
            .spawn(|| panic!("worker died outside a task"))
            .unwrap();
        pool.workers.push(doomed);
        pool.shutdown();
        assert_eq!(pool.join_failures(), 1);
        assert!(
            !pool.submit(Box::new(|| {})),
            "pool is closed after shutdown"
        );
    }
}
