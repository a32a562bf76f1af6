//! Background maintenance workers: the engine's flush / compaction /
//! migration execution pool.
//!
//! With `background_workers > 0` the engine never pays a flush or merge
//! inline on the ingest or scan path. Instead it *seals* the full
//! in-memory buffer into an immutable batch, enqueues a job here, and
//! returns; a pool thread materializes the run off the critical path.
//! Callers only ever throttle through the bounded-backlog backpressure
//! gate ([`WorkerPool::wait_for_space`]) — ingest degrades to a wait,
//! never to inline I/O.
//!
//! One pool serves one engine: its job counters are one
//! [`WorkerStatsRecorder`], bumped by the workers as events happen.
//!
//! Scheduling rules:
//!
//! * **Flush** jobs carry the id of one sealed batch. They are the only
//!   job kind that can exist more than once in the queue.
//! * **Compact** and **Migrate** are deduplicated: at most one of each
//!   queued at a time (re-requested after completion if still needed by
//!   [`crate::engine::MasmEngine`]'s maintenance check). Jobs leave the
//!   queue in order; the engine admits one migration at a time, so a
//!   migrate job that finds another one running returns at once.
//! * A failing job retries up to [`MAX_JOB_ATTEMPTS`] times; a flush
//!   that exhausts its retries is *abandoned* — the engine moves the
//!   sealed batch's updates back into the in-memory buffer so no data
//!   is lost and queries keep seeing it (the WAL already holds every
//!   update). Workers never wedge on a poisoned job.
//! * Shutdown is **drain-then-exit**: queued jobs still run after
//!   [`WorkerPool::shutdown`] is signalled; threads exit once the queue
//!   is empty. [`WorkerHandle::join`] gives deterministic teardown.
//!
//! The pool's own mutex is a [`TrackedMutex`]: holding it across device
//! I/O is a debug-mode panic, same as the engine state lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use parking_lot::Condvar;

use masm_storage::{Ns, TrackedMutex, WorkerStatsRecorder};

use crate::engine::MasmEngine;

/// Retry budget per job: a job that fails this many times is abandoned
/// (flushes return their batch to the buffer; compactions and
/// migrations are simply dropped and re-requested by the next
/// maintenance check).
pub(crate) const MAX_JOB_ATTEMPTS: u32 = 3;

/// One unit of background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// Materialize sealed batch `batch_id` as a 1-pass run.
    Flush { batch_id: u64 },
    /// Merge 1-pass runs down to the query-page budget.
    Compact,
    /// Migrate cached updates back into the main data.
    Migrate,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    pub kind: JobKind,
    pub attempts: u32,
    /// Virtual time the job was requested. The worker session starts
    /// here, not at the global clock: background I/O then *overlaps*
    /// the actors that kept working after requesting it (the device
    /// busy-horizon still serializes same-device access).
    pub at: Ns,
}

struct PoolState {
    queue: VecDeque<Job>,
    /// Bytes of sealed batches whose flush has not yet completed (the
    /// backpressure signal; includes batches currently being flushed).
    backlog_bytes: u64,
    /// Dedup flags: a compact / migrate job is queued.
    compact_queued: bool,
    migrate_queued: bool,
    shutdown: bool,
}

/// Shared state of the worker pool. The engine holds it in a
/// [`WorkerHandle`]; each worker thread holds its own `Arc`.
pub(crate) struct WorkerPool {
    state: TrackedMutex<PoolState>,
    /// Signalled when work is enqueued or shutdown is requested.
    work: Condvar,
    /// Signalled when backlog bytes drop (flush completed or abandoned).
    space: Condvar,
    /// The job counters, bumped by the workers at the point each event
    /// happens. Their level fields stay zero: `stats()` reads those off
    /// the pool and the engine state.
    pub recorder: WorkerStatsRecorder,
    pub threads: usize,
    backlog_limit: u64,
}

impl WorkerPool {
    /// A pool of `threads` workers whose flush backlog is bounded by
    /// `backlog_limit` bytes.
    pub(crate) fn new(threads: usize, backlog_limit: u64) -> Arc<Self> {
        Arc::new(WorkerPool {
            state: TrackedMutex::new(PoolState {
                queue: VecDeque::new(),
                backlog_bytes: 0,
                compact_queued: false,
                migrate_queued: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            recorder: WorkerStatsRecorder::default(),
            threads,
            backlog_limit,
        })
    }

    /// Enqueue a flush of sealed batch `batch_id` holding `bytes` of
    /// updates, requested at virtual time `at`. Returns immediately;
    /// backpressure is a separate call so the engine can release its
    /// state lock first.
    pub(crate) fn enqueue_flush(&self, batch_id: u64, bytes: u64, at: Ns) {
        let mut st = self.state.lock();
        st.backlog_bytes += bytes;
        st.queue.push_back(Job {
            kind: JobKind::Flush { batch_id },
            attempts: 0,
            at,
        });
        drop(st);
        self.work.notify_one();
    }

    /// Enqueue a compaction pass unless one is already queued.
    pub(crate) fn enqueue_compact(&self, at: Ns) {
        self.enqueue_dedup(JobKind::Compact, at);
    }

    /// Enqueue a migration unless one is already queued.
    pub(crate) fn enqueue_migrate(&self, at: Ns) {
        self.enqueue_dedup(JobKind::Migrate, at);
    }

    fn enqueue_dedup(&self, kind: JobKind, at: Ns) {
        let mut st = self.state.lock();
        // Maintenance requested after shutdown can never run — drop it
        // rather than strand it in the queue (unlike flushes, compact /
        // migrate carry no data and are re-requested whenever needed).
        if st.shutdown {
            return;
        }
        let flag = match kind {
            JobKind::Compact => &mut st.compact_queued,
            JobKind::Migrate => &mut st.migrate_queued,
            JobKind::Flush { .. } => unreachable!("flush jobs are not deduplicated"),
        };
        if std::mem::replace(flag, true) {
            return;
        }
        st.queue.push_back(Job {
            kind,
            attempts: 0,
            at,
        });
        drop(st);
        self.work.notify_one();
    }

    /// Re-queue a failed job for another attempt.
    pub(crate) fn requeue(&self, job: Job) {
        let mut st = self.state.lock();
        match job.kind {
            JobKind::Compact => st.compact_queued = true,
            JobKind::Migrate => st.migrate_queued = true,
            JobKind::Flush { .. } => {}
        }
        st.queue.push_back(job);
        drop(st);
        self.work.notify_one();
    }

    /// Drop `bytes` from the flush backlog (flush completed or batch
    /// abandoned) and wake any ingest thread throttled on it.
    pub(crate) fn release_backlog(&self, bytes: u64) {
        let mut st = self.state.lock();
        st.backlog_bytes = st.backlog_bytes.saturating_sub(bytes);
        drop(st);
        self.space.notify_all();
    }

    /// The ingest backpressure gate: block while the un-flushed backlog
    /// exceeds the configured limit. Returns immediately on shutdown so
    /// a tearing-down engine cannot strand an ingest thread. The return
    /// value reports whether the caller actually stalled (waited at
    /// least once), so tracing can record a `backpressure.stall` span
    /// only for real throttle events.
    pub(crate) fn wait_for_space(&self) -> bool {
        let mut st = self.state.lock();
        let mut stalled = false;
        while st.backlog_bytes > self.backlog_limit && !st.shutdown {
            stalled = true;
            self.space.wait(st.inner_mut());
        }
        stalled
    }

    /// Current (queue depth, backlog bytes).
    pub(crate) fn depths(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.queue.len() as u64, st.backlog_bytes)
    }

    /// Whether shutdown has been signalled. The engine reverts to the
    /// inline flush/merge paths once this is true: a job enqueued past
    /// shutdown would never run.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.state.lock().shutdown
    }

    /// Signal shutdown: workers drain the queue, then exit.
    pub(crate) fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Worker side: block for the next job. `None` means the queue is
    /// drained and shutdown was requested — exit the thread.
    fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.queue.pop_front() {
                match job.kind {
                    JobKind::Compact => st.compact_queued = false,
                    JobKind::Migrate => st.migrate_queued = false,
                    JobKind::Flush { .. } => {}
                }
                return Some(job);
            }
            if st.shutdown {
                return None;
            }
            self.work.wait(st.inner_mut());
        }
    }
}

struct HandleInner {
    pool: Arc<WorkerPool>,
    joins: std::sync::Mutex<Vec<JoinHandle<()>>>,
    joined: AtomicBool,
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        // Signal only — never join from Drop (the last engine Arc may be
        // dropped *on* a worker thread, which cannot join itself).
        self.pool.shutdown();
    }
}

/// The engine's ownership handle: pool plus joinable thread handles.
/// Shutdown is signalled when it drops, and [`WorkerHandle::join`] is
/// idempotent.
#[derive(Clone)]
pub(crate) struct WorkerHandle {
    inner: Arc<HandleInner>,
}

impl WorkerHandle {
    /// Spawn `pool.threads` workers over a weak reference to `engine`.
    /// The weak link breaks the `Arc` cycle: a dropped engine stops
    /// producing jobs, workers fail the upgrade and exit.
    pub(crate) fn spawn(engine: &Arc<MasmEngine>, pool: Arc<WorkerPool>) -> Self {
        let threads = pool.threads;
        let mut joins = Vec::with_capacity(threads);
        for i in 0..threads {
            let weak = Arc::downgrade(engine);
            let pool = Arc::clone(&pool);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("masm-worker-{i}"))
                    .spawn(move || worker_loop(weak, pool))
                    .expect("spawn worker thread"),
            );
        }
        WorkerHandle {
            inner: Arc::new(HandleInner {
                pool,
                joins: std::sync::Mutex::new(joins),
                joined: AtomicBool::new(false),
            }),
        }
    }

    /// The shared pool.
    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// Signal shutdown and join every worker (idempotent).
    pub(crate) fn join(&self) {
        self.inner.pool.shutdown();
        if self.inner.joined.swap(true, Ordering::AcqRel) {
            return;
        }
        let handles = std::mem::take(&mut *self.inner.joins.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(engine: Weak<MasmEngine>, pool: Arc<WorkerPool>) {
    while let Some(job) = pool.next_job() {
        // A failed upgrade: the engine is going away.
        let Some(engine) = engine.upgrade() else {
            return;
        };
        engine.run_job(&pool, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A migration requested while another runs is handed out like any
    /// job (the engine's claim turns it away), and the compaction
    /// behind it runs.
    #[test]
    fn migrations_stagger_at_the_cap() {
        let pool = WorkerPool::new(0, 1 << 20);
        pool.enqueue_migrate(0);
        assert_eq!(pool.next_job().unwrap().kind, JobKind::Migrate);
        pool.enqueue_migrate(0);
        pool.enqueue_compact(0);
        assert_eq!(pool.next_job().unwrap().kind, JobKind::Migrate);
        assert_eq!(pool.next_job().unwrap().kind, JobKind::Compact);
        assert_eq!(pool.depths().0, 0);
    }

    #[test]
    fn a_queued_migration_is_not_queued_twice() {
        let pool = WorkerPool::new(0, 1 << 20);
        pool.enqueue_migrate(0);
        pool.enqueue_migrate(0);
        pool.enqueue_compact(0);
        pool.enqueue_compact(0);
        assert_eq!(pool.depths().0, 2, "one of each");
        // Taken off the queue, a kind may be requested again.
        assert_eq!(pool.next_job().unwrap().kind, JobKind::Migrate);
        pool.enqueue_migrate(0);
        assert_eq!(pool.depths().0, 2);
    }

    #[test]
    fn shutdown_drains_blocked_migrations() {
        let pool = WorkerPool::new(0, 1 << 20);
        pool.enqueue_migrate(0);
        let first = pool.next_job().unwrap();
        assert_eq!(first.kind, JobKind::Migrate);
        pool.enqueue_migrate(0);
        pool.shutdown();
        // The queued migrate still runs after shutdown is signalled.
        assert_eq!(pool.next_job().unwrap().kind, JobKind::Migrate);
        assert!(pool.next_job().is_none(), "drained + shutdown exits");
    }
}
