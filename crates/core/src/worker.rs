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
//! One pool serves every shard of a sharded engine: jobs are tagged
//! with their shard, each shard has its own dedup flags and event
//! counters (a [`WorkerStatsRecorder`] per shard), and the backlog and
//! queue depth stay pool-global.
//!
//! Scheduling rules:
//!
//! * **Flush** jobs carry the id of one sealed batch. They are the only
//!   job kind that can exist more than once per shard in the queue.
//! * **Compact** and **Migrate** are deduplicated *per shard*: at most
//!   one of each queued at a time (re-requested after completion if
//!   still needed by [`crate::engine::MasmEngine`]'s maintenance
//!   check).
//! * **Migrations are staggered**: one migrate job runs at a time
//!   across all shards. This is scheduling, not safety — the shared
//!   heap admits one rewriter at a time (`TableHeap::rewriter_range`),
//!   so a second migration would only park its worker behind the first.
//!   A blocked migrate job stays in the queue and workers take the next
//!   runnable job past it, so flushes and compactions never starve
//!   behind a waiting migration — and N shards never multiply the scan
//!   tail latency by N concurrent migrations.
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
    /// Which shard's engine executes this job (0 for an unsharded
    /// engine).
    pub shard: usize,
    pub kind: JobKind,
    pub attempts: u32,
    /// Virtual time the job was requested. The worker session starts
    /// here, not at the global clock: background I/O then *overlaps*
    /// the actors that kept working after requesting it (the device
    /// busy-horizon still serializes same-device access). Starting at
    /// the global clock instead would push every shard's device horizon
    /// to the system-wide maximum on each job, serializing independent
    /// shards through the clock.
    pub at: Ns,
}

struct PoolState {
    queue: VecDeque<Job>,
    /// Bytes of sealed batches whose flush has not yet completed (the
    /// backpressure signal; includes batches currently being flushed).
    backlog_bytes: u64,
    /// Per-shard dedup flags (indexed by `Job::shard`).
    compact_queued: Vec<bool>,
    migrate_queued: Vec<bool>,
    /// A migrate job is executing (the stagger).
    migration_running: bool,
    shutdown: bool,
}

/// Shared state of the worker pool. The engine holds it in a
/// [`WorkerHandle`]; each worker thread holds its own `Arc`.
pub(crate) struct WorkerPool {
    state: TrackedMutex<PoolState>,
    /// Signalled when work is enqueued, a migration slot frees up, or
    /// shutdown is requested.
    work: Condvar,
    /// Signalled when backlog bytes drop (flush completed or abandoned).
    space: Condvar,
    /// Per-shard job counters (indexed by `Job::shard`), bumped by the
    /// workers at the point each event happens. Their level fields stay
    /// zero: `stats()` reads those off the pool and the engine state.
    recorders: Vec<WorkerStatsRecorder>,
    pub threads: usize,
    backlog_limit: u64,
}

impl WorkerPool {
    /// A pool serving `shards` shards (one for an unsharded engine).
    pub fn new(threads: usize, backlog_limit: u64, shards: usize) -> Arc<Self> {
        assert!(shards > 0, "pool needs at least one shard");
        Arc::new(WorkerPool {
            state: TrackedMutex::new(PoolState {
                queue: VecDeque::new(),
                backlog_bytes: 0,
                compact_queued: vec![false; shards],
                migrate_queued: vec![false; shards],
                migration_running: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            recorders: (0..shards)
                .map(|_| WorkerStatsRecorder::default())
                .collect(),
            threads,
            backlog_limit,
        })
    }

    /// Shard `shard`'s job counters.
    pub fn recorder(&self, shard: usize) -> &WorkerStatsRecorder {
        &self.recorders[shard]
    }

    /// Enqueue a flush for shard `shard`'s sealed batch `batch_id`
    /// holding `bytes` of updates, requested at virtual time `at`.
    /// Returns immediately; backpressure is a separate call so the
    /// engine can release its state lock first.
    pub fn enqueue_flush(&self, shard: usize, batch_id: u64, bytes: u64, at: Ns) {
        let mut st = self.state.lock();
        st.backlog_bytes += bytes;
        st.queue.push_back(Job {
            shard,
            kind: JobKind::Flush { batch_id },
            attempts: 0,
            at,
        });
        drop(st);
        self.work.notify_one();
    }

    /// Enqueue a compaction pass for `shard` unless one is already
    /// queued there.
    pub fn enqueue_compact(&self, shard: usize, at: Ns) {
        self.enqueue_dedup(shard, JobKind::Compact, at);
    }

    /// Enqueue a migration for `shard` unless one is already queued
    /// there.
    pub fn enqueue_migrate(&self, shard: usize, at: Ns) {
        self.enqueue_dedup(shard, JobKind::Migrate, at);
    }

    fn enqueue_dedup(&self, shard: usize, kind: JobKind, at: Ns) {
        let mut st = self.state.lock();
        // Maintenance requested after shutdown can never run — drop it
        // rather than strand it in the queue (unlike flushes, compact /
        // migrate carry no data and are re-requested whenever needed).
        if st.shutdown {
            return;
        }
        let flag = match kind {
            JobKind::Compact => &mut st.compact_queued[shard],
            JobKind::Migrate => &mut st.migrate_queued[shard],
            JobKind::Flush { .. } => unreachable!("flush jobs are not deduplicated"),
        };
        if std::mem::replace(flag, true) {
            return;
        }
        st.queue.push_back(Job {
            shard,
            kind,
            attempts: 0,
            at,
        });
        drop(st);
        self.work.notify_one();
    }

    /// Re-queue a failed job for another attempt.
    pub fn requeue(&self, job: Job) {
        let mut st = self.state.lock();
        match job.kind {
            JobKind::Compact => st.compact_queued[job.shard] = true,
            JobKind::Migrate => st.migrate_queued[job.shard] = true,
            JobKind::Flush { .. } => {}
        }
        st.queue.push_back(job);
        drop(st);
        self.work.notify_one();
    }

    /// A migrate job finished executing (success *or* failure): free
    /// its staggering slot and wake a worker that may be parked behind
    /// a blocked migrate job.
    pub fn migration_finished(&self) {
        self.state.lock().migration_running = false;
        self.work.notify_all();
    }

    /// Drop `bytes` from the flush backlog (flush completed or batch
    /// abandoned) and wake any ingest thread throttled on it.
    pub fn release_backlog(&self, bytes: u64) {
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
    pub fn wait_for_space(&self) -> bool {
        let mut st = self.state.lock();
        let mut stalled = false;
        while st.backlog_bytes > self.backlog_limit && !st.shutdown {
            stalled = true;
            self.space.wait(st.inner_mut());
        }
        stalled
    }

    /// Current (queue depth, backlog bytes).
    pub fn depths(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.queue.len() as u64, st.backlog_bytes)
    }

    /// Whether shutdown has been signalled. The engine reverts to the
    /// inline flush/merge paths once this is true: a job enqueued past
    /// shutdown would never run.
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().shutdown
    }

    /// Signal shutdown: workers drain the queue, then exit.
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Worker side: block for the next *runnable* job. Migrate jobs are
    /// skipped (left in the queue) while a migration is executing; a
    /// taken migrate job sets the stagger flag, cleared by
    /// [`WorkerPool::migration_finished`]. `None`
    /// means the queue is drained and shutdown was requested — exit the
    /// thread.
    fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock();
        loop {
            let runnable = st
                .queue
                .iter()
                .position(|j| !(matches!(j.kind, JobKind::Migrate) && st.migration_running));
            if let Some(i) = runnable {
                let job = st.queue.remove(i).expect("indexed job present");
                match job.kind {
                    JobKind::Compact => st.compact_queued[job.shard] = false,
                    JobKind::Migrate => {
                        st.migrate_queued[job.shard] = false;
                        st.migration_running = true;
                    }
                    JobKind::Flush { .. } => {}
                }
                return Some(job);
            }
            if st.shutdown && st.queue.is_empty() {
                return None;
            }
            // Queue empty, or it holds only migrate jobs blocked on the
            // stagger — the running migration's completion rings
            // `work`. During shutdown the drain still completes: a
            // blocked migration implies a running one, so a wake-up is
            // always coming.
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

/// The engines' ownership handle: pool plus joinable thread handles.
/// Cloneable so every shard of a sharded engine holds the same handle;
/// shutdown is signalled when the last clone drops, and
/// [`WorkerHandle::join`] is idempotent across clones.
#[derive(Clone)]
pub(crate) struct WorkerHandle {
    inner: Arc<HandleInner>,
}

impl WorkerHandle {
    /// Spawn `pool.threads` workers over weak references to `engines`
    /// (indexed by `Job::shard`). The weak links break the `Arc` cycle:
    /// dropped engines stop producing jobs, workers fail the upgrade
    /// and exit.
    pub fn spawn(engines: &[Arc<MasmEngine>], pool: Arc<WorkerPool>) -> Self {
        let threads = pool.threads;
        let mut joins = Vec::with_capacity(threads);
        for i in 0..threads {
            let weaks: Vec<Weak<MasmEngine>> = engines.iter().map(Arc::downgrade).collect();
            let pool = Arc::clone(&pool);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("masm-worker-{i}"))
                    .spawn(move || worker_loop(weaks, pool))
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
    pub fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// Signal shutdown and join every worker (idempotent, including
    /// across clones of this handle).
    pub fn join(&self) {
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

fn worker_loop(engines: Vec<Weak<MasmEngine>>, pool: Arc<WorkerPool>) {
    while let Some(job) = pool.next_job() {
        let Some(engine) = engines.get(job.shard).and_then(Weak::upgrade) else {
            // Engines are torn down together; a failed upgrade means
            // the whole set is going away. Release any claimed
            // migration slot so sibling workers are not starved while
            // they drain.
            if matches!(job.kind, JobKind::Migrate) {
                pool.migration_finished();
            }
            return;
        };
        engine.run_job(&pool, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cap is one: the shared heap admits one rewriter.
    #[test]
    fn migrations_stagger_at_the_cap() {
        let pool = WorkerPool::new(0, 1 << 20, 3);
        pool.enqueue_migrate(0, 0);
        pool.enqueue_migrate(1, 0);
        pool.enqueue_compact(1, 0);
        // First migrate is handed out and charges the stagger slot.
        let j0 = pool.next_job().unwrap();
        assert_eq!((j0.shard, j0.kind), (0, JobKind::Migrate));
        // The second migrate is blocked; the compact behind it runs.
        let j1 = pool.next_job().unwrap();
        assert_eq!((j1.shard, j1.kind), (1, JobKind::Compact));
        // Finishing the first migration unblocks the queued one.
        pool.migration_finished();
        let j2 = pool.next_job().unwrap();
        assert_eq!((j2.shard, j2.kind), (1, JobKind::Migrate));
        assert_eq!(pool.depths().0, 0);
    }

    #[test]
    fn migrate_dedup_is_per_shard() {
        let pool = WorkerPool::new(0, 1 << 20, 2);
        pool.enqueue_migrate(0, 0);
        pool.enqueue_migrate(0, 0);
        pool.enqueue_migrate(1, 0);
        assert_eq!(pool.depths().0, 2, "per-shard dedup, cross-shard not");
    }

    #[test]
    fn shutdown_drains_blocked_migrations() {
        let pool = WorkerPool::new(0, 1 << 20, 2);
        pool.enqueue_migrate(0, 0);
        pool.enqueue_migrate(1, 0);
        let first = pool.next_job().unwrap();
        assert_eq!(first.kind, JobKind::Migrate);
        pool.shutdown();
        // The blocked migrate still runs once the slot frees.
        pool.migration_finished();
        assert_eq!(pool.next_job().unwrap().shard, 1);
        pool.migration_finished();
        assert!(pool.next_job().is_none(), "drained + shutdown exits");
    }
}
