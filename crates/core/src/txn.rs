//! Transaction support (§3.6).
//!
//! MaSM's timestamps already serialize *individual* queries and updates.
//! For multi-statement transactions the paper describes two schemes,
//! both implemented here:
//!
//! * **Snapshot isolation** — [`Transaction`]: reads run at the
//!   transaction's start timestamp; writes stage in a small private
//!   buffer that is overlaid on the transaction's own scans; commit is
//!   first-committer-wins and stamps every private write with one commit
//!   timestamp before appending it to the global update buffer.
//! * **Locking (e.g. two-phase locking)** — [`LockManager`] +
//!   [`LockingTransaction`]: an update becomes globally visible only
//!   when its exclusive lock is released, at which point it receives the
//!   then-current timestamp; queries use their normal start timestamps,
//!   so two conflicting transactions serialized by the locks see each
//!   other's effects in lock order.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use masm_pagestore::Key;
use masm_storage::SessionHandle;

use crate::engine::{MasmEngine, MergeScan};
use crate::error::MasmResult;
use crate::ts::Timestamp;
use crate::update::{UpdateOp, UpdateRecord};

/// A snapshot-isolation transaction.
pub struct Transaction {
    engine: Arc<MasmEngine>,
    start_ts: Timestamp,
    writes: Vec<(Key, UpdateOp)>,
}

impl Transaction {
    /// Begin a transaction; reads will see the database as of now.
    pub fn begin(engine: &Arc<MasmEngine>) -> Self {
        Transaction {
            start_ts: engine.read_ts(),
            engine: Arc::clone(engine),
            writes: Vec::new(),
        }
    }

    /// Stage a write in the private buffer.
    pub fn write(&mut self, key: Key, op: UpdateOp) {
        self.writes.push((key, op));
    }

    /// Open a range scan that sees the snapshot **plus** this
    /// transaction's own staged writes (the private-buffer `Mem_scan` of
    /// §3.6).
    pub fn scan(&self, session: SessionHandle, begin: Key, end: Key) -> MasmResult<MergeScan> {
        let private: Vec<UpdateRecord> = self
            .writes
            .iter()
            .map(|(k, op)| UpdateRecord::new(self.start_ts, *k, op.clone()))
            .collect();
        self.engine
            .begin_scan_at(session, begin, end, Some(self.start_ts), private)
    }

    /// Commit: first-committer-wins validation, then all writes receive
    /// one commit timestamp and enter the global update buffer.
    pub fn commit(self, session: &SessionHandle) -> MasmResult<Timestamp> {
        self.engine
            .commit_writes(session, self.start_ts, self.writes)
    }
}

/// A minimal exclusive-lock table for demonstrating lock-based schemes.
#[derive(Default)]
pub struct LockManager {
    held: Mutex<HashSet<Key>>,
    released: Condvar,
}

impl LockManager {
    /// Fresh lock manager.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Acquire an exclusive lock on `key`, blocking until available.
    pub(crate) fn lock_exclusive(&self, key: Key) {
        let mut held = self.held.lock();
        while held.contains(&key) {
            self.released.wait(&mut held);
        }
        held.insert(key);
    }

    /// Release a lock.
    pub(crate) fn unlock(&self, key: Key) {
        self.held.lock().remove(&key);
        self.released.notify_all();
    }
}

/// A two-phase-locking transaction: writes stay in a private buffer and
/// become globally visible (with fresh timestamps) at lock release.
pub struct LockingTransaction {
    engine: Arc<MasmEngine>,
    locks: Arc<LockManager>,
    held: Vec<Key>,
    pending: HashMap<Key, UpdateOp>,
}

impl LockingTransaction {
    /// Begin a locking transaction.
    pub fn begin(engine: &Arc<MasmEngine>, locks: &Arc<LockManager>) -> Self {
        LockingTransaction {
            engine: Arc::clone(engine),
            locks: Arc::clone(locks),
            held: Vec::new(),
            pending: HashMap::new(),
        }
    }

    /// Write under an exclusive lock (acquired if not already held).
    pub fn write(&mut self, key: Key, op: UpdateOp) {
        if !self.held.contains(&key) {
            self.locks.lock_exclusive(key);
            self.held.push(key);
        }
        // Later writes to the same key supersede earlier ones within the
        // transaction (it holds the lock throughout).
        self.pending.insert(key, op);
    }

    /// Commit: publish each pending write with the then-current
    /// timestamp, then release all locks (shrinking phase).
    pub fn commit(mut self, session: &SessionHandle) -> MasmResult<Timestamp> {
        let mut last_ts = 0;
        for (key, op) in std::mem::take(&mut self.pending) {
            last_ts = self.engine.apply_update(session, key, op)?;
        }
        for key in std::mem::take(&mut self.held) {
            self.locks.unlock(key);
        }
        Ok(last_ts)
    }
}

impl Drop for LockingTransaction {
    fn drop(&mut self) {
        for key in std::mem::take(&mut self.held) {
            self.locks.unlock(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasmConfig;
    use crate::error::MasmError;
    use masm_pagestore::{HeapConfig, Record, Schema, TableHeap};
    use masm_storage::{DeviceProfile, SimClock, SimDevice};

    fn schema() -> Schema {
        Schema::synthetic_100b()
    }

    fn payload(v: u32) -> Vec<u8> {
        let s = schema();
        let mut p = s.empty_payload();
        s.set_u32(&mut p, 0, v);
        p
    }

    fn setup() -> (Arc<MasmEngine>, SessionHandle) {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let engine =
            MasmEngine::new(heap, ssd, wal, schema(), MasmConfig::small_for_tests()).unwrap();
        let session = SessionHandle::fresh(clock);
        engine
            .load_table(
                &session,
                (0..100u64).map(|i| Record::new(i * 2, payload(i as u32))),
                1.0,
            )
            .unwrap();
        (engine, session)
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let (engine, session) = setup();
        let txn = Transaction::begin(&engine);
        engine
            .apply_update(&session, 1, UpdateOp::Insert(payload(1)))
            .unwrap();
        let keys: Vec<Key> = txn
            .scan(session.clone(), 0, 10)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert!(!keys.contains(&1), "post-snapshot insert invisible");
        // A fresh scan outside the txn sees it.
        let keys: Vec<Key> = engine
            .begin_scan(session, 0, 10)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert!(keys.contains(&1));
    }

    #[test]
    fn transaction_sees_its_own_writes() {
        let (engine, session) = setup();
        let mut txn = Transaction::begin(&engine);
        txn.write(7, UpdateOp::Insert(payload(70)));
        txn.write(4, UpdateOp::Delete);
        let keys: Vec<Key> = txn
            .scan(session.clone(), 0, 10)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert!(keys.contains(&7), "own insert visible");
        assert!(!keys.contains(&4), "own delete visible");
        // Not yet visible outside.
        let outside: Vec<Key> = engine
            .begin_scan(session, 0, 10)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert!(!outside.contains(&7));
        assert!(outside.contains(&4));
    }

    #[test]
    fn commit_publishes_atomically() {
        let (engine, session) = setup();
        let mut txn = Transaction::begin(&engine);
        txn.write(7, UpdateOp::Insert(payload(70)));
        txn.write(9, UpdateOp::Insert(payload(90)));
        let ts = txn.commit(&session).unwrap();
        assert!(ts > 0);
        let keys: Vec<Key> = engine
            .begin_scan(session, 0, 10)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert!(keys.contains(&7) && keys.contains(&9));
    }

    #[test]
    fn first_committer_wins() {
        let (engine, session) = setup();
        let mut t1 = Transaction::begin(&engine);
        let mut t2 = Transaction::begin(&engine);
        t1.write(50, UpdateOp::Insert(payload(1)));
        t2.write(50, UpdateOp::Insert(payload(2)));
        t1.commit(&session).unwrap();
        let err = t2.commit(&session).unwrap_err();
        assert!(matches!(err, MasmError::Conflict { key: 50 }));
    }

    #[test]
    fn disjoint_writes_both_commit() {
        let (engine, session) = setup();
        let mut t1 = Transaction::begin(&engine);
        let mut t2 = Transaction::begin(&engine);
        t1.write(51, UpdateOp::Insert(payload(1)));
        t2.write(53, UpdateOp::Insert(payload(2)));
        t1.commit(&session).unwrap();
        t2.commit(&session).unwrap();
    }

    #[test]
    fn abort_discards_writes() {
        let (engine, session) = setup();
        let mut txn = Transaction::begin(&engine);
        txn.write(7, UpdateOp::Insert(payload(1)));
        drop(txn); // an abort is a drop: the private buffer goes with it
        let keys: Vec<Key> = engine
            .begin_scan(session, 0, 10)
            .unwrap()
            .map(|r| r.key)
            .collect();
        assert!(!keys.contains(&7));
    }

    fn held(locks: &LockManager, key: Key) -> bool {
        locks.held.lock().contains(&key)
    }

    #[test]
    fn lock_manager_excludes() {
        let lm = LockManager::new();
        lm.lock_exclusive(5);
        assert!(held(&lm, 5));
        assert!(!held(&lm, 6));
        lm.unlock(5);
        assert!(!held(&lm, 5));
    }

    #[test]
    fn locking_transactions_serialize_conflicts() {
        let (engine, session) = setup();
        let locks = LockManager::new();
        let mut a = LockingTransaction::begin(&engine, &locks);
        a.write(60, UpdateOp::Insert(payload(1)));
        // B would block on key 60; run it in a thread.
        let engine2 = Arc::clone(&engine);
        let locks2 = Arc::clone(&locks);
        let session2 = session.clone();
        let (began, begun) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut b = LockingTransaction::begin(&engine2, &locks2);
            began.send(()).unwrap();
            b.write(60, UpdateOp::Insert(payload(2)));
            b.commit(&session2).unwrap()
        });
        begun.recv().unwrap();
        // However far B has got, A holds the key until it commits.
        assert!(held(&locks, 60));
        let ts_a = a.commit(&session).unwrap();
        let ts_b = handle.join().unwrap();
        assert!(ts_b > ts_a, "B serialized after A by the lock");
        // B's value wins.
        let rec = engine.begin_scan(session, 60, 60).unwrap().next().unwrap();
        assert_eq!(schema().get_u32(&rec.payload, 0), 2);
    }

    #[test]
    fn drop_releases_locks() {
        let (engine, _session) = setup();
        let locks = LockManager::new();
        {
            let mut t = LockingTransaction::begin(&engine, &locks);
            t.write(70, UpdateOp::Delete);
            // dropped without commit
        }
        assert!(!held(&locks, 70), "lock released on drop");
    }
}
