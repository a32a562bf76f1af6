//! Per-actor I/O sessions modeling asynchronous-I/O overlap.
//!
//! The paper's prototype uses `libaio` to overlap disk and SSD accesses
//! (§4.1): while a range scan streams 1 MB reads off the disk, the
//! corresponding reads of cached updates proceed on the SSD, and the scan
//! only stalls if the SSD side falls behind. An [`IoSession`] reproduces
//! this: it is a cursor in virtual time owned by one actor (a query, an
//! updater, a migration thread). Synchronous operations advance the cursor
//! to the completion time; asynchronous operations are *issued* at the
//! cursor and produce an [`IoTicket`] that is awaited later, advancing the
//! cursor only to `max(now, completion)` — the overlap.
//!
//! A [`SessionHandle`] shares one session among the operators of a plan.
//! Its operations serialize on the session lock; **reading its cursor
//! does not** — [`SessionHandle::now`] is one atomic load of the cursor
//! as the last completed operation left it, which is what a stopwatch
//! around an operation (`Timer`, a trace span, a scan's stall clock)
//! wants and all it ever needed the lock for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::{Ns, SimClock};
use crate::error::StorageResult;
use crate::sim::SimDevice;

/// An in-flight asynchronous operation.
///
/// The data is already materialized (the simulation moves bytes eagerly);
/// only the *time* of availability is deferred.
#[derive(Debug)]
pub struct IoTicket {
    data: Option<Vec<u8>>,
    completion: Ns,
}

impl IoTicket {
    /// Virtual completion time of this operation.
    pub fn completion(&self) -> Ns {
        self.completion
    }
}

/// A per-actor virtual-time cursor issuing device operations.
#[derive(Debug, Clone)]
pub struct IoSession {
    clock: SimClock,
    now: Ns,
}

impl IoSession {
    /// Start a session at the clock's current time.
    pub fn new(clock: SimClock) -> Self {
        let now = clock.now();
        IoSession { clock, now }
    }

    /// Start a session at an explicit virtual time.
    pub fn at(clock: SimClock, now: Ns) -> Self {
        IoSession { clock, now }
    }

    /// The actor's current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Elapsed virtual time since `start`.
    pub fn elapsed_since(&self, start: Ns) -> Ns {
        self.now.saturating_sub(start)
    }

    /// Model CPU work: advances the cursor without touching any device.
    pub fn cpu(&mut self, ns: Ns) {
        self.now += ns;
        self.clock.advance_to(self.now);
    }

    /// Synchronous read that lends the bytes to `f` instead of copying
    /// them out ([`SimDevice::read_with`]): the cursor advances to the
    /// completion time.
    pub fn read_with<R>(
        &mut self,
        dev: &SimDevice,
        offset: u64,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<R> {
        let (result, end) = dev.read_with(self.now, offset, len, f)?;
        self.now = end;
        Ok(result)
    }

    /// Synchronous read: the cursor advances to the completion time.
    pub fn read(&mut self, dev: &SimDevice, offset: u64, len: u64) -> StorageResult<Vec<u8>> {
        self.read_with(dev, offset, len, <[u8]>::to_vec)
    }

    /// Synchronous write: the cursor advances to the completion time.
    pub fn write(&mut self, dev: &SimDevice, offset: u64, data: &[u8]) -> StorageResult<()> {
        let end = dev.write_at(self.now, offset, data)?;
        self.now = end;
        Ok(())
    }

    /// Asynchronous read: issued at the cursor, which does **not** advance.
    pub fn read_async(&self, dev: &SimDevice, offset: u64, len: u64) -> StorageResult<IoTicket> {
        let (data, end) = dev.read_at(self.now, offset, len)?;
        Ok(IoTicket {
            data: Some(data),
            completion: end,
        })
    }

    /// Await a ticket: the cursor advances to `max(now, completion)`, i.e.
    /// time already spent elsewhere overlaps with this operation.
    pub fn wait(&mut self, ticket: IoTicket) -> Vec<u8> {
        self.now = self.now.max(ticket.completion);
        self.clock.advance_to(self.now);
        ticket.data.unwrap_or_default()
    }

    /// Await only the *time* of a ticket, discarding data.
    pub fn wait_done(&mut self, ticket: &IoTicket) {
        self.now = self.now.max(ticket.completion);
        self.clock.advance_to(self.now);
    }

    /// Move the cursor to at least `t` (used when joining another actor's
    /// completion).
    pub fn join_at(&mut self, t: Ns) {
        self.now = self.now.max(t);
        self.clock.advance_to(self.now);
    }
}

/// A cloneable handle to a session shared by the operators of one query
/// plan (Volcano-style trees pull from several children that all charge
/// time to the same actor).
///
/// Reading the cursor takes no lock: every operation on the handle,
/// while it still holds the session lock, leaves the cursor in an
/// atomic beside it, and [`SessionHandle::now`] loads that.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    inner: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    session: Mutex<IoSession>,
    /// `session.now()` as the last completed operation left it;
    /// written only under the session lock.
    now: AtomicU64,
}

impl SessionHandle {
    /// Wrap a session.
    pub fn new(session: IoSession) -> Self {
        SessionHandle {
            inner: Arc::new(Shared {
                now: AtomicU64::new(session.now()),
                session: Mutex::new(session),
            }),
        }
    }

    /// Start a fresh session on `clock` and wrap it.
    pub fn fresh(clock: SimClock) -> Self {
        Self::new(IoSession::new(clock))
    }

    /// The session's cursor after the last operation completed on this
    /// handle (or a clone of it) — one atomic load, never a wait for an
    /// operation in flight on another thread. It never goes backwards:
    /// no [`IoSession`] operation moves its cursor back, and the mirror
    /// is written in session-lock order.
    pub fn now(&self) -> Ns {
        self.inner.now.load(Ordering::Acquire)
    }

    /// Run `f` with exclusive access to the session.
    pub fn with<R>(&self, f: impl FnOnce(&mut IoSession) -> R) -> R {
        let mut session = self.inner.session.lock();
        let result = f(&mut session);
        self.inner.now.store(session.now(), Ordering::Release);
        result
    }

    /// Synchronous read through the shared session.
    pub fn read(&self, dev: &SimDevice, offset: u64, len: u64) -> StorageResult<Vec<u8>> {
        self.with(|s| s.read(dev, offset, len))
    }

    /// Synchronous borrowed read through the shared session. `f` runs
    /// with the session and the device's backend locked: it must not
    /// use either.
    pub fn read_with<R>(
        &self,
        dev: &SimDevice,
        offset: u64,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<R> {
        self.with(|s| s.read_with(dev, offset, len, f))
    }

    /// Synchronous write through the shared session.
    pub fn write(&self, dev: &SimDevice, offset: u64, data: &[u8]) -> StorageResult<()> {
        self.with(|s| s.write(dev, offset, data))
    }

    /// Asynchronous read issued at the shared session's cursor.
    pub fn read_async(&self, dev: &SimDevice, offset: u64, len: u64) -> StorageResult<IoTicket> {
        self.with(|s| s.read_async(dev, offset, len))
    }

    /// Await a ticket on the shared session.
    pub fn wait(&self, ticket: IoTicket) -> Vec<u8> {
        self.with(|s| s.wait(ticket))
    }

    /// Model CPU work on the shared session.
    pub fn cpu(&self, ns: Ns) {
        self.with(|s| s.cpu(ns))
    }

    /// Move the session cursor forward to at least `t`.
    pub fn join_at(&self, t: Ns) {
        self.with(|s| s.join_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::MIB;

    fn setup() -> (SimClock, SimDevice, SimDevice) {
        let clock = SimClock::new();
        let hdd = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        (clock, hdd, ssd)
    }

    #[test]
    fn sync_read_advances_cursor() {
        let (clock, hdd, _) = setup();
        hdd.write_at(0, 0, &vec![7u8; 4096]).unwrap();
        let mut s = IoSession::at(clock, hdd.busy_until());
        let before = s.now();
        let data = s.read(&hdd, 0, 4096).unwrap();
        assert_eq!(data.len(), 4096);
        assert!(s.now() > before);
    }

    #[test]
    fn async_overlap_takes_max_of_devices() {
        let (clock, hdd, ssd) = setup();
        let big = vec![0u8; (4 * MIB) as usize];
        hdd.write_at(0, 0, &big).unwrap();
        ssd.write_at(0, 0, &big).unwrap();
        let start = clock.now().max(hdd.busy_until()).max(ssd.busy_until());

        // Overlapped: issue SSD read async, do HDD read sync, then wait.
        let mut s = IoSession::at(clock.clone(), start);
        let ticket = s.read_async(&ssd, 0, 4 * MIB).unwrap();
        s.read(&hdd, 0, 4 * MIB).unwrap();
        s.wait(ticket);
        let overlapped = s.elapsed_since(start);

        // The HDD is the slower device; overlap must cost ~the HDD time.
        let hdd_only = DeviceProfile::hdd_barracuda().duration(
            crate::device::AccessKind::Read,
            4 * MIB,
            false,
        );
        assert!(
            overlapped < hdd_only + hdd_only / 5,
            "overlapped={overlapped} hdd_only={hdd_only}"
        );

        // Serial on one device would be strictly larger than either alone.
        let ssd_only =
            DeviceProfile::ssd_x25e().duration(crate::device::AccessKind::Read, 4 * MIB, false);
        assert!(overlapped < hdd_only + ssd_only);
    }

    #[test]
    fn cpu_time_advances_clock() {
        let (clock, _, _) = setup();
        let mut s = IoSession::new(clock.clone());
        s.cpu(1_000_000);
        assert_eq!(s.now(), 1_000_000);
        assert_eq!(clock.now(), 1_000_000);
    }

    #[test]
    fn wait_done_preserves_order() {
        let (clock, _, ssd) = setup();
        ssd.write_at(0, 0, &vec![0u8; 128 * 1024]).unwrap();
        let mut s = IoSession::at(clock, ssd.busy_until());
        // Two *random* reads: completions are ordered by issue order.
        let t1 = s.read_async(&ssd, 0, 4096).unwrap();
        let t2 = s.read_async(&ssd, 65536, 4096).unwrap();
        assert!(t2.completion() > t1.completion());
        s.wait_done(&t2);
        assert_eq!(s.now(), t2.completion());
        // Waiting on the earlier ticket afterwards is a no-op in time.
        let now = s.now();
        s.wait_done(&t1);
        assert_eq!(s.now(), now);
    }

    #[test]
    fn join_at_moves_forward_only() {
        let (clock, _, _) = setup();
        let mut s = IoSession::at(clock, 100);
        s.join_at(50);
        assert_eq!(s.now(), 100);
        s.join_at(500);
        assert_eq!(s.now(), 500);
    }

    #[test]
    fn pipelined_scan_is_device_bound() {
        // Issuing the next read while "processing" the current one should
        // make total time ≈ device busy time, not device + cpu.
        let (clock, hdd, _) = setup();
        let chunk = vec![0u8; MIB as usize];
        for i in 0..8u64 {
            hdd.write_at(0, i * MIB, &chunk).unwrap();
        }
        hdd.reset_stats();
        let start = hdd.busy_until();
        let mut s = IoSession::at(clock, start);
        let mut pending = s.read_async(&hdd, 0, MIB).unwrap();
        for i in 1..8u64 {
            let next = s.read_async(&hdd, i * MIB, MIB).unwrap();
            s.wait(pending);
            s.cpu(100_000); // 0.1ms CPU per MB — far less than 13ms I/O
            pending = next;
        }
        s.wait(pending);
        let elapsed = s.elapsed_since(start);
        let busy = hdd.stats().busy_ns;
        assert!(
            elapsed <= busy + 8 * 100_000 + 1_000_000,
            "elapsed={elapsed} busy={busy}"
        );
    }

    #[test]
    fn handle_cursor_is_the_session_cursor_after_every_operation() {
        let (clock, hdd, ssd) = setup();
        ssd.write_at(0, 0, &vec![1u8; 64 * 1024]).unwrap();
        let handle = SessionHandle::new(IoSession::at(clock, 1_000));
        let clone = handle.clone();
        let mut last = 0;
        let mut in_step = |op: &str| {
            let now = handle.now();
            assert_eq!(now, handle.with(|s| s.now()), "after {op}");
            assert_eq!(clone.now(), now, "clones share the cursor ({op})");
            assert!(now >= last, "{op} moved the cursor back");
            last = now;
            now
        };
        assert_eq!(in_step("new"), 1_000);
        handle.read(&ssd, 0, 4096).unwrap();
        let after_read = in_step("read");
        assert!(after_read > 1_000);
        handle.read_with(&ssd, 4096, 512, |b| b.len()).unwrap();
        assert!(in_step("read_with") > after_read);
        clone.write(&hdd, 0, &[2u8; 4096]).unwrap();
        let after_write = in_step("write");
        let ticket = handle.read_async(&ssd, 8192, 4096).unwrap();
        assert_eq!(in_step("read_async"), after_write, "issued, not awaited");
        let done = ticket.completion();
        handle.wait(ticket);
        assert_eq!(in_step("wait"), after_write.max(done));
        handle.cpu(750);
        let after_cpu = in_step("cpu");
        handle.join_at(after_cpu - 1);
        assert_eq!(in_step("join_at (behind)"), after_cpu);
        handle.join_at(after_cpu + 10);
        assert_eq!(in_step("join_at (ahead)"), after_cpu + 10);
        handle.with(|s| s.cpu(5));
        assert_eq!(in_step("with"), after_cpu + 15);
        // A failed operation leaves the cursor where it was.
        assert!(handle.read(&ssd, 1 << 30, 8).is_err());
        assert_eq!(in_step("failed read"), after_cpu + 15);
    }

    #[test]
    fn a_polling_thread_never_sees_the_cursor_go_back() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (clock, _, ssd) = setup();
        ssd.write_at(0, 0, &vec![0u8; 256 * 1024]).unwrap();
        let handle = SessionHandle::fresh(clock);
        let (done, started) = (AtomicBool::new(false), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let poller = s.spawn(|| {
                started.wait();
                let (mut last, mut polls) = (handle.now(), 0u64);
                while !done.load(Ordering::Acquire) {
                    let now = handle.now();
                    assert!(now >= last, "cursor went from {last} back to {now}");
                    last = now;
                    polls += 1;
                }
                (last, polls)
            });
            started.wait();
            for i in 0..20_000u64 {
                match i % 4 {
                    0 => handle.write(&ssd, (i % 64) * 4096, &[3u8; 512]).unwrap(),
                    1 => drop(handle.read(&ssd, (i % 61) * 4096, 4096).unwrap()),
                    2 => handle.cpu(10),
                    _ => handle
                        .wait(handle.read_async(&ssd, 0, 512).unwrap())
                        .clear(),
                }
            }
            done.store(true, Ordering::Release);
            let (last, polls) = poller.join().unwrap();
            assert!(polls > 0);
            assert!(last <= handle.now());
        });
    }
}
