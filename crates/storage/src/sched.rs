//! Per-actor I/O sessions modeling asynchronous-I/O overlap.
//!
//! The paper's prototype uses `libaio` to overlap disk and SSD accesses
//! (§4.1): while a range scan streams 1 MB reads off the disk, the
//! corresponding reads of cached updates proceed on the SSD, and the scan
//! only stalls if the SSD side falls behind. A [`SessionHandle`]
//! reproduces this: it is a cursor in virtual time owned by one actor (a
//! query, an updater, a migration thread). Synchronous operations advance
//! the cursor to the completion time; asynchronous operations are
//! *issued* at the cursor and produce an [`IoTicket`] that is awaited
//! later, advancing the cursor only to `max(now, completion)` — the
//! overlap.
//!
//! Clones of a handle share one cursor, so the operators of a plan
//! charge their time to the same actor. Operations serialize on the
//! cursor lock; **reading the cursor does not** — [`SessionHandle::now`]
//! is one atomic load of the cursor as the last completed operation left
//! it, which is what a stopwatch around an operation (`Timer`, a trace
//! span, a scan's stall clock) wants and all it ever needed the lock for.

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
    data: Vec<u8>,
    completion: Ns,
}

impl IoTicket {
    /// Virtual completion time of this operation.
    pub fn completion(&self) -> Ns {
        self.completion
    }
}

/// A per-actor virtual-time cursor issuing device operations, shared by
/// its clones (Volcano-style trees pull from several children that all
/// charge time to the same actor).
///
/// Reading the cursor takes no lock: every operation, while it still
/// holds the cursor lock, leaves the cursor in an atomic beside it, and
/// [`SessionHandle::now`] loads that.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    inner: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    clock: SimClock,
    /// The cursor; operations serialize on this lock.
    cursor: Mutex<Ns>,
    /// `*cursor` as the last completed operation left it; written only
    /// under the cursor lock.
    now: AtomicU64,
}

impl SessionHandle {
    /// Start a session at the clock's current time.
    pub fn fresh(clock: SimClock) -> Self {
        let now = clock.now();
        Self::at(clock, now)
    }

    /// Start a session with a cursor of its own at virtual time `t`.
    pub fn at(clock: SimClock, t: Ns) -> Self {
        SessionHandle {
            inner: Arc::new(Shared {
                clock,
                cursor: Mutex::new(t),
                now: AtomicU64::new(t),
            }),
        }
    }

    /// The cursor after the last operation completed on this handle (or
    /// a clone of it) — one atomic load, never a wait for an operation
    /// in flight on another thread. It never goes backwards: no
    /// operation moves the cursor back, and the mirror is written in
    /// cursor-lock order.
    pub fn now(&self) -> Ns {
        self.inner.now.load(Ordering::Acquire)
    }

    /// Run `f` on the locked cursor and publish where it left it.
    fn with<R>(&self, f: impl FnOnce(&mut Ns) -> R) -> R {
        let mut cursor = self.inner.cursor.lock();
        let result = f(&mut cursor);
        self.inner.now.store(*cursor, Ordering::Release);
        result
    }

    /// Move the cursor to at least `t` and publish it on the clock.
    fn advance(&self, cursor: &mut Ns, t: Ns) {
        *cursor = (*cursor).max(t);
        self.inner.clock.advance_to(*cursor);
    }

    /// Synchronous read that lends the bytes to `f` instead of copying
    /// them out: the cursor advances to the
    /// completion time. `f` runs with the cursor and the device's
    /// backend locked: it must not use either.
    pub fn read_with<R>(
        &self,
        dev: &SimDevice,
        offset: u64,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<R> {
        self.with(|cursor| {
            let (result, end) = dev.read_with(*cursor, offset, len, f)?;
            *cursor = end;
            Ok(result)
        })
    }

    /// Synchronous read: the cursor advances to the completion time.
    pub fn read(&self, dev: &SimDevice, offset: u64, len: u64) -> StorageResult<Vec<u8>> {
        self.read_with(dev, offset, len, <[u8]>::to_vec)
    }

    /// Synchronous write: the cursor advances to the completion time.
    pub fn write(&self, dev: &SimDevice, offset: u64, data: &[u8]) -> StorageResult<()> {
        self.with(|cursor| {
            *cursor = dev.write_at(*cursor, offset, data)?;
            Ok(())
        })
    }

    /// Asynchronous read: issued at the cursor, which does **not** advance.
    pub fn read_async(&self, dev: &SimDevice, offset: u64, len: u64) -> StorageResult<IoTicket> {
        self.with(|cursor| {
            let (data, completion) = dev.read_at(*cursor, offset, len)?;
            Ok(IoTicket { data, completion })
        })
    }

    /// Await a ticket: the cursor advances to `max(now, completion)`, i.e.
    /// time already spent elsewhere overlaps with this operation.
    pub fn wait(&self, ticket: IoTicket) -> Vec<u8> {
        self.with(|cursor| self.advance(cursor, ticket.completion));
        ticket.data
    }

    /// Model CPU work: advances the cursor without touching any device.
    pub fn cpu(&self, ns: Ns) {
        self.with(|cursor| self.advance(cursor, *cursor + ns))
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
        let s = SessionHandle::at(clock, hdd.busy_until());
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
        let s = SessionHandle::at(clock.clone(), start);
        let ticket = s.read_async(&ssd, 0, 4 * MIB).unwrap();
        s.read(&hdd, 0, 4 * MIB).unwrap();
        s.wait(ticket);
        let overlapped = s.now() - start;

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
        let s = SessionHandle::fresh(clock.clone());
        s.cpu(1_000_000);
        assert_eq!(s.now(), 1_000_000);
        assert_eq!(clock.now(), 1_000_000);
    }

    #[test]
    fn wait_done_preserves_order() {
        let (clock, _, ssd) = setup();
        ssd.write_at(0, 0, &vec![0u8; 128 * 1024]).unwrap();
        let s = SessionHandle::at(clock, ssd.busy_until());
        // Two *random* reads: completions are ordered by issue order.
        let t1 = s.read_async(&ssd, 0, 4096).unwrap();
        let t2 = s.read_async(&ssd, 65536, 4096).unwrap();
        let (c1, c2) = (t1.completion(), t2.completion());
        assert!(c2 > c1);
        s.wait(t2);
        assert_eq!(s.now(), c2);
        // Waiting on the earlier ticket afterwards is a no-op in time.
        assert_eq!(s.wait(t1).len(), 4096);
        assert_eq!(s.now(), c2);
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
        let s = SessionHandle::at(clock, start);
        let mut pending = s.read_async(&hdd, 0, MIB).unwrap();
        for i in 1..8u64 {
            let next = s.read_async(&hdd, i * MIB, MIB).unwrap();
            s.wait(pending);
            s.cpu(100_000); // 0.1ms CPU per MB — far less than 13ms I/O
            pending = next;
        }
        s.wait(pending);
        let elapsed = s.now() - start;
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
        let handle = SessionHandle::at(clock, 1_000);
        let clone = handle.clone();
        let mut last = 0;
        let mut in_step = |op: &str| {
            let now = handle.now();
            assert_eq!(clone.now(), now, "clones share the cursor ({op})");
            assert!(now >= last, "{op} moved the cursor back");
            last = now;
            now
        };
        assert_eq!(in_step("at"), 1_000);
        handle.read(&ssd, 0, 4096).unwrap();
        let after_read = in_step("read");
        assert!(after_read > 1_000);
        clone.read_with(&ssd, 4096, 512, |b| b.len()).unwrap();
        assert!(in_step("read_with") > after_read);
        clone.write(&hdd, 0, &[2u8; 4096]).unwrap();
        let after_write = in_step("write");
        let ticket = handle.read_async(&ssd, 8192, 4096).unwrap();
        assert_eq!(in_step("read_async"), after_write, "issued, not awaited");
        let done = ticket.completion();
        clone.wait(ticket);
        assert_eq!(in_step("wait"), after_write.max(done));
        let after_wait = in_step("wait");
        handle.cpu(750);
        assert_eq!(in_step("cpu"), after_wait + 750);
        // A failed operation leaves the cursor where it was.
        assert!(handle.read(&ssd, 1 << 30, 8).is_err());
        assert_eq!(in_step("failed read"), after_wait + 750);
    }

    #[test]
    fn at_starts_an_independent_cursor_on_the_shared_clock() {
        let (clock, hdd, ssd) = setup();
        ssd.write_at(0, 0, &vec![1u8; 64 * 1024]).unwrap();
        let start = clock.now().max(ssd.busy_until()).max(hdd.busy_until());
        let a = SessionHandle::at(clock.clone(), start);
        let b = SessionHandle::at(clock.clone(), start + 5_000_000);
        assert_eq!((a.now(), b.now()), (start, start + 5_000_000));

        // A read through `a` moves `a` and the clock, never `b`.
        a.read(&ssd, 0, 4096).unwrap();
        let a_now = a.now();
        assert!(a_now > start);
        assert_eq!(b.now(), start + 5_000_000);
        assert_eq!(clock.now(), a_now, "`at` publishes nothing on the clock");

        // A write through `b` moves `b` and the clock, never `a`.
        b.write(&hdd, 0, &[3u8; 4096]).unwrap();
        assert!(b.now() > start + 5_000_000);
        assert_eq!(a.now(), a_now);
        assert_eq!(clock.now(), b.now());

        // CPU time on `a` publishes on the clock `b` shares.
        a.cpu(b.now() - a.now() + 1);
        assert_eq!(clock.now(), a.now());
        assert!(a.now() > b.now());
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
