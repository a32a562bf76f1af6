//! Simulated devices: byte storage + timing + statistics.
//!
//! A [`SimDevice`] binds in-memory bytes to a [`DeviceProfile`] and a
//! shared [`SimClock`]. It maintains a single *busy-until* horizon: requests
//! from any number of actors serialize on the device, exactly like a real
//! disk with one head (or one SATA link).
//!
//! Sequentiality detection depends on the profile's
//! [`DeviceProfile::queue_streams`]. A single-head device (HDD) judges
//! every access against the one most recently touched byte, so two
//! interleaved streams — a table scan and a stream of random in-place
//! updates, say — destroy each other's sequential patterns and both pay
//! seek penalties: the central interference effect of the paper's §2.2.
//! A multi-stream device (SSD under NCQ) instead tracks a bounded set
//! of open stream *tails*; an access is sequential when it continues
//! its own stream, so concurrent appenders (background flush workers,
//! merge writers) keep their individual write patterns sequential.
//!
//! The device also accounts its submission queue: how many requests
//! were in flight when each new one arrived ([`IoStatsSnapshot::
//! max_queue_depth`]), which is how parallel segment execution becomes
//! observable.
//!
//! # What a device call costs, and what it may never change
//!
//! A read or write is the fault checks (atomic loads), the backend copy
//! under the backend's lock, and **one critical section** on the device
//! state: classify, price, queue, count, advance the clock. The backend
//! hands its size back from under the lock the copy held, the
//! seek-distance quotient is computed only for a profile that reads it
//! (a [`crate::device::SeekModel`] pricing a random access — flash
//! never does), erase-block wear is a vector indexed by block, and an
//! appender continuing the newest stream tail moves it in place. None
//! of that is visible: for any sequence of calls, every `(start,
//! completion)`, every [`IoStatsSnapshot`] field, [`crate::WearStats`],
//! `busy_until` and the clock are what the plain arithmetic gives —
//! `tests/timeline.rs` keeps that arithmetic as a reference scheduler
//! and holds the device to it step by step. An extent that does not
//! fit the address space ([`StorageError::OutOfBounds`]) is refused
//! before anything is resized, scheduled or counted.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::MemBackend;
use crate::clock::{Ns, SimClock};
use crate::device::{AccessKind, DeviceProfile};
use crate::error::{StorageError, StorageResult};
use crate::lockcheck::assert_no_tracked_locks;
use crate::stats::{IoStats, IoStatsSnapshot};

#[derive(Debug)]
struct DevState {
    /// Virtual time until which the device is occupied.
    busy_until: Ns,
    /// End offset of the most recent access (single-head sequentiality
    /// and seek-distance accounting).
    last_end: Option<u64>,
    /// Open write-stream tails (multi-stream devices only): an access
    /// at one of these offsets continues that stream. LRU-bounded to
    /// `queue_streams`.
    write_tails: VecDeque<u64>,
    /// Open read-stream tails (multi-stream devices only), bounded to
    /// `4 × queue_streams`.
    read_tails: VecDeque<u64>,
    /// Completion times of requests still occupying the device, for
    /// queue-depth accounting.
    inflight: BinaryHeap<Reverse<Ns>>,
    stats: IoStats,
}

impl DevState {
    /// Classify an access ending at `end` and update the stream-tail
    /// state. Multi-stream devices match writes against write tails
    /// only (flash cares about write contiguity per stream) while reads
    /// may also continue a write tail (reading back what was just
    /// appended), without consuming it.
    fn classify(&mut self, streams: usize, kind: AccessKind, offset: u64, end: u64) -> bool {
        let continues_head = self.last_end == Some(offset);
        self.last_end = Some(end);
        if streams == 0 {
            return continues_head;
        }
        let (tails, cap) = match kind {
            AccessKind::Write => (&mut self.write_tails, streams),
            AccessKind::Read => (&mut self.read_tails, streams * 4),
        };
        if continue_tail(tails, offset, end) {
            return true;
        }
        tails.push_back(end);
        while tails.len() > cap {
            tails.pop_front();
        }
        kind == AccessKind::Read && self.write_tails.contains(&offset)
    }
}

/// Move the (oldest) stream tail at `offset`, if there is one, to `end`
/// and make it the newest. An appender continuing the stream the device
/// touched last — the redo log, a run writer — finds it at the back and
/// updates it where it is: the deque ends exactly as `remove` +
/// `push_back` would leave it.
fn continue_tail(tails: &mut VecDeque<u64>, offset: u64, end: u64) -> bool {
    let Some(pos) = tails.iter().position(|&t| t == offset) else {
        return false;
    };
    if pos + 1 == tails.len() {
        tails[pos] = end;
    } else {
        tails.remove(pos);
        tails.push_back(end);
    }
    true
}

/// A simulated storage device.
///
/// Cloning is cheap (shared state); all methods take `&self`.
#[derive(Clone)]
pub struct SimDevice {
    backend: Arc<MemBackend>,
    profile: DeviceProfile,
    clock: SimClock,
    state: Arc<Mutex<DevState>>,
    write_faulted: Arc<AtomicBool>,
    read_faulted: Arc<AtomicBool>,
    /// Pending torn-write injection: `u64::MAX` = none, otherwise the
    /// number of leading bytes the next write persists before the
    /// device "loses power" (see [`SimDevice::inject_torn_write`]).
    torn_write_keep: Arc<AtomicU64>,
}

/// Sentinel for "no torn write pending".
const NO_TORN_WRITE: u64 = u64::MAX;

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("profile", &self.profile.name)
            .field("len", &self.backend.len())
            .finish()
    }
}

impl SimDevice {
    /// Create a device over `backend` with timing `profile` on `clock`.
    pub(crate) fn new(backend: MemBackend, profile: DeviceProfile, clock: SimClock) -> Self {
        SimDevice {
            backend: Arc::new(backend),
            profile,
            clock,
            state: Arc::new(Mutex::new(DevState {
                busy_until: 0,
                last_end: None,
                write_tails: VecDeque::new(),
                read_tails: VecDeque::new(),
                inflight: BinaryHeap::new(),
                stats: IoStats::default(),
            })),
            write_faulted: Arc::new(AtomicBool::new(false)),
            read_faulted: Arc::new(AtomicBool::new(false)),
            torn_write_keep: Arc::new(AtomicU64::new(NO_TORN_WRITE)),
        }
    }

    /// Convenience: in-memory device with the given profile.
    pub fn in_memory(profile: DeviceProfile, clock: SimClock) -> Self {
        Self::new(MemBackend::new(), profile, clock)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current backend size in bytes.
    pub fn len(&self) -> u64 {
        self.backend.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Schedule an access of `offset..end` starting no earlier than
    /// `at`; returns `(start, completion)` in virtual time and updates
    /// statistics — one critical section, the only one a device call
    /// takes besides the backend's own. `backend_len` is the backend's
    /// size as the access left it ([`MemBackend::write_at`],
    /// [`MemBackend::read_with`]). The device is occupied until
    /// `start + duration`; the returned completion additionally
    /// includes the profile's extra latency for random operations
    /// (which does not occupy the device — see
    /// [`DeviceProfile::rand_extra_latency`]).
    fn schedule(
        &self,
        at: Ns,
        kind: AccessKind,
        offset: u64,
        end: u64,
        backend_len: u64,
    ) -> (Ns, Ns) {
        let len = end - offset;
        let mut st = self.state.lock();
        let last_end = st.last_end;
        let sequential = st.classify(self.profile.queue_streams, kind, offset, end);
        // The seek distance is read by a seek model pricing a random
        // access and by nothing else: flash never computes it.
        let dist_frac = if sequential || self.profile.seek_model.is_none() {
            0.0
        } else {
            match last_end {
                Some(last) => offset.abs_diff(last) as f64 / backend_len.max(end).max(1) as f64,
                None => 0.532f64.powi(2), // no position yet: average seek
            }
        };
        let duration = self
            .profile
            .duration_at_distance(kind, len, sequential, dist_frac);
        // Queue accounting: drop requests that completed before this
        // submission instant; what remains (plus this one) is the depth
        // the device sees.
        while let Some(&Reverse(done)) = st.inflight.peek() {
            if done <= at {
                st.inflight.pop();
            } else {
                break;
            }
        }
        let start = at.max(st.busy_until);
        let end = start + duration;
        st.busy_until = end;
        st.inflight.push(Reverse(end));
        let depth = st.inflight.len() as u64;
        st.stats.record(
            kind,
            len,
            sequential,
            duration,
            offset,
            self.profile.erase_block,
        );
        st.stats.record_queue_depth(depth);
        let completion = if sequential {
            end
        } else {
            end + self.profile.rand_extra_latency
        };
        self.clock.advance_to(completion);
        (start, completion)
    }

    /// Read `len` bytes at `offset`, submitted at virtual time `at`,
    /// and run `f` over them in place: the one read door — the same
    /// fault checks, lock-discipline assert and device scheduling
    /// whether the caller copies the bytes out ([`SimDevice::read_at`])
    /// or only looks at them. Returns `f`'s result and the completion
    /// time. `f` runs under the backend's read lock (see
    /// [`MemBackend::read_with`]): it must not touch this device.
    pub(crate) fn read_with<R>(
        &self,
        at: Ns,
        offset: u64,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<(R, Ns)> {
        assert_no_tracked_locks("read");
        if self.read_faulted.load(Ordering::Acquire) {
            return Err(StorageError::Faulted("injected device read fault"));
        }
        let (result, backend_len) = self.backend.read_with(offset, len, f)?;
        let (_, end) = self.schedule(at, AccessKind::Read, offset, offset + len, backend_len);
        Ok((result, end))
    }

    /// Read `len` bytes at `offset`, submitted at virtual time `at`.
    /// Returns the data and the completion time.
    pub fn read_at(&self, at: Ns, offset: u64, len: u64) -> StorageResult<(Vec<u8>, Ns)> {
        self.read_with(at, offset, len, <[u8]>::to_vec)
    }

    /// Write `data` at `offset`, submitted at virtual time `at`.
    /// Returns the completion time.
    pub fn write_at(&self, at: Ns, offset: u64, data: &[u8]) -> StorageResult<Ns> {
        assert_no_tracked_locks("write");
        if self.write_faulted.load(Ordering::Acquire) {
            return Err(StorageError::Faulted("injected device write fault"));
        }
        // Armed by a test, never on a running system: the swap that
        // disarms it is paid only then.
        if self.torn_write_keep.load(Ordering::Acquire) != NO_TORN_WRITE {
            let keep = self.torn_write_keep.swap(NO_TORN_WRITE, Ordering::AcqRel);
            if keep != NO_TORN_WRITE {
                // Crash mid-append: only the first `keep` bytes reach
                // the medium, the device goes dark, and the caller sees
                // the failure. Later recovery finds the torn record.
                let k = (keep as usize).min(data.len());
                if k > 0 {
                    self.backend.write_at(offset, &data[..k])?;
                }
                self.write_faulted.store(true, Ordering::Release);
                return Err(StorageError::Faulted("injected torn write"));
            }
        }
        // The backend refuses an extent that does not fit before
        // anything is resized, scheduled or counted, so `offset + len`
        // below cannot overflow.
        let backend_len = self.backend.write_at(offset, data)?;
        let end_offset = offset + data.len() as u64;
        let (_, end) = self.schedule(at, AccessKind::Write, offset, end_offset, backend_len);
        Ok(end)
    }

    /// Snapshot of accumulated I/O statistics.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.state.lock().stats.snapshot()
    }

    /// O(1) erase-block wear summary (see [`crate::WearStats`]).
    pub fn wear_stats(&self) -> crate::stats::WearStats {
        self.state.lock().stats.wear_stats()
    }

    /// Reset statistics (busy horizon and data are preserved).
    pub fn reset_stats(&self) {
        self.state.lock().stats = IoStats::default();
    }

    /// Virtual time at which the device becomes idle.
    pub fn busy_until(&self) -> Ns {
        self.state.lock().busy_until
    }

    /// Treat the next access at `offset` as a sequential continuation.
    ///
    /// A freshly created device has no head position, so its very first
    /// write is classified random even when a writer (like the MaSM run
    /// allocator) will only ever append from a fixed origin. Priming the
    /// position at that origin removes the artifact so tests can assert
    /// the strict `random_writes == 0` invariant of the paper's design
    /// goal 2. On a multi-stream device this *opens* a write stream at
    /// `offset` (a new append stream for a run writer); existing
    /// streams are unaffected.
    pub fn prime_head_position(&self, offset: u64) {
        let mut st = self.state.lock();
        if self.profile.queue_streams == 0 {
            st.last_end = Some(offset);
        } else if !st.write_tails.contains(&offset) {
            let cap = self.profile.queue_streams;
            st.write_tails.push_back(offset);
            while st.write_tails.len() > cap {
                st.write_tails.pop_front();
            }
        }
    }

    /// [`SimDevice::prime_head_position`], but only when the device has
    /// no head position yet. Safe for several actors sharing one device
    /// (e.g. two engines with regions on one SSD, §4.3): the first
    /// construction removes the fresh-device artifact, later ones leave
    /// the real head state — and its sequentiality accounting — intact.
    pub fn prime_head_position_if_unset(&self, offset: u64) {
        let mut st = self.state.lock();
        if self.profile.queue_streams == 0 {
            if st.last_end.is_none() {
                st.last_end = Some(offset);
            }
        } else if st.write_tails.is_empty() && st.last_end.is_none() {
            st.write_tails.push_back(offset);
        }
    }

    /// Fault injection restricted to writes: reads keep succeeding.
    /// Models a device that has gone read-only (e.g. an SSD at end of
    /// life), and lets tests verify that queries keep being served while
    /// background flush/migration work fails.
    pub fn inject_write_fault(&self) {
        self.write_faulted.store(true, Ordering::Release);
    }

    /// Clear an injected write fault.
    pub fn clear_write_fault(&self) {
        self.write_faulted.store(false, Ordering::Release);
    }

    /// Fault injection restricted to reads: writes keep succeeding.
    /// Models unrecoverable read errors (media corruption reported by
    /// the device) so recovery paths can be tested against them.
    pub fn inject_read_fault(&self) {
        self.read_faulted.store(true, Ordering::Release);
    }

    /// Clear an injected read fault.
    pub fn clear_read_fault(&self) {
        self.read_faulted.store(false, Ordering::Release);
    }

    /// Make the *next* write persist only its first `keep_bytes` bytes
    /// and then fail, leaving the device write-faulted (as after a
    /// power cut mid-append). The partial bytes stay on the medium —
    /// exactly the torn-tail shape crash recovery must tolerate. Use
    /// [`SimDevice::clear_write_fault`] to "power the device back on".
    pub fn inject_torn_write(&self, keep_bytes: u64) {
        self.torn_write_keep.store(keep_bytes, Ordering::Release);
    }

    /// Freeze the current durable contents into a fresh in-memory
    /// device: a crash image. Only bytes whose writes completed are
    /// visible (backend writes are atomic), the head position and
    /// statistics start clean, and the snapshot shares no state with
    /// the live device — the original can keep running while tests
    /// recover from the copy. Out-of-band: costs no virtual time.
    pub fn snapshot(&self, clock: SimClock) -> StorageResult<SimDevice> {
        self.snapshot_prefix(clock, self.backend.len())
    }

    /// [`SimDevice::snapshot`] truncated to the first `len` bytes: the
    /// deterministic "crash at byte offset N" primitive. Cutting a WAL
    /// device at every prefix sweeps recovery across every possible
    /// crash point, including mid-record torn tails.
    pub fn snapshot_prefix(&self, clock: SimClock, len: u64) -> StorageResult<SimDevice> {
        let n = len.min(self.backend.len());
        let backend = MemBackend::new();
        if n > 0 {
            let mut buf = vec![0u8; n as usize];
            self.backend.read_at(0, &mut buf)?;
            backend.write_at(0, &buf)?;
        }
        Ok(SimDevice::new(backend, self.profile.clone(), clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdd() -> SimDevice {
        SimDevice::in_memory(DeviceProfile::hdd_barracuda(), SimClock::new())
    }

    fn ssd() -> SimDevice {
        SimDevice::in_memory(DeviceProfile::ssd_x25e(), SimClock::new())
    }

    #[test]
    fn data_roundtrip_through_device() {
        let d = ssd();
        d.write_at(0, 0, b"masm").unwrap();
        let (data, _) = d.read_at(0, 0, 4).unwrap();
        assert_eq!(&data, b"masm");
    }

    #[test]
    fn sequential_writes_avoid_seek_penalty() {
        let d = hdd();
        let chunk = vec![0u8; 64 * 1024];
        let t1 = d.write_at(0, 0, &chunk).unwrap();
        let t2 = d.write_at(t1, 64 * 1024, &chunk).unwrap();
        // Second write is sequential: its duration must be far below a seek.
        assert!(t2 - t1 < 2_000_000, "sequential write took {}ns", t2 - t1);
        let s = d.stats();
        assert_eq!(s.sequential_ops, 1);
        assert_eq!(s.random_ops, 1); // the first op had no predecessor
    }

    #[test]
    fn interleaved_streams_destroy_sequentiality() {
        let d = hdd();
        let chunk = vec![0u8; 4096];
        // Pre-populate distant regions.
        d.write_at(0, 0, &vec![0u8; 1 << 20]).unwrap();
        d.write_at(0, 1 << 30, &vec![0u8; 1 << 20]).unwrap();
        d.reset_stats();
        // Stream A scans forward; stream B writes far away, alternating.
        let mut t = d.busy_until();
        for i in 0..4u64 {
            let (_, ta) = d.read_at(t, i * 4096, 4096).unwrap();
            let tb = d.write_at(ta, (1 << 30) + i * 4096, &chunk).unwrap();
            t = tb;
        }
        let s = d.stats();
        // Every access after an access from the other stream is random.
        assert_eq!(s.sequential_ops, 0, "{s:?}");
        assert_eq!(s.random_ops, 8);
    }

    #[test]
    fn device_serializes_concurrent_submissions() {
        let d = ssd();
        d.write_at(0, 0, &vec![0u8; 1 << 20]).unwrap();
        let base = d.busy_until();
        // Two requests submitted at the same virtual instant must not
        // overlap on one device.
        let (_, e1) = d.read_at(base, 0, 512 * 1024).unwrap();
        let (_, e2) = d.read_at(base, 512 * 1024, 512 * 1024).unwrap();
        assert!(e2 > e1);
        let gap = e2 - e1;
        let dur1 = e1 - base;
        // Second op starts after the first completes; with sequential
        // continuation its duration is similar.
        assert!(gap > dur1 / 2);
    }

    #[test]
    fn clock_tracks_device_completion() {
        let c = SimClock::new();
        let d = SimDevice::in_memory(DeviceProfile::ssd_x25e(), c.clone());
        let end = d.write_at(0, 0, &[1u8; 4096]).unwrap();
        assert_eq!(c.now(), end);
    }

    #[test]
    fn out_of_bounds_read_fails_cleanly() {
        let d = ssd();
        assert!(d.read_at(0, 0, 10).is_err());
    }

    #[test]
    fn fault_injection_blocks_io() {
        let d = ssd();
        d.write_at(0, 0, &[1, 2, 3]).unwrap();
        d.inject_read_fault();
        d.inject_write_fault();
        assert!(matches!(d.read_at(0, 0, 3), Err(StorageError::Faulted(_))));
        assert!(matches!(
            d.write_at(0, 0, &[4]),
            Err(StorageError::Faulted(_))
        ));
        d.clear_read_fault();
        d.clear_write_fault();
        assert!(d.read_at(0, 0, 3).is_ok());
        d.write_at(0, 0, &[4]).unwrap();
        assert_eq!(d.read_at(0, 0, 3).unwrap().0, vec![4, 2, 3]);
    }

    #[test]
    fn borrowed_read_costs_and_fails_exactly_like_an_owned_one() {
        let (owned, lent) = (ssd(), ssd());
        for d in [&owned, &lent] {
            d.write_at(0, 0, &vec![7u8; 64 * 1024]).unwrap();
            d.reset_stats();
        }
        let at = owned.busy_until();
        for (offset, len) in [(0, 4096), (4096, 4096), (40_960, 512), (0, 4096)] {
            let (data, end) = owned.read_at(at, offset, len).unwrap();
            let (sum, lent_end) = lent
                .read_with(at, offset, len, |b| {
                    b.iter().map(|&x| x as u64).sum::<u64>()
                })
                .unwrap();
            assert_eq!(sum, data.iter().map(|&x| x as u64).sum::<u64>());
            assert_eq!(lent_end, end, "same completion time");
        }
        assert_eq!(lent.stats(), owned.stats(), "same device accounting");
        assert_eq!(lent.busy_until(), owned.busy_until());
        // Out of bounds: an error, and nothing scheduled.
        assert!(lent.read_with(at, 64 * 1024, 1, |_| ()).is_err());
        assert_eq!(lent.stats(), owned.stats());
        // The read fault switch reaches the borrowed door and the
        // closure never runs; the write fault switch spares it.
        lent.inject_read_fault();
        let lent_read = |d: &SimDevice| d.read_with(at, 0, 8, |_| panic!("read a faulted device"));
        assert!(matches!(lent_read(&lent), Err(StorageError::Faulted(_))));
        assert_eq!(
            lent.stats(),
            owned.stats(),
            "a faulted read is not scheduled"
        );
        lent.clear_read_fault();
        lent.inject_write_fault();
        assert_eq!(lent.read_with(at, 0, 8, <[u8]>::len).unwrap().0, 8);
    }

    #[test]
    fn write_fault_injection_spares_reads() {
        let d = ssd();
        d.write_at(0, 0, &[1, 2, 3]).unwrap();
        d.inject_write_fault();
        assert!(matches!(
            d.write_at(0, 8, &[4]),
            Err(StorageError::Faulted(_))
        ));
        assert_eq!(d.read_at(0, 0, 3).unwrap().0, vec![1, 2, 3]);
        d.clear_write_fault();
        assert!(d.write_at(0, 8, &[4]).is_ok());
    }

    #[test]
    fn read_fault_injection_spares_writes() {
        let d = ssd();
        d.write_at(0, 0, &[1, 2, 3]).unwrap();
        d.inject_read_fault();
        assert!(matches!(d.read_at(0, 0, 3), Err(StorageError::Faulted(_))));
        assert!(d.write_at(d.busy_until(), 8, &[4]).is_ok());
        d.clear_read_fault();
        assert_eq!(d.read_at(0, 0, 3).unwrap().0, vec![1, 2, 3]);
    }

    #[test]
    fn torn_write_persists_prefix_then_faults() {
        let d = ssd();
        d.write_at(0, 0, &[9u8; 8]).unwrap();
        d.inject_torn_write(3);
        assert!(matches!(
            d.write_at(d.busy_until(), 0, &[7u8; 8]),
            Err(StorageError::Faulted(_))
        ));
        // The device stays dark until explicitly revived.
        assert!(d.write_at(d.busy_until(), 0, &[1]).is_err());
        d.clear_write_fault();
        // Exactly the first 3 bytes of the torn write landed.
        assert_eq!(d.read_at(0, 0, 8).unwrap().0, vec![7, 7, 7, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn snapshot_is_isolated_and_prefix_cuts() {
        let d = ssd();
        d.write_at(0, 0, b"hello world").unwrap();
        let snap = d.snapshot(SimClock::new()).unwrap();
        let cut = d.snapshot_prefix(SimClock::new(), 5).unwrap();
        // Writes after the snapshot are invisible to it.
        d.write_at(d.busy_until(), 0, b"HELLO").unwrap();
        assert_eq!(snap.read_at(0, 0, 11).unwrap().0, b"hello world");
        assert_eq!(cut.len(), 5);
        assert_eq!(cut.read_at(0, 0, 5).unwrap().0, b"hello");
        assert!(cut.read_at(0, 0, 6).is_err(), "cut must end at the prefix");
        // Snapshot stats start clean.
        assert_eq!(snap.stats().bytes_written, 0);
    }

    #[test]
    fn wear_counters_accumulate_on_ssd() {
        let d = ssd();
        for i in 0..8u64 {
            d.write_at(0, i * 4096, &[0u8; 4096]).unwrap();
        }
        let s = d.stats();
        assert!(s.touched_blocks >= 1);
        assert!(s.bytes_written == 8 * 4096);
    }

    #[test]
    fn prime_head_makes_first_write_sequential() {
        let d = ssd();
        d.prime_head_position(4096);
        d.write_at(0, 4096, &[0u8; 4096]).unwrap();
        d.write_at(d.busy_until(), 8192, &[0u8; 4096]).unwrap();
        let s = d.stats();
        assert_eq!(s.random_writes, 0, "{s:?}");
        assert_eq!(s.sequential_ops, 2);
    }

    #[test]
    fn prime_if_unset_never_clobbers_existing_head() {
        let d = ssd();
        d.prime_head_position_if_unset(0);
        d.write_at(0, 0, &[0u8; 4096]).unwrap();
        // A second actor "constructing" on the shared device must not
        // rewrite the head position (4096 after the write above).
        d.prime_head_position_if_unset(1 << 20);
        d.write_at(d.busy_until(), 4096, &[0u8; 4096]).unwrap();
        let s = d.stats();
        assert_eq!(s.random_writes, 0, "{s:?}");
    }
}
