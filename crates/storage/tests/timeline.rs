//! The device timeline against a reference scheduler.
//!
//! [`Reference`] is `SimDevice::schedule` as it stood before the device
//! call became one critical section — the seek-distance quotient
//! computed for every access, stream tails matched by `remove` +
//! `push_back`, erase-block wear in a `HashMap` — kept here, arithmetic
//! untouched, as the model of what the timeline *is*. Seeded scripts
//! drive it and a real [`SimDevice`] side by side; after every step the
//! completion time, every [`IoStatsSnapshot`] field, [`WearStats`],
//! `busy_until` and the clock must be equal. (The start time of an
//! access is not returned by the public API; it is pinned all the same:
//! `start = busy_until − duration`, and `duration` is the step's
//! `busy_ns` delta.)

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use masm_storage::{
    AccessKind, DeviceProfile, IoStatsSnapshot, Ns, SessionHandle, SimClock, SimDevice,
    StorageError, WearStats,
};

/// The parent's `IoStats`: the snapshot plus wear in a `HashMap`.
#[derive(Default)]
struct RefStats {
    snap: IoStatsSnapshot,
    wear: HashMap<u64, u64>,
    wear_sum: u64,
    wear_sq_sum: u64,
}

impl RefStats {
    fn record(
        &mut self,
        kind: AccessKind,
        len: u64,
        sequential: bool,
        duration: u64,
        offset: u64,
        erase_block: u64,
    ) {
        let s = &mut self.snap;
        match kind {
            AccessKind::Read => {
                s.read_ops += 1;
                s.bytes_read += len;
            }
            AccessKind::Write => {
                s.write_ops += 1;
                s.bytes_written += len;
                if let Some(first) = offset.checked_div(erase_block) {
                    let last = (offset + len.max(1) - 1) / erase_block;
                    for blk in first..=last {
                        let w = self.wear.entry(blk).or_insert(0);
                        *w += 1;
                        self.wear_sum += 1;
                        self.wear_sq_sum += 2 * *w - 1;
                        s.max_block_wear = s.max_block_wear.max(*w);
                    }
                    s.touched_blocks = self.wear.len() as u64;
                }
                if !sequential {
                    s.random_writes += 1;
                }
            }
        }
        if sequential {
            s.sequential_ops += 1;
        } else {
            s.random_ops += 1;
        }
        s.busy_ns += duration;
    }

    fn record_queue_depth(&mut self, depth: u64) {
        self.snap.max_queue_depth = self.snap.max_queue_depth.max(depth);
        self.snap.queue_depth_sum += depth;
    }

    fn wear_stats(&self) -> WearStats {
        let n = self.snap.touched_blocks;
        if n == 0 {
            return WearStats::default();
        }
        let mean = self.wear_sum as f64 / n as f64;
        let var = (self.wear_sq_sum as f64 / n as f64 - mean * mean).max(0.0);
        WearStats {
            max_writes_per_block: self.snap.max_block_wear,
            mean_writes_per_block: mean,
            blocks_touched: n,
            cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        }
    }
}

/// The parent's `DevState` + `SimDevice::schedule`, over a backend that
/// is only its length and a clock that is only its high-water mark.
struct Reference {
    profile: DeviceProfile,
    backend_len: u64,
    clock: Ns,
    busy_until: Ns,
    last_end: Option<u64>,
    write_tails: VecDeque<u64>,
    read_tails: VecDeque<u64>,
    inflight: BinaryHeap<Reverse<Ns>>,
    stats: RefStats,
}

fn remove_tail(tails: &mut VecDeque<u64>, offset: u64) -> bool {
    if let Some(pos) = tails.iter().position(|&t| t == offset) {
        tails.remove(pos);
        true
    } else {
        false
    }
}

impl Reference {
    fn new(profile: DeviceProfile) -> Self {
        Reference {
            profile,
            backend_len: 0,
            clock: 0,
            busy_until: 0,
            last_end: None,
            write_tails: VecDeque::new(),
            read_tails: VecDeque::new(),
            inflight: BinaryHeap::new(),
            stats: RefStats::default(),
        }
    }

    fn classify(&mut self, streams: usize, kind: AccessKind, offset: u64, len: u64) -> bool {
        if streams == 0 {
            let sequential = self.last_end == Some(offset);
            self.last_end = Some(offset + len);
            return sequential;
        }
        let sequential = match kind {
            AccessKind::Write => remove_tail(&mut self.write_tails, offset),
            AccessKind::Read => {
                remove_tail(&mut self.read_tails, offset) || self.write_tails.contains(&offset)
            }
        };
        let (tails, cap) = match kind {
            AccessKind::Write => (&mut self.write_tails, streams),
            AccessKind::Read => (&mut self.read_tails, streams * 4),
        };
        tails.push_back(offset + len);
        while tails.len() > cap {
            tails.pop_front();
        }
        self.last_end = Some(offset + len);
        sequential
    }

    fn schedule(&mut self, at: Ns, kind: AccessKind, offset: u64, len: u64) -> (Ns, Ns) {
        let span = self.backend_len.max(offset + len).max(1);
        let dist_frac = match self.last_end {
            Some(last) => offset.abs_diff(last) as f64 / span as f64,
            None => 0.532f64.powi(2), // no position yet: average seek
        };
        let sequential = self.classify(self.profile.queue_streams, kind, offset, len);
        let duration = self
            .profile
            .duration_at_distance(kind, len, sequential, dist_frac);
        while let Some(&Reverse(done)) = self.inflight.peek() {
            if done <= at {
                self.inflight.pop();
            } else {
                break;
            }
        }
        let start = at.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.inflight.push(Reverse(end));
        let depth = self.inflight.len() as u64;
        self.stats.record(
            kind,
            len,
            sequential,
            duration,
            offset,
            self.profile.erase_block,
        );
        self.stats.record_queue_depth(depth);
        let completion = if sequential {
            end
        } else {
            end + self.profile.rand_extra_latency
        };
        self.clock = self.clock.max(completion);
        (start, completion)
    }

    /// A write lands in the backend first, then is scheduled.
    fn write(&mut self, at: Ns, offset: u64, len: u64) -> Ns {
        self.backend_len = self.backend_len.max(offset + len);
        self.schedule(at, AccessKind::Write, offset, len).1
    }

    fn read(&mut self, at: Ns, offset: u64, len: u64) -> Ns {
        self.schedule(at, AccessKind::Read, offset, len).1
    }

    fn prime_head_position(&mut self, offset: u64) {
        if self.profile.queue_streams == 0 {
            self.last_end = Some(offset);
        } else if !self.write_tails.contains(&offset) {
            let cap = self.profile.queue_streams;
            self.write_tails.push_back(offset);
            while self.write_tails.len() > cap {
                self.write_tails.pop_front();
            }
        }
    }

    fn prime_head_position_if_unset(&mut self, offset: u64) {
        if self.profile.queue_streams == 0 {
            if self.last_end.is_none() {
                self.last_end = Some(offset);
            }
        } else if self.write_tails.is_empty() && self.last_end.is_none() {
            self.write_tails.push_back(offset);
        }
    }
}

/// splitmix64: the scripts must not depend on a crate's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The near region the scripts mostly work in, and a far one a few
/// writes jump to (so seek distances and block indexes get large).
const NEAR: u64 = 8 << 20;
const FAR: u64 = 40 << 20;
const MAX_LEN: u64 = 640 << 10;

fn run_script(profile: DeviceProfile, seed: u64, steps: usize) {
    let clock = SimClock::new();
    let dev = SimDevice::in_memory(profile.clone(), clock.clone());
    let mut model = Reference::new(profile.clone());
    let session = SessionHandle::fresh(clock.clone());
    let zeroes = vec![0u8; MAX_LEN as usize];
    let mut rng = Rng(seed);
    // More append streams than the device keeps tails for.
    let n_streams = profile.queue_streams.max(1) as u64 + 5;
    let mut streams: Vec<u64> = (0..n_streams).map(|i| i * (NEAR / n_streams)).collect();
    let mut tickets = Vec::new();
    // The stream the next step must continue (see the random write).
    let mut follow = None;
    let mut seen = (false, false, false);
    let erase = profile.erase_block.max(4096);

    // A fresh device has no head position: the one time priming "if
    // unset" takes effect. Then something to read from the first step on.
    model.prime_head_position_if_unset(0);
    dev.prime_head_position_if_unset(0);
    model.write(session.now(), 0, 64 << 10);
    session.write(&dev, 0, &zeroes[..64 << 10]).unwrap();

    for step in 0..steps {
        let len = match rng.below(8) {
            0 => 1 + rng.below(MAX_LEN),
            1 => 1 + rng.below(64),
            _ => 512 * (1 + rng.below(32)),
        };
        let at = session.now();
        let choice = if follow.is_some() { 0 } else { rng.below(100) };
        let what = match choice {
            0..=29 => {
                // Continue one of the append streams.
                let s = follow
                    .take()
                    .unwrap_or_else(|| rng.below(n_streams) as usize);
                let offset = streams[s];
                streams[s] += len;
                let want = model.write(at, offset, len);
                session
                    .write(&dev, offset, &zeroes[..len as usize])
                    .unwrap();
                assert_eq!(session.now(), want, "step {step}: stream write completion");
                "stream write"
            }
            30..=39 => {
                // A random write; now and then far away, straddling an
                // erase-block boundary, or ending exactly where an
                // append stream stands — two tails at one offset, of
                // which that stream's next write must take the older.
                let offset = match rng.below(6) {
                    0 => FAR + rng.below(4 << 20),
                    1 => erase * (1 + rng.below(NEAR / erase - 1)) - 1 - rng.below(len),
                    2 => {
                        let s = rng.below(n_streams) as usize;
                        follow = Some(s);
                        streams[s].saturating_sub(len)
                    }
                    _ => rng.below(NEAR),
                };
                let want = model.write(at, offset, len);
                session
                    .write(&dev, offset, &zeroes[..len as usize])
                    .unwrap();
                assert_eq!(session.now(), want, "step {step}: random write completion");
                "random write"
            }
            40..=49 => {
                // Another actor's write, submitted at a time of its own:
                // behind this session, level with the device, or ahead.
                let other_at = match rng.below(3) {
                    0 => at.saturating_sub(rng.below(5_000_000)),
                    1 => dev.busy_until(),
                    _ => at + rng.below(5_000_000),
                };
                let offset = rng.below(NEAR);
                let want = model.write(other_at, offset, len);
                let got = dev
                    .write_at(other_at, offset, &zeroes[..len as usize])
                    .unwrap();
                assert_eq!(got, want, "step {step}: foreign write completion");
                "foreign write"
            }
            50..=84 => {
                let len = len.min(model.backend_len);
                let offset = match rng.below(3) {
                    // Read on from where the last access ended, if that
                    // still fits: a sequential read, or a read-back of
                    // what a writer just appended.
                    0 => model
                        .last_end
                        .filter(|end| end + len <= model.backend_len)
                        .unwrap_or(0),
                    1 => streams[rng.below(n_streams) as usize].min(model.backend_len - len),
                    _ => rng.below(model.backend_len - len + 1),
                };
                if choice < 70 {
                    let want = model.read(at, offset, len);
                    session.read_with(&dev, offset, len, |_| ()).unwrap();
                    assert_eq!(session.now(), want, "step {step}: read completion");
                    "read"
                } else {
                    // Issued at the cursor, which stays where it is: the
                    // next operations are submitted at a stale time.
                    let want = model.read(at, offset, len);
                    let ticket = session.read_async(&dev, offset, len).unwrap();
                    assert_eq!(ticket.completion(), want, "step {step}: async completion");
                    assert_eq!(session.now(), at);
                    tickets.push(ticket);
                    "async read"
                }
            }
            85..=89 => {
                if let Some(ticket) = tickets.pop() {
                    model.clock = model.clock.max(at.max(ticket.completion()));
                    session.wait(ticket);
                }
                "wait"
            }
            90..=92 => {
                let offset = streams[rng.below(n_streams) as usize];
                model.prime_head_position(offset);
                dev.prime_head_position(offset);
                "prime"
            }
            93..=94 => {
                let offset = rng.below(NEAR);
                model.prime_head_position_if_unset(offset);
                dev.prime_head_position_if_unset(offset);
                "prime if unset"
            }
            97 => {
                model.stats = RefStats::default();
                dev.reset_stats();
                "reset stats"
            }
            _ => {
                let ns = rng.below(2_000_000);
                model.clock = model.clock.max(at + ns);
                session.cpu(ns);
                "cpu"
            }
        };
        let ctx = format!("seed {seed}, step {step} ({what})");
        let stats = dev.stats();
        assert_eq!(stats, model.stats.snap, "{ctx}: stats");
        seen.0 |= stats.sequential_ops > 0;
        seen.1 |= stats.random_ops > 0;
        seen.2 |= stats.max_queue_depth > 1;
        assert_eq!(dev.wear_stats(), model.stats.wear_stats(), "{ctx}: wear");
        assert_eq!(dev.busy_until(), model.busy_until, "{ctx}: busy_until");
        assert_eq!(clock.now(), model.clock, "{ctx}: clock");
        assert_eq!(dev.len(), model.backend_len, "{ctx}: backend size");
    }
    assert_eq!(
        seen,
        (true, true, true),
        "(sequential, random, overlapping submissions) the script reached"
    );
}

#[test]
fn ssd_timeline_equals_the_reference_scheduler() {
    for seed in [1, 2] {
        run_script(DeviceProfile::ssd_x25e(), seed, 6_000);
    }
}

#[test]
fn hdd_timeline_equals_the_reference_scheduler() {
    for seed in [3, 4] {
        run_script(DeviceProfile::hdd_barracuda(), seed, 6_000);
    }
}

/// An extent whose end does not fit is an error, not arithmetic: at the
/// parent `u64::MAX - 1 + 4` panicked in a debug build and wrapped in a
/// release one, inside the backend's write lock.
#[test]
fn an_offset_that_does_not_fit_is_an_error_and_leaves_no_trace() {
    for profile in [DeviceProfile::ssd_x25e(), DeviceProfile::hdd_barracuda()] {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(profile, clock.clone());
        dev.write_at(0, 0, &[7; 100]).unwrap();
        let before = (dev.len(), dev.stats(), dev.wear_stats(), dev.busy_until());
        let now = clock.now();
        for offset in [u64::MAX - 1, u64::MAX - 3, u64::MAX] {
            let err = dev.write_at(now, offset, &[0; 4]).unwrap_err();
            assert!(matches!(err, StorageError::OutOfBounds { .. }), "{err}");
            let err = dev.read_at(now, offset, 4).unwrap_err();
            assert!(matches!(err, StorageError::OutOfBounds { .. }), "{err}");
        }
        let after = (dev.len(), dev.stats(), dev.wear_stats(), dev.busy_until());
        assert_eq!(after, before);
        assert_eq!(clock.now(), now);
        // The device still works, and still continues its stream.
        dev.write_at(now, 100, &[8; 28]).unwrap();
        assert_eq!(
            dev.read_at(dev.busy_until(), 96, 8).unwrap().0,
            [7, 7, 7, 7, 8, 8, 8, 8]
        );
    }
}
