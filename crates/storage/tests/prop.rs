//! Property-based tests for the storage substrate: the simulation must
//! never corrupt data and its virtual timing must obey basic physics.

use proptest::prelude::*;

use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn write_op() -> impl Strategy<Value = (u64, Vec<u8>)> {
    (
        0u64..64 * 1024,
        proptest::collection::vec(any::<u8>(), 1..512),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// A device is exactly a byte array with timing: after any write
    /// sequence, reads return what the last write to each byte stored.
    #[test]
    fn writes_then_reads_match_model(ops in proptest::collection::vec(write_op(), 1..40)) {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock);
        let mut model = vec![0u8; 96 * 1024];
        let mut t = 0;
        for (off, data) in &ops {
            t = dev.write_at(t, *off, data).unwrap();
            let end = *off as usize + data.len();
            if end > model.len() {
                model.resize(end, 0);
            }
            model[*off as usize..end].copy_from_slice(data);
        }
        let len = dev.len();
        let (got, _) = dev.read_at(t, 0, len).unwrap();
        prop_assert_eq!(&got[..], &model[..len as usize]);
    }

    /// Completions are monotone in submission time, and a device never
    /// finishes an op before it was submitted.
    #[test]
    fn timing_is_physical(ops in proptest::collection::vec(write_op(), 1..40)) {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock);
        let mut t = 0u64;
        for (off, data) in &ops {
            let end = dev.write_at(t, *off, data).unwrap();
            prop_assert!(end > t, "completion must be after submission");
            t = end;
        }
    }

    /// Overlapped two-device work takes at least as long as the slower
    /// device alone and no longer than the serial sum.
    #[test]
    fn overlap_is_bounded(lens in proptest::collection::vec(1024u64..256*1024, 1..10)) {
        let clock = SimClock::new();
        let hdd = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let total: u64 = lens.iter().sum();
        hdd.write_at(0, 0, &vec![0u8; total as usize]).unwrap();
        ssd.write_at(0, 0, &vec![0u8; total as usize]).unwrap();
        let start = hdd.busy_until().max(ssd.busy_until());
        hdd.reset_stats();
        ssd.reset_stats();

        let session = SessionHandle::at(clock, start);
        let mut off = 0u64;
        for len in &lens {
            let ticket = session.read_async(&ssd, off, *len).unwrap();
            session.read(&hdd, off, *len).unwrap();
            session.wait(ticket);
            off += len;
        }
        let elapsed = session.now() - start;
        let hdd_busy = hdd.stats().busy_ns;
        let ssd_busy = ssd.stats().busy_ns;
        prop_assert!(elapsed >= hdd_busy.max(ssd_busy));
        // Allow the QD1 latency tail of the final SSD wait.
        prop_assert!(
            elapsed <= hdd_busy + ssd_busy + 100_000,
            "elapsed {} exceeds serial sum {} + tail",
            elapsed,
            hdd_busy + ssd_busy
        );
    }

    /// Sequential continuation is strictly cheaper than a random access
    /// of the same size on a disk.
    #[test]
    fn sequential_beats_random(len in 512u64..64*1024) {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock);
        let data = vec![0u8; len as usize];
        let t1 = dev.write_at(0, 0, &data).unwrap();
        // Sequential continuation.
        let t2 = dev.write_at(t1, len, &data).unwrap();
        // Random jump far away.
        let t3 = dev.write_at(t2, 10 * 1024 * 1024, &data).unwrap();
        let seq = t2 - t1;
        let rand = t3 - t2;
        prop_assert!(rand > seq * 2, "rand {} seq {}", rand, seq);
    }
}
