//! Commit/query timestamps (§3.2 "Timestamps").
//!
//! Every incoming update carries the commit time of the update; every
//! query carries a timestamp and sees exactly the earlier updates. The
//! timestamp order defines a total serial order, which is what makes
//! individual queries and updates serializable (§3.6) and what lets
//! in-place migration decide whether a data page has already absorbed an
//! update.
//!
//! Timestamps start at 1; 0 is reserved as "before everything" (freshly
//! loaded data pages carry timestamp 0). The engine draws every one of
//! them from one counter, under its redo log's lock (see
//! [`crate::wal`], "One order for the log").

/// Logical timestamp.
pub type Timestamp = u64;

#[cfg(test)]
mod tests {
    use crate::wal::{Wal, WalRecord};
    use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

    fn wal() -> (SessionHandle, Wal) {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        (SessionHandle::fresh(clock), Wal::new(dev, 0))
    }

    #[test]
    fn monotonic_from_one() {
        let (session, wal) = wal();
        assert_eq!(wal.order().last_drawn(), 0);
        assert_eq!(wal.order().draw(), 1);
        // Appends draw nothing.
        wal.append(&session, &WalRecord::MigrationEnd { ts: 1 })
            .unwrap();
        assert_eq!(wal.order().draw(), 2);
        assert_eq!(wal.order().last_drawn(), 2);
    }

    #[test]
    fn advance_past_is_monotonic() {
        let (_, wal) = wal();
        let mut order = wal.order();
        order.resume_past(10);
        order.resume_past(3); // never backwards
        assert_eq!(order.draw(), 11);
        order.resume_past(11); // no-op: 12 is already next
        assert_eq!(order.draw(), 12);
    }
}
