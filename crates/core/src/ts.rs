//! Commit/query timestamps (§3.2 "Timestamps").
//!
//! Every incoming update carries the commit time of the update; every
//! query carries a timestamp and sees exactly the earlier updates. The
//! timestamp order defines a total serial order, which is what makes
//! individual queries and updates serializable (§3.6) and what lets
//! in-place migration decide whether a data page has already absorbed an
//! update.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Logical timestamp.
pub type Timestamp = u64;

/// A monotonically increasing timestamp dispenser.
///
/// Timestamps start at 1; 0 is reserved as "before everything" (freshly
/// loaded data pages carry timestamp 0).
#[derive(Debug, Clone, Default)]
pub struct TimestampOracle {
    next: Arc<AtomicU64>,
}

impl TimestampOracle {
    /// Create an oracle whose first timestamp is 1.
    pub(crate) fn new() -> Self {
        TimestampOracle {
            next: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Draw the next timestamp.
    pub fn next(&self) -> Timestamp {
        self.next.fetch_add(1, Ordering::AcqRel).max(1)
    }

    /// Ensure the next timestamp is strictly greater than `ts`.
    /// Monotonic: never moves the counter backwards.
    pub(crate) fn advance_past(&self, ts: Timestamp) {
        self.next.fetch_max(ts + 1, Ordering::AcqRel);
    }

    /// The most recently issued timestamp (0 if none).
    pub fn last_issued(&self) -> Timestamp {
        self.next.load(Ordering::Acquire).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_from_one() {
        let o = TimestampOracle::new();
        assert_eq!(o.last_issued(), 0);
        assert_eq!(o.next(), 1);
        assert_eq!(o.next(), 2);
        assert_eq!(o.last_issued(), 2);
    }

    #[test]
    fn advance_past_is_monotonic() {
        let o = TimestampOracle::new();
        o.advance_past(10);
        o.advance_past(3); // never backwards
        assert_eq!(o.next(), 11);
        o.advance_past(11); // no-op: 12 is already next
        assert_eq!(o.next(), 12);
    }

    #[test]
    fn clones_share_sequence() {
        let a = TimestampOracle::new();
        let b = a.clone();
        assert_eq!(a.next(), 1);
        assert_eq!(b.next(), 2);
    }

    #[test]
    fn concurrent_draws_are_unique() {
        let o = TimestampOracle::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let o = o.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| o.next()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
