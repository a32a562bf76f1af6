//! A shared virtual timeline.
//!
//! All experiment timing in this reproduction is *simulated*: devices and
//! actors agree on a monotonically non-decreasing virtual time expressed in
//! nanoseconds. The clock itself is trivially cheap — it is an atomic
//! high-water mark advanced by whoever observed the latest completion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual nanoseconds.
pub type Ns = u64;

/// A shared virtual clock.
///
/// The clock records the furthest point in virtual time that any actor or
/// device has reached. Actors keep their own cursors (see
/// [`crate::sched::SessionHandle`]) and publish progress here, so that global
/// measurements ("how long did the whole experiment take") are simply
/// [`SimClock::now`] deltas.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    inner: Arc<AtomicU64>,
}

impl SimClock {
    /// Create a clock starting at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current high-water mark of virtual time.
    pub fn now(&self) -> Ns {
        self.inner.load(Ordering::Acquire)
    }

    /// Advance the high-water mark to at least `t`.
    ///
    /// Returns the post-update value. Never moves backwards.
    pub(crate) fn advance_to(&self, t: Ns) -> Ns {
        let mut cur = self.inner.load(Ordering::Relaxed);
        loop {
            if t <= cur {
                return cur;
            }
            match self
                .inner
                .compare_exchange_weak(cur, t, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), 0);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = SimClock::new();
        assert_eq!(c.advance_to(100), 100);
        assert_eq!(c.advance_to(50), 100, "must not move backwards");
        assert_eq!(c.now(), 100);
        assert_eq!(c.advance_to(200), 200);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_to(42);
        assert_eq!(b.now(), 42);
    }

    #[test]
    fn concurrent_advances_keep_max() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for j in 0..1000u64 {
                        c.advance_to(i * 1000 + j);
                    }
                });
            }
        });
        assert_eq!(c.now(), 7999);
    }
}
