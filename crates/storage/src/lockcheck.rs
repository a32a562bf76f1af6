//! Debug-mode lock-discipline checking.
//!
//! The engine's concurrency contract is that no engine mutex (state,
//! WAL, merge totals) is ever held across a device access: a device
//! read or write costs virtual (and, with a real backend, wall-clock)
//! time, and holding a shared lock for that long turns every other
//! thread's O(µs) critical section into an O(ms) stall — exactly the
//! stop-the-world behavior the background-worker engine exists to
//! remove.
//!
//! Components that want the discipline enforced wrap their mutex
//! acquisitions in a [`LockToken`]; [`crate::SimDevice`] asserts (in
//! debug builds) that no tracked token is live on the current thread
//! when an I/O is issued. The accounting is thread-local, so a worker
//! doing I/O while *another* thread sits in a critical section is fine
//! — only I/O *from within* a tracked critical section panics.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

thread_local! {
    static TRACKED_HELD: Cell<u32> = const { Cell::new(0) };
}

/// RAII token recording that the current thread is inside a tracked
/// critical section. Acquire it right after locking a tracked mutex and
/// let it drop with the guard.
#[derive(Debug)]
pub(crate) struct LockToken {
    _priv: (),
}

impl LockToken {
    /// Enter a tracked critical section on this thread.
    #[must_use]
    pub(crate) fn acquire() -> Self {
        TRACKED_HELD.with(|c| c.set(c.get() + 1));
        LockToken { _priv: () }
    }
}

impl Drop for LockToken {
    fn drop(&mut self) {
        TRACKED_HELD.with(|c| c.set(c.get() - 1));
    }
}

/// Number of tracked critical sections the current thread is inside.
#[must_use]
pub(crate) fn tracked_locks_held() -> u32 {
    TRACKED_HELD.with(Cell::get)
}

/// Debug-mode hook: panic if the current thread issues an I/O while
/// inside a tracked critical section.
pub(crate) fn assert_no_tracked_locks(op: &str) {
    debug_assert_eq!(
        tracked_locks_held(),
        0,
        "device {op} issued while a tracked engine lock is held — \
         I/O must never happen under an engine mutex"
    );
}

/// A mutex whose critical sections are tracked by the lock-discipline
/// checker: while a [`TrackedGuard`] is live, any device I/O issued from
/// the same thread panics in debug builds.
///
/// This is the engine's tool for *proving* its phased-locking contract
/// ("no engine lock held across I/O") rather than promising it in a
/// comment — every test run exercises the assertion.
#[derive(Debug, Default)]
pub struct TrackedMutex<T> {
    inner: parking_lot::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wrap `value` in a tracked mutex.
    pub fn new(value: T) -> Self {
        TrackedMutex {
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Lock, entering a tracked critical section on this thread.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        let guard = self.inner.lock();
        TrackedGuard {
            token: LockToken::acquire(),
            guard,
        }
    }
}

/// RAII guard for a [`TrackedMutex`]; releases the lock and exits the
/// tracked critical section on drop.
#[derive(Debug)]
pub struct TrackedGuard<'a, T> {
    // Declared before `guard`: drop order exits the tracked section
    // first, then releases the lock — the tracked window is always a
    // subset of the held window.
    token: LockToken,
    guard: parking_lot::MutexGuard<'a, T>,
}

impl<'a, T> TrackedGuard<'a, T> {
    /// The underlying `parking_lot` guard, for `Condvar::wait`.
    ///
    /// A condvar wait *blocks*, but blocking on a notification is not
    /// I/O — the tracking token stays live across the wait, which is
    /// correct: the thread re-holds the lock when the wait returns.
    pub fn inner_mut(&mut self) -> &mut parking_lot::MutexGuard<'a, T> {
        let _ = &self.token;
        &mut self.guard
    }
}

impl<T> Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_nest_and_release() {
        assert_eq!(tracked_locks_held(), 0);
        let a = LockToken::acquire();
        let b = LockToken::acquire();
        assert_eq!(tracked_locks_held(), 2);
        drop(b);
        assert_eq!(tracked_locks_held(), 1);
        drop(a);
        assert_eq!(tracked_locks_held(), 0);
    }

    #[test]
    fn tracking_is_per_thread() {
        let _held = LockToken::acquire();
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(tracked_locks_held(), 0));
        });
        assert_eq!(tracked_locks_held(), 1);
    }

    #[test]
    fn tracked_mutex_counts_while_held() {
        let m = TrackedMutex::new(7u32);
        assert_eq!(tracked_locks_held(), 0);
        {
            let mut g = m.lock();
            assert_eq!(tracked_locks_held(), 1);
            *g += 1;
        }
        assert_eq!(tracked_locks_held(), 0);
        assert_eq!(*m.lock(), 8);
    }
}
