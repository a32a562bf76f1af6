//! A counting global allocator: heap allocations are the repeatable CPU
//! proxy on a noisy box — the count is exact run to run where a
//! nanosecond figure is not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, const-initialised and without a destructor, so the
    // allocator can touch them at any point of a thread's life. The
    // benchmark is single-threaded; per-thread counts also keep
    // concurrently running `cargo test` cases from seeing each other.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts calls and bytes.
pub struct Counting;

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may already have lost its
    // thread-locals; those allocations go uncounted, not wrong.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters never touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested by this thread so far.
pub fn snapshot() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}
