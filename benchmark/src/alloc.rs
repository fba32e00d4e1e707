//! A counting wrapper around the system allocator.
//!
//! The counters only move while [`set_counting`] is on, which is the
//! instrumented pass of a traced run: everywhere else an allocation pays
//! one thread-local load and nothing more, so `wall_s` is measured on
//! the ordinary allocator path. The counters are per thread — the
//! benchmark measures on one thread, and tests that run side by side do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Constant-initialised and without destructors, so reading them from
    // inside the allocator neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The benchmark binary's global allocator.
pub struct CountingAlloc;

#[inline]
fn record(size: usize) {
    if COUNTING.get() {
        COUNT.set(COUNT.get() + 1);
        BYTES.set(BYTES.get() + size as u64);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are exactly `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for this thread.
pub fn set_counting(on: bool) {
    COUNTING.set(on);
}

/// `(allocations, bytes requested)` this thread has counted so far. A
/// `realloc` counts as one allocation of its new size.
pub fn snapshot() -> (u64, u64) {
    (COUNT.get(), BYTES.get())
}
