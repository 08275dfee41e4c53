//! The counting global allocator shared by the host-cost bins and
//! tests: allocation calls, bytes requested, and live/peak committed
//! bytes, all process-wide. A binary or test installs it with
//!
//! ```text
//! #[global_allocator]
//! static GLOBAL: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;
//! ```
//!
//! and reads the counters through the functions below. Without that
//! declaration every counter stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Wrapper around the system allocator that keeps the counters.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static MAX_ALLOC: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(delta: i64) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        MAX_ALLOC.fetch_max(layout.size() as u64, Relaxed);
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls so far (`realloc` counts as one).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes requested so far (`realloc` counts its new size).
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Relaxed)
}

/// Bytes currently allocated.
pub fn live() -> i64 {
    LIVE.load(Relaxed)
}

/// High-water mark of [`live`] since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Relaxed)
}

/// Largest single allocation since the last [`reset_peak`].
pub fn max_alloc() -> u64 {
    MAX_ALLOC.load(Relaxed)
}

/// Open a measurement window: the peak and the largest allocation
/// restart from here. Returns the live bytes at the start, so the
/// window's high-water mark over its start is `peak() - returned`.
pub fn reset_peak() -> i64 {
    let live = live();
    PEAK.store(live, Relaxed);
    MAX_ALLOC.store(0, Relaxed);
    live
}
