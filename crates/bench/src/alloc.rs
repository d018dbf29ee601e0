//! A counting global allocator for the allocation gates.
//!
//! The PR 10 arena work promises that a steady-state training batch —
//! forward, loss, backward, optimizer step in place — performs **zero
//! heap allocations**, and the storage layer
//! that a warm fetch hands a release on without copying it. Claims like
//! these are only checkable from outside the allocator, so
//! `tests/alloc_gates.rs` (and only that target) installs
//! [`CountingAllocator`] as its `#[global_allocator]` and measures counter
//! deltas across a window of warmed-up work.
//!
//! The allocator is a pass-through to [`std::alloc::System`] that keeps
//! four relaxed atomics: calls, bytes requested, bytes live and the
//! high-water mark of bytes live since [`reset_peak`] — what a memory
//! accounting needs to tell what a span *holds* from what it churns
//! through. Library builds and ordinary test binaries do *not* install it,
//! so [`is_counting`] probes whether the counters are live before any
//! measurement is trusted — a gate must never pass against a dead counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// One `alloc` of `bytes` (or one `realloc` to `bytes`, its old size taken
/// off the live total first): a call, its request, and the live total it
/// leaves behind folded into the high-water mark.
fn grew(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES_REQUESTED.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Pass-through system allocator that counts `alloc`/`realloc` calls and
/// the bytes behind them.
///
/// Install it in a binary (or a `harness = false` test target) with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: unifyfl_bench::alloc::CountingAllocator =
///     unifyfl_bench::alloc::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: defers every allocation decision to `System`; the counter bumps
// are the only addition and touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The whole new size is a request; only the difference is live.
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total `alloc`/`realloc` calls observed so far (0 forever when the
/// counting allocator is not installed).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes those calls asked for (a `realloc` counts its whole new
/// size).
pub fn bytes_requested() -> u64 {
    BYTES_REQUESTED.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most [`live_bytes`] has read since the last [`reset_peak`] (since
/// process start, before the first).
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from what is live now, so the next
/// [`peak_bytes`] reads the peak of the span that follows.
pub fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// Whether the counting allocator is actually installed in this process:
/// performs a throwaway heap allocation and checks the counter moved.
pub fn is_counting() -> bool {
    let before = allocation_count();
    // A boxed value the optimizer cannot elide (its address escapes via
    // the volatile read), forcing a real trip through the global allocator.
    let probe = Box::new(0u64);
    let _ = unsafe { std::ptr::read_volatile(&*probe as *const u64) };
    drop(probe);
    allocation_count() > before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_dead_without_installation() {
        // The library test binary does not install the allocator, so the
        // probe must report "not counting" — this is exactly the guard
        // that keeps the zero-allocation gate from passing vacuously.
        assert!(!is_counting());
        let before = (allocation_count(), bytes_requested(), live_bytes());
        let v: Vec<u64> = (0..1024).collect();
        assert_eq!(v.len(), 1024);
        assert_eq!(
            (allocation_count(), bytes_requested(), live_bytes()),
            before
        );
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
    }
}
