//! A counting allocator for the test binaries that check a structure's
//! memory against what the allocator saw. Each such binary installs it
//! (`#[global_allocator] static A: Counting = Counting;`) and holds one
//! test, so nothing else allocates while it measures. `bench_evidence`
//! installs it too, to count each paper query's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

/// Bytes requested from the system allocator and not yet returned.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Requests for memory so far (a `realloc` is one).
pub static REQUESTS: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        REQUESTS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        REQUESTS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
