//! A counting global allocator for allocation-free-ness and bounded-memory
//! tests.
//!
//! [`GlobalAlloc`] is an unsafe trait, so a counting wrapper around
//! [`System`] is necessarily `unsafe` code. The rest of the workspace
//! carries `forbid(unsafe_code)` (see the root `Cargo.toml`); this crate is
//! the quarantine zone — it contains exactly the four delegating methods
//! below and nothing else touches raw pointers.
//!
//! Usage, in an integration test:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: testalloc::CountingAlloc = testalloc::CountingAlloc;
//! let before = testalloc::allocs();
//! hot_path();
//! assert_eq!(testalloc::allocs() - before, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every `alloc`/`alloc_zeroed`/`realloc` (growth is what the
/// steady-state tests must prove has stopped) and keeps the bytes live
/// now and their high-water mark (what the bounded-memory test reads).
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
// Statistics: they publish no other data, so relaxed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Total allocation calls since process start.
pub fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Heap bytes allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The highest [`live_bytes`] has been since process start or the last
/// [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Start a new high-water measurement from the bytes live now.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(live_bytes(), Ordering::Relaxed);
}
