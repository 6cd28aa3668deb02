//! A counting global allocator for the traced run's allocation metrics.
//!
//! Counting is off unless a [`Window`] is open, so the untraced run pays one
//! relaxed load per allocation and the threads of `served_mix` never share a
//! written cache line through the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics and influence
// neither the pointers nor the layouts passed through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: same layout, same contract as our caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is our
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts allocator calls and the net bytes allocated between `open` and
/// `close`. Only meaningful while no other thread allocates, and for memory
/// that is both allocated and (if at all) freed inside the window.
pub struct Window {
    allocs: u64,
    live: i64,
}

impl Window {
    pub fn open() -> Window {
        let w = Window {
            allocs: ALLOCS.load(Ordering::Relaxed),
            live: LIVE_BYTES.load(Ordering::Relaxed),
        };
        ON.store(true, Ordering::SeqCst);
        w
    }

    /// `(allocator calls, net bytes still allocated)` since `open`.
    pub fn close(self) -> (u64, i64) {
        ON.store(false, Ordering::SeqCst);
        (
            ALLOCS.load(Ordering::Relaxed) - self.allocs,
            LIVE_BYTES.load(Ordering::Relaxed) - self.live,
        )
    }
}
