//! The benchmark's counting allocator.
//!
//! Every allocation goes through [`Counting`], but it only counts while
//! [`enable`] is in force: one relaxed load of [`ON`] is all an
//! untraced run pays per allocation. The counters publish no other
//! data, so `Relaxed` is enough throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus gated allocation counters.
pub struct Counting;

#[inline]
fn count(bytes: usize) {
    if ON.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are ours; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and bytes
/// requested, counted while enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl std::ops::Sub for Snapshot {
    type Output = Snapshot;
    fn sub(self, rhs: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - rhs.allocs,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

/// The counters now.
#[inline]
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Counts allocations until the guard drops.
pub fn enable() -> Guard {
    ON.store(true, Relaxed);
    Guard
}

/// Stops counting when dropped.
pub struct Guard;

impl Drop for Guard {
    fn drop(&mut self) {
        ON.store(false, Relaxed);
    }
}
