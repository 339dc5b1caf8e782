//! The counting global allocator the allocation-budget tests share. Each
//! test binary that includes this file installs [`Counting`] as its own
//! `#[global_allocator]`, so the counters are that process's alone.
//!
//! One rule for every reading: an `alloc` adds its block to the live
//! bytes and a `dealloc` takes it away; a `realloc` is one allocation that
//! moves the live bytes by its growth (or shrinkage) only, never by both
//! blocks at once. So "peak" is the high-water mark of the bytes the
//! program holds, not of what the system allocator may briefly hold while
//! it moves a block.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to the system allocator, counting calls, live bytes, their
/// high-water mark, and the largest block a growing `realloc` started from.
pub struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static GROWN_FROM: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(growth) => {
                GROWN_FROM.fetch_max(layout.size(), Relaxed);
                grow(growth)
            }
            None => {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// The counters where a measurement starts. Starting one sets the
/// high-water mark to the bytes live now and forgets earlier growth, so
/// readings cover what ran since; the counters are process-global, so two
/// measurements must not overlap.
pub struct Mark {
    allocations: usize,
    live: usize,
}

impl Mark {
    /// Starts a measurement here.
    pub fn start() -> Self {
        let live = LIVE_BYTES.load(Relaxed);
        PEAK_BYTES.store(live, Relaxed);
        GROWN_FROM.store(0, Relaxed);
        Mark {
            allocations: ALLOCATIONS.load(Relaxed),
            live,
        }
    }

    /// Allocations and reallocations since the start.
    pub fn allocations(&self) -> usize {
        ALLOCATIONS.load(Relaxed) - self.allocations
    }

    /// Bytes live now beyond those live at the start.
    pub fn live_bytes(&self) -> usize {
        LIVE_BYTES.load(Relaxed) - self.live
    }

    /// The most bytes live at once since the start, beyond those live at
    /// the start.
    pub fn peak_bytes(&self) -> usize {
        PEAK_BYTES.load(Relaxed) - self.live
    }

    /// The largest block a growing `realloc` started from since the start.
    pub fn grown_from(&self) -> usize {
        GROWN_FROM.load(Relaxed)
    }
}
