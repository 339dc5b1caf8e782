//! A drained [`Window`]'s next batch is a fresh allocation, not a copy of
//! the empty block it kept (its own test binary, because it installs a
//! counting global allocator).

use entk_sim::arena::{Window, SCRATCH_KEEP};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, noting the largest block a growing
/// `realloc` started from.
struct Counting;

static GROWN_FROM: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            GROWN_FROM.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn an_emptied_windows_next_batch_is_a_fresh_allocation() {
    let mut window = Window::default();
    window.reserve(SCRATCH_KEEP);
    for id in 0..SCRATCH_KEEP as u64 {
        window.insert(id, id);
    }
    for id in 0..SCRATCH_KEEP as u64 {
        window.take(id);
    }
    assert!(window.is_empty(), "a room of SCRATCH_KEEP slots is kept");
    let kept = SCRATCH_KEEP * std::mem::size_of::<Option<u64>>();

    GROWN_FROM.store(0, Ordering::Relaxed);
    window.reserve(100_000);
    let grown_from = GROWN_FROM.load(Ordering::Relaxed);
    assert!(
        grown_from < kept,
        "the batch copied the {grown_from} B block of an empty window"
    );
    let end = window.end();
    for id in end..end + 100_000 {
        window.insert(id, id);
    }
    assert_eq!(window.len(), 100_000);
}
