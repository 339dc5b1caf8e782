//! A drained [`Window`]'s next batch is a fresh allocation, not a copy of
//! the empty block it kept (its own test binary, because it installs the
//! counting global allocator of `tests/common/counting.rs`).

use entk_sim::arena::{Window, SCRATCH_KEEP};

#[path = "common/counting.rs"]
mod counting;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

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

    let mark = counting::Mark::start();
    window.reserve(100_000);
    let grown_from = mark.grown_from();
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
