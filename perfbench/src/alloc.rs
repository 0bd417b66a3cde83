//! A pass-through global allocator that counts allocations per thread.
//!
//! The traced replay reads the calling thread's counter around
//! `BatchServer::poll`, so allocations made by other threads (the
//! ingress server, shard workers, client connections) never leak into
//! the per-superstep figure, and no thread pays for a shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every operation delegates to `System` unchanged; the counter
// is a const-initialised thread-local `Cell` without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
