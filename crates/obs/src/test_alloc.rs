//! A counting global allocator for this crate's unit tests.
//!
//! Every call is forwarded to [`System`]; beside it each thread counts the
//! bytes it asked for. The counter is per thread, so tests running in
//! parallel do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread tearing down has no counter left.
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the count beside
// it touches only a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` asked for on this thread.
fn bytes_allocated_by<T>(f: impl FnOnce() -> T) -> u64 {
    let before = BYTES.with(Cell::get);
    let out = f();
    let bytes = BYTES.with(Cell::get) - before;
    drop(out);
    bytes
}

/// Asserts that `build` allocates the same at bound 1 as at bound 1 << 20:
/// a constructor may not size anything by the bound it is given.
pub(crate) fn assert_allocation_ignores_bound<T>(what: &str, build: impl Fn(usize) -> T) {
    // Once unmeasured, so no lazily initialised state lands in one side.
    drop(build(1));
    let small = bytes_allocated_by(|| build(1));
    let large = bytes_allocated_by(|| build(1 << 20));
    assert_eq!(small, large, "{what} allocates by its bound");
}
