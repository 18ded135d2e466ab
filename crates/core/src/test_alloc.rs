//! A counting global allocator for this crate's unit tests.
//!
//! Every call is forwarded to [`System`]; beside it each thread counts the
//! allocations it made and the bytes it asked for. The counters are per
//! thread, so tests running in parallel do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread tearing down has no counter left.
    let _ = COUNT.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the count beside
// it touches only const-initialised thread-local `Cell`s, which neither
// allocate nor unwind.
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

/// What a closure allocated on this thread; a reallocation counts as one
/// allocation of its new size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Allocated {
    pub(crate) count: u64,
    pub(crate) bytes: u64,
}

fn now() -> Allocated {
    Allocated {
        count: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Runs `f` and returns its result with what it allocated.
pub(crate) fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, Allocated) {
    let before = now();
    let out = f();
    let after = now();
    let allocated = Allocated {
        count: after.count - before.count,
        bytes: after.bytes - before.bytes,
    };
    (out, allocated)
}

/// Asserts that `build` allocates the same at bound 1 as at bound 1 << 20:
/// a constructor may not size anything by the bound it is given.
pub(crate) fn assert_allocation_ignores_bound<T>(what: &str, build: impl Fn(usize) -> T) {
    // Once unmeasured, so no lazily initialised state lands in one side.
    drop(build(1));
    let (_, small) = allocated_by(|| build(1));
    let (_, large) = allocated_by(|| build(1 << 20));
    assert_eq!(small, large, "{what} allocates by its bound");
}
