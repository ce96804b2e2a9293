//! A counting global allocator, shared by the allocation tests of this crate
//! (`tests/alloc.rs`) and of the workspace root (`tests/block_alloc.rs`):
//! the binary that declares this module gets `System` with this thread's
//! allocation calls and bytes counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers: reading these never allocates, so the allocator
    // below cannot recurse into itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting this thread's allocation calls and bytes.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread allocating while its locals are being torn down
    // is simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only this
// thread's `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, per the
        // caller's contract with `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` asked the allocator for on this thread: `(calls, bytes)`.
pub fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (calls, bytes) = (ALLOCATIONS.get(), ALLOCATED_BYTES.get());
    let result = f();
    (
        result,
        ALLOCATIONS.get() - calls,
        ALLOCATED_BYTES.get() - bytes,
    )
}
