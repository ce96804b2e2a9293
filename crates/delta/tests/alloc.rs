//! A stored delta owns exactly its payload.
//!
//! Deltas sit in the controller's RAM buffer, so a payload allocation with
//! slack in it is RAM the buffer's accounting does not see; and an encode
//! that grows, shrinks and copies its output before storing it pays the
//! allocator several times per block. This test counts, through a counting
//! global allocator, what one warm encode asks for.

use icash_delta::codec::{DeltaCodec, Encoding};
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
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (calls, bytes) = (ALLOCATIONS.get(), ALLOCATED_BYTES.get());
    let result = f();
    (
        result,
        ALLOCATIONS.get() - calls,
        ALLOCATED_BYTES.get() - bytes,
    )
}

#[test]
fn a_stored_payload_is_one_exact_size_allocation() {
    let reference: Vec<u8> = (0..4096).map(|i| ((i * 31 + i / 7) % 256) as u8).collect();
    let mut clustered = reference.clone();
    for cluster in 0..4usize {
        for b in &mut clustered[cluster * 1000 + 100..][..50] {
            *b = b.wrapping_add(13);
        }
    }
    let mut scattered = reference.clone();
    for b in scattered.iter_mut().step_by(6) {
        *b ^= 0x5A;
    }
    let mut shifted = vec![0xEEu8; 16];
    shifted.extend_from_slice(&reference[..4080]);

    let codec = DeltaCodec::default();
    let mut index = None;
    for (target, encoding) in [
        (&clustered, Encoding::Sparse),
        (&scattered, Encoding::Sparse),
        (&shifted, Encoding::Chunk),
    ] {
        // The first encode sizes the codec's scratch (and builds the index).
        codec.encode_cached(&reference, target, &mut index);
        let (delta, calls, bytes) =
            allocated_by(|| codec.encode_cached(&reference, target, &mut index));
        assert_eq!(delta.encoding(), encoding);
        assert_eq!(calls, 1, "{encoding:?}: one allocation, the payload's");
        // The shared buffer's two reference counts ride in front of it, and
        // the whole is padded to their alignment.
        let word = std::mem::size_of::<usize>();
        assert_eq!(
            bytes,
            (delta.len() + 2 * word).next_multiple_of(word),
            "{encoding:?}: payload of {}",
            delta.len()
        );
    }
}
