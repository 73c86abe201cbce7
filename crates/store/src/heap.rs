//! Peak-heap measurement for the decoder fuzzers in `wal` and `corpus` (unit-test builds
//! only): decoding bytes that crossed a trust boundary must hold at most a fixed multiple of
//! the input's length, plus a constant, at its peak.
//!
//! A counting global allocator keeps the live byte count of each thread in a
//! `const`-initialised thread-local, so the crate's tests can run in parallel without seeing
//! each other's allocations. The allocator is the only `unsafe` code in the crate.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's live heap bytes (negative after it frees another thread's memory), and
    /// their highest value since [`bounded`] last reset it.
    static HEAP: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn count(delta: isize) {
    // `try_with`: a thread being torn down may still free memory after its locals are gone.
    let _ = HEAP.try_with(|heap| {
        let (live, peak) = heap.get();
        heap.set((live + delta, peak.max(live + delta)));
    });
}

/// The system allocator, counting each thread's live bytes in `HEAP`.
struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping only reads layouts
// and updates a thread-local counter, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes a decode may hold at its peak, per byte of input (its result included).
///
/// Measured with the WAL and snapshot fuzzers at 4,096 cases each, plus one large valid input
/// per decoder: the most per input byte was 9.7 for a snapshot (a generated corpus peaked at
/// 510,575 bytes for 52,803) and 7.3 for a log (4,100 records peaked at 655,483 bytes for
/// 90,253, the record vector just past a doubling). Beyond 16 bytes per input byte, the
/// largest peak was 44 bytes, for an error on a short log. So the bound is 16 bytes per input
/// byte plus 1 KiB.
const PEAK_BYTES_PER_INPUT_BYTE: isize = 16;

/// Heap bytes a decode may hold at its peak, whatever its input's length.
const PEAK_BYTES_BASE: isize = 1024;

/// Runs `decode` over an input of `len` bytes, asserting that the most heap this thread held
/// during it, beyond what it held before (the result's own heap included), is at most
/// `PEAK_BYTES_PER_INPUT_BYTE · len + PEAK_BYTES_BASE`.
pub(crate) fn bounded<R>(len: usize, decode: impl FnOnce() -> R) -> R {
    let before = HEAP.with(|heap| {
        let (live, _) = heap.get();
        heap.set((live, live));
        live
    });
    let out = decode();
    let peak = HEAP.with(Cell::get).1 - before;
    let bound = PEAK_BYTES_PER_INPUT_BYTE * len as isize + PEAK_BYTES_BASE;
    assert!(
        peak <= bound,
        "a decode of {len} input bytes peaked at {peak} heap bytes (bound {bound})"
    );
    out
}
