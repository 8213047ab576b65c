//! Thread-local scratch arena for the GEMM/encoding hot path.
//!
//! Every packed-GEMM invocation needs transient buffers: A/B panel packing
//! stores, checksum staging rows, and small scratch matrices; every paged
//! KV cache needs its blocks. Allocating those per call would put `malloc`
//! on the innermost path — the exact overhead the paper's fused kernels
//! avoid on the GPU by staging in shared memory. This arena makes the
//! steady state *arena-miss-free* — kernel scratch stops reaching the
//! global allocator once the arena is warm. It does not make a step
//! allocation-free: owned results, tapes and per-step handle vectors above
//! the kernels still allocate (counted per path by `tests/heap_budget.rs`).
//!
//! * [`take`] checks a buffer out of a **thread-local size class** and
//!   returns an RAII [`WsBuf`] that files it back on drop. There are four
//!   classes per power of two, of lengths `2^k · {1, 1.25, 1.5, 1.75}`. A
//!   request for `len` elements pops from the smallest class whose length
//!   reaches `len`; a returned buffer is filed under the largest class its
//!   capacity reaches, so every buffer in a class holds at least the
//!   class's length. A buffer never serves a request from another class: a
//!   checkout occupies less than 1.25× its length, and a small request (a
//!   KV block) can never pin a large buffer (a packing panel). Checkout and
//!   return are O(1).
//! * Only a checkout whose class list is empty touches the global
//!   allocator (for exactly the class's length); the per-thread count of
//!   such misses is readable via [`thread_alloc_events`]. A zero-length
//!   checkout holds no memory and never counts.
//! * Each class keeps at most as many free buffers as the thread has
//!   allocated for it, which is its **high-water mark**: as many buffers
//!   as it ever had live in the class at once. A buffer checked out on one
//!   thread and dropped on another (a KV block grown on a parallel worker,
//!   retired with its session on the serving thread) fills the class only
//!   up to that mark and is freed beyond it, so what a thread pools stays
//!   bounded by its own use. Nothing else is evicted. After a warm-up pass
//!   over a fixed workload (one training step, one decode session), every
//!   later identical pass — and every session no longer than the longest
//!   before it — replays against buffers already held, so the counter
//!   stops moving: the property the trainer's steady-state and the decode
//!   warm-session tests assert.
//!
//! The arena is deliberately thread-local rather than shared: checkouts are
//! lock-free and contention cannot exist. The warm-arena property therefore
//! holds per *persistent* thread — the sequential trainer's calling thread
//! in particular. [`crate::par::map`] spawns fresh scoped threads per call,
//! so arenas on its workers (the batch items of a trainer or engine at
//! `set_parallelism > 1`) start cold on every call. Keeping them warm needs
//! a persistent pool, which waits for a measurement above one worker to
//! show that it pays.
//! Buffers are `f32` vectors zero-filled on checkout (`resize` within
//! capacity — no allocation) so callers never observe stale scratch.

use std::cell::RefCell;

/// Four size classes per power of two, like a float with a 3-bit
/// mantissa: class `4e + m` holds buffers of at least `m · 2^e` elements,
/// `m` in 4..8 (below 8 elements, class `n` holds `n`). Coarser classes
/// cost the protected serving path speed against its unprotected twin:
/// the twin's KV blocks are a power of two (512 floats at head width 32),
/// the checksummed ones one or two rows more (576, 544), and a buffer
/// much larger than its block slowed every pass over the cache.
const CLASSES: usize = 4 * usize::BITS as usize;

/// The element count every buffer in `class` holds at least.
fn class_len(class: usize) -> usize {
    if class < 8 {
        class
    } else {
        (class % 4 + 4) << (class / 4 - 1)
    }
}

/// The largest class whose length `n` reaches, where a returned buffer of
/// capacity `n` is filed; `None` for an empty one.
fn class_floor(n: usize) -> Option<usize> {
    let e = n.checked_ilog2()?.saturating_sub(2);
    Some(4 * e as usize + (n >> e))
}

/// The smallest class whose length reaches `len`, which serves a checkout
/// of `len` elements.
fn class_ceil(len: usize) -> usize {
    let c = class_floor(len).unwrap_or(0);
    c + usize::from(class_len(c) < len)
}

/// One size class of a thread's arena.
struct Class {
    /// Buffers ready for checkout.
    free: Vec<Vec<f32>>,
    /// Buffers the thread has allocated for this class. A miss happens
    /// only when every one of them is out, so this is the thread's
    /// high-water count of live checkouts, and the most `free` keeps.
    allocated: usize,
}

thread_local! {
    static ARENA: RefCell<[Class; CLASSES]> = const {
        RefCell::new(
            [const {
                Class {
                    free: Vec::new(),
                    allocated: 0,
                }
            }; CLASSES],
        )
    };
}

/// Scratch buffer checked out of the thread-local arena; returned to its
/// size class when dropped. Dereferences to `[f32]` of exactly the
/// requested length, zero-filled.
pub struct WsBuf {
    data: Vec<f32>,
}

impl std::ops::Deref for WsBuf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::DerefMut for WsBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Drop for WsBuf {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        let Some(class) = class_floor(data.capacity()) else {
            return; // nothing to keep
        };
        // A buffer beyond the class's high-water count (one checked out
        // on another thread) is freed; so is one whose arena is gone
        // during thread teardown.
        let _ = ARENA.try_with(|a| {
            let c = &mut a.borrow_mut()[class];
            if c.free.len() < c.allocated {
                c.free.push(data);
            }
        });
    }
}

/// Check a zero-filled `len`-element scratch buffer out of this thread's
/// arena. Pops a buffer from the smallest class that fits `len` (no
/// allocation); only when that class is empty does it allocate the class's
/// length, bumping the per-thread counter behind [`thread_alloc_events`].
pub fn take(len: usize) -> WsBuf {
    if len == 0 {
        return WsBuf { data: Vec::new() };
    }
    let class = class_ceil(len);
    let mut data = ARENA.with(|a| {
        let c = &mut a.borrow_mut()[class];
        c.free.pop().unwrap_or_else(|| {
            c.allocated += 1;
            Vec::with_capacity(class_len(class))
        })
    });
    data.clear();
    data.resize(len, 0.0); // within capacity: never reallocates
    WsBuf { data }
}

/// Number of arena checkouts on *this thread* that had to hit the global
/// allocator since the thread started. Stable across two identical
/// workloads ⇔ the second one ran arena-miss-free.
pub fn thread_alloc_events() -> u64 {
    ARENA.with(|a| a.borrow().iter().map(|c| c.allocated as u64).sum())
}

/// Number of free buffers *this thread's* arena holds across its classes:
/// the memory it keeps warm for later checkouts.
pub fn thread_pooled_buffers() -> usize {
    ARENA.with(|a| a.borrow().iter().map(|c| c.free.len()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_requested_len() {
        let mut b = take(37);
        assert_eq!(b.len(), 37);
        assert!(crate::float::all_exactly_zero(&b));
        b[5] = 9.0;
        drop(b);
        // The dirty buffer goes back to the arena but comes out zeroed.
        let b2 = take(37);
        assert!(crate::float::all_exactly_zero(&b2));
    }

    #[test]
    fn steady_state_reuse_is_allocation_free() {
        // Warm the arena with the exact checkout pattern…
        {
            let _a = take(100);
            let _b = take(200);
        }
        let before = thread_alloc_events();
        // …then replay it: every checkout must be served from the arena,
        // and an empty one needs none.
        for _ in 0..10 {
            let _a = take(100);
            let _b = take(200);
            let _c = take(0);
        }
        assert_eq!(
            thread_alloc_events(),
            before,
            "steady state must not allocate"
        );
    }

    #[test]
    fn checkout_capacity_is_under_one_and_a_quarter_times_its_length() {
        // Shrinking requests: every larger buffer is back in the arena
        // before each smaller checkout.
        let lens = [8193, 8192, 8191, 7169, 6145, 6144, 600, 576, 513, 512, 511];
        for len in lens.into_iter().chain((1..=300).rev()) {
            let b = take(len);
            assert_eq!(b.len(), len);
            let cap = b.data.capacity();
            assert!(
                len <= cap && 4 * cap < 5 * len,
                "take({len}) got capacity {cap}"
            );
            // Returned, it is filed under the class that served it.
            assert_eq!(class_floor(cap), Some(class_ceil(len)));
        }
    }

    #[test]
    fn pooled_packing_buffer_does_not_serve_a_kv_block() {
        drop(take(8192));
        let before = thread_alloc_events();
        let block = take(600);
        assert_eq!(
            thread_alloc_events(),
            before + 1,
            "a 600-float request must not take the pooled 8192-float buffer"
        );
        assert_eq!(block.data.capacity(), 640);
        // The 8192-float buffer is still pooled for the next packing request.
        let panel = take(8192);
        assert_eq!(thread_alloc_events(), before + 1);
        assert_eq!(panel.data.capacity(), 8192);
    }

    #[test]
    fn more_than_64_returned_buffers_all_come_back() {
        let lens = || (0..200).map(|i| 500 + 3 * i);
        drop(lens().map(take).collect::<Vec<_>>());
        let before = thread_alloc_events();
        let again: Vec<_> = lens().map(take).collect();
        assert_eq!(again.len(), 200);
        assert_eq!(
            thread_alloc_events(),
            before,
            "a returned buffer was evicted"
        );
    }

    #[test]
    fn a_thread_pools_no_more_than_it_allocated() {
        let foreign = || {
            std::thread::spawn(|| (0..8).map(|_| take(600)).collect::<Vec<_>>())
                .join()
                .expect("the checkout thread does not panic")
        };
        std::thread::spawn(move || {
            drop([take(600), take(600)]);
            assert_eq!(thread_pooled_buffers(), 2);
            // Buffers checked out elsewhere find the class full…
            drop(foreign());
            assert_eq!(thread_pooled_buffers(), 2);
            // …or fill it only up to the two this thread allocated.
            let own = [take(600), take(600)];
            drop(foreign());
            drop(own);
            assert_eq!(thread_pooled_buffers(), 2);
            assert_eq!(thread_alloc_events(), 2);
        })
        .join()
        .expect("the assertions hold");
    }

    #[test]
    fn concurrent_checkouts_are_distinct() {
        let mut a = take(16);
        let mut b = take(16);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }
}
