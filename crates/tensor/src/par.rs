//! The workspace's one parallel primitive: [`map`] over a mutable slice
//! with an explicit worker count.
//!
//! Every fan-out in the workspace — a trainer wave, a decode engine batch
//! step, a fault campaign — goes through [`map`], and every caller says
//! how many workers it wants. There is no pool, no global thread count
//! and no thread-local override: each call spawns its workers with
//! `std::thread::scope` and joins them before it returns. (A persistent
//! pool would keep worker arenas warm across calls; it waits for a
//! measurement above one worker to show that it pays.)
//!
//! Results come back in input order, so a reduction over them in that
//! order is bit-identical at any worker count.

/// Run `f(index, item)` over every item of `items` on up to `workers`
/// threads and return the results in input order.
///
/// With at most one effective worker (`workers <= 1`, or a slice of at
/// most one item) the items run in order on the calling thread, and the
/// only allocation is the result vector. Otherwise the slice is cut into
/// contiguous runs, one per spawned thread. A panic in `f` propagates to
/// the caller once every worker has stopped.
///
/// **No reducers, on purpose.** The result is a `Vec` in input order; a
/// float reduction in scheduling order is not bit-identical across worker
/// counts, so there is no parallel `sum`, `product`, `reduce` or `fold`.
/// Reducing the result directly does not compile —
///
/// ```compile_fail,E0599
/// let total = attn_tensor::par::map(2, &mut [1.0f32, 2.0, 3.0], |_, x| *x).sum::<f32>();
/// ```
///
/// — and neither does accumulating into a captured variable, because `f`
/// is `Fn`:
///
/// ```compile_fail,E0594
/// let mut acc = 0.0f32;
/// attn_tensor::par::map(2, &mut [1.0f32, 2.0, 3.0], |_, x| acc += *x);
/// ```
///
/// What compiles is the fixed-order form: map, then reduce in order.
///
/// ```
/// let mut items = [1.0f32, 2.0, 3.0, 4.0];
/// let parts = attn_tensor::par::map(2, &mut items, |i, x| *x * i as f32);
/// assert_eq!(parts.iter().sum::<f32>(), 20.0);
/// ```
pub fn map<T, R, F>(workers: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let run = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(run)
            .enumerate()
            .map(|(c, chunk)| {
                scope.spawn(move || {
                    let indexed = chunk.iter_mut().zip(c * run..);
                    indexed.map(|(t, i)| f(i, t)).collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::map;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn results_and_writes_keep_input_order_at_any_worker_count() {
        for workers in [0, 1, 2, 3, 7, 64] {
            let mut items: Vec<u64> = (0..50).collect();
            let out = map(workers, &mut items, |i, x| {
                *x += 100;
                (i, *x)
            });
            let want: Vec<(usize, u64)> = (0..50).map(|i| (i, i as u64 + 100)).collect();
            assert_eq!(out, want, "workers={workers}");
            assert_eq!(items, (100..150).collect::<Vec<u64>>(), "workers={workers}");
        }
    }

    #[test]
    fn empty_input_never_calls_f() {
        for workers in [0, 1, 4] {
            let out: Vec<u8> = map(workers, &mut [0u8; 0], |_, _| unreachable!());
            assert!(out.is_empty());
        }
    }

    #[test]
    fn more_workers_than_items_runs_each_item_once() {
        let calls = AtomicUsize::new(0);
        let out = map(7, &mut [10, 20, 30], |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            *x + i
        });
        assert_eq!(out, [10, 21, 32]);
        assert_eq!(calls.into_inner(), 3);
    }

    #[test]
    fn one_worker_runs_inline_and_more_spawn() {
        let caller = thread::current().id();
        let on = |workers| map(workers, &mut [(); 4], |_, _| thread::current().id());
        assert!(on(1).iter().all(|&id| id == caller));
        let spawned = on(2);
        assert!(spawned.iter().all(|&id| id != caller));
        assert_ne!(spawned[0], spawned[3], "two runs, two threads");
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map(2, &mut [0, 1, 2, 3], |i, _| {
                assert_ne!(i, 3, "item 3 fails")
            })
        });
        assert!(caught.is_err());
    }
}
