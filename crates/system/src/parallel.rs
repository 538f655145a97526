//! A minimal bounded worker pool for embarrassingly parallel evaluation work.
//!
//! Every layer above the configuration crate has the same need: evaluate many
//! independent `(system, traffic, seed)` points — simulation replications,
//! traffic sweeps, figure curves, table rows — and aggregate the results in a
//! deterministic order. [`parallel_map`] provides exactly that: it fans a work
//! list over at most [`max_workers`] OS threads (never one thread per item)
//! and returns the results in input order, so callers keep bit-identical
//! aggregation behaviour regardless of scheduling.
//!
//! Determinism contract: the *value* of each result depends only on the input
//! item and its index (callers derive per-item seeds from the index), and the
//! result vector is indexed by input position — thread interleaving can never
//! reorder or change results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on worker threads: `MCNET_WORKERS` when it holds an integer
/// ≥ 1, otherwise the machine's available parallelism. Results never depend
/// on the worker count (see the module's determinism contract); the override
/// lets a test or a user pin the pool width.
pub fn max_workers() -> usize {
    workers_override(std::env::var("MCNET_WORKERS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Parses an `MCNET_WORKERS` value: `Some(n)` for an integer `n ≥ 1`, `None`
/// for an unset, empty, zero or malformed value.
fn workers_override(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n| n >= 1)
}

/// Maps `f` over `items` on a bounded worker pool, returning results in input
/// order.
///
/// `f` receives `(index, item)` so callers can derive deterministic per-item
/// seeds. At most `min(items.len(), max_workers())` threads are spawned; with
/// zero or one item (or a single-core machine) the map runs inline on the
/// caller's thread. A panic in `f` propagates to the caller after the pool
/// drains.
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    parallel_map_reusing(items, &mut Vec::new(), |(), i, item| f(i, item))
}

/// [`parallel_map`] with reusable per-worker state that outlives the call:
/// each worker thread owns one slot of `slots` and threads it mutably through
/// every item it claims. The caller keeps the slot vector and passes it back
/// for the next batch, so an engine (or any other arena) warmed up by one
/// sweep point keeps its capacity for every following point instead of being
/// dropped at the batch boundary. Missing slots are default-constructed on
/// demand and the vector never shrinks.
///
/// The determinism contract is unchanged — and therefore demands that result
/// `i` stays a pure function of `(i, items[i])`: the slots may cache arenas
/// and buffers, never anything that leaks into results, since which items
/// (and even which *batches*) share a slot is scheduling-dependent.
pub fn parallel_map_reusing<T, U, S, F>(items: Vec<T>, slots: &mut Vec<S>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    S: Default + Send,
    F: Fn(&mut S, usize, T) -> U + Sync,
{
    let workers = max_workers().min(items.len()).max(1);
    if slots.len() < workers {
        slots.resize_with(workers, S::default);
    }
    if workers <= 1 {
        let state = &mut slots[0];
        return items.into_iter().enumerate().map(|(i, item)| f(state, i, item)).collect();
    }

    // The pool: `workers` scoped threads, each owning one of the first
    // `workers` slots exclusively for the duration of the scope, claiming
    // items by atomic index and filling results by input position.
    let n = items.len();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let (work, results, next, f) = (&work, &results, &next, &f);
        let handles: Vec<_> = slots
            .iter_mut()
            .take(workers)
            .map(|state| {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let out = f(state, i, item);
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                })
            })
            .collect();
        // Join inside the scope and re-raise the first worker's own panic:
        // left to the scope, it would re-panic with a generic message and
        // drop the payload.
        let mut panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool finished with an unfilled slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(items, |i, item| {
            assert_eq!(i, item);
            item * 3
        });
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_is_bounded() {
        let seen = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        parallel_map(items, |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(seen.lock().unwrap().len() <= max_workers());
        assert!(max_workers() >= 1);
    }

    #[test]
    fn workers_override_accepts_only_positive_integers() {
        assert_eq!(workers_override(Some("1")), Some(1));
        assert_eq!(workers_override(Some(" 3 ")), Some(3));
        for invalid in [None, Some(""), Some("0"), Some("-2"), Some("two"), Some("1.5")] {
            assert_eq!(workers_override(invalid), None, "{invalid:?}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = parallel_map((0..100).collect::<Vec<_>>(), |_, x: i32| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        assert!(parallel_map(Vec::<u8>::new(), |_, x| x).is_empty());
        assert_eq!(parallel_map(vec![9], |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_thread_and_reused() {
        // Each worker threads its own counter through every item it claims:
        // the number of distinct states is bounded by the worker count, the
        // counters add up to the item count, and the result values remain a
        // pure function of the input item.
        let mut slots: Vec<usize> = Vec::new();
        let out = parallel_map_reusing((0..200usize).collect(), &mut slots, |seen, i, item| {
            *seen += 1;
            assert_eq!(i, item);
            (item * 2, std::thread::current().id())
        });
        assert_eq!(out.len(), 200);
        let mut threads = HashSet::new();
        for (i, (v, thread)) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
            threads.insert(*thread);
        }
        assert!(threads.len() <= max_workers());
        assert!(slots.len() <= max_workers());
        assert_eq!(slots.iter().sum::<usize>(), 200);
    }

    #[test]
    fn inline_fallback_threads_one_state_through_every_item() {
        // Zero/one items run inline on the caller's thread with a single state.
        let mut slots = vec![41];
        assert!(parallel_map_reusing(Vec::<u8>::new(), &mut slots, |_, _, x| x).is_empty());
        let out = parallel_map_reusing(vec![5u8], &mut slots, |s: &mut i32, i, x| {
            *s += 1;
            (i, x, *s)
        });
        assert_eq!(out, vec![(0, 5, 42)]);
    }

    #[test]
    fn reusing_slots_persist_across_calls_and_never_shrink() {
        // Two batches through the same slot vector: the states warmed by the
        // first batch are handed back to the second, results stay a pure
        // function of the input, and the vector retains its high-water size.
        let mut slots: Vec<usize> = Vec::new();
        let out = parallel_map_reusing((0..64usize).collect(), &mut slots, |uses, i, item| {
            *uses += 1;
            assert_eq!(i, item);
            item * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        let width = slots.len();
        assert!(width >= 1 && width <= max_workers());
        let first_batch_uses: usize = slots.iter().sum();
        assert_eq!(first_batch_uses, 64);

        // A smaller second batch must not shrink the pool, and its work lands
        // in the same (already warmed) slots.
        let out = parallel_map_reusing(vec![7usize], &mut slots, |uses, _, item| {
            *uses += 1;
            item
        });
        assert_eq!(out, vec![7]);
        assert_eq!(slots.len(), width);
        assert_eq!(slots.iter().sum::<usize>(), 65);

        // Empty batches are a no-op beyond ensuring one slot exists.
        assert!(parallel_map_reusing(Vec::<u8>::new(), &mut slots, |_, _, x| x).is_empty());
        assert_eq!(slots.iter().sum::<usize>(), 65);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        parallel_map(vec![1, 2, 3], |_, x| {
            if x == 2 {
                panic!("worker boom");
            }
            x
        });
    }
}
