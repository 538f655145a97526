//! A bounded worker pool for embarrassingly parallel evaluation work.
//!
//! Every layer above the configuration crate has the same need: evaluate many
//! independent `(system, traffic, seed)` points — simulation replications,
//! traffic sweeps, figure curves, table rows — and aggregate the results in a
//! deterministic order. [`parallel_map`] provides exactly that: it fans a work
//! list over at most [`max_workers`] threads (never one thread per item) and
//! returns the results in input order, so callers keep bit-identical
//! aggregation behaviour regardless of scheduling.
//!
//! The threads are the caller's own plus one process-wide set of parked
//! helper threads. The helpers start on first use, grow lazily to
//! `max_workers() − 1` and then live for the rest of the process, so a call
//! costs a wake-up instead of a thread spawn and join. One call holds the
//! helpers at a time: a nested call (from inside an item) or a call made while
//! another caller holds them runs inline on its own thread, which the
//! determinism contract makes always correct.
//!
//! Determinism contract: the *value* of each result depends only on the input
//! item and its index (callers derive per-item seeds from the index), and the
//! result vector is indexed by input position — thread interleaving can never
//! reorder or change results.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
/// seeds. At most `min(items.len(), max_workers())` threads run items: the
/// caller's own and the pool's parked helpers. With zero or one item, on a
/// single-core machine, inside another call's item, or while another caller
/// holds the helpers, the map runs inline on the caller's thread. A panic in
/// `f` propagates to the caller once every thread has left the call.
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    parallel_map_reusing(items, &mut Vec::new(), |(), i, item| f(i, item))
}

/// [`parallel_map`] with reusable per-worker state that outlives the call:
/// each worker owns one slot of `slots` and threads it mutably through every
/// item it claims. The caller keeps the slot vector and passes it back for the
/// next batch, so an engine (or any other arena) warmed up by one sweep point
/// keeps its capacity for every following point instead of being dropped at
/// the batch boundary. Missing slots are default-constructed on demand and the
/// vector never shrinks.
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
    let Some(pool) = (workers > 1).then(PoolHold::try_take).flatten() else {
        let state = &mut slots[0];
        return items.into_iter().enumerate().map(|(i, item)| f(state, i, item)).collect();
    };

    // Worker `w` owns slot `w` for the duration of the job, claiming items by
    // atomic index (`Relaxed`: items and results sit behind their own
    // mutexes) and filling results by input position.
    let n = items.len();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let slots = SlotsPtr(slots.as_mut_ptr());
    pool.run(workers, &|w| {
        // SAFETY: `w < workers ≤ slots.len()`, and the pool hands each worker
        // index to exactly one thread per job (the caller runs 0, each helper
        // a distinct ticket in `1..workers`), so this is the only reference
        // to slot `w` while the job runs; `run` returns only after every
        // worker has left the job, before `slots` is borrowed again.
        let state = unsafe { &mut *slots.at(w) };
        loop {
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

/// The base of a call's slot vector, shared with the workers of its job.
struct SlotsPtr<S>(*mut S);

// SAFETY: the workers reach the slots only through `SlotsPtr::at`, each at its
// own worker index (see `parallel_map_reusing`), so sharing the base pointer
// hands every slot to one thread at a time; `S: Send` lets that thread be a
// helper.
unsafe impl<S: Send> Sync for SlotsPtr<S> {}

impl<S> SlotsPtr<S> {
    /// The address of slot `w`. A method rather than a field read, so a
    /// closure captures the whole `Sync` wrapper, not the raw pointer inside.
    fn at(&self, w: usize) -> *mut S {
        self.0.wrapping_add(w)
    }
}

/// A posted job: runs worker slot `w` of the current call.
type Job = &'static (dyn Fn(usize) + Sync);

/// The process-wide helpers and the one job they serve.
struct Pool {
    /// Set while a call holds the pool (see [`PoolHold`]).
    held: AtomicBool,
    state: Mutex<PoolState>,
    /// Wakes parked helpers when a job is posted.
    posted: Condvar,
    /// Wakes the caller when the last helper leaves the job.
    left: Condvar,
}

struct PoolState {
    /// Helper threads started so far.
    helpers: usize,
    /// The job on offer; `None` between calls and once the caller withdraws
    /// it, after which no helper can join.
    job: Option<Job>,
    /// Helper tickets the job offers, and how many have been claimed; ticket
    /// `k` (from 1) runs worker slot `k`, so no two threads share a slot.
    tickets: usize,
    claimed: usize,
    /// Helpers inside the job.
    active: usize,
    /// The first panic payload caught in the job.
    panic: Option<Box<dyn Any + Send>>,
}

static POOL: Pool = Pool {
    held: AtomicBool::new(false),
    state: Mutex::new(PoolState {
        helpers: 0,
        job: None,
        tickets: 0,
        claimed: 0,
        active: 0,
        panic: None,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

/// Locks the pool state. Nothing panics while holding the lock (jobs run
/// outside it), so a poisoned lock still guards consistent state.
fn pool_state() -> MutexGuard<'static, PoolState> {
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One call's hold on the pool; dropping it lets the next call take it.
struct PoolHold;

impl PoolHold {
    /// Takes the pool, or `None` while another call holds it — a call nested
    /// in one of its items included.
    fn try_take() -> Option<PoolHold> {
        // Not `then_some`: it would build the guard on failure too, and
        // dropping that guard would release the other call's hold. The
        // `Acquire` pairs with the `Release` in `drop`.
        if POOL.held.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {
            Some(PoolHold)
        } else {
            None
        }
    }

    /// Runs `job(w)` for every worker slot `w < workers`: slot 0 on the
    /// calling thread, the others on helpers, growing the helper set first if
    /// it is short. Returns once every helper that joined the job has left
    /// it, then re-raises the first panic caught in the job.
    fn run(&self, workers: usize, job: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only erases the borrow's lifetime. Helpers call the job only
        // after joining it while it is posted, and this function withdraws it
        // and waits until every joined helper has left before it returns or
        // unwinds (the caller's own panic is caught below), so no call
        // outlives the borrow of `job` or of anything it captures.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let mut state = pool_state();
        while state.helpers < workers - 1 {
            // Helpers never exit, so there is no handle to join: dropping it
            // detaches the thread. A pool that cannot grow runs with the
            // helpers it has; the caller's slot 0 still claims every item.
            let spawned = std::thread::Builder::new()
                .name(format!("mcnet-pool-{}", state.helpers + 1))
                .spawn(helper);
            if spawned.is_err() {
                break;
            }
            state.helpers += 1;
        }
        state.job = Some(job);
        state.tickets = (workers - 1).min(state.helpers);
        state.claimed = 0;
        let tickets = state.tickets;
        drop(state);
        for _ in 0..tickets {
            POOL.posted.notify_one();
        }

        let own = panic::catch_unwind(AssertUnwindSafe(|| job(0)));

        let mut state = pool_state();
        state.job = None;
        if let Err(payload) = own {
            state.panic.get_or_insert(payload);
        }
        while state.active > 0 {
            state = POOL.left.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        let panic = state.panic.take();
        drop(state);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for PoolHold {
    fn drop(&mut self) {
        POOL.held.store(false, Ordering::Release);
    }
}

/// A helper thread: parks until the posted job offers a ticket, runs that
/// ticket's worker slot, and parks again. A helper that comes back while
/// tickets remain takes another, whose slot claims whatever items are left.
fn helper() {
    let mut state = pool_state();
    loop {
        match state.job {
            Some(job) if state.claimed < state.tickets => {
                state.claimed += 1;
                state.active += 1;
                let slot = state.claimed;
                drop(state);
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(slot)));
                state = pool_state();
                if let Err(payload) = outcome {
                    state.panic.get_or_insert(payload);
                }
                state.active -= 1;
                if state.active == 0 {
                    POOL.left.notify_one();
                }
            }
            _ => state = POOL.posted.wait(state).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Arc, Barrier};
    use std::thread;

    /// Serializes this module's calls: a test whose barrier waits for a
    /// helper would never pass it if another test held the pool and its call
    /// ran inline.
    static POOL_TESTS: Mutex<()> = Mutex::new(());

    fn hold_pool() -> MutexGuard<'static, ()> {
        POOL_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn results_keep_input_order() {
        let _pool = hold_pool();
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(items, |i, item| {
            assert_eq!(i, item);
            item * 3
        });
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_is_bounded() {
        // The helpers park between calls instead of exiting, so fifty calls
        // see no more threads than one: the caller's and `max_workers() − 1`
        // helpers.
        let _pool = hold_pool();
        let seen = Mutex::new(HashSet::new());
        for _ in 0..50 {
            parallel_map((0..2 * max_workers()).collect(), |_, _: usize| {
                seen.lock().unwrap().insert(thread::current().id());
            });
        }
        let seen = seen.into_inner().unwrap().len();
        assert!(seen <= max_workers(), "{seen} threads ran 50 calls of {} workers", max_workers());
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
        let _pool = hold_pool();
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
        let _pool = hold_pool();
        assert!(parallel_map(Vec::<u8>::new(), |_, x| x).is_empty());
        assert_eq!(parallel_map(vec![9], |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_thread_and_reused() {
        let _pool = hold_pool();
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
        let _pool = hold_pool();
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
        let _pool = hold_pool();
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
        let _pool = hold_pool();
        parallel_map(vec![1, 2, 3], |_, x| {
            if x == 2 {
                panic!("worker boom");
            }
            x
        });
    }

    #[test]
    fn a_nested_call_runs_inline() {
        // The first `width` items meet at the barrier, so they run on distinct
        // threads and the inner calls start on the caller and on a helper.
        let _pool = hold_pool();
        let width = max_workers().min(2);
        let met = Barrier::new(width);
        let out = parallel_map((0..8usize).collect(), |i, x| {
            if i < width {
                met.wait();
            }
            parallel_map((0..16usize).collect(), |j, y| {
                assert_eq!(j, y);
                x * 100 + y
            })
        });
        for (x, inner) in out.iter().enumerate() {
            assert_eq!(inner, &(0..16).map(|y| x * 100 + y).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        // Every caller's first item waits at `inside`, so all four calls are
        // under way at once: one holds the pool, the others run inline.
        let _pool = hold_pool();
        let callers = 4;
        let inside = Arc::new(Barrier::new(callers));
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let inside = Arc::clone(&inside);
                thread::spawn(move || {
                    parallel_map((0..200usize).collect(), |i, x| {
                        if i == 0 {
                            inside.wait();
                        }
                        assert_eq!(i, x);
                        c * 1000 + x
                    })
                })
            })
            .collect();
        for (c, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.join().unwrap(), (0..200).map(|x| c * 1000 + x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panic_on_either_thread_unwinds_after_the_other_item_ends() {
        let _pool = hold_pool();
        if max_workers() < 2 {
            // One worker: both items run inline, and the panic is the call's.
            let outcome = panic::catch_unwind(|| {
                parallel_map(vec![0, 1], |_, x| {
                    assert_eq!(x, 0, "inline boom");
                })
            });
            let payload = outcome.unwrap_err();
            assert!(payload.downcast_ref::<String>().unwrap().contains("inline boom"));
            return;
        }
        let caller = thread::current().id();
        for helper_panics in [false, true] {
            // Both items pass the barrier before either panics, so one runs on
            // the caller and one on a helper. The panicking item signals the
            // other just before it panics; the call may unwind only after the
            // other item has counted itself finished.
            let both_running = Barrier::new(2);
            let (panicking, rx) = mpsc::channel();
            let panicked = Mutex::new(rx);
            let finished = AtomicUsize::new(0);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map(vec![(), ()], |_, ()| {
                    both_running.wait();
                    let on_helper = thread::current().id() != caller;
                    if on_helper == helper_panics {
                        panicking.send(()).unwrap();
                        panic!("boom on the {}", if on_helper { "helper" } else { "caller" });
                    }
                    panicked.lock().unwrap().recv().unwrap();
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }));
            let payload = outcome.unwrap_err();
            let expected = if helper_panics { "boom on the helper" } else { "boom on the caller" };
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some(expected));
            assert_eq!(finished.load(Ordering::SeqCst), 1, "unwound while an item was running");
        }
    }
}
