//! Pins the replication fast path at **zero steady-state allocations**.
//!
//! The engine's contract (`Simulation::reset`) is that every per-run
//! structure — the future-event heap, the channel pool
//! and waiter arena, the message slab, the interned route table, the arrival
//! heap, the histogram bins and the adaptive scratch buffers — retains its
//! grown capacity across runs. This test enforces the contract at the
//! allocator: after a short warm-up over the same seed set, re-running the
//! very same replication loop must hit the global allocator **zero** times.
//!
//! The counting allocator lives in this dedicated integration-test binary
//! (one `#[test]`, so no concurrent test pollutes the counters). The library
//! itself remains free of `unsafe`; only this harness shims the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed) + REALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_replication_runs_do_not_allocate() {
    use mcnet_sim::engine::Simulation;
    use mcnet_sim::{SimConfig, TrafficSourceSpec};
    use mcnet_system::{organizations, TrafficConfig};

    let system = organizations::small_test_org();
    let traffic = TrafficConfig::uniform(32, 256.0, 2e-3).unwrap();
    let base = SimConfig::quick(100);
    let seeds: [u64; 3] = [100, 101, 102];

    let policy = mcnet_sim::RoutingPolicy::Deterministic;
    let mut sim =
        Simulation::new_full(&system, &traffic, &base, None, policy, &TrafficSourceSpec::Poisson)
            .unwrap();
    sim.run().unwrap();

    // Warm-up: two full passes over the measured seed set. The first pass
    // grows every arena to the high-water mark of these exact runs (the route
    // table interns lazily, so each seed's destination pairs materialize on
    // first use); the second pass proves the mark is stable before measuring.
    for _ in 0..2 {
        for &seed in &seeds {
            let cfg = SimConfig { seed, ..base };
            sim.reset(&traffic, &TrafficSourceSpec::Poisson, &cfg, None).unwrap();
            sim.run().unwrap();
        }
    }

    // Measured region: three more reset+run replications over the same seeds.
    let before = allocation_count();
    assert!(before > 0, "counting allocator is not wired in");
    let mut delivered = 0u64;
    for &seed in &seeds {
        let cfg = SimConfig { seed, ..base };
        sim.reset(&traffic, &TrafficSourceSpec::Poisson, &cfg, None).unwrap();
        sim.run().unwrap();
        delivered += sim.events_processed();
    }
    let grew = allocation_count() - before;

    assert!(delivered > 0, "measured runs processed no events");
    assert_eq!(
        grew, 0,
        "steady-state reset+run allocated {grew} times across 3 replications; \
         a per-run arena lost its capacity retention"
    );
}
