//! Pins the torus model's memory at the allocator.
//!
//! The model keeps its uniform loads per ring digit, so binding a rate and
//! evaluating touch no heap at all, and building a uniform model costs
//! `O(k)` storage whatever the node count. Two checks:
//!
//! * `set_rate` plus `evaluate` at a steady uniform point of the adaptive
//!   16-ary 2-cube allocate nothing;
//! * building a uniform model of the 256-ary 2-cube (65,536 nodes, the
//!   model's size cap) allocates under 64 KiB. Dense per-channel tables would
//!   take `N · n · 4` entries each: 4 MiB per `f64` table at this size.
//!
//! The counting allocator lives in this dedicated integration-test binary
//! (one `#[test]`, so no concurrent test pollutes the counters).

use mcnet_model::{ModelOptions, TorusModel};
use mcnet_system::{TorusSystem, TrafficConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by allocations and reallocations (new sizes).
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The build budget of the largest uniform model: its `O(k)` ring tables and
/// hop distributions come to about 30 KiB.
const BUILD_BYTES: u64 = 64 << 10;

#[test]
fn torus_rate_binding_and_builds_stay_off_the_heap() {
    let torus = TorusSystem::new(16, 2).unwrap();
    let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
    let options = ModelOptions::default().with_adaptive_torus(2);
    let mut model = TorusModel::new(&torus, &traffic, options).unwrap();
    model.evaluate().unwrap();
    assert!(ALLOCS.load(Ordering::Relaxed) > 0, "counting allocator is not wired in");

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut total = 0.0;
    for rate in [1e-3, 2e-3, 3e-3, 1e-3] {
        model.set_rate(rate).unwrap();
        total += model.evaluate().unwrap().total;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(total > 0.0);
    assert_eq!(allocs, 0, "set_rate + evaluate allocated {allocs} times");

    let big = TorusSystem::new(256, 2).unwrap();
    let before = BYTES.load(Ordering::Relaxed);
    let model = TorusModel::new(&big, &TrafficConfig::uniform(16, 256.0, 1e-6).unwrap(), options);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(model.unwrap().torus().total_nodes(), 1 << 16);
    eprintln!("uniform 256-ary 2-cube model build: {bytes} bytes");
    assert!(bytes < BUILD_BYTES, "building the 65,536-node model allocated {bytes} bytes");
}
