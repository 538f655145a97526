//! Pins the replication fast path at **zero steady-state allocations**, for
//! every routing policy.
//!
//! The engine's contract (`Simulation::reset`) is that every per-run
//! structure — the future-event heap and lane rings, the channel pool
//! and waiter arena, the message slab, the route arena and its region free
//! lists, the arrival heap, the histogram bins and the adaptive scratch
//! buffers — retains its grown capacity across runs, and that every route
//! walk the engine runs per message (dimension-order torus and intra-cluster
//! tree routes, adaptive torus hops, randomized up\*/down\* paths) decodes
//! its digits on the stack. This test enforces the contract at the
//! allocator: after a short warm-up over the same seed set, re-running the
//! very same replication loop must hit the global allocator **zero** times —
//! on the deterministic tree (uniform and intra-cluster-heavy traffic, and
//! past the knee, where the source-queue backlog waits as records), on the
//! dimension-order torus, on the adaptive torus under an ON-OFF source and on
//! the randomized up\*/down\* tree.
//!
//! Two faulted legs (a torus link outage and a tree bridge outage) pin the
//! degraded-mode path: materializing the fault plan costs a small constant
//! per reset, while the aborts, retransmissions and re-routes of thousands of
//! delivered messages allocate nothing.
//!
//! The route table's own storage is pinned too: building it for the Fig. 3
//! organization (N = 1,120, C = 32) allocates `O(N + C²)` bytes, so no
//! per-pair (`N²`) index can come back unnoticed.
//!
//! The counting allocator lives in this dedicated integration-test binary
//! (one `#[test]`, so no concurrent test pollutes the counters). The library
//! itself remains free of `unsafe`; only this harness shims the allocator.

use mcnet_sim::engine::Simulation;
use mcnet_sim::fault::{BridgeUnit, FaultAction, FaultEvent, FaultPlan, FaultTarget, RingDir};
use mcnet_sim::routes::RouteTable;
use mcnet_sim::{FabricBackend, RoutingPolicy, SimConfig, TrafficSourceSpec};
use mcnet_system::{organizations, TorusSystem, TrafficConfig, TrafficPattern};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
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
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed) + REALLOCS.load(Ordering::Relaxed)
}

/// One engine's replication loop: warm-up passes, then a measured pass.
struct Leg {
    sim: Simulation,
    traffic: TrafficConfig,
    source: TrafficSourceSpec,
    faults: Option<FaultPlan>,
}

/// Allocations and delivered messages of one measured pass.
struct Measured {
    allocations: u64,
    delivered: u64,
}

const SEEDS: [u64; 3] = [100, 101, 102];

impl Leg {
    fn pass(&mut self, base: &SimConfig) -> u64 {
        let mut delivered = 0;
        for &seed in &SEEDS {
            let cfg = SimConfig { seed, ..*base };
            self.sim.reset(&self.traffic, &self.source, &cfg, self.faults.as_ref()).unwrap();
            self.sim.run().unwrap();
            delivered += self.sim.stats().delivered();
        }
        delivered
    }

    /// Warm-up: two full passes over the measured seed set. The first pass
    /// grows every arena to the high-water mark of these exact runs (the route
    /// arena carves regions up to the peak in-flight population); the second
    /// pass proves the mark is stable before measuring.
    /// Then three more reset+run replications over the same seeds, counted.
    fn measure(mut self, base: &SimConfig) -> Measured {
        self.sim.run().unwrap();
        for _ in 0..2 {
            self.pass(base);
        }
        let before = allocation_count();
        assert!(before > 0, "counting allocator is not wired in");
        let delivered = self.pass(base);
        Measured { allocations: allocation_count() - before, delivered }
    }
}

/// Bound on the bytes `RouteTable::build` allocates for the Fig. 3
/// organization. Its segments and cluster maps count about 190 KB here (a
/// reallocation counts its whole new size); an index over the N² = 1.25M node
/// pairs counts tens of MiB.
const ROUTE_TABLE_BUILD_BYTES: u64 = 1 << 20;

fn route_table_build_bytes() -> u64 {
    let org = organizations::table1_org_a();
    let traffic = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
    let backend = FabricBackend::tree(&org, &traffic).unwrap();
    let before = BYTES.load(Ordering::Relaxed);
    let table = RouteTable::build(&backend).unwrap();
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(table.nodes(), 1120);
    bytes
}

#[test]
fn steady_state_replication_runs_do_not_allocate() {
    let bytes = route_table_build_bytes();
    eprintln!("route table build, N = 1120: {bytes} bytes");
    assert!(
        bytes < ROUTE_TABLE_BUILD_BYTES,
        "RouteTable::build allocated {bytes} bytes for 1,120 nodes; per-pair storage is back"
    );

    let base = SimConfig::quick(100);
    let org = organizations::small_test_org();
    let torus = TorusSystem::new(8, 2).unwrap();
    let adaptive = RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 };
    let on_off = TrafficSourceSpec::OnOff { duty: 0.5, mean_on: None };
    let outage = |target| {
        let at = |at, action| FaultEvent { at, target, action };
        FaultPlan::new(vec![at(5_000.0, FaultAction::Down), at(20_000.0, FaultAction::Up)])
    };
    let uniform = |rate| TrafficConfig::uniform(32, 256.0, rate).unwrap();
    let tree_leg =
        |policy, traffic: TrafficConfig, source: TrafficSourceSpec, faults: Option<FaultPlan>| {
            let sim = Simulation::new_full(&org, &traffic, &base, faults.as_ref(), policy, &source)
                .unwrap();
            Leg { sim, traffic, source, faults }
        };
    let torus_leg = |policy, source: TrafficSourceSpec, faults: Option<FaultPlan>| {
        let traffic = uniform(1e-3);
        let sim =
            Simulation::new_torus_full(&torus, &traffic, &base, faults.as_ref(), policy, &source)
                .unwrap();
        Leg { sim, traffic, source, faults }
    };
    let intra_heavy =
        uniform(2e-3).with_pattern(TrafficPattern::LocalFavoring { locality: 0.9 }).unwrap();

    // Fault-free legs: every routing policy runs allocation-free.
    let fault_free = [
        (
            "deterministic tree",
            tree_leg(RoutingPolicy::Deterministic, uniform(2e-3), TrafficSourceSpec::Poisson, None),
        ),
        (
            "deterministic tree, intra-cluster heavy",
            tree_leg(RoutingPolicy::Deterministic, intra_heavy, TrafficSourceSpec::Poisson, None),
        ),
        (
            // About 2.5x the model's saturation rate: the backlog outgrows
            // the network and the record slab grows to its own peak.
            "deterministic tree past the knee",
            tree_leg(RoutingPolicy::Deterministic, uniform(2e-2), TrafficSourceSpec::Poisson, None),
        ),
        (
            "dimension-order torus",
            torus_leg(RoutingPolicy::Deterministic, TrafficSourceSpec::Poisson, None),
        ),
        ("adaptive torus, ON-OFF", torus_leg(adaptive, on_off.clone(), None)),
        (
            "randomized up*/down* tree",
            tree_leg(
                RoutingPolicy::RandomizedUpDown,
                uniform(2e-3),
                TrafficSourceSpec::Poisson,
                None,
            ),
        ),
    ];
    for (label, leg) in fault_free {
        let m = leg.measure(&base);
        eprintln!("{label}: {} allocations, {} delivered", m.allocations, m.delivered);
        assert!(m.delivered > 0, "{label}: measured runs delivered nothing");
        assert_eq!(
            m.allocations, 0,
            "{label}: steady-state reset+run allocated {} times across 3 replications; \
             a per-run arena lost its capacity retention or a route walker allocates",
            m.allocations
        );
    }

    // Faulted legs: materializing the fault plan on each reset costs a small
    // constant; the messages themselves (aborts, retransmits, re-routes)
    // allocate nothing, so the count must not scale with traffic.
    let link = FaultTarget::TorusLink { node: 9, dim: 0, dir: RingDir::Plus };
    let bridge = FaultTarget::Bridge { cluster: 0, unit: BridgeUnit::Concentrator };
    let faulted = [
        ("adaptive torus, link outage", torus_leg(adaptive, on_off, Some(outage(link)))),
        (
            "deterministic tree, bridge outage",
            tree_leg(
                RoutingPolicy::Deterministic,
                uniform(1e-3),
                TrafficSourceSpec::Poisson,
                Some(outage(bridge)),
            ),
        ),
    ];
    for (label, leg) in faulted {
        let m = leg.measure(&base);
        let per_reset = m.allocations / SEEDS.len() as u64;
        eprintln!("{label}: {} allocations, {} delivered", m.allocations, m.delivered);
        assert!(m.delivered >= 1_000, "{label}: only {} messages delivered", m.delivered);
        assert!(
            per_reset <= 16,
            "{label}: {per_reset} allocations per reset+run over {} deliveries; \
             the faulted message path allocates",
            m.delivered
        );
    }
}
