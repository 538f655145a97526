//! Layer probes for the traced run: timed loops over each layer's public
//! functions at the workload's own fabric and traffic, for the layers whose
//! calls happen inside the library (the engine builds its fabric and route
//! table itself; the event loop calls the queues, the channel pool and the
//! traffic source millions of times a run).

use std::hint::black_box;
use std::time::Instant;

use mcnet_model::{ModelBackend, ModelOptions};
use mcnet_sim::arrivals::ArrivalQueue;
use mcnet_sim::channels::Acquire;
use mcnet_sim::event::{EventKind, EventQueue};
use mcnet_sim::routes::RouteTable;
use mcnet_sim::scenario::sim_report_json;
use mcnet_sim::{
    BridgeUnit, Fabric, FabricBackend, FaultAction, FaultEvent, FaultPlan, FaultTarget, RingDir,
    RoutingPolicy, Scenario, SimConfig, TrafficSourceSpec,
};
use mcnet_system::{organizations, TorusSystem, TrafficConfig};
use mcnet_topology::routing::NcaRouter;
use mcnet_topology::{KaryNCube, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;
use crate::workload::Metric;

/// One fabric a workload runs, with a representative traffic point.
#[derive(Debug, Clone)]
pub struct Target {
    fabric: Fabric,
    traffic: TrafficConfig,
    routing: RoutingPolicy,
}

impl Target {
    pub fn new(fabric: Fabric, traffic: TrafficConfig, routing: RoutingPolicy) -> Self {
        Target { fabric, traffic, routing }
    }

    fn backend(&self) -> Result<FabricBackend, String> {
        match &self.fabric {
            Fabric::Tree(system) => FabricBackend::tree_with(system, &self.traffic, self.routing),
            Fabric::Torus(torus) => FabricBackend::cube_with(torus, &self.traffic, self.routing),
        }
        .map_err(|e| e.to_string())
    }

    fn model(&self) -> (ModelBackend, ModelOptions) {
        let backend = match &self.fabric {
            Fabric::Tree(system) => ModelBackend::Tree(system.clone()),
            Fabric::Torus(torus) => ModelBackend::Torus(torus.clone()),
        };
        let options = match self.routing {
            RoutingPolicy::AdaptiveTorus { adaptive_vcs } => {
                ModelOptions::default().with_adaptive_torus(adaptive_vcs as usize)
            }
            _ => ModelOptions::default(),
        };
        (backend, options)
    }

    fn ranges(&self) -> Vec<(usize, usize)> {
        match &self.fabric {
            Fabric::Tree(system) => (0..system.num_clusters())
                .filter_map(|c| system.node_range(c).ok().map(|r| (r.start, r.end)))
                .collect(),
            Fabric::Torus(torus) => torus.neighborhood_ranges(),
        }
    }
}

/// Calls per timed loop.
const OPS: usize = 200_000;
/// Repeats of the cheap whole-structure builds.
const BUILD_REPS: usize = 5;

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// Times `ops` calls of `body`, recording one span for the loop.
fn timed_loop(tr: &Tracer, name: &'static str, ops: usize, mut body: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..ops {
        body(i);
    }
    tr.record(name, start, Instant::now());
    ns_per(start, ops)
}

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric { name: name.to_string(), value, unit });
}

/// Runs every probe over the workload's targets.
pub fn run(targets: &[Target], seed: u64, tr: &Tracer) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let first = &targets[0];

    // fabric: backend construction.
    let mut build_ms = Vec::new();
    let mut channels = 0usize;
    let mut backends = Vec::new();
    for t in targets {
        let mut backend = None;
        for _ in 0..BUILD_REPS {
            let start = Instant::now();
            let b = {
                let _span = tr.span("fabric.build");
                t.backend()?
            };
            build_ms.push(start.elapsed().as_secs_f64() * 1e3);
            backend = Some(b);
        }
        let backend = backend.expect("at least one build");
        channels += backend.num_channels();
        backends.push(backend);
    }
    push(&mut out, "fabric.build_ms", crate::measure::median(&build_ms), "ms");
    push(&mut out, "fabric.channels", channels as f64, "count");

    // routes: table construction, first (interning) and repeat lookups.
    let mut table_ms = Vec::new();
    let (mut intern_ns, mut lookup_ns, mut pairs_total) = (0.0, 0.0, 0usize);
    for backend in &backends {
        for _ in 0..BUILD_REPS {
            let start = Instant::now();
            let _span = tr.span("routes.table_build");
            black_box(RouteTable::build(backend).map_err(|e| e.to_string())?);
            table_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let n = backend.total_nodes();
        let mut pairs: Vec<(usize, usize)> = (0..20_000)
            .map(|_| {
                let src = rng.gen_range(0..n);
                (src, (src + 1 + rng.gen_range(0..n - 1)) % n)
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut table = RouteTable::build(backend).map_err(|e| e.to_string())?;
        for (name, acc) in [("routes.intern", &mut intern_ns), ("routes.lookup", &mut lookup_ns)] {
            let start = Instant::now();
            for &(s, d) in &pairs {
                black_box(table.entry(backend, s, d));
            }
            tr.record(name, start, Instant::now());
            *acc += start.elapsed().as_secs_f64() * 1e9;
        }
        pairs_total += pairs.len();
    }
    push(&mut out, "routes.table_build_ms", crate::measure::median(&table_ms), "ms");
    push(&mut out, "routes.intern_ns", intern_ns / pairs_total as f64, "ns");
    push(&mut out, "routes.lookup_ns", lookup_ns / pairs_total as f64, "ns");

    // topology: NCA routing on the largest cluster tree, adaptive hop
    // enumeration on the torus (fallbacks where the workload has none).
    let fallback;
    let tree_backend = match backends.iter().find(|b| b.as_tree().is_some()) {
        Some(b) => b,
        None => {
            fallback = FabricBackend::tree(&organizations::table1_org_b(), &first.traffic)
                .map_err(|e| e.to_string())?;
            &fallback
        }
    };
    let fabric = tree_backend.as_tree().expect("a tree backend");
    let tree = (0..fabric.system().num_clusters())
        .map(|c| fabric.icn1(c).tree())
        .max_by_key(|t| t.num_nodes())
        .expect("a tree has clusters");
    let router = NcaRouter::new(tree);
    let mut route = Vec::new();
    let n = tree.num_nodes() as u32;
    let nca = timed_loop(tr, "topology.nca_route", OPS, |_| {
        let src = rng.gen_range(0..n);
        let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
        route.clear();
        black_box(router.route_into(NodeId(src), NodeId(dst), &mut route)).ok();
    });
    push(&mut out, "topology.nca_route_ns", nca, "ns");
    let torus = targets
        .iter()
        .find_map(|t| match &t.fabric {
            Fabric::Torus(torus) => Some(torus.clone()),
            Fabric::Tree(_) => None,
        })
        .map_or_else(|| TorusSystem::new(16, 2), Ok)
        .map_err(|e| e.to_string())?;
    let cube = KaryNCube::new(torus.radix(), torus.dimensions()).map_err(|e| e.to_string())?;
    let mut hops = Vec::new();
    let n = cube.num_nodes() as u32;
    let adaptive = timed_loop(tr, "topology.adaptive_hops", OPS, |_| {
        let cur = rng.gen_range(0..n);
        let dst = (cur + 1 + rng.gen_range(0..n - 1)) % n;
        hops.clear();
        black_box(cube.adaptive_hops(NodeId(cur), NodeId(dst), &mut hops)).ok();
    });
    push(&mut out, "topology.adaptive_hops_ns", adaptive, "ns");

    // event: the calendar queue's hold model at fixed pending depths, with
    // gaps of one to M flit times.
    let backend = &backends[0];
    let flit = backend.flit_time(0);
    let flits = first.traffic.message_flits as f64;
    for (depth, metric) in [(32, "event.hold_ns.d32"), (1024, "event.hold_ns.d1024")] {
        let mut queue = EventQueue::new();
        let gap = |rng: &mut SmallRng| flit * (1.0 + (rng.gen::<f64>() * flits).floor());
        for c in 0..depth {
            queue.schedule_at(gap(&mut rng), EventKind::ChannelFree { channel: c });
        }
        let mut hold = |rng: &mut SmallRng| {
            let e = queue.pop().expect("the hold model keeps its depth");
            queue.schedule_at(e.time + gap(rng), e.kind);
        };
        for _ in 0..OPS / 10 {
            hold(&mut rng);
        }
        let ns = timed_loop(tr, "event.hold", OPS, |_| hold(&mut rng));
        push(&mut out, metric, ns, "ns");
    }

    // arrivals: re-arming the earliest node of the per-node arrival heap.
    let nodes = backend.total_nodes();
    let rate = first.traffic.generation_rate;
    let mut arrivals = ArrivalQueue::with_capacity(nodes);
    let exp = |rng: &mut SmallRng| -(1.0 - rng.gen::<f64>()).ln() / rate;
    for node in 0..nodes {
        arrivals.push(exp(&mut rng), node as u32);
    }
    let replace = timed_loop(tr, "arrivals.replace_min", OPS, |_| {
        let (t, _) = arrivals.peek().expect("every node stays armed");
        arrivals.replace_min(t + exp(&mut rng));
    });
    push(&mut out, "arrivals.replace_min_ns", replace, "ns");

    // channels: an uncontended acquire followed by its release.
    let mut pool = backend.channel_pool();
    let len = pool.len();
    let mut now = 0.0;
    let mut refused = 0usize;
    let acquire = timed_loop(tr, "channels.acquire_release", OPS, |i| {
        let ch = ((i * 7919) % len) as u32;
        if pool.acquire(ch, 1, now) == Acquire::Granted {
            black_box(pool.mark_released(ch, 1, now + 0.5 * flit));
        } else {
            refused += 1;
        }
        now += flit;
    });
    if refused > 0 {
        return Err(format!("channel probe: {refused} uncontended acquisitions were refused"));
    }
    push(&mut out, "channels.acquire_release_ns", acquire, "ns");

    // traffic_source: next-arrival draws of the Poisson and ON-OFF sources.
    for (spec, metric) in [
        (TrafficSourceSpec::Poisson, "traffic_source.next_arrival_ns.poisson"),
        (
            TrafficSourceSpec::OnOff { duty: 0.5, mean_on: None },
            "traffic_source.next_arrival_ns.on_off",
        ),
    ] {
        let mut source =
            spec.build(&first.traffic, nodes, first.ranges()).map_err(|e| e.to_string())?;
        let mut prev = vec![0.0; nodes];
        let ns = timed_loop(tr, "traffic_source.next_arrival", OPS, |i| {
            let node = i % nodes;
            if let Some(t) = source.next_arrival(&mut rng, node, prev[node]) {
                prev[node] = t;
            }
        });
        push(&mut out, metric, ns, "ns");
    }

    // fault: resolving a down/up plan against the fabric.
    let target = match backend.as_cube() {
        Some(_) => FaultTarget::TorusLink { node: 0, dim: 0, dir: RingDir::Plus },
        None => FaultTarget::Bridge { cluster: 0, unit: BridgeUnit::Concentrator },
    };
    let plan = FaultPlan::new(vec![
        FaultEvent { at: 1.0, target, action: FaultAction::Down },
        FaultEvent { at: 2.0, target, action: FaultAction::Up },
    ]);
    {
        let _span = tr.span("fault.resolve");
        black_box(plan.resolve(backend).map_err(|e| e.to_string())?);
    }

    // model: saturation search, batched and pointwise evaluation.
    let (mut batch_ns, mut batch_points) = (0.0, 0usize);
    for t in targets.iter().take(4) {
        let (model, options) = t.model();
        let saturation = {
            let _span = tr.span("model.saturation_search");
            model.find_saturation_rate(&t.traffic, options, 0.01).map_err(|e| e.to_string())?
        };
        let rates: Vec<f64> = (1..=16).map(|i| saturation * 0.05 * i as f64).collect();
        for _ in 0..BUILD_REPS {
            let start = Instant::now();
            let _span = tr.span("model.evaluate_batch");
            black_box(
                model.evaluate_batch(&t.traffic, &rates, options).map_err(|e| e.to_string())?,
            );
            batch_ns += start.elapsed().as_secs_f64() * 1e9;
            batch_points += rates.len();
        }
        for &rate in &rates {
            let traffic = t.traffic.with_rate(rate).map_err(|e| e.to_string())?;
            let _span = tr.span("model.evaluate");
            let _ = black_box(model.evaluate(&traffic, options));
        }
    }
    push(&mut out, "model.batch_us_per_point", batch_ns / 1e3 / batch_points as f64, "us");

    // scenario: rendering a run report as JSON.
    let report = Scenario::builder()
        .fabric(first.fabric.clone())
        .traffic(first.traffic)
        .routing(first.routing)
        .config(SimConfig::quick(seed))
        .build()
        .and_then(|s| s.run())
        .map_err(|e| e.to_string())?;
    for _ in 0..20 {
        let _span = tr.span("scenario.report_json");
        black_box(sim_report_json(&report));
    }
    Ok(out)
}
