//! Substrate bench: m-port n-tree construction and NCA route computation throughput
//! for the tree sizes that appear in the paper's organizations, plus the k-ary n-cube
//! baseline topology of the prior-art models, the per-message walkers of the
//! adaptive routing policies (torus candidate hops, randomized up*/down* paths), and
//! the simulator's per-message route composition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcnet_sim::routes::RouteTable;
use mcnet_sim::FabricBackend;
use mcnet_system::{organizations, TorusSystem, TrafficConfig};
use mcnet_topology::kary_ncube::KaryNCube;
use mcnet_topology::routing::NcaRouter;
use mcnet_topology::{MPortNTree, NodeId};

fn bench_topology(c: &mut Criterion) {
    let mut build = c.benchmark_group("tree_construction");
    for &(m, n) in &[(8usize, 2usize), (8, 3), (4, 5)] {
        build.bench_with_input(
            BenchmarkId::new("m_port_n_tree", format!("m{m}_n{n}")),
            &(m, n),
            |b, &(m, n)| {
                b.iter(|| std::hint::black_box(MPortNTree::new(m, n).unwrap().num_switches()))
            },
        );
    }
    build.finish();

    let mut routing = c.benchmark_group("route_computation");
    for &(m, n) in &[(8usize, 3usize), (4, 5)] {
        let tree = MPortNTree::new(m, n).unwrap();
        let router = NcaRouter::new(&tree);
        let nodes = tree.num_nodes() as u32;
        routing.bench_with_input(
            BenchmarkId::new("nca_all_from_node0", format!("m{m}_n{n}")),
            &router,
            |b, router| {
                b.iter(|| {
                    let mut links = 0usize;
                    for dst in 1..nodes {
                        links += router.route(NodeId(0), NodeId(dst)).unwrap().num_links();
                    }
                    std::hint::black_box(links)
                })
            },
        );
    }
    let cube = KaryNCube::new(4, 3).unwrap();
    routing.bench_function("kary_ncube_all_from_node0", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for dst in 1..cube.num_nodes() as u32 {
                hops += cube.route(NodeId(0), NodeId(dst)).unwrap().len();
            }
            std::hint::black_box(hops)
        })
    });
    // The per-message walkers of the adaptive policies: Duato-style candidate
    // hops on the torus and a randomized up*/down* path on the tree, both into
    // reused buffers (allocation-free, so these time the digit arithmetic).
    let mut candidates = Vec::new();
    routing.bench_function("kary_ncube_adaptive_hops_all_from_node0", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for dst in 1..cube.num_nodes() as u32 {
                candidates.clear();
                cube.adaptive_hops(NodeId(0), NodeId(dst), &mut candidates).unwrap();
                hops += candidates.len();
            }
            std::hint::black_box(hops)
        })
    });
    let tree = MPortNTree::new(8, 3).unwrap();
    let router = NcaRouter::new(&tree);
    let mut channels = Vec::new();
    let mut state = 0x9e37_79b9u32;
    routing.bench_function("nca_random_path_m8_n3", |b| {
        b.iter(|| {
            let mut links = 0usize;
            for dst in 1..tree.num_nodes() as u32 {
                channels.clear();
                router
                    .route_into_with_choices(
                        NodeId(0),
                        NodeId(dst),
                        &mut channels,
                        &mut |_| {},
                        &mut |k| {
                            state ^= state << 13;
                            state ^= state >> 17;
                            state ^= state << 5;
                            state as usize % k
                        },
                    )
                    .unwrap();
                links += channels.len();
            }
            std::hint::black_box(links)
        })
    });
    routing.finish();
}

/// 4,096 distinct-endpoint pairs of a backend, drawn by xorshift and kept when
/// `keep(src_cluster, dst_cluster)` holds.
fn sample_pairs(backend: &FabricBackend, keep: fn(u32, u32) -> bool) -> Vec<(usize, usize)> {
    let n = backend.total_nodes() as u64;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n) as usize
    };
    let mut pairs = Vec::with_capacity(4096);
    while pairs.len() < 4096 {
        let (src, dst) = (draw(), draw());
        if src == dst {
            continue;
        }
        let path = backend.build_path(src, dst).unwrap();
        if keep(path.src_cluster, path.dst_cluster) {
            pairs.push((src, dst));
        }
    }
    pairs
}

/// Per-message route composition as the engine runs it: each iteration
/// composes one route into a recycled region of the route arena and releases
/// it, so the time per iteration is the cost per generated message.
fn bench_route_composition(c: &mut Criterion) {
    let traffic = TrafficConfig::uniform(32, 256.0, 1e-4).unwrap();
    let org_b = FabricBackend::tree(&organizations::table1_org_b(), &traffic).unwrap();
    let torus = FabricBackend::cube(&TorusSystem::new(16, 2).unwrap(), &traffic).unwrap();
    let cases = [
        ("org_b_inter", &org_b, sample_pairs(&org_b, |s, d| s != d)),
        ("org_b_intra", &org_b, sample_pairs(&org_b, |s, d| s == d)),
        ("torus_16ary_2cube", &torus, sample_pairs(&torus, |_, _| true)),
    ];
    let mut group = c.benchmark_group("route_composition");
    for (name, backend, pairs) in cases {
        let mut table = RouteTable::build(backend).unwrap();
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                let (src, dst) = pairs[next % pairs.len()];
                next += 1;
                let entry = table.entry(backend, src, dst);
                table.release_scratch(entry.route);
                std::hint::black_box(entry.bottleneck)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_topology, bench_route_composition
}
criterion_main!(benches);
