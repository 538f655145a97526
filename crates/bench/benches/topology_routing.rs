//! Substrate bench: m-port n-tree construction and NCA route computation throughput
//! for the tree sizes that appear in the paper's organizations, plus the k-ary n-cube
//! baseline topology of the prior-art models, and the per-message walkers of the
//! adaptive routing policies (torus candidate hops, randomized up*/down* paths).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_topology
}
criterion_main!(benches);
