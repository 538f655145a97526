//! Equivalence of the allocation-free route walkers with reference walkers
//! built on the public decoding APIs.
//!
//! The torus walkers (`distance`, `adaptive_hops`, `route_into`) read digits
//! off node indices by `%`/`/`; the references here decode every node with
//! `coordinates()` and re-encode with `node_at()`, the formulation the walkers
//! replaced. The tree walkers decode node and switch words onto the stack;
//! the references decode with `node_address()` and follow the explicit channel
//! graph from switch to switch, so the word arithmetic is checked against the
//! wiring itself. Every tree walk must also be a minimal up*/down* path.
//! Out-of-range inputs must keep failing with the same error variants.

use mcnet_topology::graph::ChannelId;
use mcnet_topology::ids::Endpoint;
use mcnet_topology::kary_ncube::CubeHop;
use mcnet_topology::routing::NcaRouter;
use mcnet_topology::tree::NodeAddress;
use mcnet_topology::{KaryNCube, MPortNTree, NodeId, SwitchId, TopologyError};

const CUBES: [(usize, usize); 5] = [(2, 4), (3, 3), (4, 2), (5, 2), (16, 2)];
const TREES: [(usize, usize); 3] = [(4, 3), (8, 2), (8, 1)];

/// Shorter way around a ring from digit `x` to `y`: `(direction, hops)`,
/// ties broken forward.
fn reference_way(k: usize, x: usize, y: usize) -> (i8, usize) {
    let forward = (y + k - x) % k;
    if forward <= k - forward {
        (1, forward)
    } else {
        (-1, k - forward)
    }
}

fn reference_step(k: usize, digit: usize, direction: i8) -> usize {
    if direction == 1 {
        (digit + 1) % k
    } else {
        (digit + k - 1) % k
    }
}

fn reference_distance(cube: &KaryNCube, a: NodeId, b: NodeId) -> usize {
    let (ca, cb) = (cube.coordinates(a).unwrap(), cube.coordinates(b).unwrap());
    ca.iter().zip(&cb).map(|(&x, &y)| reference_way(cube.radix(), x, y).1).sum()
}

fn reference_route(cube: &KaryNCube, src: NodeId, dst: NodeId) -> Vec<CubeHop> {
    let mut current = cube.coordinates(src).unwrap();
    let target = cube.coordinates(dst).unwrap();
    let mut hops = Vec::new();
    for dimension in 0..cube.dimensions() {
        while current[dimension] != target[dimension] {
            let (direction, _) = reference_way(cube.radix(), current[dimension], target[dimension]);
            current[dimension] = reference_step(cube.radix(), current[dimension], direction);
            hops.push(CubeHop { dimension, direction, node: cube.node_at(&current).unwrap() });
        }
    }
    hops
}

fn reference_adaptive_hops(cube: &KaryNCube, current: NodeId, dst: NodeId) -> Vec<CubeHop> {
    let cur = cube.coordinates(current).unwrap();
    let target = cube.coordinates(dst).unwrap();
    let mut hops = Vec::new();
    for dimension in 0..cube.dimensions() {
        if cur[dimension] != target[dimension] {
            let (direction, _) = reference_way(cube.radix(), cur[dimension], target[dimension]);
            let mut next = cur.clone();
            next[dimension] = reference_step(cube.radix(), cur[dimension], direction);
            hops.push(CubeHop { dimension, direction, node: cube.node_at(&next).unwrap() });
        }
    }
    hops
}

#[test]
fn torus_walkers_match_the_coordinate_reference_on_all_pairs() {
    for (k, n) in CUBES {
        let cube = KaryNCube::new(k, n).unwrap();
        let mut hops = Vec::new();
        for a in cube.nodes() {
            for b in cube.nodes() {
                assert_eq!(
                    cube.distance(a, b).unwrap(),
                    reference_distance(&cube, a, b),
                    "({k},{n}) distance {a:?}->{b:?}"
                );
                hops.clear();
                cube.adaptive_hops(a, b, &mut hops).unwrap();
                assert_eq!(hops, reference_adaptive_hops(&cube, a, b), "({k},{n}) {a:?}->{b:?}");
                if a == b {
                    continue;
                }
                let route = reference_route(&cube, a, b);
                hops.clear();
                cube.route_into(a, b, &mut hops).unwrap();
                assert_eq!(hops, route, "({k},{n}) route {a:?}->{b:?}");
                assert_eq!(cube.route(a, b).unwrap(), route);
            }
        }
    }
}

#[test]
fn torus_half_ring_ties_break_forward() {
    // Digit distance k/2 is equally short both ways: every walker goes +1.
    for (k, n) in [(4usize, 1usize), (16, 2)] {
        let cube = KaryNCube::new(k, n).unwrap();
        let half = NodeId::from_index(k / 2);
        let route = cube.route(NodeId(0), half).unwrap();
        assert_eq!(route.len(), k / 2);
        assert!(route.iter().all(|h| h.dimension == 0 && h.direction == 1), "({k},{n})");
        let mut hops = Vec::new();
        cube.adaptive_hops(NodeId(0), half, &mut hops).unwrap();
        assert_eq!(hops, vec![route[0]]);
        assert_eq!(route[0].node, NodeId(1));
    }
}

#[test]
fn torus_walkers_keep_their_error_variants() {
    let cube = KaryNCube::new(4, 2).unwrap();
    let bad = NodeId::from_index(cube.num_nodes());
    let out_of_range = TopologyError::NodeOutOfRange { node: bad, num_nodes: 16 };
    let mut hops = Vec::new();
    assert_eq!(cube.distance(bad, NodeId(0)), Err(out_of_range.clone()));
    assert_eq!(cube.distance(NodeId(0), bad), Err(out_of_range.clone()));
    assert_eq!(cube.adaptive_hops(bad, NodeId(0), &mut hops), Err(out_of_range.clone()));
    assert_eq!(cube.adaptive_hops(NodeId(0), bad, &mut hops), Err(out_of_range.clone()));
    assert_eq!(cube.route_into(bad, NodeId(0), &mut hops), Err(out_of_range.clone()));
    assert_eq!(cube.route_into(NodeId(0), bad, &mut hops), Err(out_of_range.clone()));
    assert_eq!(cube.dateline_vcs(bad, &[]), Err(out_of_range));
    // Self-routing is reported before the range check, as before.
    assert_eq!(cube.route_into(bad, bad, &mut hops), Err(TopologyError::SelfRouting { node: bad }));
    assert!(hops.is_empty(), "failed walks append nothing");
}

/// A fixed, seed-free pick sequence: a small LCG over the offered arity.
fn fixed_picks() -> impl FnMut(usize) -> usize {
    let mut state = 0x2545_f491u32;
    move |k| {
        state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        (state >> 16) as usize % k
    }
}

fn next_switch(tree: &MPortNTree, ch: ChannelId) -> SwitchId {
    tree.graph().channel(ch).to.switch().expect("an inner hop ends at a switch")
}

/// Ascends `levels` up-links from `src`, taking each up port from `pick`,
/// by following the channel graph.
fn reference_ascent(
    tree: &MPortNTree,
    src: NodeId,
    levels: usize,
    pick: &mut dyn FnMut(usize) -> usize,
    channels: &mut Vec<ChannelId>,
    switches: &mut Vec<SwitchId>,
) -> SwitchId {
    channels.push(tree.injection_channel(src).unwrap());
    let mut current = tree.leaf_switch_of(src).unwrap();
    switches.push(current);
    for _ in 0..levels {
        let ch = tree.up_channel(current, pick(tree.arity())).unwrap();
        channels.push(ch);
        current = next_switch(tree, ch);
        switches.push(current);
    }
    current
}

/// Descends from `from` to `dst` by the destination's digits, following the
/// channel graph.
fn reference_descent(
    tree: &MPortNTree,
    from: SwitchId,
    dst: &NodeAddress,
    channels: &mut Vec<ChannelId>,
    switches: &mut Vec<SwitchId>,
) {
    let (n, k) = (tree.levels(), tree.arity());
    let mut current = from;
    let root_port = |digit: u8| dst.half as usize * k + digit as usize;
    for level in (1..=tree.switch_level(from).unwrap().index()).rev() {
        let digit = dst.digits[level];
        let port = if level == n - 1 { root_port(digit) } else { digit as usize };
        let ch = tree.down_channel(current, port).unwrap();
        channels.push(ch);
        current = next_switch(tree, ch);
        switches.push(current);
    }
    let port = if n == 1 { root_port(dst.digits[0]) } else { dst.digits[0] as usize };
    channels.push(tree.down_channel(current, port).unwrap());
}

/// Every switch reachable from `from` over up-channels alone, `from`
/// included, as a membership mask indexed by switch.
fn up_reachable(tree: &MPortNTree, from: SwitchId) -> Vec<bool> {
    let mut seen = vec![false; tree.num_switches()];
    let mut stack = vec![from];
    while let Some(switch) = stack.pop() {
        if std::mem::replace(&mut seen[switch.index()], true) {
            continue;
        }
        stack.extend(
            (0..tree.arity())
                .filter_map(|u| tree.up_channel(switch, u))
                .map(|ch| next_switch(tree, ch)),
        );
    }
    seen
}

/// Checks that `switches` is a minimal up*/down* path of `j` hops: levels
/// strictly rise and then strictly fall, with `j − 1` up-links and `j − 1`
/// down-links, turning at the lowest level where the up-reachable switch sets
/// of the two leaf switches meet.
fn assert_minimal_updown(tree: &MPortNTree, switches: &[SwitchId], j: usize, reach: &[Vec<bool>]) {
    let level = |sw: SwitchId| tree.switch_level(sw).unwrap().index();
    let levels: Vec<usize> = switches.iter().map(|&sw| level(sw)).collect();
    let ups = levels.windows(2).take_while(|w| w[1] > w[0]).count();
    let downs = levels[ups..].windows(2).take_while(|w| w[1] < w[0]).count();
    assert_eq!(ups + downs + 1, levels.len(), "levels {levels:?} go up after going down");
    assert_eq!((ups, downs), (j - 1, j - 1), "levels {levels:?} for {j} hops");
    let (from, to) = (&reach[switches[0].index()], &reach[switches[levels.len() - 1].index()]);
    let meet = tree.switches().filter(|sw| from[sw.index()] && to[sw.index()]).map(level).min();
    assert_eq!(Some(levels[ups]), meet, "levels {levels:?} turn above the lowest meeting level");
}

#[test]
fn tree_walkers_match_the_graph_reference() {
    for (m, n) in TREES {
        let tree = MPortNTree::new(m, n).unwrap();
        let router = NcaRouter::new(&tree);
        let reach: Vec<Vec<bool>> = tree.switches().map(|sw| up_reachable(&tree, sw)).collect();
        let mut picks = fixed_picks();
        let mut reference_picks = fixed_picks();
        let (mut channels, mut switches) = (Vec::new(), Vec::new());
        let (mut want_channels, mut want_switches) = (Vec::new(), Vec::new());
        for src in tree.nodes() {
            for dst in tree.nodes().filter(|&d| d != src) {
                let dst_addr = tree.node_address(dst).unwrap();
                let j = tree.hop_count(src, dst).unwrap();

                // The digit rule as a pick sequence reproduces `route`.
                let mut digits = dst_addr.digits.iter().map(|&d| d as usize);
                channels.clear();
                switches.clear();
                router
                    .route_into_with_choices(
                        src,
                        dst,
                        &mut channels,
                        &mut |sw| switches.push(sw),
                        &mut |_| digits.next().unwrap(),
                    )
                    .unwrap();
                let path = router.route(src, dst).unwrap();
                assert_eq!((&channels, &switches), (&path.channels, &path.switches));
                assert_minimal_updown(&tree, &switches, j, &reach);

                // A fixed pick sequence matches the graph walk.
                channels.clear();
                switches.clear();
                router
                    .route_into_with_choices(
                        src,
                        dst,
                        &mut channels,
                        &mut |sw| switches.push(sw),
                        &mut picks,
                    )
                    .unwrap();
                want_channels.clear();
                want_switches.clear();
                let nca = reference_ascent(
                    &tree,
                    src,
                    j - 1,
                    &mut reference_picks,
                    &mut want_channels,
                    &mut want_switches,
                );
                reference_descent(&tree, nca, &dst_addr, &mut want_channels, &mut want_switches);
                assert_eq!(channels, want_channels, "({m},{n}) {src:?}->{dst:?}");
                assert_eq!(switches, want_switches, "({m},{n}) {src:?}->{dst:?}");
                assert_minimal_updown(&tree, &switches, j, &reach);
                assert_eq!(tree.graph().channel(*channels.last().unwrap()).to, Endpoint::Node(dst));
            }
        }
    }
}

#[test]
fn tree_partial_walkers_match_the_path_api_and_graph_reference() {
    for (m, n) in TREES {
        let tree = MPortNTree::new(m, n).unwrap();
        let router = NcaRouter::new(&tree);
        let mut picks = fixed_picks();
        let mut reference_picks = fixed_picks();
        let mut buf = Vec::new();
        let (mut want, mut want_switches) = (Vec::new(), Vec::new());
        for src in tree.nodes() {
            // Source digits as picks reproduce the deterministic ascent.
            let ascent = router.route_to_root(src).unwrap();
            let src_addr = tree.node_address(src).unwrap();
            let mut digits = src_addr.digits.iter().map(|&d| d as usize);
            buf.clear();
            let root = router
                .ascent_into_with_choices(src, &mut buf, &mut |_| digits.next().unwrap())
                .unwrap();
            assert_eq!(buf, ascent.channels);
            assert_eq!(Some(&root), ascent.switches.last());

            // A fixed pick sequence matches the graph walk.
            buf.clear();
            let root = router.ascent_into_with_choices(src, &mut buf, &mut picks).unwrap();
            want.clear();
            want_switches.clear();
            let want_root = reference_ascent(
                &tree,
                src,
                n - 1,
                &mut reference_picks,
                &mut want,
                &mut want_switches,
            );
            assert_eq!((root, &buf), (want_root, &want), "({m},{n}) ascent from {src:?}");
            assert!(tree.is_root(root));
        }
        for root in tree.roots() {
            for dst in tree.nodes() {
                let path = router.route_from_root(root, dst).unwrap();
                buf.clear();
                router.descent_into(root, dst, &mut buf).unwrap();
                assert_eq!(buf, path.channels);
                want.clear();
                want_switches.clear();
                want_switches.push(root);
                let dst_addr = tree.node_address(dst).unwrap();
                reference_descent(&tree, root, &dst_addr, &mut want, &mut want_switches);
                assert_eq!(path.channels, want, "({m},{n}) {root:?}->{dst:?}");
                assert_eq!(path.switches, want_switches, "({m},{n}) {root:?}->{dst:?}");
            }
        }
    }
}

#[test]
fn tree_walkers_keep_their_error_variants() {
    let tree = MPortNTree::new(4, 3).unwrap();
    let router = NcaRouter::new(&tree);
    let num_nodes = tree.num_nodes();
    let bad = NodeId::from_index(num_nodes);
    let node_err = TopologyError::NodeOutOfRange { node: bad, num_nodes };
    let mut buf = Vec::new();
    let mut pick = |_| 0;
    assert_eq!(router.route_into(bad, NodeId(0), &mut buf), Err(node_err.clone()));
    assert_eq!(router.route_into(NodeId(0), bad, &mut buf), Err(node_err.clone()));
    assert_eq!(router.route_into(bad, bad, &mut buf), Err(node_err.clone()));
    assert_eq!(
        router.route_into_with_choices(NodeId(0), bad, &mut buf, &mut |_| {}, &mut pick),
        Err(node_err.clone())
    );
    assert_eq!(
        router.route(NodeId(1), NodeId(1)),
        Err(TopologyError::SelfRouting { node: NodeId(1) })
    );
    assert_eq!(router.ascent_into(bad, &mut buf), Err(node_err.clone()));
    assert_eq!(router.ascent_into_with_choices(bad, &mut buf, &mut pick), Err(node_err.clone()));
    assert_eq!(router.route_to_root(bad), Err(node_err.clone()));
    let root = SwitchId(0);
    assert_eq!(router.descent_into(root, bad, &mut buf), Err(node_err.clone()));
    assert_eq!(router.route_from_root(root, bad), Err(node_err));

    // A non-root switch and an out-of-range switch both fail the root check.
    let num_switches = tree.num_roots();
    for switch in
        [SwitchId::from_index(tree.num_switches() - 1), SwitchId::from_index(tree.num_switches())]
    {
        let switch_err = TopologyError::SwitchOutOfRange { switch, num_switches };
        assert_eq!(router.descent_into(switch, NodeId(0), &mut buf), Err(switch_err.clone()));
        assert_eq!(router.route_from_root(switch, NodeId(0)), Err(switch_err));
    }
    assert!(buf.is_empty(), "failed walks append nothing");
}
