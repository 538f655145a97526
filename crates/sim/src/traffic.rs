//! Message generation: Poisson arrivals and destination selection.
//!
//! Paper assumptions 1–2: each node generates messages according to an independent
//! Poisson process with rate `λ_g`, and destinations are uniformly distributed over all
//! other nodes. The hot-spot and cluster-local patterns are provided for the simulator
//! only (the paper lists non-uniform traffic as future work).

use crate::{Result, SimError};
use mcnet_system::{MultiClusterSystem, TrafficConfig, TrafficPattern};
use rand::Rng;

/// The paper's stationary Poisson source: exponential inter-arrival times and
/// a static destination mix. This is the default (and historically the only)
/// implementation of [`crate::traffic_source::TrafficSource`]; the bursty and
/// trace-driven sources in that module wrap or replace it.
#[derive(Debug, Clone)]
pub struct Poisson {
    generation_rate: f64,
    pattern: TrafficPattern,
    total_nodes: usize,
    /// Exclusive prefix sums of cluster node counts (tree) or sub-ring
    /// neighborhood ranges (torus), used by the local-favouring pattern to
    /// sample within / outside the source's partition.
    cluster_ranges: Vec<(usize, usize)>,
}

impl Poisson {
    /// Creates a source for the given multi-cluster system and traffic
    /// configuration.
    pub fn new(system: &MultiClusterSystem, traffic: &TrafficConfig) -> Result<Self> {
        Self::from_parts(traffic, system.total_nodes(), Self::cluster_ranges_of(system))
    }

    /// The contiguous cluster partition of a multi-cluster tree system, in the
    /// `(start, end)` form the sources consume.
    pub(crate) fn cluster_ranges_of(system: &MultiClusterSystem) -> Vec<(usize, usize)> {
        (0..system.num_clusters())
            .map(|c| {
                let r = system.node_range(c).expect("cluster index in range");
                (r.start, r.end)
            })
            .collect()
    }

    /// Shared constructor over an arbitrary contiguous node partition.
    pub(crate) fn from_parts(
        traffic: &TrafficConfig,
        total_nodes: usize,
        cluster_ranges: Vec<(usize, usize)>,
    ) -> Result<Self> {
        Self::check(traffic, total_nodes)?;
        Ok(Poisson {
            generation_rate: traffic.generation_rate,
            pattern: traffic.pattern,
            total_nodes,
            cluster_ranges,
        })
    }

    /// Validates a traffic configuration against a node count.
    fn check(traffic: &TrafficConfig, total_nodes: usize) -> Result<()> {
        traffic.validate().map_err(SimError::from)?;
        if traffic.generation_rate <= 0.0 {
            return Err(SimError::InvalidConfiguration {
                reason: "simulation requires a positive generation rate".into(),
            });
        }
        if let TrafficPattern::Hotspot { hotspot, .. } = traffic.pattern {
            if hotspot >= total_nodes {
                return Err(SimError::InvalidConfiguration {
                    reason: format!("hotspot node {hotspot} outside the system"),
                });
            }
        }
        Ok(())
    }

    /// Re-validates and adopts a new traffic configuration over the same node
    /// partition: the rate and pattern may change between runs, the topology
    /// (and therefore the partition ranges) may not. Used by the engine's run
    /// reuse so campaign cells never rebuild their source.
    pub fn rebind(&mut self, traffic: &TrafficConfig) -> Result<()> {
        Self::check(traffic, self.total_nodes)?;
        self.generation_rate = traffic.generation_rate;
        self.pattern = traffic.pattern;
        Ok(())
    }

    /// The per-node generation rate.
    pub fn generation_rate(&self) -> f64 {
        self.generation_rate
    }

    /// Samples the exponential inter-arrival time of one node's Poisson process.
    ///
    /// The uniform draw is guarded away from the `u = 0` endpoint: `gen::<f64>()`
    /// returns values in `[0, 1)`, and `−ln(1 − 0)/λ = 0` would produce a zero
    /// inter-arrival time — two messages generated at the same instant at the
    /// same node, creating event ties the queue has to break arbitrarily. The
    /// guard clamps the `ln` argument to the largest double below 1, so the
    /// result is always strictly positive.
    pub fn sample_interarrival<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>();
        // 1 − u ∈ (0, 1]; exclude 1 itself (drawn iff u == 0) to keep ln < 0.
        let v = (1.0 - u).min(1.0 - f64::EPSILON / 2.0);
        -v.ln() / self.generation_rate
    }

    /// Samples a destination for a message generated at global node `src`.
    pub fn sample_destination<R: Rng + ?Sized>(&self, rng: &mut R, src: usize) -> usize {
        match self.pattern {
            TrafficPattern::Uniform => self.uniform_other(rng, src),
            TrafficPattern::Hotspot { hotspot, fraction } => {
                // The fraction coin is drawn unconditionally so the RNG stream
                // does not depend on whether the source happens to be the
                // hot-spot node — runs stay comparable across patterns and
                // hot-spot placements.
                let coin = rng.gen::<f64>();
                if hotspot != src && coin < fraction {
                    hotspot
                } else {
                    self.uniform_other(rng, src)
                }
            }
            TrafficPattern::LocalFavoring { locality } => {
                let (start, end) = self.cluster_of(src);
                let cluster_size = end - start;
                // A cluster of one node cannot keep traffic local.
                if cluster_size > 1 && rng.gen::<f64>() < locality {
                    // Uniform within the cluster, excluding the source.
                    let mut d = rng.gen_range(start..end - 1);
                    if d >= src {
                        d += 1;
                    }
                    d
                } else if self.total_nodes > cluster_size {
                    // Uniform over all nodes outside the source cluster.
                    let outside = self.total_nodes - cluster_size;
                    let mut idx = rng.gen_range(0..outside);
                    if idx >= start {
                        idx += cluster_size;
                    }
                    idx
                } else {
                    self.uniform_other(rng, src)
                }
            }
        }
    }

    fn uniform_other<R: Rng + ?Sized>(&self, rng: &mut R, src: usize) -> usize {
        let mut d = rng.gen_range(0..self.total_nodes - 1);
        if d >= src {
            d += 1;
        }
        d
    }

    /// The partition range a node belongs to. Binary search: the ranges are
    /// sorted and contiguous, and the torus mapping grows their count to
    /// `k^(n-1)` sub-rings — a linear scan here would sit on the per-message
    /// sampling path.
    fn cluster_of(&self, node: usize) -> (usize, usize) {
        let idx = self.cluster_ranges.partition_point(|&(_, e)| e <= node);
        let range = self.cluster_ranges[idx];
        debug_assert!(node >= range.0 && node < range.1, "node belongs to some cluster");
        range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::organizations;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn source(pattern: TrafficPattern) -> (MultiClusterSystem, Poisson) {
        let system = organizations::small_test_org();
        let traffic =
            TrafficConfig::uniform(32, 256.0, 1e-3).unwrap().with_pattern(pattern).unwrap();
        let src = Poisson::new(&system, &traffic).unwrap();
        (system, src)
    }

    /// An adversarial generator whose `f64` draws are exactly 0.0 — the endpoint
    /// that used to produce zero inter-arrival times.
    struct ZeroRng;

    impl rand::Rng for ZeroRng {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn interarrival_is_strictly_positive_even_for_a_zero_draw() {
        let (_, src) = source(TrafficPattern::Uniform);
        let mut rng = ZeroRng;
        assert_eq!(rng.gen::<f64>(), 0.0, "the shim must expose the hazardous endpoint");
        let dt = src.sample_interarrival(&mut rng);
        assert!(dt > 0.0, "zero inter-arrival time would tie generation events: {dt}");
        assert!(dt.is_finite());
    }

    #[test]
    fn hotspot_coin_is_consumed_regardless_of_source() {
        // The fraction coin must be drawn even when the source *is* the hot-spot
        // node, so the RNG stream (and therefore the rest of the run) does not
        // depend on which node generates. Pinned with a fixed seed: sampling at
        // the hot-spot equals uniform sampling after manually burning one coin.
        let hotspot = 3usize;
        let (_, hotspot_src) = source(TrafficPattern::Hotspot { hotspot, fraction: 0.5 });
        let (_, uniform_src) = source(TrafficPattern::Uniform);
        for seed in 0..32 {
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let d_hot = hotspot_src.sample_destination(&mut rng_a, hotspot);

            let mut rng_b = SmallRng::seed_from_u64(seed);
            let _coin: f64 = rng_b.gen();
            let d_uniform = uniform_src.sample_destination(&mut rng_b, hotspot);

            assert_eq!(d_hot, d_uniform, "seed {seed}: RNG stream diverged by source node");
            // And the generators are fully aligned afterwards.
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }

    #[test]
    fn torus_source_maps_patterns_onto_subrings() {
        use mcnet_system::TorusSystem;
        let torus = TorusSystem::new(4, 2).unwrap();
        let traffic = TrafficConfig::uniform(32, 256.0, 1e-3)
            .unwrap()
            .with_pattern(TrafficPattern::LocalFavoring { locality: 0.8 })
            .unwrap();
        let src = Poisson::from_parts(&traffic, torus.total_nodes(), torus.neighborhood_ranges())
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        // Node 5 lives in sub-ring 1 (nodes 4..8).
        let samples = 20_000;
        let local = (0..samples)
            .filter(|_| {
                let d = src.sample_destination(&mut rng, 5);
                assert_ne!(d, 5);
                (4..8).contains(&d)
            })
            .count();
        let frac = local as f64 / samples as f64;
        assert!((frac - 0.8).abs() < 0.05, "sub-ring locality fraction {frac}");

        // Hot-spot validation uses the torus node count.
        let bad = TrafficConfig::uniform(32, 256.0, 1e-3)
            .unwrap()
            .with_pattern(TrafficPattern::Hotspot { hotspot: 100, fraction: 0.1 })
            .unwrap();
        assert!(
            Poisson::from_parts(&bad, torus.total_nodes(), torus.neighborhood_ranges()).is_err()
        );
    }

    #[test]
    fn interarrival_mean_matches_rate() {
        let (_, src) = source(TrafficPattern::Uniform);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| src.sample_interarrival(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1000.0).abs() < 15.0, "mean inter-arrival {mean}");
    }

    #[test]
    fn uniform_destinations_cover_all_other_nodes() {
        let (system, src) = source(TrafficPattern::Uniform);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = system.total_nodes();
        let mut counts = vec![0usize; n];
        let samples = 50_000;
        for _ in 0..samples {
            let d = src.sample_destination(&mut rng, 5);
            assert_ne!(d, 5);
            counts[d] += 1;
        }
        assert_eq!(counts[5], 0);
        let expected = samples as f64 / (n - 1) as f64;
        for (i, &c) in counts.iter().enumerate() {
            if i == 5 {
                continue;
            }
            assert!(
                (c as f64 - expected).abs() < expected * 0.15,
                "destination {i} sampled {c} times, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn hotspot_receives_extra_traffic() {
        let (_, src) = source(TrafficPattern::Hotspot { hotspot: 3, fraction: 0.5 });
        let mut rng = SmallRng::seed_from_u64(3);
        let samples = 20_000;
        let hot = (0..samples).filter(|_| src.sample_destination(&mut rng, 10) == 3).count();
        let frac = hot as f64 / samples as f64;
        assert!(frac > 0.45 && frac < 0.60, "hotspot fraction {frac}");
    }

    #[test]
    fn local_favoring_keeps_traffic_in_cluster() {
        let (system, src) = source(TrafficPattern::LocalFavoring { locality: 0.8 });
        let mut rng = SmallRng::seed_from_u64(4);
        // Source in the last cluster (16 nodes in the small test org).
        let range = system.node_range(3).unwrap();
        let src_node = range.start + 2;
        let samples = 20_000;
        let local = (0..samples)
            .filter(|_| {
                let d = src.sample_destination(&mut rng, src_node);
                assert_ne!(d, src_node);
                range.contains(&d)
            })
            .count();
        let frac = local as f64 / samples as f64;
        assert!((frac - 0.8).abs() < 0.05, "local fraction {frac}");
    }

    #[test]
    fn invalid_configurations_rejected() {
        let system = organizations::small_test_org();
        let zero = TrafficConfig::uniform(32, 256.0, 0.0).unwrap();
        assert!(Poisson::new(&system, &zero).is_err());
        let bad_hotspot = TrafficConfig::uniform(32, 256.0, 1e-3)
            .unwrap()
            .with_pattern(TrafficPattern::Hotspot { hotspot: 10_000, fraction: 0.1 })
            .unwrap();
        assert!(Poisson::new(&system, &bad_hotspot).is_err());
    }
}
