//! Hop-count distributions and average message distance for the m-port n-tree.
//!
//! Under the uniform traffic assumption (paper assumption 2) a message generated in an
//! m-port n-tree crosses `2j` links with probability `P_{j,n}` (Eq. 4), and the average
//! number of links crossed is `d_avg = Σ_j 2j · P_{j,n}` (Eq. 8, closed form Eq. 9).
//!
//! [`HopDistribution::paper`] builds the distribution exactly as published. The
//! published numerator `2(m/2)^j − 2(m/2)^{j−1}` counts *both* half-trees as if they
//! were reachable below the level-`j` ancestor, which over-weights short distances by a
//! factor of two relative to the constructed topology ([`crate::MPortNTree`], whose two
//! halves share their roots); the final branch (`j = n`) absorbs the remaining
//! probability mass so the distribution is proper. The model reproduces the paper's
//! figures with this formula, so it is the only one the library builds; the tests below
//! measure the gap against an exact enumeration of the constructed tree.
//!
//! The distribution is node-symmetric: it does not depend on which node generates the
//! message.

use crate::{Result, TopologyError};

/// The distribution of the ascending-link count `j ∈ {1, …, n}` for a uniformly random
/// destination in an m-port n-tree.
#[derive(Debug, Clone, PartialEq)]
pub struct HopDistribution {
    m: usize,
    n: usize,
    /// `probs[j - 1]` is `P_{j,n}`.
    probs: Vec<f64>,
}

impl HopDistribution {
    /// Builds the paper's Eq. (4) distribution for an m-port n-tree. Fails if `m` is
    /// odd, `m < 2` or `n == 0`.
    pub fn paper(m: usize, n: usize) -> Result<Self> {
        validate(m, n)?;
        let k = m / 2;
        let nodes = 2.0 * (k as f64).powi(n as i32);
        let denom = nodes - 1.0;
        let mut probs = Vec::with_capacity(n);
        if n == 1 {
            probs.push(1.0);
        } else {
            let mut acc = 0.0;
            for j in 1..n {
                // Eq. (4), first branch: (2(m/2)^j - 2(m/2)^(j-1)) / (N - 1).
                let p =
                    (2.0 * (k as f64).powi(j as i32) - 2.0 * (k as f64).powi(j as i32 - 1)) / denom;
                probs.push(p);
                acc += p;
            }
            // Eq. (4), second branch: the longest distance absorbs the remaining mass.
            probs.push((1.0 - acc).max(0.0));
        }
        Ok(HopDistribution { m, n, probs })
    }

    /// Switch port count `m`.
    #[inline]
    pub fn ports(&self) -> usize {
        self.m
    }

    /// Tree level count `n`.
    #[inline]
    pub fn levels(&self) -> usize {
        self.n
    }

    /// `P_{j,n}` for `j ∈ {1, …, n}`.
    ///
    /// # Panics
    /// Panics if `j` is outside `1..=n`.
    #[inline]
    pub fn probability(&self, j: usize) -> f64 {
        assert!((1..=self.n).contains(&j), "j={j} outside 1..={}", self.n);
        self.probs[j - 1]
    }

    /// The full probability vector, indexed by `j - 1`.
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Average number of links crossed by a message, `d_avg = Σ_j 2j · P_{j,n}`
    /// (paper Eq. 8).
    pub fn average_distance(&self) -> f64 {
        self.probs.iter().enumerate().map(|(idx, p)| 2.0 * (idx + 1) as f64 * p).sum()
    }
}

fn validate(m: usize, n: usize) -> Result<()> {
    if m < 2 || !m.is_multiple_of(2) {
        return Err(TopologyError::InvalidPortCount { m });
    }
    if n == 0 {
        return Err(TopologyError::InvalidLevelCount { n });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MPortNTree;
    use crate::upow;

    const CONFIGS: &[(usize, usize)] =
        &[(4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (8, 1), (8, 2), (8, 3), (6, 2), (6, 3)];

    fn paper(m: usize, n: usize) -> HopDistribution {
        HopDistribution::paper(m, n).unwrap()
    }

    /// The exact hop distribution of the constructed m-port n-tree, the reference
    /// Eq. (4) is measured against.
    ///
    /// From any node there are `(k-1)·k^(j-1)` destinations at `j < n` ascending links
    /// (they share an ancestor inside the node's half) and the remaining
    /// `(k-1)·k^(n-1) + k^n` destinations require ascending to a root switch.
    fn exact(m: usize, n: usize) -> Result<HopDistribution> {
        validate(m, n)?;
        let k = m / 2;
        let nodes = 2 * upow(k, n as u32);
        let denom = (nodes - 1) as f64;
        let mut probs = Vec::with_capacity(n);
        if n == 1 {
            probs.push(1.0);
        } else {
            let mut acc = 0.0;
            for j in 1..n {
                let count = ((k - 1) * upow(k, (j - 1) as u32)) as f64;
                let p = count / denom;
                probs.push(p);
                acc += p;
            }
            probs.push((1.0 - acc).max(0.0));
        }
        Ok(HopDistribution { m, n, probs })
    }

    /// Measures the hop distribution of an already-constructed tree by enumerating all
    /// destinations of node 0 (the topology is node-symmetric).
    fn measured(tree: &MPortNTree) -> HopDistribution {
        let n = tree.levels();
        let mut counts = vec![0usize; n];
        let src = crate::ids::NodeId(0);
        for dst in tree.nodes() {
            if dst == src {
                continue;
            }
            let j = tree.hop_count(src, dst).expect("valid nodes");
            counts[j - 1] += 1;
        }
        let denom = (tree.num_nodes() - 1) as f64;
        let probs = counts.iter().map(|&c| c as f64 / denom).collect();
        HopDistribution { m: tree.ports(), n, probs }
    }

    #[test]
    fn paper_distribution_sums_to_one() {
        for &(m, n) in CONFIGS {
            let d = paper(m, n);
            let sum: f64 = d.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "({m},{n}): sum={sum}");
            assert!(d.probabilities().iter().all(|&p| (0.0..=1.0).contains(&p)));
            assert_eq!(d.probabilities().len(), n);
        }
    }

    #[test]
    fn exact_distribution_sums_to_one() {
        for &(m, n) in CONFIGS {
            let d = exact(m, n).unwrap();
            let sum: f64 = d.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "({m},{n}): sum={sum}");
        }
    }

    #[test]
    fn exact_matches_measured_topology() {
        for &(m, n) in &[(4usize, 1usize), (4, 2), (4, 3), (8, 2), (6, 2)] {
            let tree = MPortNTree::new(m, n).unwrap();
            let measured = measured(&tree);
            let exact = exact(m, n).unwrap();
            for j in 1..=n {
                assert!(
                    (measured.probability(j) - exact.probability(j)).abs() < 1e-12,
                    "({m},{n}) j={j}: measured={} exact={}",
                    measured.probability(j),
                    exact.probability(j)
                );
            }
        }
    }

    #[test]
    fn single_level_tree_distribution_is_degenerate() {
        for &m in &[4usize, 8, 16] {
            let d = paper(m, 1);
            assert_eq!(d.probabilities(), &[1.0]);
            assert!((d.average_distance() - 2.0).abs() < 1e-12);
            let e = exact(m, 1).unwrap();
            assert_eq!(e.probabilities(), &[1.0]);
        }
    }

    #[test]
    fn paper_eq4_known_values() {
        // m = 8, n = 3, N = 128: Eq. (4) gives
        //   P_1 = (8 - 2) / 127, P_2 = (32 - 8) / 127, P_3 = 1 - P_1 - P_2.
        let d = paper(8, 3);
        assert!((d.probability(1) - 6.0 / 127.0).abs() < 1e-12);
        assert!((d.probability(2) - 24.0 / 127.0).abs() < 1e-12);
        assert!((d.probability(3) - (1.0 - 30.0 / 127.0)).abs() < 1e-12);
    }

    #[test]
    fn average_distance_is_monotone_in_n() {
        // Larger trees have longer average distances for the same m.
        for &m in &[4usize, 8] {
            let mut prev = 0.0;
            for n in 1..=5 {
                let d = paper(m, n);
                let avg = d.average_distance();
                assert!(avg > prev, "m={m}, n={n}: {avg} <= {prev}");
                assert!(avg <= 2.0 * n as f64 + 1e-12);
                prev = avg;
            }
        }
    }

    #[test]
    fn paper_overweights_short_distances_relative_to_exact() {
        // Documented discrepancy: Eq. (4) counts twice as many near destinations as the
        // constructed topology provides, for every j < n.
        for &(m, n) in &[(8usize, 3usize), (4, 4)] {
            let paper = paper(m, n);
            let exact = exact(m, n).unwrap();
            for j in 1..n {
                assert!(paper.probability(j) > exact.probability(j));
                assert!((paper.probability(j) - 2.0 * exact.probability(j)).abs() < 1e-12);
            }
            assert!(paper.average_distance() < exact.average_distance());
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(HopDistribution::paper(3, 2).is_err());
        assert!(HopDistribution::paper(4, 0).is_err());
        assert!(exact(0, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn probability_out_of_range_panics() {
        let d = paper(4, 2);
        let _ = d.probability(3);
    }
}
