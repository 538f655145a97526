//! Hop-count distributions and average message distance for the m-port n-tree.
//!
//! Under the uniform traffic assumption (paper assumption 2) a message generated in an
//! m-port n-tree crosses `2j` links with probability `P_{j,n}` (Eq. 4), and the average
//! number of links crossed is `d_avg = Σ_j 2j · P_{j,n}` (Eq. 8, closed form Eq. 9).
//!
//! Two variants are provided:
//!
//! * [`HopDistribution::paper`] — the distribution exactly as published (Eq. 4). The
//!   published numerator `2(m/2)^j − 2(m/2)^{j−1}` counts *both* half-trees as if they
//!   were reachable below the level-`j` ancestor, which slightly over-weights short
//!   distances relative to the constructed topology; the final branch (`j = n`)
//!   absorbs the remaining probability mass so the distribution is proper.
//! * [`HopDistribution::exact`] — the exact distribution obtained from the
//!   two-halves-sharing-roots construction of [`crate::MPortNTree`] (and verified
//!   against brute-force path enumeration in the tests). It is used by the model as an
//!   optional ablation ("paper formula" vs "exact enumeration").
//!
//! Both variants are node-symmetric: the distribution does not depend on which node
//! generates the message.

use crate::tree::MPortNTree;
use crate::{upow, Result, TopologyError};

/// Which formula generates a [`HopDistribution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HopModel {
    /// The paper's Eq. (4) with the last branch absorbing the remaining mass.
    #[default]
    PaperEq4,
    /// Exact per-distance destination counts of the constructed topology.
    Exact,
}

/// The distribution of the ascending-link count `j ∈ {1, …, n}` for a uniformly random
/// destination in an m-port n-tree.
#[derive(Debug, Clone, PartialEq)]
pub struct HopDistribution {
    m: usize,
    n: usize,
    model: HopModel,
    /// `probs[j - 1]` is `P_{j,n}`.
    probs: Vec<f64>,
}

impl HopDistribution {
    /// Builds the paper's Eq. (4) distribution for an m-port n-tree.
    ///
    /// # Panics
    /// Panics if `m` is odd, `m < 2` or `n == 0`; [`HopDistribution::with_model`]
    /// with [`HopModel::PaperEq4`] is the fallible constructor.
    pub fn paper(m: usize, n: usize) -> Self {
        Self::try_paper(m, n).expect("invalid m-port n-tree parameters")
    }

    /// Fallible variant of [`HopDistribution::paper`].
    fn try_paper(m: usize, n: usize) -> Result<Self> {
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
        Ok(HopDistribution { m, n, model: HopModel::PaperEq4, probs })
    }

    /// Builds the exact hop distribution of the constructed m-port n-tree.
    ///
    /// From any node there are `(k-1)·k^(j-1)` destinations at `j < n` ascending links
    /// (they share an ancestor inside the node's half) and the remaining
    /// `(k-1)·k^(n-1) + k^n` destinations require ascending to a root switch.
    pub fn exact(m: usize, n: usize) -> Result<Self> {
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
        Ok(HopDistribution { m, n, model: HopModel::Exact, probs })
    }

    /// Builds the distribution according to the requested [`HopModel`].
    pub fn with_model(m: usize, n: usize, model: HopModel) -> Result<Self> {
        match model {
            HopModel::PaperEq4 => Self::try_paper(m, n),
            HopModel::Exact => Self::exact(m, n),
        }
    }

    /// Measures the hop distribution of an already-constructed tree by enumerating all
    /// destinations of node 0 (the topology is node-symmetric).
    pub fn measured(tree: &MPortNTree) -> Self {
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
        HopDistribution { m: tree.ports(), n, model: HopModel::Exact, probs }
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

    /// Which model generated the distribution.
    #[inline]
    pub fn model(&self) -> HopModel {
        self.model
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

    const CONFIGS: &[(usize, usize)] =
        &[(4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (8, 1), (8, 2), (8, 3), (6, 2), (6, 3)];

    #[test]
    fn paper_distribution_sums_to_one() {
        for &(m, n) in CONFIGS {
            let d = HopDistribution::paper(m, n);
            let sum: f64 = d.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "({m},{n}): sum={sum}");
            assert!(d.probabilities().iter().all(|&p| (0.0..=1.0).contains(&p)));
            assert_eq!(d.probabilities().len(), n);
        }
    }

    #[test]
    fn exact_distribution_sums_to_one() {
        for &(m, n) in CONFIGS {
            let d = HopDistribution::exact(m, n).unwrap();
            let sum: f64 = d.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "({m},{n}): sum={sum}");
        }
    }

    #[test]
    fn exact_matches_measured_topology() {
        for &(m, n) in &[(4usize, 1usize), (4, 2), (4, 3), (8, 2), (6, 2)] {
            let tree = MPortNTree::new(m, n).unwrap();
            let measured = HopDistribution::measured(&tree);
            let exact = HopDistribution::exact(m, n).unwrap();
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
            let d = HopDistribution::paper(m, 1);
            assert_eq!(d.probabilities(), &[1.0]);
            assert!((d.average_distance() - 2.0).abs() < 1e-12);
            let e = HopDistribution::exact(m, 1).unwrap();
            assert_eq!(e.probabilities(), &[1.0]);
        }
    }

    #[test]
    fn paper_eq4_known_values() {
        // m = 8, n = 3, N = 128: Eq. (4) gives
        //   P_1 = (8 - 2) / 127, P_2 = (32 - 8) / 127, P_3 = 1 - P_1 - P_2.
        let d = HopDistribution::paper(8, 3);
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
                let d = HopDistribution::paper(m, n);
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
            let paper = HopDistribution::paper(m, n);
            let exact = HopDistribution::exact(m, n).unwrap();
            for j in 1..n {
                assert!(paper.probability(j) > exact.probability(j));
                assert!((paper.probability(j) - 2.0 * exact.probability(j)).abs() < 1e-12);
            }
            assert!(paper.average_distance() < exact.average_distance());
        }
    }

    #[test]
    fn with_model_dispatches() {
        let p = HopDistribution::with_model(8, 3, HopModel::PaperEq4).unwrap();
        assert_eq!(p.model(), HopModel::PaperEq4);
        let e = HopDistribution::with_model(8, 3, HopModel::Exact).unwrap();
        assert_eq!(e.model(), HopModel::Exact);
        assert_ne!(p.probabilities(), e.probabilities());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(HopDistribution::try_paper(3, 2).is_err());
        assert!(HopDistribution::try_paper(4, 0).is_err());
        assert!(HopDistribution::exact(0, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn probability_out_of_range_panics() {
        let d = HopDistribution::paper(4, 2);
        let _ = d.probability(3);
    }
}
