//! Regeneration of the paper's Table 1: the system organizations used for validation.
//!
//! The table lists, for each organization, the total node count `N`, the cluster count
//! `C`, the switch port count `m` and the per-group cluster sizes. We recompute every
//! derived quantity from the configuration layer (node counts via Eq. 1, switch counts
//! via Eq. 2, ICN2 arity) so the emitted table doubles as a consistency check of the
//! configuration code against the published numbers.

use mcnet_system::{organizations, MultiClusterSystem};
use serde::{Deserialize, Serialize};

/// One row group of Table 1 (a set of clusters with identical size).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrganizationGroup {
    /// Tree levels `n_i` of the clusters in the group.
    pub levels: usize,
    /// Number of clusters in the group.
    pub clusters: usize,
    /// Nodes per cluster, `2(m/2)^{n_i}`.
    pub nodes_per_cluster: usize,
    /// Switches per cluster network (ICN1 or ECN1), `(2n_i − 1)(m/2)^{n_i−1}`.
    pub switches_per_network: usize,
}

/// A fully expanded organization row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrganizationSummary {
    /// Organization name (`"A"` or `"B"`, or a custom label).
    pub name: String,
    /// Total node count `N`.
    pub total_nodes: usize,
    /// Cluster count `C`.
    pub clusters: usize,
    /// Switch port count `m`.
    pub ports: usize,
    /// ICN2 tree levels `n_c`.
    pub icn2_levels: usize,
    /// Total switch count across all ICN1 + ECN1 + ICN2 networks.
    pub total_switches: usize,
    /// The per-size groups.
    pub groups: Vec<OrganizationGroup>,
}

/// Summarises one system in the shape of a Table 1 row.
fn summarize(name: &str, system: &MultiClusterSystem) -> OrganizationSummary {
    let mut groups: Vec<OrganizationGroup> = Vec::new();
    for (_, spec) in system.iter_clusters() {
        if let Some(g) = groups.iter_mut().find(|g| g.levels == spec.levels) {
            g.clusters += 1;
        } else {
            groups.push(OrganizationGroup {
                levels: spec.levels,
                clusters: 1,
                nodes_per_cluster: spec.num_nodes(),
                switches_per_network: spec.num_switches_per_network(),
            });
        }
    }
    groups.sort_by_key(|g| g.levels);
    let icn2_switches = (2 * system.icn2_levels() - 1)
        * (system.ports() / 2).pow((system.icn2_levels() - 1) as u32);
    let total_switches =
        groups.iter().map(|g| 2 * g.clusters * g.switches_per_network).sum::<usize>()
            + icn2_switches;
    OrganizationSummary {
        name: name.to_string(),
        total_nodes: system.total_nodes(),
        clusters: system.num_clusters(),
        ports: system.ports(),
        icn2_levels: system.icn2_levels(),
        total_switches,
        groups,
    }
}

/// The two organizations of the paper's Table 1.
///
/// Deliberately serial: `summarize` is microsecond-scale configuration math,
/// so fanning it over the worker pool would cost more in thread spawns than
/// the work itself. The pool backs the simulation-bearing sweeps instead
/// (`mcnet_experiments::figures`, `mcnet_sim::runner`).
pub fn table1_summary() -> Vec<OrganizationSummary> {
    vec![
        summarize("A", &organizations::table1_org_a()),
        summarize("B", &organizations::table1_org_b()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let rows = table1_summary();
        assert_eq!(rows.len(), 2);

        let a = &rows[0];
        assert_eq!(a.name, "A");
        assert_eq!(a.total_nodes, 1120);
        assert_eq!(a.clusters, 32);
        assert_eq!(a.ports, 8);
        assert_eq!(a.icn2_levels, 2);
        assert_eq!(a.groups.len(), 3);
        assert_eq!(
            a.groups
                .iter()
                .map(|g| (g.levels, g.clusters, g.nodes_per_cluster))
                .collect::<Vec<_>>(),
            vec![(1, 12, 8), (2, 16, 32), (3, 4, 128)]
        );

        let b = &rows[1];
        assert_eq!(b.name, "B");
        assert_eq!(b.total_nodes, 544);
        assert_eq!(b.clusters, 16);
        assert_eq!(b.ports, 4);
        assert_eq!(b.icn2_levels, 3);
        assert_eq!(
            b.groups
                .iter()
                .map(|g| (g.levels, g.clusters, g.nodes_per_cluster))
                .collect::<Vec<_>>(),
            vec![(3, 8, 16), (4, 3, 32), (5, 5, 64)]
        );
    }

    #[test]
    fn switch_totals_are_consistent_with_eq2() {
        let rows = table1_summary();
        let a = &rows[0];
        // Org A: ICN1+ECN1 per cluster group: n=1 → 1 switch, n=2 → 12, n=3 → 80;
        // ICN2 (m=8, n_c=2) has 12 switches.
        let expected = 2 * (12 + 16 * 12 + 4 * 80) + 12;
        assert_eq!(a.total_switches, expected);
    }

    #[test]
    fn group_population_covers_all_clusters() {
        for row in table1_summary() {
            let clusters: usize = row.groups.iter().map(|g| g.clusters).sum();
            assert_eq!(clusters, row.clusters);
            let nodes: usize = row.groups.iter().map(|g| g.clusters * g.nodes_per_cluster).sum();
            assert_eq!(nodes, row.total_nodes);
        }
    }
}
