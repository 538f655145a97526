//! # mcnet — interconnection networks of heterogeneous multi-cluster systems
//!
//! Umbrella crate for the reproduction of Javadi, Abawajy, Akbari & Nahavandi,
//! *"Analysis of Interconnection Networks in Heterogeneous Multi-Cluster Systems"*
//! (ICPP Workshops 2006). It re-exports the workspace crates under stable names so
//! downstream users (and the examples in `examples/`) need a single dependency:
//!
//! * [`topology`] — m-port n-tree fat-trees, NCA / Up*/Down* routing, k-ary n-cubes;
//! * [`queueing`] — M/G/1 queues, service-time descriptors, statistics;
//! * [`system`] — cluster / network / traffic configuration, Table 1 organizations;
//! * [`model`] — the paper's analytical mean-latency model (Eqs. 1–36) + extensions;
//! * [`sim`] — the flit-level discrete-event wormhole simulator used for validation;
//! * [`experiments`] — the harness regenerating every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use mcnet::model::AnalyticalModel;
//! use mcnet::system::{organizations, TrafficConfig};
//!
//! // Predict the mean message latency of the paper's Org B at a moderate load.
//! let system = organizations::table1_org_b();
//! let traffic = TrafficConfig::uniform(32, 256.0, 2.0e-4).unwrap();
//! let latency = AnalyticalModel::new(&system, &traffic)
//!     .unwrap()
//!     .evaluate()
//!     .unwrap()
//!     .total_latency;
//! assert!(latency > 0.0);
//! ```

#![warn(missing_docs)]

pub use mcnet_experiments as experiments;
pub use mcnet_model as model;
pub use mcnet_queueing as queueing;
pub use mcnet_sim as sim;
pub use mcnet_system as system;
pub use mcnet_topology as topology;

/// The canonical citation of the reproduced paper.
pub const PAPER_CITATION: &str = "B. Javadi, J. H. Abawajy, M. K. Akbari, S. Nahavandi: \
Analysis of Interconnection Networks in Heterogeneous Multi-Cluster Systems, \
Proceedings of the 2006 International Conference on Parallel Processing Workshops (ICPPW'06), IEEE, 2006.";

#[cfg(test)]
mod tests {
    #[test]
    fn citation_names_the_venue() {
        assert!(super::PAPER_CITATION.contains("ICPPW'06"));
    }
}
