//! Routing policies: how a message's itinerary is chosen.
//!
//! The engine supports three policies:
//!
//! * [`RoutingPolicy::Deterministic`] — every `(src, dst)` pair has one fixed
//!   itinerary (dimension-order + dateline VCs on the torus, the NCA route on
//!   the tree), composed per message into a recycled region of the route
//!   arena. Bit-identical to all previous releases and allocation-free.
//! * [`RoutingPolicy::AdaptiveTorus`] — Duato-style minimal-adaptive routing on
//!   the k-ary n-cube. Each directed link carries `adaptive_vcs` extra virtual
//!   channels with no routing restriction; the existing Dally–Seitz dateline
//!   VCs become the *escape class*. At every hop the header may take any free
//!   adaptive VC on any minimal next-hop; when all adaptive candidates are
//!   busy it falls back to (and may wait on) the escape channel, whose
//!   dimension-order + dateline discipline keeps the network deadlock-free.
//! * [`RoutingPolicy::RandomizedUpDown`] — randomized legal up\*/down\* path
//!   selection on the m-port n-tree fabric. The up-port choices of the ICN1 /
//!   ECN1 ascents (and the ICN2 crossing) are sampled uniformly per message
//!   instead of being forced by the destination digits, spreading load across
//!   the tree's redundant ascent paths.
//!
//! Adaptive decisions draw from a dedicated RNG stream seeded independently of
//! the traffic stream, so enabling a policy never perturbs arrival times or
//! destination draws — deterministic-mode digests are unchanged by
//! construction, and fixed-seed adaptive runs are themselves reproducible.

use crate::{Result, SimError};
use mcnet_system::TorusSystem;

/// Default number of unrestricted adaptive VCs per directed torus link.
pub const DEFAULT_ADAPTIVE_VCS: u8 = 1;

/// How message itineraries are chosen (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// One fixed deterministic itinerary per `(src, dst)` pair.
    #[default]
    Deterministic,
    /// Minimal-adaptive torus routing with Duato escape channels.
    AdaptiveTorus {
        /// Unrestricted adaptive VCs added to every directed link (1..=4).
        adaptive_vcs: u8,
    },
    /// Randomized legal up*/down* path selection on the tree.
    RandomizedUpDown,
}

impl RoutingPolicy {
    /// Upper bound on `adaptive_vcs`: more VCs than this would only dilute the
    /// per-VC bandwidth share without adding routing freedom on minimal paths.
    pub const MAX_ADAPTIVE_VCS: u8 = 4;

    /// Upper bound on the torus dimensions adaptive routing supports: the
    /// engine tracks an adaptive message's dateline crossings in a
    /// per-dimension bitmask of one byte.
    pub(crate) const MAX_ADAPTIVE_DIMENSIONS: usize = 8;

    /// `true` for the deterministic (fixed-route) policy.
    #[inline]
    pub fn is_deterministic(self) -> bool {
        matches!(self, RoutingPolicy::Deterministic)
    }

    /// The spec-facing policy name (`"routing": {"policy": ...}`).
    pub fn spec_name(self) -> &'static str {
        match self {
            RoutingPolicy::Deterministic => "deterministic",
            RoutingPolicy::AdaptiveTorus { .. } => "adaptive_torus",
            RoutingPolicy::RandomizedUpDown => "randomized_updown",
        }
    }

    /// Human-readable description used by summaries and report headers.
    pub fn describe(self) -> String {
        match self {
            RoutingPolicy::Deterministic => "deterministic".to_string(),
            RoutingPolicy::AdaptiveTorus { adaptive_vcs } => {
                format!("adaptive torus (escape + {adaptive_vcs} adaptive vc)")
            }
            RoutingPolicy::RandomizedUpDown => "randomized up*/down*".to_string(),
        }
    }

    /// Validates the policy's own parameters; `validate_for` adds the fabric
    /// rules.
    pub fn validate(self) -> Result<()> {
        if let RoutingPolicy::AdaptiveTorus { adaptive_vcs } = self {
            if adaptive_vcs == 0 || adaptive_vcs > Self::MAX_ADAPTIVE_VCS {
                return Err(SimError::InvalidConfiguration {
                    reason: format!(
                        "adaptive_vcs must be in 1..={}, got {adaptive_vcs}",
                        Self::MAX_ADAPTIVE_VCS
                    ),
                });
            }
        }
        Ok(())
    }

    /// Validates the policy against the fabric it routes on, `torus` being
    /// `None` for the tree: its own parameters, then adaptive routing needs a
    /// torus of at most [`RoutingPolicy::MAX_ADAPTIVE_DIMENSIONS`] dimensions
    /// and randomized routing needs a tree. Scenario validation and the
    /// engine's fabric constructors both check through here.
    pub(crate) fn validate_for(self, torus: Option<&TorusSystem>) -> Result<()> {
        self.validate()?;
        let reason = match (self, torus) {
            (RoutingPolicy::AdaptiveTorus { .. }, None) => {
                "adaptive_torus routing needs a torus fabric".to_string()
            }
            (RoutingPolicy::AdaptiveTorus { .. }, Some(torus))
                if torus.dimensions() > Self::MAX_ADAPTIVE_DIMENSIONS =>
            {
                format!(
                    "adaptive_torus routing supports at most {} dimensions (got {})",
                    Self::MAX_ADAPTIVE_DIMENSIONS,
                    torus.dimensions()
                )
            }
            (RoutingPolicy::RandomizedUpDown, Some(_)) => {
                "randomized_updown routing needs a tree fabric".to_string()
            }
            _ => return Ok(()),
        };
        Err(SimError::InvalidConfiguration { reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_deterministic() {
        assert!(RoutingPolicy::default().is_deterministic());
        assert!(!RoutingPolicy::AdaptiveTorus { adaptive_vcs: 1 }.is_deterministic());
        assert!(!RoutingPolicy::RandomizedUpDown.is_deterministic());
    }

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(RoutingPolicy::Deterministic.spec_name(), "deterministic");
        assert_eq!(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 }.spec_name(), "adaptive_torus");
        assert_eq!(RoutingPolicy::RandomizedUpDown.spec_name(), "randomized_updown");
    }

    #[test]
    fn adaptive_vc_counts_are_bounded() {
        assert!(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 0 }.validate().is_err());
        assert!(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 1 }.validate().is_ok());
        assert!(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 4 }.validate().is_ok());
        assert!(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 5 }.validate().is_err());
        assert!(RoutingPolicy::Deterministic.validate().is_ok());
        assert!(RoutingPolicy::RandomizedUpDown.validate().is_ok());
    }
}
