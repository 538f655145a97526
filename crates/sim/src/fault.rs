//! Fault injection: timed link and switch outages with graceful degradation.
//!
//! A [`FaultPlan`] is plain data — a list of timed [`FaultEvent`]s plus the
//! retry policy — that enters [`crate::scenario::ScenarioSpec`] under the
//! optional `"faults"` key, round-trips through the offline JSON layer, and
//! materializes at simulation build time as `ChannelDown` / `ChannelUp` events
//! in the future event list. Targets are named in fabric terms, not raw channel
//! ids:
//!
//! * [`FaultTarget::Bridge`] — one of a tree cluster's bridge links (the
//!   concentrator link into ICN2 or the dispatcher link out of it), the single
//!   points every inter-cluster message crosses;
//! * [`FaultTarget::TorusLink`] — a directed ring edge of the torus, addressed
//!   by `(node, dim, dir)`; cutting it disables every virtual channel of that
//!   edge;
//! * [`FaultTarget::Switch`] — a whole torus router: every incident link VC
//!   plus the node's injection and ejection channels.
//!
//! Validation happens in two stages, both surfacing as
//! [`crate::SimError::InvalidSpec`]: shape checks at parse time (finite non-negative
//! times, per-target `Down`/`Up` alternation — an `Up` with no preceding
//! `Down` is rejected), and fabric-dependent range checks at build time
//! (cluster/node/dim in range, target kind matching the fabric).
//!
//! Degradation semantics live in the engine: a message holding or queued on a
//! channel that goes down is aborted and retransmitted from its source after an
//! exponential-backoff delay (`retry_base · 2^(failures−1)`), and is counted as
//! dropped once it has failed `max_attempts` times.

use crate::backend::FabricBackend;
use crate::channels::GlobalChannelId;
use crate::json::{object, Json};
use crate::scenario::{get_f64, get_str, get_usize, reject_unknown_keys, spec_error, Fabric};
use crate::Result;

/// Which of a tree cluster's two bridge links a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeUnit {
    /// The link from the cluster's ECN1 into ICN2 (outbound inter traffic).
    Concentrator,
    /// The link from ICN2 back into the cluster's ECN1 (inbound inter traffic).
    Dispatcher,
}

/// Direction of a torus ring edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingDir {
    /// The +1 direction of the ring (coordinate increases, with wrap-around).
    Plus,
    /// The −1 direction.
    Minus,
}

/// What a fault event targets, in fabric terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// A tree cluster's bridge link (tree fabrics only).
    Bridge {
        /// Cluster index.
        cluster: usize,
        /// Concentrator or dispatcher side.
        unit: BridgeUnit,
    },
    /// A directed torus ring edge leaving `node` in dimension `dim` (torus
    /// fabrics only). All virtual channels of the edge go down together; for
    /// `k = 2` both directions name the same single channel.
    TorusLink {
        /// Source node of the directed edge.
        node: usize,
        /// Ring dimension.
        dim: usize,
        /// Edge direction.
        dir: RingDir,
    },
    /// A whole torus router: every incident link VC plus the node's injection
    /// and ejection channels (torus fabrics only — tree switches live inside
    /// the m-port n-tree network instances and are not individually
    /// addressable; the tree's fault family is its bridges).
    Switch {
        /// Node whose router goes down.
        node: usize,
    },
}

/// Whether a fault event takes its target down or brings it back up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// The target's channels join the disabled set; holders and waiters abort.
    Down,
    /// The target's channels leave the disabled set.
    Up,
}

/// One timed fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time at which the event fires (finite, ≥ 0).
    pub at: f64,
    /// What it targets.
    pub target: FaultTarget,
    /// Down or up.
    pub action: FaultAction,
}

/// A declarative fault schedule plus the degraded-mode retry policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Timed fault events, in schedule order.
    pub events: Vec<FaultEvent>,
    /// Maximum delivery attempts per message (1 = no retransmission); a
    /// message failing this many times is counted as dropped.
    pub max_attempts: u32,
    /// Base retransmission delay; failure `i` retries after
    /// `retry_base · 2^(i−1)`.
    pub retry_base: f64,
    /// Bucket width of the report's degradation time series.
    pub window: f64,
}

/// One fault event resolved against a fabric: the concrete channel set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedFault {
    /// Simulation time at which the event fires.
    pub at: f64,
    /// Down or up.
    pub action: FaultAction,
    /// The global channel ids the event disables or re-enables.
    pub channels: Vec<GlobalChannelId>,
}

impl FaultPlan {
    /// Default delivery-attempt bound.
    pub const DEFAULT_MAX_ATTEMPTS: u32 = 5;
    /// Default base retransmission delay.
    pub const DEFAULT_RETRY_BASE: f64 = 50.0;
    /// Default time-series bucket width.
    const DEFAULT_WINDOW: f64 = 1000.0;

    /// A plan with the given events and default retry policy.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan {
            events,
            max_attempts: Self::DEFAULT_MAX_ATTEMPTS,
            retry_base: Self::DEFAULT_RETRY_BASE,
            window: Self::DEFAULT_WINDOW,
        }
    }

    /// Fabric-independent shape validation: finite non-negative event times,
    /// a sane retry policy, and per-target strict `Down`/`Up` alternation in
    /// increasing time order (an `Up` before any `Down`, a double `Down`, or a
    /// time tie on one target is rejected).
    pub fn validate(&self) -> Result<()> {
        if !(self.max_attempts >= 1 && self.max_attempts <= 64) {
            return Err(spec_error(format!(
                "faults.max_attempts must be between 1 and 64, got {}",
                self.max_attempts
            )));
        }
        if !(self.retry_base.is_finite() && self.retry_base > 0.0) {
            return Err(spec_error(format!(
                "faults.retry_base must be a finite positive time, got {}",
                self.retry_base
            )));
        }
        if !(self.window.is_finite() && self.window > 0.0) {
            return Err(spec_error(format!(
                "faults.window must be a finite positive time, got {}",
                self.window
            )));
        }
        let mut state: std::collections::HashMap<FaultTarget, (f64, bool)> =
            std::collections::HashMap::new();
        for (i, event) in self.events.iter().enumerate() {
            if !event.at.is_finite() || event.at < 0.0 {
                return Err(spec_error(format!(
                    "fault event {i} has a non-finite or negative time {}",
                    event.at
                )));
            }
            let slot = state.entry(event.target).or_insert((f64::NEG_INFINITY, false));
            match event.action {
                FaultAction::Up if !slot.1 => {
                    return Err(spec_error(format!(
                        "fault event {i} brings {:?} up before any down",
                        event.target
                    )));
                }
                FaultAction::Down if slot.1 => {
                    return Err(spec_error(format!(
                        "fault event {i} takes {:?} down while it is already down",
                        event.target
                    )));
                }
                action => {
                    if event.at <= slot.0 {
                        return Err(spec_error(format!(
                            "fault event {i} on {:?} is not after the target's previous event \
                             ({} <= {})",
                            event.target, event.at, slot.0
                        )));
                    }
                    *slot = (event.at, action == FaultAction::Down);
                }
            }
        }
        Ok(())
    }

    /// Fabric-dependent validation: every target's kind matches the fabric and
    /// its indices are in range. Runs at scenario build, before any backend is
    /// materialized.
    pub fn validate_against(&self, fabric: &Fabric) -> Result<()> {
        for (i, event) in self.events.iter().enumerate() {
            match (event.target, fabric) {
                (FaultTarget::Bridge { cluster, .. }, Fabric::Tree(system)) => {
                    if cluster >= system.num_clusters() {
                        return Err(spec_error(format!(
                            "fault event {i}: bridge cluster {cluster} is out of range for a \
                             fabric of {} clusters",
                            system.num_clusters()
                        )));
                    }
                }
                (FaultTarget::Bridge { .. }, Fabric::Torus(_)) => {
                    return Err(spec_error(format!(
                        "fault event {i}: bridge targets need a tree fabric"
                    )));
                }
                (FaultTarget::TorusLink { node, dim, .. }, Fabric::Torus(torus)) => {
                    if node >= torus.total_nodes() {
                        return Err(spec_error(format!(
                            "fault event {i}: torus node {node} is out of range for {} nodes",
                            torus.total_nodes()
                        )));
                    }
                    if dim >= torus.dimensions() {
                        return Err(spec_error(format!(
                            "fault event {i}: torus dimension {dim} is out of range for a \
                             {}-dimensional fabric",
                            torus.dimensions()
                        )));
                    }
                }
                (FaultTarget::Switch { node }, Fabric::Torus(torus)) => {
                    if node >= torus.total_nodes() {
                        return Err(spec_error(format!(
                            "fault event {i}: switch node {node} is out of range for {} nodes",
                            torus.total_nodes()
                        )));
                    }
                }
                (FaultTarget::TorusLink { .. } | FaultTarget::Switch { .. }, Fabric::Tree(_)) => {
                    return Err(spec_error(format!(
                        "fault event {i}: {:?} targets need a torus fabric",
                        event.target
                    )));
                }
            }
        }
        Ok(())
    }

    /// Resolves every event's target into its concrete channel set on the
    /// given backend, in schedule order.
    pub fn resolve(&self, backend: &FabricBackend) -> Result<Vec<ResolvedFault>> {
        self.events
            .iter()
            .map(|event| {
                let channels = match event.target {
                    FaultTarget::Bridge { cluster, unit } => {
                        let fabric = backend
                            .as_tree()
                            .ok_or_else(|| spec_error("bridge fault targets need a tree fabric"))?;
                        if cluster >= backend.num_clusters() {
                            return Err(spec_error(format!(
                                "bridge cluster {cluster} is out of range"
                            )));
                        }
                        vec![match unit {
                            BridgeUnit::Concentrator => fabric.bridges().concentrate(cluster),
                            BridgeUnit::Dispatcher => fabric.bridges().dispatch(cluster),
                        }]
                    }
                    FaultTarget::TorusLink { node, dim, dir } => {
                        let cube = backend.as_cube().ok_or_else(|| {
                            spec_error("torus_link fault targets need a torus fabric")
                        })?;
                        cube.directed_link_channels(node, dim, dir == RingDir::Plus)
                    }
                    FaultTarget::Switch { node } => {
                        let cube = backend.as_cube().ok_or_else(|| {
                            spec_error("switch fault targets need a torus fabric")
                        })?;
                        cube.switch_channels(node)
                    }
                };
                Ok(ResolvedFault { at: event.at, action: event.action, channels })
            })
            .collect()
    }

    /// Renders the plan as a JSON tree (the `"faults"` value of a spec). All
    /// fields are explicit, so serialization is a round-trip fixed point.
    pub fn to_json(&self) -> Json {
        object([
            ("max_attempts", Json::from_u64(u64::from(self.max_attempts))),
            ("retry_base", Json::Number(self.retry_base)),
            ("window", Json::Number(self.window)),
            (
                "events",
                Json::Array(
                    self.events
                        .iter()
                        .map(|e| {
                            object([
                                ("at", Json::Number(e.at)),
                                (
                                    "action",
                                    Json::String(
                                        match e.action {
                                            FaultAction::Down => "down",
                                            FaultAction::Up => "up",
                                        }
                                        .into(),
                                    ),
                                ),
                                ("target", target_to_json(&e.target)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the `"faults"` value of a spec and runs the fabric-independent
    /// [`validate`](Self::validate) checks. Schema:
    ///
    /// ```json
    /// {
    ///   "max_attempts": 5,
    ///   "retry_base": 50.0,
    ///   "window": 1000.0,
    ///   "events": [
    ///     {"at": 5000.0, "action": "down",
    ///      "target": {"kind": "bridge", "cluster": 0, "unit": "concentrator"}},
    ///     {"at": 20000.0, "action": "up",
    ///      "target": {"kind": "bridge", "cluster": 0, "unit": "concentrator"}}
    ///   ]
    /// }
    /// ```
    ///
    /// Target kinds: `"bridge"` (`cluster`, `unit`: `"concentrator"` |
    /// `"dispatcher"`), `"torus_link"` (`node`, `dim`, `dir`: `"plus"` |
    /// `"minus"`), `"switch"` (`node`). `max_attempts`, `retry_base` and
    /// `window` are optional. Unknown keys are rejected at every level.
    pub fn from_json(v: &Json) -> Result<Self> {
        let obj = v.as_object().ok_or_else(|| spec_error("\"faults\" must be an object"))?;
        reject_unknown_keys(v, "\"faults\"", &["max_attempts", "retry_base", "window", "events"])?;
        let max_attempts = match obj.get("max_attempts") {
            None => Self::DEFAULT_MAX_ATTEMPTS,
            Some(m) => m.as_u64().and_then(|x| u32::try_from(x).ok()).ok_or_else(|| {
                spec_error("\"faults.max_attempts\" must be a non-negative integer")
            })?,
        };
        let retry_base = match obj.get("retry_base") {
            None => Self::DEFAULT_RETRY_BASE,
            Some(_) => get_f64(v, "faults.retry_base", "retry_base")?,
        };
        let window = match obj.get("window") {
            None => Self::DEFAULT_WINDOW,
            Some(_) => get_f64(v, "faults.window", "window")?,
        };
        let events = obj
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| spec_error("\"faults\" needs an \"events\" array"))?
            .iter()
            .map(event_from_json)
            .collect::<Result<Vec<_>>>()?;
        let plan = FaultPlan { events, max_attempts, retry_base, window };
        plan.validate()?;
        Ok(plan)
    }
}

fn target_to_json(target: &FaultTarget) -> Json {
    match target {
        FaultTarget::Bridge { cluster, unit } => object([
            ("kind", Json::String("bridge".into())),
            ("cluster", Json::from_u64(*cluster as u64)),
            (
                "unit",
                Json::String(
                    match unit {
                        BridgeUnit::Concentrator => "concentrator",
                        BridgeUnit::Dispatcher => "dispatcher",
                    }
                    .into(),
                ),
            ),
        ]),
        FaultTarget::TorusLink { node, dim, dir } => object([
            ("kind", Json::String("torus_link".into())),
            ("node", Json::from_u64(*node as u64)),
            ("dim", Json::from_u64(*dim as u64)),
            (
                "dir",
                Json::String(
                    match dir {
                        RingDir::Plus => "plus",
                        RingDir::Minus => "minus",
                    }
                    .into(),
                ),
            ),
        ]),
        FaultTarget::Switch { node } => object([
            ("kind", Json::String("switch".into())),
            ("node", Json::from_u64(*node as u64)),
        ]),
    }
}

fn event_from_json(v: &Json) -> Result<FaultEvent> {
    reject_unknown_keys(v, "a fault event", &["at", "action", "target"])?;
    let action = match get_str(v, "faults.events[].action", "action")? {
        "down" => FaultAction::Down,
        "up" => FaultAction::Up,
        other => {
            return Err(spec_error(format!(
                "unknown fault action {other:?} (expected \"down\" or \"up\")"
            )))
        }
    };
    let target_json = v
        .as_object()
        .and_then(|o| o.get("target"))
        .ok_or_else(|| spec_error("a fault event needs a \"target\" object"))?;
    Ok(FaultEvent {
        at: get_f64(v, "faults.events[].at", "at")?,
        action,
        target: target_from_json(target_json)?,
    })
}

fn target_from_json(v: &Json) -> Result<FaultTarget> {
    match get_str(v, "fault target.kind", "kind")? {
        "bridge" => {
            reject_unknown_keys(v, "a bridge fault target", &["kind", "cluster", "unit"])?;
            let unit = match get_str(v, "fault target.unit", "unit")? {
                "concentrator" => BridgeUnit::Concentrator,
                "dispatcher" => BridgeUnit::Dispatcher,
                other => {
                    return Err(spec_error(format!(
                        "unknown bridge unit {other:?} (expected \"concentrator\" or \
                         \"dispatcher\")"
                    )))
                }
            };
            Ok(FaultTarget::Bridge {
                cluster: get_usize(v, "fault target.cluster", "cluster")?,
                unit,
            })
        }
        "torus_link" => {
            reject_unknown_keys(v, "a torus_link fault target", &["kind", "node", "dim", "dir"])?;
            let dir = match get_str(v, "fault target.dir", "dir")? {
                "plus" => RingDir::Plus,
                "minus" => RingDir::Minus,
                other => {
                    return Err(spec_error(format!(
                        "unknown ring direction {other:?} (expected \"plus\" or \"minus\")"
                    )))
                }
            };
            Ok(FaultTarget::TorusLink {
                node: get_usize(v, "fault target.node", "node")?,
                dim: get_usize(v, "fault target.dim", "dim")?,
                dir,
            })
        }
        "switch" => {
            reject_unknown_keys(v, "a switch fault target", &["kind", "node"])?;
            Ok(FaultTarget::Switch { node: get_usize(v, "fault target.node", "node")? })
        }
        other => Err(spec_error(format!(
            "unknown fault target kind {other:?} (expected \"bridge\", \"torus_link\" or \
             \"switch\")"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimError;
    use mcnet_system::{organizations, TorusSystem, TrafficConfig};

    fn bridge(cluster: usize) -> FaultTarget {
        FaultTarget::Bridge { cluster, unit: BridgeUnit::Concentrator }
    }

    fn down_up(target: FaultTarget, down: f64, up: f64) -> Vec<FaultEvent> {
        vec![
            FaultEvent { at: down, target, action: FaultAction::Down },
            FaultEvent { at: up, target, action: FaultAction::Up },
        ]
    }

    #[test]
    fn shape_validation_accepts_alternating_schedules() {
        let mut events = down_up(bridge(0), 10.0, 20.0);
        events.extend(down_up(bridge(1), 5.0, 40.0));
        events.extend(down_up(bridge(0), 30.0, 35.0));
        assert!(FaultPlan::new(events).validate().is_ok());
        assert!(FaultPlan::new(Vec::new()).validate().is_ok(), "an empty plan is a no-op");
    }

    #[test]
    fn shape_validation_rejects_malformed_plans() {
        // Up before any down.
        let up_first = FaultPlan::new(vec![FaultEvent {
            at: 1.0,
            target: bridge(0),
            action: FaultAction::Up,
        }]);
        assert!(matches!(up_first.validate(), Err(SimError::InvalidSpec { .. })));
        // Double down on one target.
        let double_down = FaultPlan::new(vec![
            FaultEvent { at: 1.0, target: bridge(0), action: FaultAction::Down },
            FaultEvent { at: 2.0, target: bridge(0), action: FaultAction::Down },
        ]);
        assert!(matches!(double_down.validate(), Err(SimError::InvalidSpec { .. })));
        // Non-increasing per-target times.
        let tied = FaultPlan::new(down_up(bridge(0), 5.0, 5.0));
        assert!(matches!(tied.validate(), Err(SimError::InvalidSpec { .. })));
        // Negative and non-finite times.
        for at in [-1.0, f64::NAN, f64::INFINITY] {
            let plan = FaultPlan::new(vec![FaultEvent {
                at,
                target: bridge(0),
                action: FaultAction::Down,
            }]);
            assert!(matches!(plan.validate(), Err(SimError::InvalidSpec { .. })), "at={at}");
        }
        // Retry-policy bounds.
        let mut plan = FaultPlan::new(down_up(bridge(0), 1.0, 2.0));
        plan.max_attempts = 0;
        assert!(plan.validate().is_err());
        plan.max_attempts = 5;
        plan.retry_base = 0.0;
        assert!(plan.validate().is_err());
        plan.retry_base = 50.0;
        plan.window = f64::INFINITY;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn fabric_validation_checks_kinds_and_ranges() {
        let tree = Fabric::Tree(organizations::small_test_org());
        let torus = Fabric::Torus(TorusSystem::new(4, 2).unwrap());

        let bridge_plan = FaultPlan::new(down_up(bridge(0), 1.0, 2.0));
        assert!(bridge_plan.validate_against(&tree).is_ok());
        assert!(bridge_plan.validate_against(&torus).is_err(), "bridge needs a tree");
        let far_bridge = FaultPlan::new(down_up(bridge(99), 1.0, 2.0));
        assert!(far_bridge.validate_against(&tree).is_err(), "cluster out of range");

        let link = FaultTarget::TorusLink { node: 5, dim: 0, dir: RingDir::Plus };
        let link_plan = FaultPlan::new(down_up(link, 1.0, 2.0));
        assert!(link_plan.validate_against(&torus).is_ok());
        assert!(link_plan.validate_against(&tree).is_err(), "torus_link needs a torus");
        let far_node = FaultTarget::TorusLink { node: 16, dim: 0, dir: RingDir::Plus };
        assert!(FaultPlan::new(down_up(far_node, 1.0, 2.0)).validate_against(&torus).is_err());
        let far_dim = FaultTarget::TorusLink { node: 0, dim: 2, dir: RingDir::Plus };
        assert!(FaultPlan::new(down_up(far_dim, 1.0, 2.0)).validate_against(&torus).is_err());

        let switch = FaultTarget::Switch { node: 15 };
        assert!(FaultPlan::new(down_up(switch, 1.0, 2.0)).validate_against(&torus).is_ok());
        assert!(FaultPlan::new(down_up(switch, 1.0, 2.0)).validate_against(&tree).is_err());
        let far_switch = FaultTarget::Switch { node: 16 };
        assert!(FaultPlan::new(down_up(far_switch, 1.0, 2.0)).validate_against(&torus).is_err());
    }

    #[test]
    fn resolution_names_the_expected_channels() {
        let traffic = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();

        let system = organizations::small_test_org();
        let backend = FabricBackend::tree(&system, &traffic).unwrap();
        let plan = FaultPlan::new(vec![
            FaultEvent { at: 5.0, target: bridge(1), action: FaultAction::Down },
            FaultEvent {
                at: 9.0,
                target: FaultTarget::Bridge { cluster: 1, unit: BridgeUnit::Dispatcher },
                action: FaultAction::Down,
            },
        ]);
        let resolved = plan.resolve(&backend).unwrap();
        let bridges = backend.as_tree().unwrap().bridges();
        assert_eq!(resolved[0].channels, vec![bridges.concentrate(1)]);
        assert_eq!(resolved[1].channels, vec![bridges.dispatch(1)]);
        assert_eq!(resolved[0].at, 5.0);
        assert_eq!(resolved[0].action, FaultAction::Down);

        let torus = TorusSystem::new(4, 2).unwrap();
        let backend = FabricBackend::cube(&torus, &traffic).unwrap();
        let cube = backend.as_cube().unwrap();
        let link = FaultTarget::TorusLink { node: 5, dim: 1, dir: RingDir::Minus };
        let plan = FaultPlan::new(down_up(link, 1.0, 2.0));
        let resolved = plan.resolve(&backend).unwrap();
        assert_eq!(resolved[0].channels, cube.directed_link_channels(5, 1, false));
        assert_eq!(resolved[0].channels.len(), 2, "both VCs of the edge go down");
        assert_eq!(resolved[1].channels, resolved[0].channels, "up mirrors down");

        let plan = FaultPlan::new(down_up(FaultTarget::Switch { node: 7 }, 1.0, 2.0));
        assert_eq!(plan.resolve(&backend).unwrap()[0].channels, cube.switch_channels(7));

        // Kind mismatches are typed errors at resolution too.
        assert!(FaultPlan::new(down_up(bridge(0), 1.0, 2.0)).resolve(&backend).is_err());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let mut plan = FaultPlan::new(vec![
            FaultEvent { at: 100.0, target: bridge(0), action: FaultAction::Down },
            FaultEvent {
                at: 150.0,
                target: FaultTarget::TorusLink { node: 3, dim: 1, dir: RingDir::Minus },
                action: FaultAction::Down,
            },
            FaultEvent { at: 200.0, target: bridge(0), action: FaultAction::Up },
            FaultEvent {
                at: 300.0,
                target: FaultTarget::Switch { node: 9 },
                action: FaultAction::Down,
            },
        ]);
        plan.max_attempts = 7;
        plan.retry_base = 25.0;
        plan.window = 400.0;
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        // Fixed point: render → parse → render is stable.
        assert_eq!(back.to_json().to_pretty(), json.to_pretty());
        // Defaults apply when the policy keys are omitted.
        let minimal = Json::parse(r#"{"events": []}"#).unwrap();
        let parsed = FaultPlan::from_json(&minimal).unwrap();
        assert_eq!(parsed.max_attempts, FaultPlan::DEFAULT_MAX_ATTEMPTS);
        assert_eq!(parsed.retry_base, FaultPlan::DEFAULT_RETRY_BASE);
        assert_eq!(parsed.window, FaultPlan::DEFAULT_WINDOW);
    }

    #[test]
    fn malformed_json_plans_are_rejected() {
        for bad in [
            r#"{"events": [{"at": 1.0, "action": "sideways",
                "target": {"kind": "switch", "node": 0}}]}"#,
            r#"{"events": [{"at": 1.0, "action": "down", "target": {"kind": "warp"}}]}"#,
            r#"{"events": [{"at": 1.0, "action": "down",
                "target": {"kind": "switch", "node": 0}, "extra": 1}]}"#,
            r#"{"events": [{"at": 1.0, "action": "down",
                "target": {"kind": "switch", "node": 0, "extra": 1}}]}"#,
            r#"{"events": [{"at": -1.0, "action": "down",
                "target": {"kind": "switch", "node": 0}}]}"#,
            r#"{"events": [{"at": 1.0, "action": "up",
                "target": {"kind": "switch", "node": 0}}]}"#,
            r#"{"events": [{"at": 1e999, "action": "down",
                "target": {"kind": "switch", "node": 0}}]}"#,
            r#"{"events": [{"action": "down", "target": {"kind": "switch", "node": 0}}]}"#,
            r#"{"events": 7}"#,
            r#"{"max_attempts": 5}"#,
            r#"{"events": [], "bogus": 1}"#,
            r#"{"events": [], "max_attempts": "many"}"#,
        ] {
            // Non-finite literals (1e999) already die in the JSON parser; the
            // rest must fall out of `from_json` as typed spec errors.
            let rejected = match Json::parse(bad) {
                Err(_) => true,
                Ok(doc) => {
                    matches!(FaultPlan::from_json(&doc), Err(SimError::InvalidSpec { .. }))
                }
            };
            assert!(rejected, "must reject {bad}");
        }
    }
}
