//! The simulation engine: event dispatch and the wormhole state machine.
//!
//! The engine advances messages through three phases:
//!
//! 1. **Acquisition** — the header acquires the channels of its path one at a time
//!    (FIFO per channel), holding everything acquired so far; crossing a channel takes
//!    that channel's per-flit time.
//! 2. **Drain** — once the header has acquired the whole path, the remaining `M − 1`
//!    flits stream behind it at the path's bottleneck channel rate.
//! 3. **Release** — each channel is released when the tail flit passes it: channel `k`
//!    of an `L`-channel path is freed `max(0, M − L + k)` bottleneck flit-times after
//!    header delivery (so the injection channel is held for roughly one message
//!    transfer, and the last channel until the tail is delivered). All release times
//!    become known at header delivery, so channels with nobody waiting are freed
//!    *lazily* by timestamp (no event); only contended channels cost a hand-off
//!    event, which grants the channel to the oldest waiter at exactly its free time.
//!
//! Message generation never enters the future-event list: per-node Poisson
//! arrivals live in a dedicated [`ArrivalQueue`] (re-arming a node replays
//! one leaf-to-root path of its loser tree), and the main loop fires whichever of (earliest event,
//! earliest arrival) comes first — the future-event list wins exact ties.
//! Delivered messages are retired immediately: their latency folds into the
//! statistics at the `TailArrived` event and their [`MessageSlab`] slot is
//! recycled, so engine memory tracks the in-flight population, not the run
//! length.
//!
//! A generated message does not become a message until it is granted its
//! injection channel. Until then it is a 24-byte `SourceRecord` waiting in
//! that channel's FIFO under a tagged id (`SOURCE_TAG`); the grant
//! (`channel_granted`) promotes it — slab slot, composed route,
//! adaptive side-state — and relabels the channel's holder. Acquisition,
//! hand-off and release see exactly the FIFO they would see with eager
//! messages, so the event stream is unchanged, while a saturated run's
//! open-loop backlog costs a record each instead of a message plus a route.
//!
//! Because routes in the fat-tree (and across the ECN1 → bridge → ICN2 → bridge → ECN1
//! chain) acquire resources in a globally consistent up-then-down order, the channel
//! wait-for graph is acyclic and the simulation cannot deadlock.

use crate::arrivals::ArrivalQueue;
use crate::backend::FabricBackend;
use crate::channels::{Acquire, ChannelPool, GlobalChannelId};
use crate::event::{EventKind, EventQueue, MessageId};
use crate::fault::{FaultAction, FaultPlan};
use crate::message::{MessageSlab, MessageState, RecordSlab, SourceRecord, SOURCE_TAG};
use crate::policy::RoutingPolicy;
use crate::routes::{RouteEntry, RouteMeta, RouteTable};
use crate::runner::SimConfig;
use crate::stats::{Delivery, SimStats};
use crate::traffic_source::{self, TrafficSource, TrafficSourceSpec};
use crate::{Result, SimError};
use mcnet_system::{MultiClusterSystem, TorusSystem, TrafficConfig};
use mcnet_topology::kary_ncube::CubeHop;
use mcnet_topology::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed offset separating the adaptive-routing RNG stream from the traffic
/// stream (the 64-bit golden-ratio constant). Routing decisions never consume
/// traffic draws, so enabling a policy cannot perturb arrival times or
/// destinations — and two policies see uncorrelated choice streams for the
/// same scenario seed.
const ROUTE_RNG_SEED_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-message adaptive routing state, kept in a side table indexed by slab
/// slot so [`MessageState`] stays within its 40-byte budget. `cur`/`wrapped`
/// are only meaningful under [`RoutingPolicy::AdaptiveTorus`]; the randomized
/// tree policy uses just the endpoints (to re-randomize on retransmission).
#[derive(Debug, Clone, Copy, Default)]
struct AdaptiveState {
    /// Source node (retransmissions restart here).
    src: u32,
    /// Destination node.
    dst: u32,
    /// Node the header currently sits at (next hop leaves from here).
    cur: u32,
    /// Bitmask of dimensions whose wrap edge the message has crossed — the
    /// escape class must stay on VC1 in those dimensions (dateline rule).
    wrapped: u8,
}

/// One simulation run over a fixed fabric backend, traffic point and seed.
#[derive(Debug)]
pub struct Simulation {
    backend: FabricBackend,
    routes: RouteTable,
    pool: ChannelPool,
    queue: EventQueue,
    arrivals: ArrivalQueue,
    arrivals_processed: u64,
    messages: MessageSlab,
    /// The source-queue backlog: generated messages not yet granted their
    /// injection channel.
    records: RecordSlab,
    /// The randomized up\*/down\* path of each record slot, drawn at
    /// generation (empty under every other policy).
    record_routes: Vec<RouteEntry>,
    /// High-water mark of messages plus records over the current run.
    peak_in_flight: usize,
    traffic: TrafficSource,
    /// The plain-data description `traffic` was built from; a
    /// [`reset`](Self::reset) with an equal spec rebinds the existing source
    /// in place, a different spec rebuilds it over the same partition.
    source_spec: TrafficSourceSpec,
    /// The node partition the source samples over (cluster ranges on the
    /// tree, dimension-0 sub-rings on the torus) — kept for source rebuilds.
    cluster_ranges: Vec<(usize, usize)>,
    stats: SimStats,
    rng: SmallRng,
    message_flits: f64,
    /// Flit length the backend's channel times were built with — a
    /// [`reset`](Self::reset) must keep the same message geometry or the
    /// baked flit times would be stale.
    flit_bytes: f64,
    generation_target: u64,
    max_events: u64,
    /// Retry budget per message under fault injection (delivery attempts).
    fault_max_attempts: u32,
    /// Base retransmission backoff; failure `i` retries after
    /// `fault_retry_base · 2^(i−1)`.
    fault_retry_base: f64,
    /// How itineraries are chosen (mirrors `backend.routing_policy()`).
    policy: RoutingPolicy,
    /// Dedicated RNG stream for routing decisions, isolated from `rng` so
    /// deterministic-mode runs draw exactly the pre-policy stream.
    route_rng: SmallRng,
    /// Per-slab-slot adaptive state (empty under deterministic routing).
    adaptive: Vec<AdaptiveState>,
    /// Reusable buffers for adaptive candidate enumeration and randomized
    /// tree-path construction — no per-message allocation in steady state.
    hop_scratch: Vec<CubeHop>,
    cand_scratch: Vec<(GlobalChannelId, u8)>,
    local_scratch: Vec<mcnet_topology::graph::ChannelId>,
    global_scratch: Vec<GlobalChannelId>,
    /// The deterministic path a randomized draw is compared against.
    reference_scratch: Vec<GlobalChannelId>,
}

impl Simulation {
    /// Builds a simulation over the paper's multi-cluster tree fabric under a
    /// routing policy ([`RoutingPolicy::Deterministic`] or
    /// [`RoutingPolicy::RandomizedUpDown`]), a traffic source and an optional
    /// fault-injection plan. A `Some` plan schedules its
    /// `ChannelDown`/`ChannelUp` events up front and arms the retry policy.
    pub fn new_full(
        system: &MultiClusterSystem,
        traffic_cfg: &TrafficConfig,
        config: &SimConfig,
        faults: Option<&FaultPlan>,
        policy: RoutingPolicy,
        source: &TrafficSourceSpec,
    ) -> Result<Self> {
        let backend = FabricBackend::tree_with(system, traffic_cfg, policy)?;
        let cluster_ranges = traffic_source::cluster_ranges(system);
        Self::from_backend(backend, cluster_ranges, source, traffic_cfg, config, faults)
    }

    /// Builds a simulation over a k-ary n-cube (torus) fabric under a routing
    /// policy ([`RoutingPolicy::Deterministic`] or
    /// [`RoutingPolicy::AdaptiveTorus`]); otherwise as [`new_full`](Self::new_full).
    pub fn new_torus_full(
        torus: &TorusSystem,
        traffic_cfg: &TrafficConfig,
        config: &SimConfig,
        faults: Option<&FaultPlan>,
        policy: RoutingPolicy,
        source: &TrafficSourceSpec,
    ) -> Result<Self> {
        let backend = FabricBackend::cube_with(torus, traffic_cfg, policy)?;
        let cluster_ranges = torus.neighborhood_ranges();
        Self::from_backend(backend, cluster_ranges, source, traffic_cfg, config, faults)
    }

    /// Builds the simulation state shared by every backend — route table,
    /// channel pool, traffic source over the node partition `cluster_ranges`
    /// — and ends in the same [`rewind`](Self::rewind) as [`reset`](Self::reset).
    fn from_backend(
        backend: FabricBackend,
        cluster_ranges: Vec<(usize, usize)>,
        source: &TrafficSourceSpec,
        traffic_cfg: &TrafficConfig,
        config: &SimConfig,
        faults: Option<&FaultPlan>,
    ) -> Result<Self> {
        let nodes = backend.total_nodes();
        let traffic = source.build(traffic_cfg, nodes, cluster_ranges.clone())?;
        config.validate()?;
        let routes = RouteTable::build(&backend)?;
        let pool = backend.channel_pool();
        // Pending events stay bounded by 2·nodes + channels (one HeaderAdvance
        // per crossing message — its source's injection channel is held; one
        // TailArrived per draining message — its destination's ejection channel
        // is held; at most one ChannelFree per channel; waiters and arrivals
        // carry no event). In practice it stays far below that bound (16–37
        // events on organization B at the paper protocol). HeaderAdvance and
        // TailArrived are scheduled a constant delay ahead and ride the
        // queue's FIFO delay lanes; ChannelFree wake-ups, fault events and
        // retransmissions beyond the claimed lanes ride its heap. The lane
        // rings and the heap grow to their peaks and keep that capacity
        // across resets.
        let policy = backend.routing_policy();
        let mut sim = Simulation {
            backend,
            routes,
            pool,
            queue: EventQueue::new(),
            arrivals: ArrivalQueue::with_capacity(nodes),
            arrivals_processed: 0,
            // The slab grows to the peak population inside the network, which
            // stays near the node count at any load: every live message holds
            // or drains at least one channel. The source-queue backlog, which
            // grows without bound past saturation (generation is open-loop),
            // waits as records instead and grows its own slab.
            messages: MessageSlab::with_capacity(nodes),
            records: RecordSlab::with_capacity(0),
            record_routes: Vec::new(),
            peak_in_flight: 0,
            traffic,
            source_spec: source.clone(),
            cluster_ranges,
            // Per-run fields start as placeholders: `rewind` sizes the
            // statistics, seeds the RNG streams and sets the run targets.
            stats: SimStats::new(0, 0, 0.0),
            rng: SmallRng::seed_from_u64(0),
            message_flits: traffic_cfg.message_flits as f64,
            flit_bytes: traffic_cfg.flit_bytes,
            generation_target: 0,
            max_events: 0,
            fault_max_attempts: 0,
            fault_retry_base: 0.0,
            policy,
            route_rng: SmallRng::seed_from_u64(0),
            adaptive: Vec::new(),
            hop_scratch: Vec::new(),
            cand_scratch: Vec::new(),
            local_scratch: Vec::new(),
            global_scratch: Vec::new(),
            reference_scratch: Vec::new(),
        };
        sim.rewind(config, faults)?;
        Ok(sim)
    }

    /// Rewinds a finished simulation for a fresh run over the **same fabric,
    /// routing policy and message geometry**, reusing every grown allocation:
    /// the future-event heap and lane rings, the channel pool and its waiter
    /// arena, the message and record slabs, the route arena (with its region free lists),
    /// the per-node arrival queue, the latency histogram and the adaptive
    /// scratch buffers.
    /// The traffic rate and pattern, the seed, the measurement
    /// protocol and the fault plan may all change between runs — which is
    /// exactly the shape of a replication loop or a campaign sweep, where a
    /// reused engine allocates like a single run.
    ///
    /// Reset-then-run is bit-identical to building a fresh simulation with
    /// the same parameters: every reused structure either rewinds to its
    /// exact post-construction state or is layout-transparent by contract
    /// (the event queue's (time, seq) pop order, the route arena's offsets), and both
    /// paths end in the same per-run set-up.
    ///
    /// Fails if the message geometry (flit count or flit length) differs from
    /// the one the fabric's channel times were built with — such a change
    /// needs a rebuilt backend, not a reset.
    pub fn reset(
        &mut self,
        traffic_cfg: &TrafficConfig,
        source: &TrafficSourceSpec,
        config: &SimConfig,
        faults: Option<&FaultPlan>,
    ) -> Result<()> {
        config.validate()?;
        if traffic_cfg.message_flits as f64 != self.message_flits
            || traffic_cfg.flit_bytes != self.flit_bytes
        {
            return Err(SimError::InvalidConfiguration {
                reason: format!(
                    "reset changes the message geometry ({} flits of {} bytes -> {} flits of {} \
                     bytes); rebuild the simulation instead",
                    self.message_flits,
                    self.flit_bytes,
                    traffic_cfg.message_flits,
                    traffic_cfg.flit_bytes
                ),
            });
        }
        // Same source spec: rebind in place (rewinds per-node state to its
        // post-construction value). A different spec rebuilds the source over
        // the same node partition — the fabric does not change, so a reset
        // can still hop between source kinds (campaign burstiness axes).
        if *source == self.source_spec {
            self.traffic.rebind(traffic_cfg)?;
        } else {
            self.traffic = source.build(
                traffic_cfg,
                self.backend.total_nodes(),
                self.cluster_ranges.clone(),
            )?;
            self.source_spec = source.clone();
        }
        self.routes.begin_run();
        self.pool.reset();
        self.queue.reset();
        self.arrivals_processed = 0;
        // A completed run is quiescent: every generated message was delivered
        // or dropped, so nothing is in flight (the waiter arena asserts the
        // same invariant inside `pool.reset`). Resetting an *aborted* run
        // (event budget exhausted mid-flight) is a caller bug — the engine's
        // carried state only rewinds cleanly from quiescence.
        debug_assert_eq!(self.messages.live(), 0, "reset with messages still in flight");
        debug_assert_eq!(self.records.live(), 0, "reset with sources still queued");
        self.messages.clear();
        self.records.clear();
        self.record_routes.clear();
        self.adaptive.clear();
        self.rewind(config, faults)
    }

    /// The per-run set-up both construction and [`reset`](Self::reset) end
    /// in, over an empty event queue: sizes the statistics, sets the run
    /// targets, seeds the RNG streams, rebuilds the arrival queue with every
    /// node's first arrival and materializes the fault plan.
    fn rewind(&mut self, config: &SimConfig, faults: Option<&FaultPlan>) -> Result<()> {
        let expected_scale = self.message_flits * self.backend.drain_scale();
        self.stats.reset(config.warmup_messages, config.measured_messages, expected_scale);
        self.max_events = config.max_events;
        self.peak_in_flight = 0;
        self.fault_max_attempts = FaultPlan::DEFAULT_MAX_ATTEMPTS;
        self.fault_retry_base = FaultPlan::DEFAULT_RETRY_BASE;
        self.rng = SmallRng::seed_from_u64(config.seed);
        self.route_rng = SmallRng::seed_from_u64(config.seed ^ ROUTE_RNG_SEED_OFFSET);
        // Finite sources (trace replay) cap the run at their record count: the
        // run then delivers exactly the trace, whatever the protocol asks for.
        self.generation_target = self.stats.generation_target(config.drain_messages);
        if let Some(limit) = self.traffic.message_limit() {
            self.generation_target = self.generation_target.min(limit);
        }
        // Prime every node's arrival process in node order. A `None` means the
        // node never generates (e.g. absent from a trace) and is simply not
        // armed.
        let (traffic, rng) = (&mut self.traffic, &mut self.rng);
        self.arrivals.rebuild(
            (0..self.backend.total_nodes()).map(|node| traffic.next_arrival(rng, node, 0.0)),
        );
        // Materialize the fault plan: every resolved target channel gets its
        // own timed down/up event (switch faults fan out to the whole incident
        // set). Fault-free runs take none of this — the event mix, RNG draw
        // order and statistics stay bit-identical to the pre-fault engine.
        if let Some(plan) = faults {
            plan.validate()?;
            self.fault_max_attempts = plan.max_attempts;
            self.fault_retry_base = plan.retry_base;
            self.stats.enable_windows(plan.window);
            for fault in plan.resolve(&self.backend)? {
                for &channel in &fault.channels {
                    let kind = match fault.action {
                        FaultAction::Down => EventKind::ChannelDown { channel },
                        FaultAction::Up => EventKind::ChannelUp { channel },
                    };
                    self.queue.schedule_at(fault.at, kind);
                }
            }
        }
        Ok(())
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.queue.now()
    }

    /// The statistics accumulator.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The channel pool (for diagnostics such as the contention ratio).
    pub fn pool(&self) -> &ChannelPool {
        &self.pool
    }

    /// The route table (for diagnostics and equivalence tests).
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Number of events processed so far: future-event-list events plus fired
    /// arrivals (so the count stays comparable with the event-per-message
    /// accounting of earlier engines, which scheduled arrivals as events).
    pub fn events_processed(&self) -> u64 {
        self.queue.processed() + self.arrivals_processed
    }

    /// Peak number of simultaneously in-flight messages over the run so far:
    /// messages in the network plus the source-queue backlog.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Generated messages currently waiting in their source queues for their
    /// injection channel.
    pub fn source_backlog(&self) -> usize {
        self.records.live()
    }

    /// The fabric backend the simulation runs over.
    pub fn backend(&self) -> &FabricBackend {
        &self.backend
    }

    /// `(mean, max)` time-average utilisation of the concentrator/dispatcher bridge
    /// resources — the quantity the model's Eq. (33) approximates with an M/D/1 queue.
    /// The torus backend has no bridges, so it reports `(0, 0)`.
    pub fn bridge_utilization(&self) -> (f64, f64) {
        let ids = self.backend.bridge_channels();
        self.pool.utilization_summary(ids, self.queue.now())
    }

    /// `(mean, max)` time-average utilisation over every network channel (excluding
    /// the tree's bridges) — comparable with the model's per-channel rates `η·M·t`
    /// of Eqs. (10)–(12).
    pub fn network_utilization(&self) -> (f64, f64) {
        let backend = &self.backend;
        let ids = (0..self.pool.len() as u32).filter(move |&c| !backend.is_bridge(c));
        self.pool.utilization_summary(ids, self.queue.now())
    }

    /// Checks the engine's bookkeeping at an event boundary and returns the
    /// first violation:
    ///
    /// * conservation — generated = delivered + dropped + messages in the
    ///   network + queued source records;
    /// * every channel holder is a live message, never a source record;
    /// * every waiter is live, and every live source record waits in exactly
    ///   one FIFO: its own injection channel's;
    /// * the waiter arena is partitioned ([`ChannelPool::audit`]);
    /// * the route regions balance ([`RouteTable::audit`]), with one live
    ///   region per message (plus one per randomized record, whose path is
    ///   drawn at generation).
    ///
    /// A diagnostic for tests: it walks every channel and allocates, so the
    /// run loop never calls it.
    pub fn audit(&self) -> std::result::Result<(), String> {
        let stats = &self.stats;
        let (in_network, queued) = (self.messages.live() as u64, self.records.live() as u64);
        let finished = stats.delivered() + stats.dropped();
        if stats.generated() != finished + in_network + queued {
            return Err(format!(
                "{} generated != {finished} delivered or dropped + {in_network} in the network + \
                 {queued} queued",
                stats.generated()
            ));
        }
        let live_messages = self.messages.live_mask();
        let live_records = self.records.live_mask();
        let live = |mask: &[bool], id: u32| mask.get(id as usize) == Some(&true);
        let mut record_waits = vec![0u32; live_records.len()];
        for ch in 0..self.pool.len() as GlobalChannelId {
            if let Some(holder) = self.pool.holder(ch) {
                if !live(&live_messages, holder) {
                    return Err(format!("channel {ch} is held by {holder:#x}, not a live message"));
                }
            }
            for waiter in self.pool.waiters(ch) {
                if waiter & SOURCE_TAG == 0 {
                    if !live(&live_messages, waiter) {
                        return Err(format!("channel {ch} queues a dead message {waiter}"));
                    }
                    continue;
                }
                let slot = waiter & !SOURCE_TAG;
                if !live(&live_records, slot) {
                    return Err(format!("channel {ch} queues a dead source record {slot}"));
                }
                let record = &self.records[slot];
                let (src, dst) = (record.src as usize, record.dst as usize);
                if self.routes.injection(&self.backend, src, dst) != ch {
                    return Err(format!("source record {slot} waits on {ch}, not its injection"));
                }
                record_waits[slot as usize] += 1;
            }
        }
        if let Some(slot) =
            (0..live_records.len()).find(|&r| live_records[r] && record_waits[r] != 1)
        {
            return Err(format!("source record {slot} waits in {} FIFOs", record_waits[slot]));
        }
        self.pool.audit()?;
        self.routes.audit()?;
        let drawn = if self.policy == RoutingPolicy::RandomizedUpDown { queued } else { 0 };
        let regions = self.routes.live_scratch_routes() as u64;
        if regions != in_network + drawn {
            return Err(format!(
                "{regions} live route regions for {in_network} messages + {drawn} drawn paths"
            ));
        }
        Ok(())
    }

    /// Runs the simulation until every generated message has been delivered.
    pub fn run(&mut self) -> Result<()> {
        // Hoisted loop bookkeeping: the event budget as a plain countdown, and
        // the finished-message target (delivered + dropped can never exceed
        // generated, so `finished >= target` alone implies the generation
        // phase is over too). Both replace multi-field reads per event.
        let mut budget = self.max_events.saturating_add(1).saturating_sub(self.events_processed());
        let target = self.generation_target;
        loop {
            if budget == 0 {
                return Err(SimError::EventBudgetExhausted {
                    events: self.events_processed(),
                    delivered: self.stats.delivered(),
                });
            }
            budget -= 1;
            // Fire whichever comes first: the earliest future event or the
            // earliest batched arrival. Exact ties go to the event list (a
            // fixed contract; see PERFORMANCE.md).
            let event_time = self.queue.peek_time();
            let arrival = self.arrivals.peek();
            let fire_arrival = match (event_time, arrival) {
                (Some(e), Some((a, _))) => a < e,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            if fire_arrival {
                let (time, node) = arrival.expect("checked above");
                self.queue.advance_to(time);
                self.arrivals_processed += 1;
                self.handle_generate(node as usize);
            } else {
                let event = self.queue.pop().expect("checked above");
                match event.kind {
                    EventKind::HeaderAdvance { message } => self.handle_header_advance(message),
                    EventKind::ChannelFree { channel } => self.handle_channel_free(channel),
                    EventKind::TailArrived { message } => self.handle_tail_arrived(message),
                    EventKind::ChannelDown { channel } => self.handle_channel_down(channel),
                    EventKind::ChannelUp { channel } => self.pool.set_disabled(channel, false),
                    EventKind::Retransmit { message } => self.handle_retransmit(message),
                }
            }
            // A message leaves the system by delivery or (under faults) by
            // exhausting its retry budget; the run ends when every generated
            // message has done one or the other. `dropped` is zero on the
            // fault-free path, so the condition degenerates to the original.
            if self.stats.delivered() + self.stats.dropped() >= target {
                break;
            }
        }
        Ok(())
    }

    // ---- event handlers -----------------------------------------------------------

    fn handle_generate(&mut self, node: usize) {
        if self.stats.generated() >= self.generation_target {
            self.arrivals.clear(); // generation phase is over; let the network drain
            return;
        }
        // Sample the message as a source record: it becomes a message, with a
        // route region, only when its injection channel is granted
        // (`channel_granted`). Randomized tree paths are the exception: they
        // are drawn here, in generation order, which fixes the route-RNG
        // stream, and wait beside the record.
        let dst = self.traffic.destination(&mut self.rng, node);
        let drawn = match self.policy {
            RoutingPolicy::RandomizedUpDown => Some(self.randomized_entry(node, dst)),
            _ => None,
        };
        let (gen_id, measured) = self.stats.register_generation();
        let now = self.queue.now();
        let record = SourceRecord {
            generation_time: now,
            src: node as u32,
            dst: dst as u32,
            gen_id: gen_id as u32,
            measured,
        };
        let live = self.messages.live() + self.records.live() + 1;
        self.peak_in_flight = self.peak_in_flight.max(live);
        let injection = self.routes.injection(&self.backend, node, dst);
        debug_assert!(
            drawn.is_none_or(|entry| self.routes.channels(entry.route)[0] == injection),
            "a randomized path left its source on another injection channel"
        );
        if self.pool.is_disabled(injection) {
            // A faulted injection channel fails the attempt on the spot.
            let id = self.materialize(record, drawn);
            self.abort_message(id, true);
        } else {
            let slot = self.records.insert(record);
            if let Some(entry) = drawn {
                if slot as usize == self.record_routes.len() {
                    self.record_routes.push(entry);
                } else {
                    self.record_routes[slot as usize] = entry;
                }
            }
            let waiter = slot | SOURCE_TAG;
            match self.pool.acquire(injection, waiter, now) {
                Acquire::Granted => self.channel_granted(waiter, injection),
                Acquire::QueuedUntil(free_at) => {
                    self.queue.schedule_at(free_at, EventKind::ChannelFree { channel: injection });
                }
                Acquire::Queued => {}
            }
        }

        // Keep this node's arrival process alive while the generation phase
        // lasts: one in-place re-arm of the arrival queue, no event round-trip.
        // An exhausted node (finite trace) is retired with a single pop.
        if self.stats.generated() < self.generation_target {
            match self.traffic.next_arrival(&mut self.rng, node, now) {
                Some(next) => {
                    debug_assert!(
                        next >= now,
                        "traffic source re-armed node {node} into the past ({next} < {now})"
                    );
                    self.arrivals.replace_min(next);
                }
                None => {
                    self.arrivals.pop_min();
                }
            }
        } else {
            self.arrivals.clear();
        }
    }

    /// Turns a source record into a message: takes a slab slot, composes the
    /// route into a region (or adopts the randomized path drawn at
    /// generation) and sets the adaptive side-state.
    fn materialize(&mut self, record: SourceRecord, drawn: Option<RouteEntry>) -> MessageId {
        let (src, dst) = (record.src as usize, record.dst as usize);
        let entry = match (drawn, self.policy) {
            (Some(entry), _) => entry,
            (None, RoutingPolicy::AdaptiveTorus { .. }) => self.adaptive_entry(src, dst),
            (None, _) => self.routes.entry(&self.backend, src, dst),
        };
        let message =
            MessageState::new(entry, record.generation_time, record.measured, record.gen_id);
        let id = self.messages.insert(message);
        if !self.policy.is_deterministic() {
            if self.adaptive.len() <= id as usize {
                self.adaptive.resize(id as usize + 1, AdaptiveState::default());
            }
            self.adaptive[id as usize] =
                AdaptiveState { src: record.src, dst: record.dst, cur: record.src, wrapped: 0 };
        }
        id
    }

    /// Promotes a queued source record (a waiter id tagged with `SOURCE_TAG`) to a
    /// message, retiring the record.
    fn promote(&mut self, waiter: MessageId) -> MessageId {
        let slot = waiter & !SOURCE_TAG;
        let record = self.records.remove(slot);
        let drawn = (self.policy == RoutingPolicy::RandomizedUpDown)
            .then(|| self.record_routes[slot as usize]);
        self.materialize(record, drawn)
    }

    /// Builds the route entry of an adaptive-torus message: a scratch region of
    /// `distance + 2` slots with the injection and ejection channels
    /// pre-written. The link slots in between are committed one hop at a time
    /// as the header acquires channels
    /// ([`choose_adaptive_channel`](Self::choose_adaptive_channel)) — minimal
    /// adaptivity fixes the path *length* (and therefore the drain bottleneck
    /// and classification) before a single hop is chosen.
    fn adaptive_entry(&mut self, src: usize, dst: usize) -> RouteEntry {
        let cube = self.backend.as_cube().expect("AdaptiveTorus runs on the cube backend");
        let hops = cube
            .cube()
            .distance(NodeId::from_index(src), NodeId::from_index(dst))
            .expect("traffic sampled an out-of-range node pair");
        let injection = cube.injection(src);
        let ejection = cube.ejection(dst);
        let bottleneck = cube.t_link().max(cube.t_node());
        let src_cluster = cube.neighborhood_of(src) as u32;
        let dst_cluster = cube.neighborhood_of(dst) as u32;
        let route = self.routes.alloc_scratch(hops + 2);
        self.routes.set_channel(route, 0, injection);
        self.routes.set_channel(route, hops + 1, ejection);
        RouteEntry { route, bottleneck, src_cluster, dst_cluster }
    }

    /// Builds the route entry of a randomized up\*/down\* tree message: a fresh
    /// legal path drawn from the candidate set into a scratch region.
    fn randomized_entry(&mut self, src: usize, dst: usize) -> RouteEntry {
        let meta = self.draw_random_path(src, dst);
        let route = self.routes.alloc_scratch(self.global_scratch.len());
        self.routes.fill_scratch(route, &self.global_scratch);
        meta.with_route(route)
    }

    /// Draws a fresh randomized up\*/down\* path for `src → dst` into
    /// `global_scratch`, counting a misroute when it differs from the pair's
    /// deterministic path. Returns the deterministic path's metadata: the
    /// bottleneck and clusters do not depend on the randomization.
    fn draw_random_path(&mut self, src: usize, dst: usize) -> RouteMeta {
        let det = self.routes.compose_into(&self.backend, src, dst, &mut self.reference_scratch);
        let fabric = self.backend.as_tree().expect("RandomizedUpDown runs on the tree backend");
        let rng = &mut self.route_rng;
        fabric
            .build_random_path_into(
                src,
                dst,
                &mut self.local_scratch,
                &mut self.global_scratch,
                &mut |n| rng.gen_range(0..n),
            )
            .expect("randomized path construction failed for a routed pair");
        debug_assert_eq!(
            self.global_scratch.len(),
            self.reference_scratch.len(),
            "randomized path length drifted"
        );
        if self.global_scratch != self.reference_scratch {
            self.stats.record_misroute();
        }
        det
    }

    /// Chooses and requests the next link channel of an adaptive-torus message
    /// (Duato's protocol), committing the choice into the message's scratch
    /// route slot before acquiring so the generic grant/hand-off/abort paths
    /// read a consistent path:
    ///
    /// 1. a uniformly random **free** adaptive-class channel over the minimal
    ///    hops (taking any hop but the dimension-order one is a misroute);
    /// 2. else the escape channel of the dimension-order hop — the dateline VC
    ///    the deterministic route would use — queueing on it if busy;
    /// 3. with the escape channel faulted, the least-queued *enabled* adaptive
    ///    channel (never another dimension's dateline VC, which would break
    ///    the escape class's acyclicity) — faults reroute before burning a
    ///    retry;
    /// 4. with every legal next channel disabled, the attempt aborts.
    fn choose_adaptive_channel(&mut self, id: MessageId) {
        let now = self.queue.now();
        let state = self.adaptive[id as usize];
        let cur = state.cur as usize;
        let (acquired, route) = {
            let msg = &self.messages[id];
            (msg.acquired as usize, msg.route)
        };
        let mut hops = std::mem::take(&mut self.hop_scratch);
        let mut cands = std::mem::take(&mut self.cand_scratch);
        hops.clear();
        cands.clear();

        let cube = self.backend.as_cube().expect("AdaptiveTorus runs on the cube backend");
        cube.cube()
            .adaptive_hops(
                NodeId::from_index(cur),
                NodeId::from_index(state.dst as usize),
                &mut hops,
            )
            .expect("adaptive hop enumeration failed for an in-range pair");
        debug_assert!(!hops.is_empty(), "choose_adaptive_channel called at the destination");

        for (hop_idx, hop) in hops.iter().enumerate() {
            for ch in cube.adaptive_link_channels(cur, hop) {
                if !self.pool.is_disabled(ch) && !self.pool.is_occupied(ch, now) {
                    cands.push((ch, hop_idx as u8));
                }
            }
        }
        let chosen = if !cands.is_empty() {
            let pick = if cands.len() == 1 { 0 } else { self.route_rng.gen_range(0..cands.len()) };
            let (ch, hop_idx) = cands[pick];
            Some((ch, hop_idx as usize))
        } else {
            let dor = &hops[0];
            let wrapped = state.wrapped & (1 << dor.dimension) != 0;
            let escape = cube.escape_channel(cur, dor, wrapped);
            if !self.pool.is_disabled(escape) {
                self.stats.record_escape_fallback();
                Some((escape, 0))
            } else {
                let mut best: Option<(usize, GlobalChannelId, usize)> = None;
                for (hop_idx, hop) in hops.iter().enumerate() {
                    for ch in cube.adaptive_link_channels(cur, hop) {
                        if self.pool.is_disabled(ch) {
                            continue;
                        }
                        let q = self.pool.queue_len(ch);
                        if best.is_none_or(|(bq, _, _)| q < bq) {
                            best = Some((q, ch, hop_idx));
                        }
                    }
                }
                best.map(|(_, ch, hop_idx)| (ch, hop_idx))
            }
        };
        // Copy everything the commit needs out of the borrow region.
        let committed = chosen.map(|(ch, hop_idx)| {
            let hop = hops[hop_idx];
            (ch, hop_idx, hop, cube.hop_wraps(cur, &hop))
        });
        self.hop_scratch = hops;
        self.cand_scratch = cands;

        let Some((channel, hop_idx, hop, wraps)) = committed else {
            // Every legal next channel is disabled: fail the attempt on the
            // spot (no event pending, queued nowhere), like the deterministic
            // engine hitting a downed channel.
            self.abort_message(id, true);
            return;
        };
        if hop_idx != 0 {
            self.stats.record_misroute();
        }
        self.routes.set_channel(route, acquired, channel);
        let st = &mut self.adaptive[id as usize];
        st.cur = hop.node.index() as u32;
        if wraps {
            st.wrapped |= 1 << hop.dimension;
        }
        match self.pool.acquire(channel, id, now) {
            Acquire::Granted => self.channel_granted(id, channel),
            Acquire::QueuedUntil(free_at) => {
                self.queue.schedule_at(free_at, EventKind::ChannelFree { channel });
            }
            Acquire::Queued => {}
        }
    }

    /// Attempts to acquire the next channel of a message's path; if the channel is
    /// busy the message is left waiting in that channel's FIFO (scheduling the
    /// wakeup itself when it is the first to wait on a lazily freed channel).
    fn request_next_channel(&mut self, id: MessageId) {
        // Adaptive-torus link hops (everything between the pre-written
        // injection and ejection slots) go through per-hop candidate
        // selection; the choice happens exactly once per level — queued
        // messages re-enter through the hand-off path, not here.
        if matches!(self.policy, RoutingPolicy::AdaptiveTorus { .. }) {
            let msg = &self.messages[id];
            let acquired = msg.acquired as usize;
            if acquired > 0 && acquired + 1 < msg.route.len() {
                self.choose_adaptive_channel(id);
                return;
            }
        }
        let msg = &self.messages[id];
        let channel = msg
            .next_channel(self.routes.channels(msg.route))
            .expect("request_next_channel called on a finished path");
        // A faulted channel fails the attempt on the spot: no event is pending
        // for the message and it is queued nowhere, so the abort resolves
        // synchronously (drop or backoff retransmission).
        if self.pool.is_disabled(channel) {
            self.abort_message(id, true);
            return;
        }
        match self.pool.acquire(channel, id, self.queue.now()) {
            Acquire::Granted => self.channel_granted(id, channel),
            Acquire::QueuedUntil(free_at) => {
                self.queue.schedule_at(free_at, EventKind::ChannelFree { channel });
            }
            Acquire::Queued => {}
        }
    }

    /// A channel has been granted to a waiter: the header starts crossing it.
    /// A source record granted its injection channel is promoted first, and
    /// the channel relabelled to the new message.
    fn channel_granted(&mut self, waiter: MessageId, channel: GlobalChannelId) {
        let id = if waiter & SOURCE_TAG != 0 {
            let id = self.promote(waiter);
            self.pool.relabel_holder(channel, waiter, id);
            id
        } else {
            waiter
        };
        let msg = &mut self.messages[id];
        let expected = msg.advance(self.routes.channels(msg.route));
        debug_assert_eq!(expected, channel, "granted channel differs from the path order");
        let cross_time = self.pool.flit_time(channel);
        self.queue.schedule_in(cross_time, EventKind::HeaderAdvance { message: id });
    }

    fn handle_header_advance(&mut self, id: MessageId) {
        // A channel-down may have killed this message while its header was mid
        // crossing; the stale event is the hook that resolves the abort.
        if self.messages[id].aborted {
            self.resolve_abort(id);
            return;
        }
        if self.messages[id].header_delivered() {
            // The header reached the destination. The remaining M-1 flits drain behind
            // it at the bottleneck channel rate: channel k of an L-channel path sees
            // the tail pass max(0, M - L + k) flit-times after header delivery, and the
            // tail is delivered (M - 1) flit-times after header delivery. All release
            // times are known now, so every held channel is marked released up front;
            // only channels with actual waiters cost a future hand-off event — the
            // rest free themselves by timestamp.
            let (route, bottleneck) = {
                let msg = &self.messages[id];
                (msg.route, msg.bottleneck_time)
            };
            let path = self.routes.channels(route);
            let path_len = path.len();
            let flits = self.message_flits;
            let now = self.queue.now();
            for (k, &channel) in path.iter().enumerate() {
                let behind = (path_len - 1 - k) as f64;
                let offset = ((flits - 1.0) - behind).max(0.0) * bottleneck;
                if let Some(free_at) = self.pool.mark_released(channel, id, now + offset) {
                    self.queue.schedule_at(free_at, EventKind::ChannelFree { channel });
                }
            }
            let drain = (flits - 1.0).max(0.0) * bottleneck;
            self.queue.schedule_in(drain, EventKind::TailArrived { message: id });
        } else {
            self.request_next_channel(id);
        }
    }

    fn handle_channel_free(&mut self, channel: u32) {
        // Fault aborts can orphan a scheduled wakeup: its waiter was removed
        // and the channel re-acquired, re-released to a later free time, or
        // disabled in the meantime. Those fire into nothing. On a fault-free
        // run the guard is always true (wakeups fire exactly at their free
        // time on an unheld channel), so the event stream is unchanged.
        if !self.pool.can_handoff(channel, self.queue.now()) {
            return;
        }
        if let Some(next) = self.pool.handoff(channel, self.queue.now()) {
            self.channel_granted(next, channel);
        }
    }

    /// A retransmission fires: the message restarts from its source. Adaptive
    /// policies re-derive the route before the new attempt — the torus resets
    /// its hop-by-hop walk, the randomized tree draws a fresh path (same
    /// length, refilled in place) — so a retry can steer around whatever
    /// killed the previous one instead of replaying it.
    fn handle_retransmit(&mut self, id: MessageId) {
        match self.policy {
            RoutingPolicy::Deterministic => {}
            RoutingPolicy::AdaptiveTorus { .. } => {
                let st = &mut self.adaptive[id as usize];
                st.cur = st.src;
                st.wrapped = 0;
            }
            RoutingPolicy::RandomizedUpDown => {
                let st = self.adaptive[id as usize];
                self.draw_random_path(st.src as usize, st.dst as usize);
                self.routes.fill_scratch(self.messages[id].route, &self.global_scratch);
            }
        }
        self.request_next_channel(id);
    }

    fn handle_tail_arrived(&mut self, id: MessageId) {
        let now = self.queue.now();
        // The message's work is done: fold it into the statistics (and the run
        // digest) and recycle its slot and its route region. No per-message
        // state outlives delivery.
        let msg = self.messages.remove(id);
        self.routes.release_scratch(msg.route);
        self.stats.record_delivery(Delivery {
            gen_id: msg.gen_id,
            class: msg.class(),
            latency: msg.latency_at(now),
            at: now,
            measured: msg.measured,
            attempts: u32::from(msg.attempts) + 1,
        });
    }

    // ---- fault handling -----------------------------------------------------------

    /// A channel goes down: its holder and every queued waiter abort, then the
    /// channel joins the disabled set. Only acquisition-phase messages are
    /// affected — a committed message (header delivered, tail draining) has
    /// already released its channels and keeps draining; physically its flits
    /// are past the failure point.
    fn handle_channel_down(&mut self, channel: GlobalChannelId) {
        if self.pool.is_disabled(channel) {
            return; // overlapping fault targets may share channels
        }
        let holder = self.pool.holder(channel);
        // Drain the waiters *before* aborting the holder, so the holder's
        // release of this channel finds an empty FIFO and schedules no wakeup.
        let waiters = self.pool.drain_waiters(channel);
        if let Some(id) = holder {
            self.abort_message(id, false);
        }
        for waiter in waiters {
            // A drained waiter has no pending event by construction: it was
            // sitting in the FIFO, which is exactly the no-event state. A
            // queued source record becomes a message to abort like any other.
            let id = if waiter & SOURCE_TAG != 0 { self.promote(waiter) } else { waiter };
            self.abort_message(id, true);
        }
        self.pool.set_disabled(channel, true);
    }

    /// Kills a message in its acquisition phase: every held channel is released
    /// at the current time (waiters on them get their hand-offs) and the path
    /// progress resets to the source. If an event for the message is still in
    /// flight — its header was mid crossing — the abort parks on the `aborted`
    /// flag and resolves when that event fires; otherwise it resolves now.
    ///
    /// `known_no_pending` is set by callers that can prove no event references
    /// the message (it was drained from a waiter FIFO, or the call sits in the
    /// message's own control flow). Without that proof, the message either
    /// waits in its next channel's FIFO (removable now) or has a pending
    /// `HeaderAdvance`.
    fn abort_message(&mut self, id: MessageId, known_no_pending: bool) {
        let now = self.queue.now();
        let (route, acquired) = {
            let msg = &self.messages[id];
            debug_assert!(!msg.aborted, "aborting a message twice");
            (msg.route, msg.acquired as usize)
        };
        let path = self.routes.channels(route);
        for &ch in &path[..acquired] {
            if let Some(free_at) = self.pool.mark_released(ch, id, now) {
                self.queue.schedule_at(free_at, EventKind::ChannelFree { channel: ch });
            }
        }
        let pending = if known_no_pending {
            false
        } else if acquired == path.len() {
            // The header was crossing the last channel of the path: the only
            // possible reference is its pending `HeaderAdvance`.
            true
        } else {
            // Queued on the next channel (unlink it now — this also reclaims
            // its waiter-arena node) or mid crossing with a pending event.
            !self.pool.remove_waiter(path[acquired], id)
        };
        self.messages[id].acquired = 0;
        if pending {
            self.messages[id].aborted = true;
        } else {
            self.resolve_abort(id);
        }
    }

    /// Settles a completed abort: the message is dropped if its retry budget is
    /// spent, otherwise a retransmission from the source is scheduled after an
    /// exponential backoff.
    fn resolve_abort(&mut self, id: MessageId) {
        let failures = u32::from(self.messages[id].attempts) + 1;
        if failures >= self.fault_max_attempts {
            let now = self.queue.now();
            let msg = self.messages.remove(id);
            self.routes.release_scratch(msg.route);
            self.stats.record_drop(msg.class(), msg.measured, now);
        } else {
            let msg = &mut self.messages[id];
            msg.attempts = failures as u8;
            msg.aborted = false;
            self.stats.record_retransmit();
            // Cap the exponent: the retry budget tops out at 64 attempts and a
            // 2^20 backoff is already "past any plausible horizon".
            let delay = self.fault_retry_base * (1u64 << (failures - 1).min(20)) as f64;
            self.queue.schedule_in(delay, EventKind::Retransmit { message: id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::organizations;

    fn small_config() -> SimConfig {
        SimConfig {
            warmup_messages: 50,
            measured_messages: 400,
            drain_messages: 50,
            seed: 7,
            max_events: 5_000_000,
        }
    }

    /// A tree-fabric engine over the Poisson source.
    fn tree_sim(
        system: &MultiClusterSystem,
        traffic: &TrafficConfig,
        config: &SimConfig,
        faults: Option<&FaultPlan>,
        policy: RoutingPolicy,
    ) -> Simulation {
        let source = TrafficSourceSpec::Poisson;
        Simulation::new_full(system, traffic, config, faults, policy, &source).unwrap()
    }

    /// A torus-fabric engine over the Poisson source.
    fn torus_sim(
        torus: &TorusSystem,
        traffic: &TrafficConfig,
        config: &SimConfig,
        faults: Option<&FaultPlan>,
        policy: RoutingPolicy,
    ) -> Simulation {
        let source = TrafficSourceSpec::Poisson;
        Simulation::new_torus_full(torus, traffic, config, faults, policy, &source).unwrap()
    }

    /// Runs the simulation to completion and checks the engine audit.
    fn run_audited(sim: &mut Simulation) {
        sim.run().unwrap();
        assert_eq!(sim.audit(), Ok(()));
    }

    /// Runs the simulation to completion and condenses everything the report
    /// layer reads into a comparable fingerprint.
    fn run_fingerprint(sim: &mut Simulation) -> (u64, u64, u64, u64, u64, u64) {
        run_audited(sim);
        (
            sim.stats().digest(),
            sim.stats().generated(),
            sim.stats().delivered(),
            sim.stats().dropped(),
            sim.stats().mean_latency().to_bits(),
            sim.events_processed(),
        )
    }

    #[test]
    fn reset_then_run_is_bit_identical_to_a_fresh_simulation() {
        use crate::fault::{BridgeUnit, FaultEvent, FaultTarget, RingDir};
        use mcnet_system::TrafficPattern;

        let system = organizations::small_test_org();
        let torus = TorusSystem::new(4, 2).unwrap();
        let cfg_a = small_config();
        let cfg_b = SimConfig {
            warmup_messages: 20,
            measured_messages: 300,
            drain_messages: 30,
            seed: 99,
            max_events: 5_000_000,
        };
        let traffic_a = TrafficConfig::uniform(8, 256.0, 1e-3).unwrap();
        // The second point changes rate *and* pattern (geometry stays).
        let traffic_b = TrafficConfig::uniform(8, 256.0, 5e-4)
            .unwrap()
            .with_pattern(TrafficPattern::Hotspot { hotspot: 3, fraction: 0.3 })
            .unwrap();
        let tree_faults = FaultPlan::new(vec![
            FaultEvent {
                at: 50.0,
                target: FaultTarget::Bridge { cluster: 0, unit: BridgeUnit::Concentrator },
                action: FaultAction::Down,
            },
            FaultEvent {
                at: 400.0,
                target: FaultTarget::Bridge { cluster: 0, unit: BridgeUnit::Concentrator },
                action: FaultAction::Up,
            },
        ]);
        let torus_faults = FaultPlan::new(vec![
            FaultEvent {
                at: 50.0,
                target: FaultTarget::TorusLink { node: 5, dim: 0, dir: RingDir::Plus },
                action: FaultAction::Down,
            },
            FaultEvent {
                at: 400.0,
                target: FaultTarget::TorusLink { node: 5, dim: 0, dir: RingDir::Plus },
                action: FaultAction::Up,
            },
        ]);

        // Every (traffic, config, faults) leg a reused engine walks through
        // must match a freshly built engine bit for bit — including a faulted
        // leg in the middle, whose disabled-set and window state must not
        // leak into the fault-free leg after it.
        for policy in [RoutingPolicy::Deterministic, RoutingPolicy::RandomizedUpDown] {
            let legs: [(&TrafficConfig, &SimConfig, Option<&FaultPlan>); 4] = [
                (&traffic_a, &cfg_a, None),
                (&traffic_b, &cfg_b, None),
                (&traffic_a, &cfg_a, Some(&tree_faults)),
                (&traffic_a, &cfg_a, None),
            ];
            let mut reused = tree_sim(&system, legs[0].0, legs[0].1, legs[0].2, policy);
            for (i, (traffic, config, faults)) in legs.into_iter().enumerate() {
                if i > 0 {
                    reused.reset(traffic, &TrafficSourceSpec::Poisson, config, faults).unwrap();
                }
                let mut fresh = tree_sim(&system, traffic, config, faults, policy);
                assert_eq!(
                    run_fingerprint(&mut reused),
                    run_fingerprint(&mut fresh),
                    "tree {policy:?} leg {i} diverged after reset"
                );
            }
        }
        for policy in
            [RoutingPolicy::Deterministic, RoutingPolicy::AdaptiveTorus { adaptive_vcs: 2 }]
        {
            let legs: [(&TrafficConfig, &SimConfig, Option<&FaultPlan>); 4] = [
                (&traffic_a, &cfg_a, None),
                (&traffic_b, &cfg_b, None),
                (&traffic_a, &cfg_a, Some(&torus_faults)),
                (&traffic_a, &cfg_a, None),
            ];
            let mut reused = torus_sim(&torus, legs[0].0, legs[0].1, legs[0].2, policy);
            for (i, (traffic, config, faults)) in legs.into_iter().enumerate() {
                if i > 0 {
                    reused.reset(traffic, &TrafficSourceSpec::Poisson, config, faults).unwrap();
                }
                let mut fresh = torus_sim(&torus, traffic, config, faults, policy);
                assert_eq!(
                    run_fingerprint(&mut reused),
                    run_fingerprint(&mut fresh),
                    "torus {policy:?} leg {i} diverged after reset"
                );
            }
        }
    }

    #[test]
    fn reset_rejects_a_changed_message_geometry() {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-3).unwrap();
        let cfg = small_config();
        let mut sim = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::Deterministic);
        run_audited(&mut sim);
        // Different flit count and different flit size both need a rebuild.
        let longer = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
        assert!(sim.reset(&longer, &TrafficSourceSpec::Poisson, &cfg, None).is_err());
        let wider = TrafficConfig::uniform(8, 512.0, 1e-3).unwrap();
        assert!(sim.reset(&wider, &TrafficSourceSpec::Poisson, &cfg, None).is_err());
        // A failed reset leaves the engine untouched: a compatible reset
        // afterwards still reproduces the fresh run exactly.
        sim.reset(&traffic, &TrafficSourceSpec::Poisson, &cfg, None).unwrap();
        let mut fresh = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::Deterministic);
        assert_eq!(run_fingerprint(&mut sim), run_fingerprint(&mut fresh));
    }

    #[test]
    fn all_generated_messages_are_delivered() {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 5e-4).unwrap();
        let mut sim =
            tree_sim(&system, &traffic, &small_config(), None, RoutingPolicy::Deterministic);
        run_audited(&mut sim);
        assert_eq!(sim.stats().generated(), 500);
        assert_eq!(sim.stats().delivered(), 500);
        assert_eq!(sim.stats().delivered_measured(), 400);
        assert!(sim.stats().mean_latency() > 0.0);
        // All channels are free again after the drain.
        assert_eq!(sim.pool().busy_count(sim.now()), 0);
        // The slab recycled slots: at this sub-saturation load the peak
        // in-flight population (in-network plus source-queue backlog) is far
        // below the total message count. No hard node-count bound exists —
        // generation is open-loop, so the backlog grows near saturation.
        assert!(
            sim.peak_in_flight() < 500 / 4,
            "peak in-flight {} suggests slots are not recycled",
            sim.peak_in_flight()
        );
    }

    #[test]
    fn zero_load_latency_matches_hand_computation() {
        // With an extremely low generation rate there is essentially no contention, so
        // every intra-cluster same-leaf message takes header (2·t_cn) + drain
        // ((M-1)·t_cn), and inter-cluster messages are bounded by the full path
        // crossing plus the (M-1)·t_cs drain.
        let system = organizations::small_test_org();
        let flits = 8usize;
        let traffic = TrafficConfig::uniform(flits, 256.0, 1e-6).unwrap();
        let cfg = SimConfig {
            warmup_messages: 10,
            measured_messages: 200,
            drain_messages: 10,
            seed: 3,
            max_events: 5_000_000,
        };
        let mut sim = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::Deterministic);
        run_audited(&mut sim);
        let t_cn = 0.276;
        let t_cs = 0.522;
        let min_possible = 2.0 * t_cn + (flits as f64 - 1.0) * t_cn;
        // Longest possible inter path in the small org: ascent 3 + bridge + ICN2 2 +
        // bridge + descent 3 = 10 channels, each at most t_cs, plus the drain.
        let max_possible = 10.0 * t_cs + (flits as f64 - 1.0) * t_cs + 1.0;
        let stats = sim.stats();
        assert!(stats.mean_latency() >= min_possible - 1e-9, "{}", stats.mean_latency());
        assert!(stats.max_latency() <= max_possible, "{}", stats.max_latency());
        // Contention is negligible at this load.
        assert!(sim.pool().contention_ratio() < 0.01);
    }

    #[test]
    fn latency_increases_with_load() {
        let system = organizations::small_test_org();
        let cfg = small_config();
        let low = {
            let traffic = TrafficConfig::uniform(8, 256.0, 1e-4).unwrap();
            let mut sim = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::Deterministic);
            run_audited(&mut sim);
            sim.stats().mean_latency()
        };
        let high = {
            let traffic = TrafficConfig::uniform(8, 256.0, 8e-3).unwrap();
            let mut sim = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::Deterministic);
            run_audited(&mut sim);
            sim.stats().mean_latency()
        };
        assert!(high > low, "latency must grow with offered traffic: low={low}, high={high}");
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-3).unwrap();
        let mean = |seed: u64| {
            let cfg = SimConfig { seed, ..small_config() };
            let mut sim = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::Deterministic);
            run_audited(&mut sim);
            sim.stats().mean_latency()
        };
        assert_eq!(mean(11).to_bits(), mean(11).to_bits());
        assert_ne!(mean(11).to_bits(), mean(13).to_bits());
    }

    #[test]
    fn event_budget_is_enforced() {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-3).unwrap();
        let cfg = SimConfig { max_events: 100, ..small_config() };
        let mut sim = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::Deterministic);
        assert!(matches!(sim.run(), Err(SimError::EventBudgetExhausted { .. })));
        // The budget stops the run between two events, where the audit holds.
        assert_eq!(sim.audit(), Ok(()));
    }

    /// Steps the engine through its event budget, one event at a time, until
    /// the next event or arrival is due at or after `until`.
    fn step_until(sim: &mut Simulation, until: f64) {
        let next = |sim: &Simulation| {
            let event = sim.queue.peek_time().unwrap_or(f64::INFINITY);
            event.min(sim.arrivals.peek().map_or(f64::INFINITY, |(t, _)| t))
        };
        while next(sim) < until {
            sim.max_events = sim.events_processed();
            assert!(matches!(sim.run(), Err(SimError::EventBudgetExhausted { .. })));
        }
    }

    #[test]
    fn saturated_backlog_waits_as_source_records() {
        // Past the knee (the model saturates near 3.2e-2 here) the source
        // queues outgrow the network. The backlog waits as records, so the
        // messages and their route regions stay bounded by the channels.
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 7e-2).unwrap();
        let cfg = SimConfig::quick(2006);
        let mut sim = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::Deterministic);
        step_until(&mut sim, 500.0);
        assert!(sim.source_backlog() > sim.pool().len() / 2, "backlog {}", sim.source_backlog());
        assert_eq!(sim.audit(), Ok(()), "mid-run, with sources queued");
        sim.max_events = cfg.max_events;
        run_audited(&mut sim);
        assert_eq!(sim.source_backlog(), 0);
        assert!(sim.routes().peak_scratch_routes() <= sim.pool().len());
        assert!(sim.peak_in_flight() > sim.pool().len());
    }

    #[test]
    fn switch_outage_promotes_and_aborts_queued_source_records() {
        use crate::fault::{FaultEvent, FaultTarget};
        let torus = TorusSystem::new(4, 2).unwrap();
        let traffic = TrafficConfig::uniform(16, 256.0, 6e-2).unwrap();
        let target = FaultTarget::Switch { node: 5 };
        let mut plan = FaultPlan::new(vec![
            FaultEvent { at: 1500.0, target, action: FaultAction::Down },
            FaultEvent { at: 4000.0, target, action: FaultAction::Up },
        ]);
        plan.max_attempts = 4;
        plan.retry_base = 200.0;
        let cfg = SimConfig::quick(1221);
        let policy = RoutingPolicy::Deterministic;
        let mut sim = torus_sim(&torus, &traffic, &cfg, Some(&plan), policy);
        let injection = sim.backend().as_cube().unwrap().injection(5);
        let queued_records = |sim: &Simulation| {
            sim.pool().waiters(injection).filter(|w| w & SOURCE_TAG != 0).count() as u64
        };

        step_until(&mut sim, 1500.0);
        let queued = queued_records(&sim);
        assert!(queued > 0, "node 5 has no queued source when its switch fails");
        let retransmits = sim.stats().retransmits();
        // The outage drains the FIFO: each record becomes a message and aborts.
        step_until(&mut sim, 1500.5);
        assert!(sim.pool().is_disabled(injection));
        assert_eq!(sim.pool().queue_len(injection), 0);
        assert!(sim.stats().retransmits() >= retransmits + queued);
        assert_eq!(sim.audit(), Ok(()));

        sim.max_events = cfg.max_events;
        run_audited(&mut sim);
        let stats = sim.stats();
        assert_eq!(stats.generated(), stats.delivered() + stats.dropped());
        assert!(stats.dropped() > 0, "the outage outlasts the retry budget");
    }

    #[test]
    fn bridge_outage_aborts_retransmits_and_leaves_no_residue() {
        use crate::fault::{BridgeUnit, FaultEvent, FaultTarget};
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-3).unwrap();
        let target = FaultTarget::Bridge { cluster: 0, unit: BridgeUnit::Concentrator };
        let mut plan = FaultPlan::new(vec![
            FaultEvent { at: 500.0, target, action: FaultAction::Down },
            FaultEvent { at: 8000.0, target, action: FaultAction::Up },
        ]);
        plan.max_attempts = 3;
        plan.retry_base = 100.0;
        let run = || {
            let mut sim = tree_sim(
                &system,
                &traffic,
                &small_config(),
                Some(&plan),
                RoutingPolicy::Deterministic,
            );
            run_audited(&mut sim);
            sim
        };
        let sim = run();
        let stats = sim.stats();
        // Conservation: every generated message was delivered or dropped.
        assert_eq!(stats.generated(), 500);
        assert_eq!(stats.delivered() + stats.dropped(), 500);
        // The outage actually bit: messages aborted, backed off, and some ran
        // out of budget (the outage far exceeds the total backoff allowance).
        assert!(stats.retransmits() > 0, "no retransmissions recorded");
        assert!(stats.dropped() > 0, "no drops despite a long outage");
        assert!(stats.delivered() > 0, "intra traffic must survive a bridge outage");
        assert!(!stats.time_series().is_empty(), "fault runs carry a time series");
        // No residue: all channels free, every waiter-arena node reclaimed.
        assert_eq!(sim.pool().busy_count(sim.now()), 0);
        assert_eq!(sim.pool().live_waiters(), 0);
        // Faulted runs stay deterministic per seed, digest included.
        assert_eq!(run().stats().digest(), stats.digest());
    }

    #[test]
    fn adaptive_torus_delivers_everything_and_recycles_scratch_routes() {
        let torus = mcnet_system::TorusSystem::new(4, 2).unwrap();
        let traffic = TrafficConfig::uniform(8, 256.0, 4e-3).unwrap();
        let policy = RoutingPolicy::AdaptiveTorus { adaptive_vcs: 1 };
        let mut sim = torus_sim(&torus, &traffic, &small_config(), None, policy);
        run_audited(&mut sim);
        assert_eq!(sim.stats().generated(), 500);
        assert_eq!(sim.stats().delivered(), 500);
        // Every scratch route went back to the arena free lists at delivery,
        // and the peak tracks the in-flight population, not the run length.
        assert_eq!(sim.routes().live_scratch_routes(), 0);
        assert!(sim.routes().peak_scratch_routes() > 0);
        assert!(sim.routes().peak_scratch_routes() <= sim.peak_in_flight());
        // At this load some headers found their dimension-order adaptive VC
        // busy: the cascade produced misroutes and/or escape fallbacks.
        assert!(
            sim.stats().adaptive_misroutes() + sim.stats().escape_fallbacks() > 0,
            "contended adaptive run never exercised the cascade"
        );
        assert_eq!(sim.pool().busy_count(sim.now()), 0);
        assert_eq!(sim.pool().live_waiters(), 0);
    }

    #[test]
    fn adaptive_torus_runs_are_deterministic_per_seed() {
        let torus = mcnet_system::TorusSystem::new(4, 2).unwrap();
        let traffic = TrafficConfig::uniform(8, 256.0, 4e-3).unwrap();
        let policy = RoutingPolicy::AdaptiveTorus { adaptive_vcs: 1 };
        let digest = |seed: u64| {
            let cfg = SimConfig { seed, ..small_config() };
            let mut sim = torus_sim(&torus, &traffic, &cfg, None, policy);
            run_audited(&mut sim);
            sim.stats().digest()
        };
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(13));
    }

    #[test]
    fn adaptive_torus_leaves_the_traffic_stream_untouched() {
        // Routing draws come from a dedicated RNG stream, so switching the
        // policy must not perturb *when* messages are generated or *where*
        // they go — only the paths taken (and hence latencies) may differ. On
        // a 1-D ring there is exactly one minimal hop at every step, so at
        // negligible load the adaptive walk reproduces the dimension-order
        // hop sequence over channels with identical per-flit times: if the
        // traffic stream is untouched, the digests must agree bit for bit.
        let torus = mcnet_system::TorusSystem::new(8, 1).unwrap();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-6).unwrap();
        let run = |policy| {
            let mut sim = torus_sim(&torus, &traffic, &small_config(), None, policy);
            run_audited(&mut sim);
            sim
        };
        let det = run(RoutingPolicy::Deterministic);
        let adaptive = run(RoutingPolicy::AdaptiveTorus { adaptive_vcs: 1 });
        assert_eq!(det.stats().generated(), adaptive.stats().generated());
        assert_eq!(det.stats().digest(), adaptive.stats().digest());
        assert_eq!(adaptive.stats().adaptive_misroutes(), 0, "a ring has no misroute choice");
    }

    #[test]
    fn randomized_updown_delivers_everything_and_counts_misroutes() {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-3).unwrap();
        let mut sim =
            tree_sim(&system, &traffic, &small_config(), None, RoutingPolicy::RandomizedUpDown);
        run_audited(&mut sim);
        assert_eq!(sim.stats().generated(), 500);
        assert_eq!(sim.stats().delivered(), 500);
        assert_eq!(sim.routes().live_scratch_routes(), 0);
        // Randomized ascents rarely coincide with the deterministic path for
        // every message of a 500-message run.
        assert!(sim.stats().adaptive_misroutes() > 0, "randomization never left the det path");
        assert_eq!(sim.stats().escape_fallbacks(), 0, "trees have no escape class");
        assert_eq!(sim.pool().busy_count(sim.now()), 0);
    }

    #[test]
    fn randomized_updown_runs_are_deterministic_per_seed() {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-3).unwrap();
        let digest = |seed: u64| {
            let cfg = SimConfig { seed, ..small_config() };
            let mut sim = tree_sim(&system, &traffic, &cfg, None, RoutingPolicy::RandomizedUpDown);
            run_audited(&mut sim);
            sim.stats().digest()
        };
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(13));
    }

    #[test]
    fn intra_and_inter_classes_are_both_observed() {
        let system = organizations::small_test_org();
        let traffic = TrafficConfig::uniform(8, 256.0, 1e-3).unwrap();
        let mut sim =
            tree_sim(&system, &traffic, &small_config(), None, RoutingPolicy::Deterministic);
        run_audited(&mut sim);
        let intra = sim.stats().class_summary(crate::message::MessageClass::Intra);
        let inter = sim.stats().class_summary(crate::message::MessageClass::Inter);
        assert!(intra.count > 0);
        assert!(inter.count > 0);
        assert!(inter.mean > intra.mean, "inter-cluster messages travel further");
    }
}
