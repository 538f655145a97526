//! Pluggable traffic sources: bursty MMPP/ON-OFF arrivals, per-node
//! heterogeneity and trace replay behind the Poisson default.
//!
//! The paper's analysis (assumptions 1–2) fixes stationary Poisson arrivals
//! with a static destination mix; the engine historically hard-wired that
//! process. This module generalises message generation behind the
//! [`TrafficSource`] trait — the next arrival *time* of a node plus the
//! destination of the message it emits — with four implementations:
//!
//! * [`Poisson`] — the paper's process, extracted
//!   unchanged. Runs through the trait are bit-identical to the legacy inline
//!   sampler (pinned by test and by the frozen golden digests).
//! * [`OnOff`] — a two-state Markov-modulated Poisson process (an interrupted
//!   Poisson process): each node alternates between exponentially distributed
//!   ON bursts, during which it generates at `rate / duty`, and silent OFF
//!   gaps. The long-run mean rate equals the configured rate, so analytical
//!   comparisons stay anchored; the squared coefficient of variation of the
//!   inter-arrival times (the *burstiness index*) grows as the duty cycle
//!   shrinks: `c² = 1 + 2·(rate/duty)·(1 − duty)²·mean_on`.
//! * [`HeterogeneousRates`] — per-node rate multipliers over any inner source,
//!   by dilating the inner source's per-node clock.
//! * [`TraceReplay`] — replays a sorted `(time, src, dst[, class])` record
//!   stream from a JSON or CSV trace file (or inline spec records), with
//!   typed [`SimError::InvalidSpec`] rejection of malformed input.
//!
//! Sources are described declaratively by the plain-data [`TrafficSourceSpec`]
//! (the `"source"` key inside a scenario spec's `"traffic"` object) and built
//! against a node partition at simulation-construction time. Every source
//! draws from the engine's single traffic RNG stream in a deterministic
//! per-node order, so fixed-seed runs stay bit-reproducible — and the Poisson
//! spec consumes exactly the legacy draw sequence.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::scenario::{get_f64, get_str, reject_unknown_keys, spec_error};
use crate::traffic::Poisson;
use crate::{Result, SimError};
use mcnet_system::TrafficConfig;
use rand::rngs::SmallRng;
use rand::Rng;

/// One node-indexed arrival process: the engine asks for the next arrival time
/// of a node (absolute simulation time) and, when that arrival fires, for the
/// destination of the generated message.
///
/// Contract:
/// * `next_arrival(rng, node, prev)` is called once per generated message with
///   `prev` = the node's previous arrival time (`0.0` when priming a fresh
///   run). The returned time must be `>= prev` — the engine debug-asserts
///   monotonicity — and `None` retires the node (no further messages; used by
///   finite traces).
/// * `destination(rng, src)` is called exactly once per arrival, immediately
///   after the arrival fires and **before** the node's next `next_arrival`
///   re-arm, mirroring the legacy draw order.
/// * `rebind` re-validates and adopts a new traffic configuration over the
///   same node partition and rewinds all per-node state to its
///   post-construction value, so an engine [`reset`](crate::engine::Simulation::reset)
///   is bit-identical to a fresh build.
pub trait TrafficSource: std::fmt::Debug + Send {
    /// Absolute time of `node`'s next arrival, or `None` if the node
    /// generates no further messages.
    fn next_arrival(&mut self, rng: &mut SmallRng, node: usize, prev: f64) -> Option<f64>;

    /// Destination of the message generated at `src`'s current arrival.
    fn destination(&mut self, rng: &mut SmallRng, src: usize) -> usize;

    /// The long-run mean per-node generation rate (messages per time unit).
    fn mean_rate(&self) -> f64;

    /// Total number of messages this source can ever generate, if finite
    /// (trace replay); `None` for open-ended stochastic sources.
    fn message_limit(&self) -> Option<u64> {
        None
    }

    /// Re-validates and adopts a new traffic configuration over the same node
    /// partition, rewinding per-node state for a fresh run.
    fn rebind(&mut self, traffic: &TrafficConfig) -> Result<()>;
}

/// Expected messages per ON burst when an [`OnOff`] spec omits `mean_on`:
/// the default ON dwell is `DEFAULT_BURST_MESSAGES · duty / rate`, which keeps
/// the burstiness index `c² = 1 + 2·K·(1 − duty)²` independent of the rate
/// axis — a campaign `burstiness` sweep changes only the duty cycle.
pub const DEFAULT_BURST_MESSAGES: f64 = 20.0;

/// Exponential draw with the same zero-endpoint guard as
/// [`Poisson::sample_interarrival`]: strictly positive, finite.
fn exp_draw(rng: &mut SmallRng, rate: f64) -> f64 {
    let u: f64 = rng.gen::<f64>();
    let v = (1.0 - u).min(1.0 - f64::EPSILON / 2.0);
    -v.ln() / rate
}

// ---- Poisson (extracted legacy process) -----------------------------------------

impl TrafficSource for Poisson {
    fn next_arrival(&mut self, rng: &mut SmallRng, _node: usize, prev: f64) -> Option<f64> {
        // Exactly the legacy draw: one exponential inter-arrival per call,
        // added to the previous arrival (0.0 at priming).
        Some(prev + self.sample_interarrival(rng))
    }

    fn destination(&mut self, rng: &mut SmallRng, src: usize) -> usize {
        self.sample_destination(rng, src)
    }

    fn mean_rate(&self) -> f64 {
        self.generation_rate()
    }

    fn rebind(&mut self, traffic: &TrafficConfig) -> Result<()> {
        Poisson::rebind(self, traffic)
    }
}

// ---- ON-OFF (2-state MMPP / interrupted Poisson) --------------------------------

/// Per-node modulation state of an [`OnOff`] source.
#[derive(Debug, Clone, Copy, Default)]
struct BurstState {
    /// Whether the stationary initial state has been drawn yet.
    primed: bool,
    /// Currently in the ON (generating) state.
    on: bool,
    /// Absolute time at which the current dwell ends.
    until: f64,
}

/// Two-state Markov-modulated Poisson source: each node independently
/// alternates between exponential ON dwells (mean `mean_on`), during which it
/// generates at `rate / duty`, and exponential OFF dwells sized so the
/// long-run ON fraction equals `duty` — the long-run mean rate is therefore
/// exactly the configured `generation_rate`, whatever the duty cycle.
///
/// Destination sampling is delegated to the embedded [`Poisson`] source, so
/// the pattern machinery (uniform / hot-spot / cluster-local) carries over
/// unchanged.
#[derive(Debug)]
pub struct OnOff {
    base: Poisson,
    duty: f64,
    /// `mean_on` as specified, or `None` for the rate-coupled default.
    spec_mean_on: Option<f64>,
    mean_on: f64,
    mean_off: f64,
    lambda_on: f64,
    states: Vec<BurstState>,
}

impl OnOff {
    /// Builds an ON-OFF source over a node partition. `duty` is the long-run
    /// ON fraction in `(0, 1)`; `mean_on` the mean ON dwell (default:
    /// [`DEFAULT_BURST_MESSAGES`] expected messages per burst).
    pub fn new(
        traffic: &TrafficConfig,
        total_nodes: usize,
        cluster_ranges: Vec<(usize, usize)>,
        duty: f64,
        spec_mean_on: Option<f64>,
    ) -> Result<Self> {
        check_on_off(duty, spec_mean_on)?;
        let base = Poisson::from_parts(traffic, total_nodes, cluster_ranges)?;
        let mut source = OnOff {
            base,
            duty,
            spec_mean_on,
            mean_on: 0.0,
            mean_off: 0.0,
            lambda_on: 0.0,
            states: vec![BurstState::default(); total_nodes],
        };
        source.derive();
        Ok(source)
    }

    /// Recomputes the dwell parameters from the base rate and duty cycle.
    fn derive(&mut self) {
        let rate = self.base.generation_rate();
        self.mean_on = self.spec_mean_on.unwrap_or(DEFAULT_BURST_MESSAGES * self.duty / rate);
        self.mean_off = self.mean_on * (1.0 - self.duty) / self.duty;
        self.lambda_on = rate / self.duty;
    }

    /// The burstiness index (squared coefficient of variation of the
    /// inter-arrival times) of this source's interrupted Poisson process.
    pub fn burstiness(&self) -> f64 {
        1.0 + 2.0 * self.lambda_on * (1.0 - self.duty).powi(2) * self.mean_on
    }
}

impl TrafficSource for OnOff {
    fn next_arrival(&mut self, rng: &mut SmallRng, node: usize, prev: f64) -> Option<f64> {
        let state = &mut self.states[node];
        let mut t = prev;
        if !state.primed {
            // Stationary start: ON with probability `duty`, then a full
            // exponential dwell (memorylessness makes the residual dwell
            // exponential with the same mean).
            state.primed = true;
            state.on = rng.gen::<f64>() < self.duty;
            let mean = if state.on { self.mean_on } else { self.mean_off };
            state.until = t + exp_draw(rng, 1.0 / mean);
        }
        loop {
            if state.on {
                let dt = exp_draw(rng, self.lambda_on);
                if t + dt <= state.until {
                    return Some(t + dt);
                }
                // No arrival before the burst ends: discard the overshoot
                // (memorylessness again) and dwell OFF.
                t = state.until;
                state.on = false;
                state.until = t + exp_draw(rng, 1.0 / self.mean_off);
            } else {
                t = state.until;
                state.on = true;
                state.until = t + exp_draw(rng, 1.0 / self.mean_on);
            }
        }
    }

    fn destination(&mut self, rng: &mut SmallRng, src: usize) -> usize {
        self.base.sample_destination(rng, src)
    }

    fn mean_rate(&self) -> f64 {
        self.base.generation_rate()
    }

    fn rebind(&mut self, traffic: &TrafficConfig) -> Result<()> {
        Poisson::rebind(&mut self.base, traffic)?;
        self.derive();
        self.states.iter_mut().for_each(|s| *s = BurstState::default());
        Ok(())
    }
}

fn check_on_off(duty: f64, mean_on: Option<f64>) -> Result<()> {
    if !(duty.is_finite() && duty > 0.0 && duty < 1.0) {
        return Err(spec_error(format!(
            "traffic.source: on_off duty must lie strictly in (0, 1), got {duty} (use the plain \
             poisson source for duty 1)"
        )));
    }
    if let Some(m) = mean_on {
        if !(m.is_finite() && m > 0.0) {
            return Err(spec_error(format!(
                "traffic.source: on_off mean_on must be positive and finite, got {m}"
            )));
        }
    }
    Ok(())
}

// ---- Per-node heterogeneous rates -----------------------------------------------

/// Wraps any inner source with per-node rate multipliers by dilating the inner
/// source's per-node clock: a node with multiplier `m` sees the inner process
/// sped up by `m` (inter-arrival gaps divided by `m`), so its long-run rate is
/// `m ·` the inner rate while burst structure and destination sampling carry
/// over unchanged.
#[derive(Debug)]
pub struct HeterogeneousRates {
    inner: Box<dyn TrafficSource>,
    multipliers: Vec<f64>,
    mean_multiplier: f64,
    /// Per-node previous arrival on the *inner* (undilated) clock.
    inner_prev: Vec<f64>,
}

impl HeterogeneousRates {
    /// Wraps `inner` with one positive finite multiplier per node.
    pub fn new(
        inner: Box<dyn TrafficSource>,
        multipliers: Vec<f64>,
        total_nodes: usize,
    ) -> Result<Self> {
        check_multipliers(&multipliers)?;
        if multipliers.len() != total_nodes {
            return Err(spec_error(format!(
                "traffic.source: heterogeneous needs one multiplier per node ({} nodes, got {})",
                total_nodes,
                multipliers.len()
            )));
        }
        let mean_multiplier = multipliers.iter().sum::<f64>() / multipliers.len() as f64;
        let inner_prev = vec![0.0; total_nodes];
        Ok(HeterogeneousRates { inner, multipliers, mean_multiplier, inner_prev })
    }
}

impl TrafficSource for HeterogeneousRates {
    fn next_arrival(&mut self, rng: &mut SmallRng, node: usize, prev: f64) -> Option<f64> {
        let inner_t = self.inner.next_arrival(rng, node, self.inner_prev[node])?;
        let gap = inner_t - self.inner_prev[node];
        self.inner_prev[node] = inner_t;
        Some(prev + gap / self.multipliers[node])
    }

    fn destination(&mut self, rng: &mut SmallRng, src: usize) -> usize {
        self.inner.destination(rng, src)
    }

    fn mean_rate(&self) -> f64 {
        self.inner.mean_rate() * self.mean_multiplier
    }

    fn rebind(&mut self, traffic: &TrafficConfig) -> Result<()> {
        self.inner.rebind(traffic)?;
        self.inner_prev.iter_mut().for_each(|t| *t = 0.0);
        Ok(())
    }
}

fn check_multipliers(multipliers: &[f64]) -> Result<()> {
    if multipliers.is_empty() {
        return Err(spec_error("traffic.source: heterogeneous multipliers must be non-empty"));
    }
    for (i, &m) in multipliers.iter().enumerate() {
        if !(m.is_finite() && m > 0.0) {
            return Err(spec_error(format!(
                "traffic.source: heterogeneous multiplier {i} must be positive and finite, got {m}"
            )));
        }
    }
    Ok(())
}

// ---- Trace replay ---------------------------------------------------------------

/// One validated trace record: an arrival at `time` generating a message
/// `src → dst`.
#[derive(Debug, Clone, Copy)]
struct TraceRecord {
    time: f64,
    dst: u32,
}

/// A raw record as parsed from a trace file or inline spec records, before
/// binding against a node partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RawRecord {
    pub(crate) time: f64,
    pub(crate) src: u64,
    pub(crate) dst: u64,
    /// Declared message class, if any: `true` = inter-cluster.
    pub(crate) class: Option<bool>,
}

/// Replays a finite, globally time-sorted trace of `(time, src, dst)` records.
/// Deterministic by construction: no RNG draws at all — arrival times and
/// destinations come straight from the records, and the per-run message count
/// equals the record count (the engine caps its generation target at the
/// source's [`message_limit`](TrafficSource::message_limit)).
#[derive(Debug)]
pub struct TraceReplay {
    /// Per-source-node record queues, each sorted by time (inherited from the
    /// global sort).
    per_node: Vec<Vec<TraceRecord>>,
    cursors: Vec<usize>,
    total_records: u64,
    per_node_rate: f64,
}

impl TraceReplay {
    /// Binds validated raw records to a node partition: node ids must be in
    /// range, `class` declarations (when present) must match the partition.
    fn bind(
        records: &[RawRecord],
        total_nodes: usize,
        cluster_ranges: &[(usize, usize)],
    ) -> Result<Self> {
        let mut per_node: Vec<Vec<TraceRecord>> = vec![Vec::new(); total_nodes];
        for (i, rec) in records.iter().enumerate() {
            if rec.src >= total_nodes as u64 || rec.dst >= total_nodes as u64 {
                return Err(spec_error(format!(
                    "traffic.source: trace record {i} names node {} outside the {total_nodes}-node \
                     system",
                    rec.src.max(rec.dst)
                )));
            }
            if let Some(inter) = rec.class {
                let same = range_of(cluster_ranges, rec.src as usize)
                    == range_of(cluster_ranges, rec.dst as usize);
                if inter == same {
                    return Err(spec_error(format!(
                        "traffic.source: trace record {i} declares class {:?} but nodes {} and {} \
                         are {}in the same partition",
                        if inter { "inter" } else { "intra" },
                        rec.src,
                        rec.dst,
                        if same { "" } else { "not " }
                    )));
                }
            }
            per_node[rec.src as usize].push(TraceRecord { time: rec.time, dst: rec.dst as u32 });
        }
        let span = records[records.len() - 1].time - records[0].time;
        let per_node_rate =
            if span > 0.0 { (records.len() - 1) as f64 / span / total_nodes as f64 } else { 0.0 };
        Ok(TraceReplay {
            per_node,
            cursors: vec![0; total_nodes],
            total_records: records.len() as u64,
            per_node_rate,
        })
    }
}

impl TrafficSource for TraceReplay {
    fn next_arrival(&mut self, _rng: &mut SmallRng, node: usize, _prev: f64) -> Option<f64> {
        let rec = self.per_node[node].get(self.cursors[node])?;
        self.cursors[node] += 1;
        Some(rec.time)
    }

    fn destination(&mut self, _rng: &mut SmallRng, src: usize) -> usize {
        // The cursor was advanced by the `next_arrival` that scheduled this
        // arrival, so the fired record sits one slot back.
        let cursor = self.cursors[src];
        debug_assert!(cursor > 0, "destination queried before any arrival at node {src}");
        self.per_node[src][cursor - 1].dst as usize
    }

    fn mean_rate(&self) -> f64 {
        self.per_node_rate
    }

    fn message_limit(&self) -> Option<u64> {
        Some(self.total_records)
    }

    fn rebind(&mut self, traffic: &TrafficConfig) -> Result<()> {
        // The records are immutable; a reset only rewinds the cursors. The
        // configured generation rate is ignored by replay (timing comes from
        // the trace), but the geometry must still be a valid configuration.
        traffic.validate().map_err(SimError::from)?;
        self.cursors.iter_mut().for_each(|c| *c = 0);
        Ok(())
    }
}

/// The partition range a node belongs to (ranges sorted and contiguous).
fn range_of(ranges: &[(usize, usize)], node: usize) -> (usize, usize) {
    let idx = ranges.partition_point(|&(_, e)| e <= node);
    ranges[idx]
}

/// Validates the global ordering invariants of a parsed trace: at least two
/// records, strictly positive finite times, strictly increasing timestamps
/// (duplicates are rejected — simultaneous arrivals would create event ties
/// the engine must not have to break), and no self-addressed messages.
fn check_trace(records: &[RawRecord], origin: &str) -> Result<()> {
    if records.len() < 2 {
        return Err(spec_error(format!(
            "traffic.source: trace {origin} holds {} record(s); at least 2 are required",
            records.len()
        )));
    }
    let mut prev = 0.0;
    for (i, rec) in records.iter().enumerate() {
        if !(rec.time.is_finite() && rec.time > 0.0) {
            return Err(spec_error(format!(
                "traffic.source: trace {origin} record {i} has a non-positive or non-finite time \
                 {}",
                rec.time
            )));
        }
        if rec.time == prev {
            return Err(spec_error(format!(
                "traffic.source: trace {origin} record {i} duplicates timestamp {}",
                rec.time
            )));
        }
        if rec.time < prev {
            return Err(spec_error(format!(
                "traffic.source: trace {origin} record {i} is out of order ({} after {prev}); \
                 records must be sorted by time",
                rec.time
            )));
        }
        if rec.src == rec.dst {
            return Err(spec_error(format!(
                "traffic.source: trace {origin} record {i} is self-addressed (node {})",
                rec.src
            )));
        }
        prev = rec.time;
    }
    Ok(())
}

/// Parses a JSON trace: an array of `{"time", "src", "dst"}` objects with an
/// optional `"class": "intra" | "inter"` declaration. Unknown keys are
/// rejected.
fn parse_trace_json(text: &str, origin: &str) -> Result<Vec<RawRecord>> {
    let doc = Json::parse(text)
        .map_err(|e| spec_error(format!("traffic.source: trace {origin}: {e}")))?;
    let rows = doc.as_array().ok_or_else(|| {
        spec_error(format!("traffic.source: trace {origin} must be a JSON array"))
    })?;
    let mut records = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let context = format!("trace {origin} record {i}");
        reject_unknown_keys(row, &context, &["time", "src", "dst", "class"])?;
        let time = get_f64(row, &context, "time")?;
        let src = get_node_id(row, &context, "src")?;
        let dst = get_node_id(row, &context, "dst")?;
        let class = match row.as_object().and_then(|o| o.get("class")) {
            None => None,
            Some(v) => Some(parse_class(v.as_str().unwrap_or_default(), &context)?),
        };
        records.push(RawRecord { time, src, dst, class });
    }
    check_trace(&records, origin)?;
    Ok(records)
}

/// Parses a CSV trace: one `time,src,dst[,class]` record per line, `#`
/// comments and blank lines skipped.
fn parse_trace_csv(text: &str, origin: &str) -> Result<Vec<RawRecord>> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let context = format!("trace {origin} line {}", lineno + 1);
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() < 3 || fields.len() > 4 {
            return Err(spec_error(format!(
                "traffic.source: {context} has {} field(s); expected time,src,dst[,class]",
                fields.len()
            )));
        }
        let time = fields[0].parse::<f64>().map_err(|_| {
            spec_error(format!("traffic.source: {context}: bad time {:?}", fields[0]))
        })?;
        let parse_node = |f: &str| {
            f.parse::<u64>()
                .map_err(|_| spec_error(format!("traffic.source: {context}: bad node id {f:?}")))
        };
        let src = parse_node(fields[1])?;
        let dst = parse_node(fields[2])?;
        let class = if fields.len() == 4 { Some(parse_class(fields[3], &context)?) } else { None };
        records.push(RawRecord { time, src, dst, class });
    }
    check_trace(&records, origin)?;
    Ok(records)
}

fn parse_class(s: &str, context: &str) -> Result<bool> {
    match s {
        "intra" => Ok(false),
        "inter" => Ok(true),
        other => Err(spec_error(format!(
            "traffic.source: {context}: unknown class {other:?} (expected \"intra\" or \"inter\")"
        ))),
    }
}

/// Reads a non-negative integer node id (rejecting fractional values).
fn get_node_id(v: &Json, context: &str, key: &str) -> Result<u64> {
    let raw = v
        .as_object()
        .and_then(|o| o.get(key))
        .ok_or_else(|| spec_error(format!("traffic.source: {context} is missing {key:?}")))?;
    raw.as_u64()
        .ok_or_else(|| spec_error(format!("traffic.source: {context}: {key} must be a node id")))
}

// ---- Declarative spec -----------------------------------------------------------

/// Plain-data description of a traffic source — the `"source"` key inside a
/// scenario spec's `"traffic"` object. [`Default`] is [`Poisson`]
/// (`TrafficSourceSpec::Poisson`), which is also what an absent `"source"` key
/// denotes, so every pre-existing spec file parses (and round-trips) unchanged.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TrafficSourceSpec {
    /// The paper's stationary Poisson process (`{"kind": "poisson"}`).
    #[default]
    Poisson,
    /// Two-state MMPP (`{"kind": "on_off", "duty": d, "mean_on"?: t}`).
    OnOff {
        /// Long-run ON fraction, strictly in `(0, 1)`.
        duty: f64,
        /// Mean ON dwell time; default [`DEFAULT_BURST_MESSAGES`] expected
        /// messages per burst.
        mean_on: Option<f64>,
    },
    /// Per-node rate multipliers over an inner source
    /// (`{"kind": "heterogeneous", "multipliers": [...], "inner"?: {...}}`).
    HeterogeneousRates {
        /// One positive multiplier per node.
        multipliers: Vec<f64>,
        /// The wrapped source (`poisson` or `on_off`; default poisson).
        inner: Box<TrafficSourceSpec>,
    },
    /// Finite trace replay (`{"kind": "trace_replay", "path": "..."}` or
    /// inline `"records": [[time, src, dst], ...]`).
    TraceReplay {
        /// Trace file (JSON array of records, or `time,src,dst[,class]` CSV).
        /// Relative paths resolve against the process working directory, or
        /// against the spec file's own directory when the spec is loaded via
        /// [`crate::ScenarioSpec::from_json_file`].
        path: Option<String>,
        /// Inline records as `[time, src, dst]` triples — exactly one of
        /// `path` / `records` must be present.
        records: Option<Vec<(f64, u32, u32)>>,
    },
}

impl TrafficSourceSpec {
    /// Whether this is the default Poisson source (the spec JSON omits the
    /// `"source"` key in that case, keeping legacy files byte-stable).
    pub fn is_poisson(&self) -> bool {
        matches!(self, TrafficSourceSpec::Poisson)
    }

    /// Cheap structural validation (no file I/O): parameter ranges, inner
    /// source kinds, the path/records exclusivity of trace replay.
    pub fn validate(&self) -> Result<()> {
        match self {
            TrafficSourceSpec::Poisson => Ok(()),
            TrafficSourceSpec::OnOff { duty, mean_on } => check_on_off(*duty, *mean_on),
            TrafficSourceSpec::HeterogeneousRates { multipliers, inner } => {
                check_multipliers(multipliers)?;
                match inner.as_ref() {
                    TrafficSourceSpec::Poisson | TrafficSourceSpec::OnOff { .. } => {
                        inner.validate()
                    }
                    _ => Err(spec_error(
                        "traffic.source: heterogeneous inner source must be \"poisson\" or \
                         \"on_off\"",
                    )),
                }
            }
            TrafficSourceSpec::TraceReplay { path, records } => match (path, records) {
                (Some(_), None) | (None, Some(_)) => Ok(()),
                _ => Err(spec_error(
                    "traffic.source: trace_replay needs exactly one of \"path\" or \"records\"",
                )),
            },
        }
    }

    /// Builds the runtime source over a node partition. Trace files are read
    /// and fully validated here (typed [`SimError::InvalidSpec`] on malformed,
    /// unsorted or out-of-range records).
    pub fn build(
        &self,
        traffic: &TrafficConfig,
        total_nodes: usize,
        cluster_ranges: Vec<(usize, usize)>,
    ) -> Result<Box<dyn TrafficSource>> {
        self.validate()?;
        match self {
            TrafficSourceSpec::Poisson => {
                Ok(Box::new(Poisson::from_parts(traffic, total_nodes, cluster_ranges)?))
            }
            TrafficSourceSpec::OnOff { duty, mean_on } => {
                Ok(Box::new(OnOff::new(traffic, total_nodes, cluster_ranges, *duty, *mean_on)?))
            }
            TrafficSourceSpec::HeterogeneousRates { multipliers, inner } => {
                let inner = inner.build(traffic, total_nodes, cluster_ranges)?;
                Ok(Box::new(HeterogeneousRates::new(inner, multipliers.clone(), total_nodes)?))
            }
            TrafficSourceSpec::TraceReplay { .. } => {
                let records = self.load_trace()?;
                Ok(Box::new(TraceReplay::bind(&records, total_nodes, &cluster_ranges)?))
            }
        }
    }

    /// The long-run mean per-node rate this source delivers when the traffic
    /// configuration asks for `rate` — the load the analytical model should be
    /// evaluated at (the effective-rate / interrupted-Poisson approximation).
    pub fn effective_rate(&self, rate: f64, total_nodes: usize) -> Result<f64> {
        match self {
            TrafficSourceSpec::Poisson | TrafficSourceSpec::OnOff { .. } => Ok(rate),
            TrafficSourceSpec::HeterogeneousRates { multipliers, inner } => {
                let mean = multipliers.iter().sum::<f64>() / multipliers.len().max(1) as f64;
                Ok(inner.effective_rate(rate, total_nodes)? * mean)
            }
            TrafficSourceSpec::TraceReplay { .. } => {
                let records = self.load_trace()?;
                let span = records[records.len() - 1].time - records[0].time;
                if span <= 0.0 || total_nodes == 0 {
                    return Err(spec_error("traffic.source: trace spans zero time"));
                }
                Ok((records.len() - 1) as f64 / span / total_nodes as f64)
            }
        }
    }

    /// The burstiness index: the squared coefficient of variation (SCV) of
    /// the source's inter-arrival times. `1.0` for Poisson; `> 1` for bursty
    /// sources; empirical for traces. Reported by `model_vs_sim` so model
    /// error can be charted against burstiness.
    pub fn burstiness(&self, rate: f64) -> Result<f64> {
        match self {
            TrafficSourceSpec::Poisson => Ok(1.0),
            TrafficSourceSpec::OnOff { duty, mean_on } => {
                let mean_on = mean_on.unwrap_or(DEFAULT_BURST_MESSAGES * duty / rate);
                Ok(1.0 + 2.0 * (rate / duty) * (1.0 - duty).powi(2) * mean_on)
            }
            TrafficSourceSpec::HeterogeneousRates { inner, .. } => inner.burstiness(rate),
            TrafficSourceSpec::TraceReplay { .. } => {
                let records = self.load_trace()?;
                let gaps: Vec<f64> = records.windows(2).map(|w| w[1].time - w[0].time).collect();
                let n = gaps.len() as f64;
                let mean = gaps.iter().sum::<f64>() / n;
                let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
                Ok(var / (mean * mean))
            }
        }
    }

    /// Re-anchors a relative trace-file path against `base` (the directory of
    /// the spec file this source was parsed from), so a committed spec can
    /// name its trace relative to itself and still load from any working
    /// directory. Absolute paths and non-trace sources are left untouched.
    pub fn anchor_trace_path(&mut self, base: &std::path::Path) {
        if let TrafficSourceSpec::TraceReplay { path: Some(p), .. } = self {
            let relative = std::path::Path::new(p.as_str());
            if relative.is_relative() {
                *p = base.join(relative).to_string_lossy().into_owned();
            }
        }
    }

    /// Loads and order-validates this trace-replay spec's records.
    pub(crate) fn load_trace(&self) -> Result<Vec<RawRecord>> {
        let TrafficSourceSpec::TraceReplay { path, records } = self else {
            return Err(spec_error("traffic.source: not a trace_replay source"));
        };
        match (path, records) {
            (Some(p), None) => {
                let text = std::fs::read_to_string(p).map_err(|e| {
                    spec_error(format!("traffic.source: cannot read trace file {p:?}: {e}"))
                })?;
                if text.trim_start().starts_with('[') {
                    parse_trace_json(&text, p)
                } else {
                    parse_trace_csv(&text, p)
                }
            }
            (None, Some(rows)) => {
                let records: Vec<RawRecord> = rows
                    .iter()
                    .map(|&(time, src, dst)| RawRecord {
                        time,
                        src: src as u64,
                        dst: dst as u64,
                        class: None,
                    })
                    .collect();
                check_trace(&records, "(inline)")?;
                Ok(records)
            }
            _ => Err(spec_error(
                "traffic.source: trace_replay needs exactly one of \"path\" or \"records\"",
            )),
        }
    }

    /// Serializes to the spec JSON shape (the value of the `"source"` key).
    pub fn to_json(&self) -> Json {
        let mut map = BTreeMap::new();
        match self {
            TrafficSourceSpec::Poisson => {
                map.insert("kind".to_string(), Json::String("poisson".to_string()));
            }
            TrafficSourceSpec::OnOff { duty, mean_on } => {
                map.insert("kind".to_string(), Json::String("on_off".to_string()));
                map.insert("duty".to_string(), Json::Number(*duty));
                if let Some(m) = mean_on {
                    map.insert("mean_on".to_string(), Json::Number(*m));
                }
            }
            TrafficSourceSpec::HeterogeneousRates { multipliers, inner } => {
                map.insert("kind".to_string(), Json::String("heterogeneous".to_string()));
                map.insert(
                    "multipliers".to_string(),
                    Json::Array(multipliers.iter().map(|&m| Json::Number(m)).collect()),
                );
                if !inner.is_poisson() {
                    map.insert("inner".to_string(), inner.to_json());
                }
            }
            TrafficSourceSpec::TraceReplay { path, records } => {
                map.insert("kind".to_string(), Json::String("trace_replay".to_string()));
                if let Some(p) = path {
                    map.insert("path".to_string(), Json::String(p.clone()));
                }
                if let Some(rows) = records {
                    map.insert(
                        "records".to_string(),
                        Json::Array(
                            rows.iter()
                                .map(|&(t, s, d)| {
                                    Json::Array(vec![
                                        Json::Number(t),
                                        Json::from_u64(s as u64),
                                        Json::from_u64(d as u64),
                                    ])
                                })
                                .collect(),
                        ),
                    );
                }
            }
        }
        Json::Object(map)
    }

    /// Parses the `"source"` value of a spec's traffic object. Unknown kinds
    /// and keys are typed [`SimError::InvalidSpec`] errors.
    pub fn from_json(v: &Json) -> Result<Self> {
        let context = "traffic.source";
        let spec = match get_str(v, context, "kind")? {
            "poisson" => {
                reject_unknown_keys(v, context, &["kind"])?;
                TrafficSourceSpec::Poisson
            }
            "on_off" => {
                reject_unknown_keys(v, context, &["kind", "duty", "mean_on"])?;
                let duty = get_f64(v, context, "duty")?;
                let mean_on =
                    match v.as_object().and_then(|o| o.get("mean_on")) {
                        None => None,
                        Some(m) => Some(m.as_f64().ok_or_else(|| {
                            spec_error("traffic.source: mean_on must be a number")
                        })?),
                    };
                TrafficSourceSpec::OnOff { duty, mean_on }
            }
            "heterogeneous" => {
                reject_unknown_keys(v, context, &["kind", "multipliers", "inner"])?;
                let raw = v
                    .as_object()
                    .and_then(|o| o.get("multipliers"))
                    .and_then(Json::as_array)
                    .ok_or_else(|| {
                        spec_error("traffic.source: heterogeneous needs a multipliers array")
                    })?;
                let multipliers = raw
                    .iter()
                    .map(|m| {
                        m.as_f64().ok_or_else(|| {
                            spec_error("traffic.source: multipliers must be numbers")
                        })
                    })
                    .collect::<Result<Vec<f64>>>()?;
                let inner = match v.as_object().and_then(|o| o.get("inner")) {
                    None => Box::new(TrafficSourceSpec::Poisson),
                    Some(inner) => Box::new(TrafficSourceSpec::from_json(inner)?),
                };
                TrafficSourceSpec::HeterogeneousRates { multipliers, inner }
            }
            "trace_replay" => {
                reject_unknown_keys(v, context, &["kind", "path", "records"])?;
                let path = match v.as_object().and_then(|o| o.get("path")) {
                    None => None,
                    Some(p) => Some(
                        p.as_str()
                            .ok_or_else(|| spec_error("traffic.source: path must be a string"))?
                            .to_string(),
                    ),
                };
                let records = match v.as_object().and_then(|o| o.get("records")) {
                    None => None,
                    Some(rows) => Some(parse_inline_records(rows)?),
                };
                TrafficSourceSpec::TraceReplay { path, records }
            }
            other => {
                return Err(spec_error(format!(
                    "traffic.source: unknown source kind {other:?} (expected \"poisson\", \
                     \"on_off\", \"heterogeneous\" or \"trace_replay\")"
                )))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn parse_inline_records(rows: &Json) -> Result<Vec<(f64, u32, u32)>> {
    let rows =
        rows.as_array().ok_or_else(|| spec_error("traffic.source: records must be an array"))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let triple = row.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                spec_error(format!(
                    "traffic.source: records[{i}] must be a [time, src, dst] triple"
                ))
            })?;
            let time = triple[0].as_f64().ok_or_else(|| {
                spec_error(format!("traffic.source: records[{i}] time must be a number"))
            })?;
            let node = |j: usize, what: &str| {
                triple[j].as_u64().and_then(|n| u32::try_from(n).ok()).ok_or_else(|| {
                    spec_error(format!("traffic.source: records[{i}] {what} must be a node id"))
                })
            };
            Ok((time, node(1, "src")?, node(2, "dst")?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_system::organizations;
    use rand::SeedableRng;

    fn traffic(rate: f64) -> TrafficConfig {
        TrafficConfig::uniform(32, 256.0, rate).unwrap()
    }

    fn parts() -> (usize, Vec<(usize, usize)>) {
        let system = organizations::small_test_org();
        (system.total_nodes(), Poisson::cluster_ranges_of(&system))
    }

    #[test]
    fn poisson_trait_path_is_bit_identical_to_the_legacy_sampler() {
        // The extracted source must consume exactly the legacy draw sequence:
        // priming equals one inter-arrival from t = 0, re-arming equals one
        // inter-arrival from the previous time, destinations delegate 1:1.
        let (nodes, ranges) = parts();
        let cfg = traffic(1e-3);
        let legacy = Poisson::from_parts(&cfg, nodes, ranges.clone()).unwrap();
        let mut via_trait: Box<dyn TrafficSource> =
            TrafficSourceSpec::Poisson.build(&cfg, nodes, ranges).unwrap();

        let mut rng_a = SmallRng::seed_from_u64(99);
        let mut rng_b = SmallRng::seed_from_u64(99);
        let mut prev = 0.0;
        for step in 0..4096usize {
            let node = step % nodes;
            let t_legacy = prev + legacy.sample_interarrival(&mut rng_a);
            let d_legacy = legacy.sample_destination(&mut rng_a, node);
            let t_trait = via_trait.next_arrival(&mut rng_b, node, prev).unwrap();
            let d_trait = via_trait.destination(&mut rng_b, node);
            assert_eq!(t_legacy.to_bits(), t_trait.to_bits(), "arrival diverged at step {step}");
            assert_eq!(d_legacy, d_trait, "destination diverged at step {step}");
            prev = t_trait;
        }
        // And the RNG streams are fully aligned afterwards.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn on_off_long_run_rate_converges_to_the_configured_rate() {
        let (nodes, ranges) = parts();
        let rate = 1e-3;
        for duty in [0.9, 0.5, 0.2] {
            let mut src = OnOff::new(&traffic(rate), nodes, ranges.clone(), duty, None).unwrap();
            let mut rng = SmallRng::seed_from_u64(7);
            let mut prev = 0.0;
            let n = 200_000u64;
            for _ in 0..n {
                prev = src.next_arrival(&mut rng, 0, prev).unwrap();
            }
            let observed = n as f64 / prev;
            assert!(
                (observed - rate).abs() < rate * 0.05,
                "duty {duty}: long-run rate {observed:.3e} vs configured {rate:.3e}"
            );
            assert!(src.burstiness() > 1.0, "duty {duty} must be burstier than Poisson");
        }
    }

    #[test]
    fn on_off_arrivals_are_strictly_monotone() {
        let (nodes, ranges) = parts();
        let mut src = OnOff::new(&traffic(1e-3), nodes, ranges, 0.3, None).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut prev = 0.0;
        for _ in 0..50_000 {
            let next = src.next_arrival(&mut rng, 2, prev).unwrap();
            assert!(next > prev, "non-monotone arrival {next} after {prev}");
            prev = next;
        }
    }

    #[test]
    fn on_off_burstiness_grows_as_duty_shrinks() {
        let rate = 1e-3;
        let spec = |duty| TrafficSourceSpec::OnOff { duty, mean_on: None };
        let near_poisson = spec(0.95).burstiness(rate).unwrap();
        let mid = spec(0.5).burstiness(rate).unwrap();
        let bursty = spec(0.2).burstiness(rate).unwrap();
        assert!(1.0 < near_poisson && near_poisson < mid && mid < bursty);
        // With the rate-coupled default dwell, c² = 1 + 2K(1 − duty)².
        let expected = 1.0 + 2.0 * DEFAULT_BURST_MESSAGES * (1.0 - 0.5_f64).powi(2);
        assert!((mid - expected).abs() < 1e-9);
        assert_eq!(TrafficSourceSpec::Poisson.burstiness(rate).unwrap(), 1.0);
    }

    #[test]
    fn on_off_rejects_degenerate_duty_cycles() {
        for duty in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(
                TrafficSourceSpec::OnOff { duty, mean_on: None }.validate().is_err(),
                "duty {duty} must be rejected"
            );
        }
        assert!(TrafficSourceSpec::OnOff { duty: 0.5, mean_on: Some(-1.0) }.validate().is_err());
        assert!(TrafficSourceSpec::OnOff { duty: 0.5, mean_on: Some(1e4) }.validate().is_ok());
    }

    #[test]
    fn heterogeneous_multipliers_scale_per_node_rates() {
        let (nodes, ranges) = parts();
        let rate = 1e-3;
        let mut multipliers = vec![1.0; nodes];
        multipliers[0] = 4.0;
        let spec = TrafficSourceSpec::HeterogeneousRates {
            multipliers,
            inner: Box::new(TrafficSourceSpec::Poisson),
        };
        let mut src = spec.build(&traffic(rate), nodes, ranges).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for (node, expect) in [(0usize, 4.0 * rate), (1usize, rate)] {
            let mut prev = 0.0;
            let n = 100_000u64;
            for _ in 0..n {
                prev = src.next_arrival(&mut rng, node, prev).unwrap();
            }
            let observed = n as f64 / prev;
            assert!(
                (observed - expect).abs() < expect * 0.05,
                "node {node}: rate {observed:.3e} vs expected {expect:.3e}"
            );
        }
        // Effective mean rate accounts for the multiplier mix.
        let effective = spec.effective_rate(rate, nodes).unwrap();
        let mean = (4.0 + (nodes - 1) as f64) / nodes as f64;
        assert!((effective - rate * mean).abs() < 1e-15);
    }

    #[test]
    fn heterogeneous_validation_rejects_bad_multiplier_sets() {
        let (nodes, ranges) = parts();
        let cfg = traffic(1e-3);
        let build = |multipliers: Vec<f64>| {
            TrafficSourceSpec::HeterogeneousRates {
                multipliers,
                inner: Box::new(TrafficSourceSpec::Poisson),
            }
            .build(&cfg, nodes, ranges.clone())
        };
        assert!(build(vec![1.0; nodes]).is_ok());
        assert!(build(vec![1.0; nodes - 1]).is_err(), "length must match the node count");
        let mut zero = vec![1.0; nodes];
        zero[3] = 0.0;
        assert!(build(zero).is_err());
        // A trace inner source is structurally rejected.
        let spec = TrafficSourceSpec::HeterogeneousRates {
            multipliers: vec![1.0; nodes],
            inner: Box::new(TrafficSourceSpec::TraceReplay {
                path: Some("x.csv".into()),
                records: None,
            }),
        };
        assert!(spec.validate().is_err());
    }

    fn inline_trace(records: Vec<(f64, u32, u32)>) -> TrafficSourceSpec {
        TrafficSourceSpec::TraceReplay { path: None, records: Some(records) }
    }

    #[test]
    fn trace_replay_replays_records_verbatim() {
        let (nodes, ranges) = parts();
        let rows = vec![(10.0, 0, 5), (20.0, 1, 0), (30.0, 0, 2), (45.0, 2, 7)];
        let spec = inline_trace(rows.clone());
        let mut src = spec.build(&traffic(1e-3), nodes, ranges).unwrap();
        assert_eq!(src.message_limit(), Some(4));
        let mut rng = SmallRng::seed_from_u64(1);
        // Node 0 has two records; nodes 1 and 2 one each; node 3 none.
        assert_eq!(src.next_arrival(&mut rng, 0, 0.0), Some(10.0));
        assert_eq!(src.destination(&mut rng, 0), 5);
        assert_eq!(src.next_arrival(&mut rng, 1, 0.0), Some(20.0));
        assert_eq!(src.destination(&mut rng, 1), 0);
        assert_eq!(src.next_arrival(&mut rng, 0, 10.0), Some(30.0));
        assert_eq!(src.destination(&mut rng, 0), 2);
        assert_eq!(src.next_arrival(&mut rng, 0, 30.0), None);
        assert_eq!(src.next_arrival(&mut rng, 3, 0.0), None);
        // No RNG draws at all: the stream is untouched.
        let mut fresh = SmallRng::seed_from_u64(1);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
        // Rebind rewinds the cursors for a bit-identical rerun.
        let mut src = src;
        src.rebind(&traffic(1e-3)).unwrap();
        assert_eq!(src.next_arrival(&mut rng, 0, 0.0), Some(10.0));
    }

    #[test]
    fn trace_rejection_paths_are_typed_invalid_spec() {
        let (nodes, ranges) = parts();
        let cfg = traffic(1e-3);
        let build = |spec: TrafficSourceSpec| spec.build(&cfg, nodes, ranges.clone());
        let is_invalid_spec =
            |r: Result<Box<dyn TrafficSource>>| matches!(r, Err(SimError::InvalidSpec { .. }));
        // Unsorted and duplicate timestamps.
        assert!(is_invalid_spec(build(inline_trace(vec![(2.0, 0, 1), (1.0, 1, 0)]))));
        assert!(is_invalid_spec(build(inline_trace(vec![(1.0, 0, 1), (1.0, 1, 0)]))));
        // Non-positive time, self-addressed record, out-of-range node id.
        assert!(is_invalid_spec(build(inline_trace(vec![(0.0, 0, 1), (1.0, 1, 0)]))));
        assert!(is_invalid_spec(build(inline_trace(vec![(1.0, 0, 0), (2.0, 1, 0)]))));
        assert!(is_invalid_spec(build(inline_trace(vec![(1.0, 0, 1), (2.0, 9999, 0)]))));
        // Too short, and neither/both of path & records.
        assert!(is_invalid_spec(build(inline_trace(vec![(1.0, 0, 1)]))));
        assert!(is_invalid_spec(build(TrafficSourceSpec::TraceReplay {
            path: None,
            records: None
        })));
        assert!(is_invalid_spec(build(TrafficSourceSpec::TraceReplay {
            path: Some("/nonexistent/trace.csv".into()),
            records: Some(vec![(1.0, 0, 1), (2.0, 1, 0)]),
        })));
        // A missing file is a typed error, not a panic.
        assert!(is_invalid_spec(build(TrafficSourceSpec::TraceReplay {
            path: Some("/nonexistent/trace.csv".into()),
            records: None,
        })));
    }

    #[test]
    fn trace_file_parsers_validate_records() {
        // CSV: comments and blank lines skipped, class column optional.
        let csv = "# demo trace\n10.0, 0, 5\n20.0, 1, 0, intra\n\n30.5, 0, 2\n";
        let records = parse_trace_csv(csv, "t.csv").unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1], RawRecord { time: 20.0, src: 1, dst: 0, class: Some(false) });
        // Malformed CSV rows are typed errors.
        for bad in [
            "10.0, 0\n20.0, 1, 0",
            "ten, 0, 1\n20.0, 1, 0",
            "10.0, a, 1\n20.0, 1, 0",
            "10.0, 0, 1, express\n20.0, 1, 0",
            "10.0, 0, 1, 2, 3\n20.0, 1, 0",
        ] {
            assert!(parse_trace_csv(bad, "t.csv").is_err(), "accepted malformed CSV {bad:?}");
        }
        // JSON: array of objects with unknown keys rejected.
        let json = r#"[{"time": 1.5, "src": 0, "dst": 3},
                       {"time": 2.5, "src": 3, "dst": 0, "class": "intra"}]"#;
        let records = parse_trace_json(json, "t.json").unwrap();
        assert_eq!(records[1].class, Some(false));
        assert!(parse_trace_json(
            r#"[{"time": 1.0, "src": 0, "dst": 3, "extra": 1},
                                     {"time": 2.0, "src": 3, "dst": 0}]"#,
            "t.json"
        )
        .is_err());
        assert!(parse_trace_json(r#"{"time": 1.0}"#, "t.json").is_err());
        assert!(
            parse_trace_json(
                r#"[{"time": 1.0, "src": 0.5, "dst": 3},
                                     {"time": 2.0, "src": 3, "dst": 0}]"#,
                "t.json"
            )
            .is_err(),
            "fractional node ids must be rejected"
        );
    }

    #[test]
    fn trace_class_declarations_are_checked_against_the_partition() {
        let (nodes, ranges) = parts();
        // small_test_org: cluster 0 covers a prefix of the node space; node 0
        // and node (nodes-1) are in different clusters.
        let intra_pair = (0u64, 1u64);
        let inter_pair = (0u64, (nodes - 1) as u64);
        let mk = |pair: (u64, u64), class| {
            vec![
                RawRecord { time: 1.0, src: pair.0, dst: pair.1, class: Some(class) },
                RawRecord { time: 2.0, src: pair.1, dst: pair.0, class: None },
            ]
        };
        assert!(TraceReplay::bind(&mk(intra_pair, false), nodes, &ranges).is_ok());
        assert!(TraceReplay::bind(&mk(intra_pair, true), nodes, &ranges).is_err());
        assert!(TraceReplay::bind(&mk(inter_pair, true), nodes, &ranges).is_ok());
        assert!(TraceReplay::bind(&mk(inter_pair, false), nodes, &ranges).is_err());
    }

    #[test]
    fn spec_json_round_trips_every_kind() {
        let specs = [
            TrafficSourceSpec::Poisson,
            TrafficSourceSpec::OnOff { duty: 0.25, mean_on: None },
            TrafficSourceSpec::OnOff { duty: 0.5, mean_on: Some(2.5e4) },
            TrafficSourceSpec::HeterogeneousRates {
                multipliers: vec![1.0, 2.0, 0.5],
                inner: Box::new(TrafficSourceSpec::OnOff { duty: 0.5, mean_on: None }),
            },
            TrafficSourceSpec::TraceReplay {
                path: Some("specs/traces/a.csv".into()),
                records: None,
            },
            TrafficSourceSpec::TraceReplay {
                path: None,
                records: Some(vec![(1.0, 0, 1), (2.0, 1, 0)]),
            },
        ];
        for spec in specs {
            let rendered = spec.to_json().to_compact();
            let parsed = TrafficSourceSpec::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(parsed, spec, "round trip failed for {rendered}");
        }
    }

    #[test]
    fn spec_json_rejects_unknown_kinds_and_keys() {
        let parse = |s: &str| TrafficSourceSpec::from_json(&Json::parse(s).unwrap());
        assert!(parse(r#"{"kind": "self_similar"}"#).is_err());
        assert!(parse(r#"{"kind": "poisson", "duty": 0.5}"#).is_err());
        assert!(parse(r#"{"kind": "on_off"}"#).is_err(), "duty is required");
        assert!(parse(r#"{"kind": "on_off", "duty": 0.5, "burst": 3}"#).is_err());
        assert!(parse(r#"{"kind": "on_off", "duty": 1.5}"#).is_err());
        assert!(parse(r#"{"kind": "heterogeneous"}"#).is_err());
        assert!(parse(r#"{"kind": "heterogeneous", "multipliers": [1.0, "x"]}"#).is_err());
        assert!(
            parse(
                r#"{"kind": "heterogeneous", "multipliers": [1.0],
                      "inner": {"kind": "trace_replay", "path": "t.csv"}}"#
            )
            .is_err(),
            "trace inner source must be rejected"
        );
        assert!(parse(r#"{"kind": "trace_replay"}"#).is_err());
        assert!(parse(r#"{"kind": "trace_replay", "path": "t.csv", "format": "csv"}"#).is_err());
        assert!(parse(r#"{"kind": "trace_replay", "records": [[1.0, 0]]}"#).is_err());
    }
}
