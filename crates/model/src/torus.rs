//! An analytical mean-latency model for the k-ary n-cube (torus) fabric — the
//! Draper–Ghosh / Ould-Khaoua lineage the paper builds on (its references
//! \[6\]–\[9\]), instantiated to match the wormhole simulator's `CubeFabric`
//! backend channel for channel.
//!
//! ## Model structure
//!
//! The same pipeline as the tree model, with the torus topology supplying the
//! geometry:
//!
//! ```text
//! hop-count distribution   P(d)          exact per-ring convolution
//! channel message rates    η_c           exact per-ring-digit loads (see below)
//! stage service times      S_k           backward recursion of Eqs. (16)–(18)
//! source-queue waiting     W             M/G/1, Draper–Ghosh variance (Eq. 22)
//! tail-flit time           R             d·t_cs + t_cn per journey (Eq. 24 analogue)
//! composition              T = W + S + R
//! ```
//!
//! A message crossing `d` links passes through `d + 1` stages: `d` link
//! channels served in `M·t_cs` each, then the ejection channel served in
//! `M·t_cn` — exactly the channels of the simulator's itinerary (the injection
//! channel is the M/G/1 source-queue server, as in the tree model). Every
//! journey of a class ends in the same ejection stage, so the `d`-link journey
//! is the `d − 1`-link one with a link stage in front: one backward walk per
//! stage sequence, extended one stage per `d`, solves every journey length in
//! turn. The background classes (all, intra, inter) share their ejection and
//! link stages, so they read one walk at their own hop weights; the hot-spot
//! class and the worst-case journey advance beside it in the same loop.
//!
//! ## Channel loads
//!
//! Dimension-order routing makes the per-dimension digit pairs independent and
//! uniform, so the uniform-traffic load of a link channel depends only on the
//! ring digit it leaves, its ring direction *and its dateline virtual channel*:
//! one enumeration of a single ring gives all `4k` of those loads, whatever
//! the node and dimension (the direction tie-break and the Dally–Seitz dateline
//! VC switch mirror `KaryNCube` hop for hop; the workspace integration tests
//! pin this against a brute-force count over the simulator's own
//! itineraries). Binding a rate therefore rescales `4k` numbers, not one per
//! channel. Hot-spot traffic adds the traversal counts of every
//! `source → hotspot` route on top. Routes correct dimension 0 first and the
//! dateline VC resets per ring, so those counts also follow from one ring per
//! dimension: `k^d` sources share each route suffix in dimension `d`. Only
//! that table is dense (one count per link channel), and only a hot-spot
//! pattern builds it.
//!
//! The per-stage blocking recursion uses the *usage-weighted mean* channel
//! rate of the message class (background or hot-spot), and saturation is
//! declared from a worst-case recursion over the most loaded channel — the
//! direct-network counterparts of the per-network mean rates and utilisation
//! checks of the tree model. Each weighted sum adds one term per channel, in
//! channel-index order with the node digits stepped as an odometer, so it
//! adds the same terms in the same order whatever the table layout. Under
//! uniform traffic a channel's terms depend only on its digit, so binding a
//! rate stores them per digit and an evaluation only adds them up; a
//! hot-spot pattern computes them channel by channel.
//!
//! ## Assumptions and limits
//!
//! * Destination patterns: uniform and hot-spot. Sub-ring local-favoring
//!   traffic changes the hop-count distribution itself and is not modelled.
//! * Virtual channels are independent servers (as in the simulator, where each
//!   VC has its own occupancy and full link bandwidth), not Dally-style
//!   time-multiplexed shares.
//! * Blocking at different stages is independent (the Draper–Ghosh assumption
//!   shared with the tree model); like the paper's model, it under-predicts
//!   near saturation where tree-saturation effects couple the stages.

use crate::options::{ModelOptions, TorusRouting};
use crate::service::{self, ChannelTimes, StageOutcome, StageWalk};
use crate::source_queue::{self, SourceQueueInput, SourceQueueKind};
use crate::{ModelError, Result};
use mcnet_system::{TorusSystem, TrafficConfig, TrafficPattern};
use mcnet_topology::KaryNCube;

/// Largest torus population the analytical model accepts. A hot-spot pattern
/// keeps a dense traversal count per link channel (`N · n · 2 · 2` entries),
/// and every evaluation walks all the channels, so the model is capped well
/// below the simulator's `MAX_TORUS_NODES` id budget.
const MAX_MODEL_TORUS_NODES: usize = 1 << 16;

/// The most dimensions a modelled torus can have (`k ≥ 2`): the length of the
/// channel walk's digit odometer.
const MAX_MODEL_TORUS_DIMENSIONS: usize = MAX_MODEL_TORUS_NODES.ilog2() as usize;

/// The latency report of one torus-model evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TorusLatencyReport {
    /// The per-node generation rate the report was computed for.
    pub generation_rate: f64,
    /// Mean source-queue waiting time `W` at the injection channel.
    pub source_wait: f64,
    /// Mean network latency `S` (class-mixed).
    pub network: f64,
    /// Mean tail-flit time `R` (class-mixed).
    pub tail: f64,
    /// Mean message latency `T = W + S + R`.
    pub total: f64,
    /// Mean latency of background messages staying in their dimension-0
    /// sub-ring (the torus analogue of the tree's intra-cluster class).
    pub intra: f64,
    /// Mean latency of background messages crossing sub-rings (equal to
    /// [`TorusLatencyReport::intra`] on a 1-D torus, whose inter class is
    /// empty).
    pub inter: f64,
    /// Probability that a background message stays in its sub-ring,
    /// `(k − 1)/(N − 1)`.
    pub intra_fraction: f64,
    /// Mean latency of hot-spot-directed messages, when the pattern has a
    /// hot-spot component.
    pub hotspot_total: Option<f64>,
    /// Mean latency of the background (uniformly-routed) messages, when the
    /// pattern has a hot-spot component.
    pub background_total: Option<f64>,
    /// Average link hops per message.
    pub average_hops: f64,
    /// Worst stage utilisation of the saturation recursion over the most loaded
    /// channel.
    pub max_channel_utilization: f64,
    /// Under minimal-adaptive routing, the modelled probability that a header
    /// finds every adaptive candidate busy and falls back to the escape class
    /// (`None` under deterministic routing).
    pub escape_fraction: Option<f64>,
}

/// The link-channel loads of one torus + traffic point, per ring digit.
///
/// The four channels leaving a ring digit are indexed `2·dir_idx + vc`
/// (`dir_idx` 0 for `+1`, 1 for `−1`; `vc` the dateline virtual channel), and
/// the link channels of the whole torus are numbered in that order within
/// `(node, dimension)`, `(node·n + dimension)·4 + 2·dir_idx + vc`.
#[derive(Debug, Clone, PartialEq)]
struct ChannelLoads {
    /// `usage[digit]`: traversals of each channel leaving `digit`, summed over
    /// all `k²` ordered digit pairs of one ring (the background component).
    usage: Vec<[f64; 4]>,
    /// `ring[digit]`: the background rates of the channels leaving `digit`
    /// and their terms of the background sums; derived from `usage` by
    /// [`TorusModel::set_rate`].
    ring: Vec<DigitRates>,
    /// `Σ usage` over every link channel of the torus (an exact integer).
    uniform_total: f64,
    /// The hot-spot component, when the pattern has one.
    hotspot: Option<HotspotLoads>,
}

/// The background loads of the four channels leaving one ring digit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DigitRates {
    /// The channels' rates, indexed like [`ChannelLoads::usage`].
    rate: [f64; 4],
    /// Per direction (`dir_idx`): the link's two dateline VC rates summed.
    link_rate: [f64; 2],
    /// Per direction: the link's [`LinkTerms`] in the background sums.
    terms: [LinkTerms; 2],
}

impl DigitRates {
    fn new(usage: [f64; 4], rate: [f64; 4]) -> DigitRates {
        let link_rate = [rate[0] + rate[1], rate[2] + rate[3]];
        let terms = [0, 2].map(|j| {
            LinkTerms::new([usage[j], usage[j + 1]], [rate[j], rate[j + 1]], link_rate[j / 2])
        });
        DigitRates { rate, link_rate, terms }
    }
}

/// The hot-spot component of [`ChannelLoads`].
#[derive(Debug, Clone, PartialEq)]
struct HotspotLoads {
    /// Traversal count of every link channel over all `source → hotspot`
    /// routes, in link-channel order.
    counts: Vec<u32>,
    /// `Σ counts`.
    total: f64,
    /// `f·λ_g`, added once per traversal to a channel's background rate; set
    /// by [`TorusModel::set_rate`].
    addend: f64,
}

/// The class-weighted loads of one evaluation, gathered in one pass over the
/// link channels.
#[derive(Debug, Clone, Copy)]
struct LoadScan {
    /// The largest link-channel rate.
    vc_max: f64,
    /// The largest *link-total* rate: both dateline VCs of a
    /// `(node, dimension, direction)` link folded together (minimal-adaptive
    /// routing preserves exactly these totals, only the VC split changes).
    link_max: f64,
    /// The background class.
    uniform: ClassRates,
    /// The hot-spot class (zero under uniform traffic).
    hotspot: ClassRates,
}

/// The usage-weighted mean rates of one message class: the expected rate of
/// the channel (`vc`) and of the link (`link`) a random hop of the class
/// acquires. Sums until [`ChannelLoads::scan`] divides them by the class's
/// total usage.
#[derive(Debug, Clone, Copy, Default)]
struct ClassRates {
    vc: f64,
    link: f64,
}

/// What one link adds to a class's [`ClassRates`] sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LinkTerms {
    /// `usage·rate` of each of its two dateline channels.
    vc: [f64; 2],
    /// `Σ usage · link rate`.
    link: f64,
}

impl LinkTerms {
    /// The terms of a link whose two dateline channels are used `usage` times
    /// at rates `rate`.
    #[inline]
    fn new(usage: [f64; 2], rate: [f64; 2], link_rate: f64) -> LinkTerms {
        LinkTerms {
            vc: [usage[0] * rate[0], usage[1] * rate[1]],
            link: (usage[0] + usage[1]) * link_rate,
        }
    }
}

impl ClassRates {
    /// Adds one link's terms.
    #[inline]
    fn add(&mut self, terms: LinkTerms) {
        self.vc += terms.vc[0];
        self.vc += terms.vc[1];
        self.link += terms.link;
    }

    /// The sums divided by the class's total usage (zero for an unused class).
    fn mean(self, total: f64) -> ClassRates {
        if total == 0.0 {
            return ClassRates::default();
        }
        ClassRates { vc: self.vc / total, link: self.link / total }
    }
}

/// The mean network latencies of one evaluation's message classes, read off
/// its stage walks by [`TorusModel::walk_journeys`].
#[derive(Debug, Clone, Copy)]
struct Journeys {
    /// The background class, and its sub-ring (intra) and crossing (inter)
    /// parts.
    uniform: f64,
    intra: f64,
    inter: f64,
    /// The hot-spot class, when the pattern has one.
    hot: Option<f64>,
    /// The saturation gate: the longest journey over the most loaded channels,
    /// ending in the most loaded ejection channel.
    worst: StageOutcome,
}

/// The analytical k-ary n-cube model, bound to one system and traffic point.
#[derive(Debug, Clone)]
pub struct TorusModel {
    torus: TorusSystem,
    traffic: TrafficConfig,
    options: ModelOptions,
    times: ChannelTimes,
    cube: KaryNCube,
    loads: ChannelLoads,
    /// `P(d links | dest ≠ src)` for `d = 1..=diameter` (index `d − 1`).
    hop_probs: Vec<f64>,
    /// `P(d | background message stays in its dimension-0 sub-ring)`.
    intra_probs: Vec<f64>,
    /// `P(d | background message crosses sub-rings)`.
    inter_probs: Vec<f64>,
    /// `P(background message stays in its sub-ring)`.
    intra_fraction: f64,
    /// Fraction of all messages that are hot-spot-directed, `(N−1)·f/N`.
    hot_weight: f64,
    /// Hot-spot node, when the pattern has one.
    hotspot: Option<usize>,
}

impl TorusModel {
    /// Builds the model for a torus and traffic point.
    ///
    /// Supports [`TrafficPattern::Uniform`] and [`TrafficPattern::Hotspot`];
    /// sub-ring local-favoring traffic is rejected (it reshapes the hop-count
    /// distribution itself and is only available in the simulator).
    pub fn new(
        torus: &TorusSystem,
        traffic: &TrafficConfig,
        options: ModelOptions,
    ) -> Result<Self> {
        traffic.validate().map_err(ModelError::from)?;
        let n_total = torus.total_nodes();
        if n_total > MAX_MODEL_TORUS_NODES {
            return Err(ModelError::InvalidConfiguration {
                reason: format!(
                    "the analytical torus model supports up to {MAX_MODEL_TORUS_NODES} nodes, \
                     got {n_total}"
                ),
            });
        }
        let (hotspot, fraction) = match traffic.pattern {
            TrafficPattern::Uniform => (None, 0.0),
            TrafficPattern::Hotspot { hotspot, fraction } => {
                if hotspot >= n_total {
                    return Err(ModelError::InvalidConfiguration {
                        reason: format!(
                            "hot-spot node {hotspot} is out of range for a torus of {n_total} nodes"
                        ),
                    });
                }
                if fraction > 0.0 {
                    (Some(hotspot), fraction)
                } else {
                    (None, 0.0)
                }
            }
            TrafficPattern::LocalFavoring { .. } => {
                return Err(ModelError::InvalidConfiguration {
                    reason: "the analytical torus model supports uniform and hot-spot traffic \
                             only (local-favoring destinations reshape the hop distribution)"
                        .into(),
                });
            }
        };
        let cube = KaryNCube::new(torus.radix(), torus.dimensions())?;
        let times = ChannelTimes::new(torus.technology(), traffic);

        let ring = RingUsage::enumerate(torus.radix());
        let (hop_probs, intra_probs, inter_probs, intra_fraction) =
            hop_distributions(&ring.distance_probs, torus.dimensions());

        let loads = ChannelLoads::build(&cube, ring.usage, hotspot);
        let n = n_total as f64;
        let mut model = TorusModel {
            torus: torus.clone(),
            traffic: *traffic,
            options,
            times,
            cube,
            loads,
            hop_probs,
            intra_probs,
            inter_probs,
            intra_fraction,
            hot_weight: fraction * (n - 1.0) / n,
            hotspot,
        };
        model.set_rate(traffic.generation_rate)?;
        Ok(model)
    }

    /// Binds the model to a per-node generation rate: derives the per-digit
    /// background rates from the stored (rate-independent) usage counts, `4k`
    /// numbers whatever the torus size. A subsequent [`TorusModel::evaluate`]
    /// is that of a model built at the new rate.
    pub fn set_rate(&mut self, rate: f64) -> Result<()> {
        self.traffic = self.traffic.with_rate(rate).map_err(ModelError::from)?;
        let n = self.cube.num_nodes() as f64;
        let k = self.cube.radix() as f64;
        // The per-source rate of the background (uniform-destination)
        // component: non-hot sources send (1 − f)·λ_g uniformly, the hot node
        // sends its full λ_g uniformly; the symmetric equivalent spreads the
        // difference. Hot-spot routes add f·λ_g per traversal.
        let lambda_uniform = match (&mut self.loads.hotspot, self.traffic.pattern) {
            (Some(hot), TrafficPattern::Hotspot { fraction, .. }) => {
                hot.addend = fraction * rate;
                rate * ((n - 1.0) * (1.0 - fraction) + 1.0) / n
            }
            _ => rate,
        };
        // A channel leaving digit `a` of dimension `i` is traversed
        // `usage[a][dir][vc]·k^(n-1)` times over all N² ordered pairs, i.e. at
        // rate λ_u · usage/k · N/(N−1) once destinations exclude the source.
        let correction = n / (n - 1.0);
        for (digit, &usage) in self.loads.ring.iter_mut().zip(&self.loads.usage) {
            *digit = DigitRates::new(usage, usage.map(|u| lambda_uniform * u / k * correction));
        }
        Ok(())
    }

    /// The system the model describes.
    pub fn torus(&self) -> &TorusSystem {
        &self.torus
    }

    /// The traffic point the model is bound to.
    pub fn traffic(&self) -> &TrafficConfig {
        &self.traffic
    }

    /// The modelled message rate of one link channel (messages per time unit on
    /// the given node's outgoing channel in `dimension`, ring `direction`
    /// `+1`/`-1`, dateline virtual channel `vc`). Exposed so the load model can
    /// be cross-checked against a brute-force count over simulator itineraries.
    pub fn link_rate(
        &self,
        node: usize,
        dimension: usize,
        direction: i8,
        vc: usize,
    ) -> Result<f64> {
        if node >= self.cube.num_nodes()
            || dimension >= self.cube.dimensions()
            || !matches!(direction, -1 | 1)
            || vc >= 2
        {
            return Err(ModelError::InvalidConfiguration {
                reason: format!(
                    "no such channel: node {node}, dimension {dimension}, direction {direction}, \
                     vc {vc}"
                ),
            });
        }
        let j = 2 * usize::from(direction < 0) + vc;
        let rate = self.loads.ring[self.cube.digit(node, dimension)].rate[j];
        Ok(match &self.loads.hotspot {
            Some(hot) => {
                let channel = (node * self.cube.dimensions() + dimension) * 4 + j;
                with_hotspot_traffic(rate, hot.counts[channel], hot.addend)
            }
            None => rate,
        })
    }

    /// The modelled arrival rate of a node's ejection channel.
    fn ejection_rate(&self, node: usize) -> Result<f64> {
        if node >= self.cube.num_nodes() {
            return Err(ModelError::InvalidConfiguration {
                reason: format!("node {node} out of range"),
            });
        }
        let n = self.cube.num_nodes() as f64;
        let lambda = self.traffic.generation_rate;
        Ok(match (self.hotspot, &self.traffic.pattern) {
            (Some(h), TrafficPattern::Hotspot { fraction, .. }) => {
                if node == h {
                    lambda * ((n - 1.0) * fraction + (1.0 - fraction))
                } else {
                    lambda * ((n - 2.0) * (1.0 - fraction) + 1.0) / (n - 1.0)
                }
            }
            _ => lambda,
        })
    }

    /// Evaluates the model. Fails with [`ModelError::Saturated`] when the
    /// worst-channel recursion or the injection source queue has no steady
    /// state at this load. The routing discipline comes from
    /// [`ModelOptions::torus_routing`].
    pub fn evaluate(&self) -> Result<TorusLatencyReport> {
        match self.options.torus_routing {
            TorusRouting::Deterministic => self.evaluate_deterministic(),
            TorusRouting::AdaptiveMinimal { adaptive_vcs } => self.evaluate_adaptive(adaptive_vcs),
        }
    }

    /// The Draper–Ghosh baseline: dimension-order routing, one deterministic
    /// dateline VC per hop.
    fn evaluate_deterministic(&self) -> Result<TorusLatencyReport> {
        let m_tcs = self.times.message_switch_time();
        let loads = self.loads.scan(&self.cube);
        // Each link stage is one channel at its class's mean rate; the
        // saturation gate's is the most loaded channel.
        let journeys =
            self.walk_journeys(loads.uniform.vc, loads.hotspot.vc, loads.vc_max, |walk, eta| {
                walk.extend(eta, m_tcs)
            })?;
        service::check_channel_utilization(&journeys.worst, None)?;
        self.compose(&journeys, None)
    }

    /// The minimal-adaptive variant in Duato's framework. The physical link
    /// set of a minimal route is the dimension-order one reordered, so the
    /// deterministic per-link totals (summed over the two dateline VCs) remain
    /// the exact per-link message rates; what changes is how a hop acquires a
    /// VC on that link. A share `1 − β` of the load flows over the
    /// `adaptive_vcs` unrestricted VCs (spread evenly — the simulator picks
    /// uniformly among free candidates), and the share `β` that found every
    /// candidate busy falls back to the escape class, which keeps the
    /// deterministic dateline discipline. `β` is the fixed point of
    /// [`escape_fractions`]; a header then *waits* only when its candidates
    /// and the escape channel are all busy, which [`adaptive_stage`] models as
    /// a blocking product.
    fn evaluate_adaptive(&self, adaptive_vcs: usize) -> Result<TorusLatencyReport> {
        if adaptive_vcs == 0 {
            return Err(ModelError::InvalidConfiguration {
                reason: "minimal-adaptive routing needs at least 1 adaptive virtual channel".into(),
            });
        }
        let v = adaptive_vcs as f64;
        let candidates = v * self.mean_active_dimensions();
        let hold = self.times.message_switch_time();

        // Each class's link totals drive its own escape share; the saturation
        // gate's is the most loaded physical link's.
        let loads = self.loads.scan(&self.cube);
        let (link_max, link_uni, link_hot) =
            (loads.link_max, loads.uniform.link, loads.hotspot.link);
        let [beta_max, beta_uni, beta_hot] = match self.hotspot {
            Some(_) => escape_fractions([link_max, link_uni, link_hot], v, candidates, hold),
            None => {
                let [beta_max, beta_uni] =
                    escape_fractions([link_max, link_uni], v, candidates, hold);
                [beta_max, beta_uni, 0.0]
            }
        };
        // A link stage's adaptive VCs share the link total left to them; its
        // escape VC carries the escape share of the deterministic VC rate.
        let stage = |link: f64, beta: f64, eta_vc: f64| (link * (1.0 - beta) / v, beta * eta_vc);
        let journeys = self.walk_journeys(
            stage(link_uni, beta_uni, loads.uniform.vc),
            stage(link_hot, beta_hot, loads.hotspot.vc),
            stage(link_max, beta_max, loads.vc_max),
            |walk, (eta_adaptive, eta_escape)| {
                adaptive_stage(walk, eta_adaptive, eta_escape, candidates, hold)
            },
        )?;
        service::check_channel_utilization(&journeys.worst, None)?;
        let beta = self.hot_weight * beta_hot + (1.0 - self.hot_weight) * beta_uni;
        self.compose(&journeys, Some(beta))
    }

    /// Walks every stage sequence of one evaluation side by side, one link
    /// stage per step: the background classes' shared walk, the hot-spot
    /// class's (when the pattern has one) and the saturation gate's longest
    /// journey, each ending in its own ejection stage and extended by `link`
    /// at its own rates. A `d`-link journey is the `d − 1`-link one with a
    /// link stage in front, so step `d` reads every class's `d`-link journey,
    /// weighted by the class's hop-count probability (a hot-spot message is
    /// uniformly far from the hot node, so its class shares the background
    /// distribution).
    fn walk_journeys<L: Copy>(
        &self,
        background: L,
        hot: L,
        worst: L,
        link: impl Fn(&mut StageWalk, L),
    ) -> Result<Journeys> {
        let times = &self.times;
        let mut background_walk = StageWalk::deliver(self.mean_background_ejection_rate(), times);
        let mut hot_walk = match self.hotspot {
            Some(node) => Some(StageWalk::deliver(self.ejection_rate(node)?, times)),
            None => None,
        };
        let mut worst_walk = StageWalk::deliver(self.max_ejection_rate(), times);
        let (mut uniform, mut intra, mut inter, mut hot_latency) = (0.0, 0.0, 0.0, 0.0);
        let weights = self.hop_probs.iter().zip(&self.intra_probs).zip(&self.inter_probs);
        for ((&p, &p_intra), &p_inter) in weights {
            link(&mut worst_walk, worst);
            link(&mut background_walk, background);
            let latency = background_walk.outcome().latency;
            for (sum, p) in [(&mut uniform, p), (&mut intra, p_intra), (&mut inter, p_inter)] {
                if p != 0.0 {
                    *sum += p * latency;
                }
            }
            if let Some(walk) = &mut hot_walk {
                link(walk, hot);
                if p != 0.0 {
                    hot_latency += p * walk.outcome().latency;
                }
            }
        }
        Ok(Journeys {
            uniform,
            intra,
            inter,
            hot: hot_walk.map(|_| hot_latency),
            worst: worst_walk.outcome(),
        })
    }

    /// Mixes the per-class network latencies into the full report — the
    /// source-queue waiting time, class mixture and tail times shared by the
    /// deterministic and adaptive evaluations (which differ only in how the
    /// per-journey stage recursion treats blocking).
    fn compose(
        &self,
        journeys: &Journeys,
        escape_fraction: Option<f64>,
    ) -> Result<TorusLatencyReport> {
        let lambda = self.traffic.generation_rate;
        let t_cs = self.times.t_cs;
        let t_cn = self.times.t_cn;

        let d_avg = mean_hops(&self.hop_probs);
        let d_intra = mean_hops(&self.intra_probs);
        let d_inter = mean_hops(&self.inter_probs);
        // The hot class shares the background hop distribution.
        let d_hot = d_avg;

        // Class mixture: the network latency the injection channel is held for.
        let w_hot = self.hot_weight;
        let network = match journeys.hot {
            Some(hot) => w_hot * hot + (1.0 - w_hot) * journeys.uniform,
            None => journeys.uniform,
        };
        let tail_of = |d: f64| d * t_cs + t_cn;
        let tail = match journeys.hot {
            Some(_) => w_hot * tail_of(d_hot) + (1.0 - w_hot) * tail_of(d_avg),
            None => tail_of(d_avg),
        };

        // Injection source queue: every message of a node passes through its one
        // injection channel, which stays busy for the message's entire network
        // latency — the M/G/1 of Eqs. (19)–(23) with the Draper–Ghosh variance.
        let source_wait = source_queue::waiting_time(&SourceQueueInput {
            kind: SourceQueueKind::Injection,
            per_node_rate: lambda,
            network_latency: network,
            minimum_latency: self.times.message_node_time(),
            cluster: None,
        })?;

        let total = source_wait + network + tail;
        let intra = source_wait + journeys.intra + tail_of(d_intra);
        // On a 1-D torus every destination shares the single sub-ring: the
        // inter class is empty (all-zero distribution) and mirrors the intra
        // class instead of reporting a fabricated near-zero latency.
        let inter = if self.intra_fraction >= 1.0 {
            intra
        } else {
            source_wait + journeys.inter + tail_of(d_inter)
        };
        Ok(TorusLatencyReport {
            generation_rate: lambda,
            source_wait,
            network,
            tail,
            total,
            intra,
            inter,
            intra_fraction: self.intra_fraction,
            hotspot_total: journeys.hot.map(|s| source_wait + s + tail_of(d_hot)),
            background_total: journeys.hot.map(|_| source_wait + journeys.uniform + tail_of(d_avg)),
            average_hops: match journeys.hot {
                Some(_) => w_hot * d_hot + (1.0 - w_hot) * d_avg,
                None => d_avg,
            },
            max_channel_utilization: journeys.worst.max_utilization,
            escape_fraction,
        })
    }

    /// The most loaded ejection channel's arrival rate. Every node but the hot
    /// one (if any) ejects at the same rate, so two nodes stand for all.
    fn max_ejection_rate(&self) -> f64 {
        let hot = self.hotspot.unwrap_or(0);
        let rate = |node| self.ejection_rate(node).unwrap_or(0.0);
        0.0f64.max(rate(hot)).max(rate(usize::from(hot == 0)))
    }

    /// `E[#dimensions still to correct | dest ≠ src]` — the number of
    /// dimensions (hence candidate hop directions) a header can choose among.
    /// Each ring digit pair differs with probability `1 − 1/k`, so the mean is
    /// `n·(1 − 1/k) / (1 − k^{-n})` once conditioned on a non-trivial pair.
    fn mean_active_dimensions(&self) -> f64 {
        let k = self.torus.radix() as f64;
        let n = self.torus.dimensions() as i32;
        let p_move = 1.0 - 1.0 / k;
        let p_nonzero = 1.0 - (1.0 / k).powi(n);
        (n as f64 * p_move / p_nonzero).max(1.0)
    }

    /// Convenience: the total mean latency, or `None` when saturated.
    pub fn total_latency(&self) -> Option<f64> {
        self.evaluate().ok().map(|r| r.total)
    }

    /// The mean ejection rate seen by a background message (its destination is
    /// uniform over the other nodes, the hot node included).
    fn mean_background_ejection_rate(&self) -> f64 {
        let n = self.cube.num_nodes() as f64;
        match self.hotspot {
            None => self.traffic.generation_rate,
            Some(h) => {
                let at_hot = self.ejection_rate(h).unwrap_or(0.0);
                let elsewhere = self.ejection_rate(usize::from(h == 0)).unwrap_or(0.0);
                (at_hot + (n - 2.0) * elsewhere) / (n - 1.0)
            }
        }
    }
}

/// A channel's rate: its background `rate` plus `f·λ_g` for each of its
/// `count` hot-spot traversals — one addition per traversal, not a product,
/// so the pinned bits hold.
#[inline]
fn with_hotspot_traffic(mut rate: f64, count: u32, addend: f64) -> f64 {
    for _ in 0..count {
        rate += addend;
    }
    rate
}

/// The stationary escape shares `β` of several classes, one per link rate
/// `η_link`: the probability that a header finds all of its adaptive
/// candidates busy and falls back to the escape class. With the adaptive VCs
/// carrying the load share `1 − β` spread over `V` channels per link, each
/// candidate is busy with probability `η_link·(1 − β)/V · M·t_cs` (raw holding
/// time), and candidate independence gives the fixed point
///
/// ```text
/// β = (η_link·(1 − β)/V · M·t_cs)^c̄
/// ```
///
/// with `c̄` the mean candidate count. Solved by damped iteration (the map is
/// decreasing in `β`, so the plain iteration oscillates). The chains iterate
/// side by side so their `powf` steps overlap, but each stops on its own: at
/// its first step under 1e-13, or after 200 steps, so its share is exactly
/// the one it would reach alone.
fn escape_fractions<const C: usize>(
    eta_links: [f64; C],
    adaptive_vcs: f64,
    candidates: f64,
    hold: f64,
) -> [f64; C] {
    let mut beta = [0.5; C];
    let mut running = [true; C];
    for _ in 0..200 {
        for c in 0..C {
            if running[c] {
                let eta_adaptive = eta_links[c] * (1.0 - beta[c]) / adaptive_vcs;
                let next = (eta_adaptive * hold).clamp(0.0, 1.0).powf(candidates);
                let damped = 0.5 * (beta[c] + next);
                let converged = (damped - beta[c]).abs() < 1e-13;
                running[c] = !converged;
                beta[c] = damped;
            }
        }
        if !running.contains(&true) {
            break;
        }
    }
    beta
}

/// One link stage under minimal-adaptive routing, prepended to `walk`
/// (`m_tcs` is the message switch time). Same step as
/// [`StageWalk::extend`], but a link stage only blocks the header when
/// **all** `c̄` adaptive candidates are busy *and* the escape channel of the
/// dimension-order hop is busy too, so the waiting term is scaled by the
/// blocking product `u_a^c̄ · u_e` instead of a single channel's busy
/// probability (the residual charged is the escape channel's, since that is
/// where the header ends up queueing).
fn adaptive_stage(
    walk: &mut StageWalk,
    eta_adaptive: f64,
    eta_escape: f64,
    candidates: f64,
    m_tcs: f64,
) {
    let service = m_tcs + walk.downstream_wait;
    walk.service = service;
    walk.max_utilization =
        walk.max_utilization.max(eta_adaptive * service).max(eta_escape * service);
    let u_adaptive = (eta_adaptive * service).min(1.0);
    let u_escape = (eta_escape * service).min(1.0);
    walk.downstream_wait += 0.5 * service * u_adaptive.powf(candidates) * u_escape;
}

/// `Σ d · P(d)` over a hop-count distribution indexed `d − 1`.
fn mean_hops(probs: &[f64]) -> f64 {
    probs.iter().enumerate().map(|(idx, p)| (idx + 1) as f64 * p).sum()
}

/// Usage statistics of one k-ring under dimension-order routing with the
/// simulator's direction tie-break and dateline discipline.
struct RingUsage {
    /// `usage[digit][2·dir_idx + vc]`: traversals of the channel leaving
    /// `digit` in direction `dir_idx` (0 = +1, 1 = −1) on `vc`, summed over all
    /// `k²` ordered digit pairs.
    usage: Vec<[f64; 4]>,
    /// `distance_probs[d]`: probability of ring distance `d` (`d = 0..=k/2`)
    /// for a uniform digit pair.
    distance_probs: Vec<f64>,
}

impl RingUsage {
    fn enumerate(k: usize) -> RingUsage {
        // The simulator's tie-break: forward wins on equality, so from every
        // digit the ⌊k/2⌋ destinations ahead are reached forward and the
        // ⌊(k−1)/2⌋ behind backward.
        let forward = k / 2;
        let backward = (k - 1) / 2;
        let mut usage = vec![[0.0f64; 4]; k];
        for start in 0..k {
            for (dir_idx, routes) in [(0, forward), (1, backward)] {
                // One walk as far as the farthest destination: its `hop`-th
                // channel carries every route longer than `hop` hops.
                for (hop, (digit, j)) in ring_walk(k, start, dir_idx, routes).enumerate() {
                    usage[digit][j] += (routes - hop) as f64;
                }
            }
        }
        // Each start digit reaches itself, one destination at every distance
        // up to `forward` ahead and one at every distance up to `backward`
        // behind.
        let pairs = (k * k) as f64;
        let distance_probs = (0..=k / 2)
            .map(|d| {
                let routes =
                    if d == 0 { 1 } else { usize::from(d <= forward) + usize::from(d <= backward) };
                (k * routes) as f64 / pairs
            })
            .collect();
        RingUsage { usage, distance_probs }
    }
}

/// The channels a walk of `hops` hops round a k-ring leaves, from digit
/// `start` in direction `dir_idx` (0 = +1, 1 = −1): each as its digit and its
/// index `2·dir_idx + vc` there, `vc` the dateline virtual channel (1 from the
/// hop that crosses the ring's wrap-around edge on; always 0 when `k = 2`).
fn ring_walk(
    k: usize,
    start: usize,
    dir_idx: usize,
    hops: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let dateline = if dir_idx == 0 { k - 1 } else { 0 };
    let mut digit = start;
    let mut wrapped = false;
    (0..hops).map(move |_| {
        wrapped = wrapped || (k > 2 && digit == dateline);
        let channel = (digit, 2 * dir_idx + usize::from(wrapped));
        digit = match (dir_idx, digit) {
            (0, d) if d == k - 1 => 0,
            (0, d) => d + 1,
            (_, 0) => k - 1,
            (_, d) => d - 1,
        };
        channel
    })
}

/// The direction index (0 = +1, 1 = −1) and hop count of the ring route from
/// digit `from` to `to`: the shorter way, ties broken forward, as
/// `KaryNCube` routes.
fn ring_way(k: usize, from: usize, to: usize) -> (usize, usize) {
    let forward = (to + k - from) % k;
    if forward <= k - forward {
        (0, forward)
    } else {
        (1, k - forward)
    }
}

/// Builds `P(d)` for the full cube (per-ring distance distributions convolved
/// over the dimensions, conditioned on `dest ≠ src`), together with the
/// distributions conditioned on staying in / leaving the dimension-0 sub-ring.
fn hop_distributions(ring_probs: &[f64], dimensions: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, f64) {
    // Full convolution over n independent ring distances.
    let mut full = vec![1.0f64];
    for _ in 0..dimensions {
        full = convolve(&full, ring_probs);
    }
    // Intra (same sub-ring): dimension 0 moves, dimensions 1.. all have
    // distance 0.
    let p_rest_zero: f64 = ring_probs[0].powi(dimensions as i32 - 1);
    let p_zero_total = full[0];
    let p_intra: f64 = ring_probs[1..].iter().sum::<f64>() * p_rest_zero;

    // Condition on dest ≠ src (drop d = 0).
    let p_nonzero = 1.0 - p_zero_total;
    let hop_probs: Vec<f64> = full[1..].iter().map(|p| p / p_nonzero).collect();
    let intra_fraction = p_intra / p_nonzero;

    // Intra-class distribution: the dimension-0 ring distance, conditioned > 0.
    let ring_moving: f64 = ring_probs[1..].iter().sum();
    let mut intra_probs = vec![0.0; hop_probs.len()];
    for (d, &p) in ring_probs.iter().enumerate().skip(1) {
        intra_probs[d - 1] = p / ring_moving;
    }
    // Inter-class distribution: the complement. On a 1-D torus the class is
    // empty (every destination shares the single ring); its distribution is
    // left all-zero and the report mirrors the intra class instead of
    // fabricating a latency from a 0/0 division.
    let p_inter = p_nonzero - p_intra;
    let mut inter_probs = vec![0.0; hop_probs.len()];
    if p_inter > f64::EPSILON {
        for d in 1..full.len() {
            let intra_part = if d < ring_probs.len() { ring_probs[d] * p_rest_zero } else { 0.0 };
            inter_probs[d - 1] = ((full[d] - intra_part) / p_inter).max(0.0);
        }
    }
    (hop_probs, intra_probs, inter_probs, intra_fraction)
}

fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

impl ChannelLoads {
    /// Records the rate-independent usage counts; the rates are left zero for
    /// [`TorusModel::set_rate`] to fill.
    fn build(cube: &KaryNCube, usage: Vec<[f64; 4]>, hotspot: Option<usize>) -> ChannelLoads {
        let n_nodes = cube.num_nodes();
        let dims = cube.dimensions();
        // Every digit occurs `N/k` times in each of the `n` dimensions. The
        // counts are integers, so the product is exact.
        let ring_total: f64 = usage.as_flattened().iter().sum();
        let uniform_total = ring_total * (n_nodes / cube.radix() * dims) as f64;
        let hotspot = hotspot.map(|h| {
            let counts = hotspot_counts(cube, h);
            let total = counts.iter().map(|&c| f64::from(c)).sum();
            HotspotLoads { counts, total, addend: 0.0 }
        });
        let ring = vec![DigitRates::default(); usage.len()];
        ChannelLoads { usage, ring, uniform_total, hotspot }
    }

    /// Reads the class-weighted mean rates and the largest channel and link
    /// rates, adding each channel's terms in link-channel order with the node
    /// digits stepped as an odometer.
    fn scan(&self, cube: &KaryNCube) -> LoadScan {
        match &self.hotspot {
            None => self.scan_uniform(cube),
            Some(hot) => self.scan_channels(cube, hot),
        }
    }

    /// [`ChannelLoads::scan`] under uniform traffic: every channel's terms are
    /// its digit's, stored by [`TorusModel::set_rate`], and every digit occurs
    /// in the torus, so the maxima are the ring's.
    fn scan_uniform(&self, cube: &KaryNCube) -> LoadScan {
        let mut vc_max = 0.0f64;
        let mut link_max = 0.0f64;
        for digit in &self.ring {
            vc_max = digit.rate.iter().fold(vc_max, |m, &r| m.max(r));
            link_max = digit.link_rate.iter().fold(link_max, |m, &r| m.max(r));
        }
        let mut uniform = ClassRates::default();
        for_each_channel_digit(cube, |digit| {
            for terms in self.ring[digit].terms {
                uniform.add(terms);
            }
        });
        LoadScan {
            vc_max,
            link_max,
            uniform: uniform.mean(self.uniform_total),
            hotspot: ClassRates::default(),
        }
    }

    /// [`ChannelLoads::scan`] under a hot-spot pattern, one channel at a time:
    /// a channel's rate is its digit's plus its hot-spot traversals.
    fn scan_channels(&self, cube: &KaryNCube, hot: &HotspotLoads) -> LoadScan {
        // Every digit occurs in the torus, so the background rates' maximum is
        // the largest channel rate under uniform traffic; hot-spot traversals
        // only raise rates.
        let mut vc_max = self.ring.iter().flat_map(|d| d.rate).fold(0.0f64, |m, r| m.max(r));
        let mut link_max = 0.0f64;
        let mut uniform = ClassRates::default();
        let mut hotspot = ClassRates::default();
        let mut channel = 0;
        for_each_channel_digit(cube, |digit| {
            let (usage, ring_rate) = (&self.usage[digit], &self.ring[digit].rate);
            for j in [0, 2] {
                let counts = [hot.counts[channel + j], hot.counts[channel + j + 1]];
                let rate = [0, 1]
                    .map(|vc| with_hotspot_traffic(ring_rate[j + vc], counts[vc], hot.addend));
                let link_rate = rate[0] + rate[1];
                uniform.add(LinkTerms::new([usage[j], usage[j + 1]], rate, link_rate));
                link_max = link_max.max(link_rate);
                if counts != [0, 0] {
                    vc_max = vc_max.max(rate[0]).max(rate[1]);
                    hotspot.add(LinkTerms::new(counts.map(f64::from), rate, link_rate));
                }
            }
            channel += 4;
        });
        LoadScan {
            vc_max,
            link_max,
            uniform: uniform.mean(self.uniform_total),
            hotspot: hotspot.mean(hot.total),
        }
    }
}

/// Calls `visit` with the ring digit of every `(node, dimension)` in
/// link-channel order: nodes in index order, dimensions upwards within each.
/// The node digits step as an odometer, so no index is divided.
#[inline]
fn for_each_channel_digit(cube: &KaryNCube, mut visit: impl FnMut(usize)) {
    let (k, dims) = (cube.radix(), cube.dimensions());
    let mut digits = [0usize; MAX_MODEL_TORUS_DIMENSIONS];
    for _ in 0..cube.num_nodes() {
        for &digit in &digits[..dims] {
            visit(digit);
        }
        for digit in &mut digits[..dims] {
            *digit += 1;
            if *digit < k {
                break;
            }
            *digit = 0;
        }
    }
}

/// The traversal count of every link channel over all `source → hot` routes,
/// in link-channel order, with the dateline VCs of
/// [`KaryNCube::dateline_vcs`]. Routes correct dimension 0 first and restart
/// the dateline VC in each ring, so a route uses a dimension-`d` channel only
/// at a node whose lower digits are already the hot node's, and the `k^d`
/// sources that differ only in those digits share its dimension-`d` hops.
/// The count of the channel leaving such a node on `j` is therefore `k^d`
/// times the number of ring starts whose route to the hot node's digit `d`
/// leaves the node's digit on `j`, and every other dimension-`d` count is 0.
fn hotspot_counts(cube: &KaryNCube, hot: usize) -> Vec<u32> {
    let (k, dims, n_nodes) = (cube.radix(), cube.dimensions(), cube.num_nodes());
    let mut counts = vec![0u32; n_nodes * dims * 4];
    let channels = |node: usize, d: usize| (node * dims + d) * 4;
    // `stride = k^d`, the index step of dimension `d`.
    let mut stride = 1;
    for d in 0..dims {
        let (low, target) = (hot % stride, cube.digit(hot, d));
        // One ring: the nodes whose upper digits are all 0.
        let sources = u32::try_from(stride).expect("a modelled torus has at most 2^16 nodes");
        for start in 0..k {
            let (dir_idx, hops) = ring_way(k, start, target);
            for (digit, j) in ring_walk(k, start, dir_idx, hops) {
                counts[channels(low + stride * digit, d) + j] += sources;
            }
        }
        // Every other ring of the dimension repeats it.
        let ring_span = stride * k;
        for upper in (ring_span..n_nodes).step_by(ring_span) {
            for digit in 0..k {
                let from = channels(low + stride * digit, d);
                counts.copy_within(from..from + 4, channels(low + stride * digit + upper, d));
            }
        }
        stride = ring_span;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnet_topology::NodeId;

    fn model(k: usize, nd: usize, rate: f64) -> TorusModel {
        let torus = TorusSystem::new(k, nd).unwrap();
        let traffic = TrafficConfig::uniform(16, 256.0, rate).unwrap();
        TorusModel::new(&torus, &traffic, ModelOptions::default()).unwrap()
    }

    #[test]
    fn hop_distribution_matches_average_distance() {
        for &(k, nd) in &[(4usize, 2usize), (3, 3), (5, 2), (2, 4), (8, 2)] {
            let m = model(k, nd, 1e-5);
            let d_avg = mean_hops(&m.hop_probs);
            let expected = m.cube.average_distance();
            assert!((d_avg - expected).abs() < 1e-9, "({k},{nd}): {d_avg} vs {expected}");
            let total: f64 = m.hop_probs.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn class_split_is_consistent() {
        let m = model(4, 2, 1e-4);
        let n = m.cube.num_nodes() as f64;
        let k = m.torus.radix() as f64;
        assert!((m.intra_fraction - (k - 1.0) / (n - 1.0)).abs() < 1e-12);
        // The intra/inter mixture reproduces the full distribution.
        for d in 0..m.hop_probs.len() {
            let mixed =
                m.intra_fraction * m.intra_probs[d] + (1.0 - m.intra_fraction) * m.inter_probs[d];
            assert!((mixed - m.hop_probs[d]).abs() < 1e-12, "d={}", d + 1);
        }
        // Sub-ring journeys are shorter on average.
        assert!(mean_hops(&m.intra_probs) < mean_hops(&m.inter_probs));
    }

    #[test]
    fn uniform_link_rates_are_symmetric_across_parallel_rings() {
        let m = model(4, 2, 1e-3);
        // Nodes 0 and 4 have the same dimension-0 digit, so their dimension-0
        // channels carry identical load.
        for dir in [1, -1] {
            for vc in 0..2 {
                assert_eq!(
                    m.link_rate(0, 0, dir, vc).unwrap(),
                    m.link_rate(4, 0, dir, vc).unwrap()
                );
            }
        }
        assert!(m.link_rate(99, 0, 1, 0).is_err());
        assert!(m.link_rate(0, 5, 1, 0).is_err());
        assert!(m.link_rate(0, 0, 2, 0).is_err());
    }

    #[test]
    fn total_uniform_load_matches_average_distance() {
        // Σ_c η_c must equal N·λ·d_avg (messages × hops, spread over channels).
        for &(k, nd) in &[(4usize, 2usize), (3, 2), (2, 3)] {
            let m = model(k, nd, 1e-3);
            let mut total = 0.0;
            for node in 0..m.cube.num_nodes() {
                for dim in 0..nd {
                    for (dir, vc) in [(1, 0), (1, 1), (-1, 0), (-1, 1)] {
                        total += m.link_rate(node, dim, dir, vc).unwrap();
                    }
                }
            }
            let n = m.cube.num_nodes() as f64;
            let expected = n * 1e-3 * m.cube.average_distance();
            assert!((total - expected).abs() < 1e-9 * expected.max(1.0), "({k},{nd})");
        }
    }

    /// The fabrics `model_bits.rs` pins: radices with and without a
    /// direction tie, `k = 2` (no dateline VC split) and a 1-D ring.
    const FABRICS: [(usize, usize); 8] =
        [(4, 2), (8, 2), (16, 2), (4, 3), (3, 2), (5, 2), (2, 3), (8, 1)];

    /// Hot-spot nodes spread over a torus of `n` nodes.
    fn hot_nodes(n: usize) -> [usize; 5] {
        [0, 1, n / 3, n / 2 + 1, n - 1]
    }

    #[test]
    fn the_channel_walk_matches_a_per_channel_reading() {
        // Both scans must read every channel in index order with its own
        // digit: the same sums, term for term and bit for bit, as walking the
        // channels by `link_rate` with the digits divided out of each node
        // index. Under uniform traffic that checks the stored per-digit terms.
        for (k, nd) in FABRICS {
            let torus = TorusSystem::new(k, nd).unwrap();
            let hot_spots = hot_nodes(torus.total_nodes()).map(Some);
            for hotspot in [None].into_iter().chain(hot_spots) {
                for rate in [1e-5, 2e-3, 5e-2] {
                    let uniform = TrafficConfig::uniform(16, 256.0, rate).unwrap();
                    let traffic = match hotspot {
                        Some(hotspot) => uniform
                            .with_pattern(TrafficPattern::Hotspot { hotspot, fraction: 0.3 })
                            .unwrap(),
                        None => uniform,
                    };
                    let m = TorusModel::new(&torus, &traffic, ModelOptions::default()).unwrap();
                    let scan = m.loads.scan(&m.cube);
                    let per_channel = per_channel_scan(&m);
                    let bits = |s: &LoadScan| {
                        [s.vc_max, s.link_max, s.uniform.vc, s.uniform.link]
                            .into_iter()
                            .chain([s.hotspot.vc, s.hotspot.link])
                            .map(f64::to_bits)
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&scan), bits(&per_channel), "({k},{nd}) {hotspot:?} {rate}");
                }
            }
        }
    }

    /// [`ChannelLoads::scan`] read channel by channel through
    /// [`TorusModel::link_rate`], each sum written out term by term.
    fn per_channel_scan(m: &TorusModel) -> LoadScan {
        let nd = m.cube.dimensions();
        let (mut vc_max, mut link_max) = (0.0f64, 0.0f64);
        let (mut uniform, mut hotspot) = (ClassRates::default(), ClassRates::default());
        for node in 0..m.cube.num_nodes() {
            for dim in 0..nd {
                let usage = m.loads.usage[m.cube.digit(node, dim)];
                for (dir, j) in [(1, 0), (-1, 2)] {
                    let rate = [0, 1].map(|vc| m.link_rate(node, dim, dir, vc).unwrap());
                    let link = rate[0] + rate[1];
                    vc_max = vc_max.max(rate[0]).max(rate[1]);
                    link_max = link_max.max(link);
                    uniform.vc += usage[j] * rate[0];
                    uniform.vc += usage[j + 1] * rate[1];
                    uniform.link += (usage[j] + usage[j + 1]) * link;
                    if let Some(hot) = &m.loads.hotspot {
                        let c = (node * nd + dim) * 4 + j;
                        let counts = [hot.counts[c], hot.counts[c + 1]].map(f64::from);
                        hotspot.vc += counts[0] * rate[0];
                        hotspot.vc += counts[1] * rate[1];
                        hotspot.link += (counts[0] + counts[1]) * link;
                    }
                }
            }
        }
        let hot_total = m.loads.hotspot.as_ref().map_or(0.0, |hot| hot.total);
        LoadScan {
            vc_max,
            link_max,
            uniform: uniform.mean(m.loads.uniform_total),
            hotspot: hotspot.mean(hot_total),
        }
    }

    /// Every `source → hot` route walked hop by hop through
    /// [`KaryNCube::route_into`] and [`KaryNCube::dateline_vcs_iter`], each
    /// traversal counted.
    fn routed_hotspot_counts(cube: &KaryNCube, hot: usize) -> Vec<u32> {
        let dims = cube.dimensions();
        let mut counts = vec![0u32; cube.num_nodes() * dims * 4];
        let target = NodeId::from_index(hot);
        let mut hops = Vec::new();
        for src in (0..cube.num_nodes()).filter(|&src| src != hot) {
            hops.clear();
            cube.route_into(NodeId::from_index(src), target, &mut hops).unwrap();
            let vcs = cube.dateline_vcs_iter(NodeId::from_index(src), &hops).unwrap();
            let mut from = src;
            for (hop, vc) in hops.iter().zip(vcs) {
                let j = 2 * usize::from(hop.direction < 0) + usize::from(vc);
                counts[(from * dims + hop.dimension) * 4 + j] += 1;
                from = hop.node.index();
            }
        }
        counts
    }

    #[test]
    fn hotspot_counts_match_the_routes() {
        for (k, nd) in FABRICS {
            let cube = KaryNCube::new(k, nd).unwrap();
            for hot in hot_nodes(cube.num_nodes()) {
                let counts = hotspot_counts(&cube, hot);
                assert_eq!(counts, routed_hotspot_counts(&cube, hot), "({k},{nd}) hot {hot}");
            }
        }
    }

    /// One escape share solved alone by the damped iteration, with the number
    /// of steps it took.
    fn lone_escape_fraction(
        eta_link: f64,
        adaptive_vcs: f64,
        candidates: f64,
        hold: f64,
    ) -> (f64, usize) {
        let mut beta = 0.5;
        for step in 1..=200 {
            let eta_adaptive = eta_link * (1.0 - beta) / adaptive_vcs;
            let next = (eta_adaptive * hold).clamp(0.0, 1.0).powf(candidates);
            let damped = 0.5 * (beta + next);
            if (damped - beta).abs() < 1e-13 {
                return (damped, step);
            }
            beta = damped;
        }
        (beta, 200)
    }

    #[test]
    fn side_by_side_escape_shares_match_lone_fixed_points() {
        let etas = [0.0, 1e-4, 3e-3, 1e-2, 3e-2, 0.1, 1.0];
        let mut capped = 0;
        for v in [1.0, 2.0, 3.0] {
            for candidates in [1.0, 1.5, 2.9, 8.0, 50.0] {
                for hold in [16.0, 64.0] {
                    let lone = etas.map(|eta| lone_escape_fraction(eta, v, candidates, hold));
                    capped += lone.iter().filter(|&&(_, steps)| steps == 200).count();
                    let solve = |c: usize| {
                        let solo = escape_fractions([etas[c]], v, candidates, hold);
                        let pair =
                            escape_fractions([etas[c], etas[(c + 1) % 7]], v, candidates, hold);
                        let triple = escape_fractions(
                            [etas[(c + 5) % 7], etas[(c + 3) % 7], etas[c]],
                            v,
                            candidates,
                            hold,
                        );
                        [solo[0], pair[0], triple[2]]
                    };
                    for (c, &(beta, _)) in lone.iter().enumerate() {
                        for side_by_side in solve(c) {
                            assert_eq!(
                                side_by_side.to_bits(),
                                beta.to_bits(),
                                "η {} V {v} c̄ {candidates} hold {hold}",
                                etas[c]
                            );
                        }
                    }
                }
            }
        }
        assert!(capped > 0, "no input reached the 200-step cap");
    }

    /// Mean network latency of one class from a walk of its own.
    fn class_network_latency(
        probs: &[f64],
        eta_ejection: f64,
        times: &ChannelTimes,
        mut link: impl FnMut(&mut StageWalk),
    ) -> f64 {
        let mut walk = StageWalk::deliver(eta_ejection, times);
        let mut latency = 0.0;
        for &p in probs {
            link(&mut walk);
            if p != 0.0 {
                latency += p * walk.outcome().latency;
            }
        }
        latency
    }

    /// Checks [`TorusModel::walk_journeys`] against one walk per class and
    /// one for the longest journey, bit for bit.
    fn check_shared_walk<L: Copy>(m: &TorusModel, rates: [L; 3], link: impl Fn(&mut StageWalk, L)) {
        let [background, hot, worst] = rates;
        let journeys = m.walk_journeys(background, hot, worst, &link).unwrap();
        let ej = m.mean_background_ejection_rate();
        let class = |probs: &[f64], rate: L, ej: f64| {
            class_network_latency(probs, ej, &m.times, |walk| link(walk, rate)).to_bits()
        };
        assert_eq!(journeys.uniform.to_bits(), class(&m.hop_probs, background, ej));
        assert_eq!(journeys.intra.to_bits(), class(&m.intra_probs, background, ej));
        assert_eq!(journeys.inter.to_bits(), class(&m.inter_probs, background, ej));
        let hot_latency = m.hotspot.map(|h| class(&m.hop_probs, hot, m.ejection_rate(h).unwrap()));
        assert_eq!(journeys.hot.map(f64::to_bits), hot_latency);
        let mut longest = StageWalk::deliver(m.max_ejection_rate(), &m.times);
        for _ in 0..m.hop_probs.len() {
            link(&mut longest, worst);
        }
        let outcome = |o: StageOutcome| [o.latency.to_bits(), o.max_utilization.to_bits()];
        assert_eq!(outcome(journeys.worst), outcome(longest.outcome()));
    }

    #[test]
    fn the_shared_walk_matches_per_class_walks() {
        for (k, nd) in FABRICS {
            let torus = TorusSystem::new(k, nd).unwrap();
            let hot = TrafficPattern::Hotspot { hotspot: torus.total_nodes() - 1, fraction: 0.2 };
            for pattern in [TrafficPattern::Uniform, hot] {
                for rate in [1e-4, 3e-3, 2e-2, 0.2] {
                    let traffic = TrafficConfig::uniform(16, 256.0, rate)
                        .unwrap()
                        .with_pattern(pattern)
                        .unwrap();
                    let m = TorusModel::new(&torus, &traffic, ModelOptions::default()).unwrap();
                    let loads = m.loads.scan(&m.cube);
                    let m_tcs = m.times.message_switch_time();
                    check_shared_walk(
                        &m,
                        [loads.uniform.vc, loads.hotspot.vc, loads.vc_max],
                        |walk, eta| walk.extend(eta, m_tcs),
                    );
                    let split = |link: f64| (0.6 * link, 0.3 * link);
                    check_shared_walk(
                        &m,
                        [
                            split(loads.uniform.link),
                            split(loads.hotspot.link),
                            split(loads.link_max),
                        ],
                        |walk, (eta_adaptive, eta_escape)| {
                            adaptive_stage(walk, eta_adaptive, eta_escape, 2.5, m_tcs)
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn zero_load_latency_is_the_transfer_time() {
        let m = model(4, 2, 1e-9);
        let r = m.evaluate().unwrap();
        let t = &m.times;
        // S → M·t_cs, W → 0, R → d_avg·t_cs + t_cn.
        assert!((r.network - t.message_switch_time()).abs() < 1e-3);
        assert!(r.source_wait < 1e-3);
        let d_avg = m.cube.average_distance();
        assert!((r.tail - (d_avg * t.t_cs + t.t_cn)).abs() < 1e-9);
        assert!((r.total - (r.source_wait + r.network + r.tail)).abs() < 1e-12);
        assert!(r.hotspot_total.is_none());
        assert!(r.intra < r.inter, "sub-ring journeys are shorter");
    }

    #[test]
    fn latency_grows_with_load_until_saturation() {
        let mut prev = 0.0;
        for rate in [1e-4, 1e-3, 3e-3, 6e-3] {
            let r = model(4, 2, rate).evaluate().unwrap();
            assert!(r.total > prev, "latency must grow with load at λ={rate}");
            prev = r.total;
        }
        // Far past saturation (beyond the busiest channel's raw bandwidth,
        // 1/(η_max·M·t_cs)) the model reports a typed error.
        let sat = model(4, 2, 2e-1).evaluate();
        assert!(matches!(sat, Err(ModelError::Saturated { .. })), "{sat:?}");
        assert_eq!(model(4, 2, 2e-1).total_latency(), None);
    }

    #[test]
    fn hotspot_concentrates_load_and_raises_latency() {
        let torus = TorusSystem::new(4, 2).unwrap();
        let uniform = TrafficConfig::uniform(16, 256.0, 1e-3).unwrap();
        let hot =
            uniform.with_pattern(TrafficPattern::Hotspot { hotspot: 5, fraction: 0.3 }).unwrap();
        let mu = TorusModel::new(&torus, &uniform, ModelOptions::default()).unwrap();
        let mh = TorusModel::new(&torus, &hot, ModelOptions::default()).unwrap();
        // The hot node's ejection channel carries the concentrated traffic.
        assert!(mh.ejection_rate(5).unwrap() > 4.0 * mu.ejection_rate(5).unwrap());
        assert!(mh.ejection_rate(0).unwrap() < mu.ejection_rate(0).unwrap());
        let ru = mu.evaluate().unwrap();
        let rh = mh.evaluate().unwrap();
        assert!(rh.total > ru.total, "hot-spot contention must raise the mean");
        let hot_total = rh.hotspot_total.unwrap();
        let background = rh.background_total.unwrap();
        assert!(hot_total > background, "hot-spot-directed messages queue at the hot node");
        // Saturation arrives much earlier than under uniform traffic.
        let sat_at = |pattern: Option<(usize, f64)>| {
            let traffic = TrafficConfig::uniform(16, 256.0, 1e-4).unwrap();
            let traffic = match pattern {
                Some((h, f)) => traffic
                    .with_pattern(TrafficPattern::Hotspot { hotspot: h, fraction: f })
                    .unwrap(),
                None => traffic,
            };
            crate::backend::ModelBackend::Torus(torus.clone())
                .find_saturation_rate(&traffic, ModelOptions::default(), 1e-3)
                .unwrap()
        };
        assert!(sat_at(Some((5, 0.3))) < 0.5 * sat_at(None));
    }

    #[test]
    fn one_dimensional_torus_has_no_inter_class() {
        // A single ring is one sub-ring: the inter class is empty, its
        // distribution all-zero, and the report mirrors the intra class
        // instead of fabricating a near-zero latency from 0/0.
        let m = model(8, 1, 1e-3);
        assert_eq!(m.intra_fraction, 1.0);
        assert!(m.inter_probs.iter().all(|&p| p == 0.0));
        let r = m.evaluate().unwrap();
        assert_eq!(r.intra, r.inter);
        assert!((r.intra - r.total).abs() < 1e-9, "one class means intra == total");
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let torus = TorusSystem::new(4, 2).unwrap();
        let local = TrafficConfig::uniform(16, 256.0, 1e-3)
            .unwrap()
            .with_pattern(TrafficPattern::LocalFavoring { locality: 0.5 })
            .unwrap();
        assert!(TorusModel::new(&torus, &local, ModelOptions::default()).is_err());
        let bad_hot = TrafficConfig::uniform(16, 256.0, 1e-3)
            .unwrap()
            .with_pattern(TrafficPattern::Hotspot { hotspot: 16, fraction: 0.2 })
            .unwrap();
        assert!(TorusModel::new(&torus, &bad_hot, ModelOptions::default()).is_err());
    }

    fn adaptive_model(k: usize, nd: usize, rate: f64, vcs: usize) -> TorusModel {
        let torus = TorusSystem::new(k, nd).unwrap();
        let traffic = TrafficConfig::uniform(16, 256.0, rate).unwrap();
        TorusModel::new(&torus, &traffic, ModelOptions::default().with_adaptive_torus(vcs)).unwrap()
    }

    #[test]
    fn adaptive_routing_needs_at_least_one_vc() {
        let r = adaptive_model(4, 2, 1e-3, 0).evaluate();
        assert!(matches!(r, Err(ModelError::InvalidConfiguration { .. })), "{r:?}");
    }

    #[test]
    fn adaptive_routing_converges_to_deterministic_at_zero_load() {
        // With nothing in flight no candidate is ever busy: β → 0, no blocking
        // anywhere, and both disciplines report the pure transfer time.
        let det = model(4, 2, 1e-9).evaluate().unwrap();
        let ada = adaptive_model(4, 2, 1e-9, 1).evaluate().unwrap();
        assert!((det.total - ada.total).abs() < 1e-3, "{} vs {}", det.total, ada.total);
        assert!(ada.escape_fraction.unwrap() < 1e-6);
        assert_eq!(det.escape_fraction, None);
    }

    #[test]
    fn adaptive_routing_lowers_latency_under_load() {
        // At a loaded operating point the blocking product beats single-channel
        // blocking: the adaptive network latency is strictly lower, and more
        // adaptive VCs lower it further.
        let det = model(4, 2, 4e-3).evaluate().unwrap();
        let one = adaptive_model(4, 2, 4e-3, 1).evaluate().unwrap();
        let two = adaptive_model(4, 2, 4e-3, 2).evaluate().unwrap();
        assert!(one.network < det.network, "{} vs {}", one.network, det.network);
        assert!(two.network < one.network);
        let beta = one.escape_fraction.unwrap();
        assert!(beta > 0.0 && beta < 1.0, "{beta}");
        assert!(two.escape_fraction.unwrap() < beta, "more VCs, fewer fallbacks");
    }

    #[test]
    fn escape_fraction_grows_with_load() {
        let mut prev = 0.0;
        for rate in [1e-4, 1e-3, 3e-3, 6e-3] {
            let beta = adaptive_model(4, 2, rate, 1).evaluate().unwrap().escape_fraction.unwrap();
            assert!(beta > prev, "β must grow with load at λ={rate}");
            assert!(beta < 1.0);
            prev = beta;
        }
    }

    #[test]
    fn adaptive_routing_raises_the_saturation_rate() {
        let torus = TorusSystem::new(8, 2).unwrap();
        let backend = crate::backend::ModelBackend::Torus(torus);
        let template = TrafficConfig::uniform(16, 256.0, 1e-4).unwrap();
        let det = backend.find_saturation_rate(&template, ModelOptions::default(), 1e-4).unwrap();
        let ada = backend
            .find_saturation_rate(&template, ModelOptions::default().with_adaptive_torus(1), 1e-4)
            .unwrap();
        assert!(ada > det, "adaptive VCs add capacity: {ada} vs {det}");
    }

    #[test]
    fn adaptive_routing_helps_hotspot_traffic() {
        let torus = TorusSystem::new(4, 2).unwrap();
        let hot = TrafficConfig::uniform(16, 256.0, 1e-3)
            .unwrap()
            .with_pattern(TrafficPattern::Hotspot { hotspot: 5, fraction: 0.3 })
            .unwrap();
        let det =
            TorusModel::new(&torus, &hot, ModelOptions::default()).unwrap().evaluate().unwrap();
        let ada = TorusModel::new(&torus, &hot, ModelOptions::default().with_adaptive_torus(2))
            .unwrap()
            .evaluate()
            .unwrap();
        assert!(ada.network < det.network);
        assert!(ada.hotspot_total.unwrap() < det.hotspot_total.unwrap());
        assert!(ada.escape_fraction.unwrap() > 0.0);
    }
}
