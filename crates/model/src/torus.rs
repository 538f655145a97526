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
//! class, extended one stage per `d`, solves every journey length in turn.
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
//! `source → hotspot` route on top; only that table is dense (one count per
//! link channel), and only a hot-spot pattern builds it.
//!
//! The per-stage blocking recursion uses the *usage-weighted mean* channel
//! rate of the message class (background or hot-spot), and saturation is
//! declared from a worst-case recursion over the most loaded channel — the
//! direct-network counterparts of the per-network mean rates and utilisation
//! checks of the tree model. One evaluation gathers all of these in one pass
//! over the channels, walked in channel-index order with the node digits
//! stepped as an odometer, so each weighted sum adds the same terms in the
//! same order whatever the table layout.
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
use mcnet_topology::{KaryNCube, NodeId};

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
    /// `ring_rate[digit]`: the background message rate of each channel leaving
    /// `digit`; derived from `usage` by [`TorusModel::set_rate`].
    ring_rate: Vec<[f64; 4]>,
    /// `Σ usage` over every link channel of the torus (an exact integer).
    uniform_total: f64,
    /// The hot-spot component, when the pattern has one.
    hotspot: Option<HotspotLoads>,
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

impl ClassRates {
    /// Adds one link's two dateline channels, used `usage` times at rates
    /// `rate`.
    #[inline]
    fn add(&mut self, usage: [f64; 2], rate: [f64; 2], link_rate: f64) {
        self.vc += usage[0] * rate[0];
        self.vc += usage[1] * rate[1];
        self.link += (usage[0] + usage[1]) * link_rate;
    }

    /// The sums divided by the class's total usage (zero for an unused class).
    fn mean(self, total: f64) -> ClassRates {
        if total == 0.0 {
            return ClassRates::default();
        }
        ClassRates { vc: self.vc / total, link: self.link / total }
    }
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

        let loads = ChannelLoads::build(&cube, ring.usage, hotspot)?;
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
        let usage = self.loads.usage.as_flattened();
        for (r, &u) in self.loads.ring_rate.as_flattened_mut().iter_mut().zip(usage) {
            *r = lambda_uniform * u / k * correction;
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
        let rate = self.loads.ring_rate[self.cube.digit(node, dimension)][j];
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
        // Saturation gate: the most loaded link channel, on the longest journey,
        // with the most loaded ejection channel as the final stage.
        let m_tcs = self.times.message_switch_time();
        let loads = self.loads.scan(&self.cube);
        let eta_max = loads.vc_max;
        let ej_max = self.max_ejection_rate();
        let worst = longest_journey(self.hop_probs.len(), ej_max, &self.times, |walk| {
            walk.extend(eta_max, m_tcs)
        });
        service::check_channel_utilization(&worst, None)?;

        // Background (uniformly-routed) class.
        let eta_uni = loads.uniform.vc;
        let ej_uni = self.mean_background_ejection_rate();
        let class = |probs: &[f64], eta_link: f64, eta_ejection: f64| {
            class_network_latency(probs, eta_ejection, &self.times, |walk| {
                walk.extend(eta_link, m_tcs)
            })
        };
        let s_uni = class(&self.hop_probs, eta_uni, ej_uni);
        let s_intra = class(&self.intra_probs, eta_uni, ej_uni);
        let s_inter = class(&self.inter_probs, eta_uni, ej_uni);

        // Hot-spot class (empty under uniform traffic). A uniformly-placed
        // source is uniformly far from the hot node, so the hot class shares
        // the background hop distribution.
        let s_hot = if let Some(hot_node) = self.hotspot {
            let ej_hot = self.ejection_rate(hot_node)?;
            Some(class(&self.hop_probs, loads.hotspot.vc, ej_hot))
        } else {
            None
        };
        self.compose(s_uni, s_intra, s_inter, s_hot, worst.max_utilization, None)
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
    /// [`escape_fraction`]; a header then *waits* only when its candidates and
    /// the escape channel are all busy, which [`adaptive_stage`] models as a
    /// blocking product.
    fn evaluate_adaptive(&self, adaptive_vcs: usize) -> Result<TorusLatencyReport> {
        if adaptive_vcs == 0 {
            return Err(ModelError::InvalidConfiguration {
                reason: "minimal-adaptive routing needs at least 1 adaptive virtual channel".into(),
            });
        }
        let v = adaptive_vcs as f64;
        let candidates = v * self.mean_active_dimensions();
        let hold = self.times.message_switch_time();

        // Saturation gate: the most loaded physical link, with the adaptive /
        // escape split it settles into at this load.
        let loads = self.loads.scan(&self.cube);
        let (eta_vc_max, link_max) = (loads.vc_max, loads.link_max);
        let beta_max = escape_fraction(link_max, v, candidates, hold);
        let (eta_a_max, eta_e_max) = (link_max * (1.0 - beta_max) / v, beta_max * eta_vc_max);
        let worst =
            longest_journey(self.hop_probs.len(), self.max_ejection_rate(), &self.times, |walk| {
                adaptive_stage(walk, eta_a_max, eta_e_max, candidates, hold)
            });
        service::check_channel_utilization(&worst, None)?;

        // Background class: usage-weighted link totals drive the fixed point,
        // the usage-weighted deterministic VC rate scales the escape class.
        let ClassRates { vc: eta_vc_uni, link: link_uni } = loads.uniform;
        let beta_uni = escape_fraction(link_uni, v, candidates, hold);
        let eta_a_uni = link_uni * (1.0 - beta_uni) / v;
        let eta_e_uni = beta_uni * eta_vc_uni;
        let ej_uni = self.mean_background_ejection_rate();
        let journey = |probs: &[f64], eta_a: f64, eta_e: f64, ej: f64| {
            class_network_latency(probs, ej, &self.times, |walk| {
                adaptive_stage(walk, eta_a, eta_e, candidates, hold)
            })
        };
        let s_uni = journey(&self.hop_probs, eta_a_uni, eta_e_uni, ej_uni);
        let s_intra = journey(&self.intra_probs, eta_a_uni, eta_e_uni, ej_uni);
        let s_inter = journey(&self.inter_probs, eta_a_uni, eta_e_uni, ej_uni);

        // Hot-spot class: its own link loads, its own escape share.
        let (s_hot, beta_hot) = if let Some(hot_node) = self.hotspot {
            let ClassRates { vc: eta_vc_hot, link: link_hot } = loads.hotspot;
            let beta_hot = escape_fraction(link_hot, v, candidates, hold);
            let eta_a_hot = link_hot * (1.0 - beta_hot) / v;
            let s = journey(
                &self.hop_probs,
                eta_a_hot,
                beta_hot * eta_vc_hot,
                self.ejection_rate(hot_node)?,
            );
            (Some(s), beta_hot)
        } else {
            (None, 0.0)
        };
        let beta = self.hot_weight * beta_hot + (1.0 - self.hot_weight) * beta_uni;
        self.compose(s_uni, s_intra, s_inter, s_hot, worst.max_utilization, Some(beta))
    }

    /// Mixes the per-class network latencies into the full report — the
    /// source-queue waiting time, class mixture and tail times shared by the
    /// deterministic and adaptive evaluations (which differ only in how the
    /// per-journey stage recursion treats blocking).
    fn compose(
        &self,
        s_uni: StageOutcome,
        s_intra: StageOutcome,
        s_inter: StageOutcome,
        s_hot: Option<StageOutcome>,
        max_channel_utilization: f64,
        escape_fraction: Option<f64>,
    ) -> Result<TorusLatencyReport> {
        let lambda = self.traffic.generation_rate;
        let n = self.cube.num_nodes() as f64;
        let t_cs = self.times.t_cs;
        let t_cn = self.times.t_cn;

        let d_avg = mean_hops(&self.hop_probs);
        let d_intra = mean_hops(&self.intra_probs);
        let d_inter = mean_hops(&self.inter_probs);
        // The hot class shares the background hop distribution.
        let d_hot = d_avg;

        // Class mixture: the network latency the injection channel is held for.
        let w_hot = self.hot_weight;
        let network = match s_hot {
            Some(hot) => w_hot * hot.latency + (1.0 - w_hot) * s_uni.latency,
            None => s_uni.latency,
        };
        let tail_of = |d: f64| d * t_cs + t_cn;
        let tail = match s_hot {
            Some(_) => w_hot * tail_of(d_hot) + (1.0 - w_hot) * tail_of(d_avg),
            None => tail_of(d_avg),
        };

        // Injection source queue: every message of a node passes through its one
        // injection channel, which stays busy for the message's entire network
        // latency — the M/G/1 of Eqs. (19)–(23) with the Draper–Ghosh variance.
        // The torus has no cluster-aggregate reading: the rate is per-node.
        let source_wait = source_queue::waiting_time(
            &SourceQueueInput {
                kind: SourceQueueKind::Injection,
                per_node_rate: lambda,
                aggregate_rate: lambda * n,
                network_latency: network,
                minimum_latency: self.times.message_node_time(),
                cluster: None,
            },
            &ModelOptions {
                source_queue_rate: crate::options::SourceQueueRate::PerNode,
                ..self.options
            },
        )?;

        let total = source_wait + network + tail;
        let intra = source_wait + s_intra.latency + tail_of(d_intra);
        // On a 1-D torus every destination shares the single sub-ring: the
        // inter class is empty (all-zero distribution) and mirrors the intra
        // class instead of reporting a fabricated near-zero latency.
        let inter = if self.intra_fraction >= 1.0 {
            intra
        } else {
            source_wait + s_inter.latency + tail_of(d_inter)
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
            hotspot_total: s_hot.map(|s| source_wait + s.latency + tail_of(d_hot)),
            background_total: s_hot.map(|_| source_wait + s_uni.latency + tail_of(d_avg)),
            average_hops: match s_hot {
                Some(_) => w_hot * d_hot + (1.0 - w_hot) * d_avg,
                None => d_avg,
            },
            max_channel_utilization,
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

/// The stationary escape share `β` of one class: the probability that a header
/// finds all of its adaptive candidates busy and falls back to the escape
/// class. With the adaptive VCs carrying the load share `1 − β` spread over
/// `V` channels per link, each candidate is busy with probability
/// `η_link·(1 − β)/V · M·t_cs` (raw holding time), and candidate independence
/// gives the fixed point
///
/// ```text
/// β = (η_link·(1 − β)/V · M·t_cs)^c̄
/// ```
///
/// with `c̄` the mean candidate count. Solved by damped iteration (the map is
/// decreasing in `β`, so the plain iteration oscillates).
fn escape_fraction(eta_link: f64, adaptive_vcs: f64, candidates: f64, hold: f64) -> f64 {
    let mut beta = 0.5;
    for _ in 0..200 {
        let eta_adaptive = eta_link * (1.0 - beta) / adaptive_vcs;
        let next = (eta_adaptive * hold).clamp(0.0, 1.0).powf(candidates);
        let damped = 0.5 * (beta + next);
        if (damped - beta).abs() < 1e-13 {
            return damped;
        }
        beta = damped;
    }
    beta
}

/// Mean network latency of one class. A `d`-link journey is the ejection stage
/// behind `d` link stages, so it is the `d − 1`-link journey with one more
/// link stage in front: one walk from the ejection stage, extended by `link`
/// once per hop, reads every journey of the class in turn, weighted by the
/// class's hop-count distribution (`probs[d − 1]`).
fn class_network_latency(
    probs: &[f64],
    eta_ejection: f64,
    times: &ChannelTimes,
    mut link: impl FnMut(&mut StageWalk),
) -> StageOutcome {
    let mut walk = StageWalk::deliver(eta_ejection, times);
    let mut latency = 0.0;
    let mut max_utilization: f64 = 0.0;
    for &p in probs {
        link(&mut walk);
        if p == 0.0 {
            continue;
        }
        let outcome = walk.outcome();
        latency += p * outcome.latency;
        max_utilization = max_utilization.max(outcome.max_utilization);
    }
    StageOutcome { latency, max_utilization }
}

/// The `d`-link journey alone: the ejection stage behind `d` stages of `link`.
fn longest_journey(
    d: usize,
    eta_ejection: f64,
    times: &ChannelTimes,
    mut link: impl FnMut(&mut StageWalk),
) -> StageOutcome {
    let mut walk = StageWalk::deliver(eta_ejection, times);
    for _ in 0..d {
        link(&mut walk);
    }
    walk.outcome()
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
                let dateline = if dir_idx == 0 { k - 1 } else { 0 };
                let mut digit = start;
                let mut wrapped = false;
                for hop in 0..routes {
                    wrapped = wrapped || (k > 2 && digit == dateline);
                    usage[digit][2 * dir_idx + usize::from(wrapped)] += (routes - hop) as f64;
                    digit = match (dir_idx, digit) {
                        (0, d) if d == k - 1 => 0,
                        (0, d) => d + 1,
                        (_, 0) => k - 1,
                        (_, d) => d - 1,
                    };
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
    fn build(
        cube: &KaryNCube,
        usage: Vec<[f64; 4]>,
        hotspot: Option<usize>,
    ) -> Result<ChannelLoads> {
        let n_nodes = cube.num_nodes();
        let dims = cube.dimensions();
        // Every digit occurs `N/k` times in each of the `n` dimensions. The
        // counts are integers, so the product is exact.
        let ring_total: f64 = usage.as_flattened().iter().sum();
        let uniform_total = ring_total * (n_nodes / cube.radix() * dims) as f64;

        // Hot-spot usage: enumerate every source → hotspot route (with the
        // shared dateline-VC definition) and count its traversals.
        let hotspot = match hotspot {
            Some(h) => {
                let mut counts = vec![0u32; n_nodes * dims * 4];
                let target = NodeId::from_index(h);
                let mut hops = Vec::new();
                for src in (0..n_nodes).filter(|&src| src != h) {
                    hops.clear();
                    cube.route_into(NodeId::from_index(src), target, &mut hops)?;
                    let vcs = cube.dateline_vcs_iter(NodeId::from_index(src), &hops)?;
                    let mut from = src;
                    for (hop, vc) in hops.iter().zip(vcs) {
                        let j = 2 * usize::from(hop.direction < 0) + usize::from(vc);
                        counts[(from * dims + hop.dimension) * 4 + j] += 1;
                        from = hop.node.index();
                    }
                }
                let total = counts.iter().map(|&c| f64::from(c)).sum();
                Some(HotspotLoads { counts, total, addend: 0.0 })
            }
            None => None,
        };
        let ring_rate = vec![[0.0; 4]; usage.len()];
        Ok(ChannelLoads { usage, ring_rate, uniform_total, hotspot })
    }

    /// One pass over every link channel, in link-channel order, reading the
    /// class-weighted mean rates and the largest channel and link rates. The
    /// node digits step as an odometer, so a channel's background load is a
    /// lookup of its digit's.
    fn scan(&self, cube: &KaryNCube) -> LoadScan {
        let (k, dims) = (cube.radix(), cube.dimensions());
        let mut digits = [0usize; MAX_MODEL_TORUS_DIMENSIONS];
        // Every digit occurs in the torus, so the background rates' maximum is
        // the largest channel rate under uniform traffic; hot-spot traversals
        // only raise rates.
        let mut vc_max = self.ring_rate.as_flattened().iter().fold(0.0f64, |m, &r| m.max(r));
        let mut link_max = 0.0f64;
        let mut uniform = ClassRates::default();
        let mut hotspot = ClassRates::default();
        let mut channel = 0;
        for _ in 0..cube.num_nodes() {
            for &digit in &digits[..dims] {
                let (usage, ring_rate) = (&self.usage[digit], &self.ring_rate[digit]);
                for j in [0, 2] {
                    let mut rate = [ring_rate[j], ring_rate[j + 1]];
                    let mut counts = [0, 0];
                    if let Some(hot) = &self.hotspot {
                        counts = [hot.counts[channel + j], hot.counts[channel + j + 1]];
                        for (rate, count) in rate.iter_mut().zip(counts) {
                            *rate = with_hotspot_traffic(*rate, count, hot.addend);
                        }
                    }
                    let link_rate = rate[0] + rate[1];
                    uniform.add([usage[j], usage[j + 1]], rate, link_rate);
                    link_max = link_max.max(link_rate);
                    if counts != [0, 0] {
                        vc_max = vc_max.max(rate[0]).max(rate[1]);
                        hotspot.add(counts.map(f64::from), rate, link_rate);
                    }
                }
                channel += 4;
            }
            for digit in &mut digits[..dims] {
                *digit += 1;
                if *digit < k {
                    break;
                }
                *digit = 0;
            }
        }
        LoadScan {
            vc_max,
            link_max,
            uniform: uniform.mean(self.uniform_total),
            hotspot: hotspot.mean(self.hotspot.as_ref().map_or(0.0, |hot| hot.total)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn the_channel_walk_matches_a_per_channel_reading() {
        // The odometer walk must read every channel in index order with its
        // own digit: the same sums, term for term, as walking the channels by
        // `link_rate` with the digits divided out of each node index.
        let torus = |k, nd| TorusSystem::new(k, nd).unwrap();
        let uniform = TrafficConfig::uniform(16, 256.0, 2e-3).unwrap();
        for (k, nd, hotspot) in [(4, 2, None), (3, 2, Some(4)), (2, 3, Some(7)), (5, 1, Some(0))] {
            let traffic = match hotspot {
                Some(hotspot) => uniform
                    .with_pattern(TrafficPattern::Hotspot { hotspot, fraction: 0.3 })
                    .unwrap(),
                None => uniform,
            };
            let m = TorusModel::new(&torus(k, nd), &traffic, ModelOptions::default()).unwrap();
            let (mut vc_max, mut link_max) = (0.0f64, 0.0f64);
            let (mut uniform_sums, mut hot_sums) = (ClassRates::default(), ClassRates::default());
            for node in 0..m.cube.num_nodes() {
                for dim in 0..nd {
                    let usage = m.loads.usage[m.cube.digit(node, dim)];
                    for (dir, j) in [(1, 0), (-1, 2)] {
                        let rate = [0, 1].map(|vc| m.link_rate(node, dim, dir, vc).unwrap());
                        vc_max = vc_max.max(rate[0]).max(rate[1]);
                        link_max = link_max.max(rate[0] + rate[1]);
                        uniform_sums.add([usage[j], usage[j + 1]], rate, rate[0] + rate[1]);
                        if let Some(hot) = &m.loads.hotspot {
                            let c = (node * nd + dim) * 4 + j;
                            let counts = [hot.counts[c], hot.counts[c + 1]].map(f64::from);
                            hot_sums.add(counts, rate, rate[0] + rate[1]);
                        }
                    }
                }
            }
            let scan = m.loads.scan(&m.cube);
            let hot_total = m.loads.hotspot.as_ref().map_or(0.0, |hot| hot.total);
            let bits = |r: ClassRates| [r.vc.to_bits(), r.link.to_bits()];
            assert_eq!(scan.vc_max.to_bits(), vc_max.to_bits(), "({k},{nd})");
            assert_eq!(scan.link_max.to_bits(), link_max.to_bits(), "({k},{nd})");
            assert_eq!(bits(scan.uniform), bits(uniform_sums.mean(m.loads.uniform_total)));
            assert_eq!(bits(scan.hotspot), bits(hot_sums.mean(hot_total)), "({k},{nd})");
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

    #[test]
    fn variance_option_lowers_the_source_wait() {
        let torus = TorusSystem::new(4, 2).unwrap();
        let traffic = TrafficConfig::uniform(16, 256.0, 4e-3).unwrap();
        let with =
            TorusModel::new(&torus, &traffic, ModelOptions::default()).unwrap().evaluate().unwrap();
        let without = TorusModel::new(&torus, &traffic, ModelOptions::default().without_variance())
            .unwrap()
            .evaluate()
            .unwrap();
        assert!(without.source_wait < with.source_wait);
        assert_eq!(with.network, without.network);
    }
}
