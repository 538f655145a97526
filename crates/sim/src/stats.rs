//! Measurement-phase accounting and latency statistics.
//!
//! The paper's methodology (Section 4): generate messages continuously; discard the
//! first 10,000 delivered observations as warm-up; gather statistics over the next
//! 100,000 messages; keep generating (and simulating) a drain allowance so that the
//! measured messages all reach their destinations under ongoing background load.
//!
//! Messages are tagged at *generation* time: generation indices
//! `[warmup, warmup + measured)` are the measurement window, indices beyond that are
//! drain traffic. Latencies are recorded for measured messages only, split by traffic
//! class (intra vs inter cluster).
//!
//! Two robustness additions ride along without touching the fault-free numbers:
//!
//! * Every run folds its delivered-message stream into an order-stable **FNV-1a
//!   run digest** over `(generation index, class, delivery-time bits)` — two
//!   runs are behaviourally identical iff their digests match, which is how the
//!   goldens prove fault-free determinism end to end.
//! * Fault injection adds retransmit/drop counters, a per-attempt latency
//!   accumulator and an optional **windowed time series** of deliveries and
//!   drops, so reports show the degradation dip and recovery curve around each
//!   fault window.

use crate::message::MessageClass;
use mcnet_queueing::stats::{Histogram, RunningStats};
use serde::{Deserialize, Serialize};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hard cap on time-series buckets; deliveries past it land in the last bucket
/// so a tiny window width cannot balloon memory.
const MAX_WINDOWS: usize = 1 << 20;

/// One delivered message, as the statistics layer sees it.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// Stable generation index of the message (not the recycled slab slot).
    pub gen_id: u32,
    /// Traffic class.
    pub class: MessageClass,
    /// Tail-to-tail latency.
    pub latency: f64,
    /// Simulation time of the delivery.
    pub at: f64,
    /// Whether the message falls in the measurement window.
    pub measured: bool,
    /// Delivery attempts used (1 on the fault-free path; 1 + retransmissions
    /// under faults).
    pub attempts: u32,
}

/// One bucket of the windowed degradation time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyWindow {
    /// Start time of the window (its width is the fault plan's `window`).
    pub start: f64,
    /// Messages delivered inside the window (all phases).
    pub delivered: u64,
    /// Messages dropped inside the window (retry budget exhausted).
    pub dropped: u64,
    /// Mean latency of the window's deliveries, when there were any.
    pub mean_latency: Option<f64>,
}

/// Internal accumulator for one time-series bucket.
#[derive(Debug, Clone, Copy, Default)]
struct WindowSlot {
    delivered: u64,
    dropped: u64,
    latency_sum: f64,
}

/// Statistics collected during one simulation run.
#[derive(Debug, Clone)]
pub struct SimStats {
    warmup: u64,
    measured_target: u64,
    generated: u64,
    delivered: u64,
    delivered_measured: u64,
    latency: RunningStats,
    intra_latency: RunningStats,
    inter_latency: RunningStats,
    histogram: Histogram,
    max_latency: f64,
    /// Retransmissions scheduled after fault aborts.
    retransmits: u64,
    /// Messages dropped after exhausting their retry budget.
    dropped: u64,
    /// Dropped messages that fell in the measurement window.
    dropped_measured: u64,
    /// Latency divided by attempts used, per measured delivery.
    attempt_latency: RunningStats,
    /// Adaptive hops/paths taken off the deterministic route (0 in
    /// deterministic mode).
    adaptive_misroutes: u64,
    /// Hops that fell back to the escape channel because every adaptive
    /// candidate was busy (0 in deterministic mode).
    escape_fallbacks: u64,
    /// FNV-1a accumulator over the delivered-message stream.
    digest: u64,
    /// Windowed delivery/drop series, enabled only for fault runs.
    windows: Option<(f64, Vec<WindowSlot>)>,
}

/// Summary of the per-class latency statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    /// Number of measured messages of the class.
    pub count: u64,
    /// Mean latency.
    pub mean: f64,
    /// Standard deviation of the latency.
    pub std_dev: f64,
}

/// Folds raw bytes into an FNV-1a accumulator.
#[inline]
fn fnv1a_fold(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

impl SimStats {
    /// Creates the accumulator for a run with the given warm-up and measurement
    /// message counts. The histogram bin width adapts to the expected latency scale
    /// (`expected_scale` ≈ a zero-load message latency).
    pub fn new(warmup: u64, measured: u64, expected_scale: f64) -> Self {
        let bin = (expected_scale / 10.0).max(1e-9);
        SimStats {
            warmup,
            measured_target: measured,
            generated: 0,
            delivered: 0,
            delivered_measured: 0,
            latency: RunningStats::new(),
            intra_latency: RunningStats::new(),
            inter_latency: RunningStats::new(),
            histogram: Histogram::new(bin, 1000),
            max_latency: 0.0,
            retransmits: 0,
            dropped: 0,
            dropped_measured: 0,
            attempt_latency: RunningStats::new(),
            adaptive_misroutes: 0,
            escape_fallbacks: 0,
            digest: FNV_OFFSET,
            windows: None,
        }
    }

    /// Rewinds the accumulator for a fresh run with new warm-up/measurement
    /// targets and latency scale — field-for-field what [`SimStats::new`]
    /// produces, but keeping the histogram's bin storage. The windowed time
    /// series is disabled again; a fault plan re-enables it per run.
    pub fn reset(&mut self, warmup: u64, measured: u64, expected_scale: f64) {
        let bin = (expected_scale / 10.0).max(1e-9);
        self.warmup = warmup;
        self.measured_target = measured;
        self.generated = 0;
        self.delivered = 0;
        self.delivered_measured = 0;
        self.latency = RunningStats::new();
        self.intra_latency = RunningStats::new();
        self.inter_latency = RunningStats::new();
        self.histogram.reset(bin);
        self.max_latency = 0.0;
        self.retransmits = 0;
        self.dropped = 0;
        self.dropped_measured = 0;
        self.attempt_latency = RunningStats::new();
        self.adaptive_misroutes = 0;
        self.escape_fallbacks = 0;
        self.digest = FNV_OFFSET;
        self.windows = None;
    }

    /// Turns on the windowed time series with the given bucket width (fault
    /// runs only; fault-free reports keep an empty series).
    pub fn enable_windows(&mut self, width: f64) {
        debug_assert!(width > 0.0 && width.is_finite());
        self.windows = Some((width, Vec::new()));
    }

    /// Registers a newly generated message and returns `(generation index, measured?)`.
    pub fn register_generation(&mut self) -> (u64, bool) {
        let index = self.generated;
        self.generated += 1;
        let measured = index >= self.warmup && index < self.warmup + self.measured_target;
        (index, measured)
    }

    /// Total number of messages to generate in the run (warm-up + measured + drain).
    pub fn generation_target(&self, drain: u64) -> u64 {
        self.warmup + self.measured_target + drain
    }

    /// The time-series bucket covering time `at`, grown on demand.
    fn window_slot(&mut self, at: f64) -> Option<&mut WindowSlot> {
        let (width, slots) = self.windows.as_mut()?;
        let idx = ((at / *width) as usize).min(MAX_WINDOWS - 1);
        if idx >= slots.len() {
            slots.resize(idx + 1, WindowSlot::default());
        }
        Some(&mut slots[idx])
    }

    /// Records a delivery: folds it into the run digest, the time series, and —
    /// for measured messages — the latency statistics.
    pub fn record_delivery(&mut self, delivery: Delivery) {
        self.delivered += 1;
        // Order-stable run digest over every delivery, measured or not: the
        // stream (gen_id, class, delivery-time bits) pins the full behaviour.
        fnv1a_fold(&mut self.digest, &delivery.gen_id.to_le_bytes());
        fnv1a_fold(&mut self.digest, &[delivery.class as u8]);
        fnv1a_fold(&mut self.digest, &delivery.at.to_bits().to_le_bytes());
        if let Some(slot) = self.window_slot(delivery.at) {
            slot.delivered += 1;
            slot.latency_sum += delivery.latency;
        }
        if !delivery.measured {
            return;
        }
        self.delivered_measured += 1;
        self.latency.push(delivery.latency);
        self.histogram.record(delivery.latency);
        self.max_latency = self.max_latency.max(delivery.latency);
        self.attempt_latency.push(delivery.latency / f64::from(delivery.attempts.max(1)));
        match delivery.class {
            MessageClass::Intra => self.intra_latency.push(delivery.latency),
            MessageClass::Inter => self.inter_latency.push(delivery.latency),
        }
    }

    /// Records a scheduled retransmission of an aborted message.
    pub fn record_retransmit(&mut self) {
        self.retransmits += 1;
    }

    /// Records an adaptive routing decision off the deterministic path: a torus
    /// hop leaving on a non-dimension-order candidate, or a tree message whose
    /// randomized up*/down* path differs from the NCA route.
    pub fn record_misroute(&mut self) {
        self.adaptive_misroutes += 1;
    }

    /// Records a hop that fell back to the escape channel because every
    /// adaptive candidate was busy or disabled.
    pub fn record_escape_fallback(&mut self) {
        self.escape_fallbacks += 1;
    }

    /// Adaptive hops/paths taken off the deterministic route so far.
    pub fn adaptive_misroutes(&self) -> u64 {
        self.adaptive_misroutes
    }

    /// Escape-channel fallbacks taken so far.
    pub fn escape_fallbacks(&self) -> u64 {
        self.escape_fallbacks
    }

    /// Records a message dropped after exhausting its retry budget.
    pub fn record_drop(&mut self, _class: MessageClass, measured: bool, at: f64) {
        self.dropped += 1;
        if measured {
            self.dropped_measured += 1;
        }
        if let Some(slot) = self.window_slot(at) {
            slot.dropped += 1;
        }
    }

    /// Number of messages generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Number of messages delivered so far (all phases).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of measured messages delivered so far.
    pub fn delivered_measured(&self) -> u64 {
        self.delivered_measured
    }

    /// Number of retransmissions scheduled so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Number of messages dropped so far (all phases).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Mean of latency-per-attempt over the measured deliveries. Equals the
    /// mean latency on a fault-free run (every message uses one attempt).
    pub fn mean_attempt_latency(&self) -> f64 {
        self.attempt_latency.mean()
    }

    /// The run digest folded so far: an order-stable FNV-1a hash of the
    /// delivered-message stream. Two runs with equal digests delivered the same
    /// messages at bit-identical times in the same order.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Materializes the windowed time series (empty unless
    /// [`enable_windows`](Self::enable_windows) was called).
    pub fn time_series(&self) -> Vec<LatencyWindow> {
        let Some((width, slots)) = &self.windows else { return Vec::new() };
        slots
            .iter()
            .enumerate()
            .map(|(i, slot)| LatencyWindow {
                start: i as f64 * width,
                delivered: slot.delivered,
                dropped: slot.dropped,
                mean_latency: (slot.delivered > 0)
                    .then(|| slot.latency_sum / slot.delivered as f64),
            })
            .collect()
    }

    /// Mean latency over the measured messages.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Standard deviation of the measured latencies.
    pub fn latency_std_dev(&self) -> f64 {
        self.latency.std_dev()
    }

    /// Standard error of the mean latency.
    pub fn latency_std_error(&self) -> f64 {
        self.latency.std_error()
    }

    /// Largest measured latency.
    pub fn max_latency(&self) -> f64 {
        self.max_latency
    }

    /// Approximate latency quantile from the histogram.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.histogram.quantile(q)
    }

    /// Summary for one traffic class.
    pub fn class_summary(&self, class: MessageClass) -> ClassSummary {
        let s = match class {
            MessageClass::Intra => &self.intra_latency,
            MessageClass::Inter => &self.inter_latency,
        };
        ClassSummary { count: s.count(), mean: s.mean(), std_dev: s.std_dev() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivery(latency: f64, class: MessageClass, measured: bool) -> Delivery {
        Delivery { gen_id: 0, class, latency, at: latency, measured, attempts: 1 }
    }

    #[test]
    fn generation_window_is_tagged_correctly() {
        let mut s = SimStats::new(2, 3, 10.0);
        let tags: Vec<(u64, bool)> = (0..7).map(|_| s.register_generation()).collect();
        let expected = [false, false, true, true, true, false, false];
        for (i, &(idx, measured)) in tags.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(measured, expected[i], "index {i}");
        }
        assert_eq!(s.generation_target(2), 7);
        assert_eq!(s.generated(), 7);
    }

    #[test]
    fn only_measured_messages_enter_statistics() {
        let mut s = SimStats::new(1, 2, 10.0);
        s.record_delivery(delivery(5.0, MessageClass::Intra, false));
        s.record_delivery(delivery(10.0, MessageClass::Intra, true));
        s.record_delivery(delivery(20.0, MessageClass::Inter, true));
        assert_eq!(s.delivered(), 3);
        assert_eq!(s.delivered_measured(), 2);
        assert!((s.mean_latency() - 15.0).abs() < 1e-12);
        assert_eq!(s.max_latency(), 20.0);
        assert_eq!(s.class_summary(MessageClass::Intra).count, 1);
        assert_eq!(s.class_summary(MessageClass::Inter).count, 1);
        assert!((s.class_summary(MessageClass::Inter).mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_and_errors_are_available() {
        let mut s = SimStats::new(0, 1000, 100.0);
        for i in 0..1000 {
            s.record_delivery(delivery(i as f64, MessageClass::Inter, true));
        }
        assert!(s.latency_quantile(0.5).unwrap() >= 490.0);
        assert!(s.latency_std_error() > 0.0);
        assert!(s.latency_std_dev() > 0.0);
        assert_eq!(s.latency.count(), 1000);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let d1 = Delivery {
            gen_id: 1,
            class: MessageClass::Intra,
            latency: 2.0,
            at: 10.0,
            measured: true,
            attempts: 1,
        };
        let d2 = Delivery { gen_id: 2, at: 12.0, ..d1 };

        let mut a = SimStats::new(0, 10, 10.0);
        a.record_delivery(d1);
        a.record_delivery(d2);
        let mut b = SimStats::new(0, 10, 10.0);
        b.record_delivery(d1);
        b.record_delivery(d2);
        assert_eq!(a.digest(), b.digest(), "identical streams fold to identical digests");

        let mut swapped = SimStats::new(0, 10, 10.0);
        swapped.record_delivery(d2);
        swapped.record_delivery(d1);
        assert_ne!(a.digest(), swapped.digest(), "digest is order-sensitive");

        let mut shifted = SimStats::new(0, 10, 10.0);
        shifted.record_delivery(d1);
        shifted.record_delivery(Delivery { at: 12.0 + 1e-12, ..d2 });
        assert_ne!(a.digest(), shifted.digest(), "digest sees single-ULP-scale drift");

        // Empty runs share the FNV offset basis.
        assert_eq!(SimStats::new(0, 1, 1.0).digest(), SimStats::new(5, 9, 2.0).digest());
    }

    #[test]
    fn drops_and_retransmits_are_counted() {
        let mut s = SimStats::new(0, 10, 10.0);
        s.record_retransmit();
        s.record_retransmit();
        s.record_drop(MessageClass::Inter, true, 5.0);
        s.record_drop(MessageClass::Intra, false, 6.0);
        assert_eq!(s.retransmits(), 2);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.dropped_measured, 1);
        // Attempt latency averages latency / attempts over measured deliveries.
        s.record_delivery(Delivery {
            gen_id: 0,
            class: MessageClass::Intra,
            latency: 12.0,
            at: 12.0,
            measured: true,
            attempts: 3,
        });
        assert!((s.mean_attempt_latency() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_series_buckets_deliveries_and_drops() {
        let mut s = SimStats::new(0, 10, 10.0);
        assert!(s.time_series().is_empty(), "fault-free runs keep an empty series");
        s.enable_windows(10.0);
        s.record_delivery(delivery(2.0, MessageClass::Intra, true));
        s.record_delivery(delivery(4.0, MessageClass::Intra, true));
        s.record_drop(MessageClass::Inter, true, 15.0);
        s.record_delivery(Delivery {
            gen_id: 3,
            class: MessageClass::Inter,
            latency: 6.0,
            at: 25.0,
            measured: false,
            attempts: 2,
        });
        let series = s.time_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].delivered, 2);
        assert_eq!(series[0].dropped, 0);
        assert!((series[0].mean_latency.unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(
            series[1],
            LatencyWindow { start: 10.0, delivered: 0, dropped: 1, mean_latency: None }
        );
        assert_eq!(series[2].delivered, 1);
        assert_eq!(series[2].start, 20.0);
    }
}
