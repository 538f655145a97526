//! The workload interface and the measurement protocol shared by every
//! workload: repeated set-up, golden-spec anchors, the timed iteration loop,
//! digest checks, and — in the traced run — spans, probes and per-layer
//! metrics.

use std::time::{Duration, Instant};

use mcnet_experiments::campaign::Campaign;
use mcnet_sim::{Protocol, Scenario, ScenarioSpec, SimConfig};
use mcnet_system::parallel::parallel_map;
use mcnet_system::TrafficConfig;

use crate::drive::{pool_speedup, Tally};
use crate::measure::{self, median, percentile, tail};
use crate::probes::{self, Target};
use crate::trace::{layer_times, spans_json, Tracer};

/// One iteration's deterministic outputs.
pub struct IterSummary {
    pub digest: u64,
    /// Mean relative model error over steady-state points, in percent.
    pub model_error_pct: Option<f64>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Run-time samples the tail percentile is taken over; the loop runs at
    /// least until it has them, so the percentile is the same in every run.
    const TAIL_RUNS: u64;
    /// Exemplar specs (paths from the repository root) whose pinned digests
    /// in `specs/goldens/digests.json` the workload checks before measuring.
    const ANCHORS: &'static [&'static str];

    /// Everything before the first simulated event: specs, scenarios,
    /// saturation searches, engine construction.
    fn setup(seed: u64, tr: &Tracer) -> Result<Self, String>;
    /// The workload's fixed work, once.
    fn iterate(&mut self, tr: &Tracer, tally: &mut Tally) -> Result<IterSummary, String>;
    /// Evaluates the workload's analytical points once over the worker
    /// pool; returns their count.
    fn model_pass(&self, tr: &Tracer) -> usize;
    /// Fabrics the layer probes run on.
    fn targets(&self) -> Vec<Target>;
    /// A point whose replications measure the pool's speed-up.
    fn speedup_point(&self) -> (&Scenario, TrafficConfig, SimConfig);
    /// `(cells, simulated fraction)` of the campaign layer, with spans
    /// around its calls.
    fn campaign_layer(&self, tr: &Tracer) -> Result<(usize, f64), String>;

    /// Engine runs made only in the traced run, for workloads whose engines
    /// live inside the library.
    fn replay(&self, _tr: &Tracer) -> Tally {
        Tally::default()
    }
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation produced.
pub struct Report {
    pub attempted: u64,
    /// Failed checks; each counts toward the result's `failed`.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub digest: u64,
}

/// SplitMix64: derives independent values from the workload seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands a workload's own points as a campaign grid: the campaign layer's
/// share of a workload that simulates every point (simulated fraction 1).
pub fn expand_own_grid(text: &str, tr: &Tracer) -> Result<(usize, f64), String> {
    let _span = tr.span("campaign.expand");
    let campaign = Campaign::from_grid_json(text).map_err(|e| e.to_string())?;
    Ok((campaign.cells().len(), 1.0))
}

/// Evaluates analytical work items over the worker pool, the shape of the
/// analytical pass of `figures::build_series`, and returns the points they
/// cover.
pub fn model_pool<T: Sync>(
    items: &[T],
    tr: &Tracer,
    span: &'static str,
    eval: impl Fn(&T) -> usize + Sync,
) -> usize {
    let _pool = tr.span("parallel.pool");
    let parent = tr.current();
    parallel_map(items.iter().collect(), |_, item| {
        let _span = tr.child_of(span, parent);
        eval(item)
    })
    .into_iter()
    .sum()
}

pub fn steady_error_pct(errors: &[f64]) -> Option<f64> {
    (!errors.is_empty()).then(|| 100.0 * errors.iter().sum::<f64>() / errors.len() as f64)
}

/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The model pass repeats for at least this long.
const MODEL_PASS_MIN: Duration = Duration::from_secs(2);
/// Replications per pool speed-up measurement.
const SPEEDUP_REPS: usize = 4;

#[derive(Default)]
struct Checks {
    attempted: u64,
    problems: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// The timed iterations of one tracer setting and what their runs add up to.
#[derive(Default)]
struct Measured {
    iterations: Vec<f64>,
    tally: Tally,
    first: Option<IterSummary>,
    /// `(retransmits, dropped)` of the first iteration.
    faults: (u64, u64),
}

impl Measured {
    /// Runs the fixed work once and checks its digest against the first
    /// iteration's.
    fn step<W: Workload>(
        &mut self,
        w: &mut W,
        tr: &Tracer,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let start = measure::process_cpu_s();
        let summary = {
            let _span = tr.span("bench.iteration");
            w.iterate(tr, &mut self.tally)?
        };
        self.iterations.push(measure::process_cpu_s() - start);
        match &self.first {
            None => {
                self.faults = (self.tally.retransmits, self.tally.dropped);
                self.first = Some(summary);
            }
            Some(f) => checks.check(summary.digest == f.digest, || {
                format!(
                    "iteration {} digest {:016x} != first {:016x}",
                    self.iterations.len(),
                    summary.digest,
                    f.digest
                )
            }),
        }
        Ok(())
    }

    fn digest(&self) -> u64 {
        self.first.as_ref().map_or(0, |f| f.digest)
    }

    fn model_error_pct(&self) -> Option<f64> {
        self.first.as_ref().and_then(|f| f.model_error_pct)
    }

    /// Counts every failed run as a failed check.
    fn report_errors(&self, checks: &mut Checks) {
        for e in &self.tally.errors {
            checks.check(false, || e.clone());
        }
    }
}

/// Iterates the fixed work until `seconds` have passed and at least
/// `min_runs` run times are in.
fn measure<W: Workload>(
    w: &mut W,
    tr: &Tracer,
    seconds: f64,
    min_runs: u64,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let start = Instant::now();
    while m.iterations.is_empty()
        || start.elapsed().as_secs_f64() < seconds
        || (m.tally.run_ms.len() as u64) < min_runs
    {
        m.step(w, tr, checks)?;
    }
    m.report_errors(checks);
    Ok(m)
}

/// Mean CPU seconds per model pass and points per pass, over passes
/// repeated for [`MODEL_PASS_MIN`]. Each pass starts the pool's threads
/// afresh, whose cost varies from pass to pass, so the mean is steadier
/// than the median.
fn model_passes<W: Workload>(w: &W, tr: &Tracer, notes: &mut Vec<String>) -> (f64, usize) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut points = 0;
    while times.len() < 3 || start.elapsed() < MODEL_PASS_MIN {
        let t = measure::process_cpu_s();
        points = w.model_pass(tr);
        times.push(measure::process_cpu_s() - t);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    notes.push(format!(
        "{} model passes of {points} points: CPU ms min {:.3} median {:.3} mean {:.3} max {:.3}",
        times.len(),
        percentile(&times, 0.0) * 1e3,
        median(&times) * 1e3,
        mean * 1e3,
        percentile(&times, 100.0) * 1e3
    ));
    (mean, points)
}

/// Runs the exemplar specs at the quick protocol and compares their digests
/// with the repository's pins.
fn anchors<W: Workload>(checks: &mut Checks) {
    let goldens = match measure::golden_digests() {
        Ok(g) => g,
        Err(e) => return checks.check(false, || e),
    };
    for path in W::ANCHORS {
        let result = ScenarioSpec::from_json_file(&measure::repo_root().join(path))
            .and_then(|spec| spec.with_protocol(Protocol::Quick).build())
            .and_then(|scenario| scenario.run());
        let pinned = goldens.get(*path);
        match result {
            Ok(report) => {
                let digest = format!("{:016x}", report.digest);
                checks.check(pinned == Some(&digest), || {
                    format!("{path}: digest {digest} does not match its pin {pinned:?}")
                });
            }
            Err(e) => checks.check(false, || format!("{path}: {e}")),
        }
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

fn spans_median(tr: &Tracer, name: &str, scale: f64) -> f64 {
    let d = tr.durations_ns(name);
    if d.is_empty() {
        0.0
    } else {
        median(&d) / scale
    }
}

/// Runs one workload once, as the benchmark command does.
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let off = Tracer::new(false);
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let start = measure::process_cpu_s();
        workload = Some(W::setup(seed, &off)?);
        setup_s.push(measure::process_cpu_s() - start);
    }
    let mut w = workload.expect("at least one set-up");
    anchors::<W>(&mut checks);

    let (metrics, digest) = if !traced {
        // One warm-up pass grows the fresh engines' arenas before timing;
        // the measured passes must repeat its digest.
        let warm = w.iterate(&off, &mut Tally::default())?;
        let m = measure(&mut w, &off, seconds, W::TAIL_RUNS, &mut checks)?;
        checks.check(warm.digest == m.digest(), || {
            format!("warm-up digest {:016x} != measured {:016x}", warm.digest, m.digest())
        });
        let (pass_s, points) = model_passes(&w, &off, &mut notes);
        let tail_sample = &m.tally.run_ms[..(W::TAIL_RUNS as usize).min(m.tally.run_ms.len())];
        let (tail_p, tail_ms) = tail(tail_sample);
        notes.push(format!(
            "{} passes ({:.4}..{:.4} CPU s), {} runs; run_ms_tail is p{tail_p} over the first {} runs",
            m.iterations.len(),
            m.iterations.iter().copied().fold(f64::INFINITY, f64::min),
            m.iterations.iter().copied().fold(0.0, f64::max),
            m.tally.run_ms.len(),
            tail_sample.len()
        ));
        checks.check(m.model_error_pct().is_some(), || "no steady-state point to compare".into());
        let metrics = vec![
            metric("cpu_s", median(&m.iterations), "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("sim_msgs_per_s", m.tally.delivered as f64 / m.tally.run_s, "msgs/s"),
            metric("run_ms_p50", median(&m.tally.run_ms), "ms"),
            metric("run_ms_tail", tail_ms, "ms"),
            metric("model_evals_per_s", points as f64 / pass_s, "evals/s"),
            metric("model_error_pct", m.model_error_pct().unwrap_or(f64::NAN), "%"),
            metric("peak_rss_mb", measure::peak_rss_mb(), "MB"),
        ];
        (metrics, m.digest())
    } else {
        traced_metrics(&mut w, seed, seconds, &mut checks, &mut notes)?
    };
    checks.check(pin_matches(W::NAME, seed, digest, &mut notes), || {
        format!("digest {digest:016x} does not match the pin for seed {seed}")
    });
    Ok(Report { attempted: checks.attempted, problems: checks.problems, metrics, notes, digest })
}

fn pin_matches(workload: &str, seed: u64, digest: u64, notes: &mut Vec<String>) -> bool {
    let pins = measure::load_pins().unwrap_or_default();
    match pins.get(workload).and_then(|p| p.get(&seed.to_string())) {
        Some(pin) => *pin == format!("{digest:016x}"),
        None => {
            notes.push(format!("no pin for seed {seed}: checked repeatability only"));
            true
        }
    }
}

fn traced_metrics<W: Workload>(
    w: &mut W,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<(Vec<Metric>, u64), String> {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    // A traced set-up records the set-up layers' spans.
    *w = W::setup(seed, &on)?;
    // One warm-up iteration grows the fresh engines' arenas; then untraced
    // and traced iterations alternate, so drift on the host hits both alike.
    let (mut untraced, mut traced) = (Measured::default(), Measured::default());
    w.iterate(&off, &mut Tally::default())?;
    let start = Instant::now();
    while untraced.iterations.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        untraced.step(w, &off, checks)?;
        traced.step(w, &on, checks)?;
    }
    untraced.report_errors(checks);
    traced.report_errors(checks);
    checks.check(traced.digest() == untraced.digest(), || "tracing changed the digest".into());
    let ratios: Vec<f64> = untraced
        .iterations
        .iter()
        .zip(&traced.iterations)
        .map(|(off_s, on_s)| on_s / off_s)
        .collect();
    let overhead_pct = 100.0 * (median(&ratios) - 1.0);
    let (pass_s, _) = model_passes(w, &off, notes);
    model_passes(w, &on, &mut Vec::new());

    let probe = probes::run(&w.targets(), seed, &on)?;
    let (cells, simulated_frac) = w.campaign_layer(&on)?;
    let speedup = {
        let (scenario, traffic, config) = w.speedup_point();
        pool_speedup(scenario, &traffic, &config, SPEEDUP_REPS, &on)?
    };
    let replay = w.replay(&on);
    for e in &replay.errors {
        checks.check(false, || e.clone());
    }
    let engine = if replay.runs > 0 { &replay } else { &untraced.tally };

    let spans = on.spans();
    let layers = layer_times(&spans);
    notes.push("layer self time (ms) / total (ms) / spans:".into());
    for (layer, t) in &layers {
        notes.push(format!(
            "  {layer:<15} {:>10.3} {:>10.3} {:>7}",
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e6,
            t.spans
        ));
    }
    let dir = measure::bench_dir().join("out");
    let path = dir.join(format!("trace-{}-{seed}.json", W::NAME));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans_json(&spans)))
    {
        notes.push(format!("could not write {}: {e}", path.display()));
    } else {
        notes.push(format!("spans: {}", path.display()));
    }
    notes.push(format!(
        "layers with spans: {}",
        layers.keys().copied().collect::<Vec<_>>().join(",")
    ));

    let mut out = vec![
        metric("scenario.spec_parse_us", spans_median(&on, "scenario.spec_parse", 1e3), "us"),
        metric("scenario.build_us", spans_median(&on, "scenario.build", 1e3), "us"),
        metric("scenario.report_json_us", spans_median(&on, "scenario.report_json", 1e3), "us"),
        metric("campaign.expand_ms", spans_median(&on, "campaign.expand", 1e6), "ms"),
        metric("campaign.cells", cells as f64, "count"),
        metric("campaign.simulated_frac", simulated_frac, "ratio"),
        metric("model.eval_us", spans_median(&on, "model.evaluate", 1e3), "us"),
        metric(
            "model.saturation_search_ms",
            spans_median(&on, "model.saturation_search", 1e6),
            "ms",
        ),
        metric("model.sim_cost_ratio", median(&untraced.iterations) / pass_s, "ratio"),
        metric("routes.interned_pairs", engine.interned_pairs as f64, "count"),
        metric("routes.arena_channels", engine.arena_channels as f64, "count"),
        metric("routes.peak_scratch", engine.peak_scratch as f64, "count"),
        metric("engine.new_ms", spans_median(&on, "engine.new", 1e6), "ms"),
        metric("engine.reset_us", spans_median(&on, "engine.reset", 1e3), "us"),
        metric("engine.run_ms", spans_median(&on, "engine.run", 1e6), "ms"),
        metric("engine.ns_per_event", engine.run_s * 1e9 / engine.events as f64, "ns"),
        metric("engine.events_per_msg", engine.events as f64 / engine.generated as f64, "ratio"),
        metric("engine.peak_in_flight", engine.peak_in_flight as f64, "count"),
        metric("channels.contention_ratio", mean(&engine.contention), "ratio"),
        metric("channels.max_utilization", engine.max_utilization, "ratio"),
        metric("channels.waiter_nodes", engine.waiter_nodes as f64, "count"),
        metric("fault.retransmits", untraced.faults.0 as f64, "count"),
        metric("fault.dropped", untraced.faults.1 as f64, "count"),
        metric("parallel.workers", mcnet_system::parallel::max_workers() as f64, "count"),
        metric("parallel.pool_speedup", speedup, "ratio"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    out.extend(probe);
    Ok((out, untraced.digest()))
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
