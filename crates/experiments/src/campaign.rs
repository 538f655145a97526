//! Campaign engine: many scenario specs as one parallel, screened batch.
//!
//! A [`Campaign`] is an ordered list of [`ScenarioSpec`] cells — loaded from a
//! directory of spec files ([`Campaign::from_dir`]) or expanded from a
//! plain-data grid spec ([`Campaign::from_grid_json`]) that cross-products
//! fabric geometry, routing policy, traffic rate and seed over a base spec.
//! [`Campaign::run`] executes every cell on the shared
//! `mcnet_system::parallel` worker pool and aggregates one machine-readable
//! report (per-cell digest, throughput, latency, drops).
//!
//! Two properties make campaigns cheap and trustworthy:
//!
//! * **Determinism.** Each cell's result is a pure function of its spec: cell
//!   seeds are fixed at expansion time (the spec's own seed in directory mode;
//!   a seed-axis value or `base_seed + cell_index` in grid mode), and every
//!   worker executes cells through the bit-identical engine-reuse path
//!   ([`Scenario::execute_reusing`]). Per-cell digests therefore do not depend
//!   on worker count or execution order — a campaign over `specs/` produces
//!   exactly the digests of running each spec standalone.
//! * **Screen cheap, simulate expensive.** With [`CampaignOptions::screen`],
//!   the grid is first swept through the batched analytical evaluator
//!   (`ModelBackend::evaluate_batch` — the load/saturation structure is built
//!   once per configuration group and every rate point rebinds over it), and
//!   only the Pareto frontier over (maximize throughput, minimize model
//!   latency, minimize peak channel utilization) is simulated. Saturated and
//!   dominated cells keep their model numbers in the report but cost no
//!   simulator time.
//!
//! Per-cell failures (a cell deep in saturation exhausting its event budget,
//! or a grid combination whose routing policy does not fit its fabric) are
//! recorded in the report, not fatal: one bad cell must not waste the other
//! 999.

use std::collections::BTreeMap;
use std::path::Path;

use mcnet_model::ModelReport;
use mcnet_sim::engine::Simulation;
use mcnet_sim::json::{object, Json};
use mcnet_sim::scenario::{model_report_json, seed_to_json};
use mcnet_sim::{Protocol, Scenario, ScenarioOutcome, ScenarioSpec, SimError};

use crate::{ExperimentError, Result};

/// One cell of a campaign: an index (the expansion/report order) plus the
/// fully-resolved scenario spec it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Position in the campaign (keys seeds in grid mode and report rows).
    pub index: usize,
    /// The cell's fully-resolved spec (seed already derived).
    pub spec: ScenarioSpec,
}

/// An ordered list of scenario cells executed and reported as one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    name: String,
    cells: Vec<CampaignCell>,
}

/// Execution options for [`Campaign::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions {
    /// Replaces every cell's measurement-protocol preset (CI runs
    /// paper-protocol exemplars at quick protocol this way).
    pub protocol: Option<Protocol>,
    /// Pre-screen the grid analytically and simulate only the Pareto
    /// frontier over (throughput, model latency, peak channel utilization).
    pub screen: bool,
}

impl Campaign {
    /// The campaign's name (report key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expanded cells, in execution/report order.
    pub fn cells(&self) -> &[CampaignCell] {
        &self.cells
    }

    /// Loads every `*.json` scenario spec directly inside `dir` (sorted by
    /// file name, subdirectories like `specs/goldens/` ignored) as one
    /// campaign. Seeds are taken verbatim from the spec files, so per-cell
    /// digests are bit-identical to running each spec standalone.
    pub fn from_dir(dir: &Path) -> Result<Campaign> {
        let read = |e: std::io::Error| {
            ExperimentError::InvalidExperiment(format!(
                "cannot read campaign directory {}: {e}",
                dir.display()
            ))
        };
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(read)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(ExperimentError::InvalidExperiment(format!(
                "campaign directory {} contains no *.json scenario specs",
                dir.display()
            )));
        }
        let mut cells = Vec::with_capacity(files.len());
        for (index, path) in files.iter().enumerate() {
            let spec = ScenarioSpec::from_json_file(path).map_err(|e| {
                ExperimentError::InvalidExperiment(format!("{}: {e}", path.display()))
            })?;
            cells.push(CampaignCell { index, spec });
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "campaign".to_string());
        Ok(Campaign { name, cells })
    }

    /// Expands a plain-data grid spec into a campaign. The schema:
    ///
    /// ```json
    /// {
    ///   "name": "torus_design_space",
    ///   "base": { ...any scenario spec... },
    ///   "axes": {
    ///     "fabric": [{"kind": "torus", "radix": 4, "dimensions": 2}],
    ///     "routing": [null, {"policy": "adaptive_torus", "adaptive_vcs": 2}],
    ///     "rate": [5e-4, 1e-3, 2e-3],
    ///     "burstiness": [null, 0.5, 0.25],
    ///     "seed": [1, 2]
    ///   }
    /// }
    /// ```
    ///
    /// Every axis is optional; a missing axis keeps the base spec's value. The
    /// cross product is expanded in `fabric → routing → rate → burstiness →
    /// seed` order (the innermost axis varies fastest). A routing-axis entry
    /// of `null` means deterministic routing (the spec's no-`"routing"`-key
    /// form). A burstiness-axis entry is `null` (Poisson arrivals, the spec's
    /// no-`"source"`-key form), a number (an ON-OFF source's duty cycle) or a
    /// full `traffic.source` object spliced verbatim. Cell seeds come from the
    /// seed axis when present, otherwise `base_seed + cell_index` — so grid
    /// cells are independent replications by construction, and the traffic
    /// source (bursty or not) draws from the cell's own deterministic seed.
    /// Cell names are `<base name>/<4-digit index>`.
    ///
    /// Axis *values* are spliced into the base spec's JSON and re-parsed
    /// through [`ScenarioSpec::from_json`], so they get exactly the spec
    /// file's validation (unknown keys rejected, typed errors). Grid
    /// combinations that parse but cannot build (say an `adaptive_torus`
    /// routing over a tree fabric) are legal here; [`Campaign::run`] records
    /// them as failed cells.
    pub fn from_grid_json(text: &str) -> Result<Campaign> {
        let invalid = |reason: String| ExperimentError::InvalidExperiment(reason);
        let doc = Json::parse(text).map_err(|e| invalid(format!("campaign spec: {e}")))?;
        let obj =
            doc.as_object().ok_or_else(|| invalid("campaign spec must be a JSON object".into()))?;
        check_keys(obj, "the campaign spec", &["name", "base", "axes"])?;
        let name = obj
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("campaign spec needs a string \"name\"".into()))?
            .to_string();
        let base_doc = obj
            .get("base")
            .and_then(Json::as_object)
            .ok_or_else(|| invalid("campaign spec needs a \"base\" scenario object".into()))?
            .clone();
        // Validate the base up front so axis errors don't mask base errors.
        let base_spec = ScenarioSpec::from_json(&Json::Object(base_doc.clone()).to_compact())
            .map_err(|e| invalid(format!("campaign \"base\": {e}")))?;

        let empty = BTreeMap::new();
        let axes = match obj.get("axes") {
            None => &empty,
            Some(v) => v
                .as_object()
                .ok_or_else(|| invalid("campaign \"axes\" must be an object".into()))?,
        };
        check_keys(axes, "\"axes\"", &["fabric", "routing", "rate", "burstiness", "seed"])?;
        let axis = |key: &str| -> Result<Option<Vec<Json>>> {
            match axes.get(key) {
                None => Ok(None),
                Some(v) => {
                    let arr = v.as_array().filter(|a| !a.is_empty()).ok_or_else(|| {
                        invalid(format!("axis \"{key}\" must be a non-empty array"))
                    })?;
                    Ok(Some(arr.to_vec()))
                }
            }
        };
        // A missing axis contributes one pass-through step to the product.
        let fabrics = axis("fabric")?.map_or(vec![None], |v| v.into_iter().map(Some).collect());
        let routings = axis("routing")?.map_or(vec![None], |v| v.into_iter().map(Some).collect());
        let rates = axis("rate")?.map_or(vec![None], |v| v.into_iter().map(Some).collect());
        let bursts = axis("burstiness")?.map_or(vec![None], |v| v.into_iter().map(Some).collect());
        let seeds = axis("seed")?.map_or(vec![None], |v| v.into_iter().map(Some).collect());

        let mut cells = Vec::with_capacity(fabrics.len() * routings.len() * rates.len());
        let mut index = 0usize;
        for fabric in &fabrics {
            for routing in &routings {
                for rate in &rates {
                    for burst in &bursts {
                        for seed in &seeds {
                            let mut cell = base_doc.clone();
                            cell.insert("name".into(), Json::String(format!("{name}/{index:04}")));
                            if let Some(f) = fabric {
                                cell.insert("fabric".into(), f.clone());
                            }
                            match routing {
                                None => {}
                                Some(Json::Null) => {
                                    cell.remove("routing");
                                }
                                Some(r) => {
                                    cell.insert("routing".into(), r.clone());
                                }
                            }
                            if rate.is_some() || burst.is_some() {
                                let traffic = cell
                                    .get_mut("traffic")
                                    .and_then(|t| match t {
                                        Json::Object(map) => Some(map),
                                        _ => None,
                                    })
                                    .ok_or_else(|| {
                                        invalid(
                                            "campaign \"base\" needs a \"traffic\" object".into(),
                                        )
                                    })?;
                                if let Some(r) = rate {
                                    traffic.insert("generation_rate".into(), r.clone());
                                }
                                match burst {
                                    None => {}
                                    Some(Json::Null) => {
                                        traffic.remove("source");
                                    }
                                    Some(Json::Number(duty)) => {
                                        traffic.insert(
                                            "source".into(),
                                            object([
                                                ("kind", Json::String("on_off".into())),
                                                ("duty", Json::Number(*duty)),
                                            ]),
                                        );
                                    }
                                    Some(s) => {
                                        traffic.insert("source".into(), s.clone());
                                    }
                                }
                            }
                            match seed {
                                Some(s) => cell.insert("seed".into(), s.clone()),
                                None => cell.insert(
                                    "seed".into(),
                                    seed_to_json(base_spec.seed.wrapping_add(index as u64)),
                                ),
                            };
                            let spec = ScenarioSpec::from_json(&Json::Object(cell).to_compact())
                                .map_err(|e| invalid(format!("campaign cell {index}: {e}")))?;
                            cells.push(CampaignCell { index, spec });
                            index += 1;
                        }
                    }
                }
            }
        }
        Ok(Campaign { name, cells })
    }

    /// Executes the campaign: every cell validated and built, optionally
    /// pre-screened analytically, the survivors simulated on the worker pool
    /// (each worker reusing one cached engine across the compatible cells it
    /// claims), and everything aggregated into one [`CampaignReport`] in cell
    /// order. Per-cell failures are recorded as [`CellStatus::Failed`] /
    /// [`CellStatus::Invalid`] rows; the method itself only fails on an empty
    /// campaign (which cannot happen through the constructors).
    pub fn run(&self, options: &CampaignOptions) -> CampaignReport {
        let mode = if options.screen { "screen" } else { "full" };
        let specs: Vec<ScenarioSpec> = self
            .cells
            .iter()
            .map(|c| match options.protocol {
                Some(p) => c.spec.clone().with_protocol(p),
                None => c.spec.clone(),
            })
            .collect();

        // Build every cell; invalid grid combinations become report rows.
        let mut rows: Vec<CellReport> = Vec::with_capacity(specs.len());
        let mut scenarios: Vec<Option<Scenario>> = Vec::with_capacity(specs.len());
        for (cell, spec) in self.cells.iter().zip(&specs) {
            let (scenario, status, error) = match spec.build() {
                Ok(s) => (Some(s), CellStatus::Pending, None),
                Err(e) => (None, CellStatus::Invalid, Some(e.to_string())),
            };
            rows.push(CellReport {
                index: cell.index,
                name: spec.name.clone(),
                spec: spec.clone(),
                status,
                model: None,
                outcome: None,
                error,
            });
            scenarios.push(scenario);
        }

        if options.screen {
            screen_cells(&specs, &scenarios, &mut rows);
        }

        // Simulate every still-pending cell. The pool workers each hold one
        // cached engine; `Scenario::execute_reusing` resets it only for a cell
        // of the fabric and routing policy it was built from, and rebuilds it
        // for any other.
        let work: Vec<(usize, Scenario)> = rows
            .iter()
            .filter(|r| r.status == CellStatus::Pending)
            .map(|r| (r.index, scenarios[r.index].clone().expect("pending cells built")))
            .collect();
        let mut slots: Vec<Option<Simulation>> = Vec::new();
        let outcomes = mcnet_system::parallel::parallel_map_reusing(
            work,
            &mut slots,
            |slot, _, (index, scenario)| (index, scenario.execute_reusing(slot)),
        );
        for (index, outcome) in outcomes {
            let row = &mut rows[index];
            match outcome {
                Ok(o) => {
                    row.status = CellStatus::Simulated;
                    row.outcome = Some(o);
                }
                Err(e) => {
                    row.status = CellStatus::Failed;
                    row.error = Some(e.to_string());
                }
            }
        }

        CampaignReport { name: self.name.clone(), mode, cells: rows }
    }
}

/// Validates a JSON object's keys against an allow-list — the campaign-level
/// counterpart of the spec parser's unknown-key rejection (a misspelled axis
/// must not silently run the wrong grid).
fn check_keys(obj: &BTreeMap<String, Json>, context: &str, allowed: &[&str]) -> Result<()> {
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(ExperimentError::InvalidExperiment(format!(
                "unknown field {key:?} in {context} (expected one of {allowed:?})"
            )));
        }
    }
    Ok(())
}

/// The analytical pre-screen: cells are grouped by everything the model sees
/// except the generation rate, each group is swept through the batched
/// evaluator in one call, and the Pareto frontier over (maximize rate,
/// minimize model latency, minimize peak channel utilization) stays
/// [`CellStatus::Pending`]; saturated and dominated cells are closed out.
fn screen_cells(specs: &[ScenarioSpec], scenarios: &[Option<Scenario>], rows: &mut [CellReport]) {
    // Group key: the spec with rate, seed, name and simulation-only knobs
    // normalized away — cells differing only in those share one load
    // structure build.
    let group_key = |spec: &ScenarioSpec| -> String {
        let mut key = spec.clone();
        key.name = String::new();
        key.seed = 0;
        key.traffic.generation_rate = 1.0;
        key.replications = 1;
        key.faults = None;
        key.protocol = Protocol::Quick;
        format!("{key:?}")
    };
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for row in rows.iter() {
        if row.status != CellStatus::Pending {
            continue;
        }
        let key = group_key(&specs[row.index]);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(row.index),
            None => groups.push((key, vec![row.index])),
        }
    }

    for (_, members) in &groups {
        let template = scenarios[members[0]].as_ref().expect("pending cells built");
        let rates: Vec<f64> = members.iter().map(|&i| specs[i].traffic.generation_rate).collect();
        match template.evaluate_sweep(&rates) {
            Ok(reports) => {
                for (&index, report) in members.iter().zip(reports) {
                    match report {
                        Ok(model) => rows[index].model = Some(model),
                        Err(e @ SimError::ModelSaturated { .. }) => {
                            rows[index].status = CellStatus::Saturated;
                            rows[index].error = Some(e.to_string());
                        }
                        Err(e) => {
                            rows[index].status = CellStatus::Failed;
                            rows[index].error = Some(e.to_string());
                        }
                    }
                }
            }
            Err(e) => {
                for &index in members {
                    rows[index].status = CellStatus::Failed;
                    rows[index].error = Some(e.to_string());
                }
            }
        }
    }

    // Pareto frontier across the whole grid: a cell survives unless some
    // other modeled cell is at least as good on every objective and strictly
    // better on one.
    let candidates: Vec<(usize, (f64, f64, f64))> = rows
        .iter()
        .filter(|r| r.status == CellStatus::Pending && r.model.is_some())
        .map(|r| {
            let model = r.model.as_ref().expect("candidates are modeled");
            (r.index, (model.generation_rate, model.mean_latency, model.max_channel_utilization))
        })
        .collect();
    for &(a, (rate_a, lat_a, util_a)) in &candidates {
        let dominated = candidates.iter().any(|&(b, (rate_b, lat_b, util_b))| {
            b != a
                && rate_b >= rate_a
                && lat_b <= lat_a
                && util_b <= util_a
                && (rate_b > rate_a || lat_b < lat_a || util_b < util_a)
        });
        if dominated {
            rows[a].status = CellStatus::ScreenedOut;
        }
    }
}

/// Where one campaign cell ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Built and queued but not yet decided (never appears in a finished
    /// report).
    Pending,
    /// Simulated to completion; `outcome` holds the run/replication report.
    Simulated,
    /// Dominated on every screening objective; model numbers retained,
    /// simulator time saved.
    ScreenedOut,
    /// The analytical model saturates at this cell's rate — simulating it
    /// would only exhaust the event budget.
    Saturated,
    /// The simulation (or model evaluation) of a built cell failed.
    Failed,
    /// The cell could not be built (e.g. a grid combination pairing a routing
    /// policy with the wrong fabric).
    Invalid,
}

impl CellStatus {
    /// The report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Pending => "pending",
            CellStatus::Simulated => "simulated",
            CellStatus::ScreenedOut => "screened_out",
            CellStatus::Saturated => "saturated",
            CellStatus::Failed => "failed",
            CellStatus::Invalid => "invalid",
        }
    }
}

/// One row of the campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell index (expansion order).
    pub index: usize,
    /// Cell name (the resolved spec's name).
    pub name: String,
    /// The resolved spec the cell ran (protocol override applied).
    pub spec: ScenarioSpec,
    /// Final status.
    pub status: CellStatus,
    /// Analytical screen result, when the screen ran and did not saturate.
    pub model: Option<ModelReport>,
    /// Simulation outcome, when the cell was simulated.
    pub outcome: Option<ScenarioOutcome>,
    /// Failure/saturation diagnostic, when there is one.
    pub error: Option<String>,
}

impl CellReport {
    /// The run digest of a single-run simulated cell (replicated cells carry
    /// per-replication digests inside their outcome instead).
    pub fn digest(&self) -> Option<u64> {
        match &self.outcome {
            Some(ScenarioOutcome::Single(r)) => Some(r.digest),
            _ => None,
        }
    }
}

/// The aggregated machine-readable result of [`Campaign::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// `"full"` or `"screen"`.
    pub mode: &'static str,
    /// Per-cell rows in cell order.
    pub cells: Vec<CellReport>,
}

impl CampaignReport {
    /// Number of cells with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.cells.iter().filter(|c| c.status == status).count()
    }

    /// Renders the report as one JSON document:
    /// `{name, mode, summary: {cells, simulated, screened_out, failed},
    /// cells: [...]}` with per-cell spec parameters, status, model numbers,
    /// simulation outcome and digest.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                object([
                    ("index", Json::from_u64(c.index as u64)),
                    ("name", Json::String(c.name.clone())),
                    ("generation_rate", Json::Number(c.spec.traffic.generation_rate)),
                    ("seed", seed_to_json(c.spec.seed)),
                    ("replications", Json::from_u64(c.spec.replications as u64)),
                    ("routing", Json::String(c.spec.routing.spec_name().into())),
                    ("source", c.spec.source.to_json()),
                    ("protocol", Json::String(c.spec.protocol.as_str().into())),
                    ("status", Json::String(c.status.as_str().into())),
                    ("model", c.model.as_ref().map_or(Json::Null, model_report_json)),
                    ("outcome", c.outcome.as_ref().map_or(Json::Null, ScenarioOutcome::to_json)),
                    (
                        "digest",
                        c.digest().map_or(Json::Null, |d| Json::String(format!("{d:016x}"))),
                    ),
                    ("error", c.error.clone().map_or(Json::Null, Json::String)),
                ])
            })
            .collect();
        object([
            ("name", Json::String(self.name.clone())),
            ("mode", Json::String(self.mode.into())),
            (
                "summary",
                object([
                    ("cells", Json::from_u64(self.cells.len() as u64)),
                    ("simulated", Json::from_u64(self.count(CellStatus::Simulated) as u64)),
                    (
                        "screened_out",
                        Json::from_u64(
                            (self.count(CellStatus::ScreenedOut)
                                + self.count(CellStatus::Saturated))
                                as u64,
                        ),
                    ),
                    (
                        "failed",
                        Json::from_u64(
                            (self.count(CellStatus::Failed) + self.count(CellStatus::Invalid))
                                as u64,
                        ),
                    ),
                ]),
            ),
            ("cells", Json::Array(cells)),
        ])
    }
}
