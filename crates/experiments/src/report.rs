//! Rendering experiment results as JSON and markdown.
//!
//! The binaries in `src/bin/` print these renderings to stdout so results can be
//! redirected into files, diffed between runs and pasted into EXPERIMENTS.md.

use crate::comparison::AccuracySummary;
use crate::figures::{FigurePanel, FigureSeries, SeriesPoint};
use crate::table1::OrganizationSummary;
use mcnet_sim::json::{object, Json};
use std::fmt::Write as _;

/// Renders a figure panel as a JSON tree through the offline
/// [`mcnet_sim::json`] layer — the machine-readable face of the figure
/// driver, diffable byte for byte between deterministic invocations.
pub fn panel_to_json(panel: &FigurePanel) -> Json {
    object([
        ("title", Json::String(panel.title.clone())),
        ("system", Json::String(panel.system.clone())),
        ("series", Json::Array(panel.series.iter().map(series_to_json).collect())),
    ])
}

fn series_to_json(s: &FigureSeries) -> Json {
    object([
        ("label", Json::String(s.label.clone())),
        ("message_flits", Json::from_u64(s.message_flits as u64)),
        ("flit_bytes", Json::Number(s.flit_bytes)),
        ("points", Json::Array(s.points.iter().map(point_to_json).collect())),
    ])
}

fn point_to_json(p: &SeriesPoint) -> Json {
    let opt = |v: Option<f64>| v.map(Json::Number).unwrap_or(Json::Null);
    object([
        ("rate", Json::Number(p.rate)),
        ("analysis", opt(p.analysis)),
        ("simulation", opt(p.simulation)),
        ("sim_std_error", opt(p.sim_std_error)),
    ])
}

/// Renders a figure panel as a markdown table.
pub fn panel_to_markdown(panel: &FigurePanel) -> String {
    let mut out = format!("### {}\n\n*System: {}*\n\n", panel.title, panel.system);
    let mut header = String::from("| offered traffic λ_g |");
    let mut rule = String::from("|---|");
    for s in &panel.series {
        let _ = write!(header, " analysis ({0}) | simulation ({0}) |", s.label);
        rule.push_str("---|---|");
    }
    out.push_str(&header);
    out.push('\n');
    out.push_str(&rule);
    out.push('\n');
    let rows = panel.series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let rate = panel
            .series
            .iter()
            .filter_map(|s| s.points.get(i))
            .map(|p| p.rate)
            .next()
            .unwrap_or(f64::NAN);
        let mut row = format!("| {rate:.2e} |");
        for s in &panel.series {
            let p = s.points.get(i);
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.1}"),
                None => "saturated".to_string(),
            };
            let _ = write!(
                row,
                " {} | {} |",
                fmt(p.and_then(|p| p.analysis)),
                fmt(p.and_then(|p| p.simulation))
            );
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Renders the Table 1 summaries as a markdown table.
pub fn table1_to_markdown(rows: &[OrganizationSummary]) -> String {
    let mut out = String::from(
        "| Org | N | C | m | n_c | total switches | node organization |\n|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let org = r
            .groups
            .iter()
            .map(|g| format!("{}×(n={}, {} nodes)", g.clusters, g.levels, g.nodes_per_cluster))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            r.name, r.total_nodes, r.clusters, r.ports, r.icn2_levels, r.total_switches, org
        );
    }
    out
}

/// Renders an accuracy summary as markdown.
pub fn accuracy_to_markdown(title: &str, acc: &AccuracySummary) -> String {
    let mut out = format!("### Accuracy: {title}\n\n");
    let _ = writeln!(
        out,
        "- steady-state region: mean relative error {:.1}% (max {:.1}%) over {} points",
        acc.steady_state_error * 100.0,
        acc.steady_state_max_error * 100.0,
        acc.steady_state_points
    );
    if acc.near_saturation_points > 0 {
        let _ = writeln!(
            out,
            "- near-saturation region: mean relative error {:.1}% over {} points",
            acc.near_saturation_error * 100.0,
            acc.near_saturation_points
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FigureSeries, SeriesPoint};

    fn panel() -> FigurePanel {
        FigurePanel {
            title: "Fig. X".into(),
            system: "N=28, C=4".into(),
            series: vec![FigureSeries {
                label: "Lm=256".into(),
                message_flits: 32,
                flit_bytes: 256.0,
                points: vec![
                    SeriesPoint {
                        rate: 1e-4,
                        analysis: Some(100.0),
                        simulation: Some(105.0),
                        sim_std_error: Some(1.0),
                    },
                    SeriesPoint {
                        rate: 2e-4,
                        analysis: None,
                        simulation: None,
                        sim_std_error: None,
                    },
                ],
            }],
        }
    }

    #[test]
    fn markdown_rendering_marks_saturation() {
        let md = panel_to_markdown(&panel());
        assert!(md.contains("Fig. X"));
        assert!(md.contains("| 1.00e-4 |"));
        assert!(md.contains("saturated"));
    }

    #[test]
    fn table1_markdown_contains_both_orgs() {
        let md = table1_to_markdown(&crate::table1::table1_summary());
        assert!(md.contains("| A | 1120 | 32 | 8 |"));
        assert!(md.contains("| B | 544 | 16 | 4 |"));
        assert!(md.contains("12×(n=1, 8 nodes)"));
    }

    #[test]
    fn accuracy_markdown_formats_percentages() {
        let acc = AccuracySummary {
            points: vec![],
            steady_state_error: 0.05,
            steady_state_max_error: 0.09,
            near_saturation_error: 0.4,
            steady_state_points: 6,
            near_saturation_points: 2,
        };
        let md = accuracy_to_markdown("Fig. 3", &acc);
        assert!(md.contains("5.0%"));
        assert!(md.contains("40.0%"));
    }
}
