//! Per-stage instrumentation: every stage the engine times produces a
//! [`StageReport`] with its wall-time and the volume of data it touched.
//! Reports are persisted as run metrics in `datalens-tracking`, rendered
//! in the dashboard's summary panel, and embedded in DataSheets.

use serde::{Deserialize, Serialize};

/// The pipeline stages the engine times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Build the data profile (`datalens-profile`).
    Profile,
    /// Mine FD rules (`datalens-fd`: TANE / HyFD).
    MineRules,
    /// Run one error-detection tool (`datalens-detect`).
    Detect,
    /// Merge per-tool detections into one deduplicated set.
    Consolidate,
    /// Repair flagged cells (`datalens-repair`).
    Repair,
    /// Compute the Data Quality panel metrics.
    QualityEval,
    /// The §4 iterative-cleaning search (a job step).
    IterativeClean,
    /// A cooperative sleep (a job step for scheduling tests and demos).
    Sleep,
}

impl StageKind {
    /// Stable machine name, used in reports, metrics keys, and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            StageKind::Profile => "profile",
            StageKind::MineRules => "mine_rules",
            StageKind::Detect => "detect",
            StageKind::Consolidate => "consolidate",
            StageKind::Repair => "repair",
            StageKind::QualityEval => "quality_eval",
            StageKind::IterativeClean => "iterative_clean",
            StageKind::Sleep => "sleep",
        }
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one stage execution did and how long it took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage machine name (see [`StageKind::as_str`]).
    pub stage: String,
    /// Tool or miner the stage ran (empty when the stage has no tool).
    #[serde(default)]
    pub detail: String,
    /// Wall-clock duration in milliseconds.
    pub wall_ms: f64,
    /// Rows of the input table the stage scanned.
    pub rows_processed: usize,
    /// Cells of the input table the stage scanned.
    pub cells_processed: usize,
    /// Cells flagged / rules mined / cells repaired by the stage.
    pub flags_produced: usize,
}

impl StageReport {
    /// `stage` or `stage:detail`, used as a metrics key.
    pub fn label(&self) -> String {
        if self.detail.is_empty() {
            self.stage.clone()
        } else {
            format!("{}:{}", self.stage, self.detail)
        }
    }

    /// One aligned text row for the dashboard's stage summary.
    pub fn render_row(&self) -> String {
        format!(
            "  {:<24} {:>10.3} ms  {:>8} rows  {:>10} cells  {:>7} flags\n",
            self.label(),
            self.wall_ms,
            self.rows_processed,
            self.cells_processed,
            self.flags_produced
        )
    }
}

/// Render a stage-report list as the dashboard's summary panel block.
pub fn render_stage_reports(reports: &[StageReport]) -> String {
    let mut out = String::from("── Pipeline stages ──\n");
    if reports.is_empty() {
        out.push_str("  (no stages executed yet)\n");
        return out;
    }
    let mut total = 0.0;
    for r in reports {
        out.push_str(&r.render_row());
        total += r.wall_ms;
    }
    out.push_str(&format!("  {:<24} {total:>10.3} ms\n", "total"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> StageReport {
        StageReport {
            stage: "detect".into(),
            detail: "sd".into(),
            wall_ms: 1.25,
            rows_processed: 100,
            cells_processed: 600,
            flags_produced: 4,
        }
    }

    #[test]
    fn label_includes_detail_when_present() {
        assert_eq!(report().label(), "detect:sd");
        let bare = StageReport {
            detail: String::new(),
            ..report()
        };
        assert_eq!(bare.label(), "detect");
    }

    #[test]
    fn json_round_trip() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: StageReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn missing_detail_defaults_to_empty() {
        let back: StageReport = serde_json::from_str(
            "{\"stage\":\"profile\",\"wall_ms\":0.5,\"rows_processed\":1,\
             \"cells_processed\":2,\"flags_produced\":0}",
        )
        .unwrap();
        assert_eq!(back.detail, "");
    }

    #[test]
    fn rendering_lists_every_stage_and_total() {
        let text = render_stage_reports(&[report()]);
        assert!(text.contains("detect:sd"));
        assert!(text.contains("total"));
        assert!(render_stage_reports(&[]).contains("no stages"));
    }

    #[test]
    fn stage_kind_names_are_stable() {
        assert_eq!(StageKind::Profile.as_str(), "profile");
        assert_eq!(StageKind::MineRules.as_str(), "mine_rules");
        assert_eq!(StageKind::Detect.to_string(), "detect");
        assert_eq!(StageKind::Consolidate.as_str(), "consolidate");
        assert_eq!(StageKind::Repair.as_str(), "repair");
        assert_eq!(StageKind::QualityEval.as_str(), "quality_eval");
        assert_eq!(StageKind::IterativeClean.as_str(), "iterative_clean");
        assert_eq!(StageKind::Sleep.as_str(), "sleep");
    }
}
