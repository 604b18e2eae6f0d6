//! Detection explanations — the paper's future-work item (2):
//! "Integrating explainability techniques into the error detection and
//! repair process would give users insights into why specific errors were
//! flagged and how corrections were made."
//!
//! For every flagged cell, [`explain_cell`] reconstructs the statistical
//! or rule evidence each tool had: z-scores, IQR fences, sentinel matches,
//! FD cohorts, knowledge-base domains. The dashboard surfaces these next
//! to the detection results.

use std::cell::OnceCell;
use std::collections::HashMap;

use datalens_table::{CellRef, Column, Table, Value};

use crate::consolidate::ConsolidatedDetections;
use crate::fahes::{syntactic_pattern, FahesConfig};
use crate::katara::KataraDetector;
use crate::stat::{IqrDetector, IqrFences, SdDetector, SdStats};

/// One tool's reason for flagging a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Reason {
    pub tool: String,
    /// Human-readable evidence.
    pub message: String,
}

/// The explanation bundle for one flagged cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellExplanation {
    pub cell: CellRef,
    pub column: String,
    /// Rendered cell content.
    pub value: String,
    pub reasons: Vec<Reason>,
}

impl CellExplanation {
    /// Render for the Detection Results tab.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cell {} (column {:?}, value {:?}):\n",
            self.cell, self.column, self.value
        );
        for r in &self.reasons {
            out.push_str(&format!("  - [{}] {}\n", r.tool, r.message));
        }
        out
    }
}

/// The detectors' own per-column numbers, each computed on first use.
#[derive(Default)]
struct ColumnEvidence {
    sd: OnceCell<Option<SdStats>>,
    iqr: OnceCell<Option<IqrFences>>,
    katara: OnceCell<Option<&'static str>>,
}

/// Explain why `cell` was flagged, given the consolidated detections.
/// Returns `None` when the cell was not flagged at all.
pub fn explain_cell(
    table: &Table,
    merged: &ConsolidatedDetections,
    cell: CellRef,
) -> Option<CellExplanation> {
    explain_with(table, merged, cell, &ColumnEvidence::default())
}

/// Explain every flagged cell (capped at `limit` for dashboard rendering),
/// computing each column's detector evidence once.
pub fn explain_all(
    table: &Table,
    merged: &ConsolidatedDetections,
    limit: usize,
) -> Vec<CellExplanation> {
    let mut evidence: HashMap<usize, ColumnEvidence> = HashMap::new();
    merged
        .union
        .iter()
        .take(limit)
        .filter_map(|&cell| {
            let ev = evidence.entry(cell.col).or_default();
            explain_with(table, merged, cell, ev)
        })
        .collect()
}

fn explain_with(
    table: &Table,
    merged: &ConsolidatedDetections,
    cell: CellRef,
    evidence: &ColumnEvidence,
) -> Option<CellExplanation> {
    let tools = merged.provenance.get(&cell)?;
    let col = table.column(cell.col)?;
    let value = col.get(cell.row);
    let reasons = tools
        .iter()
        .map(|tool| Reason {
            tool: tool.clone(),
            message: evidence_for(col, &value, tool, evidence),
        })
        .collect();
    Some(CellExplanation {
        cell,
        column: col.name().to_string(),
        value: value.render(),
        reasons,
    })
}

/// The per-tool evidence text for `value`, a cell of `col`.
fn evidence_for(col: &Column, value: &Value, tool: &str, evidence: &ColumnEvidence) -> String {
    match tool {
        "sd" => {
            let stats = evidence
                .sd
                .get_or_init(|| SdDetector::default().column_stats(col));
            match (stats, value.as_f64()) {
                (Some(SdStats { mean, std }), Some(v)) => {
                    let z = (v - mean) / std;
                    format!("value {v} is {z:+.1}σ from the column mean {mean:.3} (σ = {std:.3})")
                }
                _ => "flagged as a standard-deviation outlier".into(),
            }
        }
        "iqr" => match evidence
            .iqr
            .get_or_init(|| IqrDetector::default().fences(col))
        {
            Some(IqrFences { q1, q3, lo, hi }) => format!(
                "value {} lies outside the Tukey fences [{lo:.3}, {hi:.3}] (Q1 {q1:.3}, Q3 {q3:.3}, IQR {:.3})",
                value.render(),
                q3 - q1
            ),
            None => "flagged as an IQR outlier".into(),
        },
        "mv_detector" => {
            if value.is_null() {
                "cell is null".into()
            } else {
                format!(
                    "value {:?} is a configured null-equivalent token",
                    value.render()
                )
            }
        }
        "fahes" => {
            let cfg = FahesConfig::default();
            let rendered = value.render();
            if let Some(v) = value.as_f64() {
                if v.fract() == 0.0 && cfg.numeric_sentinels.contains(&(v as i64)) {
                    return format!(
                        "value {v} matches a conventional disguised-missing sentinel \
                         and sits at the boundary of the column's distribution"
                    );
                }
                format!("value {v} behaves like a disguised missing value (frequency spike at a distribution boundary)")
            } else if cfg
                .placeholders
                .contains(&rendered.trim().to_ascii_lowercase())
            {
                format!("value {rendered:?} is a known placeholder token")
            } else {
                format!(
                    "value {rendered:?} has syntactic pattern {:?}, which deviates from the column's dominant pattern",
                    syntactic_pattern(&rendered)
                )
            }
        }
        "nadeef" => format!(
            "value {:?} disagrees with the majority dependent value among rows \
             sharing its FD determinant (or violates a denial constraint)",
            value.render()
        ),
        "katara" => match evidence.katara.get_or_init(|| {
            KataraDetector::default()
                .aligned_domain(col)
                .map(|domain| domain.name)
        }) {
            Some(domain) => format!(
                "column aligns with knowledge-base domain {domain:?} but value {:?} is not a member",
                value.render()
            ),
            None => "value falls outside the column's aligned knowledge-base domain".into(),
        },
        "holoclean" => "weighted combination of constraint violations, outlier statistics, \
                        null signals, and co-occurrence rarity crossed the noise threshold"
            .into(),
        "raha" => "the per-column classifier trained on propagated user labels judged this \
                   cell's detector-signature dirty"
            .into(),
        "min_k" => "at least K base detectors independently flagged this cell".into(),
        "user_tags" => format!(
            "value {:?} was tagged as known-dirty by the user",
            value.render()
        ),
        "isolation_forest" => "the cell's row isolates in anomalously short paths across the \
                               random isolation trees, and this cell is its most extreme value"
            .into(),
        other => format!("flagged by {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Detection, DetectionContext, Detector};

    fn table_and_merged() -> (Table, ConsolidatedDetections) {
        let mut vals: Vec<Option<f64>> = (0..40).map(|i| Some(10.0 + (i % 4) as f64)).collect();
        vals[7] = Some(500.0);
        let t = Table::new("t", vec![Column::from_f64("x", vals)]).unwrap();
        let d = SdDetector::default().detect(&t, &DetectionContext::default());
        (t, ConsolidatedDetections::merge(vec![d]))
    }

    #[test]
    fn sd_explanation_includes_sigma() {
        let (t, merged) = table_and_merged();
        let exp = explain_cell(&t, &merged, CellRef::new(7, 0)).unwrap();
        assert_eq!(exp.column, "x");
        assert_eq!(exp.reasons.len(), 1);
        assert!(
            exp.reasons[0].message.contains("σ"),
            "{}",
            exp.reasons[0].message
        );
        assert!(exp.render().contains("[sd]"));
    }

    #[test]
    fn unflagged_cell_has_no_explanation() {
        let (t, merged) = table_and_merged();
        assert!(explain_cell(&t, &merged, CellRef::new(0, 0)).is_none());
    }

    #[test]
    fn multi_tool_provenance_yields_multiple_reasons() {
        let (t, _) = table_and_merged();
        let cell = CellRef::new(7, 0);
        let merged = ConsolidatedDetections::merge(vec![
            Detection::new("sd", vec![cell]),
            Detection::new("iqr", vec![cell]),
        ]);
        let exp = explain_cell(&t, &merged, cell).unwrap();
        assert_eq!(exp.reasons.len(), 2);
        assert!(exp.reasons.iter().any(|r| r.tool == "iqr"));
        assert!(exp.reasons.iter().any(|r| r.message.contains("fences")));
    }

    #[test]
    fn explain_all_respects_limit() {
        let (t, _) = table_and_merged();
        let cells: Vec<CellRef> = (0..10).map(|r| CellRef::new(r, 0)).collect();
        let merged = ConsolidatedDetections::merge(vec![Detection::new("sd", cells)]);
        assert_eq!(explain_all(&t, &merged, 3).len(), 3);
        assert_eq!(explain_all(&t, &merged, 100).len(), 10);
    }

    #[test]
    fn null_cell_mv_explanation() {
        let t = Table::new("t", vec![Column::from_f64("x", [Some(1.0), None])]).unwrap();
        let cell = CellRef::new(1, 0);
        let merged = ConsolidatedDetections::merge(vec![Detection::new("mv_detector", vec![cell])]);
        let exp = explain_cell(&t, &merged, cell).unwrap();
        assert_eq!(exp.reasons[0].message, "cell is null");
    }

    #[test]
    fn sd_and_iqr_explanations_quote_the_detectors_numbers() {
        let mut vals: Vec<Option<f64>> = (0..30).map(|i| Some(10.0 + (i % 3) as f64)).collect();
        vals.extend([Some(5000.0), Some(f64::INFINITY)]);
        let t = Table::new("t", vec![Column::from_f64("x", vals)]).unwrap();
        let ctx = DetectionContext::default();
        let (sd, iqr) = (SdDetector::default(), IqrDetector::default());
        let merged = ConsolidatedDetections::merge(vec![sd.detect(&t, &ctx), iqr.detect(&t, &ctx)]);
        let col = t.column(0).unwrap();
        let SdStats { mean, std } = sd.column_stats(col).unwrap();
        let IqrFences { lo, hi, .. } = iqr.fences(col).unwrap();
        let explanations = explain_all(&t, &merged, 10);
        assert_eq!(explanations.len(), 2);
        let message = |exp: &CellExplanation, tool: &str| {
            let reason = exp.reasons.iter().find(|r| r.tool == tool);
            reason.expect("both tools flag both cells").message.clone()
        };
        for exp in &explanations {
            assert!(message(exp, "sd").contains(&format!("mean {mean:.3} (σ = {std:.3})")));
            assert!(message(exp, "iqr").contains(&format!("[{lo:.3}, {hi:.3}]")));
        }
        assert!(message(&explanations[1], "sd").starts_with("value inf is +infσ"));
    }
}
