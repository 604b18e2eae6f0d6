//! The detector abstraction every error-detection tool implements.
//!
//! §3 of the paper: "DataLens allows users to select multiple tools for
//! execution. These tools are executed sequentially in the backend, and
//! DataLens automatically consolidates their detections into a single
//! array, filtering out duplicates." A [`Detector`] produces a
//! [`Detection`] (tool name + flagged cells); consolidation lives in
//! [`crate::consolidate`].

use serde::{Deserialize, Serialize};

use datalens_fd::RuleSet;
use datalens_table::{CellRef, Column, Table};

/// Output of one detection tool on one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Detection {
    /// Tool name (e.g. "sd", "iqr", "raha").
    pub tool: String,
    /// Flagged cells, sorted and deduplicated.
    pub cells: Vec<CellRef>,
}

impl Detection {
    /// Build a detection, normalising the cell list.
    pub fn new(tool: impl Into<String>, mut cells: Vec<CellRef>) -> Detection {
        cells.sort();
        cells.dedup();
        Detection {
            tool: tool.into(),
            cells,
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Count flagged cells per column index.
    pub fn counts_per_column(&self, n_cols: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_cols];
        for c in &self.cells {
            if c.col < n_cols {
                counts[c.col] += 1;
            }
        }
        counts
    }
}

/// Push the cells of column `col_idx` whose non-null string's dictionary
/// entry is flagged: `hits` yields, for each chunk in turn, one flag per
/// entry of [`datalens_table::Chunk::dict`].
pub(crate) fn flag_entries(
    col: &Column,
    col_idx: usize,
    hits: impl IntoIterator<Item = Vec<bool>>,
    out: &mut Vec<CellRef>,
) {
    let mut base = 0;
    for (chunk, hits) in col.chunks().iter().zip(hits) {
        out.extend(
            chunk
                .rows_with(&hits)
                .map(|row| CellRef::new(base + row, col_idx)),
        );
        base += chunk.len();
    }
}

/// Shared context handed to every detector: validated rules, user-tagged
/// suspicious values, and a seed for the stochastic tools.
#[derive(Debug, Clone, Default)]
pub struct DetectionContext {
    /// FD rules (from discovery + user), used by NADEEF-style detection.
    pub rules: RuleSet,
    /// Values the user flagged as known-dirty (§3 "data tagging"),
    /// matched against rendered cell content.
    pub tagged_values: Vec<String>,
    pub seed: u64,
}

impl DetectionContext {
    pub fn with_rules(rules: RuleSet) -> DetectionContext {
        DetectionContext {
            rules,
            ..DetectionContext::default()
        }
    }
}

/// An error-detection tool.
pub trait Detector: Send + Sync {
    /// Stable machine name, used in DataSheets and MLflow runs.
    fn name(&self) -> &'static str;
    /// Scan `table` and return the flagged cells.
    fn detect(&self, table: &Table, ctx: &DetectionContext) -> Detection;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_normalises_cells() {
        let d = Detection::new(
            "x",
            vec![CellRef::new(1, 0), CellRef::new(0, 0), CellRef::new(1, 0)],
        );
        assert_eq!(d.cells, vec![CellRef::new(0, 0), CellRef::new(1, 0)]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn counts_per_column_tallies() {
        let d = Detection::new(
            "x",
            vec![CellRef::new(0, 1), CellRef::new(1, 1), CellRef::new(2, 0)],
        );
        assert_eq!(d.counts_per_column(3), vec![1, 2, 0]);
    }
}
