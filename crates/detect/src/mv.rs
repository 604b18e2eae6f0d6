//! MV Detector: explicit missing values plus configured null-equivalents.

use datalens_table::{CellRef, Table};

use crate::detector::{Detection, DetectionContext, Detector};

/// Flags every null cell, plus string cells whose (lowercased, trimmed)
/// content matches a configured null-equivalent token.
#[derive(Debug, Clone)]
pub struct MvDetector {
    /// Extra string spellings treated as missing (lowercase).
    pub null_equivalents: Vec<String>,
}

impl Default for MvDetector {
    fn default() -> Self {
        MvDetector {
            null_equivalents: ["", "na", "n/a", "null", "none", "nan", "?", "-"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

impl Detector for MvDetector {
    fn name(&self) -> &'static str {
        "mv_detector"
    }

    fn detect(&self, table: &Table, _ctx: &DetectionContext) -> Detection {
        let mut cells = Vec::new();
        for (col_idx, col) in table.columns().iter().enumerate() {
            let mut base = 0;
            for chunk in col.chunks() {
                // Normalise each dictionary entry once per chunk instead
                // of once per cell.
                let is_mv: Vec<bool> = chunk
                    .dict()
                    .iter()
                    .map(|s| {
                        let norm = s.trim().to_ascii_lowercase();
                        self.null_equivalents.contains(&norm)
                    })
                    .collect();
                let rows = chunk.null_rows().chain(chunk.rows_with(&is_mv));
                cells.extend(rows.map(|row| CellRef::new(base + row, col_idx)));
                base += chunk.len();
            }
        }
        Detection::new(self.name(), cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_table::Column;

    #[test]
    fn flags_nulls_and_equivalents() {
        let t = Table::new(
            "t",
            vec![
                Column::from_f64("n", [Some(1.0), None, Some(3.0)]),
                Column::from_str_vals("s", [Some("ok"), Some("N/A"), Some("?")]),
            ],
        )
        .unwrap();
        let d = MvDetector::default().detect(&t, &DetectionContext::default());
        assert_eq!(
            d.cells,
            vec![CellRef::new(1, 0), CellRef::new(1, 1), CellRef::new(2, 1)]
        );
    }

    #[test]
    fn clean_table_yields_nothing() {
        let t = Table::new(
            "t",
            vec![Column::from_str_vals("s", [Some("a"), Some("b")])],
        )
        .unwrap();
        assert!(MvDetector::default()
            .detect(&t, &DetectionContext::default())
            .is_empty());
    }

    #[test]
    fn custom_equivalents() {
        let t = Table::new(
            "t",
            vec![Column::from_str_vals("s", [Some("TBD"), Some("x")])],
        )
        .unwrap();
        let det = MvDetector {
            null_equivalents: vec!["tbd".into()],
        };
        let d = det.detect(&t, &DetectionContext::default());
        assert_eq!(d.cells, vec![CellRef::new(0, 0)]);
    }

    #[test]
    fn chunk_boundaries_are_invisible() {
        let vals: Vec<Option<String>> = (0..100)
            .map(|i| match i % 7 {
                0 => None,
                1 => Some("NA".to_string()),
                _ => Some(format!("v{i}")),
            })
            .collect();
        let col = Column::from_str_vals("s", vals);
        let flat = Table::new("t", vec![col.clone()]).unwrap();
        let chunked = Table::new("t", vec![col.rechunk(9)]).unwrap();
        let det = MvDetector::default();
        let ctx = DetectionContext::default();
        let a = det.detect(&flat, &ctx);
        assert_eq!(a.cells, det.detect(&chunked, &ctx).cells);
        assert_eq!(a.cells.len(), 15 + 15); // 15 nulls + 15 "NA"s
    }
}
