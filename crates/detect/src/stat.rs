//! Statistical outlier detectors: SD (z-score), IQR, and Isolation Forest
//! — the three statistical methods the paper lists for outlier detection.

use datalens_ml::isolation_forest::{IsolationForest, IsolationForestConfig};
use datalens_profile::stats::quantile_sorted;
use datalens_table::{CellRef, Column, Table};

use crate::detector::{Detection, DetectionContext, Detector};

/// Standard-deviation detector: flags numeric cells with |value − mean| >
/// k·σ, per column.
#[derive(Debug, Clone)]
pub struct SdDetector {
    /// Sigma multiplier (default 3.0).
    pub k: f64,
}

impl Default for SdDetector {
    fn default() -> Self {
        SdDetector { k: 3.0 }
    }
}

/// The mean and population σ [`SdDetector`] measures a column against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdStats {
    pub mean: f64,
    pub std: f64,
}

impl SdDetector {
    /// Mean and σ of the column's finite numeric values (summed in row
    /// order), or `None` when fewer than three remain or σ is zero.
    /// ±inf then lies beyond every threshold; NaN never does.
    pub fn column_stats(&self, col: &Column) -> Option<SdStats> {
        let n = finite_values(col).count();
        if n < 3 {
            return None;
        }
        let mean = finite_values(col).sum::<f64>() / n as f64;
        let std = (finite_values(col)
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n as f64)
            .sqrt();
        (std != 0.0).then_some(SdStats { mean, std })
    }
}

impl Detector for SdDetector {
    fn name(&self) -> &'static str {
        "sd"
    }

    fn detect(&self, table: &Table, _ctx: &DetectionContext) -> Detection {
        let mut cells = Vec::new();
        for (col_idx, col) in table.columns().iter().enumerate() {
            let Some(SdStats { mean, std }) = self.column_stats(col) else {
                continue;
            };
            cells.extend(
                col.numeric_rows()
                    .filter(|&(_, v)| (v - mean).abs() > self.k * std)
                    .map(|(row, _)| CellRef::new(row, col_idx)),
            );
        }
        Detection::new(self.name(), cells)
    }
}

/// Interquartile-range detector: flags numeric cells outside
/// [Q1 − f·IQR, Q3 + f·IQR], per column.
#[derive(Debug, Clone)]
pub struct IqrDetector {
    /// IQR multiplier (default 1.5, Tukey's fences).
    pub factor: f64,
}

impl Default for IqrDetector {
    fn default() -> Self {
        IqrDetector { factor: 1.5 }
    }
}

/// The quartiles and fences [`IqrDetector`] measures a column against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqrFences {
    pub q1: f64,
    pub q3: f64,
    pub lo: f64,
    pub hi: f64,
}

impl IqrDetector {
    /// Quartiles of the column's finite numeric values and the fences
    /// `factor`·IQR beyond them, or `None` when fewer than four values
    /// remain or the IQR is zero. ±inf then lies outside the fences; NaN
    /// never does.
    pub fn fences(&self, col: &Column) -> Option<IqrFences> {
        let mut sorted: Vec<f64> = finite_values(col).collect();
        if sorted.len() < 4 {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let q1 = quantile_sorted(&sorted, 0.25);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        (iqr != 0.0).then_some(IqrFences {
            q1,
            q3,
            lo: q1 - self.factor * iqr,
            hi: q3 + self.factor * iqr,
        })
    }
}

impl Detector for IqrDetector {
    fn name(&self) -> &'static str {
        "iqr"
    }

    fn detect(&self, table: &Table, _ctx: &DetectionContext) -> Detection {
        let mut cells = Vec::new();
        for (col_idx, col) in table.columns().iter().enumerate() {
            let Some(IqrFences { lo, hi, .. }) = self.fences(col) else {
                continue;
            };
            cells.extend(
                col.numeric_rows()
                    .filter(|&(_, v)| v < lo || v > hi)
                    .map(|(row, _)| CellRef::new(row, col_idx)),
            );
        }
        Detection::new(self.name(), cells)
    }
}

/// The column's finite numeric values, in row order.
fn finite_values(col: &Column) -> impl Iterator<Item = f64> + '_ {
    col.numeric_rows().map(|(_, v)| v).filter(|v| v.is_finite())
}

/// Isolation-forest detector: scores whole rows over the numeric columns,
/// flags rows above the score threshold, and attributes the anomaly to the
/// numeric cells that are individually extreme (|z| > 1) — falling back to
/// the single most extreme cell so every flagged row yields evidence.
#[derive(Debug, Clone)]
pub struct IsolationForestDetector {
    pub score_threshold: f64,
    pub config: IsolationForestConfig,
}

impl Default for IsolationForestDetector {
    fn default() -> Self {
        IsolationForestDetector {
            score_threshold: 0.62,
            config: IsolationForestConfig::default(),
        }
    }
}

impl Detector for IsolationForestDetector {
    fn name(&self) -> &'static str {
        "isolation_forest"
    }

    fn detect(&self, table: &Table, ctx: &DetectionContext) -> Detection {
        let numeric_cols: Vec<usize> = table.schema().numeric_indices();
        let n_rows = table.n_rows();
        if numeric_cols.is_empty() || n_rows < 8 {
            return Detection::new(self.name(), Vec::new());
        }
        // One column-major block of the numeric columns, nulls filled
        // with their column's mean; the means and σs also serve the
        // attribution below.
        let mut block = vec![0.0; n_rows * numeric_cols.len()];
        let stats: Vec<(f64, f64)> = numeric_cols
            .iter()
            .zip(block.chunks_exact_mut(n_rows))
            .map(|(&c, column)| fill_column(table.column(c).expect("in range"), column))
            .collect();
        let mut config = self.config.clone();
        config.seed = ctx.seed;
        let forest = IsolationForest::fit(&block, n_rows, &config);
        let scores = forest.score_all(&block, n_rows);

        let mut cells = Vec::new();
        for (r, &score) in scores.iter().enumerate() {
            if score < self.score_threshold {
                continue;
            }
            // Attribute to extreme cells within the row.
            let mut flagged_any = false;
            let mut best: Option<(usize, f64)> = None;
            for (i, &c) in numeric_cols.iter().enumerate() {
                let (mean, std) = stats[i];
                if std == 0.0 {
                    continue;
                }
                let z = ((block[i * n_rows + r] - mean) / std).abs();
                if best.as_ref().is_none_or(|(_, bz)| z > *bz) {
                    best = Some((c, z));
                }
                if z > 1.0 {
                    cells.push(CellRef::new(r, c));
                    flagged_any = true;
                }
            }
            if !flagged_any {
                if let Some((c, _)) = best {
                    cells.push(CellRef::new(r, c));
                }
            }
        }
        Detection::new(self.name(), cells)
    }
}

/// Copy `col`'s numeric values into `out` by row, fill its nulls with the
/// mean, and return the mean and population σ of the non-null values
/// (NaN and ±inf included), both summed in row order; `(0.0, 0.0)` when
/// every row is null.
fn fill_column(col: &Column, out: &mut [f64]) -> (f64, f64) {
    let mut count = 0;
    let sum: f64 = col
        .numeric_rows()
        .inspect(|&(row, v)| {
            out[row] = v;
            count += 1;
        })
        .map(|(_, v)| v)
        .sum();
    if count == 0 {
        return (0.0, 0.0);
    }
    let mean = sum / count as f64;
    let mut next = 0;
    let deviations: f64 = col
        .numeric_rows()
        .inspect(|&(row, _)| {
            out[next..row].fill(mean);
            next = row + 1;
        })
        .map(|(_, v)| (v - mean) * (v - mean))
        .sum();
    out[next..].fill(mean);
    (mean, (deviations / count as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{self, MAX_ROWS};
    use datalens_table::DataType;
    use proptest::prelude::*;

    fn table_with_outlier() -> Table {
        let mut vals: Vec<Option<f64>> = (0..50).map(|i| Some(10.0 + (i % 5) as f64)).collect();
        vals[13] = Some(500.0);
        Table::new(
            "t",
            vec![
                Column::from_f64("x", vals),
                Column::from_str_vals("s", (0..50).map(|_| Some("a")).collect::<Vec<_>>()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn sd_flags_the_planted_outlier() {
        let t = table_with_outlier();
        let d = SdDetector::default().detect(&t, &DetectionContext::default());
        assert_eq!(d.cells, vec![CellRef::new(13, 0)]);
    }

    #[test]
    fn sd_ignores_clean_and_constant_columns() {
        let t = Table::new("t", vec![Column::from_f64("c", vec![Some(5.0); 20])]).unwrap();
        let d = SdDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.is_empty());
    }

    #[test]
    fn iqr_flags_the_planted_outlier() {
        let t = table_with_outlier();
        let d = IqrDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.cells.contains(&CellRef::new(13, 0)));
        // IQR must not flag the bulk.
        assert!(d.len() < 5);
    }

    #[test]
    fn iqr_tighter_factor_flags_more() {
        let t = table_with_outlier();
        let strict = IqrDetector { factor: 0.5 }.detect(&t, &DetectionContext::default());
        let loose = IqrDetector { factor: 3.0 }.detect(&t, &DetectionContext::default());
        assert!(strict.len() >= loose.len());
    }

    #[test]
    fn isolation_forest_flags_outlier_row() {
        let t = table_with_outlier();
        let d = IsolationForestDetector::default().detect(&t, &DetectionContext::default());
        assert!(
            d.cells.contains(&CellRef::new(13, 0)),
            "cells: {:?}",
            d.cells
        );
    }

    #[test]
    fn detectors_skip_tiny_tables() {
        let t = Table::new("t", vec![Column::from_f64("x", [Some(1.0), Some(2.0)])]).unwrap();
        let ctx = DetectionContext::default();
        assert!(SdDetector::default().detect(&t, &ctx).is_empty());
        assert!(IqrDetector::default().detect(&t, &ctx).is_empty());
        assert!(IsolationForestDetector::default()
            .detect(&t, &ctx)
            .is_empty());
    }

    #[test]
    fn nulls_are_not_outliers_for_stat_detectors() {
        let mut vals: Vec<Option<f64>> = (0..30).map(|i| Some(i as f64)).collect();
        vals[5] = None;
        let t = Table::new("t", vec![Column::from_f64("x", vals)]).unwrap();
        let d = SdDetector::default().detect(&t, &DetectionContext::default());
        assert!(!d.cells.contains(&CellRef::new(5, 0)));
    }

    /// 30 values between 10 and 12 plus 5000 at row 30, then `extra`.
    fn column_with(extra: Option<f64>) -> Table {
        let mut vals: Vec<Option<f64>> = (0..30).map(|i| Some(10.0 + (i % 3) as f64)).collect();
        vals.push(Some(5000.0));
        vals.extend(extra.map(Some));
        Table::new("t", vec![Column::from_f64("x", vals)]).unwrap()
    }

    #[test]
    fn one_non_finite_value_leaves_sd_and_iqr_on() {
        let ctx = DetectionContext::default();
        let both = vec![CellRef::new(30, 0), CellRef::new(31, 0)];
        let sd = SdDetector::default();
        let iqr = IqrDetector::default();
        assert_eq!(sd.detect(&column_with(None), &ctx).cells, both[..1]);
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(sd.detect(&column_with(Some(inf)), &ctx).cells, both);
            assert_eq!(iqr.detect(&column_with(Some(inf)), &ctx).cells, both);
        }
        let nan = column_with(Some(f64::NAN));
        assert_eq!(sd.detect(&nan, &ctx).cells, both[..1]);
        assert_eq!(iqr.detect(&nan, &ctx).cells, both[..1]);
    }

    /// The kernels SD and IQR replaced: one `Vec<(row, f64)>` copy per
    /// column read through `get`, statistics over its finite values.
    mod reference {
        use super::*;
        use crate::testgen::numeric_entries;

        pub fn sd(k: f64, table: &Table) -> Vec<CellRef> {
            let mut cells = Vec::new();
            for (col_idx, col) in table.columns().iter().enumerate() {
                let entries = numeric_entries(col);
                let finite: Vec<f64> = entries
                    .iter()
                    .map(|(_, v)| *v)
                    .filter(|v| v.is_finite())
                    .collect();
                if finite.len() < 3 {
                    continue;
                }
                let n = finite.len() as f64;
                let mean = finite.iter().sum::<f64>() / n;
                let std = (finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
                if std == 0.0 {
                    continue;
                }
                for (row, v) in entries {
                    if (v - mean).abs() > k * std {
                        cells.push(CellRef::new(row, col_idx));
                    }
                }
            }
            cells
        }

        pub fn iqr(factor: f64, table: &Table) -> Vec<CellRef> {
            let mut cells = Vec::new();
            for (col_idx, col) in table.columns().iter().enumerate() {
                let entries = numeric_entries(col);
                let mut sorted: Vec<f64> = entries
                    .iter()
                    .map(|(_, v)| *v)
                    .filter(|v| v.is_finite())
                    .collect();
                if sorted.len() < 4 {
                    continue;
                }
                sorted.sort_by(f64::total_cmp);
                let q1 = quantile_sorted(&sorted, 0.25);
                let q3 = quantile_sorted(&sorted, 0.75);
                let iqr = q3 - q1;
                if iqr == 0.0 {
                    continue;
                }
                let (lo, hi) = (q1 - factor * iqr, q3 + factor * iqr);
                for (row, v) in entries {
                    if v < lo || v > hi {
                        cells.push(CellRef::new(row, col_idx));
                    }
                }
            }
            cells
        }

        /// The isolation-forest detector's old front end: a row-major
        /// matrix read through `get`, and the mean and σ of a
        /// `numeric_values`-style copy per column. The forest itself is
        /// the flat one, proven equal to the recursive forest it replaced
        /// by `datalens-ml`'s differential tests; the matrix is handed to
        /// it column-major.
        pub fn isolation_forest(
            det: &IsolationForestDetector,
            table: &Table,
            ctx: &DetectionContext,
        ) -> Vec<CellRef> {
            let numeric_cols: Vec<usize> = table.schema().numeric_indices();
            if numeric_cols.is_empty() || table.n_rows() < 8 {
                return Vec::new();
            }
            let mut stats = Vec::new();
            for &c in &numeric_cols {
                let vals: Vec<f64> = numeric_entries(table.column(c).unwrap())
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect();
                let (mean, std) = if vals.is_empty() {
                    (0.0, 0.0)
                } else {
                    let m = vals.iter().sum::<f64>() / vals.len() as f64;
                    let s = (vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
                        / vals.len() as f64)
                        .sqrt();
                    (m, s)
                };
                stats.push((mean, std));
            }
            let rows: Vec<Vec<f64>> = (0..table.n_rows())
                .map(|r| {
                    numeric_cols
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            let v = table.column(c).unwrap().get(r);
                            v.as_f64().unwrap_or(stats[i].0)
                        })
                        .collect()
                })
                .collect();
            let block: Vec<f64> = (0..numeric_cols.len())
                .flat_map(|i| rows.iter().map(move |row| row[i]))
                .collect();
            let mut config = det.config.clone();
            config.seed = ctx.seed;
            let scores =
                IsolationForest::fit(&block, rows.len(), &config).score_all(&block, rows.len());
            let mut cells = Vec::new();
            for (r, &score) in scores.iter().enumerate() {
                if score < det.score_threshold {
                    continue;
                }
                let mut flagged_any = false;
                let mut best: Option<(usize, f64)> = None;
                for (i, &c) in numeric_cols.iter().enumerate() {
                    let (mean, std) = stats[i];
                    if std == 0.0 {
                        continue;
                    }
                    let z = ((rows[r][i] - mean) / std).abs();
                    if best.as_ref().is_none_or(|(_, bz)| z > *bz) {
                        best = Some((c, z));
                    }
                    if z > 1.0 {
                        cells.push(CellRef::new(r, c));
                        flagged_any = true;
                    }
                }
                if !flagged_any {
                    if let Some((c, _)) = best {
                        cells.push(CellRef::new(r, c));
                    }
                }
            }
            cells
        }
    }

    /// An Int, a Float, a Bool and a string column of `rows` rows.
    fn mixed_table(seed: u64, rows: usize, chunk: usize, edits: usize) -> Table {
        let numeric = |salt, dtype, name| {
            let mut col = testgen::numeric_column(seed ^ salt, rows, chunk, dtype, edits);
            col.rename(name);
            col
        };
        let columns = vec![
            numeric(0, DataType::Int, "i"),
            numeric(1, DataType::Float, "f"),
            numeric(2, DataType::Bool, "b"),
            testgen::string_column(seed, rows, chunk, seed % 6, 10, edits),
        ];
        Table::new("t", columns).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]
        /// SD over the chunk buffers flags exactly the reference's cells.
        #[test]
        fn sd_matches_the_reference_kernel(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..50,
            edits in 0usize..6,
            k in 1u8..4,
        ) {
            let t = mixed_table(seed, rows, chunk, edits);
            let det = SdDetector { k: f64::from(k) };
            let want = Detection::new("sd", reference::sd(det.k, &t));
            prop_assert_eq!(det.detect(&t, &DetectionContext::default()), want);
        }

        /// IQR over the chunk buffers flags exactly the reference's cells.
        #[test]
        fn iqr_matches_the_reference_kernel(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..50,
            edits in 0usize..6,
            factor in 0u8..4,
        ) {
            let t = mixed_table(seed, rows, chunk, edits);
            let det = IqrDetector { factor: 0.5 + f64::from(factor) };
            let want = Detection::new("iqr", reference::iqr(det.factor, &t));
            prop_assert_eq!(det.detect(&t, &DetectionContext::default()), want);
        }

        /// The isolation forest over the column-major block flags exactly
        /// the reference's cells, on 1 to 3 Int and Float columns with
        /// nulls, NaN, ±inf and in-place edits beside a string column.
        #[test]
        fn isolation_forest_matches_the_reference_front_end(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..50,
            edits in 0usize..6,
            numeric in 1usize..4,
            threshold in 0u8..4,
        ) {
            let mut columns: Vec<Column> = (0..numeric)
                .map(|i| {
                    let dtype = if (seed >> i) & 1 == 0 { DataType::Int } else { DataType::Float };
                    let mut col = testgen::numeric_column(seed ^ i as u64, rows, chunk, dtype, edits);
                    col.rename(format!("n{i}"));
                    col
                })
                .collect();
            columns.insert(seed as usize % (numeric + 1),
                testgen::string_column(seed, rows, chunk, seed % 6, 10, edits));
            let t = Table::new("t", columns).unwrap();
            let det = IsolationForestDetector {
                score_threshold: 0.5 + 0.04 * f64::from(threshold),
                config: IsolationForestConfig { n_trees: 30, ..Default::default() },
            };
            let ctx = DetectionContext { seed: seed.rotate_left(9), ..Default::default() };
            let want = Detection::new("isolation_forest", reference::isolation_forest(&det, &t, &ctx));
            prop_assert_eq!(det.detect(&t, &ctx), want);
        }
    }
}
