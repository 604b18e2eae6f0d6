//! Correlation measures between columns: Pearson, Spearman, and Cramér's V
//! — the three families ydata-profiling reports and the Data Profile tab
//! surfaces.
//!
//! # Kernels
//!
//! Each kind has one implementation, which [`correlation_matrix`] and the
//! profile report's pair fan-out both call. A column is prepared once per
//! build straight from its chunk buffers (`prepare`); a pair kernel then
//! reads two prepared columns (`coefficient`).
//!
//! - **Pearson** prepares a numeric column as one `f64` per row (NaN for
//!   nulls) and a bitmap of the rows whose value is finite. A pair keeps
//!   the rows finite in both columns.
//! - **Spearman** also sorts each column's finite rows once and marks
//!   where each run of equal values starts. A pair walks that order,
//!   skips the rows the other column drops, and assigns average ranks in
//!   O(rows). Ranks are derived per pair because each pair drops
//!   different rows.
//! - **Cramér's V** maps each string column's per-chunk dictionary codes
//!   to column-global level ids in string order. Only codes some row
//!   references become levels, since `Column::set` can leave stale
//!   dictionary entries. A pair counts its contingency table in integers.
//!
//! Every kernel keeps the summation order of the slice-based functions it
//! replaced (kept under `cfg(test)` as the differential-test reference),
//! so coefficients are bit-identical to theirs.

use serde::{Deserialize, Serialize};

use datalens_table::{ChunkValues, Column, DataType, Table};

/// Level id of a null cell in a [`CategoricalSeries`].
const NULL_LEVEL: u32 = u32::MAX;

fn bit(bits: &[u64], i: usize) -> bool {
    (bits[i / 64] >> (i % 64)) & 1 == 1
}

/// Prepared columns store row and level ids as `u32`.
fn assert_row_ids_fit(rows: usize) {
    assert!(
        rows < u32::MAX as usize,
        "correlation kernels index rows as u32; {rows} rows do not fit"
    );
}

fn bitmap(len: usize, mut set: impl FnMut(usize) -> bool) -> Vec<u64> {
    let mut bits = vec![0u64; len.div_ceil(64)];
    for i in 0..len {
        if set(i) {
            bits[i / 64] |= 1 << (i % 64);
        }
    }
    bits
}

/// A numeric column prepared for the Pearson and Spearman kernels.
pub(crate) struct NumericSeries {
    /// One value per row; nulls are NaN, which the kernels drop like the
    /// other non-finite values.
    values: Vec<f64>,
    /// Bit per row, set where the value is finite.
    finite: Vec<u64>,
    /// Finite rows in ascending value order (empty unless ranked).
    order: Vec<u32>,
    /// Bit per `order` position, set where a run of equal values starts.
    run_starts: Vec<u64>,
}

impl NumericSeries {
    /// Read `column` from its chunk buffers; `ranked` also sorts it for
    /// Spearman.
    fn new(column: &Column, ranked: bool) -> NumericSeries {
        assert_row_ids_fit(column.len());
        let mut values = Vec::with_capacity(column.len());
        for chunk in column.chunks() {
            let valid = |i: usize, x: f64| if chunk.is_valid(i) { x } else { f64::NAN };
            match chunk.values() {
                ChunkValues::Int(v) => {
                    values.extend(v.iter().enumerate().map(|(i, &x)| valid(i, x as f64)));
                }
                ChunkValues::Float(v) => {
                    values.extend(v.iter().enumerate().map(|(i, &x)| valid(i, x)));
                }
                ChunkValues::Bool(v) => {
                    values.extend(v.iter().enumerate().map(|(i, &x)| valid(i, f64::from(x))));
                }
                ChunkValues::Str { .. } => values.resize(values.len() + chunk.len(), f64::NAN),
            }
        }
        let finite = bitmap(values.len(), |i| values[i].is_finite());
        let (order, run_starts) = if ranked {
            let mut sorted: Vec<(f64, u32)> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| v.is_finite())
                .map(|(row, &v)| (v, row as u32))
                .collect();
            // Rows within a run of equal values share one rank, so their
            // relative order does not matter.
            sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let run_starts = bitmap(sorted.len(), |k| k == 0 || sorted[k].0 != sorted[k - 1].0);
            (sorted.into_iter().map(|(_, row)| row).collect(), run_starts)
        } else {
            (Vec::new(), Vec::new())
        };
        NumericSeries {
            values,
            finite,
            order,
            run_starts,
        }
    }

    /// Set `ranks[row]` for every row finite both here and in `other`:
    /// its 1-based rank among those rows, ties averaged. Returns how many
    /// rows were ranked.
    fn rank_into(&self, other: &NumericSeries, ranks: &mut [f64]) -> usize {
        let mut run: Vec<u32> = Vec::new();
        let mut ranked = 0usize;
        // Give the run ending before 0-based position `end` its average
        // rank: positions i..=j hold rank (i + j) / 2 + 1.
        let mut flush = |run: &mut Vec<u32>, end: usize| {
            if !run.is_empty() {
                let avg = ((end - run.len()) + (end - 1)) as f64 / 2.0 + 1.0;
                for &row in run.iter() {
                    ranks[row as usize] = avg;
                }
                run.clear();
            }
        };
        let mut run_started = false;
        for (k, &row) in self.order.iter().enumerate() {
            run_started |= bit(&self.run_starts, k);
            if !bit(&other.finite, row as usize) {
                continue;
            }
            if run_started {
                flush(&mut run, ranked);
                run_started = false;
            }
            run.push(row);
            ranked += 1;
        }
        flush(&mut run, ranked);
        ranked
    }
}

/// A string column prepared for the Cramér's V kernel.
pub(crate) struct CategoricalSeries {
    /// Level id per row, ids ascending in string order; [`NULL_LEVEL`]
    /// for nulls.
    levels: Vec<u32>,
    n_levels: usize,
}

impl CategoricalSeries {
    fn new(column: &Column) -> CategoricalSeries {
        assert_row_ids_fit(column.len());
        // Per chunk, which dictionary entries a valid row references.
        let referenced: Vec<Vec<bool>> = column
            .chunks()
            .iter()
            .map(|chunk| match chunk.values() {
                ChunkValues::Str { dict, codes } => {
                    let mut used = vec![false; dict.len()];
                    for (i, &c) in codes.iter().enumerate() {
                        if chunk.is_valid(i) {
                            used[c as usize] = true;
                        }
                    }
                    used
                }
                _ => Vec::new(),
            })
            .collect();
        let mut names: Vec<&str> = Vec::new();
        for (chunk, used) in column.chunks().iter().zip(&referenced) {
            if let ChunkValues::Str { dict, .. } = chunk.values() {
                names.extend(
                    dict.iter()
                        .zip(used)
                        .filter(|&(_, &u)| u)
                        .map(|(s, _)| s.as_str()),
                );
            }
        }
        names.sort_unstable();
        names.dedup();
        let mut levels = Vec::with_capacity(column.len());
        for (chunk, used) in column.chunks().iter().zip(&referenced) {
            match chunk.values() {
                ChunkValues::Str { dict, codes } => {
                    let ids: Vec<u32> = dict
                        .iter()
                        .zip(used)
                        .map(|(s, &u)| {
                            if u {
                                names.partition_point(|n| *n < s.as_str()) as u32
                            } else {
                                NULL_LEVEL
                            }
                        })
                        .collect();
                    levels.extend(codes.iter().enumerate().map(|(i, &c)| {
                        if chunk.is_valid(i) {
                            ids[c as usize]
                        } else {
                            NULL_LEVEL
                        }
                    }));
                }
                _ => levels.resize(levels.len() + chunk.len(), NULL_LEVEL),
            }
        }
        CategoricalSeries {
            levels,
            n_levels: names.len(),
        }
    }
}

/// A column prepared, once per build, for every pair of one kind.
pub(crate) enum Prepared {
    Pearson(NumericSeries),
    Spearman(NumericSeries),
    CramersV(CategoricalSeries),
}

/// Prepare `column` for the pairs of `kind` it takes part in.
pub(crate) fn prepare(column: &Column, kind: CorrelationKind) -> Prepared {
    match kind {
        CorrelationKind::Pearson => Prepared::Pearson(NumericSeries::new(column, false)),
        CorrelationKind::Spearman => Prepared::Spearman(NumericSeries::new(column, true)),
        CorrelationKind::CramersV => Prepared::CramersV(CategoricalSeries::new(column)),
    }
}

/// The coefficient of one pair of prepared columns, `NaN` where it is
/// undefined (or the two were prepared for different kinds).
pub(crate) fn coefficient(a: &Prepared, b: &Prepared) -> f64 {
    match (a, b) {
        (Prepared::Pearson(x), Prepared::Pearson(y)) => pearson(x, y),
        (Prepared::Spearman(x), Prepared::Spearman(y)) => spearman(x, y),
        (Prepared::CramersV(x), Prepared::CramersV(y)) => cramers_v(x, y),
        _ => None,
    }
    .unwrap_or(f64::NAN)
}

/// Pearson correlation over the rows finite in both columns; `None` when
/// fewer than two such rows exist or either side is constant. Rows with
/// a NaN or ±Inf member are dropped like nulls, so one non-finite entry
/// cannot poison the coefficient.
fn pearson(x: &NumericSeries, y: &NumericSeries) -> Option<f64> {
    let pairs: Vec<(f64, f64)> = x
        .values
        .iter()
        .zip(&y.values)
        .filter(|(a, b)| a.is_finite() && b.is_finite())
        .map(|(&a, &b)| (a, b))
        .collect();
    pearson_complete(&pairs)
}

fn pearson_complete(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|(a, _)| a).sum::<f64>() / n;
    let my = pairs.iter().map(|(_, b)| b).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (a, b) in pairs {
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
        sxy += (a - mx) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Spearman rank correlation: Pearson over average ranks (ties share
/// their mean rank) of the rows finite in both columns. NaN is
/// unrankable and ±Inf would pin the extreme ranks, so both are dropped
/// like nulls.
fn spearman(x: &NumericSeries, y: &NumericSeries) -> Option<f64> {
    let rows = x.values.len();
    let mut rx = vec![0.0; rows];
    if x.rank_into(y, &mut rx) < 2 {
        return None;
    }
    let mut ry = vec![0.0; rows];
    y.rank_into(x, &mut ry);
    let ranked: Vec<(f64, f64)> = (0..rows)
        .filter(|&r| bit(&x.finite, r) && bit(&y.finite, r))
        .map(|r| (rx[r], ry[r]))
        .collect();
    pearson_complete(&ranked)
}

/// Cramér's V between two categorical variables (bias-corrected per
/// Bergsma 2013, as ydata-profiling uses) over the rows non-null in
/// both. `None` when either variable has a single level there or there
/// are no such rows.
fn cramers_v(x: &CategoricalSeries, y: &CategoricalSeries) -> Option<f64> {
    let complete = || {
        x.levels
            .iter()
            .zip(&y.levels)
            .filter(|&(&a, &b)| a != NULL_LEVEL && b != NULL_LEVEL)
    };
    // Dense ids, in level order, for the levels the complete rows use.
    let mut x_ids = vec![NULL_LEVEL; x.n_levels];
    let mut y_ids = vec![NULL_LEVEL; y.n_levels];
    let mut pairs = 0usize;
    for (&a, &b) in complete() {
        x_ids[a as usize] = 0;
        y_ids[b as usize] = 0;
        pairs += 1;
    }
    if pairs == 0 {
        return None;
    }
    let compact = |ids: &mut [u32]| {
        let mut next = 0;
        for id in ids.iter_mut().filter(|id| **id != NULL_LEVEL) {
            *id = next;
            next += 1;
        }
        next as usize
    };
    let r = compact(&mut x_ids);
    let k = compact(&mut y_ids);
    if r < 2 || k < 2 {
        return None;
    }
    let mut observed = vec![0u64; r * k];
    for (&a, &b) in complete() {
        observed[x_ids[a as usize] as usize * k + y_ids[b as usize] as usize] += 1;
    }
    // Integer sums are exact, as the per-cell f64 sums they replace were.
    let row_sums: Vec<f64> = observed
        .chunks(k)
        .map(|row| row.iter().sum::<u64>() as f64)
        .collect();
    let mut col_totals = vec![0u64; k];
    for row in observed.chunks(k) {
        for (t, &c) in col_totals.iter_mut().zip(row) {
            *t += c;
        }
    }
    let col_sums: Vec<f64> = col_totals.into_iter().map(|c| c as f64).collect();
    let n = pairs as f64;
    let mut chi2 = 0.0;
    for (i, row) in observed.chunks(k).enumerate() {
        for (j, &o) in row.iter().enumerate() {
            let expected = row_sums[i] * col_sums[j] / n;
            if expected > 0.0 {
                chi2 += (o as f64 - expected).powi(2) / expected;
            }
        }
    }
    // Bias correction.
    let phi2 = chi2 / n;
    let phi2_corr = (phi2 - (r as f64 - 1.0) * (k as f64 - 1.0) / (n - 1.0)).max(0.0);
    let r_corr = r as f64 - (r as f64 - 1.0).powi(2) / (n - 1.0);
    let k_corr = k as f64 - (k as f64 - 1.0).powi(2) / (n - 1.0);
    let denom = (r_corr - 1.0).min(k_corr - 1.0);
    if denom <= 0.0 {
        return None;
    }
    Some((phi2_corr / denom).sqrt().min(1.0))
}

/// A symmetric correlation matrix with column labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationMatrix {
    pub columns: Vec<String>,
    /// `values[i][j]` = correlation between `columns[i]` and `columns[j]`,
    /// `NaN` where undefined.
    pub values: Vec<Vec<f64>>,
}

impl CorrelationMatrix {
    pub fn get(&self, a: &str, b: &str) -> Option<f64> {
        let i = self.columns.iter().position(|c| c == a)?;
        let j = self.columns.iter().position(|c| c == b)?;
        let v = self.values[i][j];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// An all-NaN matrix over `columns` with ones on the diagonal.
    pub(crate) fn unit_diagonal(columns: Vec<String>) -> CorrelationMatrix {
        let n = columns.len();
        let mut values = vec![vec![f64::NAN; n]; n];
        for (i, row) in values.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        CorrelationMatrix { columns, values }
    }

    /// Store `v` at `(i, j)` and `(j, i)`.
    pub(crate) fn set_pair(&mut self, i: usize, j: usize, v: f64) {
        self.values[i][j] = v;
        self.values[j][i] = v;
    }
}

/// Which correlation to compute across a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorrelationKind {
    Pearson,
    Spearman,
    CramersV,
}

impl CorrelationKind {
    /// The columns this kind ranges over: numeric columns for
    /// Pearson/Spearman, string columns for Cramér's V.
    pub(crate) fn columns(self, table: &Table) -> Vec<&Column> {
        table
            .columns()
            .iter()
            .filter(|c| match self {
                CorrelationKind::Pearson | CorrelationKind::Spearman => c.dtype().is_numeric(),
                CorrelationKind::CramersV => c.dtype() == DataType::Str,
            })
            .collect()
    }
}

/// Compute a correlation matrix across the relevant columns of `table`:
/// numeric columns for Pearson/Spearman, string columns for Cramér's V.
/// Sequential and uncached; the profile report runs the same kernels
/// fanned out and memoised.
pub fn correlation_matrix(table: &Table, kind: CorrelationKind) -> CorrelationMatrix {
    let cols = kind.columns(table);
    let prepared: Vec<Prepared> = cols.iter().map(|c| prepare(c, kind)).collect();
    let mut m =
        CorrelationMatrix::unit_diagonal(cols.iter().map(|c| c.name().to_string()).collect());
    for i in 0..prepared.len() {
        for j in (i + 1)..prepared.len() {
            m.set_pair(i, j, coefficient(&prepared[i], &prepared[j]));
        }
    }
    m
}

/// The slice-based kernels the prepared-column kernels replaced, kept as
/// the differential-test reference.
#[cfg(test)]
mod reference {
    use super::pearson_complete;

    fn finite_pairs(x: &[Option<f64>], y: &[Option<f64>]) -> Vec<(f64, f64)> {
        x.iter()
            .zip(y)
            .filter_map(|(a, b)| Some(((*a)?, (*b)?)))
            .filter(|(a, b)| a.is_finite() && b.is_finite())
            .collect()
    }

    pub fn pearson(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
        pearson_complete(&finite_pairs(x, y))
    }

    pub fn spearman(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
        let pairs = finite_pairs(x, y);
        if pairs.len() < 2 {
            return None;
        }
        let xs: Vec<f64> = pairs.iter().map(|(a, _)| *a).collect();
        let ys: Vec<f64> = pairs.iter().map(|(_, b)| *b).collect();
        let ranked: Vec<(f64, f64)> = ranks(&xs).into_iter().zip(ranks(&ys)).collect();
        pearson_complete(&ranked)
    }

    pub fn ranks(values: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let mut out = vec![0.0; values.len()];
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
                j += 1;
            }
            let avg_rank = (i + j) as f64 / 2.0 + 1.0;
            for &idx in &order[i..=j] {
                out[idx] = avg_rank;
            }
            i = j + 1;
        }
        out
    }

    pub fn cramers_v(x: &[Option<String>], y: &[Option<String>]) -> Option<f64> {
        let pairs: Vec<(&String, &String)> = x
            .iter()
            .zip(y)
            .filter_map(|(a, b)| Some((a.as_ref()?, b.as_ref()?)))
            .collect();
        if pairs.is_empty() {
            return None;
        }
        let mut xs: Vec<&String> = pairs.iter().map(|(a, _)| *a).collect();
        xs.sort();
        xs.dedup();
        let mut ys: Vec<&String> = pairs.iter().map(|(_, b)| *b).collect();
        ys.sort();
        ys.dedup();
        let r = xs.len();
        let k = ys.len();
        if r < 2 || k < 2 {
            return None;
        }
        let n = pairs.len() as f64;
        let mut observed = vec![vec![0.0f64; k]; r];
        for (a, b) in &pairs {
            let i = xs.binary_search(a).expect("level present");
            let j = ys.binary_search(b).expect("level present");
            observed[i][j] += 1.0;
        }
        let row_sums: Vec<f64> = observed.iter().map(|row| row.iter().sum()).collect();
        let col_sums: Vec<f64> = (0..k)
            .map(|j| observed.iter().map(|row| row[j]).sum())
            .collect();
        let mut chi2 = 0.0;
        for i in 0..r {
            for j in 0..k {
                let expected = row_sums[i] * col_sums[j] / n;
                if expected > 0.0 {
                    chi2 += (observed[i][j] - expected).powi(2) / expected;
                }
            }
        }
        let phi2 = chi2 / n;
        let phi2_corr = (phi2 - (r as f64 - 1.0) * (k as f64 - 1.0) / (n - 1.0)).max(0.0);
        let r_corr = r as f64 - (r as f64 - 1.0).powi(2) / (n - 1.0);
        let k_corr = k as f64 - (k as f64 - 1.0).powi(2) / (n - 1.0);
        let denom = (r_corr - 1.0).min(k_corr - 1.0);
        if denom <= 0.0 {
            return None;
        }
        Some((phi2_corr / denom).sqrt().min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_table::{Column, Value};
    use proptest::prelude::*;

    fn opt(v: &[f64]) -> Vec<Option<f64>> {
        v.iter().map(|&x| Some(x)).collect()
    }

    fn defined(v: f64) -> Option<f64> {
        (!v.is_nan()).then_some(v)
    }

    fn numeric_pair(kind: CorrelationKind, x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
        let px = prepare(&Column::from_f64("x", x.iter().copied()), kind);
        let py = prepare(&Column::from_f64("y", y.iter().copied()), kind);
        defined(coefficient(&px, &py))
    }

    fn pearson(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
        numeric_pair(CorrelationKind::Pearson, x, y)
    }

    fn spearman(x: &[Option<f64>], y: &[Option<f64>]) -> Option<f64> {
        numeric_pair(CorrelationKind::Spearman, x, y)
    }

    fn cramers_v(x: &[Option<String>], y: &[Option<String>]) -> Option<f64> {
        let px = prepare(
            &Column::from_str_vals("x", x.iter().cloned()),
            CorrelationKind::CramersV,
        );
        let py = prepare(
            &Column::from_str_vals("y", y.iter().cloned()),
            CorrelationKind::CramersV,
        );
        defined(coefficient(&px, &py))
    }

    #[test]
    fn pearson_perfect_positive_negative() {
        let x = opt(&[1.0, 2.0, 3.0]);
        let y = opt(&[2.0, 4.0, 6.0]);
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z = opt(&[6.0, 4.0, 2.0]);
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_skips_incomplete_pairs() {
        let x = vec![Some(1.0), None, Some(3.0), Some(4.0)];
        let y = vec![Some(1.0), Some(9.0), Some(3.0), Some(4.0)];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_pairs_are_dropped_not_poisonous() {
        // Regression: one NaN (or ±Inf) member used to turn the whole
        // coefficient into NaN (reported as None by the matrix layer).
        let x = vec![Some(1.0), Some(f64::NAN), Some(3.0), Some(4.0)];
        let y = vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let inf = vec![Some(f64::INFINITY), Some(2.0), Some(3.0), Some(4.0)];
        assert!((pearson(&inf, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&inf, &y).unwrap() - 1.0).abs() < 1e-12);
        // All pairs non-finite → nothing to correlate.
        let bad = vec![Some(f64::NAN), Some(f64::NEG_INFINITY)];
        assert!(pearson(&bad, &y[..2]).is_none());
    }

    #[test]
    fn pearson_undefined_for_constant() {
        let x = opt(&[1.0, 1.0, 1.0]);
        let y = opt(&[1.0, 2.0, 3.0]);
        assert!(pearson(&x, &y).is_none());
        assert!(pearson(&opt(&[1.0]), &opt(&[2.0])).is_none());
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = opt(&[1.0, 2.0, 3.0, 4.0]);
        let y = opt(&[1.0, 8.0, 27.0, 64.0]); // x³: nonlinear but monotone
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = opt(&[1.0, 2.0, 2.0, 3.0]);
        let y = opt(&[1.0, 2.0, 2.0, 3.0]);
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties_among_the_rows_both_columns_keep() {
        let col =
            |v: &[Option<f64>]| NumericSeries::new(&Column::from_f64("c", v.iter().copied()), true);
        let x = col(&opt(&[10.0, 20.0, 20.0, 30.0, -0.0, 0.0]));
        let mut ranks = vec![0.0; 6];
        assert_eq!(x.rank_into(&x, &mut ranks), 6);
        assert_eq!(ranks, vec![3.0, 4.5, 4.5, 6.0, 1.5, 1.5]);
        // Rows the other column drops leave the ranking.
        let other = col(&[Some(1.0), None, Some(f64::NAN), Some(1.0), Some(1.0), None]);
        let mut ranks = vec![0.0; 6];
        assert_eq!(x.rank_into(&other, &mut ranks), 3);
        assert_eq!(ranks, vec![2.0, 0.0, 0.0, 3.0, 1.0, 0.0]);
    }

    #[test]
    fn cramers_v_perfect_association() {
        let x: Vec<Option<String>> = ["a", "a", "b", "b", "a", "b", "a", "b"]
            .iter()
            .map(|s| Some(s.to_string()))
            .collect();
        let y: Vec<Option<String>> = ["p", "p", "q", "q", "p", "q", "p", "q"]
            .iter()
            .map(|s| Some(s.to_string()))
            .collect();
        let v = cramers_v(&x, &y).unwrap();
        assert!(v > 0.9, "v = {v}");
    }

    #[test]
    fn cramers_v_independence_near_zero() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            x.push(Some(if i % 2 == 0 { "a" } else { "b" }.to_string()));
            y.push(Some(if (i / 2) % 2 == 0 { "p" } else { "q" }.to_string()));
        }
        let v = cramers_v(&x, &y).unwrap();
        assert!(v < 0.2, "v = {v}");
    }

    #[test]
    fn cramers_v_single_level_is_none() {
        let x = vec![Some("a".to_string()); 5];
        let y: Vec<Option<String>> = ["p", "q", "p", "q", "p"]
            .iter()
            .map(|s| Some(s.to_string()))
            .collect();
        assert!(cramers_v(&x, &y).is_none());
    }

    #[test]
    fn cramers_v_levels_ignore_stale_dictionary_entries() {
        // Overwriting the only "c" leaves it in the dictionary; it must
        // not count as a level.
        let mut x = Column::from_str_vals("x", [Some("a"), Some("b"), Some("c"), Some("a")]);
        x.set(2, Value::Str("b".into()));
        match prepare(&x, CorrelationKind::CramersV) {
            Prepared::CramersV(s) => {
                assert_eq!(s.n_levels, 2);
                assert_eq!(s.levels, vec![0, 1, 1, 0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn matrix_over_table() {
        let t = Table::new(
            "t",
            vec![
                Column::from_f64("a", [Some(1.0), Some(2.0), Some(3.0)]),
                Column::from_f64("b", [Some(2.0), Some(4.0), Some(6.0)]),
                Column::from_str_vals("s", [Some("x"), Some("y"), Some("x")]),
            ],
        )
        .unwrap();
        let m = correlation_matrix(&t, CorrelationKind::Pearson);
        assert_eq!(m.columns, vec!["a", "b"]);
        assert!((m.get("a", "b").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(m.get("a", "a"), Some(1.0));
        assert_eq!(m.get("a", "s"), None);
        let mv = correlation_matrix(&t, CorrelationKind::CramersV);
        assert_eq!(mv.columns, vec!["s"]);
    }

    /// Rows of the differential tests: debug builds stay quick, release
    /// builds run larger columns.
    const MAX_ROWS: usize = if cfg!(debug_assertions) { 80 } else { 2_000 };

    /// Deterministic draws in `0..n` from `state`.
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) % n.max(1)
    }

    /// A numeric column with nulls, NaN, ±Inf, ±0.0 and heavy ties,
    /// split into chunks of `chunk_rows` and edited through `set`.
    fn numeric_column(
        seed: u64,
        rows: usize,
        chunk_rows: usize,
        float: bool,
        edits: usize,
    ) -> Column {
        let mut state = seed;
        let cell = |state: &mut u64| -> Value {
            let u = draw(state, 100);
            let k = draw(state, 1000) as f64;
            match (u, float) {
                (0..=9, _) => Value::Null,
                (10..=29, false) => Value::Int(draw(state, 4) as i64),
                (_, false) => Value::Int(k as i64 - 500),
                (10..=14, true) => Value::Float(
                    [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                        [draw(state, 5) as usize],
                ),
                (15..=34, true) => Value::Float(draw(state, 4) as f64 * 0.5),
                (_, true) => Value::Float(k * 0.37 - 100.0),
            }
        };
        let dtype = if float {
            DataType::Float
        } else {
            DataType::Int
        };
        let values: Vec<Value> = (0..rows).map(|_| cell(&mut state)).collect();
        let mut col = Column::from_values("n", dtype, values).rechunk(chunk_rows);
        for _ in 0..edits.min(rows) {
            let row = draw(&mut state, rows as u64) as usize;
            let v = cell(&mut state);
            col.set(row, v);
        }
        col
    }

    /// A string column over `levels` values with nulls, split into chunks
    /// of `chunk_rows`; `edits` cells are overwritten through `set`
    /// (first with a fresh value, then with a pool value), which leaves
    /// stale dictionary entries behind.
    fn string_column(
        seed: u64,
        rows: usize,
        chunk_rows: usize,
        levels: u64,
        edits: usize,
    ) -> Column {
        let mut state = seed;
        let cell = |state: &mut u64| -> Value {
            if draw(state, 10) == 0 {
                Value::Null
            } else {
                Value::Str(format!("l{}", draw(state, levels)))
            }
        };
        let values: Vec<Value> = (0..rows).map(|_| cell(&mut state)).collect();
        let mut col = Column::from_values("s", DataType::Str, values).rechunk(chunk_rows);
        for e in 0..edits.min(rows) {
            let row = draw(&mut state, rows as u64) as usize;
            col.set(row, Value::Str(format!("fresh{e}")));
            let v = cell(&mut state);
            col.set(row, v);
        }
        col
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]
        /// Pearson and Spearman over prepared columns give the bits the
        /// slice-based reference gives on the same rows.
        #[test]
        fn pearson_and_spearman_match_the_reference_kernels(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk_a in 1usize..50,
            chunk_b in 1usize..50,
            floats in 0usize..4,
            edits in 0usize..6,
        ) {
            let a = numeric_column(seed, rows, chunk_a, floats & 1 == 1, edits);
            let b = numeric_column(seed ^ 0x5bd1, rows, chunk_b, floats & 2 == 2, edits);
            let xa: Vec<Option<f64>> = (0..rows).map(|r| a.get(r).as_f64()).collect();
            let xb: Vec<Option<f64>> = (0..rows).map(|r| b.get(r).as_f64()).collect();
            type Reference = fn(&[Option<f64>], &[Option<f64>]) -> Option<f64>;
            let kinds: [(CorrelationKind, Reference); 2] = [
                (CorrelationKind::Pearson, reference::pearson),
                (CorrelationKind::Spearman, reference::spearman),
            ];
            for (kind, reference) in kinds {
                let got = coefficient(&prepare(&a, kind), &prepare(&b, kind));
                let want = reference(&xa, &xb).unwrap_or(f64::NAN);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}", kind);
            }
        }

        /// Cramér's V over dictionary codes gives the bits the string-copy
        /// reference gives, with stale dictionary entries present.
        #[test]
        fn cramers_v_matches_the_reference_kernel(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk_a in 1usize..50,
            chunk_b in 1usize..50,
            levels_a in 1u64..12,
            levels_b in 1u64..40,
            edits in 0usize..6,
        ) {
            let a = string_column(seed, rows, chunk_a, levels_a, edits);
            let b = string_column(seed ^ 0x5bd1, rows, chunk_b, levels_b, edits);
            let sa: Vec<Option<String>> =
                (0..rows).map(|r| a.get(r).as_str().map(str::to_string)).collect();
            let sb: Vec<Option<String>> =
                (0..rows).map(|r| b.get(r).as_str().map(str::to_string)).collect();
            let kind = CorrelationKind::CramersV;
            let got = coefficient(&prepare(&a, kind), &prepare(&b, kind));
            let want = reference::cramers_v(&sa, &sb).unwrap_or(f64::NAN);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
