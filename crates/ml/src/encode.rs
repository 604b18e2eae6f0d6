//! Encoders: turning tables with nulls into finite feature matrices.
//!
//! Every model in this crate requires finite `f64` features. The encoders
//! here own the messy part: ordinal/one-hot encoding of categoricals
//! (missing values become their own category), mean-filling of numeric
//! nulls, and standard scaling.

use std::collections::HashMap;

use datalens_table::{ChunkValues, Column, DataType, Table};

/// Ordinal encoder for one categorical column: category → dense id.
///
/// Ids are assigned in sorted category order so encodings are independent
/// of row order. Unknown categories at transform time map to `-1.0`;
/// nulls map to the reserved id `n_categories as f64` ("missing" bucket).
#[derive(Debug, Clone, Default)]
pub struct OrdinalEncoder {
    mapping: HashMap<String, usize>,
}

impl OrdinalEncoder {
    /// Learn the category set from the (non-null) values; repeats are
    /// allowed and ignored.
    pub fn fit<'a>(values: impl IntoIterator<Item = &'a str>) -> OrdinalEncoder {
        let mapping = sorted_categories(values)
            .into_iter()
            .enumerate()
            .map(|(i, c)| (c, i))
            .collect();
        OrdinalEncoder { mapping }
    }

    pub fn n_categories(&self) -> usize {
        self.mapping.len()
    }

    /// Encode one value. Null → missing bucket, unseen → −1.
    pub fn encode(&self, value: Option<&str>) -> f64 {
        match value {
            None => self.mapping.len() as f64,
            Some(v) => self.mapping.get(v).map_or(-1.0, |&id| id as f64),
        }
    }

    /// Inverse lookup of a dense id back to its category.
    pub fn decode(&self, id: f64) -> Option<&str> {
        let id = id as usize;
        self.mapping
            .iter()
            .find(|(_, &v)| v == id)
            .map(|(k, _)| k.as_str())
    }
}

/// One-hot encoder for one categorical column.
///
/// Produces `n_categories` indicator dims; nulls and unseen categories
/// encode as the all-zero vector.
#[derive(Debug, Clone, Default)]
pub struct OneHotEncoder {
    categories: Vec<String>,
    index: HashMap<String, usize>,
}

impl OneHotEncoder {
    /// Learn the category set from the (non-null) values; repeats are
    /// allowed and ignored.
    pub fn fit<'a>(values: impl IntoIterator<Item = &'a str>) -> OneHotEncoder {
        let cats = sorted_categories(values);
        let index = cats
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        OneHotEncoder {
            categories: cats,
            index,
        }
    }

    pub fn width(&self) -> usize {
        self.categories.len()
    }

    pub fn encode(&self, value: Option<&str>) -> Vec<f64> {
        let mut out = vec![0.0; self.categories.len()];
        if let Some(v) = value {
            if let Some(&i) = self.index.get(v) {
                out[i] = 1.0;
            }
        }
        out
    }

    pub fn categories(&self) -> &[String] {
        &self.categories
    }
}

/// The distinct values, sorted (the encoders' id order).
fn sorted_categories<'a>(values: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let mut cats: Vec<&str> = values.into_iter().collect();
    cats.sort_unstable();
    cats.dedup();
    cats.into_iter().map(str::to_string).collect()
}

/// Standard scaler: per-dim zero mean, unit variance (constant dims are
/// left centred but unscaled).
#[derive(Debug, Clone, Default)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    pub fn fit(data: &[Vec<f64>]) -> StandardScaler {
        assert!(!data.is_empty(), "cannot fit scaler on empty data");
        let width = data[0].len();
        let n = data.len() as f64;
        let mut means = vec![0.0; width];
        for row in data {
            for (d, v) in row.iter().enumerate() {
                means[d] += v;
            }
        }
        means.iter_mut().for_each(|m| *m /= n);
        let mut stds = vec![0.0; width];
        for row in data {
            for (d, v) in row.iter().enumerate() {
                stds[d] += (v - means[d]) * (v - means[d]);
            }
        }
        stds.iter_mut().for_each(|s| *s = (*s / n).sqrt());
        StandardScaler { means, stds }
    }

    pub fn transform(&self, data: &[Vec<f64>]) -> Vec<Vec<f64>> {
        data.iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(d, v)| {
                        if self.stds[d] > 0.0 {
                            (v - self.means[d]) / self.stds[d]
                        } else {
                            v - self.means[d]
                        }
                    })
                    .collect()
            })
            .collect()
    }

    pub fn fit_transform(data: &[Vec<f64>]) -> (StandardScaler, Vec<Vec<f64>>) {
        let s = StandardScaler::fit(data);
        let t = s.transform(data);
        (s, t)
    }
}

/// How a [`TableEncoder`] treats categorical columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CategoricalEncoding {
    Ordinal,
    OneHot,
}

/// Fitted per-column encoding state for a whole table.
#[derive(Debug, Clone)]
enum ColumnEncoding {
    /// Numeric column: nulls fill with the fitted mean.
    Numeric {
        fill: f64,
    },
    Ordinal(OrdinalEncoder),
    OneHot(OneHotEncoder),
}

/// Encodes a [`Table`] (minus excluded columns) into a finite feature
/// matrix: numeric columns mean-fill nulls, categoricals encode per the
/// chosen strategy with missing as its own signal.
#[derive(Debug, Clone)]
pub struct TableEncoder {
    encodings: Vec<(usize, ColumnEncoding)>,
}

impl TableEncoder {
    /// Fit on `table`, skipping the columns named in `exclude` (typically
    /// the target column).
    pub fn fit(table: &Table, exclude: &[&str], strategy: CategoricalEncoding) -> TableEncoder {
        let mut encodings = Vec::new();
        for (idx, col) in table.columns().iter().enumerate() {
            if exclude.contains(&col.name()) {
                continue;
            }
            let enc = match col.dtype() {
                DataType::Int | DataType::Float | DataType::Bool => {
                    let vals = col.numeric_values();
                    let fill = if vals.is_empty() {
                        0.0
                    } else {
                        vals.iter().sum::<f64>() / vals.len() as f64
                    };
                    ColumnEncoding::Numeric { fill }
                }
                DataType::Str => {
                    // Each chunk's referenced dictionary entries (stale
                    // ones count zero rows).
                    let chunks = col.chunks().iter();
                    let values = chunks
                        .flat_map(|c| c.dict_tallies().filter(|&(_, n)| n > 0))
                        .map(|(s, _)| s);
                    match strategy {
                        CategoricalEncoding::Ordinal => {
                            ColumnEncoding::Ordinal(OrdinalEncoder::fit(values))
                        }
                        CategoricalEncoding::OneHot => {
                            ColumnEncoding::OneHot(OneHotEncoder::fit(values))
                        }
                    }
                }
            };
            encodings.push((idx, enc));
        }
        TableEncoder { encodings }
    }

    /// Encode all rows of `table` (same schema as the fitted table).
    pub fn transform(&self, table: &Table) -> Vec<Vec<f64>> {
        (0..table.n_rows())
            .map(|r| self.encode_row(table, r))
            .collect()
    }

    /// Encode a single row.
    pub fn encode_row(&self, table: &Table, row: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for (idx, enc) in &self.encodings {
            let col = table.column(*idx).expect("fitted column exists");
            match enc {
                ColumnEncoding::Numeric { fill } => {
                    out.push(col.get(row).as_f64().unwrap_or(*fill));
                }
                ColumnEncoding::Ordinal(e) => {
                    let v = col.get(row);
                    out.push(e.encode(v.as_str()));
                }
                ColumnEncoding::OneHot(e) => {
                    let v = col.get(row);
                    out.extend(e.encode(v.as_str()));
                }
            }
        }
        out
    }

    /// Total encoded width.
    pub fn width(&self) -> usize {
        self.encodings
            .iter()
            .map(|(_, e)| match e {
                ColumnEncoding::Numeric { .. } | ColumnEncoding::Ordinal(_) => 1,
                ColumnEncoding::OneHot(e) => e.width(),
            })
            .sum()
    }
}

/// Extract a regression target: non-null numeric rows of `column`.
/// Returns `(row_indices, targets)`.
pub fn regression_target(column: &Column) -> (Vec<usize>, Vec<f64>) {
    column.numeric_rows().unzip()
}

/// Extract a classification target: non-null rows of `column`, labels as
/// rendered strings. Returns `(row_indices, labels)`.
pub fn classification_target(column: &Column) -> (Vec<usize>, Vec<String>) {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut base = 0;
    for chunk in column.chunks() {
        for i in chunk.valid_rows() {
            rows.push(base + i);
            labels.push(match chunk.values() {
                ChunkValues::Str { dict, codes } => dict[codes[i] as usize].clone(),
                _ => chunk.value(i).render(),
            });
        }
        base += chunk.len();
    }
    (rows, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_table::Value;
    use proptest::prelude::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::from_f64("num", [Some(1.0), None, Some(3.0)]),
                Column::from_str_vals("cat", [Some("x"), Some("y"), None]),
                Column::from_i64("target", [Some(10), Some(20), Some(30)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ordinal_encoder_sorted_stable() {
        let e = OrdinalEncoder::fit(["b", "a", "b"]);
        assert_eq!(e.n_categories(), 2);
        assert_eq!(e.encode(Some("a")), 0.0);
        assert_eq!(e.encode(Some("b")), 1.0);
        assert_eq!(e.encode(None), 2.0); // missing bucket
        assert_eq!(e.encode(Some("zz")), -1.0); // unseen
        assert_eq!(e.decode(1.0), Some("b"));
    }

    #[test]
    fn onehot_encoder_width_and_zero_vector() {
        let e = OneHotEncoder::fit(["p", "q"]);
        assert_eq!(e.width(), 2);
        assert_eq!(e.encode(Some("q")), vec![0.0, 1.0]);
        assert_eq!(e.encode(None), vec![0.0, 0.0]);
        assert_eq!(e.encode(Some("zz")), vec![0.0, 0.0]);
    }

    #[test]
    fn scaler_zero_mean_unit_variance() {
        let data = vec![vec![1.0, 5.0], vec![3.0, 5.0]];
        let (_, t) = StandardScaler::fit_transform(&data);
        assert!((t[0][0] + 1.0).abs() < 1e-12);
        assert!((t[1][0] - 1.0).abs() < 1e-12);
        // Constant dim: centred, not scaled.
        assert_eq!(t[0][1], 0.0);
        assert_eq!(t[1][1], 0.0);
    }

    #[test]
    fn table_encoder_fills_and_excludes() {
        let t = table();
        let enc = TableEncoder::fit(&t, &["target"], CategoricalEncoding::Ordinal);
        let m = enc.transform(&t);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].len(), 2);
        assert_eq!(enc.width(), 2);
        // Null numeric filled with mean of (1, 3) = 2.
        assert_eq!(m[1][0], 2.0);
        // Null categorical gets the missing bucket id (= 2 categories).
        assert_eq!(m[2][1], 2.0);
        // All finite.
        assert!(m.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn table_encoder_onehot_widens() {
        let t = table();
        let enc = TableEncoder::fit(&t, &["target"], CategoricalEncoding::OneHot);
        assert_eq!(enc.width(), 3); // 1 numeric + 2 one-hot dims
        let m = enc.transform(&t);
        assert_eq!(m[0], vec![1.0, 1.0, 0.0]);
        assert_eq!(m[2], vec![3.0, 0.0, 0.0]);
    }

    #[test]
    fn target_extractors_skip_nulls() {
        let c = Column::from_f64("y", [Some(1.0), None, Some(2.0)]);
        let (rows, vals) = regression_target(&c);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(vals, vec![1.0, 2.0]);
        let c = Column::from_str_vals("y", [Some("a"), None, Some("b")]);
        let (rows, labels) = classification_target(&c);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(labels, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn classification_target_renders_numerics() {
        let c = Column::from_i64("y", [Some(1), Some(2)]);
        let (_, labels) = classification_target(&c);
        assert_eq!(labels, vec!["1".to_string(), "2".to_string()]);
    }

    /// The kernels the chunk-buffer readers replaced: one `Value` (and
    /// `String`) per row.
    mod reference {
        use super::*;

        fn rows(column: &Column) -> impl Iterator<Item = (usize, Value)> + '_ {
            (0..column.len()).map(|r| (r, column.get(r)))
        }

        fn sorted(values: &[Option<String>]) -> Vec<String> {
            let mut cats: Vec<String> = values.iter().flatten().cloned().collect();
            cats.sort();
            cats.dedup();
            cats
        }

        pub fn table_encoder_fit(
            table: &Table,
            exclude: &[&str],
            strategy: CategoricalEncoding,
        ) -> TableEncoder {
            let mut encodings = Vec::new();
            for (idx, col) in table.columns().iter().enumerate() {
                if exclude.contains(&col.name()) {
                    continue;
                }
                let enc = match col.dtype() {
                    DataType::Int | DataType::Float | DataType::Bool => {
                        let vals: Vec<f64> = rows(col).filter_map(|(_, v)| v.as_f64()).collect();
                        let fill = if vals.is_empty() {
                            0.0
                        } else {
                            vals.iter().sum::<f64>() / vals.len() as f64
                        };
                        ColumnEncoding::Numeric { fill }
                    }
                    DataType::Str => {
                        let rendered: Vec<Option<String>> = rows(col)
                            .map(|(_, v)| v.as_str().map(str::to_string))
                            .collect();
                        let cats = sorted(&rendered);
                        match strategy {
                            CategoricalEncoding::Ordinal => {
                                ColumnEncoding::Ordinal(OrdinalEncoder {
                                    mapping: cats
                                        .into_iter()
                                        .enumerate()
                                        .map(|(i, c)| (c, i))
                                        .collect(),
                                })
                            }
                            CategoricalEncoding::OneHot => ColumnEncoding::OneHot(OneHotEncoder {
                                index: cats
                                    .iter()
                                    .enumerate()
                                    .map(|(i, c)| (c.clone(), i))
                                    .collect(),
                                categories: cats,
                            }),
                        }
                    }
                };
                encodings.push((idx, enc));
            }
            TableEncoder { encodings }
        }

        pub fn regression_target(column: &Column) -> (Vec<usize>, Vec<f64>) {
            rows(column)
                .filter_map(|(r, v)| v.as_f64().map(|x| (r, x)))
                .unzip()
        }

        pub fn classification_target(column: &Column) -> (Vec<usize>, Vec<String>) {
            rows(column)
                .filter(|(_, v)| !v.is_null())
                .map(|(r, v)| (r, v.render()))
                .unzip()
        }
    }

    /// Field-by-field equality, fills compared bit for bit.
    fn same_encoder(a: &TableEncoder, b: &TableEncoder) -> bool {
        a.encodings.len() == b.encodings.len()
            && a.encodings
                .iter()
                .zip(&b.encodings)
                .all(|((ia, ea), (ib, eb))| {
                    ia == ib
                        && match (ea, eb) {
                            (
                                ColumnEncoding::Numeric { fill: x },
                                ColumnEncoding::Numeric { fill: y },
                            ) => x.to_bits() == y.to_bits(),
                            (ColumnEncoding::Ordinal(x), ColumnEncoding::Ordinal(y)) => {
                                x.mapping == y.mapping
                            }
                            (ColumnEncoding::OneHot(x), ColumnEncoding::OneHot(y)) => {
                                x.categories == y.categories && x.index == y.index
                            }
                            _ => false,
                        }
                })
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

    /// A column of `dtype` with nulls, NaN, ±inf, ±0.0, ties and (for
    /// strings) `levels` categories, split into chunks of `chunk_rows`.
    /// `edits` cells are overwritten through `set`, first with a fresh
    /// value, which leaves stale dictionary entries behind.
    fn column(
        name: &str,
        dtype: DataType,
        seed: u64,
        rows: usize,
        chunk_rows: usize,
        levels: u64,
        edits: usize,
    ) -> Column {
        let mut state = seed;
        let cell = |state: &mut u64| -> Value {
            let k = draw(state, levels);
            match draw(state, 20) {
                0..=1 => Value::Null,
                2 => Value::Float(
                    [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                        [draw(state, 5) as usize],
                ),
                3..=9 => Value::Int(k as i64 - 2),
                10..=11 => Value::Bool(k.is_multiple_of(2)),
                _ => Value::Str(format!("c{k}")),
            }
        };
        let values: Vec<Value> = (0..rows).map(|_| cell(&mut state)).collect();
        let mut col = Column::from_values(name, dtype, values).rechunk(chunk_rows);
        for e in 0..edits.min(rows) {
            let row = draw(&mut state, rows as u64) as usize;
            col.set(row, Value::Str(format!("fresh{e}")));
            let v = cell(&mut state);
            col.set(row, v);
        }
        col
    }

    const DTYPES: [DataType; 4] = [
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Str,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]
        /// `TableEncoder::fit` over chunk dictionaries learns the same
        /// fills and sorted category ids as the per-row reference.
        #[test]
        fn table_encoder_fit_matches_the_reference_kernel(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..50,
            levels in 1u64..30,
            edits in 0usize..6,
            onehot in any::<bool>(),
        ) {
            let columns = DTYPES
                .iter()
                .enumerate()
                .map(|(i, &dtype)| {
                    let name = format!("c{i}");
                    column(&name, dtype, seed ^ i as u64, rows, chunk, levels, edits)
                })
                .collect();
            let t = Table::new("t", columns).unwrap();
            let strategy = if onehot {
                CategoricalEncoding::OneHot
            } else {
                CategoricalEncoding::Ordinal
            };
            let got = TableEncoder::fit(&t, &["c1"], strategy);
            prop_assert!(same_encoder(&got, &reference::table_encoder_fit(&t, &["c1"], strategy)));
        }

        /// The target extractors return the reference's rows, values and
        /// labels, bit for bit.
        #[test]
        fn target_extractors_match_the_reference_kernels(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..50,
            levels in 1u64..30,
            edits in 0usize..6,
            dtype in 0usize..4,
        ) {
            let col = column("y", DTYPES[dtype], seed, rows, chunk, levels, edits);
            let (rows_got, vals_got) = regression_target(&col);
            let (rows_want, vals_want) = reference::regression_target(&col);
            prop_assert_eq!(rows_got, rows_want);
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(bits(vals_got), bits(vals_want));
            prop_assert_eq!(classification_target(&col), reference::classification_target(&col));
        }
    }
}
