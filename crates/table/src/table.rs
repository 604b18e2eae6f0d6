//! The [`Table`]: an ordered collection of equal-length [`Column`]s.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::chunk::{ChunkValues, RawRef};
use crate::column::Column;
use crate::error::TableError;
use crate::schema::{Field, Schema};
use crate::value::{canonical_float_bits, Value};

/// Address of a single cell: `(row, column index)`.
///
/// Every error-detection tool in the workspace reports its findings as a set
/// of `CellRef`s, which is what makes cross-tool consolidation possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellRef {
    pub row: usize,
    pub col: usize,
}

impl CellRef {
    pub fn new(row: usize, col: usize) -> CellRef {
        CellRef { row, col }
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// An in-memory columnar table with a named, typed schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Build a table from columns; all columns must share one length and
    /// have unique names.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Table, TableError> {
        let rows = columns.first().map_or(0, Column::len);
        for c in &columns {
            if c.len() != rows {
                return Err(TableError::LengthMismatch {
                    expected: rows,
                    got: c.len(),
                });
            }
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|d| d.name() == c.name()) {
                return Err(TableError::DuplicateColumn(c.name().to_string()));
            }
        }
        Ok(Table {
            name: name.into(),
            columns,
            rows,
        })
    }

    /// An empty table with the given schema (zero rows).
    pub fn empty(name: impl Into<String>, schema: &Schema) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.name.clone(), f.dtype))
            .collect();
        Table {
            name: name.into(),
            columns,
            rows: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// `(rows, columns)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.columns.len())
    }

    pub fn n_rows(&self) -> usize {
        self.rows
    }

    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The table's schema, derived from its columns.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name(), c.dtype()))
                .collect(),
        )
        .expect("columns have unique names by construction")
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Total number of row-group chunks across all columns.
    pub fn chunk_count(&self) -> usize {
        self.columns.iter().map(|c| c.chunks().len()).sum()
    }

    /// Heap bytes resident across all columns' chunk buffers.
    pub fn resident_bytes(&self) -> usize {
        self.columns.iter().map(Column::resident_bytes).sum()
    }

    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name() == name)
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// Cell value at `cell`, with bounds checking.
    pub fn get(&self, cell: CellRef) -> Result<Value, TableError> {
        if cell.row >= self.rows {
            return Err(TableError::RowOutOfBounds {
                row: cell.row,
                rows: self.rows,
            });
        }
        let col = self
            .columns
            .get(cell.col)
            .ok_or_else(|| TableError::UnknownColumn(format!("#{}", cell.col)))?;
        Ok(col.get(cell.row))
    }

    /// Cell value addressed by `(row, column name)`.
    pub fn get_at(&self, row: usize, column: &str) -> Result<Value, TableError> {
        let col = self
            .column_index(column)
            .ok_or_else(|| TableError::UnknownColumn(column.to_string()))?;
        self.get(CellRef::new(row, col))
    }

    /// Overwrite a cell, coercing to the column's type.
    pub fn set(&mut self, cell: CellRef, value: Value) -> Result<(), TableError> {
        if cell.row >= self.rows {
            return Err(TableError::RowOutOfBounds {
                row: cell.row,
                rows: self.rows,
            });
        }
        let col = self
            .columns
            .get_mut(cell.col)
            .ok_or_else(|| TableError::UnknownColumn(format!("#{}", cell.col)))?;
        col.set(cell.row, value);
        Ok(())
    }

    /// Materialise row `row` as a `Vec<Value>`.
    pub fn row(&self, row: usize) -> Result<Vec<Value>, TableError> {
        if row >= self.rows {
            return Err(TableError::RowOutOfBounds {
                row,
                rows: self.rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.get(row)).collect())
    }

    /// Append a row of values (one per column, coerced per column type).
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<(), TableError> {
        if values.len() != self.columns.len() {
            return Err(TableError::LengthMismatch {
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Iterator over all row indices.
    pub fn row_indices(&self) -> std::ops::Range<usize> {
        0..self.rows
    }

    /// Iterator over every cell reference in row-major order.
    pub fn cell_refs(&self) -> impl Iterator<Item = CellRef> + '_ {
        let cols = self.columns.len();
        (0..self.rows).flat_map(move |r| (0..cols).map(move |c| CellRef::new(r, c)))
    }

    /// New table containing only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table, TableError> {
        let mut cols = Vec::with_capacity(names.len());
        for name in names {
            let c = self
                .column_by_name(name)
                .ok_or_else(|| TableError::UnknownColumn((*name).to_string()))?;
            cols.push(c.clone());
        }
        Table::new(self.name.clone(), cols)
    }

    /// New table dropping the named columns.
    pub fn drop_columns(&self, names: &[&str]) -> Result<Table, TableError> {
        for n in names {
            if self.column_index(n).is_none() {
                return Err(TableError::UnknownColumn((*n).to_string()));
            }
        }
        let cols = self
            .columns
            .iter()
            .filter(|c| !names.contains(&c.name()))
            .cloned()
            .collect();
        Table::new(self.name.clone(), cols)
    }

    /// New table with `column` appended.
    pub fn with_column(&self, column: Column) -> Result<Table, TableError> {
        if !self.columns.is_empty() && column.len() != self.rows {
            return Err(TableError::LengthMismatch {
                expected: self.rows,
                got: column.len(),
            });
        }
        let mut cols = self.columns.clone();
        cols.push(column);
        Table::new(self.name.clone(), cols)
    }

    /// New table containing the rows at `indices`, in that order
    /// (duplicates allowed). Out-of-range indices error.
    pub fn take(&self, indices: &[usize]) -> Result<Table, TableError> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.rows) {
            return Err(TableError::RowOutOfBounds {
                row: bad,
                rows: self.rows,
            });
        }
        let cols = self.columns.iter().map(|c| c.take(indices)).collect();
        Table::new(self.name.clone(), cols)
    }

    /// New table keeping rows where `pred(row_index)` holds.
    pub fn filter_rows(&self, mut pred: impl FnMut(usize) -> bool) -> Table {
        let idx: Vec<usize> = (0..self.rows).filter(|&i| pred(i)).collect();
        self.take(&idx).expect("filtered indices are in range")
    }

    /// First `n` rows (or all, if fewer).
    pub fn head(&self, n: usize) -> Table {
        let idx: Vec<usize> = (0..self.rows.min(n)).collect();
        self.take(&idx).expect("head indices are in range")
    }

    /// Total number of null cells in the table.
    pub fn null_count(&self) -> usize {
        self.columns.iter().map(Column::null_count).sum()
    }

    /// Indices of rows that are exact duplicates of an earlier row, in
    /// ascending order.
    ///
    /// Each row is hashed column by column straight from the chunk
    /// buffers (a string chunk hashes each dictionary entry once, then
    /// reads codes), so no row is materialised. Rows are grouped by
    /// hash, and a hash match counts only once the cells compare equal
    /// under [`Value`]'s equality: `NaN == NaN`, `-0.0 == 0.0`,
    /// `Null == Null`. Colliding rows that differ are kept as further
    /// representatives of their hash.
    pub fn duplicate_rows(&self) -> Vec<usize> {
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;
        let hashes = self.row_hashes();
        let mut first: HashMap<u64, usize> = HashMap::with_capacity(self.rows);
        let mut collided: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut dups = Vec::new();
        for (r, &h) in hashes.iter().enumerate() {
            match first.entry(h) {
                Entry::Vacant(e) => {
                    e.insert(r);
                }
                Entry::Occupied(e) => {
                    if self.rows_equal(*e.get(), r) {
                        dups.push(r);
                        continue;
                    }
                    let others = collided.entry(h).or_default();
                    if others.iter().any(|&o| self.rows_equal(o, r)) {
                        dups.push(r);
                    } else {
                        others.push(r);
                    }
                }
            }
        }
        dups
    }

    /// One hash per row, folded column by column from the typed chunk
    /// buffers. Equal rows (under [`Value`]'s equality) hash alike.
    fn row_hashes(&self) -> Vec<u64> {
        let mut hashes = vec![0u64; self.rows];
        for col in &self.columns {
            let mut base = 0;
            for chunk in col.chunks() {
                let out = &mut hashes[base..base + chunk.len()];
                base += chunk.len();
                let cell = |i: usize, h: u64| if chunk.is_valid(i) { h } else { NULL_CELL };
                match chunk.values() {
                    ChunkValues::Int(v) => {
                        for (i, (h, x)) in out.iter_mut().zip(v).enumerate() {
                            *h = fold_cell(*h, cell(i, *x as u64));
                        }
                    }
                    ChunkValues::Float(v) => {
                        for (i, (h, x)) in out.iter_mut().zip(v).enumerate() {
                            *h = fold_cell(*h, cell(i, canonical_float_bits(*x)));
                        }
                    }
                    ChunkValues::Bool(v) => {
                        for (i, (h, x)) in out.iter_mut().zip(v).enumerate() {
                            *h = fold_cell(*h, cell(i, u64::from(*x)));
                        }
                    }
                    ChunkValues::Str { dict, codes } => {
                        let entry_hashes: Vec<u64> = dict.iter().map(|s| hash_str(s)).collect();
                        for (i, (h, &c)) in out.iter_mut().zip(codes).enumerate() {
                            // Null slots hold code 0, which an empty
                            // dictionary does not have: test validity first.
                            let x = if chunk.is_valid(i) {
                                entry_hashes[c as usize]
                            } else {
                                NULL_CELL
                            };
                            *h = fold_cell(*h, x);
                        }
                    }
                }
            }
        }
        hashes
    }

    /// Whether rows `a` and `b` hold equal cells in every column.
    fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.columns
            .iter()
            .all(|c| same_cell(c.raw_at(a), c.raw_at(b)))
    }

    /// The map-of-owned-rows kernel [`Table::duplicate_rows`] replaced,
    /// kept as the differential-test reference.
    #[cfg(test)]
    fn duplicate_rows_reference(&self) -> Vec<usize> {
        use std::collections::HashMap;
        let mut seen: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut dups = Vec::new();
        for r in 0..self.rows {
            let row = self.row(r).expect("in range");
            if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(row) {
                e.insert(r);
            } else {
                dups.push(r);
            }
        }
        dups
    }

    /// New table with exact duplicate rows removed (first occurrence
    /// kept) — the "removing duplicates" cleaning step of the paper's
    /// introduction.
    pub fn drop_duplicates(&self) -> Table {
        let dups: std::collections::HashSet<usize> = self.duplicate_rows().into_iter().collect();
        self.filter_rows(|r| !dups.contains(&r))
    }

    /// Replace a column wholesale (matched by name).
    pub fn replace_column(&mut self, column: Column) -> Result<(), TableError> {
        if column.len() != self.rows {
            return Err(TableError::LengthMismatch {
                expected: self.rows,
                got: column.len(),
            });
        }
        let idx = self
            .column_index(column.name())
            .ok_or_else(|| TableError::UnknownColumn(column.name().to_string()))?;
        self.columns[idx] = column;
        Ok(())
    }

    /// Cells where the two tables disagree. Tables must have identical
    /// shape; used to compute ground-truth error masks (dirty vs. clean).
    pub fn diff_cells(&self, other: &Table) -> Result<Vec<CellRef>, TableError> {
        if self.shape() != other.shape() {
            return Err(TableError::LengthMismatch {
                expected: self.rows,
                got: other.rows,
            });
        }
        let mut out = Vec::new();
        for cell in self.cell_refs() {
            if self.get(cell)? != other.get(cell)? {
                out.push(cell);
            }
        }
        Ok(out)
    }
}

/// Hash of a null cell in [`Table::row_hashes`]; a value hashing alike
/// is told apart by the cell comparison.
const NULL_CELL: u64 = 0x6e75_6c6c_6e75_6c6c;

/// Fold one cell's hash into a running row hash.
#[inline]
fn fold_cell(row: u64, cell: u64) -> u64 {
    (row.rotate_left(26) ^ cell).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn hash_str(s: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Cell equality with [`Value`]'s semantics (`NaN == NaN`, `-0.0 ==
/// 0.0`) for two cells of one column.
fn same_cell(a: RawRef<'_>, b: RawRef<'_>) -> bool {
    match (a, b) {
        (RawRef::Float(x), RawRef::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

impl fmt::Display for Table {
    /// Render the first rows as an aligned text grid, like `DataFrame.head()`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_ROWS: usize = 10;
        let names: Vec<String> = self.columns.iter().map(|c| c.name().to_string()).collect();
        let shown = self.rows.min(MAX_ROWS);
        let mut grid: Vec<Vec<String>> = vec![names];
        for r in 0..shown {
            grid.push(self.columns.iter().map(|c| c.get(r).to_string()).collect());
        }
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                grid.iter()
                    .map(|row| row[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for (i, row) in grid.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}", w = w))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
            if i == 0 {
                writeln!(
                    f,
                    "{}",
                    "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
                )?;
            }
        }
        if self.rows > shown {
            writeln!(f, "... {} more rows", self.rows - shown)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample() -> Table {
        Table::new(
            "t",
            vec![
                Column::from_i64("id", [Some(1), Some(2), Some(3)]),
                Column::from_str_vals("city", [Some("ulm"), None, Some("bonn")]),
                Column::from_f64("pop", [Some(120.0), Some(330.0), Some(310.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_names() {
        let err = Table::new(
            "t",
            vec![
                Column::from_i64("a", [Some(1)]),
                Column::from_i64("b", [Some(1), Some(2)]),
            ],
        );
        assert!(matches!(err, Err(TableError::LengthMismatch { .. })));
        let err = Table::new(
            "t",
            vec![
                Column::from_i64("a", [Some(1)]),
                Column::from_i64("a", [Some(2)]),
            ],
        );
        assert!(matches!(err, Err(TableError::DuplicateColumn(_))));
    }

    #[test]
    fn get_set_roundtrip_and_bounds() {
        let mut t = sample();
        let cell = CellRef::new(1, 1);
        assert!(t.get(cell).unwrap().is_null());
        t.set(cell, Value::Str("mainz".into())).unwrap();
        assert_eq!(t.get(cell).unwrap(), Value::Str("mainz".into()));
        assert!(t.get(CellRef::new(99, 0)).is_err());
        assert!(t.set(CellRef::new(0, 99), Value::Null).is_err());
        assert_eq!(t.get_at(0, "pop").unwrap(), Value::Float(120.0));
        assert!(t.get_at(0, "zzz").is_err());
    }

    #[test]
    fn push_row_grows_table() {
        let mut t = sample();
        t.push_row(vec![
            Value::Int(4),
            Value::Str("kiel".into()),
            Value::Float(250.0),
        ])
        .unwrap();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.get_at(3, "city").unwrap(), Value::Str("kiel".into()));
        assert!(t.push_row(vec![Value::Int(4)]).is_err());
    }

    #[test]
    fn select_drop_with_column() {
        let t = sample();
        let s = t.select(&["pop", "id"]).unwrap();
        assert_eq!(s.column_names(), vec!["pop", "id"]);
        let d = t.drop_columns(&["city"]).unwrap();
        assert_eq!(d.n_cols(), 2);
        assert!(t.select(&["nope"]).is_err());
        let w = t
            .with_column(Column::from_bool("ok", [Some(true), Some(false), None]))
            .unwrap();
        assert_eq!(w.n_cols(), 4);
        assert!(t
            .with_column(Column::from_bool("short", [Some(true)]))
            .is_err());
    }

    #[test]
    fn take_filter_head() {
        let t = sample();
        let r = t.take(&[2, 0]).unwrap();
        assert_eq!(r.get_at(0, "id").unwrap(), Value::Int(3));
        assert_eq!(r.get_at(1, "id").unwrap(), Value::Int(1));
        assert!(t.take(&[5]).is_err());
        let f = t.filter_rows(|i| i != 1);
        assert_eq!(f.n_rows(), 2);
        assert_eq!(t.head(2).n_rows(), 2);
        assert_eq!(t.head(99).n_rows(), 3);
    }

    #[test]
    fn schema_reflects_columns() {
        let t = sample();
        let s = t.schema();
        assert_eq!(s.names(), vec!["id", "city", "pop"]);
        assert_eq!(s.field_by_name("pop").unwrap().dtype, DataType::Float);
    }

    #[test]
    fn duplicate_rows_detects_repeats() {
        let mut t = sample();
        t.push_row(vec![
            Value::Int(1),
            Value::Str("ulm".into()),
            Value::Float(120.0),
        ])
        .unwrap();
        assert_eq!(t.duplicate_rows(), vec![3]);
    }

    #[test]
    fn duplicate_rows_follow_value_equality() {
        let t = Table::new(
            "z",
            vec![
                Column::from_f64(
                    "f",
                    [Some(0.0), Some(-0.0), Some(f64::NAN), Some(-f64::NAN), None],
                ),
                Column::from_str_vals("s", [Some("a"), Some("a"), None, None, None]),
            ],
        )
        .unwrap();
        assert_eq!(t.duplicate_rows(), vec![1, 3]);
        assert_eq!(t.duplicate_rows(), t.duplicate_rows_reference());
    }

    /// Rows of the differential test: debug builds stay quick, release
    /// builds run larger tables.
    const MAX_ROWS: usize = if cfg!(debug_assertions) { 40 } else { 400 };

    /// A table whose cells come from small pools, so duplicate rows are
    /// common. The pools cover nulls, NaN, ±Inf and ±0.0. Each column is
    /// split into chunks of its own size, then `edits` random cells are
    /// overwritten through `set`, which leaves stale string dictionary
    /// entries behind.
    fn pooled_table(seed: u64, rows: usize, cols: usize, chunk_rows: usize, edits: usize) -> Table {
        let mut state = seed;
        let mut next = move |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let dtypes = [
            DataType::Int,
            DataType::Float,
            DataType::Bool,
            DataType::Str,
        ];
        let cell = |dtype: DataType, next: &mut dyn FnMut(usize) -> usize| {
            if next(5) == 0 {
                return Value::Null;
            }
            match dtype {
                DataType::Int => Value::Int([0, 1, -1, 7, i64::MIN][next(5)]),
                DataType::Float => Value::Float(
                    [
                        0.0,
                        -0.0,
                        1.5,
                        f64::NAN,
                        -f64::NAN,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                    ][next(7)],
                ),
                DataType::Bool => Value::Bool(next(2) == 0),
                DataType::Str => Value::Str(["a", "b", "", "ab"][next(4)].to_string()),
            }
        };
        let col_types: Vec<DataType> = (0..cols).map(|_| dtypes[next(4)]).collect();
        let columns = col_types
            .iter()
            .enumerate()
            .map(|(c, &dtype)| {
                let values: Vec<Value> = (0..rows).map(|_| cell(dtype, &mut next)).collect();
                Column::from_values(format!("c{c}"), dtype, values).rechunk(chunk_rows + c)
            })
            .collect();
        let mut t = Table::new("pooled", columns).unwrap();
        if rows > 0 {
            for _ in 0..edits {
                let (r, c) = (next(rows), next(cols));
                let v = cell(col_types[c], &mut next);
                t.set(CellRef::new(r, c), v).unwrap();
            }
        }
        t
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 512 }
        ))]
        #[test]
        fn duplicate_rows_match_the_reference_kernel(
            seed in proptest::prelude::any::<u64>(),
            rows in 0usize..MAX_ROWS,
            cols in 1usize..5,
            chunk_rows in 1usize..9,
            edits in 0usize..8,
        ) {
            let t = pooled_table(seed, rows, cols, chunk_rows, edits);
            proptest::prop_assert_eq!(t.duplicate_rows(), t.duplicate_rows_reference());
        }
    }

    #[test]
    fn drop_duplicates_keeps_first() {
        let mut t = sample();
        t.push_row(vec![
            Value::Int(1),
            Value::Str("ulm".into()),
            Value::Float(120.0),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Int(1),
            Value::Str("ulm".into()),
            Value::Float(120.0),
        ])
        .unwrap();
        let d = t.drop_duplicates();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.get_at(0, "id").unwrap(), Value::Int(1));
        // Idempotent.
        assert_eq!(d.drop_duplicates(), d);
    }

    #[test]
    fn diff_cells_masks_changes() {
        let a = sample();
        let mut b = sample();
        b.set(CellRef::new(0, 2), Value::Float(999.0)).unwrap();
        b.set(CellRef::new(2, 1), Value::Null).unwrap();
        let mut diff = a.diff_cells(&b).unwrap();
        diff.sort();
        assert_eq!(diff, vec![CellRef::new(0, 2), CellRef::new(2, 1)]);
    }

    #[test]
    fn empty_table_has_schema_but_no_rows() {
        let s = Schema::from_pairs([("x", DataType::Int)]).unwrap();
        let t = Table::empty("e", &s);
        assert_eq!(t.shape(), (0, 1));
        assert!(t.is_empty());
    }

    #[test]
    fn display_renders_header_and_rows() {
        let text = sample().to_string();
        assert!(text.contains("id"));
        assert!(text.contains("ulm"));
    }

    #[test]
    fn clone_is_shallow_until_mutated() {
        let t = sample();
        let c = t.clone();
        // O(1) clone: every column still shares its payload allocation.
        for (a, b) in t.columns().iter().zip(c.columns()) {
            assert!(a.shares_data_with(b));
        }
        // Writing one cell detaches only that column.
        let mut m = t.clone();
        m.set(CellRef::new(0, 0), Value::Int(99)).unwrap();
        assert!(!t.columns()[0].shares_data_with(&m.columns()[0]));
        assert!(t.columns()[1].shares_data_with(&m.columns()[1]));
        assert!(t.columns()[2].shares_data_with(&m.columns()[2]));
        assert_eq!(t.get_at(0, "id").unwrap(), Value::Int(1));
        assert_eq!(m.get_at(0, "id").unwrap(), Value::Int(99));
    }

    #[test]
    fn replace_column_by_name() {
        let mut t = sample();
        t.replace_column(Column::from_f64("pop", [Some(1.0), Some(2.0), Some(3.0)]))
            .unwrap();
        assert_eq!(t.get_at(2, "pop").unwrap(), Value::Float(3.0));
        assert!(t
            .replace_column(Column::from_f64("zzz", [Some(1.0), Some(2.0), Some(3.0)]))
            .is_err());
    }
}
