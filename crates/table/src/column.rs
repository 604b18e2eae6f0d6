//! Typed columnar storage over immutable row-group chunks.
//!
//! A [`Column`] stores one attribute's values as an ordered list of
//! [`Chunk`]s — dense typed buffers with a validity bitmap, dictionary
//! encoded for strings (see [`crate::chunk`]). Each chunk sits behind its
//! own [`Arc`], so cloning a column (and therefore a whole
//! [`crate::Table`]) is O(1) and mutation goes through [`Arc::make_mut`]
//! at *chunk* granularity: a single-row repair copies one row group, not
//! the column.
//!
//! Reads go through point access ([`Column::get`], [`Column::is_null`])
//! or borrow the chunk buffers: [`Column::chunks`] hands out each chunk's
//! typed buffer, validity bitmap and dictionary (walk non-null rows with
//! [`Chunk::valid_rows`], which skips nulls a bitmap word at a time), and
//! [`Column::numeric_rows`] yields `(row, f64)` over them. Two copying
//! readers remain: [`Column::numeric_values`] and
//! [`Column::value_counts`].
//!
//! Equality is **logical**: two columns with the same name, dtype and
//! per-row values are equal regardless of how rows are split into chunks
//! or how dictionaries are laid out.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::chunk::{Chunk, ChunkBuilder, RawRef, DEFAULT_CHUNK_ROWS};
use crate::value::{DataType, Value};

/// A named, typed column of values, stored as row-group chunks. Cheap to
/// clone: every chunk is shared until one of the clones mutates it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    name: String,
    dtype: DataType,
    len: usize,
    chunks: Vec<Arc<Chunk>>,
    /// Cumulative end-row of each chunk (`offsets[i]` = first row of
    /// chunk `i+1`), kept for O(log chunks) row lookup.
    offsets: Vec<usize>,
}

impl Column {
    /// An empty column of the given dtype.
    pub fn empty(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            len: 0,
            chunks: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// An all-null column of the given dtype and length.
    pub fn nulls(name: impl Into<String>, dtype: DataType, len: usize) -> Column {
        let mut chunks = Vec::new();
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(DEFAULT_CHUNK_ROWS);
            chunks.push(Arc::new(Chunk::nulls(dtype, take)));
            remaining -= take;
        }
        Column::from_chunks(name, dtype, chunks)
    }

    /// Assemble a column from pre-built chunks (all of dtype `dtype`).
    pub(crate) fn from_chunks(
        name: impl Into<String>,
        dtype: DataType,
        chunks: Vec<Arc<Chunk>>,
    ) -> Column {
        let mut offsets = Vec::with_capacity(chunks.len());
        let mut len = 0;
        for c in &chunks {
            debug_assert_eq!(c.dtype(), dtype, "chunk dtype mismatch");
            len += c.len();
            offsets.push(len);
        }
        Column {
            name: name.into(),
            dtype,
            len,
            chunks,
            offsets,
        }
    }

    /// Whether two columns share every chunk allocation (i.e. no deep
    /// copy has happened between them).
    pub fn shares_data_with(&self, other: &Column) -> bool {
        self.chunks.len() == other.chunks.len()
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Construct by coercing dynamically-typed values to `dtype`; values
    /// that do not fit become null (pandas `errors="coerce"` semantics).
    pub fn from_values(
        name: impl Into<String>,
        dtype: DataType,
        values: impl IntoIterator<Item = Value>,
    ) -> Column {
        let mut b = ChunkBuilder::new(dtype, DEFAULT_CHUNK_ROWS);
        for v in values {
            b.push(v);
        }
        Column::from_chunks(name, dtype, b.finish())
    }

    /// Typed convenience constructors used heavily in tests and examples.
    pub fn from_i64(
        name: impl Into<String>,
        vals: impl IntoIterator<Item = Option<i64>>,
    ) -> Column {
        Column::from_values(
            name,
            DataType::Int,
            vals.into_iter().map(|v| v.map_or(Value::Null, Value::Int)),
        )
    }
    pub fn from_f64(
        name: impl Into<String>,
        vals: impl IntoIterator<Item = Option<f64>>,
    ) -> Column {
        Column::from_values(
            name,
            DataType::Float,
            vals.into_iter()
                .map(|v| v.map_or(Value::Null, Value::Float)),
        )
    }
    pub fn from_bool(
        name: impl Into<String>,
        vals: impl IntoIterator<Item = Option<bool>>,
    ) -> Column {
        Column::from_values(
            name,
            DataType::Bool,
            vals.into_iter().map(|v| v.map_or(Value::Null, Value::Bool)),
        )
    }
    pub fn from_str_vals<S: Into<String>>(
        name: impl Into<String>,
        vals: impl IntoIterator<Item = Option<S>>,
    ) -> Column {
        Column::from_values(
            name,
            DataType::Str,
            vals.into_iter()
                .map(|v| v.map_or(Value::Null, |s| Value::Str(s.into()))),
        )
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// The column's row-group chunks, in row order.
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Locate `row`: (chunk index, offset within chunk). Rows past the
    /// end land on `chunks.len()`, so the subsequent chunk index panics
    /// like slice indexing.
    fn locate(&self, row: usize) -> (usize, usize) {
        let idx = self.offsets.partition_point(|&end| end <= row);
        let start = if idx == 0 { 0 } else { self.offsets[idx - 1] };
        (idx, row - start)
    }

    /// Dynamically-typed view of row `row`; out-of-range reads panic like
    /// slice indexing (callers validate through `Table`).
    pub fn get(&self, row: usize) -> Value {
        let (chunk, off) = self.locate(row);
        self.chunks[chunk].value(off)
    }

    /// Borrowed raw view of row `row`; out-of-range reads panic.
    pub(crate) fn raw_at(&self, row: usize) -> RawRef<'_> {
        let (chunk, off) = self.locate(row);
        self.chunks[chunk].raw_at(off)
    }

    /// Set row `row` to `value`, coercing to the column type; lossy
    /// coercions become null. Copies only the touched chunk when shared.
    pub fn set(&mut self, row: usize, value: Value) {
        let coerced = value.coerce(self.dtype);
        let (chunk, off) = self.locate(row);
        Arc::make_mut(&mut self.chunks[chunk]).set_value(off, coerced);
    }

    /// Append a value (coerced to the column type). Fills the last chunk
    /// up to [`DEFAULT_CHUNK_ROWS`] before opening a new one.
    pub fn push(&mut self, value: Value) {
        let coerced = value.coerce(self.dtype);
        match self.chunks.last_mut() {
            Some(last) if last.len() < DEFAULT_CHUNK_ROWS => {
                Arc::make_mut(last).push_value(coerced);
                if let Some(end) = self.offsets.last_mut() {
                    *end += 1;
                }
            }
            _ => {
                let mut chunk = Chunk::empty(self.dtype);
                chunk.push_value(coerced);
                self.chunks.push(Arc::new(chunk));
                self.offsets.push(self.len + 1);
            }
        }
        self.len += 1;
    }

    /// Borrowed raw view of every row, in order — chunk-layout agnostic.
    fn iter(&self) -> impl Iterator<Item = RawRef<'_>> {
        self.chunks
            .iter()
            .flat_map(|c| (0..c.len()).map(move |i| c.raw_at(i)))
    }

    /// Whether row `row` holds a null.
    pub fn is_null(&self, row: usize) -> bool {
        let (chunk, off) = self.locate(row);
        !self.chunks[chunk].is_valid(off)
    }

    /// Number of null entries.
    pub fn null_count(&self) -> usize {
        self.chunks.iter().map(|c| c.null_count()).sum()
    }

    /// `(row, value)` for every non-null numeric row, in row order,
    /// borrowed from the chunk buffers: booleans map to 0/1, non-finite
    /// floats are included and string columns yield nothing.
    pub fn numeric_rows(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.chunks.iter().zip(&self.offsets).flat_map(|(c, &end)| {
            let start = end - c.len();
            c.numeric_rows().map(move |(i, v)| (start + i, v))
        })
    }

    /// Non-null numeric values, in row order.
    pub fn numeric_values(&self) -> Vec<f64> {
        self.numeric_rows().map(|(_, v)| v).collect()
    }

    /// A copy containing only the rows at `indices`, in that order.
    pub fn take(&self, indices: &[usize]) -> Column {
        let mut b = ChunkBuilder::new(self.dtype, DEFAULT_CHUNK_ROWS);
        for &i in indices {
            b.push(self.get(i));
        }
        Column::from_chunks(self.name.clone(), self.dtype, b.finish())
    }

    /// A copy with rows re-split into chunks of `target_rows` (minimum 1).
    /// Used by tests and benchmarks to exercise multi-chunk layouts.
    pub fn rechunk(&self, target_rows: usize) -> Column {
        let mut b = ChunkBuilder::new(self.dtype, target_rows);
        for v in self.iter() {
            b.push(v.to_value());
        }
        Column::from_chunks(self.name.clone(), self.dtype, b.finish())
    }

    /// Cast the column to another type; lossy entries become null.
    pub fn cast(&self, dtype: DataType) -> Column {
        if dtype == self.dtype() {
            return self.clone();
        }
        Column::from_values(self.name.clone(), dtype, self.iter().map(RawRef::to_value))
    }

    /// Heap bytes resident across this column's chunk buffers. Shared
    /// chunks are counted in every sharer (this is a size gauge, not an
    /// allocator report).
    pub fn resident_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.resident_bytes()).sum()
    }

    /// Distinct non-null values with their occurrence counts, ordered by
    /// descending count then value order (deterministic).
    pub fn value_counts(&self) -> Vec<(Value, usize)> {
        use std::collections::HashMap;
        let mut out: Vec<(Value, usize)> = if self.dtype == DataType::Str {
            // Chunk-batched fast path: tally dictionary codes per chunk
            // (O(rows) integer increments), merge tallies by string.
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for (s, n) in self.chunks.iter().flat_map(|c| c.dict_tallies()) {
                if n > 0 {
                    *counts.entry(s).or_insert(0) += n;
                }
            }
            counts
                .into_iter()
                .map(|(s, n)| (Value::Str(s.to_string()), n))
                .collect()
        } else {
            let mut counts: HashMap<Value, usize> = HashMap::new();
            for v in self.iter() {
                if v != RawRef::Null {
                    *counts.entry(v.to_value()).or_insert(0) += 1;
                }
            }
            counts.into_iter().collect()
        };
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
        out
    }
}

impl PartialEq for Column {
    /// Logical equality: same name, dtype and per-row values. Chunk
    /// boundaries and dictionary layout do not participate — a rechunked
    /// or re-encoded column still compares equal. Floats compare
    /// IEEE-wise (NaN ≠ NaN), matching the previous derived semantics.
    fn eq(&self, other: &Column) -> bool {
        self.name == other.name
            && self.dtype == other.dtype
            && self.len == other.len
            && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkValues;
    use proptest::prelude::*;

    #[test]
    fn typed_constructors_and_get() {
        let c = Column::from_i64("a", [Some(1), None, Some(3)]);
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert!(c.get(1).is_null());
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn from_values_coerces_misfits_to_null() {
        let c = Column::from_values(
            "a",
            DataType::Int,
            vec![Value::Int(1), Value::Str("xyz".into()), Value::Float(2.0)],
        );
        assert_eq!(c.get(0), Value::Int(1));
        assert!(c.get(1).is_null());
        assert_eq!(c.get(2), Value::Int(2));
    }

    #[test]
    fn set_coerces_and_nulls_lossy() {
        let mut c = Column::from_f64("f", [Some(1.0), Some(2.0)]);
        c.set(0, Value::Int(9));
        assert_eq!(c.get(0), Value::Float(9.0));
        c.set(1, Value::Str("not a number".into()));
        assert!(c.get(1).is_null());
    }

    #[test]
    fn numeric_rows_skip_nulls_and_strings() {
        let c = Column::from_i64("a", [Some(1), None, Some(3)]);
        assert_eq!(
            c.numeric_rows().collect::<Vec<_>>(),
            vec![(0, 1.0), (2, 3.0)]
        );
        let s = Column::from_str_vals("s", [Some("x"), Some("y")]);
        assert_eq!(s.numeric_rows().count(), 0);
        let b = Column::from_bool("b", [Some(true), Some(false), None]);
        assert_eq!(b.numeric_values(), vec![1.0, 0.0]);
    }

    #[test]
    fn take_reorders_and_duplicates() {
        let c = Column::from_str_vals("s", [Some("a"), Some("b"), None]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.len(), 3);
        assert!(t.get(0).is_null());
        assert_eq!(t.get(1), Value::Str("a".into()));
        assert_eq!(t.get(2), Value::Str("a".into()));
    }

    #[test]
    fn cast_between_types() {
        let c = Column::from_str_vals("s", [Some("1"), Some("2.5"), Some("x")]);
        let f = c.cast(DataType::Float);
        assert_eq!(f.get(0), Value::Float(1.0));
        assert_eq!(f.get(1), Value::Float(2.5));
        assert!(f.get(2).is_null());
    }

    #[test]
    fn value_counts_ordered_by_count() {
        let c = Column::from_str_vals("s", [Some("a"), Some("b"), Some("a"), None]);
        let vc = c.value_counts();
        assert_eq!(vc[0], (Value::Str("a".into()), 2));
        assert_eq!(vc[1], (Value::Str("b".into()), 1));
        assert_eq!(vc.len(), 2);
    }

    #[test]
    fn nulls_constructor() {
        let c = Column::nulls("n", DataType::Bool, 4);
        assert_eq!(c.null_count(), 4);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn clone_shares_payload_until_mutation() {
        let a = Column::from_i64("a", (0..1000).map(Some));
        let b = a.clone();
        // O(1) clone: same chunk allocations.
        assert!(a.shares_data_with(&b));

        // Copy-on-write: mutating the clone detaches it ...
        let mut c = a.clone();
        c.set(3, Value::Int(-1));
        assert!(!a.shares_data_with(&c));
        // ... and leaves the original untouched.
        assert_eq!(a.get(3), Value::Int(3));
        assert_eq!(c.get(3), Value::Int(-1));

        // Mutating an unshared column does not reallocate.
        let before = c.get(0);
        c.set(0, Value::Int(42));
        assert_ne!(c.get(0), before);
    }

    #[test]
    fn single_row_edit_copies_only_the_touched_chunk() {
        let a = Column::from_i64("a", (0..100).map(Some)).rechunk(10);
        assert_eq!(a.chunks().len(), 10);
        let mut b = a.clone();
        b.set(35, Value::Int(-1));
        let shared: Vec<bool> = a
            .chunks()
            .iter()
            .zip(b.chunks())
            .map(|(x, y)| Arc::ptr_eq(x, y))
            .collect();
        // Chunk 3 (rows 30..40) was copied; all nine others still share.
        assert_eq!(shared.iter().filter(|&&s| !s).count(), 1);
        assert!(!shared[3]);
        assert_eq!(a.get(35), Value::Int(35));
        assert_eq!(b.get(35), Value::Int(-1));
    }

    #[test]
    fn rechunk_preserves_logical_equality() {
        let vals: Vec<Option<f64>> = (0..50)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some(i as f64 * 1.5)
                }
            })
            .collect();
        let a = Column::from_f64("f", vals);
        for target in [1, 3, 16, 1000] {
            let b = a.rechunk(target);
            assert_eq!(a, b, "rechunk({target}) changed logical content");
            assert_eq!(a.null_count(), b.null_count());
            assert!(a.numeric_rows().eq(b.numeric_rows()));
        }
    }

    #[test]
    fn push_fills_last_chunk_and_tracks_offsets() {
        let mut c = Column::empty("a", DataType::Int);
        for i in 0..10 {
            c.push(Value::Int(i));
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.chunks().len(), 1);
        assert_eq!(c.get(9), Value::Int(9));
        assert_eq!(c.iter().count(), 10);
    }

    #[test]
    fn equality_ignores_dictionary_layout() {
        // Same logical strings, different first-occurrence orders.
        let a = Column::from_str_vals("s", [Some("x"), Some("y"), Some("x")]);
        let mut b = Column::from_str_vals("s", [Some("y"), Some("y"), Some("x")]);
        b.set(0, Value::Str("x".into()));
        assert_eq!(a, b);
    }

    #[test]
    fn nan_is_not_equal_to_itself_in_columns() {
        let a = Column::from_f64("f", [Some(f64::NAN)]);
        let b = Column::from_f64("f", [Some(f64::NAN)]);
        assert_ne!(a, b);
    }

    /// The copying reader [`Column::numeric_rows`] replaced.
    fn reference_numeric_entries(col: &Column) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut base = 0;
        for c in &col.chunks {
            match c.values() {
                ChunkValues::Int(v) => {
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            out.push((base + i, *x as f64));
                        }
                    }
                }
                ChunkValues::Float(v) => {
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            out.push((base + i, *x));
                        }
                    }
                }
                ChunkValues::Bool(v) => {
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            out.push((base + i, if *x { 1.0 } else { 0.0 }));
                        }
                    }
                }
                ChunkValues::Str { .. } => {}
            }
            base += c.len();
        }
        out
    }

    /// Rows of the differential tests: debug builds stay quick, release
    /// builds run columns spanning many bitmap words and chunks.
    const MAX_ROWS: usize = if cfg!(debug_assertions) { 300 } else { 5_000 };

    /// A column of `dtype` where row `i` is null with odds `nulls`/8
    /// (all-null and all-valid bitmap words included), holding NaN,
    /// ±inf, ±0.0 and ties, split into chunks of `chunk_rows` and edited
    /// through `set` (stale dictionary entries included).
    fn column(seed: u64, rows: usize, chunk_rows: usize, dtype: DataType, nulls: u64) -> Column {
        let mut state = seed;
        let mut draw = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.5];
        let cells: Vec<Value> = (0..rows)
            .map(|i| match (draw(8) < nulls || (i / 64) % 5 == 4, dtype) {
                (true, _) => Value::Null,
                (_, DataType::Float) => Value::Float(specials[draw(6) as usize]),
                (_, DataType::Bool) => Value::Bool(draw(2) == 0),
                (_, DataType::Str) => Value::Str(format!("s{}", draw(5))),
                _ => Value::Int(draw(7) as i64 - 3),
            })
            .collect();
        let edits: Vec<usize> = (0..rows.min(4))
            .map(|_| draw(rows as u64) as usize)
            .collect();
        let mut col = Column::from_values("c", dtype, cells).rechunk(chunk_rows);
        for row in edits {
            col.set(row, Value::Str("fresh".into()));
            col.set(row, Value::Null);
        }
        col
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]
        /// The word-at-a-time numeric row iterator yields the reference
        /// reader's entries bit for bit, and the chunk row walks split
        /// every chunk into its valid and null rows.
        #[test]
        fn numeric_rows_match_the_reference_reader(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..200,
            dtype in 0usize..4,
            nulls in 0u64..9,
        ) {
            let dtype = [DataType::Int, DataType::Float, DataType::Bool, DataType::Str][dtype];
            let col = column(seed, rows, chunk, dtype, nulls);
            let bits = |e: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                e.into_iter().map(|(r, v)| (r, v.to_bits())).collect()
            };
            prop_assert_eq!(
                bits(col.numeric_rows().collect()),
                bits(reference_numeric_entries(&col))
            );
            for c in col.chunks() {
                let valid: Vec<usize> = (0..c.len()).filter(|&i| c.is_valid(i)).collect();
                let null: Vec<usize> = (0..c.len()).filter(|&i| !c.is_valid(i)).collect();
                prop_assert_eq!(c.valid_rows().collect::<Vec<_>>(), valid);
                prop_assert_eq!(c.null_rows().collect::<Vec<_>>(), null);
            }
        }
    }
}
