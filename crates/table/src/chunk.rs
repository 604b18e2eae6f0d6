//! Immutable row-group chunks — the storage unit behind [`crate::Column`].
//!
//! A [`Chunk`] holds up to [`DEFAULT_CHUNK_ROWS`] values of one dtype in a
//! dense typed buffer plus a validity bitmap (bit set = value present).
//! String chunks are dictionary-encoded: a chunk-local `dict` of distinct
//! strings in **first-occurrence order** and a `codes` buffer of `u32`
//! indices into it, so repeated categories cost four bytes per row and the
//! encoding is byte-stable across runs and thread counts.
//!
//! Chunks are shared behind `Arc`s and never mutated in place by sharers:
//! a column edit goes through `Arc::make_mut`, copying only the touched
//! chunk (copy-on-write at chunk granularity). Null slots store a
//! canonical placeholder (`0`, `0.0`, `false`, code `0`) so two chunks
//! with equal logical content serialize identically.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::value::{DataType, Value};

/// Default number of rows per chunk (row group). Chosen so seed-scale
/// datasets stay single-chunk (keeping their statistics bit-identical to
/// a whole-column computation) while large ingests stay bounded by
/// O(row-group) working memory.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// The dense typed buffer of one chunk. Null rows hold a canonical
/// placeholder and are masked out by the chunk's validity bitmap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChunkValues {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    /// Dictionary entries appear in first-occurrence order; overwritten
    /// entries may linger unreferenced (logical readers go through the
    /// codes, never the dict directly).
    Str {
        dict: Vec<String>,
        codes: Vec<u32>,
    },
}

/// A borrowed, raw view of one slot — the unit of *physical* equality
/// (`Float` compares IEEE-wise: NaN ≠ NaN, matching the pre-chunk
/// `Vec<Option<f64>>` column equality).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(&'a str),
}

impl RawRef<'_> {
    /// The owned, dynamically-typed form of this slot.
    pub(crate) fn to_value(self) -> Value {
        match self {
            RawRef::Null => Value::Null,
            RawRef::Int(v) => Value::Int(v),
            RawRef::Float(v) => Value::Float(v),
            RawRef::Bool(v) => Value::Bool(v),
            RawRef::Str(s) => Value::Str(s.to_string()),
        }
    }
}

/// One immutable row group: a validity bitmap over a dense typed buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chunk {
    len: usize,
    null_count: usize,
    /// Bitmap, one bit per row, bit set = valid (non-null). Trailing
    /// bits beyond `len` are always zero (canonical serialization).
    validity: Vec<u64>,
    values: ChunkValues,
}

fn bit_get(bits: &[u64], i: usize) -> bool {
    (bits[i / 64] >> (i % 64)) & 1 == 1
}

fn bit_set(bits: &mut [u64], i: usize, v: bool) {
    let (word, mask) = (i / 64, 1u64 << (i % 64));
    if v {
        bits[word] |= mask;
    } else {
        bits[word] &= !mask;
    }
}

impl Chunk {
    /// An empty chunk of the given dtype.
    pub fn empty(dtype: DataType) -> Chunk {
        Chunk {
            len: 0,
            null_count: 0,
            validity: Vec::new(),
            values: match dtype {
                DataType::Int => ChunkValues::Int(Vec::new()),
                DataType::Float => ChunkValues::Float(Vec::new()),
                DataType::Bool => ChunkValues::Bool(Vec::new()),
                DataType::Str => ChunkValues::Str {
                    dict: Vec::new(),
                    codes: Vec::new(),
                },
            },
        }
    }

    /// An all-null chunk of the given dtype and length.
    pub fn nulls(dtype: DataType, len: usize) -> Chunk {
        Chunk {
            len,
            null_count: len,
            validity: vec![0; len.div_ceil(64)],
            values: match dtype {
                DataType::Int => ChunkValues::Int(vec![0; len]),
                DataType::Float => ChunkValues::Float(vec![0.0; len]),
                DataType::Bool => ChunkValues::Bool(vec![false; len]),
                DataType::Str => ChunkValues::Str {
                    dict: Vec::new(),
                    codes: vec![0; len],
                },
            },
        }
    }

    pub fn dtype(&self) -> DataType {
        match &self.values {
            ChunkValues::Int(_) => DataType::Int,
            ChunkValues::Float(_) => DataType::Float,
            ChunkValues::Bool(_) => DataType::Bool,
            ChunkValues::Str { .. } => DataType::Str,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Whether row `row` holds a value (bit set in the validity bitmap).
    pub fn is_valid(&self, row: usize) -> bool {
        bit_get(&self.validity, row)
    }

    /// The raw typed buffer (dense; consult [`Chunk::is_valid`]).
    pub fn values(&self) -> &ChunkValues {
        &self.values
    }

    /// Dynamically-typed view of row `row` (out-of-range panics, like
    /// slice indexing).
    pub fn value(&self, row: usize) -> Value {
        self.raw_at(row).to_value()
    }

    /// Borrowed raw view of row `row`.
    pub fn raw_at(&self, row: usize) -> RawRef<'_> {
        if !self.is_valid(row) {
            // Touch the buffer so out-of-range rows panic even when the
            // validity word exists (len not a multiple of 64).
            assert!(row < self.len, "row {row} out of range for chunk");
            return RawRef::Null;
        }
        match &self.values {
            ChunkValues::Int(v) => RawRef::Int(v[row]),
            ChunkValues::Float(v) => RawRef::Float(v[row]),
            ChunkValues::Bool(v) => RawRef::Bool(v[row]),
            ChunkValues::Str { dict, codes } => RawRef::Str(&dict[codes[row] as usize]),
        }
    }

    /// Offsets of the non-null rows, ascending. The validity bitmap is
    /// walked a word (64 rows) at a time, so an all-null word costs one
    /// test.
    pub fn valid_rows(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.validity, self.len, false)
    }

    /// Offsets of the null rows, ascending (same word-at-a-time walk).
    pub fn null_rows(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.validity, self.len, true)
    }

    /// `(offset, value)` for every non-null row as `f64` (booleans as
    /// 0/1), ascending. Non-finite floats are included — downstream
    /// statistics filter (and count) them. String chunks yield nothing.
    pub fn numeric_rows(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let words = match self.values {
            ChunkValues::Str { .. } => &[][..],
            _ => &self.validity[..],
        };
        set_bits(words, self.len, false).map(move |i| match &self.values {
            ChunkValues::Int(v) => (i, v[i] as f64),
            ChunkValues::Float(v) => (i, v[i]),
            ChunkValues::Bool(v) => (i, if v[i] { 1.0 } else { 0.0 }),
            ChunkValues::Str { .. } => unreachable!("string chunks walk no words"),
        })
    }

    /// The dictionary of a string chunk (empty for other dtypes). Entries
    /// overwritten through `set` may linger unreferenced.
    pub fn dict(&self) -> &[String] {
        match &self.values {
            ChunkValues::Str { dict, .. } => dict,
            _ => &[],
        }
    }

    /// Each [`Chunk::dict`] entry with the number of non-null rows that
    /// reference it, in dictionary order; unreferenced entries count zero.
    pub fn dict_tallies(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        let mut counts = vec![0; self.dict().len()];
        if let ChunkValues::Str { codes, .. } = &self.values {
            for i in self.valid_rows() {
                counts[codes[i] as usize] += 1;
            }
        }
        self.dict().iter().map(String::as_str).zip(counts)
    }

    /// Offsets of the non-null rows of a string chunk whose dictionary
    /// entry is marked in `hits` (one flag per [`Chunk::dict`] entry),
    /// ascending; other dtypes yield nothing.
    pub fn rows_with<'a>(&'a self, hits: &'a [bool]) -> impl Iterator<Item = usize> + 'a {
        let (words, codes) = match &self.values {
            ChunkValues::Str { codes, .. } => (&self.validity[..], &codes[..]),
            _ => (&[][..], &[][..]),
        };
        set_bits(words, self.len, false).filter(move |&i| hits[codes[i] as usize])
    }

    /// Heap bytes resident for this chunk's buffers (validity + values +
    /// dictionary contents).
    pub fn resident_bytes(&self) -> usize {
        let values = match &self.values {
            ChunkValues::Int(v) => v.len() * 8,
            ChunkValues::Float(v) => v.len() * 8,
            ChunkValues::Bool(v) => v.len(),
            ChunkValues::Str { dict, codes } => {
                codes.len() * 4
                    + dict
                        .iter()
                        .map(|s| s.len() + std::mem::size_of::<String>())
                        .sum::<usize>()
            }
        };
        self.validity.len() * 8 + values
    }

    /// Overwrite row `row` with `value` (already coerced to this chunk's
    /// dtype; anything else becomes null). Null slots are reset to the
    /// canonical placeholder so serialization stays deterministic.
    pub(crate) fn set_value(&mut self, row: usize, value: Value) {
        let was_valid = self.is_valid(row);
        let valid = match (&mut self.values, value) {
            (ChunkValues::Int(v), Value::Int(x)) => {
                v[row] = x;
                true
            }
            (ChunkValues::Float(v), Value::Float(x)) => {
                v[row] = x;
                true
            }
            (ChunkValues::Bool(v), Value::Bool(x)) => {
                v[row] = x;
                true
            }
            (ChunkValues::Str { dict, codes }, Value::Str(x)) => {
                codes[row] = intern(dict, x);
                true
            }
            (ChunkValues::Int(v), _) => {
                v[row] = 0;
                false
            }
            (ChunkValues::Float(v), _) => {
                v[row] = 0.0;
                false
            }
            (ChunkValues::Bool(v), _) => {
                v[row] = false;
                false
            }
            (ChunkValues::Str { codes, .. }, _) => {
                codes[row] = 0;
                false
            }
        };
        bit_set(&mut self.validity, row, valid);
        match (was_valid, valid) {
            (true, false) => self.null_count += 1,
            (false, true) => self.null_count -= 1,
            _ => {}
        }
    }

    /// Append `value` (already coerced; anything else becomes null): a
    /// null placeholder slot, then [`Chunk::set_value`].
    pub(crate) fn push_value(&mut self, value: Value) {
        if self.len / 64 >= self.validity.len() {
            self.validity.push(0);
        }
        match &mut self.values {
            ChunkValues::Int(v) => v.push(0),
            ChunkValues::Float(v) => v.push(0.0),
            ChunkValues::Bool(v) => v.push(false),
            ChunkValues::Str { codes, .. } => codes.push(0),
        }
        self.len += 1;
        self.null_count += 1;
        self.set_value(self.len - 1, value);
    }
}

/// Positions below `len` of the set bits of `words` (of the clear bits
/// when `invert`), ascending, one word at a time.
fn set_bits(words: &[u64], len: usize, invert: bool) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(move |(w, &word)| {
        let tail = len.saturating_sub(w * 64);
        let in_range = if tail >= 64 {
            u64::MAX
        } else {
            (1 << tail) - 1
        };
        let mut bits = if invert { !word } else { word } & in_range;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// Dictionary lookup by linear scan (mutation path only — bulk builds
/// intern through the [`ChunkBuilder`]'s hash index instead). Appends in
/// first-occurrence order, preserving deterministic codes.
fn intern(dict: &mut Vec<String>, s: String) -> u32 {
    match dict.iter().position(|d| *d == s) {
        Some(i) => i as u32,
        None => {
            dict.push(s);
            (dict.len() - 1) as u32
        }
    }
}

/// Internal typed accumulator for [`ChunkBuilder`].
enum Acc {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str {
        dict: Vec<String>,
        codes: Vec<u32>,
        index: HashMap<String, u32>,
    },
}

impl Acc {
    fn new(dtype: DataType) -> Acc {
        match dtype {
            DataType::Int => Acc::Int(Vec::new()),
            DataType::Float => Acc::Float(Vec::new()),
            DataType::Bool => Acc::Bool(Vec::new()),
            DataType::Str => Acc::Str {
                dict: Vec::new(),
                codes: Vec::new(),
                index: HashMap::new(),
            },
        }
    }
}

/// Streaming builder that coerces pushed values to one dtype and seals a
/// [`Chunk`] every `target_rows` rows. String dictionaries are interned
/// through a hash index (O(1) per row) but stored in first-occurrence
/// order, so the encoding does not depend on hashing or thread count.
pub struct ChunkBuilder {
    dtype: DataType,
    target_rows: usize,
    len: usize,
    null_count: usize,
    validity: Vec<u64>,
    acc: Acc,
    chunks: Vec<Arc<Chunk>>,
}

impl ChunkBuilder {
    /// A builder sealing chunks of `target_rows` rows (minimum 1).
    pub fn new(dtype: DataType, target_rows: usize) -> ChunkBuilder {
        ChunkBuilder {
            dtype,
            target_rows: target_rows.max(1),
            len: 0,
            null_count: 0,
            validity: Vec::new(),
            acc: Acc::new(dtype),
            chunks: Vec::new(),
        }
    }

    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Rows pushed so far (sealed + pending).
    pub fn rows(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum::<usize>() + self.len
    }

    /// Append `value`, coercing to the builder's dtype; lossy coercions
    /// become null (pandas `errors="coerce"` semantics).
    pub fn push(&mut self, value: Value) {
        let row = self.len;
        if row / 64 >= self.validity.len() {
            self.validity.push(0);
        }
        let valid = match (&mut self.acc, value.coerce(self.dtype)) {
            (Acc::Int(v), Value::Int(x)) => {
                v.push(x);
                true
            }
            (Acc::Float(v), Value::Float(x)) => {
                v.push(x);
                true
            }
            (Acc::Bool(v), Value::Bool(x)) => {
                v.push(x);
                true
            }
            (Acc::Str { dict, codes, index }, Value::Str(x)) => {
                let code = match index.get(&x) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        dict.push(x.clone());
                        index.insert(x, c);
                        c
                    }
                };
                codes.push(code);
                true
            }
            (Acc::Int(v), _) => {
                v.push(0);
                false
            }
            (Acc::Float(v), _) => {
                v.push(0.0);
                false
            }
            (Acc::Bool(v), _) => {
                v.push(false);
                false
            }
            (Acc::Str { codes, .. }, _) => {
                codes.push(0);
                false
            }
        };
        self.len += 1;
        bit_set(&mut self.validity, row, valid);
        if !valid {
            self.null_count += 1;
        }
        if self.len >= self.target_rows {
            self.seal();
        }
    }

    /// Seal the pending rows into a chunk (no-op when empty).
    fn seal(&mut self) {
        if self.len == 0 {
            return;
        }
        let values = match std::mem::replace(&mut self.acc, Acc::new(self.dtype)) {
            Acc::Int(v) => ChunkValues::Int(v),
            Acc::Float(v) => ChunkValues::Float(v),
            Acc::Bool(v) => ChunkValues::Bool(v),
            Acc::Str { dict, codes, .. } => ChunkValues::Str { dict, codes },
        };
        self.chunks.push(Arc::new(Chunk {
            len: self.len,
            null_count: self.null_count,
            validity: std::mem::take(&mut self.validity),
            values,
        }));
        self.len = 0;
        self.null_count = 0;
    }

    /// Seal the tail and return every chunk in order.
    pub fn finish(mut self) -> Vec<Arc<Chunk>> {
        self.seal();
        self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_seals_at_target_rows() {
        let mut b = ChunkBuilder::new(DataType::Int, 3);
        for i in 0..8 {
            b.push(Value::Int(i));
        }
        let chunks = b.finish();
        let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(lens, vec![3, 3, 2]);
        assert_eq!(chunks[2].value(1), Value::Int(7));
    }

    #[test]
    fn builder_coerces_and_counts_nulls() {
        let mut b = ChunkBuilder::new(DataType::Int, 10);
        b.push(Value::Int(1));
        b.push(Value::Str("oops".into()));
        b.push(Value::Null);
        b.push(Value::Float(4.0));
        let chunks = b.finish();
        assert_eq!(chunks.len(), 1);
        let c = &chunks[0];
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.value(0), Value::Int(1));
        assert!(c.value(1).is_null());
        assert!(c.value(2).is_null());
        assert_eq!(c.value(3), Value::Int(4));
    }

    #[test]
    fn dictionary_codes_are_first_occurrence_order() {
        let mut b = ChunkBuilder::new(DataType::Str, 100);
        for s in ["teal", "red", "teal", "green", "red", "teal"] {
            b.push(Value::Str(s.into()));
        }
        let chunks = b.finish();
        match chunks[0].values() {
            ChunkValues::Str { dict, codes } => {
                assert_eq!(dict, &["teal", "red", "green"]);
                assert_eq!(codes, &[0, 1, 0, 2, 1, 0]);
            }
            other => panic!("expected Str chunk, got {other:?}"),
        }
    }

    #[test]
    fn dictionary_resets_per_chunk() {
        let mut b = ChunkBuilder::new(DataType::Str, 2);
        for s in ["a", "b", "b", "c"] {
            b.push(Value::Str(s.into()));
        }
        let chunks = b.finish();
        let dicts: Vec<&[String]> = chunks
            .iter()
            .map(|c| match c.values() {
                ChunkValues::Str { dict, .. } => dict.as_slice(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(dicts[0], ["a".to_string(), "b".to_string()]);
        assert_eq!(dicts[1], ["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn null_placeholders_are_canonical() {
        // Two logically-equal chunks built differently serialize the
        // same: a null slot always stores the placeholder.
        let mut a = Chunk::empty(DataType::Int);
        a.push_value(Value::Int(7));
        a.push_value(Value::Null);
        let mut b = Chunk::empty(DataType::Int);
        b.push_value(Value::Int(7));
        b.push_value(Value::Int(42));
        b.set_value(1, Value::Null);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn set_value_tracks_null_count_and_validity() {
        let mut c = Chunk::nulls(DataType::Float, 3);
        assert_eq!(c.null_count(), 3);
        c.set_value(1, Value::Float(2.5));
        assert_eq!(c.null_count(), 2);
        assert!(c.is_valid(1) && !c.is_valid(0));
        assert_eq!(c.value(1), Value::Float(2.5));
        c.set_value(1, Value::Null);
        assert_eq!(c.null_count(), 3);
    }

    #[test]
    fn numeric_values_skip_nulls_keep_non_finite() {
        let mut c = Chunk::empty(DataType::Float);
        c.push_value(Value::Float(1.0));
        c.push_value(Value::Null);
        c.push_value(Value::Float(f64::NAN));
        let out: Vec<f64> = c.numeric_rows().map(|(_, v)| v).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], 1.0);
        assert!(out[1].is_nan());
    }

    #[test]
    fn resident_bytes_counts_buffers() {
        let mut b = ChunkBuilder::new(DataType::Str, 10);
        b.push(Value::Str("hello".into()));
        b.push(Value::Str("hello".into()));
        let chunks = b.finish();
        // 1 validity word + 2 codes + 1 dict entry ("hello").
        assert!(chunks[0].resident_bytes() >= 8 + 8 + 5);
    }

    #[test]
    fn dictionary_readers_skip_stale_entries_and_nulls() {
        let mut c = Chunk::empty(DataType::Str);
        for v in ["a", "b", "a"] {
            c.push_value(Value::Str(v.into()));
        }
        c.push_value(Value::Null);
        c.set_value(1, Value::Str("c".into())); // "b" is now stale
        let tallies: Vec<(&str, usize)> = c.dict_tallies().collect();
        assert_eq!(tallies, [("a", 2), ("b", 0), ("c", 1)]);
        assert_eq!(
            c.rows_with(&[true, true, false]).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(c.null_rows().collect::<Vec<_>>(), vec![3]);
        let ints = Chunk::nulls(DataType::Int, 70);
        assert!(ints.dict().is_empty());
        assert_eq!(ints.rows_with(&[]).count(), 0);
        assert_eq!(ints.null_rows().count(), 70);
        assert_eq!(ints.valid_rows().count(), 0);
    }
}
