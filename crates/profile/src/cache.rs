//! Content-addressed memoisation of profiling work.
//!
//! A [`ProfileCache`] remembers per-column profiles, per-chunk partial
//! statistics, and correlation-pair values across
//! [`crate::ProfileReport`] builds, so re-profiling a repaired table only
//! recomputes the columns a repair actually touched (plus the correlation
//! pairs involving them) — and within a touched column, only the edited
//! row-group chunk's partial statistics.
//!
//! Identity is content-addressed at **chunk** granularity: each chunk
//! gets a deterministic FNV-1a fingerprint over its dtype, length, and
//! logical value bits (dictionary layout does not participate), and a
//! column's fingerprint folds its chunk fingerprints in order. Chunks
//! are shared behind `Arc`s (copy-on-write), so the common case — a
//! repaired table whose untouched chunks still alias the original
//! allocations — is served by a pointer-identity fast path that never
//! rehashes the data: the cache keeps an `Arc<Chunk>` anchor per seen
//! chunk, which both keeps the allocation alive (so its address cannot
//! be recycled by a new chunk) and lets `Arc::ptr_eq` confirm the match.
//!
//! Determinism: the cache stores the exact values the profiler computed,
//! so a warm build is bit-identical to a cold one — a property pinned by
//! the profile determinism integration test.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use datalens_table::{Chunk, ChunkValues, Column, DataType};

use datalens_sketch::{column_seed, ColumnSketch};

use crate::approx::ProfileMode;
use crate::correlation::CorrelationKind;
use crate::report::{ColumnProfile, ProfileConfig};
use crate::stats::NumericPartial;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Minimal FNV-1a, so fingerprints are stable across runs and platforms
/// (`DefaultHasher` makes no such promise).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn dtype_tag(dtype: DataType) -> u64 {
    match dtype {
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Bool => 3,
        DataType::Str => 4,
    }
}

/// Deterministic content fingerprint of one chunk, over its *logical*
/// values: dictionary order and code assignment do not participate, so
/// two chunks holding the same strings fingerprint identically however
/// they were built.
pub fn chunk_fingerprint(chunk: &Chunk) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(dtype_tag(chunk.dtype()));
    h.write_u64(chunk.len() as u64);
    match chunk.values() {
        ChunkValues::Int(v) => {
            for (i, x) in v.iter().enumerate() {
                if chunk.is_valid(i) {
                    h.write(&[1]);
                    h.write_u64(*x as u64);
                } else {
                    h.write(&[0]);
                }
            }
        }
        ChunkValues::Float(v) => {
            for (i, x) in v.iter().enumerate() {
                if chunk.is_valid(i) {
                    h.write(&[1]);
                    h.write_u64(x.to_bits());
                } else {
                    h.write(&[0]);
                }
            }
        }
        ChunkValues::Bool(v) => {
            for (i, x) in v.iter().enumerate() {
                if chunk.is_valid(i) {
                    h.write(if *x { &[1, 1] } else { &[1, 0] });
                } else {
                    h.write(&[0]);
                }
            }
        }
        ChunkValues::Str { dict, codes } => {
            for (i, code) in codes.iter().enumerate() {
                if chunk.is_valid(i) {
                    let s = &dict[*code as usize];
                    h.write(&[1]);
                    h.write_u64(s.len() as u64);
                    h.write(s.as_bytes());
                } else {
                    h.write(&[0]);
                }
            }
        }
    }
    h.finish()
}

fn fold_fingerprint(column: &Column, mut chunk_fp: impl FnMut(&Arc<Chunk>) -> u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(dtype_tag(column.dtype()));
    h.write_u64(column.len() as u64);
    for chunk in column.chunks() {
        h.write_u64(chunk_fp(chunk));
    }
    h.finish()
}

/// Deterministic content fingerprint of a column payload: a fold of its
/// chunk fingerprints in chunk order. Name-independent: two columns with
/// equal dtype, chunking and values fingerprint identically. (Chunk
/// boundaries participate — a rechunked column re-fingerprints, which
/// only costs hit rate, never correctness.)
pub fn fingerprint(column: &Column) -> u64 {
    fold_fingerprint(column, |c| chunk_fingerprint(c))
}

/// Hit/miss totals, split by what was looked up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub column_hits: u64,
    pub column_misses: u64,
    pub pair_hits: u64,
    pub pair_misses: u64,
    pub chunk_hits: u64,
    pub chunk_misses: u64,
    /// Per-chunk sketch-partial lookups (approx mode only; always zero
    /// in exact mode).
    pub sketch_hits: u64,
    pub sketch_misses: u64,
    /// Per-chunk sketch merges folded into column sketches (approx mode
    /// only).
    pub sketch_merges: u64,
}

impl CacheStats {
    pub fn hits(&self) -> u64 {
        self.column_hits + self.pair_hits + self.chunk_hits + self.sketch_hits
    }

    pub fn misses(&self) -> u64 {
        self.column_misses + self.pair_misses + self.chunk_misses + self.sketch_misses
    }
}

/// Key of a memoised column profile: the profile depends on the column's
/// name and content plus the config knobs that shape it — including the
/// profiling mode and (in approx mode) the sketch parameters and
/// per-column seed, so switching `exact` ↔ `approx` or changing a sketch
/// size can never serve a stale profile.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ColumnKey {
    name: String,
    bins: usize,
    top_k: usize,
    mode: ProfileMode,
    /// Fingerprint of the sketch parameters + per-column seed in approx
    /// mode; a constant 0 in exact mode so exact entries are unaffected
    /// by sketch-parameter changes.
    sketch_fp: u64,
    fp: u64,
}

impl ColumnKey {
    fn new(column: &Column, config: &ProfileConfig, fp: u64) -> ColumnKey {
        let sketch_fp = match config.mode {
            ProfileMode::Exact => 0,
            ProfileMode::Approx => config.sketch.fingerprint(column_seed(column.name())),
        };
        ColumnKey {
            name: column.name().to_string(),
            bins: config.histogram_bins,
            top_k: config.top_k,
            mode: config.mode,
            sketch_fp,
            fp,
        }
    }
}

struct Inner {
    columns: HashMap<ColumnKey, ColumnProfile>,
    /// Chunk address → content fingerprint. The anchor `Arc<Chunk>`
    /// keeps the allocation alive, so an address in this map can never
    /// be recycled by a different chunk while the entry exists.
    chunk_ptr_fps: HashMap<usize, (Arc<Chunk>, u64)>,
    /// Chunk fingerprint → mergeable numeric partial statistics.
    chunk_partials: HashMap<u64, NumericPartial>,
    /// `(chunk content fingerprint, sketch params+seed fingerprint)` →
    /// per-chunk sketch bundle. The params+seed half is required: content
    /// fingerprints are name-independent while sketch seeds derive from
    /// the column name, so two identical-content columns with different
    /// names must not share a sketch partial.
    chunk_sketches: HashMap<(u64, u64), ColumnSketch>,
    pairs: HashMap<(CorrelationKind, u64, u64), f64>,
}

/// Thread-safe memo of per-column profiles, per-chunk partial stats and
/// correlation-pair values. Shared (behind an `Arc`) by every clone of
/// an engine, so sequential calls — profile, repair, re-profile — reuse
/// each other's work.
pub struct ProfileCache {
    inner: Mutex<Inner>,
    max_columns: usize,
    max_pairs: usize,
    column_hits: AtomicU64,
    column_misses: AtomicU64,
    pair_hits: AtomicU64,
    pair_misses: AtomicU64,
    chunk_hits: AtomicU64,
    chunk_misses: AtomicU64,
    sketch_hits: AtomicU64,
    sketch_misses: AtomicU64,
    sketch_merges: AtomicU64,
}

impl ProfileCache {
    pub fn new() -> ProfileCache {
        ProfileCache::with_capacity(4096, 65536)
    }

    /// A cache holding at most `max_columns` column profiles and
    /// `max_pairs` correlation values / chunk entries. Overflow clears
    /// the grown map wholesale — crude, but eviction order cannot affect
    /// results, only recompute cost.
    pub fn with_capacity(max_columns: usize, max_pairs: usize) -> ProfileCache {
        ProfileCache {
            inner: Mutex::new(Inner {
                columns: HashMap::new(),
                chunk_ptr_fps: HashMap::new(),
                chunk_partials: HashMap::new(),
                chunk_sketches: HashMap::new(),
                pairs: HashMap::new(),
            }),
            max_columns: max_columns.max(1),
            max_pairs: max_pairs.max(1),
            column_hits: AtomicU64::new(0),
            column_misses: AtomicU64::new(0),
            pair_hits: AtomicU64::new(0),
            pair_misses: AtomicU64::new(0),
            chunk_hits: AtomicU64::new(0),
            chunk_misses: AtomicU64::new(0),
            sketch_hits: AtomicU64::new(0),
            sketch_misses: AtomicU64::new(0),
            sketch_merges: AtomicU64::new(0),
        }
    }

    /// Content fingerprint of one chunk, served from the
    /// pointer-identity index (no rehash) when this exact allocation was
    /// seen before.
    pub fn chunk_fingerprint_of(&self, chunk: &Arc<Chunk>) -> u64 {
        let ptr = Arc::as_ptr(chunk) as usize;
        {
            let inner = self.inner.lock();
            if let Some((anchor, fp)) = inner.chunk_ptr_fps.get(&ptr) {
                if Arc::ptr_eq(anchor, chunk) {
                    return *fp;
                }
            }
        }
        // Hash outside the lock: fingerprinting is O(chunk length).
        let fp = chunk_fingerprint(chunk);
        let mut inner = self.inner.lock();
        if inner.chunk_ptr_fps.len() >= self.max_pairs {
            inner.chunk_ptr_fps.clear();
        }
        inner.chunk_ptr_fps.insert(ptr, (Arc::clone(chunk), fp));
        fp
    }

    /// Content fingerprint of `column`: the fold of its chunks'
    /// fingerprints, each served through the pointer fast path. An
    /// edited column re-hashes only the chunks the edit detached.
    pub fn fingerprint_of(&self, column: &Column) -> u64 {
        fold_fingerprint(column, |c| self.chunk_fingerprint_of(c))
    }

    /// Memoised numeric partial for a chunk fingerprint, if present.
    pub fn get_chunk_partial(&self, fp: u64) -> Option<NumericPartial> {
        let hit = self.inner.lock().chunk_partials.get(&fp).copied();
        match &hit {
            Some(_) => self.chunk_hits.fetch_add(1, Ordering::Relaxed),
            None => self.chunk_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Store a freshly computed chunk partial.
    pub fn put_chunk_partial(&self, fp: u64, partial: NumericPartial) {
        let mut inner = self.inner.lock();
        if inner.chunk_partials.len() >= self.max_pairs {
            inner.chunk_partials.clear();
        }
        inner.chunk_partials.insert(fp, partial);
    }

    /// Memoised per-chunk sketch bundle for `(chunk content fingerprint,
    /// sketch params+seed fingerprint)`, if present.
    pub fn get_chunk_sketch(&self, fp: u64, params_fp: u64) -> Option<ColumnSketch> {
        let hit = self
            .inner
            .lock()
            .chunk_sketches
            .get(&(fp, params_fp))
            .cloned();
        match &hit {
            Some(_) => self.sketch_hits.fetch_add(1, Ordering::Relaxed),
            None => self.sketch_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Store a freshly sketched chunk.
    pub fn put_chunk_sketch(&self, fp: u64, params_fp: u64, sketch: &ColumnSketch) {
        let mut inner = self.inner.lock();
        if inner.chunk_sketches.len() >= self.max_pairs {
            inner.chunk_sketches.clear();
        }
        inner.chunk_sketches.insert((fp, params_fp), sketch.clone());
    }

    /// Count sketch merges performed by a column fold (feeds the
    /// `profile_sketch_merges_total` engine metric).
    pub fn note_sketch_merges(&self, n: u64) {
        self.sketch_merges.fetch_add(n, Ordering::Relaxed);
    }

    /// Total resident bytes of every memoised per-chunk sketch (feeds
    /// the `sketch_bytes_resident` engine gauge).
    pub fn sketch_bytes_resident(&self) -> usize {
        self.inner
            .lock()
            .chunk_sketches
            .values()
            .map(ColumnSketch::resident_bytes)
            .sum()
    }

    /// Memoised profile for `column` under `config`, if present.
    pub fn get_column(&self, column: &Column, config: &ProfileConfig) -> Option<ColumnProfile> {
        let fp = self.fingerprint_of(column);
        let key = ColumnKey::new(column, config, fp);
        let hit = self.inner.lock().columns.get(&key).cloned();
        match &hit {
            Some(_) => self.column_hits.fetch_add(1, Ordering::Relaxed),
            None => self.column_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Store a freshly computed profile for `column` under `config`.
    pub fn put_column(&self, column: &Column, config: &ProfileConfig, profile: &ColumnProfile) {
        let fp = self.fingerprint_of(column);
        let key = ColumnKey::new(column, config, fp);
        let mut inner = self.inner.lock();
        if inner.columns.len() >= self.max_columns {
            inner.columns.clear();
        }
        inner.columns.insert(key, profile.clone());
    }

    /// Memoised correlation value for a fingerprint pair, if present.
    pub fn get_pair(&self, kind: CorrelationKind, fp_a: u64, fp_b: u64) -> Option<f64> {
        let hit = self.inner.lock().pairs.get(&(kind, fp_a, fp_b)).copied();
        match &hit {
            Some(_) => self.pair_hits.fetch_add(1, Ordering::Relaxed),
            None => self.pair_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Store a computed correlation value (`NaN` = undefined is stored
    /// too — recomputing it would yield the same `NaN`).
    pub fn put_pair(&self, kind: CorrelationKind, fp_a: u64, fp_b: u64, value: f64) {
        let mut inner = self.inner.lock();
        if inner.pairs.len() >= self.max_pairs {
            inner.pairs.clear();
        }
        inner.pairs.insert((kind, fp_a, fp_b), value);
    }

    /// Hit/miss counters since construction (monotonic; `clear` does not
    /// reset them).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            column_hits: self.column_hits.load(Ordering::Acquire),
            column_misses: self.column_misses.load(Ordering::Acquire),
            pair_hits: self.pair_hits.load(Ordering::Acquire),
            pair_misses: self.pair_misses.load(Ordering::Acquire),
            chunk_hits: self.chunk_hits.load(Ordering::Acquire),
            chunk_misses: self.chunk_misses.load(Ordering::Acquire),
            sketch_hits: self.sketch_hits.load(Ordering::Acquire),
            sketch_misses: self.sketch_misses.load(Ordering::Acquire),
            sketch_merges: self.sketch_merges.load(Ordering::Acquire),
        }
    }

    /// Drop every memoised entry (counters keep counting).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.columns.clear();
        inner.chunk_ptr_fps.clear();
        inner.chunk_partials.clear();
        inner.chunk_sketches.clear();
        inner.pairs.clear();
    }

    /// Number of memoised column profiles (for tests and benches).
    pub fn cached_columns(&self) -> usize {
        self.inner.lock().columns.len()
    }

    /// Number of memoised correlation pairs (for tests and benches).
    pub fn cached_pairs(&self) -> usize {
        self.inner.lock().pairs.len()
    }

    /// Number of memoised chunk partials (for tests and benches).
    pub fn cached_chunk_partials(&self) -> usize {
        self.inner.lock().chunk_partials.len()
    }

    /// Number of memoised per-chunk sketches (for tests and benches).
    pub fn cached_chunk_sketches(&self) -> usize {
        self.inner.lock().chunk_sketches.len()
    }
}

impl Default for ProfileCache {
    fn default() -> ProfileCache {
        ProfileCache::new()
    }
}

impl std::fmt::Debug for ProfileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ProfileCache")
            .field("columns", &self.cached_columns())
            .field("pairs", &self.cached_pairs())
            .field("chunk_partials", &self.cached_chunk_partials())
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ProfileReport;
    use datalens_table::{Table, Value};

    fn col(name: &str, vals: &[Option<i64>]) -> Column {
        Column::from_i64(name, vals.iter().copied())
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = col("a", &[Some(1), None, Some(3)]);
        let renamed = col("b", &[Some(1), None, Some(3)]);
        let changed = col("a", &[Some(1), None, Some(4)]);
        assert_eq!(fingerprint(&a), fingerprint(&renamed));
        assert_ne!(fingerprint(&a), fingerprint(&changed));
        // Dtype participates: Int[1] vs Float[1.0] must differ.
        let f = Column::from_f64("a", [Some(1.0), None, Some(3.0)]);
        assert_ne!(fingerprint(&a), fingerprint(&f));
    }

    #[test]
    fn fingerprint_distinguishes_null_layouts() {
        // [Some, None] vs [None, Some] and shifted string boundaries.
        let a = Column::from_str_vals("s", [Some("ab"), Some("c")]);
        let b = Column::from_str_vals("s", [Some("a"), Some("bc")]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let c = col("x", &[Some(5), None]);
        let d = col("x", &[None, Some(5)]);
        assert_ne!(fingerprint(&c), fingerprint(&d));
    }

    #[test]
    fn chunk_fingerprint_ignores_dictionary_layout() {
        // Same logical strings through different build paths end up with
        // different dictionaries but identical fingerprints.
        let a = Column::from_str_vals("s", [Some("x"), Some("y"), Some("x")]);
        let mut b = Column::from_str_vals("s", [Some("y"), Some("y"), Some("x")]);
        b.set(0, Value::Str("x".into()));
        assert_eq!(
            chunk_fingerprint(&a.chunks()[0]),
            chunk_fingerprint(&b.chunks()[0])
        );
    }

    #[test]
    fn pointer_fast_path_skips_rehash_for_shared_payloads() {
        let cache = ProfileCache::new();
        let a = col("a", &[Some(1), Some(2)]);
        let shared = a.clone();
        assert_eq!(cache.fingerprint_of(&a), cache.fingerprint_of(&shared));
        // A detached copy with equal content still fingerprints equal.
        let mut detached = a.clone();
        detached.set(0, Value::Int(1));
        assert!(!a.shares_data_with(&detached));
        assert_eq!(cache.fingerprint_of(&a), cache.fingerprint_of(&detached));
    }

    #[test]
    fn chunk_partial_roundtrip_counts_hits_and_misses() {
        let cache = ProfileCache::new();
        let c = col("a", &[Some(1), Some(2), Some(3)]);
        let chunk = &c.chunks()[0];
        let fp = cache.chunk_fingerprint_of(chunk);
        assert!(cache.get_chunk_partial(fp).is_none());
        let vals: Vec<f64> = chunk.numeric_rows().map(|(_, v)| v).collect();
        let partial = NumericPartial::of(&vals);
        cache.put_chunk_partial(fp, partial);
        assert_eq!(cache.get_chunk_partial(fp), Some(partial));
        let s = cache.stats();
        assert_eq!((s.chunk_hits, s.chunk_misses), (1, 1));
        assert_eq!(cache.cached_chunk_partials(), 1);
    }

    #[test]
    fn column_roundtrip_hits_after_miss() {
        let cache = ProfileCache::new();
        let config = ProfileConfig::default();
        let c = col("a", &[Some(1), Some(2), Some(2)]);
        assert!(cache.get_column(&c, &config).is_none());
        let t = Table::new("t", vec![c.clone()]).unwrap();
        let report = ProfileReport::build(&t, &config);
        cache.put_column(&c, &config, &report.columns[0]);
        let hit = cache.get_column(&c, &config).expect("cached");
        assert_eq!(hit, report.columns[0]);
        let s = cache.stats();
        assert_eq!((s.column_hits, s.column_misses), (1, 1));
    }

    #[test]
    fn config_change_is_a_miss() {
        let cache = ProfileCache::new();
        let config = ProfileConfig::default();
        let c = col("a", &[Some(1), Some(2), Some(3)]);
        let t = Table::new("t", vec![c.clone()]).unwrap();
        let report = ProfileReport::build(&t, &config);
        cache.put_column(&c, &config, &report.columns[0]);
        let other = ProfileConfig {
            histogram_bins: 3,
            ..ProfileConfig::default()
        };
        assert!(cache.get_column(&c, &other).is_none());
    }

    #[test]
    fn mode_and_sketch_params_participate_in_the_key() {
        // Regression: switching exact ↔ approx, or changing a sketch
        // parameter, must never serve a stale cached profile.
        use crate::approx::ProfileMode;
        use datalens_sketch::SketchParams;

        let cache = ProfileCache::new();
        let exact = ProfileConfig::default();
        let approx = ProfileConfig {
            mode: ProfileMode::Approx,
            ..ProfileConfig::default()
        };
        let c = col("a", &[Some(1), Some(2), Some(3)]);
        let t = Table::new("t", vec![c.clone()]).unwrap();

        let exact_profile = ProfileReport::build(&t, &exact).columns[0].clone();
        cache.put_column(&c, &exact, &exact_profile);
        assert!(
            cache.get_column(&c, &approx).is_none(),
            "approx lookup must not hit an exact entry"
        );

        let approx_profile = ProfileReport::build(&t, &approx).columns[0].clone();
        cache.put_column(&c, &approx, &approx_profile);
        assert_eq!(cache.get_column(&c, &approx), Some(approx_profile));
        assert_eq!(
            cache.get_column(&c, &exact),
            Some(exact_profile),
            "exact entry survives beside the approx one"
        );

        // Changing any sketch parameter re-keys approx entries...
        let approx_small = ProfileConfig {
            sketch: SketchParams {
                kll_k: 100,
                ..SketchParams::default()
            },
            ..approx.clone()
        };
        assert!(cache.get_column(&c, &approx_small).is_none());
        // ...but leaves exact entries alone (exact ignores sketch params).
        let exact_other_sketch = ProfileConfig {
            sketch: SketchParams {
                kll_k: 100,
                ..SketchParams::default()
            },
            ..ProfileConfig::default()
        };
        assert!(cache.get_column(&c, &exact_other_sketch).is_some());
    }

    #[test]
    fn chunk_sketches_are_keyed_by_params_and_seed() {
        // Two identical-content columns with different names share a
        // content fingerprint but must not share sketch partials (the
        // sketch seed derives from the column name).
        use datalens_sketch::{column_seed, SketchParams};

        let cache = ProfileCache::new();
        let params = SketchParams::default();
        let a = col("a", &[Some(1), Some(2)]);
        let b = col("b", &[Some(1), Some(2)]);
        let fp_a = cache.fingerprint_of(&a);
        let fp_b = cache.fingerprint_of(&b);
        assert_eq!(fp_a, fp_b, "content fingerprints are name-independent");

        let sketch_a = crate::approx::sketch_chunk(&a.chunks()[0], params, column_seed("a"));
        let chunk_fp = cache.chunk_fingerprint_of(&a.chunks()[0]);
        cache.put_chunk_sketch(chunk_fp, params.fingerprint(column_seed("a")), &sketch_a);
        assert!(cache
            .get_chunk_sketch(chunk_fp, params.fingerprint(column_seed("a")))
            .is_some());
        assert!(
            cache
                .get_chunk_sketch(chunk_fp, params.fingerprint(column_seed("b")))
                .is_none(),
            "a differently-seeded column must re-sketch"
        );
        assert_eq!(cache.cached_chunk_sketches(), 1);
        let s = cache.stats();
        assert_eq!((s.sketch_hits, s.sketch_misses), (1, 1));
    }

    #[test]
    fn pair_cache_stores_nan_verdicts() {
        let cache = ProfileCache::new();
        assert!(cache.get_pair(CorrelationKind::Pearson, 1, 2).is_none());
        cache.put_pair(CorrelationKind::Pearson, 1, 2, f64::NAN);
        let v = cache.get_pair(CorrelationKind::Pearson, 1, 2).expect("hit");
        assert!(v.is_nan());
        // Kind participates in the key.
        assert!(cache.get_pair(CorrelationKind::Spearman, 1, 2).is_none());
    }

    #[test]
    fn overflow_clears_rather_than_grows() {
        let cache = ProfileCache::with_capacity(2, 2);
        let config = ProfileConfig::default();
        for i in 0..5i64 {
            let c = col(&format!("c{i}"), &[Some(i), Some(i + 1)]);
            let t = Table::new("t", vec![c.clone()]).unwrap();
            let report = ProfileReport::build(&t, &config);
            cache.put_column(&c, &config, &report.columns[0]);
        }
        assert!(cache.cached_columns() <= 2);
        for i in 0..5u64 {
            cache.put_pair(CorrelationKind::Pearson, i, i + 1, 0.5);
        }
        assert!(cache.cached_pairs() <= 2);
        for i in 0..5u64 {
            cache.put_chunk_partial(i, NumericPartial::of(&[i as f64]));
        }
        assert!(cache.cached_chunk_partials() <= 2);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ProfileCache::new();
        cache.put_pair(CorrelationKind::Pearson, 1, 2, 0.5);
        assert!(cache.get_pair(CorrelationKind::Pearson, 1, 2).is_some());
        cache.clear();
        assert_eq!(cache.cached_pairs(), 0);
        assert!(cache.get_pair(CorrelationKind::Pearson, 1, 2).is_none());
        let s = cache.stats();
        assert_eq!((s.pair_hits, s.pair_misses), (1, 1));
    }
}
