//! Approximate profiling: the bounded-memory `ProfileReport` backend.
//!
//! Instead of exact O(rows)-memory statistics, each column is summarised
//! by a [`ColumnSketch`] (HLL distinct, KLL quantiles, space-saving
//! top-k, deterministic sample, exact streaming moments) built **per
//! row-group chunk** in the same chunk-fold shape as
//! [`crate::stats::numeric_stats_chunked`], memoised in the
//! [`ProfileCache`] beside the numeric partials, and merged in chunk
//! order — so editing one chunk re-sketches only that chunk and the
//! report is bit-identical at any thread count, cold or warm cache.
//!
//! Error bounds (documented and property-tested in `datalens-sketch`):
//! distinct counts within ±1.6 % RSE (precision 12), quantiles within
//! ~1 % rank error (k = 200), top-k counts over-reported by at most
//! `n / 64`. Moments (mean/std/skew/kurtosis) are exact up to
//! floating-point rounding; min/max are exact.

use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

use serde::{Deserialize, Error as SerdeError, JsonValue, Serialize};

use datalens_table::chunk::RawRef;
use datalens_table::value::write_float;
use datalens_table::{Chunk, Column, DataType};

pub use datalens_sketch::SketchParams;
use datalens_sketch::{column_seed, ColumnSketch};

use crate::cache::ProfileCache;
use crate::histogram::Histogram;
use crate::report::{ColumnProfile, ProfileConfig};
use crate::stats::{CategoricalStats, NumericStats};

/// Which backend computes per-column statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProfileMode {
    /// Exact statistics: O(rows) time and memory per column.
    #[default]
    Exact,
    /// Sketched statistics: one bounded-memory pass; see the module docs
    /// for the error bounds.
    Approx,
}

impl ProfileMode {
    pub fn as_str(self) -> &'static str {
        match self {
            ProfileMode::Exact => "exact",
            ProfileMode::Approx => "approx",
        }
    }
}

impl fmt::Display for ProfileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ProfileMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ProfileMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "exact" => Ok(ProfileMode::Exact),
            "approx" | "approximate" | "sketch" => Ok(ProfileMode::Approx),
            other => Err(format!("unknown profile mode {other:?} (exact|approx)")),
        }
    }
}

impl Serialize for ProfileMode {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.as_str().to_string())
    }
}

impl Deserialize for ProfileMode {
    fn from_json_value(v: &JsonValue) -> Result<ProfileMode, SerdeError> {
        match v {
            JsonValue::Str(s) => ProfileMode::from_str(s).map_err(SerdeError::new),
            other => Err(SerdeError::new(format!(
                "expected profile mode string, got {}",
                other.kind_name()
            ))),
        }
    }
}

/// The approximation metadata attached to a [`ColumnProfile`] built in
/// [`ProfileMode::Approx`] — the estimate *and* its documented bound, so
/// consumers can render `distinct ≈ N ± B` honestly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproxColumnProfile {
    /// Raw HLL distinct estimate (before rounding into `distinct`).
    pub distinct_est: f64,
    /// Absolute ± bound on `distinct_est` at ~95 % confidence
    /// (two relative standard errors).
    pub distinct_bound: f64,
    /// Documented normalized rank-error bound of the quantile estimates.
    pub quantile_rank_eps: f64,
    /// Maximum over-report of any `top` count (`n / capacity`).
    pub top_max_overcount: u64,
    /// Deterministic pseudo-uniform value sample (bottom-k by hash).
    pub sample: Vec<String>,
    /// Resident bytes of this column's merged sketch bundle.
    pub sketch_bytes: u64,
}

/// Build one chunk's sketch bundle: nulls feed the null tally, values
/// feed the categorical sketches via the same rendering the exact
/// profiler's `top` listing uses, numeric values additionally feed
/// KLL + moments.
pub(crate) fn sketch_chunk(chunk: &Chunk, params: SketchParams, seed: u64) -> ColumnSketch {
    let mut sketch = ColumnSketch::new(params, seed);
    let mut buf = String::new();
    for row in 0..chunk.len() {
        match chunk.raw_at(row) {
            RawRef::Null => sketch.push_null(),
            RawRef::Str(s) => sketch.push_rendered(s),
            RawRef::Int(v) => {
                buf.clear();
                let _ = write!(buf, "{v}");
                sketch.push_numeric(&buf, v as f64);
            }
            RawRef::Bool(b) => {
                sketch.push_numeric(if b { "true" } else { "false" }, f64::from(b));
            }
            RawRef::Float(v) => {
                // Value's float formatting ("1.0", not "1"), as the exact
                // profiler renders it, into the reused buffer.
                buf.clear();
                write_float(&mut buf, v);
                sketch.push_numeric(&buf, v);
            }
        }
    }
    sketch
}

/// The per-row-allocating [`sketch_chunk`] it replaced, kept as the
/// differential-test reference.
#[cfg(test)]
fn sketch_chunk_reference(chunk: &Chunk, params: SketchParams, seed: u64) -> ColumnSketch {
    let mut sketch = ColumnSketch::new(params, seed);
    let mut buf = String::new();
    for row in 0..chunk.len() {
        match chunk.raw_at(row) {
            RawRef::Null => sketch.push_null(),
            RawRef::Str(s) => sketch.push_rendered(s),
            RawRef::Int(v) => {
                buf.clear();
                let _ = write!(buf, "{v}");
                sketch.push_numeric(&buf, v as f64);
            }
            RawRef::Bool(b) => {
                sketch.push_numeric(if b { "true" } else { "false" }, f64::from(b));
            }
            RawRef::Float(v) => {
                sketch.push_numeric(&datalens_table::Value::Float(v).render(), v);
            }
        }
    }
    sketch
}

/// Fold a column's per-chunk sketches (served from `cache` when warm,
/// keyed by chunk content fingerprint + params/seed fingerprint) in
/// chunk order into one merged [`ColumnSketch`].
pub(crate) fn fold_column_sketch(
    column: &Column,
    params: SketchParams,
    cache: Option<&ProfileCache>,
) -> ColumnSketch {
    let seed = column_seed(column.name());
    let params_fp = params.fingerprint(seed);
    let mut merged = ColumnSketch::new(params, seed);
    let mut merges = 0u64;
    for chunk in column.chunks() {
        let sketch = match cache {
            Some(cache) => {
                let fp = cache.chunk_fingerprint_of(chunk);
                match cache.get_chunk_sketch(fp, params_fp) {
                    Some(s) => s,
                    None => {
                        let s = sketch_chunk(chunk, params, seed);
                        cache.put_chunk_sketch(fp, params_fp, &s);
                        s
                    }
                }
            }
            None => sketch_chunk(chunk, params, seed),
        };
        merged.merge(&sketch);
        merges += 1;
    }
    if let Some(cache) = cache {
        cache.note_sketch_merges(merges);
    }
    merged
}

/// The approximate equivalent of
/// [`crate::report::compute_column_profile`]: one bounded-memory pass
/// per chunk, everything else derived from the merged sketch bundle.
pub(crate) fn approx_column_profile(
    column: &Column,
    n_rows: usize,
    config: &ProfileConfig,
    cache: Option<&ProfileCache>,
) -> ColumnProfile {
    let sketch = fold_column_sketch(column, config.sketch, cache);
    let moments = sketch.moments();
    let is_numeric = column.dtype() != DataType::Str;

    let numeric = if is_numeric && moments.count() > 0 {
        let kll = sketch.kll();
        let q1 = kll.quantile(0.25).unwrap_or(moments.min());
        let median = kll.quantile(0.5).unwrap_or(moments.min());
        let q3 = kll.quantile(0.75).unwrap_or(moments.max());
        Some(NumericStats {
            count: moments.count() as usize,
            non_finite: moments.non_finite() as usize,
            mean: moments.mean(),
            std: moments.std(),
            variance: moments.variance(),
            min: moments.min(),
            max: moments.max(),
            q1,
            median,
            q3,
            iqr: q3 - q1,
            skewness: moments.skewness(),
            kurtosis: moments.kurtosis(),
            zeros: moments.zeros() as usize,
            negatives: moments.negatives() as usize,
            sum: moments.sum(),
        })
    } else {
        None
    };

    let histogram = if config.histogram_bins == 0 || numeric.is_none() {
        None
    } else {
        histogram_from_sketch(&sketch, config.histogram_bins)
    };

    let distinct_est = sketch.distinct_estimate();
    let distinct = distinct_est.round() as usize;
    let top: Vec<(String, usize)> = sketch
        .topk()
        .top(config.top_k)
        .into_iter()
        .map(|(v, c)| (v, c as usize))
        .collect();
    let (min_length, max_length) = sketch
        .length_range()
        .map(|(lo, hi)| (lo as usize, hi as usize))
        .unwrap_or((0, 0));
    let categorical = CategoricalStats {
        count: sketch.values() as usize,
        distinct,
        top,
        entropy: entropy_estimate(&sketch),
        min_length,
        max_length,
    };

    let approx = ApproxColumnProfile {
        distinct_est,
        distinct_bound: distinct_est * 2.0 * sketch.hll().relative_standard_error(),
        quantile_rank_eps: sketch.kll().rank_error_bound(),
        top_max_overcount: sketch.topk().max_overcount(),
        sample: sketch.reservoir().values(),
        sketch_bytes: sketch.resident_bytes() as u64,
    };

    ColumnProfile {
        name: column.name().to_string(),
        dtype: column.dtype(),
        null_count: sketch.nulls() as usize,
        null_fraction: if n_rows == 0 {
            0.0
        } else {
            sketch.nulls() as f64 / n_rows as f64
        },
        distinct,
        numeric,
        categorical,
        histogram,
        approx: Some(approx),
    }
}

/// Shannon entropy (bits) estimated from the space-saving counters: the
/// tracked values' probabilities, with the untracked remainder spread
/// uniformly over the estimated remaining distinct values. Exact when
/// the column has fewer distinct values than the sketch capacity.
fn entropy_estimate(sketch: &ColumnSketch) -> f64 {
    let total = sketch.topk().count();
    if total == 0 {
        return 0.0;
    }
    let mut entropy = 0.0f64;
    let mut tracked_count = 0u64;
    let mut tracked_values = 0usize;
    for (_, e) in sketch.topk().entries() {
        // Use the lower bound (count − overcount) for the per-value mass
        // so churned-through rare values do not masquerade as heavy.
        let c = e.count - e.overcount;
        if c > 0 {
            let p = c as f64 / total as f64;
            entropy -= p * p.log2();
        }
        tracked_count += c;
        tracked_values += 1;
    }
    let rest_mass = total.saturating_sub(tracked_count) as f64 / total as f64;
    let rest_distinct = (sketch.distinct_estimate() - tracked_values as f64).max(0.0);
    if rest_mass > 0.0 && rest_distinct >= 1.0 {
        // Uniform spread over the remaining distinct values.
        let p = rest_mass / rest_distinct;
        entropy -= rest_distinct * p * p.log2();
    }
    entropy.max(0.0)
}

/// Reconstruct an equal-width histogram from the KLL CDF between the
/// exact min and max: bin counts are differences of rounded cumulative
/// ranks, so they are non-negative and sum exactly to the value count.
fn histogram_from_sketch(sketch: &ColumnSketch, bins: usize) -> Option<Histogram> {
    let moments = sketch.moments();
    let n = moments.count();
    if n == 0 || bins == 0 {
        return None;
    }
    let (min, max) = (moments.min(), moments.max());
    let non_finite_count = moments.non_finite() as usize;
    if min == max {
        return Some(Histogram {
            edges: vec![min, max],
            counts: vec![n as usize],
            non_finite_count,
        });
    }
    let kll = sketch.kll();
    let width = (max - min) / bins as f64;
    let edges: Vec<f64> = (0..=bins)
        .map(|i| {
            if i == bins {
                max
            } else {
                min + width * i as f64
            }
        })
        .collect();
    // Cumulative counts at each interior edge from the sketch CDF; the
    // outer edges are pinned to 0 and n so the counts always total n.
    let mut cum: Vec<u64> = Vec::with_capacity(bins + 1);
    cum.push(0);
    for edge in edges.iter().take(bins).skip(1) {
        let c = (kll.rank(*edge) * n as f64).round() as u64;
        let floor = *cum.last().unwrap_or(&0);
        cum.push(c.clamp(floor, n));
    }
    cum.push(n);
    let counts: Vec<usize> = cum.windows(2).map(|w| (w[1] - w[0]) as usize).collect();
    Some(Histogram {
        edges,
        counts,
        non_finite_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BuildOptions, ProfileReport};
    use datalens_table::{Table, Value};

    fn table() -> Table {
        let n = 600;
        Table::new(
            "approx-t",
            vec![
                Column::from_i64("id", (0..n).map(Some)),
                Column::from_f64(
                    "metric",
                    (0..n).map(|i| {
                        if i % 13 == 0 {
                            None
                        } else {
                            Some((i % 50) as f64 * 0.5)
                        }
                    }),
                ),
                Column::from_str_vals(
                    "cat",
                    (0..n).map(|i| Some(["red", "green", "blue"][(i % 3) as usize])),
                ),
            ],
        )
        .unwrap()
    }

    fn approx_config() -> ProfileConfig {
        ProfileConfig {
            mode: ProfileMode::Approx,
            ..ProfileConfig::default()
        }
    }

    #[test]
    fn mode_round_trips_through_serde_and_str() {
        for mode in [ProfileMode::Exact, ProfileMode::Approx] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: ProfileMode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mode);
            assert_eq!(mode.as_str().parse::<ProfileMode>().unwrap(), mode);
        }
        assert_eq!(
            serde_json::to_string(&ProfileMode::Approx).unwrap(),
            "\"approx\""
        );
        assert!("bogus".parse::<ProfileMode>().is_err());
    }

    #[test]
    fn approx_report_estimates_are_close_to_exact() {
        let t = table();
        let exact = ProfileReport::build(&t, &ProfileConfig::default());
        let approx = ProfileReport::build(&t, &approx_config());
        for (e, a) in exact.columns.iter().zip(&approx.columns) {
            assert_eq!(e.name, a.name);
            assert_eq!(e.null_count, a.null_count);
            assert!(a.approx.is_some(), "approx metadata missing on {}", a.name);
            // Small columns sit in HLL's linear-counting regime: near-exact.
            let rel = (a.distinct as f64 - e.distinct as f64).abs() / e.distinct.max(1) as f64;
            assert!(
                rel <= 0.02,
                "{}: distinct {} vs {}",
                a.name,
                a.distinct,
                e.distinct
            );
        }
        // Exact numeric moments match to rounding.
        let en = exact.column("metric").unwrap().numeric.as_ref().unwrap();
        let an = approx.column("metric").unwrap().numeric.as_ref().unwrap();
        assert_eq!(en.count, an.count);
        assert!((en.mean - an.mean).abs() < 1e-9);
        assert!((en.std - an.std).abs() < 1e-9);
        assert_eq!((en.min, en.max), (an.min, an.max));
        assert_eq!((en.zeros, en.negatives), (an.zeros, an.negatives));
        // Top values agree exactly (distinct counts below capacity).
        let ec = &exact.column("cat").unwrap().categorical;
        let ac = &approx.column("cat").unwrap().categorical;
        assert_eq!(ec.top, ac.top);
        assert_eq!(
            (ec.min_length, ec.max_length),
            (ac.min_length, ac.max_length)
        );
        // Exact mode carries no approx metadata.
        assert!(exact.columns.iter().all(|c| c.approx.is_none()));
    }

    #[test]
    fn approx_histogram_counts_sum_to_value_count() {
        let t = table();
        let approx = ProfileReport::build(&t, &approx_config());
        let col = approx.column("metric").unwrap();
        let h = col.histogram.as_ref().unwrap();
        let n = col.numeric.as_ref().unwrap().count;
        assert_eq!(h.total(), n);
        assert_eq!(h.n_bins(), 10);
        assert!(h.counts.iter().all(|&c| c <= n));
    }

    #[test]
    fn approx_is_deterministic_across_threads_and_cache() {
        let t = table();
        let config = approx_config();
        let baseline = ProfileReport::build(&t, &config);
        let cache = ProfileCache::new();
        for threads in [1usize, 2, 8] {
            for _ in 0..2 {
                let r = ProfileReport::build_with(
                    &t,
                    &config,
                    &BuildOptions {
                        threads,
                        cache: Some(&cache),
                    },
                );
                assert_eq!(
                    serde_json::to_string(&r).unwrap(),
                    serde_json::to_string(&baseline).unwrap(),
                    "threads={threads}"
                );
            }
        }
        // Cold builds sketch each column once; warm builds hit at the
        // column level before ever reaching the chunk sketches.
        let stats = cache.stats();
        assert_eq!(stats.sketch_misses, 3);
        assert!(stats.column_hits > 0);
    }

    #[test]
    fn editing_one_chunk_resketches_only_that_chunk() {
        let n = 240;
        let t = Table::new(
            "chunks",
            vec![Column::from_i64("v", (0..n).map(Some)).rechunk(60)],
        )
        .unwrap();
        assert_eq!(t.columns()[0].chunks().len(), 4);
        let cache = ProfileCache::new();
        let config = approx_config();
        let opts = BuildOptions {
            threads: 1,
            cache: Some(&cache),
        };
        ProfileReport::build_with(&t, &config, &opts);
        let cold = cache.stats();
        assert_eq!(cold.sketch_misses, 4);

        let mut edited = t.clone();
        edited
            .set(datalens_table::CellRef { row: 130, col: 0 }, Value::Int(-1))
            .unwrap();
        ProfileReport::build_with(&edited, &config, &opts);
        let warm = cache.stats();
        assert_eq!(
            warm.sketch_misses - cold.sketch_misses,
            1,
            "one chunk re-sketched"
        );
        assert_eq!(
            warm.sketch_hits - cold.sketch_hits,
            3,
            "three chunks reused"
        );
    }

    const MAX_ROWS: usize = if cfg!(debug_assertions) { 60 } else { 3_000 };

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 48 } else { 256 }
        ))]
        /// Every chunk of a rechunked, edited column sketches to exactly
        /// the bundle (and serialized bytes) the reference kernel builds.
        /// Values cover nulls, NaN, ±Inf, ±0.0, whole and huge floats, and
        /// enough distinct values to evict top-k counters.
        #[test]
        fn sketch_chunk_matches_the_reference_kernel(
            seed in proptest::prelude::any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk_rows in 1usize..200,
            dtype_pick in 0usize..4,
            distinct in 1u64..400,
            edits in 0usize..6,
        ) {
            let dtype = [DataType::Int, DataType::Float, DataType::Bool, DataType::Str][dtype_pick];
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e15, 2.0];
            let mut cell = || {
                let u = next();
                if u % 11 == 0 {
                    return Value::Null;
                }
                let k = (u >> 4) % distinct;
                match dtype {
                    DataType::Int => Value::Int(k as i64 - 50),
                    DataType::Float if u % 5 == 0 => Value::Float(specials[(k % 7) as usize]),
                    DataType::Float => Value::Float(k as f64 * 0.37 - 20.0),
                    DataType::Bool => Value::Bool(k % 2 == 0),
                    DataType::Str => Value::Str(format!("s{k}")),
                }
            };
            let values: Vec<Value> = (0..rows).map(|_| cell()).collect();
            let mut col = Column::from_values("c", dtype, values).rechunk(chunk_rows);
            for e in 0..edits.min(rows) {
                col.set((e * 7919) % rows, cell());
            }
            let params = SketchParams::default();
            let seed = column_seed(col.name());
            for chunk in col.chunks() {
                let got = sketch_chunk(chunk, params, seed);
                let want = sketch_chunk_reference(chunk, params, seed);
                proptest::prop_assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&want).unwrap()
                );
                proptest::prop_assert_eq!(got.resident_bytes(), want.resident_bytes());
            }
        }
    }

    #[test]
    fn all_null_and_constant_columns_profile_cleanly() {
        let t = Table::new(
            "degenerate",
            vec![
                Column::from_f64("nulls", (0..50).map(|_| None)),
                Column::from_i64("constant", (0..50).map(|_| Some(7))),
            ],
        )
        .unwrap();
        let r = ProfileReport::build(&t, &approx_config());
        let nulls = r.column("nulls").unwrap();
        assert_eq!(nulls.null_count, 50);
        assert_eq!(nulls.distinct, 0);
        assert!(nulls.numeric.is_none());
        assert!(nulls.histogram.is_none());
        let constant = r.column("constant").unwrap();
        assert_eq!(constant.distinct, 1);
        let cn = constant.numeric.as_ref().unwrap();
        assert_eq!((cn.min, cn.max, cn.median), (7.0, 7.0, 7.0));
        assert_eq!(cn.std, 0.0);
        let h = constant.histogram.as_ref().unwrap();
        assert_eq!(h.counts, vec![50]);
    }
}
