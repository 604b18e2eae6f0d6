//! Per-column descriptive statistics.
//!
//! Two computation paths produce the same [`NumericStats`]:
//! [`numeric_stats_of`] over a flat slice, and the chunk-merge path
//! ([`NumericPartial`] per row-group chunk, folded with
//! [`NumericPartial::merge`] in chunk order). For a single-chunk column
//! the two are bit-identical — same accumulation order, same operations
//! — which is what keeps seed-scale profile reports byte-stable across
//! the chunked refactor. Order statistics (min/max/quantiles) and the
//! standardised moments (skewness/kurtosis) are always computed from the
//! full value sequence, so they are chunking-independent by
//! construction; only mean/variance go through the Chan-style merge,
//! whose last-bit rounding can differ from the flat path once a column
//! spans multiple chunks.

use serde::{Deserialize, Serialize};

use datalens_table::{Chunk, Column, DataType};

use crate::cache::ProfileCache;

/// Summary statistics for a numeric column (nulls and non-finite values
/// excluded).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumericStats {
    /// Number of finite values the statistics are computed over.
    pub count: usize,
    /// NaN/±Inf inputs excluded from every statistic — surfaced instead
    /// of silently poisoning mean/std/quantiles.
    pub non_finite: usize,
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    pub variance: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub iqr: f64,
    pub skewness: f64,
    pub kurtosis: f64,
    pub zeros: usize,
    pub negatives: usize,
    pub sum: f64,
}

/// Compute [`NumericStats`] over the non-null numeric values of a column.
/// Returns `None` when the column has no numeric values.
pub fn numeric_stats(column: &Column) -> Option<NumericStats> {
    let values = column.numeric_values();
    numeric_stats_of(&values)
}

/// Compute [`NumericStats`] over a raw slice. NaN and ±Inf entries are
/// filtered out (and counted in [`NumericStats::non_finite`]) the same
/// way [`crate::Histogram::build`] excludes them — a single NaN used to
/// turn mean/std/quantiles into NaN, and ±Inf pinned min/max. Returns
/// `None` when no finite values remain.
pub fn numeric_stats_of(raw: &[f64]) -> Option<NumericStats> {
    let mut values = Vec::with_capacity(raw.len());
    let mut non_finite = 0usize;
    for &v in raw {
        if v.is_finite() {
            values.push(v);
        } else {
            non_finite += 1;
        }
    }
    let values = &values[..];
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    let sum: f64 = values.iter().sum();
    let mean = sum / n;
    let m2: f64 = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let std = m2.sqrt();
    let (skewness, kurtosis) = if std > 0.0 {
        let m3: f64 = values
            .iter()
            .map(|v| ((v - mean) / std).powi(3))
            .sum::<f64>()
            / n;
        let m4: f64 = values
            .iter()
            .map(|v| ((v - mean) / std).powi(4))
            .sum::<f64>()
            / n;
        (m3, m4 - 3.0)
    } else {
        (0.0, 0.0)
    };
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q1 = quantile_sorted(&sorted, 0.25);
    let median = quantile_sorted(&sorted, 0.5);
    let q3 = quantile_sorted(&sorted, 0.75);
    Some(NumericStats {
        count: values.len(),
        non_finite,
        mean,
        std,
        variance: m2,
        min: sorted[0],
        max: *sorted.last().expect("nonempty"),
        q1,
        median,
        q3,
        iqr: q3 - q1,
        skewness,
        kurtosis,
        zeros: values.iter().filter(|&&v| v == 0.0).count(),
        negatives: values.iter().filter(|&&v| v < 0.0).count(),
        sum,
    })
}

/// Mergeable partial statistics of one row-group chunk's finite values.
/// `mean`/`m2` combine Chan-style, the additive fields just sum — so a
/// column's moments fold deterministically in chunk order, and an edited
/// chunk invalidates only its own partial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericPartial {
    /// Finite values covered.
    pub count: usize,
    /// NaN/±Inf inputs excluded (and surfaced) like [`numeric_stats_of`].
    pub non_finite: usize,
    pub sum: f64,
    pub mean: f64,
    /// Sum of squared deviations from `mean` (not divided by count).
    pub m2: f64,
    pub min: f64,
    pub max: f64,
    pub zeros: usize,
    pub negatives: usize,
}

impl NumericPartial {
    /// Compute a partial over a raw value slice, filtering (and
    /// counting) non-finite entries exactly like [`numeric_stats_of`] —
    /// same accumulation order, so a single-chunk column's partial
    /// reproduces the flat path bit for bit.
    pub fn of(raw: &[f64]) -> NumericPartial {
        let mut values = Vec::with_capacity(raw.len());
        let mut non_finite = 0usize;
        for &v in raw {
            if v.is_finite() {
                values.push(v);
            } else {
                non_finite += 1;
            }
        }
        if values.is_empty() {
            return NumericPartial {
                count: 0,
                non_finite,
                sum: 0.0,
                mean: 0.0,
                m2: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                zeros: 0,
                negatives: 0,
            };
        }
        let n = values.len() as f64;
        let sum: f64 = values.iter().sum();
        let mean = sum / n;
        let m2: f64 = values.iter().map(|v| (v - mean).powi(2)).sum();
        NumericPartial {
            count: values.len(),
            non_finite,
            sum,
            mean,
            m2,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            zeros: values.iter().filter(|&&v| v == 0.0).count(),
            negatives: values.iter().filter(|&&v| v < 0.0).count(),
        }
    }

    /// Compute a partial over one chunk's non-null values. `None` for
    /// string chunks (no numeric view).
    pub fn of_chunk(chunk: &Chunk) -> Option<NumericPartial> {
        if chunk.dtype() == DataType::Str {
            return None;
        }
        let mut values = Vec::with_capacity(chunk.len());
        values.extend(chunk.numeric_rows().map(|(_, v)| v));
        Some(NumericPartial::of(&values))
    }

    /// Chan-style pairwise combination: exact for the additive fields,
    /// numerically stable for mean/M2. Merging with an empty partial
    /// returns the other side unchanged (up to summed additive fields),
    /// so folds never divide by zero.
    pub fn merge(&self, other: &NumericPartial) -> NumericPartial {
        let non_finite = self.non_finite + other.non_finite;
        if self.count == 0 {
            return NumericPartial {
                non_finite,
                ..*other
            };
        }
        if other.count == 0 {
            return NumericPartial {
                non_finite,
                ..*self
            };
        }
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        NumericPartial {
            count: self.count + other.count,
            non_finite,
            sum: self.sum + other.sum,
            mean: self.mean + delta * nb / n,
            m2: self.m2 + other.m2 + delta * delta * na * nb / n,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            zeros: self.zeros + other.zeros,
            negatives: self.negatives + other.negatives,
        }
    }
}

/// Compute [`NumericStats`] chunk-wise: per-chunk [`NumericPartial`]s
/// (served from `cache` when warm, keyed by chunk fingerprint) folded in
/// chunk order for the moments, plus one pass over the finite values for
/// the order statistics and standardised moments. Returns `None` for
/// string columns or when no finite values exist.
///
/// For a single-chunk column this is bit-identical to
/// [`numeric_stats`]; for multi-chunk columns only mean/variance/std
/// (and the skew/kurt standardisation they feed) can differ in the last
/// bits through the merge.
pub fn numeric_stats_chunked(
    column: &Column,
    cache: Option<&ProfileCache>,
) -> Option<NumericStats> {
    if column.dtype() == DataType::Str {
        return None;
    }
    let mut merged: Option<NumericPartial> = None;
    let mut finite: Vec<f64> = Vec::new();
    let mut buf: Vec<f64> = Vec::new();
    for chunk in column.chunks() {
        buf.clear();
        buf.extend(chunk.numeric_rows().map(|(_, v)| v));
        let partial = match cache {
            Some(cache) => {
                let fp = cache.chunk_fingerprint_of(chunk);
                match cache.get_chunk_partial(fp) {
                    Some(p) => p,
                    None => {
                        let p = NumericPartial::of(&buf);
                        cache.put_chunk_partial(fp, p);
                        p
                    }
                }
            }
            None => NumericPartial::of(&buf),
        };
        merged = Some(match merged {
            Some(m) => m.merge(&partial),
            None => partial,
        });
        finite.extend(buf.iter().copied().filter(|v| v.is_finite()));
    }
    let merged = merged?;
    if merged.count == 0 {
        return None;
    }
    let n = merged.count as f64;
    let mean = merged.mean;
    let variance = merged.m2 / n;
    let std = variance.sqrt();
    let (skewness, kurtosis) = if std > 0.0 {
        let m3: f64 = finite
            .iter()
            .map(|v| ((v - mean) / std).powi(3))
            .sum::<f64>()
            / n;
        let m4: f64 = finite
            .iter()
            .map(|v| ((v - mean) / std).powi(4))
            .sum::<f64>()
            / n;
        (m3, m4 - 3.0)
    } else {
        (0.0, 0.0)
    };
    let mut sorted = finite;
    sorted.sort_by(f64::total_cmp);
    let q1 = quantile_sorted(&sorted, 0.25);
    let median = quantile_sorted(&sorted, 0.5);
    let q3 = quantile_sorted(&sorted, 0.75);
    Some(NumericStats {
        count: merged.count,
        non_finite: merged.non_finite,
        mean,
        std,
        variance,
        min: sorted[0],
        max: *sorted.last().expect("nonempty"),
        q1,
        median,
        q3,
        iqr: q3 - q1,
        skewness,
        kurtosis,
        zeros: merged.zeros,
        negatives: merged.negatives,
        sum: merged.sum,
    })
}

/// Linear-interpolation quantile over an ascending-sorted slice
/// (numpy's default "linear" method).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Summary statistics for a categorical (or any) column based on rendered
/// distinct values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoricalStats {
    pub count: usize,
    pub distinct: usize,
    /// Most frequent values with counts, descending, capped at `top_k`.
    pub top: Vec<(String, usize)>,
    /// Shannon entropy (bits) of the value distribution.
    pub entropy: f64,
    /// Length of the shortest / longest rendered value.
    pub min_length: usize,
    pub max_length: usize,
}

/// Compute categorical stats over non-null values, keeping the `top_k`
/// most frequent.
pub fn categorical_stats(column: &Column, top_k: usize) -> CategoricalStats {
    let counts = column.value_counts();
    let total: usize = counts.iter().map(|(_, c)| c).sum();
    let entropy = if total == 0 {
        0.0
    } else {
        -counts
            .iter()
            .map(|(_, c)| {
                let p = *c as f64 / total as f64;
                p * p.log2()
            })
            .sum::<f64>()
    };
    let lengths: Vec<usize> = counts
        .iter()
        .map(|(v, _)| v.render().chars().count())
        .collect();
    CategoricalStats {
        count: total,
        distinct: counts.len(),
        top: counts
            .iter()
            .take(top_k)
            .map(|(v, c)| (v.render(), *c))
            .collect(),
        entropy,
        min_length: lengths.iter().copied().min().unwrap_or(0),
        max_length: lengths.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_table::Column;

    #[test]
    fn numeric_stats_basics() {
        let c = Column::from_f64("x", [Some(1.0), Some(2.0), Some(3.0), Some(4.0), None]);
        let s = numeric_stats(&c).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert_eq!(s.sum, 10.0);
    }

    #[test]
    fn zeros_negatives_counted() {
        let c = Column::from_i64("x", [Some(0), Some(-1), Some(-2), Some(5)]);
        let s = numeric_stats(&c).unwrap();
        assert_eq!(s.zeros, 1);
        assert_eq!(s.negatives, 2);
    }

    #[test]
    fn constant_column_zero_spread() {
        let c = Column::from_f64("x", [Some(7.0); 5]);
        let s = numeric_stats(&c).unwrap();
        assert_eq!(s.std, 0.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.kurtosis, 0.0);
        assert_eq!(s.iqr, 0.0);
    }

    #[test]
    fn skewness_sign_matches_tail() {
        let right_tail: Vec<Option<f64>> =
            vec![Some(1.0), Some(1.0), Some(1.0), Some(1.0), Some(100.0)];
        let s = numeric_stats(&Column::from_f64("x", right_tail)).unwrap();
        assert!(s.skewness > 0.0);
    }

    #[test]
    fn all_null_returns_none() {
        let c = Column::from_f64("x", [None, None]);
        assert!(numeric_stats(&c).is_none());
        let s = Column::from_str_vals("s", [Some("a")]);
        assert!(numeric_stats(&s).is_none());
    }

    #[test]
    fn non_finite_values_excluded_and_counted() {
        // Regression: NaN poisoned mean/std/quantiles, +Inf pinned max
        // and -Inf both pinned min and counted as a "negative".
        let c = Column::from_f64(
            "x",
            [
                Some(1.0),
                Some(f64::NAN),
                Some(3.0),
                Some(f64::INFINITY),
                Some(f64::NEG_INFINITY),
                None,
            ],
        );
        let s = numeric_stats(&c).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.non_finite, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!((s.min, s.max), (1.0, 3.0));
        assert_eq!(s.negatives, 0);
        assert!(s.std.is_finite() && s.median.is_finite());
    }

    #[test]
    fn all_non_finite_returns_none() {
        let c = Column::from_f64("x", [Some(f64::NAN), Some(f64::INFINITY)]);
        assert!(numeric_stats(&c).is_none());
    }

    #[test]
    fn quantile_interpolation() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 25.0);
        assert!((quantile_sorted(&sorted, 1.0 / 3.0) - 20.0).abs() < 1e-9);
        assert_eq!(quantile_sorted(&[5.0], 0.75), 5.0);
    }

    #[test]
    fn chunked_path_is_bit_identical_for_single_chunk_columns() {
        // Seed-scale columns fit one chunk, where the merge path must
        // reproduce the flat path exactly — every field, every bit.
        let vals: Vec<Option<f64>> = (0..500)
            .map(|i| {
                if i % 11 == 0 {
                    None
                } else if i % 97 == 0 {
                    Some(f64::NAN)
                } else {
                    Some((i as f64 * 0.37).sin() * 50.0 - 10.0)
                }
            })
            .collect();
        let c = Column::from_f64("x", vals);
        assert_eq!(c.chunks().len(), 1);
        let flat = numeric_stats(&c).unwrap();
        let chunked = numeric_stats_chunked(&c, None).unwrap();
        assert_eq!(
            serde_json::to_string(&flat).unwrap(),
            serde_json::to_string(&chunked).unwrap()
        );
    }

    #[test]
    fn merged_partials_agree_with_flat_stats_across_chunks() {
        let vals: Vec<Option<f64>> = (0..300)
            .map(|i| {
                if i % 13 == 0 {
                    None
                } else {
                    Some(i as f64 * 1.5 - 30.0)
                }
            })
            .collect();
        let c = Column::from_f64("x", vals).rechunk(37);
        assert!(c.chunks().len() > 1);
        let flat = numeric_stats(&c).unwrap();
        let chunked = numeric_stats_chunked(&c, None).unwrap();
        // Exact: counts, order statistics, additive tallies.
        assert_eq!(flat.count, chunked.count);
        assert_eq!(flat.non_finite, chunked.non_finite);
        assert_eq!((flat.min, flat.max), (chunked.min, chunked.max));
        assert_eq!(flat.median, chunked.median);
        assert_eq!(
            (flat.zeros, flat.negatives),
            (chunked.zeros, chunked.negatives)
        );
        // Merge-folded moments: equal up to last-bit rounding.
        assert!((flat.mean - chunked.mean).abs() <= 1e-9 * flat.mean.abs().max(1.0));
        assert!((flat.variance - chunked.variance).abs() <= 1e-9 * flat.variance.max(1.0));
        assert!((flat.skewness - chunked.skewness).abs() <= 1e-9);
    }

    #[test]
    fn partial_merge_handles_empty_sides() {
        let empty = NumericPartial::of(&[]);
        let vals = NumericPartial::of(&[1.0, 2.0, 3.0]);
        assert_eq!(empty.merge(&vals), vals);
        assert_eq!(vals.merge(&empty), vals);
        let nan_only = NumericPartial::of(&[f64::NAN]);
        let merged = nan_only.merge(&vals);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.non_finite, 1);
        assert_eq!(merged.mean, 2.0);
    }

    #[test]
    fn partial_merge_is_chan_exact_on_balanced_halves() {
        let all: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let a = NumericPartial::of(&all[..32]);
        let b = NumericPartial::of(&all[32..]);
        let merged = a.merge(&b);
        let flat = NumericPartial::of(&all);
        assert_eq!(merged.count, flat.count);
        assert_eq!(merged.sum, flat.sum);
        assert_eq!(merged.mean, flat.mean);
        assert!((merged.m2 - flat.m2).abs() < 1e-9);
        assert_eq!((merged.min, merged.max), (flat.min, flat.max));
    }

    #[test]
    fn of_chunk_skips_string_chunks() {
        let s = Column::from_str_vals("s", [Some("a"), Some("b")]);
        assert!(NumericPartial::of_chunk(&s.chunks()[0]).is_none());
        let i = Column::from_i64("i", [Some(1), None, Some(3)]);
        let p = NumericPartial::of_chunk(&i.chunks()[0]).unwrap();
        assert_eq!(p.count, 2);
        assert_eq!(p.sum, 4.0);
    }

    #[test]
    fn categorical_stats_top_and_entropy() {
        let c = Column::from_str_vals(
            "s",
            [Some("a"), Some("a"), Some("b"), Some("a"), Some("c"), None],
        );
        let s = categorical_stats(&c, 2);
        assert_eq!(s.count, 5);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.top[0], ("a".to_string(), 3));
        assert_eq!(s.top.len(), 2);
        assert!(s.entropy > 0.0);
        assert_eq!(s.min_length, 1);
        assert_eq!(s.max_length, 1);
    }

    #[test]
    fn uniform_distribution_has_max_entropy() {
        let uniform = Column::from_str_vals("s", [Some("a"), Some("b"), Some("c"), Some("d")]);
        let skewed = Column::from_str_vals("s", [Some("a"), Some("a"), Some("a"), Some("b")]);
        assert!(categorical_stats(&uniform, 5).entropy > categorical_stats(&skewed, 5).entropy);
        assert!((categorical_stats(&uniform, 5).entropy - 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_categorical_zero_entropy() {
        let c = Column::from_str_vals("s", [Some("only"), Some("only")]);
        assert_eq!(categorical_stats(&c, 5).entropy, 0.0);
    }
}
