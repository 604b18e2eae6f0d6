//! FAHES-style disguised-missing-value detection (Qahtan et al., 2018).
//!
//! Disguised missing values (DMVs) are placeholders entered where data is
//! actually absent: `-1` in an age column, `99999` in a zip code, `"?"` in
//! a name. Following FAHES, three detection channels are implemented:
//!
//! 1. **placeholder strings** — tokens from a curated placeholder
//!    vocabulary appearing in otherwise contentful string columns;
//! 2. **numeric sentinels** — values from the conventional sentinel list
//!    (or with an anomalous frequency spike) that sit at the edge of the
//!    column's distribution;
//! 3. **syntactic outliers** — string values whose character-class pattern
//!    deviates from the column's dominant pattern(s).

use std::collections::HashMap;

use datalens_table::{CellRef, Column, DataType, Table};

use crate::detector::{flag_entries, Detection, DetectionContext, Detector};

/// Configuration for [`FahesDetector`].
#[derive(Debug, Clone)]
pub struct FahesConfig {
    /// Known numeric sentinel spellings.
    pub numeric_sentinels: Vec<i64>,
    /// Known string placeholders (lowercase).
    pub placeholders: Vec<String>,
    /// A repeated value must account for at least this fraction of
    /// non-null entries to be considered a frequency-spike sentinel.
    pub spike_fraction: f64,
    /// A column's dominant syntactic pattern set must cover at least this
    /// fraction of values before deviants are flagged.
    pub pattern_coverage: f64,
}

impl Default for FahesConfig {
    fn default() -> Self {
        FahesConfig {
            numeric_sentinels: vec![-1, -9, -99, -999, -9999, 0, 9999, 99999, 999999],
            placeholders: [
                "?", "-", "--", "unknown", "missing", "none", "n/a", "na", "null", "tbd", "xxx",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            spike_fraction: 0.15,
            pattern_coverage: 0.7,
        }
    }
}

/// The FAHES detector.
#[derive(Debug, Clone, Default)]
pub struct FahesDetector {
    pub config: FahesConfig,
}

impl Detector for FahesDetector {
    fn name(&self) -> &'static str {
        "fahes"
    }

    fn detect(&self, table: &Table, _ctx: &DetectionContext) -> Detection {
        let mut cells = Vec::new();
        for (col_idx, col) in table.columns().iter().enumerate() {
            match col.dtype() {
                DataType::Int | DataType::Float => {
                    self.detect_numeric_sentinels(col, col_idx, &mut cells);
                }
                DataType::Str => {
                    self.detect_placeholders(col, col_idx, &mut cells);
                    self.detect_syntactic_outliers(col, col_idx, &mut cells);
                }
                DataType::Bool => {}
            }
        }
        Detection::new(self.name(), cells)
    }
}

impl FahesDetector {
    /// Channel 2: numeric sentinels. A candidate value is flagged when it
    /// is either a known sentinel or a frequency spike, *and* it sits at
    /// the boundary of the column's distribution (strict min or max, far
    /// from the rest).
    fn detect_numeric_sentinels(&self, col: &Column, col_idx: usize, out: &mut Vec<CellRef>) {
        let mut counts: HashMap<u64, (f64, usize)> = HashMap::new(); // bits -> (value, count)
        for (_, v) in col.numeric_rows() {
            counts.entry(v.to_bits()).or_insert((v, 0)).1 += 1;
        }
        let n: usize = counts.values().map(|&(_, count)| count).sum();
        if n < 8 || counts.len() < 3 {
            return; // near-constant columns are not sentinel material
        }

        for (&bits, &(value, count)) in counts.iter() {
            let is_known =
                value.fract() == 0.0 && self.config.numeric_sentinels.contains(&(value as i64));
            // Spikes are only meaningful in quasi-continuous columns; in a
            // low-cardinality column every legitimate level is "frequent".
            let is_spike = counts.len() >= 10
                && count as f64 >= self.config.spike_fraction * n as f64
                && count >= 3;
            if !is_known && !is_spike {
                continue;
            }
            // Distribution-boundary check over the remaining values.
            let (rest_min, rest_max) = col
                .numeric_rows()
                .filter(|(_, v)| v.to_bits() != bits)
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (_, v)| {
                    (lo.min(v), hi.max(v))
                });
            let span = (rest_max - rest_min).max(1e-9);
            let outside_low = value < rest_min - 0.05 * span;
            let outside_high = value > rest_max + 0.05 * span;
            // `0`/`-1` in a strictly positive column is the classic case.
            let sign_break = is_known && value <= 0.0 && rest_min > 0.0;
            if outside_low || outside_high || sign_break {
                out.extend(
                    col.numeric_rows()
                        .filter(|(_, v)| v.to_bits() == bits)
                        .map(|(row, _)| CellRef::new(row, col_idx)),
                );
            }
        }
    }

    /// Channel 1: placeholder strings in otherwise contentful columns.
    fn detect_placeholders(&self, col: &Column, col_idx: usize, out: &mut Vec<CellRef>) {
        let hits = col.chunks().iter().map(|chunk| {
            chunk
                .dict()
                .iter()
                .map(|s| {
                    let norm = s.trim().to_ascii_lowercase();
                    self.config.placeholders.contains(&norm)
                })
                .collect()
        });
        flag_entries(col, col_idx, hits, out);
    }

    /// Channel 3: syntactic outliers — values whose character-class
    /// pattern is not among the patterns that jointly cover
    /// `pattern_coverage` of the column.
    fn detect_syntactic_outliers(&self, col: &Column, col_idx: usize, out: &mut Vec<CellRef>) {
        // One pattern per dictionary entry, with the entry's row count.
        let patterns: Vec<Vec<(String, usize)>> = col
            .chunks()
            .iter()
            .map(|c| {
                c.dict_tallies()
                    .map(|(s, n)| (syntactic_pattern(s), n))
                    .collect()
            })
            .collect();
        let mut pattern_counts: HashMap<&str, usize> = HashMap::new();
        for (p, n) in patterns.iter().flatten() {
            if *n > 0 {
                *pattern_counts.entry(p).or_insert(0) += n;
            }
        }
        let total: usize = pattern_counts.values().sum();
        if total < 10 || pattern_counts.len() < 2 {
            return;
        }
        // Dominant patterns: greedily take the most common until coverage.
        let mut ranked: Vec<(&str, usize)> = pattern_counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut covered = 0usize;
        let mut dominant: Vec<&str> = Vec::new();
        for &(p, c) in &ranked {
            if (covered as f64) / (total as f64) >= self.config.pattern_coverage {
                break;
            }
            dominant.push(p);
            covered += c;
        }
        // If everything is dominant there is nothing to flag.
        if dominant.len() == ranked.len() {
            return;
        }
        let hits = patterns.iter().map(|ps| {
            ps.iter()
                .map(|(p, _)| !dominant.contains(&p.as_str()))
                .collect()
        });
        flag_entries(col, col_idx, hits, out);
    }
}

/// Character-class pattern: letters → `a`, digits → `9`, whitespace → `_`,
/// everything else kept verbatim; runs compressed (`"Brewery 07"` →
/// `"a_9"`).
pub fn syntactic_pattern(s: &str) -> String {
    let mut out = String::new();
    let mut last: Option<char> = None;
    for ch in s.chars() {
        let class = if ch.is_alphabetic() {
            'a'
        } else if ch.is_ascii_digit() {
            '9'
        } else if ch.is_whitespace() {
            '_'
        } else {
            ch
        };
        if last != Some(class) {
            out.push(class);
            last = Some(class);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{self, MAX_ROWS};
    use proptest::prelude::*;

    #[test]
    fn pattern_compression() {
        assert_eq!(syntactic_pattern("Brewery 07"), "a_9");
        assert_eq!(syntactic_pattern("abc-123"), "a-9");
        assert_eq!(syntactic_pattern(""), "");
        assert_eq!(syntactic_pattern("Ä ß"), "a_a");
    }

    #[test]
    fn flags_minus_one_in_positive_column() {
        let mut vals: Vec<Option<f64>> = (1..40).map(|i| Some(i as f64)).collect();
        vals[7] = Some(-1.0);
        vals[21] = Some(-1.0);
        let t = Table::new("t", vec![Column::from_f64("age", vals)]).unwrap();
        let d = FahesDetector::default().detect(&t, &DetectionContext::default());
        assert_eq!(d.cells, vec![CellRef::new(7, 0), CellRef::new(21, 0)]);
    }

    #[test]
    fn flags_high_sentinel() {
        let mut vals: Vec<Option<i64>> = (0..30).map(|i| Some(100 + i)).collect();
        vals[4] = Some(99999);
        let t = Table::new("t", vec![Column::from_i64("zip", vals)]).unwrap();
        let d = FahesDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.cells.contains(&CellRef::new(4, 0)));
    }

    #[test]
    fn legit_zero_in_column_spanning_zero_not_flagged() {
        // Zeros inside a distribution that naturally includes them.
        let vals: Vec<Option<f64>> = (-10..20).map(|i| Some(i as f64)).collect();
        let t = Table::new("t", vec![Column::from_f64("delta", vals)]).unwrap();
        let d = FahesDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.is_empty(), "{:?}", d.cells);
    }

    #[test]
    fn frequency_spike_at_boundary_flagged_even_if_unknown_sentinel() {
        // 777 is not in the sentinel list, but it is hyper-frequent and max.
        // (Start at 1: a literal 0 would legitimately trip the known-
        // sentinel channel and is not what this test is about.)
        let mut vals: Vec<Option<i64>> = (1..41).map(Some).collect();
        for slot in [3, 9, 15, 22, 28, 33, 37] {
            vals[slot] = Some(777);
        }
        let t = Table::new("t", vec![Column::from_i64("x", vals)]).unwrap();
        let d = FahesDetector::default().detect(&t, &DetectionContext::default());
        assert_eq!(d.len(), 7);
    }

    #[test]
    fn flags_string_placeholders() {
        let vals: Vec<Option<&str>> = vec![
            Some("london"),
            Some("paris"),
            Some("unknown"),
            Some("berlin"),
            Some("?"),
        ];
        let t = Table::new("t", vec![Column::from_str_vals("city", vals)]).unwrap();
        let d = FahesDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.cells.contains(&CellRef::new(2, 0)));
        assert!(d.cells.contains(&CellRef::new(4, 0)));
        assert!(!d.cells.contains(&CellRef::new(0, 0)));
    }

    #[test]
    fn flags_syntactic_outliers() {
        // Codes follow "a9" pattern; one is pure digits.
        let mut vals: Vec<Option<String>> = (0..20).map(|i| Some(format!("AB{i:03}"))).collect();
        vals[11] = Some("12345".to_string());
        let t = Table::new("t", vec![Column::from_str_vals("code", vals)]).unwrap();
        let d = FahesDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.cells.contains(&CellRef::new(11, 0)), "{:?}", d.cells);
    }

    #[test]
    fn diverse_free_text_not_flagged() {
        // Short column: pattern channel requires ≥ 10 values.
        let vals: Vec<Option<&str>> = vec![Some("one"), Some("two-2"), Some("3rd")];
        let t = Table::new("t", vec![Column::from_str_vals("s", vals)]).unwrap();
        let d = FahesDetector::default().detect(&t, &DetectionContext::default());
        assert!(d.is_empty());
    }

    /// The channel kernels FAHES replaced: a `Vec<(row, f64)>` copy per
    /// numeric column and a `String` per row through `get`.
    mod reference {
        use super::*;
        use crate::testgen::numeric_entries;
        use datalens_table::Value;

        pub fn numeric_sentinels(cfg: &FahesConfig, col: &Column) -> Vec<CellRef> {
            let mut out = Vec::new();
            let entries = numeric_entries(col);
            if entries.len() < 8 {
                return out;
            }
            let n = entries.len() as f64;
            let mut counts: HashMap<u64, (f64, usize)> = HashMap::new();
            for (_, v) in &entries {
                counts.entry(v.to_bits()).or_insert((*v, 0)).1 += 1;
            }
            if counts.len() < 3 {
                return out;
            }
            for (_, (value, count)) in counts.iter() {
                let is_known =
                    value.fract() == 0.0 && cfg.numeric_sentinels.contains(&(*value as i64));
                let is_spike =
                    counts.len() >= 10 && *count as f64 >= cfg.spike_fraction * n && *count >= 3;
                if !is_known && !is_spike {
                    continue;
                }
                let rest: Vec<f64> = entries
                    .iter()
                    .map(|(_, v)| *v)
                    .filter(|v| v.to_bits() != value.to_bits())
                    .collect();
                if rest.is_empty() {
                    continue;
                }
                let rest_min = rest.iter().copied().fold(f64::INFINITY, f64::min);
                let rest_max = rest.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let span = (rest_max - rest_min).max(1e-9);
                let outside_low = *value < rest_min - 0.05 * span;
                let outside_high = *value > rest_max + 0.05 * span;
                let sign_break = is_known && *value <= 0.0 && rest_min > 0.0;
                if outside_low || outside_high || sign_break {
                    for (row, v) in &entries {
                        if v.to_bits() == value.to_bits() {
                            out.push(CellRef::new(*row, 0));
                        }
                    }
                }
            }
            out
        }

        pub fn placeholders(cfg: &FahesConfig, col: &Column) -> Vec<CellRef> {
            let mut out = Vec::new();
            for row in 0..col.len() {
                if let Value::Str(s) = col.get(row) {
                    let norm = s.trim().to_ascii_lowercase();
                    if cfg.placeholders.contains(&norm) {
                        out.push(CellRef::new(row, 0));
                    }
                }
            }
            out
        }

        pub fn syntactic_outliers(cfg: &FahesConfig, col: &Column) -> Vec<CellRef> {
            let mut out = Vec::new();
            let mut pattern_counts: HashMap<String, usize> = HashMap::new();
            let mut total = 0usize;
            let mut row_patterns: Vec<Option<String>> = Vec::with_capacity(col.len());
            for row in 0..col.len() {
                match col.get(row) {
                    Value::Str(s) => {
                        let p = syntactic_pattern(&s);
                        *pattern_counts.entry(p.clone()).or_insert(0) += 1;
                        total += 1;
                        row_patterns.push(Some(p));
                    }
                    _ => row_patterns.push(None),
                }
            }
            if total < 10 || pattern_counts.len() < 2 {
                return out;
            }
            let mut ranked: Vec<(&String, &usize)> = pattern_counts.iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            let mut covered = 0usize;
            let mut dominant: Vec<&String> = Vec::new();
            for (p, c) in &ranked {
                if (covered as f64) / (total as f64) >= cfg.pattern_coverage {
                    break;
                }
                dominant.push(p);
                covered += **c;
            }
            if dominant.len() == pattern_counts.len() {
                return out;
            }
            for (row, p) in row_patterns.iter().enumerate() {
                if let Some(p) = p {
                    if !dominant.contains(&p) {
                        out.push(CellRef::new(row, 0));
                    }
                }
            }
            out
        }
    }

    /// Run one channel of `det` on `col` as column 0, cells sorted.
    fn channel(
        det: &FahesDetector,
        col: &Column,
        f: fn(&FahesDetector, &Column, usize, &mut Vec<CellRef>),
    ) -> Vec<CellRef> {
        let mut out = Vec::new();
        f(det, col, 0, &mut out);
        out.sort();
        out
    }

    fn sorted(mut cells: Vec<CellRef>) -> Vec<CellRef> {
        cells.sort();
        cells
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]
        /// The sentinel channel over the numeric row iterator flags
        /// exactly the reference's cells.
        #[test]
        fn numeric_sentinels_match_the_reference_kernel(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..50,
            edits in 0usize..6,
            float in any::<bool>(),
        ) {
            let dtype = if float { DataType::Float } else { DataType::Int };
            let col = testgen::numeric_column(seed, rows, chunk, dtype, edits);
            let det = FahesDetector::default();
            prop_assert_eq!(
                channel(&det, &col, FahesDetector::detect_numeric_sentinels),
                sorted(reference::numeric_sentinels(&det.config, &col))
            );
        }

        /// The placeholder and syntactic-pattern channels over chunk
        /// dictionaries flag exactly the reference's cells, with stale
        /// dictionary entries present.
        #[test]
        fn string_channels_match_the_reference_kernels(
            seed in any::<u64>(),
            rows in 0usize..MAX_ROWS,
            chunk in 1usize..50,
            edits in 0usize..6,
            kind in 0u64..6,
            noise in 0u64..40,
            coverage in 0u8..3,
        ) {
            let col = testgen::string_column(seed, rows, chunk, kind, noise, edits);
            let mut det = FahesDetector::default();
            det.config.pattern_coverage = [0.5, 0.7, 0.9][usize::from(coverage)];
            prop_assert_eq!(
                channel(&det, &col, FahesDetector::detect_placeholders),
                sorted(reference::placeholders(&det.config, &col))
            );
            prop_assert_eq!(
                channel(&det, &col, FahesDetector::detect_syntactic_outliers),
                sorted(reference::syntactic_outliers(&det.config, &col))
            );
        }
    }
}
