//! The full profile report — the structure behind the "Data Profile" tab.
//!
//! [`ProfileReport::build_with`] fans the per-column work and the
//! correlation matrices' `(i, j)` pairs out across scoped threads and can
//! memoise both through a [`ProfileCache`]. Results are always assembled
//! in input-index order, so the report is bit-identical at any thread
//! count and whether the cache was cold or warm.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use datalens_table::{Column, DataType, Table};

use crate::alerts::{scan_with, Alert, AlertConfig};
use crate::approx::{approx_column_profile, ApproxColumnProfile, ProfileMode, SketchParams};
use crate::cache::ProfileCache;
use crate::correlation::{coefficient, prepare, CorrelationKind, CorrelationMatrix, Prepared};
use crate::histogram::Histogram;
use crate::stats::{categorical_stats, numeric_stats_chunked, CategoricalStats, NumericStats};

/// Profiling options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileConfig {
    /// Histogram bin count for numeric columns.
    pub histogram_bins: usize,
    /// How many most-frequent values to keep per column.
    pub top_k: usize,
    pub alerts: AlertConfig,
    /// Which backend computes per-column statistics (exact by default).
    #[serde(default)]
    pub mode: ProfileMode,
    /// Sketch sizes used by [`ProfileMode::Approx`]; ignored in exact
    /// mode (and excluded from exact cache keys).
    #[serde(default)]
    pub sketch: SketchParams,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            histogram_bins: 10,
            top_k: 10,
            alerts: AlertConfig::default(),
            mode: ProfileMode::default(),
            sketch: SketchParams::default(),
        }
    }
}

/// Profile of a single column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnProfile {
    pub name: String,
    pub dtype: DataType,
    pub null_count: usize,
    pub null_fraction: f64,
    pub distinct: usize,
    /// Numeric summary, present for int/float/bool columns with data.
    pub numeric: Option<NumericStats>,
    /// Frequency summary, always present.
    pub categorical: CategoricalStats,
    /// Histogram, present for numeric columns with data.
    pub histogram: Option<Histogram>,
    /// Approximation metadata (estimates and their bounds), present only
    /// when the profile was built in [`ProfileMode::Approx`].
    #[serde(default)]
    pub approx: Option<ApproxColumnProfile>,
}

/// Table-level overview statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    pub n_rows: usize,
    pub n_columns: usize,
    pub total_cells: usize,
    pub missing_cells: usize,
    pub missing_fraction: f64,
    pub duplicate_rows: usize,
}

/// The complete profiling report for a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    pub dataset: String,
    pub table: TableStats,
    pub columns: Vec<ColumnProfile>,
    pub pearson: CorrelationMatrix,
    pub spearman: CorrelationMatrix,
    pub cramers_v: CorrelationMatrix,
    pub alerts: Vec<Alert>,
}

/// How [`ProfileReport::build_with`] schedules and memoises its work.
#[derive(Clone, Copy, Default)]
pub struct BuildOptions<'a> {
    /// Worker threads for the per-column and per-pair fan-out; `0` or
    /// `1` run fully sequentially.
    pub threads: usize,
    /// Memoise per-column profiles and correlation pairs across builds.
    pub cache: Option<&'a ProfileCache>,
}

impl ProfileReport {
    /// Profile `table` with the given configuration, sequentially and
    /// without memoisation.
    pub fn build(table: &Table, config: &ProfileConfig) -> ProfileReport {
        Self::build_with(table, config, &BuildOptions::default())
    }

    /// Profile `table`, fanning per-column stats/histograms and the
    /// three correlation matrices' pairs out across `opts.threads`
    /// scoped threads and reusing `opts.cache` entries where the content
    /// fingerprints match. Output is bit-identical to [`Self::build`]
    /// regardless of thread count or cache state: work units are
    /// independent and assembled in input-index order, and the cache
    /// stores the exact values a cold build computes.
    pub fn build_with(table: &Table, config: &ProfileConfig, opts: &BuildOptions) -> ProfileReport {
        let n_rows = table.n_rows();
        let n_columns = table.n_cols();
        let missing_cells = table.null_count();
        let total_cells = n_rows * n_columns;
        let duplicate_rows = table.duplicate_rows().len();

        let cols = table.columns();
        let columns: Vec<ColumnProfile> = map_indexed(cols.len(), opts.threads, |i| {
            profile_column(&cols[i], n_rows, config, opts.cache)
        });

        let (pearson, spearman, cramers_v) = correlation_matrices(table, opts);
        let alerts = scan_with(table, &config.alerts, &columns, &pearson, duplicate_rows);

        ProfileReport {
            dataset: table.name().to_string(),
            table: TableStats {
                n_rows,
                n_columns,
                total_cells,
                missing_cells,
                missing_fraction: if total_cells == 0 {
                    0.0
                } else {
                    missing_cells as f64 / total_cells as f64
                },
                duplicate_rows,
            },
            columns,
            pearson,
            spearman,
            cramers_v,
            alerts,
        }
    }

    /// Look up a column's profile by name.
    pub fn column(&self, name: &str) -> Option<&ColumnProfile> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Render the report as a compact text summary (the Data Profile tab).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== Data Profile: {} ===\n", self.dataset));
        out.push_str(&format!(
            "rows: {}   columns: {}   missing: {}/{} ({:.1}%)   duplicate rows: {}\n\n",
            self.table.n_rows,
            self.table.n_columns,
            self.table.missing_cells,
            self.table.total_cells,
            self.table.missing_fraction * 100.0,
            self.table.duplicate_rows,
        ));
        for col in &self.columns {
            match &col.approx {
                Some(a) => out.push_str(&format!(
                    "-- {} ({})  nulls: {} ({:.1}%)  distinct: ~{} (±{:.0})\n",
                    col.name,
                    col.dtype,
                    col.null_count,
                    col.null_fraction * 100.0,
                    col.distinct,
                    a.distinct_bound.ceil(),
                )),
                None => out.push_str(&format!(
                    "-- {} ({})  nulls: {} ({:.1}%)  distinct: {}\n",
                    col.name,
                    col.dtype,
                    col.null_count,
                    col.null_fraction * 100.0,
                    col.distinct,
                )),
            }
            if let Some(n) = &col.numeric {
                out.push_str(&format!(
                    "   mean {:.4}  std {:.4}  min {:.4}  q1 {:.4}  median {:.4}  q3 {:.4}  max {:.4}\n",
                    n.mean, n.std, n.min, n.q1, n.median, n.q3, n.max,
                ));
            }
            if !col.categorical.top.is_empty() {
                let tops: Vec<String> = col
                    .categorical
                    .top
                    .iter()
                    .take(3)
                    .map(|(v, c)| format!("{v:?}×{c}"))
                    .collect();
                out.push_str(&format!("   top: {}\n", tops.join("  ")));
            }
            if let Some(h) = &col.histogram {
                for line in h.render_ascii(24).lines() {
                    out.push_str("   ");
                    out.push_str(line);
                    out.push('\n');
                }
                if h.non_finite_count > 0 {
                    out.push_str(&format!(
                        "   ! {} non-finite value{} excluded from histogram\n",
                        h.non_finite_count,
                        if h.non_finite_count == 1 { "" } else { "s" },
                    ));
                }
            }
        }
        let sketch_bytes: u64 = self
            .columns
            .iter()
            .filter_map(|c| c.approx.as_ref())
            .map(|a| a.sketch_bytes)
            .sum();
        if sketch_bytes > 0 {
            out.push_str(&format!(
                "\napprox mode: sketch bytes resident: {sketch_bytes} across {} columns\n",
                self.columns.len(),
            ));
        }
        if !self.alerts.is_empty() {
            out.push_str("\nAlerts:\n");
            for a in &self.alerts {
                out.push_str(&format!(
                    "  [{:?}] {}{}\n",
                    a.kind,
                    a.column
                        .as_ref()
                        .map(|c| format!("{c}: "))
                        .unwrap_or_default(),
                    a.message
                ));
            }
        }
        out
    }
}

/// Profile one column, consulting (and feeding) the cache when present.
fn profile_column(
    col: &Column,
    n_rows: usize,
    config: &ProfileConfig,
    cache: Option<&ProfileCache>,
) -> ColumnProfile {
    if let Some(cache) = cache {
        if let Some(hit) = cache.get_column(col, config) {
            return hit;
        }
    }
    let profile = compute_column_profile(col, n_rows, config, cache);
    if let Some(cache) = cache {
        cache.put_column(col, config, &profile);
    }
    profile
}

/// The per-column work: stats (chunk-merged, with per-chunk partials
/// memoised through `cache` when present), histogram, value frequencies.
pub(crate) fn compute_column_profile(
    col: &Column,
    n_rows: usize,
    config: &ProfileConfig,
    cache: Option<&ProfileCache>,
) -> ColumnProfile {
    if config.mode == ProfileMode::Approx {
        return approx_column_profile(col, n_rows, config, cache);
    }
    let numeric = numeric_stats_chunked(col, cache);
    let histogram = if config.histogram_bins == 0 {
        None
    } else {
        numeric
            .as_ref()
            .and_then(|_| Histogram::build(&col.numeric_values(), config.histogram_bins))
    };
    let categorical = categorical_stats(col, config.top_k);
    ColumnProfile {
        name: col.name().to_string(),
        dtype: col.dtype(),
        null_count: col.null_count(),
        null_fraction: if n_rows == 0 {
            0.0
        } else {
            col.null_count() as f64 / n_rows as f64
        },
        distinct: categorical.distinct,
        numeric,
        categorical,
        histogram,
        approx: None,
    }
}

/// Run `f(0)…f(n-1)` and collect the results in index order across up
/// to `threads` scoped threads. Each thread claims the next unclaimed
/// index from a shared counter, so uneven work (a few heavy columns)
/// spreads over all threads; each result still lands in its own slot,
/// so assembly order never depends on scheduling.
fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed suffices: the counter only hands out indices, and the
    // scope's join publishes every thread's results.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, v) in done {
                        slots[i] = Some(v);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        // lint:allow(panic-in-lib): every index below `n` is claimed by
        // exactly one thread and every thread is joined above, so each
        // slot is filled.
        .map(|s| s.expect("every fan-out slot filled"))
        .collect()
}

/// Compute the Pearson, Spearman, and Cramér's V matrices, flattening
/// every upper-triangle `(kind, i, j)` pair into one task list that the
/// fan-out processes (and the cache memoises) independently. A column is
/// prepared for a kind at most once per build, by the first pair that
/// misses the cache and reads it; fully cached builds prepare nothing.
fn correlation_matrices(
    table: &Table,
    opts: &BuildOptions,
) -> (CorrelationMatrix, CorrelationMatrix, CorrelationMatrix) {
    const KINDS: [CorrelationKind; 3] = [
        CorrelationKind::Pearson,
        CorrelationKind::Spearman,
        CorrelationKind::CramersV,
    ];
    let cols: [Vec<&Column>; 3] = KINDS.map(|k| k.columns(table));
    // Content fingerprints key the pair cache; the pointer fast path
    // makes this O(1) for columns the cache has already seen.
    let fps: [Vec<u64>; 3] = cols.each_ref().map(|cs| match opts.cache {
        Some(cache) => cs.iter().map(|c| cache.fingerprint_of(c)).collect(),
        None => Vec::new(),
    });
    let prepared: [Vec<OnceLock<Prepared>>; 3] = cols
        .each_ref()
        .map(|cs| cs.iter().map(|_| OnceLock::new()).collect());

    let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
    for (k, cs) in cols.iter().enumerate() {
        for i in 0..cs.len() {
            for j in (i + 1)..cs.len() {
                tasks.push((k, i, j));
            }
        }
    }

    let results: Vec<f64> = map_indexed(tasks.len(), opts.threads, |t| {
        let (k, i, j) = tasks[t];
        if let Some(cache) = opts.cache {
            if let Some(v) = cache.get_pair(KINDS[k], fps[k][i], fps[k][j]) {
                return v;
            }
        }
        let side = |c: usize| prepared[k][c].get_or_init(|| prepare(cols[k][c], KINDS[k]));
        let v = coefficient(side(i), side(j));
        if let Some(cache) = opts.cache {
            cache.put_pair(KINDS[k], fps[k][i], fps[k][j], v);
        }
        v
    });

    let mut matrices = cols.each_ref().map(|cs| {
        CorrelationMatrix::unit_diagonal(cs.iter().map(|c| c.name().to_string()).collect())
    });
    for (&(k, i, j), &v) in tasks.iter().zip(&results) {
        matrices[k].set_pair(i, j, v);
    }
    let [pearson_m, spearman_m, cramers_m] = matrices;
    (pearson_m, spearman_m, cramers_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_table::Column;

    fn sample() -> Table {
        Table::new(
            "cities",
            vec![
                Column::from_str_vals("city", [Some("ulm"), Some("bonn"), None, Some("ulm")]),
                Column::from_f64("pop", [Some(120.0), Some(330.0), Some(310.0), Some(120.0)]),
                Column::from_i64("zip", [Some(89073), Some(53111), Some(55116), Some(89073)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn report_covers_all_columns() {
        let r = ProfileReport::build(&sample(), &ProfileConfig::default());
        assert_eq!(r.dataset, "cities");
        assert_eq!(r.columns.len(), 3);
        assert_eq!(r.table.n_rows, 4);
        assert_eq!(r.table.missing_cells, 1);
        assert!(r.column("pop").unwrap().numeric.is_some());
        assert!(r.column("city").unwrap().numeric.is_none());
        assert!(r.column("pop").unwrap().histogram.is_some());
    }

    #[test]
    fn missing_fraction_correct() {
        let r = ProfileReport::build(&sample(), &ProfileConfig::default());
        assert!((r.table.missing_fraction - 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(r.column("city").unwrap().null_count, 1);
    }

    #[test]
    fn correlations_present_for_numeric_pairs() {
        let r = ProfileReport::build(&sample(), &ProfileConfig::default());
        assert!(r.pearson.get("pop", "zip").is_some());
        assert_eq!(r.pearson.columns.len(), 2);
    }

    #[test]
    fn render_text_mentions_columns_and_alerts() {
        let r = ProfileReport::build(&sample(), &ProfileConfig::default());
        let text = r.render_text();
        assert!(text.contains("city"));
        assert!(text.contains("pop"));
        assert!(text.contains("Data Profile: cities"));
    }

    #[test]
    fn empty_table_profile() {
        let schema = datalens_table::Schema::from_pairs([("x", DataType::Int)]).unwrap();
        let t = Table::empty("empty", &schema);
        let r = ProfileReport::build(&t, &ProfileConfig::default());
        assert_eq!(r.table.n_rows, 0);
        assert_eq!(r.table.missing_fraction, 0.0);
        assert!(r.column("x").unwrap().numeric.is_none());
    }

    #[test]
    fn report_serialises_to_json() {
        let r = ProfileReport::build(&sample(), &ProfileConfig::default());
        // serde round trip through the serde_json used in the delta crate
        // is covered by integration tests; here just check Serialize works
        // through a trivial serializer.
        let as_debug = format!("{r:?}");
        assert!(as_debug.contains("ProfileReport"));
    }
}
