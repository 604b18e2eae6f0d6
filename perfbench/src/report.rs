//! What a workload hands back, and the fixed metric vocabulary the
//! benchmark prints.

use std::collections::BTreeMap;

use datalens_obs::HistogramSnapshot;

use crate::trace::{self, Span};
use crate::util::median;

/// End-to-end metrics: printed on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

const DETECTORS: [&str; 7] = [
    "sd",
    "iqr",
    "mv_detector",
    "fahes",
    "nadeef",
    "katara",
    "isolation_forest",
];

/// Layers whose self time is reported (`<layer>.self_ms`).
const LAYERS: [&str; 9] = [
    "table", "profile", "fd", "detect", "repair", "delta", "quality", "rest", "loadgen",
];

/// Per-layer metrics: printed on every workload with `--trace 1`. A layer
/// a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("table.ingest_ms", "ms"),
        ("table.ingest_mb_per_s", "MB/s"),
        ("table.chunks", "count"),
        ("table.resident_bytes", "bytes"),
        ("profile.exact_ms", "ms"),
        ("profile.approx_ms", "ms"),
        ("profile.warm_exact_ms", "ms"),
        ("profile.warm_column_misses", "count"),
        ("profile.stats_ms", "ms"),
        ("profile.histogram_ms", "ms"),
        ("profile.pearson_ms", "ms"),
        ("profile.spearman_ms", "ms"),
        ("profile.cramers_v_ms", "ms"),
        ("profile.alerts_ms", "ms"),
        ("profile.duplicates_ms", "ms"),
        ("profile.column_misses", "count"),
        ("profile.pair_misses", "count"),
        ("profile.chunk_misses", "count"),
        ("profile.sketch_merges", "count"),
        ("fd.tane_ms", "ms"),
        ("fd.rules_found", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for tool in DETECTORS {
        out.push((format!("detect.{tool}_ms"), "ms"));
        out.push((format!("detect.{tool}_flags"), "count"));
    }
    out.extend(
        [
            ("detect.consolidate_ms", "ms"),
            ("detect.union_cells", "count"),
            ("repair.standard_imputer_ms", "ms"),
            ("repair.ml_imputer_ms", "ms"),
            ("repair.cells_repaired", "count"),
            ("delta.create_ms", "ms"),
            ("delta.commit_ms", "ms"),
            ("delta.bytes_per_commit", "bytes"),
            ("delta.files_per_commit", "count"),
            ("quality.eval_ms", "ms"),
            ("rest.submit_p50_ms", "ms"),
            ("rest.submit_p99_ms", "ms"),
            ("rest.sse_first_event_ms", "ms"),
            ("rest.http_submit_p99_ms", "ms"),
            ("rest.http_events_p99_ms", "ms"),
            ("jobs.queue_wait_p50_ms", "ms"),
            ("jobs.queue_wait_p99_ms", "ms"),
            ("jobs.stage_ms", "ms"),
            ("health.shed_total", "count"),
            ("loadgen.job_p99_ms", "ms"),
            ("loadgen.late_p99_ms", "ms"),
            ("loadgen.backlog_max", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    for layer in LAYERS {
        out.push((format!("{layer}.self_ms"), "ms"));
    }
    out.extend(
        [
            ("trace.overhead_ms", "ms"),
            ("trace.coverage_pct", "%"),
            ("trace.spans", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed or the run is invalid, one line each.
    pub problems: Vec<String>,
    /// Wall time of each set-up repetition (s).
    pub setup_s: Vec<f64>,
    /// Latency of each untraced operation (ms).
    pub op_ms: Vec<f64>,
    /// Latency of each traced operation (ms); empty with `--trace 0`.
    pub traced_op_ms: Vec<f64>,
    pub rows_per_s: f64,
    pub peak_rss_mb: f64,
    /// Per-layer values measured directly (counts, server-side figures).
    pub layers: BTreeMap<String, f64>,
    /// Work counters of the first operation, summed per name.
    pub counts: BTreeMap<String, f64>,
    /// Output digests that must agree across runs and thread counts.
    pub digests: BTreeMap<String, String>,
    /// Input description (rows, cols, bytes, job spec, rate).
    pub input: BTreeMap<String, String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    pub fn describe(&mut self, key: &str, value: impl std::fmt::Display) {
        self.input.insert(key.to_string(), value.to_string());
    }

    pub fn count(&mut self, name: &str, value: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Record `digest` under `name`, failing if an earlier value differs.
    pub fn check_digest(&mut self, name: &str, digest: String) -> bool {
        match self.digests.get(name) {
            Some(old) if *old != digest => {
                self.fail(format!("{name} digest {digest} differs from {old}"));
                false
            }
            Some(_) => true,
            None => {
                self.digests.insert(name.to_string(), digest);
                true
            }
        }
    }

    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("op_p50_ms", median(&self.op_ms)),
            ("rows_per_s", self.rows_per_s),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }

    /// Fold spans, counters and direct measurements into the per-layer
    /// vocabulary. `root` names the span of one operation.
    pub fn per_layer(&self, spans: &[Span], root: &str) -> BTreeMap<String, f64> {
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        let op_of = op_membership(spans, root);
        let ops = spans.iter().filter(|s| s.name == root).count().max(1) as f64;
        for (name, samples) in per_op_sums(spans, &op_of) {
            values.insert(format!("{name}_ms"), median(&samples));
        }
        // Self time per layer, over the spans inside operations only.
        for ((s, own), op) in spans.iter().zip(trace::self_times_ms(spans)).zip(&op_of) {
            if op.is_some() {
                *values
                    .entry(format!("{}.self_ms", s.layer()))
                    .or_insert(0.0) += own / ops;
            }
        }
        values.extend(self.counts.iter().map(|(k, v)| (k.clone(), *v)));
        values.extend(self.layers.iter().map(|(k, v)| (k.clone(), *v)));
        if !self.traced_op_ms.is_empty() && !self.op_ms.is_empty() {
            values.insert(
                "trace.overhead_ms".into(),
                median(&self.traced_op_ms) - median(&self.op_ms),
            );
        }
        let coverage = trace::coverage_pct(spans, root);
        values.insert("trace.coverage_pct".into(), median(&coverage));
        values.insert("trace.spans".into(), spans.len() as f64);
        values
    }
}

/// The `root` span each span belongs to (itself for a root), if any.
fn op_membership(spans: &[Span], root: &str) -> Vec<Option<usize>> {
    let mut op_of: Vec<Option<usize>> = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        op_of[i] = match s.parent {
            _ if s.name == root => Some(i),
            Some(p) => op_of[p],
            None => None,
        };
    }
    op_of
}

/// For every span name below a root, its summed duration within each
/// root, as one sample per root.
fn per_op_sums(spans: &[Span], op_of: &[Option<usize>]) -> BTreeMap<String, Vec<f64>> {
    let mut sums: BTreeMap<(String, usize), f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(op) = op_of[i].filter(|&op| op != i) {
            *sums.entry((s.name.clone(), op)).or_insert(0.0) += s.dur_ms();
        }
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((name, _), ms) in sums {
        out.entry(name).or_default().push(ms);
    }
    out
}

/// Quantile of a latency histogram from `GET /metrics` JSON over the
/// observations between two scrapes, estimated the way the server
/// estimates its own quantiles.
pub fn histogram_quantile(
    before: &serde_json::Value,
    after: &serde_json::Value,
    name: &str,
    q: f64,
) -> f64 {
    let buckets = |v: &serde_json::Value| -> Vec<(Option<f64>, u64)> {
        v["histograms"][name]["buckets"]
            .as_array()
            .map(|bs| {
                bs.iter()
                    .map(|b| (b["le"].as_f64(), b["count"].as_u64().unwrap_or(0)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let counts: Vec<u64> = b1
        .iter()
        .enumerate()
        .map(|(i, b)| b.1.saturating_sub(b0.get(i).map_or(0, |b| b.1)))
        .collect();
    HistogramSnapshot {
        bounds: b1.iter().filter_map(|b| b.0).collect(),
        count: counts.iter().sum(),
        buckets: counts,
        sum: 0.0,
    }
    .quantile(q)
}

/// A counter's or histogram sum's growth between two scrapes.
pub fn scrape_delta(before: &serde_json::Value, after: &serde_json::Value, path: &[&str]) -> f64 {
    let get = |v: &serde_json::Value| path.iter().fold(v, |v, k| &v[*k]).as_f64().unwrap_or(0.0);
    get(after) - get(before)
}

/// Sum of one field over every histogram whose name starts with `prefix`.
pub fn histogram_family_delta(
    before: &serde_json::Value,
    after: &serde_json::Value,
    prefix: &str,
    field: &str,
) -> f64 {
    let Some(hists) = after["histograms"].as_object() else {
        return 0.0;
    };
    hists
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, _)| scrape_delta(before, after, &["histograms", name, field]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer();
        let mut sorted: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
    }

    #[test]
    fn histogram_quantile_differences_scrapes() {
        let scrape = |a: u64, b: u64| {
            serde_json::json!({"histograms": {"h": {"buckets": [
                {"le": 1.0, "count": a},
                {"le": 10.0, "count": b},
                {"le": "+Inf", "count": 0}
            ]}}})
        };
        let before = scrape(5, 0);
        let after = scrape(5, 10);
        // All ten new observations sit in (1, 10].
        assert_eq!(histogram_quantile(&before, &after, "h", 0.5), 5.5);
        assert_eq!(histogram_quantile(&before, &after, "missing", 0.5), 0.0);
    }
}
