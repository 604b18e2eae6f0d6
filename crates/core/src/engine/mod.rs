//! The pipeline execution engine: one method per pipeline stage, each
//! calling its library function through one timing helper that builds
//! the stage's [`StageReport`], and a detect fan-out across scoped
//! threads.
//!
//! Determinism guarantee: detector results are collected by input index
//! and the consolidate stage sorts detections by tool name before
//! merging, so the engine's output is bit-identical whether it runs on
//! one thread or many.

pub mod report;
pub mod stages;

use std::sync::Arc;
use std::time::Instant;

use datalens_detect::{ConsolidatedDetections, Detection, DetectionContext, Detector};
use datalens_fd::{hyfd, tane, FdRule, HyFdConfig, RuleSet, TaneConfig};
use datalens_obs::{labeled, Registry};
use datalens_profile::{BuildOptions, ProfileCache, ProfileConfig, ProfileMode, ProfileReport};
use datalens_repair::{RepairContext, RepairResult, Repairer};
use datalens_table::{CellRef, Table};

pub use report::{render_stage_reports, StageKind, StageReport};
pub use stages::MinerSpec;

use crate::quality::QualityMetrics;

/// How the engine schedules work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Worker threads for the detect fan-out. `0` = one per available
    /// core, `1` = fully sequential.
    pub threads: usize,
    /// Seed handed to stochastic tools.
    pub seed: u64,
}

/// The stage executor.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
    /// When set, every stage's wall time is also observed into a
    /// per-stage latency histogram (`engine_stage_ms{stage=…}`).
    metrics: Option<Arc<Registry>>,
    /// Memoised per-column profiles and correlation pairs, shared by
    /// every clone of this engine — so a re-profile after a repair only
    /// recomputes the columns the repair touched.
    profile_cache: Arc<ProfileCache>,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            config,
            metrics: None,
            profile_cache: Arc::new(ProfileCache::new()),
        }
    }

    /// Attach a metrics registry (builder style).
    pub fn with_metrics(mut self, metrics: Option<Arc<Registry>>) -> Engine {
        self.metrics = metrics;
        self
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's shared profile cache (hit/miss stats, manual clear).
    pub fn profile_cache(&self) -> &Arc<ProfileCache> {
        &self.profile_cache
    }

    /// The thread count actually used for fan-out.
    pub fn effective_threads(&self) -> usize {
        match self.config.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Time one stage: run `work`, measure its wall time into a
    /// [`StageReport`] and, with a registry attached, observe it into
    /// the per-stage latency histogram (`engine_stage_ms{stage=…}`).
    /// `dims` is the (rows, cells) volume of the input the stage scans;
    /// `flags` counts the detections, rules or repairs in the output.
    ///
    /// Every stage report the program produces is built here, so the
    /// dashboard panel, job progress events and metrics read one number.
    pub(crate) fn timed<T>(
        &self,
        kind: StageKind,
        detail: &str,
        dims: (usize, usize),
        work: impl FnOnce() -> T,
        flags: impl FnOnce(&T) -> usize,
    ) -> (T, StageReport) {
        let start = Instant::now();
        let output = work();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let report = StageReport {
            stage: kind.as_str().to_string(),
            detail: detail.to_string(),
            wall_ms,
            rows_processed: dims.0,
            cells_processed: dims.1,
            flags_produced: flags(&output),
        };
        if let Some(metrics) = &self.metrics {
            metrics
                .latency_histogram(&labeled("engine_stage_ms", &[("stage", &report.stage)]))
                .observe(wall_ms);
        }
        (output, report)
    }

    /// Profile the table: per-column stats and correlation pairs fan out
    /// across the configured threads, and the shared profile cache
    /// serves any column whose content it has seen before. Cache traffic
    /// from this call is published as `profile_cache_hits_total` /
    /// `profile_cache_misses_total` when a registry is attached, and the
    /// profiled table's chunked-storage footprint as the
    /// `table_chunks_total` / `table_resident_bytes` gauges.
    pub fn profile(&self, table: &Table) -> (ProfileReport, StageReport) {
        self.profile_with_mode(table, ProfileMode::Exact)
    }

    /// [`Engine::profile`] with an explicit profiling mode. In
    /// [`ProfileMode::Approx`] the per-chunk sketch partials are memoised
    /// beside the exact partials, the merges performed by this call are
    /// published as `profile_sketch_merges_total`, and the bytes held by
    /// cached sketches as the `sketch_bytes_resident` gauge.
    pub fn profile_with_mode(
        &self,
        table: &Table,
        mode: ProfileMode,
    ) -> (ProfileReport, StageReport) {
        let before = self.profile_cache.stats();
        let config = ProfileConfig {
            mode,
            ..ProfileConfig::default()
        };
        let options = BuildOptions {
            threads: self.effective_threads(),
            cache: Some(self.profile_cache.as_ref()),
        };
        let out = self.timed(
            StageKind::Profile,
            "",
            table_dims(table),
            || ProfileReport::build_with(table, &config, &options),
            |_| 0,
        );
        if let Some(metrics) = &self.metrics {
            let after = self.profile_cache.stats();
            metrics
                .counter("profile_cache_hits_total")
                .add(after.hits().saturating_sub(before.hits()));
            metrics
                .counter("profile_cache_misses_total")
                .add(after.misses().saturating_sub(before.misses()));
            metrics
                .counter("profile_sketch_merges_total")
                .add(after.sketch_merges.saturating_sub(before.sketch_merges));
            metrics
                // lint:allow(metric-naming): point-in-time bytes held by
                // memoised sketch partials — a gauge, named for the
                // resource it measures like `table_resident_bytes`
                .gauge("sketch_bytes_resident")
                .set(i64::try_from(self.profile_cache.sketch_bytes_resident()).unwrap_or(i64::MAX));
            metrics
                // lint:allow(metric-naming): a point-in-time chunk count
                // for the profiled table — gauge semantics, but the
                // dashboard contract names it `_total` as a grand total
                // across columns, not a monotonic counter
                .gauge("table_chunks_total")
                .set(i64::try_from(table.chunk_count()).unwrap_or(i64::MAX));
            metrics
                .gauge("table_resident_bytes")
                .set(i64::try_from(table.resident_bytes()).unwrap_or(i64::MAX));
        }
        out
    }

    /// Mine FD rules.
    pub fn mine_rules(&self, table: &Table, spec: MinerSpec) -> (Vec<FdRule>, StageReport) {
        let work = || match spec {
            MinerSpec::Tane { max_g3_error } => tane(
                table,
                &TaneConfig {
                    max_g3_error,
                    ..TaneConfig::default()
                },
            ),
            MinerSpec::HyFd { seed } => hyfd(
                table,
                &HyFdConfig {
                    seed,
                    ..HyFdConfig::default()
                },
            ),
        };
        let detail = match spec {
            MinerSpec::Tane { .. } => "tane",
            MinerSpec::HyFd { .. } => "hyfd",
        };
        self.timed(
            StageKind::MineRules,
            detail,
            table_dims(table),
            work,
            Vec::len,
        )
    }

    /// Run every detector over the table, one detect stage per tool.
    /// With more than one worker thread the tools fan out across scoped
    /// threads; results always come back in input order.
    pub fn detect_all(
        &self,
        table: &Table,
        ctx: &DetectionContext,
        detectors: &[Box<dyn Detector>],
    ) -> (Vec<Detection>, Vec<StageReport>) {
        let threads = self.effective_threads().min(detectors.len().max(1));
        let mut slots: Vec<Option<(Detection, StageReport)>> = Vec::new();
        slots.resize_with(detectors.len(), || None);
        if threads <= 1 {
            for (det, slot) in detectors.iter().zip(slots.iter_mut()) {
                *slot = Some(self.detect_one(table, ctx, det.as_ref()));
            }
        } else {
            let chunk = detectors.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (dets, out) in detectors.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (det, slot) in dets.iter().zip(out.iter_mut()) {
                            *slot = Some(self.detect_one(table, ctx, det.as_ref()));
                        }
                    });
                }
            });
        }
        slots
            .into_iter()
            // lint:allow(panic-in-lib): scope() joins every spawned
            // thread before returning, and the chunked zip covers each
            // slot exactly once — an empty slot is unreachable
            .map(|s| s.expect("every detector slot filled"))
            .unzip()
    }

    /// Run a single detect stage.
    pub fn detect_one(
        &self,
        table: &Table,
        ctx: &DetectionContext,
        detector: &dyn Detector,
    ) -> (Detection, StageReport) {
        self.timed(
            StageKind::Detect,
            detector.name(),
            table_dims(table),
            || detector.detect(table, ctx),
            Detection::len,
        )
    }

    /// Consolidate per-tool detections. Detections are sorted by tool
    /// name first, so the merged output is identical no matter in which
    /// order (or on which thread) the detect stages finished. `dims` is
    /// the (rows, cells) shape of the detected table.
    pub fn consolidate(
        &self,
        mut detections: Vec<Detection>,
        dims: (usize, usize),
    ) -> (ConsolidatedDetections, StageReport) {
        self.timed(
            StageKind::Consolidate,
            "",
            dims,
            || {
                detections.sort_by(|a, b| a.tool.cmp(&b.tool));
                ConsolidatedDetections::merge(detections)
            },
            ConsolidatedDetections::total,
        )
    }

    /// Repair the flagged cells.
    pub fn repair(
        &self,
        table: &Table,
        errors: &[CellRef],
        ctx: &RepairContext,
        repairer: &dyn Repairer,
    ) -> (RepairResult, StageReport) {
        self.timed(
            StageKind::Repair,
            repairer.name(),
            table_dims(table),
            || repairer.repair(table, errors, ctx),
            RepairResult::n_repaired,
        )
    }

    /// Compute quality metrics for the table.
    pub fn quality(
        &self,
        table: &Table,
        rules: &RuleSet,
        flagged: usize,
    ) -> (QualityMetrics, StageReport) {
        self.timed(
            StageKind::QualityEval,
            "",
            table_dims(table),
            || QualityMetrics::compute(table, rules, flagged),
            |_| 0,
        )
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineConfig::default())
    }
}

/// The (rows, cells) volume a stage over `table` scans.
pub(crate) fn table_dims(table: &Table) -> (usize, usize) {
    (table.n_rows(), table.n_rows() * table.n_cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalens_detect::detector_by_name;
    use datalens_repair::repairer_by_name;
    use datalens_table::Column;

    fn engine(threads: usize) -> Engine {
        Engine::new(EngineConfig { threads, seed: 7 })
    }

    fn table() -> Table {
        let mut xs: Vec<Option<i64>> = (0..40).map(|i| Some(10 + i % 5)).collect();
        xs.push(Some(100_000));
        xs.push(None);
        let ys: Vec<Option<i64>> = (0..xs.len() as i64).map(Some).collect();
        Table::new(
            "t",
            vec![Column::from_i64("x", xs), Column::from_i64("y", ys)],
        )
        .unwrap()
    }

    fn detectors(names: &[&str]) -> Vec<Box<dyn Detector>> {
        names
            .iter()
            .map(|n| detector_by_name(n).expect("known detector"))
            .collect()
    }

    #[test]
    fn profile_stage_is_timed_and_sized() {
        let t = table();
        let (report, stage) = engine(1).profile(&t);
        assert_eq!(report.table.n_rows, t.n_rows());
        assert_eq!(stage.stage, "profile");
        assert_eq!(stage.rows_processed, t.n_rows());
        assert_eq!(stage.cells_processed, t.n_rows() * t.n_cols());
        assert!(stage.wall_ms >= 0.0);
        // Mining reports the miner as its detail and the rule count as
        // its flags.
        for (spec, name) in [
            (MinerSpec::Tane { max_g3_error: 0.0 }, "tane"),
            (MinerSpec::HyFd { seed: 1 }, "hyfd"),
        ] {
            let (rules, stage) = engine(1).mine_rules(&t, spec);
            assert_eq!(
                (stage.stage.as_str(), stage.detail.as_str()),
                ("mine_rules", name)
            );
            assert_eq!(stage.flags_produced, rules.len());
        }
    }

    #[test]
    fn detect_all_parallel_matches_sequential() {
        let t = table();
        let ctx = DetectionContext::default();
        let tools = ["sd", "iqr", "mv_detector", "fahes", "isolation_forest"];
        let (seq, seq_reports) = engine(1).detect_all(&t, &ctx, &detectors(&tools));
        let (par, par_reports) = engine(8).detect_all(&t, &ctx, &detectors(&tools));
        assert_eq!(seq, par);
        // Reports come back in input order regardless of scheduling.
        let seq_tools: Vec<&str> = seq_reports.iter().map(|r| r.detail.as_str()).collect();
        let par_tools: Vec<&str> = par_reports.iter().map(|r| r.detail.as_str()).collect();
        assert_eq!(seq_tools, tools.to_vec());
        assert_eq!(par_tools, tools.to_vec());
        // Each detect report counts its tool's flagged cells.
        for (det, report) in seq.iter().zip(&seq_reports) {
            assert_eq!(report.stage, "detect");
            assert_eq!(report.flags_produced, det.len());
        }
        assert_eq!(seq_reports[2].flags_produced, 1); // the one null cell
    }

    #[test]
    fn consolidate_is_order_insensitive() {
        let t = table();
        let ctx = DetectionContext::default();
        let e = engine(1);
        let (mut dets, _) = e.detect_all(&t, &ctx, &detectors(&["sd", "mv_detector", "iqr"]));
        let (a, report) = e.consolidate(dets.clone(), table_dims(&t));
        dets.reverse();
        let (b, _) = e.consolidate(dets, table_dims(&t));
        assert_eq!(a, b);
        // The merge is name-sorted and flags every flagged cell.
        let tools: Vec<&str> = a.per_tool.iter().map(|d| d.tool.as_str()).collect();
        assert_eq!(tools, vec!["iqr", "mv_detector", "sd"]);
        assert_eq!(report.flags_produced, a.total());
    }

    #[test]
    fn repair_stage_counts_flags() {
        let t = table();
        let e = engine(1);
        let (dets, _) = e.detect_all(
            &t,
            &DetectionContext::default(),
            &detectors(&["mv_detector"]),
        );
        let (merged, _) = e.consolidate(dets, table_dims(&t));
        let repairer = repairer_by_name("standard_imputer").unwrap();
        let (result, report) = e.repair(
            &t,
            &merged.union,
            &RepairContext::default(),
            repairer.as_ref(),
        );
        assert_eq!(report.stage, "repair");
        assert_eq!(report.detail, "standard_imputer");
        assert_eq!(report.flags_produced, result.n_repaired());
        assert!(result.n_repaired() > 0);
    }

    #[test]
    fn profile_parallel_and_cached_matches_sequential() {
        let t = table();
        let (seq, _) = engine(1).profile(&t);
        let e = engine(8);
        let (cold, _) = e.profile(&t);
        let (warm, _) = e.profile(&t);
        assert_eq!(seq, cold);
        assert_eq!(seq, warm);
        // The warm run answered from the cache: both columns and the
        // Pearson + Spearman pair for (x, y).
        let stats = e.profile_cache().stats();
        assert_eq!(stats.column_hits, 2);
        assert_eq!(stats.pair_hits, 2);
        assert_eq!(stats.column_misses, 2);
    }

    #[test]
    fn profile_cache_reused_across_engine_clones() {
        let t = table();
        let e = engine(2);
        e.clone().profile(&t);
        e.clone().profile(&t);
        assert_eq!(e.profile_cache().stats().column_hits, 2);
    }

    #[test]
    fn profile_cache_counters_published_to_registry() {
        let registry = Arc::new(Registry::new());
        let e = engine(2).with_metrics(Some(Arc::clone(&registry)));
        let t = table();
        e.profile(&t);
        e.profile(&t);
        assert_eq!(registry.counter("profile_cache_hits_total").get(), 4);
        // Cold run: 2 column misses + 2 pair misses + 2 per-chunk partial
        // misses (one numeric chunk per column). Warm run hits the
        // column-profile cache before any chunk lookup happens.
        assert_eq!(registry.counter("profile_cache_misses_total").get(), 6);
    }

    #[test]
    fn approx_profile_publishes_sketch_metrics() {
        let registry = Arc::new(Registry::new());
        let e = engine(2).with_metrics(Some(Arc::clone(&registry)));
        let t = table();
        let (approx, _) = e.profile_with_mode(&t, ProfileMode::Approx);
        // One merge per chunk per column; the table has one chunk per
        // column at this size.
        assert_eq!(
            registry.counter("profile_sketch_merges_total").get(),
            t.chunk_count() as u64
        );
        assert!(registry.gauge("sketch_bytes_resident").get() > 0);
        assert!(approx.columns.iter().all(|c| c.approx.is_some()));
        // The default profile entry point stays exact and reports no
        // sketch traffic of its own.
        let (exact, _) = e.profile(&t);
        assert!(exact.columns.iter().all(|c| c.approx.is_none()));
        // A warm approx build answers from the column cache without new
        // sketch merges.
        let before = registry.counter("profile_sketch_merges_total").get();
        e.profile_with_mode(&t, ProfileMode::Approx);
        assert_eq!(
            registry.counter("profile_sketch_merges_total").get(),
            before
        );
    }

    #[test]
    fn profile_publishes_table_storage_gauges() {
        let registry = Arc::new(Registry::new());
        let e = engine(1).with_metrics(Some(Arc::clone(&registry)));
        let t = table();
        e.profile(&t);
        let chunks = registry.gauge("table_chunks_total").get();
        assert_eq!(chunks, i64::try_from(t.chunk_count()).unwrap_or(i64::MAX));
        assert!(chunks >= 2); // one chunk per column at this size
        let bytes = registry.gauge("table_resident_bytes").get();
        assert_eq!(bytes, i64::try_from(t.resident_bytes()).unwrap_or(i64::MAX));
        assert!(bytes > 0);
    }

    #[test]
    fn thread_config_resolves() {
        assert_eq!(engine(3).effective_threads(), 3);
        assert!(engine(0).effective_threads() >= 1);
    }

    #[test]
    fn more_threads_than_tools_is_fine() {
        let t = table();
        let ctx = DetectionContext::default();
        let (seq, _) = engine(1).detect_all(&t, &ctx, &detectors(&["sd"]));
        let (par, _) = engine(16).detect_all(&t, &ctx, &detectors(&["sd"]));
        assert_eq!(seq, par);
        let (none, reports) = engine(16).detect_all(&t, &ctx, &[]);
        assert!(none.is_empty() && reports.is_empty());
    }
}
