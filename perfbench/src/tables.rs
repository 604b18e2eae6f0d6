//! The in-process workloads: `bulk_clean` and `paper_pipeline`. Each
//! drives the library's public API directly and wraps every call into a
//! layer in a span.

use std::error::Error;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use datalens::{Engine, EngineConfig, MinerSpec};
use datalens_delta::DeltaTable;
use datalens_detect::{detector_by_name, ConsolidatedDetections, DetectionContext};
use datalens_fd::RuleSet;
use datalens_profile::{
    alerts, correlation::correlation_matrix, stats, CacheStats, CorrelationKind, Histogram,
    ProfileCache, ProfileMode, ProfileReport,
};
use datalens_repair::{repairer_by_name, RepairContext, RepairResult};
use datalens_table::csv::{read_csv_path, read_csv_str, write_csv_str, CsvOptions};
use datalens_table::{CellRef, DataType, Table, Value};

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{digest, digest_json, dir_usage, ms_since, peak_rss_mb, Rng};
use crate::Config;

type Res<T> = Result<T, Box<dyn Error>>;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;
const BULK_TOOLS: [&str; 3] = ["sd", "iqr", "mv_detector"];
const PAPER_TOOLS: [&str; 7] = [
    "sd",
    "iqr",
    "mv_detector",
    "fahes",
    "nadeef",
    "katara",
    "isolation_forest",
];
const PAPER_DATASETS: [&str; 3] = ["hospital", "beers", "nasa"];
const TANE_G3: f64 = 0.1;
const CATEGORIES: [&[&str]; 4] = [
    &["red", "green", "blue", "amber", "violet"],
    &[
        "ulm", "bonn", "mainz", "kiel", "essen", "trier", "jena", "hagen", "fulda", "passau",
        "gera", "hof",
    ],
    &[
        "c00", "c01", "c02", "c03", "c04", "c05", "c06", "c07", "c08", "c09", "c10", "c11", "c12",
        "c13", "c14", "c15", "c16", "c17", "c18", "c19", "c20", "c21", "c22", "c23", "c24", "c25",
        "c26", "c27", "c28", "c29",
    ],
    &["low", "mid", "high"],
];

fn engine(threads: usize, seed: u64) -> Engine {
    Engine::new(EngineConfig { threads, seed })
}

/// Rows of the synthetic table.
fn bulk_rows(cfg: &Config) -> usize {
    if cfg.short {
        20_000
    } else {
        200_000
    }
}

/// Write the seeded synthetic table: an id, 8 numeric columns (4 float,
/// 4 integer) with ~2% nulls and ~0.3% sentinel outliers, and 4
/// low-cardinality string columns with ~1% nulls. Returns its size in
/// bytes.
fn write_bulk_csv(path: &Path, rows: usize, seed: u64) -> Res<u64> {
    let mut rng = Rng::new(seed);
    let mut w = BufWriter::new(fs::File::create(path)?);
    writeln!(w, "id,f0,f1,f2,f3,i0,i1,i2,i3,s0,s1,s2,s3")?;
    for r in 0..rows {
        write!(w, "{r}")?;
        for c in 0..8 {
            let u = rng.unit();
            let (mean, sd) = (50.0 + 40.0 * c as f64, 5.0 + 3.0 * c as f64);
            // Sum of four uniforms: a cheap bell curve.
            let z = (0..4).map(|_| rng.unit()).sum::<f64>() - 2.0;
            if u < 0.02 {
                write!(w, ",")?;
            } else if u < 0.023 {
                write!(w, ",{}", if c % 2 == 0 { "99999" } else { "-9999" })?;
            } else if c < 4 {
                write!(w, ",{:.2}", mean + sd * z * 1.7)?;
            } else {
                write!(w, ",{}", (mean + sd * z * 1.7).round() as i64)?;
            }
        }
        for cats in CATEGORIES {
            if rng.unit() < 0.01 {
                write!(w, ",")?;
            } else {
                write!(w, ",{}", cats[rng.below(cats.len() as u64) as usize])?;
            }
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(fs::metadata(path)?.len())
}

/// What one detect → consolidate → repair chain produced.
struct Cleaned {
    merged: ConsolidatedDetections,
    repaired: RepairResult,
}

/// Run each tool through `Engine::detect_one`, consolidate, and repair,
/// with a span around every call. Flag and repair counts go to `counts`
/// when given.
fn detect_and_repair(
    tr: &Tracer,
    engine: &Engine,
    table: &Table,
    rules: &RuleSet,
    tools: &[&str],
    repair_tool: &str,
    mut counts: Option<&mut Outcome>,
) -> Res<Cleaned> {
    let seed = engine.config().seed;
    let ctx = DetectionContext {
        rules: rules.clone(),
        tagged_values: Vec::new(),
        seed,
    };
    let mut detections = Vec::with_capacity(tools.len());
    for &tool in tools {
        let det = detector_by_name(tool).ok_or_else(|| format!("unknown detector {tool}"))?;
        let (d, _) = {
            let _s = tr.enter(&format!("detect.{tool}"));
            engine.detect_one(table, &ctx, det.as_ref())
        };
        if let Some(out) = counts.as_deref_mut() {
            out.count(&format!("detect.{tool}_flags"), d.len() as f64);
        }
        detections.push(d);
    }
    let dims = (table.n_rows(), table.n_rows() * table.n_cols());
    let (merged, _) = {
        let _s = tr.enter("detect.consolidate");
        engine.consolidate(detections, dims)
    };
    let repairer =
        repairer_by_name(repair_tool).ok_or_else(|| format!("unknown repairer {repair_tool}"))?;
    let rctx = RepairContext {
        rules: rules.clone(),
        seed,
    };
    let (repaired, _) = {
        let _s = tr.enter(&format!("repair.{repair_tool}"));
        engine.repair(table, &merged.union, &rctx, repairer.as_ref())
    };
    if let Some(out) = counts {
        out.count("detect.union_cells", merged.union.len() as f64);
        out.count("repair.cells_repaired", repaired.n_repaired() as f64);
    }
    Ok(Cleaned { merged, repaired })
}

/// Digests of a pipeline's outputs, keyed `<dataset>.<output>`.
fn check_outputs(
    out: &mut Outcome,
    dataset: &str,
    report: &ProfileReport,
    cleaned: &Cleaned,
) -> bool {
    let ok_profile = out.check_digest(&format!("{dataset}.profile"), digest_json(report));
    let ok_flags = out.check_digest(&format!("{dataset}.flags"), digest_json(&cleaned.merged));
    let ok_repair = out.check_digest(
        &format!("{dataset}.repaired_csv"),
        digest(write_csv_str(&cleaned.repaired.table).as_bytes()),
    );
    ok_profile && ok_flags && ok_repair
}

/// Count the misses and merges `cache` took since `before`.
fn cache_delta(out: &mut Outcome, cache: &ProfileCache, before: CacheStats) {
    let after = cache.stats();
    let grew = |f: fn(&CacheStats) -> u64| (f(&after) - f(&before)) as f64;
    out.count("profile.column_misses", grew(|s| s.column_misses));
    out.count("profile.pair_misses", grew(|s| s.pair_misses));
    out.count("profile.chunk_misses", grew(|s| s.chunk_misses));
    out.count("profile.sketch_merges", grew(|s| s.sketch_merges));
}

/// Time the profile's sub-phases by calling their public functions on
/// `table` (traced runs only; outside any operation).
fn time_subphases(tr: &Tracer, table: &Table, out: &mut Outcome) {
    let _root = tr.enter("subphases");
    let mut timed = |name: &str, f: &mut dyn FnMut()| {
        let start = Instant::now();
        {
            let _s = tr.enter(name);
            f();
        }
        *out.layers.entry(format!("{name}_ms")).or_insert(0.0) += ms_since(start);
    };
    timed("profile.stats", &mut || {
        for col in table.columns() {
            if col.dtype() != DataType::Str {
                std::hint::black_box(stats::numeric_stats(col));
            }
            std::hint::black_box(stats::categorical_stats(col, 10));
        }
    });
    timed("profile.histogram", &mut || {
        for col in table.columns() {
            if col.dtype() != DataType::Str {
                std::hint::black_box(Histogram::build(&col.numeric_values(), 10));
            }
        }
    });
    for (name, kind) in [
        ("profile.pearson", CorrelationKind::Pearson),
        ("profile.spearman", CorrelationKind::Spearman),
        ("profile.cramers_v", CorrelationKind::CramersV),
    ] {
        timed(name, &mut || {
            std::hint::black_box(correlation_matrix(table, kind));
        });
    }
    timed("profile.alerts", &mut || {
        std::hint::black_box(alerts::scan(table, &Default::default()));
    });
    timed("profile.duplicates", &mut || {
        std::hint::black_box(table.duplicate_rows());
    });
}

/// Time an exact re-profile after a one-cell edit, through an engine
/// whose cache already holds the table's profile (traced runs only;
/// outside any operation).
fn time_warm_reprofile(tr: &Tracer, table: &Table, seed: u64, out: &mut Outcome) -> Res<()> {
    let _root = tr.enter("reprofile");
    let e = engine(0, seed);
    std::hint::black_box(e.profile(table));
    let mut edited = table.clone();
    let col = (0..edited.n_cols())
        .find(|&c| edited.columns()[c].dtype() == DataType::Float)
        .ok_or("synthetic table has no float column")?;
    edited.set(CellRef::new(edited.n_rows() / 2, col), Value::Float(1.0e6))?;
    let before = e.profile_cache().stats();
    let start = Instant::now();
    {
        let _s = tr.enter("profile.warm_exact");
        std::hint::black_box(e.profile(&edited));
    }
    out.layers
        .insert("profile.warm_exact_ms".into(), ms_since(start));
    let misses = e.profile_cache().stats().column_misses - before.column_misses;
    out.layers
        .insert("profile.warm_column_misses".into(), misses as f64);
    Ok(())
}

fn record_table_shape(out: &mut Outcome, table: &Table) {
    out.layers
        .insert("table.chunks".into(), table.chunk_count() as f64);
    out.layers
        .insert("table.resident_bytes".into(), table.resident_bytes() as f64);
}

fn finish_ingest_rate(out: &mut Outcome, ingest_ms: &[f64], bytes: u64) {
    let ms = crate::util::median(ingest_ms);
    if ms > 0.0 {
        out.layers.insert(
            "table.ingest_mb_per_s".into(),
            bytes as f64 / 1e6 / (ms / 1e3),
        );
    }
}

/// `bulk_clean`: the cold, scan-heavy path with fresh engines per pass.
pub fn bulk_clean(cfg: &Config, tr: &Tracer) -> Res<Outcome> {
    let mut out = Outcome::default();
    let rows = bulk_rows(cfg);
    let csv = cfg.work.join("bulk.csv");
    let bytes = write_bulk_csv(&csv, rows, cfg.seed)?;
    out.describe("rows", rows);
    out.describe("cols", 13u64);
    out.describe("input_bytes", bytes);
    out.describe("pipeline", "ingest→profile[approx]→profile[exact]→detect[sd,iqr,mv_detector]→consolidate→repair[standard_imputer]→delta create+commit→quality");

    // Set-up: ingest, cold exact profile and delta create on one engine
    // thread. The first repetition also computes the single-thread
    // reference outputs that every pass must reproduce.
    for i in 0..SETUPS {
        let dir = cfg.work.join(format!("setup{i}"));
        let start = Instant::now();
        let e = engine(1, cfg.seed);
        let table = read_csv_path(&csv, &CsvOptions::default())?;
        let (report, _) = e.profile(&table);
        DeltaTable::create(&dir, &table, "INGEST")?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        if i == 0 {
            let cleaned = detect_and_repair(
                tr,
                &e,
                &table,
                &RuleSet::new(),
                &BULK_TOOLS,
                "standard_imputer",
                None,
            )?;
            check_outputs(&mut out, "bulk", &report, &cleaned);
        } else {
            out.check_digest("bulk.profile", digest_json(&report));
        }
        fs::remove_dir_all(&dir)?;
    }

    let started = Instant::now();
    let mut last_table = None;
    let mut ingest_ms = Vec::new();
    let mut i = 0;
    while i < 3 || started.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && i % 2 == 0;
        tr.set_enabled(traced);
        let dir = cfg.work.join(format!("pass{i}"));
        out.attempted += 1;
        let start = Instant::now();
        let result = bulk_pass(tr, &csv, &dir, cfg.seed, &mut out, i == 0);
        let ms = ms_since(start);
        tr.set_enabled(false);
        let (table, report, cleaned, ingest) = result?;
        if traced {
            out.traced_op_ms.push(ms);
        } else {
            out.op_ms.push(ms);
        }
        ingest_ms.push(ingest);
        if !check_outputs(&mut out, "bulk", &report, &cleaned) {
            out.problems
                .push(format!("pass {i}: outputs differ from reference"));
        }
        fs::remove_dir_all(&dir)?;
        last_table = Some(table);
        i += 1;
    }
    let total_ms: f64 = out.op_ms.iter().chain(&out.traced_op_ms).sum();
    out.rows_per_s = rows as f64 * i as f64 / (total_ms / 1e3);
    out.peak_rss_mb = peak_rss_mb("self");
    if let Some(table) = last_table {
        record_table_shape(&mut out, &table);
        finish_ingest_rate(&mut out, &ingest_ms, bytes);
        if cfg.trace {
            tr.set_enabled(true);
            time_subphases(tr, &table, &mut out);
            let warm = time_warm_reprofile(tr, &table, cfg.seed, &mut out);
            tr.set_enabled(false);
            warm?;
        }
    }
    Ok(out)
}

type PassOutput = (Table, ProfileReport, Cleaned, f64);

fn bulk_pass(
    tr: &Tracer,
    csv: &Path,
    dir: &Path,
    seed: u64,
    out: &mut Outcome,
    count: bool,
) -> Res<PassOutput> {
    let _op = tr.enter("op.pass");
    let start = Instant::now();
    let table = {
        let _s = tr.enter("table.ingest");
        read_csv_path(csv, &CsvOptions::default())?
    };
    let ingest_ms = ms_since(start);
    // Approx and exact each build on an engine of their own, so both
    // start from a cold cache at the same thread count.
    let approx = engine(0, seed);
    {
        let _s = tr.enter("profile.approx");
        std::hint::black_box(approx.profile_with_mode(&table, ProfileMode::Approx));
    }
    let e = engine(0, seed);
    let (report, _) = {
        let _s = tr.enter("profile.exact");
        e.profile_with_mode(&table, ProfileMode::Exact)
    };
    if count {
        cache_delta(out, approx.profile_cache(), CacheStats::default());
        cache_delta(out, e.profile_cache(), CacheStats::default());
    }
    let rules = RuleSet::new();
    let cleaned = detect_and_repair(
        tr,
        &e,
        &table,
        &rules,
        &BULK_TOOLS,
        "standard_imputer",
        count.then_some(&mut *out),
    )?;
    let delta = {
        let _s = tr.enter("delta.create");
        DeltaTable::create(dir, &table, "INGEST")?
    };
    let (b0, f0) = dir_usage(dir);
    {
        let _s = tr.enter("delta.commit");
        delta.commit(&cleaned.repaired.table, "REPAIR")?;
    }
    if count {
        let (b1, f1) = dir_usage(dir);
        out.count("delta.bytes_per_commit", (b1 - b0) as f64);
        out.count("delta.files_per_commit", (f1 - f0) as f64);
    }
    {
        let _s = tr.enter("quality.eval");
        std::hint::black_box(e.quality(&table, &rules, cleaned.merged.total()));
    }
    Ok((table, report, cleaned, ingest_ms))
}

/// `paper_pipeline`: the one-click pipeline over the seeded dirty
/// hospital, beers and nasa tables.
pub fn paper_pipeline(cfg: &Config, tr: &Tracer) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut inputs = Vec::new();
    for name in PAPER_DATASETS {
        let dirty = datalens_datasets::registry::dirty(name, cfg.seed)
            .ok_or_else(|| format!("unknown dataset {name}"))?;
        inputs.push((name, write_csv_str(&dirty.dirty), dirty.dirty.n_rows()));
    }
    let rows: usize = inputs.iter().map(|i| i.2).sum();
    let bytes: usize = inputs.iter().map(|i| i.1.len()).sum();
    out.describe("rows", rows);
    out.describe(
        "shapes",
        inputs
            .iter()
            .map(|(n, text, r)| {
                let cols = text.lines().next().map_or(0, |h| h.split(',').count());
                format!("{n} {r}x{cols}")
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.describe("input_bytes", bytes);
    out.describe("pipeline", format!(
            "ingest→profile→tane[g3≤{TANE_G3}]→detect[{}]→consolidate→repair[ml_imputer]→delta commit→quality",
            PAPER_TOOLS.join(",")
        ));

    // Set-up: ingest, cold profile and delta create per dataset on one
    // engine thread; the first repetition also fixes the reference
    // outputs. The last repetition's delta tables take the commits.
    let mut deltas = Vec::new();
    for i in 0..SETUPS {
        let start = Instant::now();
        let e = engine(1, cfg.seed);
        let mut built = Vec::new();
        for (name, text, _) in &inputs {
            let table = read_csv_str(name, text, &CsvOptions::default())?;
            let (report, _) = e.profile(&table);
            let delta =
                DeltaTable::create(cfg.work.join(format!("setup{i}-{name}")), &table, "INGEST")?;
            built.push((table, report, delta));
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
        for ((name, _, _), (table, report, _)) in inputs.iter().zip(&built) {
            if i == 0 {
                let (rules, _) = e.mine_rules(
                    table,
                    MinerSpec::Tane {
                        max_g3_error: TANE_G3,
                    },
                );
                let rules = rule_set(rules);
                let cleaned =
                    detect_and_repair(tr, &e, table, &rules, &PAPER_TOOLS, "ml_imputer", None)?;
                check_outputs(&mut out, name, report, &cleaned);
            } else {
                out.check_digest(&format!("{name}.profile"), digest_json(report));
            }
        }
        deltas = built.into_iter().map(|b| b.2).collect();
    }

    let started = Instant::now();
    let mut ingest_ms = Vec::new();
    let mut i = 0;
    while i < 3 || started.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && i % 2 == 0;
        out.attempted += 1;
        tr.set_enabled(traced);
        let start = Instant::now();
        let result = paper_pass(tr, &inputs, &deltas, cfg.seed, &mut out, i == 0);
        let ms = ms_since(start);
        tr.set_enabled(false);
        let (results, ingest) = result?;
        if traced {
            out.traced_op_ms.push(ms);
        } else {
            out.op_ms.push(ms);
        }
        ingest_ms.push(ingest);
        let mut ok = true;
        for ((name, _, _), (report, cleaned)) in inputs.iter().zip(&results) {
            ok &= check_outputs(&mut out, name, report, cleaned);
        }
        if !ok {
            out.problems
                .push(format!("pass {i}: outputs differ from reference"));
        }
        i += 1;
    }
    let total_ms: f64 = out.op_ms.iter().chain(&out.traced_op_ms).sum();
    out.rows_per_s = rows as f64 * i as f64 / (total_ms / 1e3);
    out.peak_rss_mb = peak_rss_mb("self");
    finish_ingest_rate(&mut out, &ingest_ms, bytes as u64);
    let hospital = read_csv_str("hospital", &inputs[0].1, &CsvOptions::default())?;
    record_table_shape(&mut out, &hospital);
    if cfg.trace {
        tr.set_enabled(true);
        time_subphases(tr, &hospital, &mut out);
        tr.set_enabled(false);
    }
    Ok(out)
}

fn rule_set(rules: Vec<datalens_fd::FdRule>) -> RuleSet {
    let mut set = RuleSet::new();
    for r in rules {
        set.add(r);
    }
    set
}

type PaperPass = (Vec<(ProfileReport, Cleaned)>, f64);

fn paper_pass(
    tr: &Tracer,
    inputs: &[(&str, String, usize)],
    deltas: &[DeltaTable],
    seed: u64,
    out: &mut Outcome,
    count: bool,
) -> Res<PaperPass> {
    let _op = tr.enter("op.pass");
    let e = engine(0, seed);
    let mut results = Vec::with_capacity(inputs.len());
    let mut ingest_ms = 0.0;
    let mut rules_found = 0;
    for ((name, text, _), delta) in inputs.iter().zip(deltas) {
        let start = Instant::now();
        let table = {
            let _s = tr.enter("table.ingest");
            read_csv_str(name, text, &CsvOptions::default())?
        };
        ingest_ms += ms_since(start);
        let before = e.profile_cache().stats();
        let (report, _) = {
            let _s = tr.enter("profile.exact");
            e.profile(&table)
        };
        if count {
            cache_delta(out, e.profile_cache(), before);
        }
        let (rules, _) = {
            let _s = tr.enter("fd.tane");
            e.mine_rules(
                &table,
                MinerSpec::Tane {
                    max_g3_error: TANE_G3,
                },
            )
        };
        rules_found += rules.len();
        let rules = rule_set(rules);
        let cleaned = detect_and_repair(
            tr,
            &e,
            &table,
            &rules,
            &PAPER_TOOLS,
            "ml_imputer",
            count.then_some(&mut *out),
        )?;
        {
            let _s = tr.enter("delta.commit");
            delta.commit(&cleaned.repaired.table, "REPAIR")?;
        }
        {
            let _s = tr.enter("quality.eval");
            std::hint::black_box(e.quality(&table, &rules, cleaned.merged.total()));
        }
        results.push((report, cleaned));
    }
    if count {
        out.count("fd.rules_found", rules_found as f64);
    }
    Ok((results, ingest_ms))
}

/// Digest of the repaired CSV that detect → consolidate → repair gives.
pub fn repaired_digest(
    tr: &Tracer,
    engine: &Engine,
    table: &Table,
    tools: &[&str],
    repair_tool: &str,
) -> Res<String> {
    let cleaned = detect_and_repair(tr, engine, table, &RuleSet::new(), tools, repair_tool, None)?;
    Ok(digest(write_csv_str(&cleaned.repaired.table).as_bytes()))
}
