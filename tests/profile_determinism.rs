//! Determinism and incrementality regression tests for the parallel,
//! memoised profiler: any thread count and any cache temperature must
//! produce a bit-identical serialized report, and re-profiling after a
//! repair must recompute only the touched columns and their
//! correlation pairs.

use std::sync::Arc;

use datalens::engine::{Engine, EngineConfig};
use datalens_obs::Registry;
use datalens_profile::{BuildOptions, ProfileCache, ProfileConfig, ProfileMode, ProfileReport};
use datalens_table::{CellRef, Column, Table, Value};

/// Mixed-dtype fixture: three numeric columns (with nulls), one
/// categorical, one bool — exercises stats, histograms, alerts and all
/// three correlation matrices, including NaN cells (constant columns
/// are absent, but null-heavy pairs still short-circuit).
fn fixture() -> Table {
    let n = 240;
    let ints: Vec<Option<i64>> = (0..n)
        .map(|i| {
            if i % 11 == 0 {
                None
            } else {
                Some((i as i64 * 37) % 97)
            }
        })
        .collect();
    let floats: Vec<Option<f64>> = (0..n)
        .map(|i| Some((i as f64 * 0.37).sin() * 50.0))
        .collect();
    let drifting: Vec<Option<f64>> = (0..n)
        .map(|i| {
            if i % 13 == 0 {
                None
            } else {
                Some(i as f64 * 1.5 - 30.0)
            }
        })
        .collect();
    let cats = ["red", "green", "blue", "teal"];
    let strs: Vec<Option<&str>> = (0..n)
        .map(|i| if i % 17 == 0 { None } else { Some(cats[i % 4]) })
        .collect();
    let bools: Vec<Option<bool>> = (0..n).map(|i| Some(i % 3 == 0)).collect();
    Table::new(
        "fixture",
        vec![
            Column::from_i64("a", ints),
            Column::from_f64("b", floats),
            Column::from_f64("c", drifting),
            Column::from_str_vals("color", strs),
            Column::from_bool("flag", bools),
        ],
    )
    .unwrap()
}

fn serialized(report: &ProfileReport) -> String {
    serde_json::to_string(report).unwrap()
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let table = fixture();
    let config = ProfileConfig::default();
    let sequential = serialized(&ProfileReport::build(&table, &config));
    for threads in [1, 2, 8] {
        let parallel = serialized(&ProfileReport::build_with(
            &table,
            &config,
            &BuildOptions {
                threads,
                cache: None,
            },
        ));
        assert_eq!(sequential, parallel, "threads={threads} diverged");
    }
}

#[test]
fn hospital_and_beers_reports_are_bit_identical_across_threads() {
    let config = ProfileConfig::default();
    for name in ["hospital", "beers"] {
        let dd = datalens_datasets::registry::dirty(name, 0).unwrap();
        let cache = ProfileCache::new();
        let baseline = serialized(&ProfileReport::build(&dd.dirty, &config));
        for threads in [1, 2, 8] {
            for cache_opt in [None, Some(&cache)] {
                let got = serialized(&ProfileReport::build_with(
                    &dd.dirty,
                    &config,
                    &BuildOptions {
                        threads,
                        cache: cache_opt,
                    },
                ));
                assert_eq!(baseline, got, "{name} diverged at threads={threads}");
            }
        }
    }
}

#[test]
fn warm_cache_rebuild_is_bit_identical() {
    let table = fixture();
    let config = ProfileConfig::default();
    let cache = ProfileCache::new();
    let opts = BuildOptions {
        threads: 4,
        cache: Some(&cache),
    };
    let cold = serialized(&ProfileReport::build_with(&table, &config, &opts));
    let after_cold = cache.stats();
    assert_eq!(
        after_cold.column_misses, 5,
        "cold build computes every column"
    );
    assert_eq!(after_cold.pair_misses, 6, "3 pearson + 3 spearman pairs");

    let warm = serialized(&ProfileReport::build_with(&table, &config, &opts));
    assert_eq!(cold, warm, "warm rebuild must be bit-identical");
    let after_warm = cache.stats();
    assert_eq!(after_warm.column_hits - after_cold.column_hits, 5);
    assert_eq!(after_warm.pair_hits - after_cold.pair_hits, 6);
    assert_eq!(after_warm.column_misses, after_cold.column_misses);
    assert_eq!(after_warm.pair_misses, after_cold.pair_misses);
}

#[test]
fn reprofile_after_repair_recomputes_only_touched_columns() {
    let mut table = fixture();
    let engine = Engine::new(EngineConfig {
        threads: 2,
        seed: 0,
    });
    let (first, _) = engine.profile(&table);
    let before = engine.profile_cache().stats();

    // Simulate a repair touching a single cell of column "b" (index 1):
    // copy-on-write leaves every other column's Arc untouched.
    table.set(CellRef::new(7, 1), Value::Float(123.5)).unwrap();
    let (second, _) = engine.profile(&table);
    let after = engine.profile_cache().stats();

    assert_eq!(
        after.column_misses - before.column_misses,
        1,
        "only the repaired column is re-profiled"
    );
    assert_eq!(after.column_hits - before.column_hits, 4);
    // Correlation pairs touching "b": (a,b) and (b,c) under pearson and
    // spearman each; (a,c) stays cached.
    assert_eq!(after.pair_misses - before.pair_misses, 4);
    assert_eq!(after.pair_hits - before.pair_hits, 2);

    // The untouched columns' profiles are identical; the repaired one
    // actually changed.
    assert_eq!(
        serde_json::to_string(&first.columns[0]).unwrap(),
        serde_json::to_string(&second.columns[0]).unwrap()
    );
    assert_ne!(
        serde_json::to_string(&first.columns[1]).unwrap(),
        serde_json::to_string(&second.columns[1]).unwrap()
    );
}

#[test]
fn cache_counters_flow_into_the_metrics_registry() {
    let registry = Arc::new(Registry::new());
    let engine = Engine::new(EngineConfig {
        threads: 2,
        seed: 0,
    })
    .with_metrics(Some(Arc::clone(&registry)));
    let table = fixture();
    engine.profile(&table);
    engine.profile(&table);

    let stats = engine.profile_cache().stats();
    assert_eq!(
        registry.counter("profile_cache_hits_total").get(),
        stats.hits()
    );
    assert_eq!(
        registry.counter("profile_cache_misses_total").get(),
        stats.misses()
    );
    // Second run was fully warm: 5 column + 6 pair hits. The cold run
    // missed 5 columns, 6 pairs, and 4 per-chunk numeric partials (one
    // chunk for each of a, b, c, flag; "color" has no numeric stats).
    assert_eq!(stats.hits(), 11);
    assert_eq!(stats.misses(), 15);
}

/// Acceptance pin for the sketch backend: the approx-mode report on the
/// real hospital/beers datasets serialises to the same bytes on 1/2/8
/// threads and on cold vs warm caches. Sketch hashing is seeded per
/// column name (no ambient RNG), so two builds that never share a cache
/// still agree bit for bit.
#[test]
fn approx_reports_are_bit_identical_across_threads_and_cache() {
    let config = ProfileConfig {
        mode: ProfileMode::Approx,
        ..ProfileConfig::default()
    };
    for name in ["hospital", "beers"] {
        let dd = datalens_datasets::registry::dirty(name, 0).unwrap();
        let cache = ProfileCache::new();
        let baseline = serialized(&ProfileReport::build(&dd.dirty, &config));
        assert!(
            baseline.contains("\"approx\""),
            "{name} missing sketch data"
        );
        for threads in [1, 2, 8] {
            for cache_opt in [None, Some(&cache)] {
                let got = serialized(&ProfileReport::build_with(
                    &dd.dirty,
                    &config,
                    &BuildOptions {
                        threads,
                        cache: cache_opt,
                    },
                ));
                assert_eq!(baseline, got, "{name} approx diverged at threads={threads}");
            }
        }
    }
}

/// Warm approx rebuilds answer from the column cache; the per-chunk
/// sketch partials are computed exactly once per (content, seed) pair.
#[test]
fn approx_warm_cache_rebuild_is_bit_identical() {
    let table = fixture();
    let config = ProfileConfig {
        mode: ProfileMode::Approx,
        ..ProfileConfig::default()
    };
    let cache = ProfileCache::new();
    let opts = BuildOptions {
        threads: 4,
        cache: Some(&cache),
    };
    let cold = serialized(&ProfileReport::build_with(&table, &config, &opts));
    let after_cold = cache.stats();
    assert_eq!(
        after_cold.column_misses, 5,
        "cold build sketches every column"
    );
    assert_eq!(
        after_cold.sketch_misses, 5,
        "one sketch partial per column (single-chunk fixture)"
    );

    let warm = serialized(&ProfileReport::build_with(&table, &config, &opts));
    assert_eq!(cold, warm, "warm approx rebuild must be bit-identical");
    let after_warm = cache.stats();
    assert_eq!(after_warm.column_hits - after_cold.column_hits, 5);
    assert_eq!(
        after_warm.sketch_misses, after_cold.sketch_misses,
        "no re-sketching on a warm cache"
    );
}

/// A multi-chunk table that drives every rewritten profile kernel: a
/// high-cardinality id and float column (top-k evictions), floats with
/// NaN, ±Inf and ±0.0, ties, a categorical column edited through `set`
/// (stale dictionary entries), and repeated rows (duplicates).
fn multi_chunk_fixture() -> Table {
    // Rows 1 200.. repeat rows 0.. (duplicates).
    let rows: Vec<usize> = (0..1_500).map(|i| i % 1_200).collect();
    let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let id: Vec<Option<i64>> = rows.iter().map(|&r| Some(r as i64)).collect();
    let wave: Vec<Option<f64>> = rows
        .iter()
        .map(|&r| match r % 40 {
            0 => None,
            1..=5 => Some(specials[r % 5]),
            _ => Some((r as f64 * 0.731).sin() * 90.0),
        })
        .collect();
    let steps: Vec<Option<i64>> = rows
        .iter()
        .map(|&r| {
            if r % 23 == 0 {
                None
            } else {
                Some(r as i64 / 7)
            }
        })
        .collect();
    let cats = ["red", "green", "blue", "teal", "plum"];
    let colors: Vec<Option<&str>> = rows
        .iter()
        .map(|&r| if r % 19 == 0 { None } else { Some(cats[r % 5]) })
        .collect();
    let sizes: Vec<Option<&str>> = rows.iter().map(|&r| Some(["s", "m", "l"][r % 3])).collect();
    let mut table = Table::new(
        "multi-chunk",
        vec![
            Column::from_i64("id", id).rechunk(256),
            Column::from_f64("wave", wave).rechunk(300),
            Column::from_i64("steps", steps).rechunk(97),
            Column::from_str_vals("color", colors).rechunk(128),
            Column::from_str_vals("size", sizes).rechunk(1_000),
        ],
    )
    .unwrap();
    for row in [3, 400, 401, 1_333] {
        table
            .set(CellRef::new(row, 3), Value::Str(format!("tmp{row}")))
            .unwrap();
        table
            .set(CellRef::new(row, 3), Value::Str("red".into()))
            .unwrap();
    }
    table
}

/// Exact and approx reports on a multi-chunk table serialise to the
/// bytes of a sequential uncached build at 1, 2 and 8 threads, from a
/// cold cache and again warm, and each cold build misses the same
/// entries.
#[test]
fn multi_chunk_reports_are_bit_identical_across_threads_cold_and_warm() {
    let table = multi_chunk_fixture();
    assert!(table.duplicate_rows().len() > 250);
    for mode in [ProfileMode::Exact, ProfileMode::Approx] {
        let config = ProfileConfig {
            mode,
            ..ProfileConfig::default()
        };
        let baseline = serialized(&ProfileReport::build(&table, &config));
        let mut cold_stats = Vec::new();
        for threads in [1, 2, 8] {
            let cache = ProfileCache::new();
            let opts = BuildOptions {
                threads,
                cache: Some(&cache),
            };
            let cold = serialized(&ProfileReport::build_with(&table, &config, &opts));
            assert_eq!(
                baseline, cold,
                "{mode} cold build diverged at threads={threads}"
            );
            let stats = cache.stats();
            cold_stats.push((stats.misses(), stats.sketch_merges));
            let warm = serialized(&ProfileReport::build_with(&table, &config, &opts));
            assert_eq!(
                baseline, warm,
                "{mode} warm build diverged at threads={threads}"
            );
            assert_eq!(
                cache.stats().misses(),
                stats.misses(),
                "{mode} warm build at threads={threads} missed the cache"
            );
        }
        assert!(
            cold_stats.windows(2).all(|w| w[0] == w[1]),
            "{mode} cold builds missed differently: {cold_stats:?}"
        );
    }
}

#[test]
fn reprofile_after_repair_recomputes_only_touched_chunk() {
    let n = 240;
    let vals: Vec<Option<f64>> = (0..n).map(|i| Some(i as f64 * 0.25 - 9.0)).collect();
    let col = Column::from_f64("x", vals).rechunk(60); // 4 chunks of 60 rows
    let mut table = Table::new("t", vec![col]).unwrap();

    let cache = ProfileCache::new();
    let config = ProfileConfig::default();
    let opts = BuildOptions {
        threads: 1,
        cache: Some(&cache),
    };
    ProfileReport::build_with(&table, &config, &opts);
    let before = cache.stats();
    assert_eq!(before.chunk_misses, 4, "cold build computes every chunk");

    // Edit one cell in the third chunk: COW detaches only that chunk,
    // so the rebuild reuses the other three partials and re-derives the
    // column profile from the merged fold.
    table.set(CellRef::new(130, 0), Value::Float(1e6)).unwrap();
    ProfileReport::build_with(&table, &config, &opts);
    let after = cache.stats();

    assert_eq!(
        after.chunk_misses - before.chunk_misses,
        1,
        "only the edited chunk's partial is recomputed"
    );
    assert_eq!(after.chunk_hits - before.chunk_hits, 3);
    assert_eq!(after.column_misses - before.column_misses, 1);
}
