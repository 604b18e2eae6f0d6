//! Seeded column generators for the detectors' differential tests, and
//! the per-row copying numeric reader their reference kernels share.

use datalens_table::{Column, DataType, Value};

/// Rows of the differential tests: debug builds stay quick, release
/// builds run larger columns that span many chunks.
pub const MAX_ROWS: usize = if cfg!(debug_assertions) { 80 } else { 2_000 };

/// Deterministic draws in `0..n` from `state`.
pub fn draw(state: &mut u64, n: u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) % n.max(1)
}

/// `(row, value)` of every non-null numeric cell, read row by row
/// through `Column::get` — the copy the rewritten kernels replaced.
pub fn numeric_entries(col: &Column) -> Vec<(usize, f64)> {
    (0..col.len())
        .filter_map(|r| col.get(r).as_f64().map(|v| (r, v)))
        .collect()
}

/// A numeric column of `dtype` with nulls, NaN, ±inf, ±0.0, heavy ties,
/// FAHES sentinels and far outliers, split into chunks of `chunk_rows`
/// and edited `edits` times through `set`. Odd seeds keep the bulk
/// strictly positive.
pub fn numeric_column(
    seed: u64,
    rows: usize,
    chunk_rows: usize,
    dtype: DataType,
    edits: usize,
) -> Column {
    let mut state = seed;
    let offset = if seed % 2 == 1 { 1.0 } else { -100.0 };
    let cell = |state: &mut u64| -> Value {
        let u = draw(state, 100);
        let k = draw(state, 1000) as f64;
        if dtype == DataType::Bool {
            return match u {
                0..=9 => Value::Null,
                _ => Value::Bool(k < 300.0),
            };
        }
        match u {
            0..=7 => Value::Null,
            8..=11 => Value::Float(
                [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][draw(state, 5) as usize],
            ),
            12..=17 => Value::Int([-1, 0, -999, 9999, 99999][draw(state, 5) as usize]),
            18..=20 => Value::Float(5000.0 + k),
            21..=45 => Value::Int(draw(state, 4) as i64 + 1),
            _ if dtype == DataType::Int => Value::Int(k as i64 + offset as i64),
            _ => Value::Float(k * 0.37 + offset),
        }
    };
    let values: Vec<Value> = (0..rows).map(|_| cell(&mut state)).collect();
    let mut col = Column::from_values("n", dtype, values).rechunk(chunk_rows);
    for _ in 0..edits.min(rows) {
        let row = draw(&mut state, rows as u64) as usize;
        let v = cell(&mut state);
        col.set(row, v);
    }
    col
}

/// Strings a column may be drawn from: US states, weekdays, codes,
/// zips, emails and free text.
fn pool_value(kind: u64, state: &mut u64) -> String {
    let n = draw(state, 40);
    match kind % 6 {
        0 => ["CA", "OR", "TX", "ny", " WA ", "DC"][(n % 6) as usize].to_string(),
        1 => ["monday", "Tuesday", "friday", "SUNDAY"][(n % 4) as usize].to_string(),
        2 => format!("AB{n:03}"),
        3 => format!("{:05}", 89000 + n),
        4 => format!("user{n}@example.com"),
        _ => ["red fox", "blue", "green-2", "teal"][(n % 4) as usize].to_string(),
    }
}

/// A string column drawn from pool `kind`, with ~10% nulls and `noise`%
/// cells from a bag of placeholders, odd patterns and off-domain words,
/// split into chunks of `chunk_rows`. `edits` cells are overwritten
/// through `set` (first with a fresh value, then with a drawn one),
/// which leaves stale dictionary entries behind.
pub fn string_column(
    seed: u64,
    rows: usize,
    chunk_rows: usize,
    kind: u64,
    noise: u64,
    edits: usize,
) -> Column {
    const NOISE: [&str; 11] = [
        "?", " N/A ", "unknown", "TBD", "12345", "ab-12", "Bavaria", "x y", "", "MONDAY", " ca ",
    ];
    let mut state = seed;
    let cell = |state: &mut u64| -> Value {
        let u = draw(state, 100);
        if u < 10 {
            Value::Null
        } else if u < 10 + noise {
            Value::Str(NOISE[draw(state, NOISE.len() as u64) as usize].to_string())
        } else {
            Value::Str(pool_value(kind, state))
        }
    };
    let values: Vec<Value> = (0..rows).map(|_| cell(&mut state)).collect();
    let mut col = Column::from_values("s", DataType::Str, values).rechunk(chunk_rows);
    for e in 0..edits.min(rows) {
        let row = draw(&mut state, rows as u64) as usize;
        col.set(row, Value::Str(format!("fresh {e}")));
        let v = cell(&mut state);
        col.set(row, v);
    }
    col
}
