//! Cell values and data types.
//!
//! A [`Value`] is the dynamically-typed content of a single table cell. The
//! four concrete types mirror what the paper's pandas substrate exposes to
//! the dashboard: integers, floats, booleans, and strings, plus an explicit
//! null. Parsing from text (CSV ingestion) and printing back out are
//! round-trip safe for every non-null value.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// The logical type of a column (or of a single [`Value`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// Boolean (`true`/`false`).
    Bool,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Whether this type participates in numeric statistics.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// Human-readable lowercase name, as emitted into DataSheets.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Bool => "bool",
            DataType::Str => "str",
        }
    }

    /// Parse a type name produced by [`DataType::name`].
    pub fn from_name(name: &str) -> Option<DataType> {
        match name {
            "int" => Some(DataType::Int),
            "float" => Some(DataType::Float),
            "bool" => Some(DataType::Bool),
            "str" => Some(DataType::Str),
            _ => None,
        }
    }

    /// The type that can represent values of both `self` and `other`.
    ///
    /// Int and Float widen to Float; anything else mixed degrades to Str,
    /// matching the permissive coercion pandas applies on ingestion.
    pub fn unify(self, other: DataType) -> DataType {
        if self == other {
            return self;
        }
        match (self, other) {
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => DataType::Float,
            _ => DataType::Str,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single cell value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing value (empty CSV cell, explicit null, failed coercion).
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    /// `true` when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The concrete type of this value, or `None` for nulls.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Numeric view of the value: ints and floats convert, booleans map to
    /// 0/1, everything else (including numeric-looking strings) is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view; floats truncate only when exactly integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Borrowed string view (only for `Str` values).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view (only for `Bool` values).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse `raw` as the given type. Empty strings and the conventional
    /// null spellings (`na`, `n/a`, `null`, `none`, `nan`, case-insensitive)
    /// parse to `Null` for every type. Returns `None` when `raw` is not a
    /// valid literal of `dtype`.
    pub fn parse_typed(raw: &str, dtype: DataType) -> Option<Value> {
        let trimmed = raw.trim();
        if is_null_token(trimmed) {
            return Some(Value::Null);
        }
        match dtype {
            DataType::Int => trimmed.parse::<i64>().ok().map(Value::Int),
            DataType::Float => parse_float(trimmed).map(Value::Float),
            DataType::Bool => parse_bool(trimmed).map(Value::Bool),
            DataType::Str => Some(Value::Str(trimmed.to_string())),
        }
    }

    /// Infer the narrowest type for a raw token, used by CSV schema
    /// inference. Null tokens return `None` (they are type-neutral).
    pub fn infer_dtype(raw: &str) -> Option<DataType> {
        let trimmed = raw.trim();
        if is_null_token(trimmed) {
            return None;
        }
        if trimmed.parse::<i64>().is_ok() {
            Some(DataType::Int)
        } else if parse_float(trimmed).is_some() {
            Some(DataType::Float)
        } else if parse_bool(trimmed).is_some() {
            Some(DataType::Bool)
        } else {
            Some(DataType::Str)
        }
    }

    /// Render the value the way the CSV writer does. Nulls render as the
    /// empty string.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => render_float(*f),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => s.clone(),
        }
    }

    /// Coerce this value to `dtype`, returning `Null` when the coercion is
    /// lossy or impossible (mirrors pandas `astype` with `errors="coerce"`).
    pub fn coerce(&self, dtype: DataType) -> Value {
        match (self, dtype) {
            (Value::Null, _) => Value::Null,
            (v, t) if v.dtype() == Some(t) => v.clone(),
            (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
            (Value::Float(f), DataType::Int) if f.fract() == 0.0 && f.is_finite() => {
                Value::Int(*f as i64)
            }
            (Value::Bool(b), DataType::Int) => Value::Int(i64::from(*b)),
            (Value::Bool(b), DataType::Float) => Value::Float(if *b { 1.0 } else { 0.0 }),
            (v, DataType::Str) => Value::Str(v.render()),
            (Value::Str(s), t) => Value::parse_typed(s, t).unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }

    /// Total order over values used for sorting and quantiles: nulls first,
    /// then by type group (numeric < bool < str), numerics compared by
    /// magnitude with NaN last.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Bool(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (a, b) => {
                    let fa = a.as_f64().unwrap_or(f64::NAN);
                    let fb = b.as_f64().unwrap_or(f64::NAN);
                    fa.total_cmp(&fb)
                }
            },
            ord => ord,
        }
    }
}

impl PartialEq for Value {
    /// Equality treats `Int(2) == Float(2.0)` as equal (numeric identity)
    /// and `Null == Null` as equal, which is what cell-level error masks
    /// need when comparing dirty vs. clean tables.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *b == *a as f64,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Ints and whole floats must hash identically because they
            // compare equal.
            Value::Int(i) => {
                1u8.hash(state);
                canonical_float_bits(*i as f64).hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                canonical_float_bits(*f).hash(state);
            }
            Value::Bool(b) => {
                2u8.hash(state);
                b.hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// Bits of `f` with every NaN mapped to one NaN and `-0.0` to `0.0`, so
/// values that compare equal under [`Value`]'s `PartialEq` hash alike.
pub(crate) fn canonical_float_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("∅"),
            other => f.write_str(&other.render()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Whether a raw token spells a null.
pub fn is_null_token(trimmed: &str) -> bool {
    trimmed.is_empty()
        || matches!(
            trimmed.to_ascii_lowercase().as_str(),
            "na" | "n/a" | "null" | "none" | "nan"
        )
}

fn parse_bool(s: &str) -> Option<bool> {
    // Only the canonical spellings: looser forms ("t", "yes") would turn
    // legitimate string data into booleans during schema inference.
    match s.to_ascii_lowercase().as_str() {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

fn parse_float(s: &str) -> Option<f64> {
    // Reject inf/NaN spellings: they are almost always data errors in CSV
    // sources and pandas treats them as strings unless told otherwise.
    // Literals that overflow to ±inf (`1e999`) are rejected the same way.
    let lower = s.to_ascii_lowercase();
    if lower.contains("inf") || lower.contains("nan") {
        return None;
    }
    s.parse::<f64>().ok().filter(|f| f.is_finite())
}

fn render_float(f: f64) -> String {
    let mut out = String::new();
    write_float(&mut out, f);
    out
}

/// Append `f` rendered exactly as [`Value::render`] renders a float, so
/// hot loops can reuse one buffer instead of allocating per value.
pub fn write_float(out: &mut String, f: f64) {
    use std::fmt::Write as _;
    // Writing into a String cannot fail.
    let _ = if f.is_nan() {
        out.write_str("NaN")
    } else if f == f.trunc() && f.is_finite() && f.abs() < 1e15 {
        // Keep a trailing ".0" so the value re-parses as Float, not Int.
        write!(out, "{f:.1}")
    } else {
        write!(out, "{f}")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_unification_widens_numerics() {
        assert_eq!(DataType::Int.unify(DataType::Float), DataType::Float);
        assert_eq!(DataType::Float.unify(DataType::Int), DataType::Float);
        assert_eq!(DataType::Int.unify(DataType::Int), DataType::Int);
        assert_eq!(DataType::Int.unify(DataType::Str), DataType::Str);
        assert_eq!(DataType::Bool.unify(DataType::Float), DataType::Str);
    }

    #[test]
    fn parse_typed_honours_null_tokens() {
        for raw in ["", "  ", "NA", "n/a", "NULL", "None", "nan"] {
            assert_eq!(
                Value::parse_typed(raw, DataType::Int),
                Some(Value::Null),
                "raw={raw:?}"
            );
        }
    }

    #[test]
    fn parse_typed_int_float_bool() {
        assert_eq!(
            Value::parse_typed("42", DataType::Int),
            Some(Value::Int(42))
        );
        assert_eq!(
            Value::parse_typed("-7", DataType::Int),
            Some(Value::Int(-7))
        );
        assert_eq!(Value::parse_typed("4.5", DataType::Int), None);
        assert_eq!(
            Value::parse_typed("4.5", DataType::Float),
            Some(Value::Float(4.5))
        );
        assert_eq!(
            Value::parse_typed("1e3", DataType::Float),
            Some(Value::Float(1000.0))
        );
        assert_eq!(
            Value::parse_typed("True", DataType::Bool),
            Some(Value::Bool(true))
        );
        assert_eq!(
            Value::parse_typed("FALSE", DataType::Bool),
            Some(Value::Bool(false))
        );
        assert_eq!(Value::parse_typed("yes", DataType::Bool), None);
        assert_eq!(Value::parse_typed("maybe", DataType::Bool), None);
    }

    #[test]
    fn parse_float_rejects_inf_and_nan_spellings() {
        assert_eq!(Value::parse_typed("inf", DataType::Float), None);
        assert_eq!(Value::parse_typed("-Infinity", DataType::Float), None);
        assert_eq!(Value::infer_dtype("inf"), Some(DataType::Str));
        // Overflowing literals parse to ±inf; they are rejected too.
        assert_eq!(Value::parse_typed("1e999", DataType::Float), None);
        assert_eq!(Value::parse_typed("-1e999", DataType::Float), None);
        assert_eq!(Value::infer_dtype("1e999"), Some(DataType::Str));
        assert_eq!(
            Value::parse_typed("1e-999", DataType::Float),
            Some(Value::Float(0.0))
        );
    }

    #[test]
    fn infer_dtype_narrowest_first() {
        assert_eq!(Value::infer_dtype("12"), Some(DataType::Int));
        assert_eq!(Value::infer_dtype("12.5"), Some(DataType::Float));
        assert_eq!(Value::infer_dtype("true"), Some(DataType::Bool));
        assert_eq!(Value::infer_dtype("hello"), Some(DataType::Str));
        assert_eq!(Value::infer_dtype(""), None);
        assert_eq!(Value::infer_dtype("NA"), None);
    }

    #[test]
    fn render_round_trips() {
        let vals = [
            Value::Int(-3),
            Value::Float(2.5),
            Value::Float(10.0),
            Value::Bool(true),
            Value::Str("abc".into()),
        ];
        for v in vals {
            let dtype = v.dtype().unwrap();
            let back = Value::parse_typed(&v.render(), dtype).unwrap();
            assert_eq!(back, v, "render {v:?}");
        }
    }

    #[test]
    fn whole_float_renders_with_decimal_point() {
        assert_eq!(Value::Float(10.0).render(), "10.0");
        assert_eq!(Value::infer_dtype("10.0"), Some(DataType::Float));
    }

    #[test]
    fn numeric_equality_across_int_and_float() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn hash_consistent_with_numeric_equality() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(2));
        assert!(set.contains(&Value::Float(2.0)));
        // ±0.0 compare equal (also against Int(0)), so they must hash
        // alike; so must NaNs with different payloads.
        for (a, b) in [
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Int(0), Value::Float(-0.0)),
            (Value::Float(f64::NAN), Value::Float(-f64::NAN)),
        ] {
            assert_eq!(a, b);
            let set: HashSet<Value> = [a.clone()].into_iter().collect();
            assert!(set.contains(&b), "{a:?} and {b:?} hash differently");
        }
        let col = crate::Column::from_f64("z", [Some(0.0), Some(-0.0)]);
        assert_eq!(col.value_counts(), vec![(Value::Float(0.0), 2)]);
    }

    #[test]
    fn write_float_appends_the_float_rendering() {
        for (f, want) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (-2.5, "-2.5"),
            (1e15, "1000000000000000"),
            (1e-7, "0.0000001"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
        ] {
            let mut buf = String::from("x");
            write_float(&mut buf, f);
            assert_eq!(buf, format!("x{want}"));
            assert_eq!(Value::Float(f).render(), want);
        }
    }

    #[test]
    fn coerce_between_types() {
        assert_eq!(Value::Int(3).coerce(DataType::Float), Value::Float(3.0));
        assert_eq!(Value::Float(3.0).coerce(DataType::Int), Value::Int(3));
        assert_eq!(Value::Float(3.5).coerce(DataType::Int), Value::Null);
        assert_eq!(Value::Str("7".into()).coerce(DataType::Int), Value::Int(7));
        assert_eq!(Value::Str("x".into()).coerce(DataType::Int), Value::Null);
        assert_eq!(Value::Int(7).coerce(DataType::Str), Value::Str("7".into()));
    }

    #[test]
    fn total_cmp_orders_nulls_first() {
        let mut vals = [
            Value::Str("b".into()),
            Value::Int(5),
            Value::Null,
            Value::Float(1.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Float(1.5));
        assert_eq!(vals[2], Value::Int(5));
    }

    #[test]
    fn as_f64_and_as_i64_views() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("4".into()).as_f64(), None);
        assert_eq!(Value::Float(4.0).as_i64(), Some(4));
        assert_eq!(Value::Float(4.5).as_i64(), None);
    }
}
