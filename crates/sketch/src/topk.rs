//! Space-saving heavy-hitters (top-k) sketch over strings.
//!
//! Bounded size: at most `capacity` `(value, count, overcount)` counters.
//! Mergeable in the style of Agarwal et al.'s mergeable summaries: counts
//! for values absent from one side are bounded by that side's minimum
//! counter, which is added as overcount.
//!
//! # Error bound
//!
//! For every tracked value, `count − overcount ≤ true frequency ≤ count`,
//! and `overcount ≤ n / capacity` where `n` is the total stream length
//! (summed across merged sketches). Any value with true frequency above
//! `n / capacity` is guaranteed to be tracked. At the default capacity 64
//! a top-10 listing is exact whenever the column has ≤ 64 distinct
//! values — the common case for categorical columns.
//!
//! # Determinism
//!
//! Victim selection and truncation tie-break by (count, value) with a
//! total lexicographic order, so insertion of the same stream and merges
//! in a fixed order reproduce byte-identical sketches.
//!
//! # Layout
//!
//! Counters sit in slots that never move. Two indexes over the slots
//! serve [`SpaceSaving::insert`]:
//!
//! - `by_value` lists the slots in value order. A lookup is a binary
//!   search, and [`SpaceSaving::entries`] and the serialized `counters`
//!   map iterate in this order. Each slot caches its value's first eight
//!   bytes as an integer, which settles most comparisons without
//!   touching the string.
//! - `heap` is a min-heap of `(count, slot)` ordered by (count, value).
//!   Its top is the eviction victim. A hit only bumps the slot's count,
//!   which leaves that slot's heap entry stale (too low). Eviction
//!   refreshes stale entries at the top until the top is current, which
//!   is then the true (count, value) minimum. So a hit costs one binary
//!   search and an eviction O(log capacity) comparisons.
//!
//! An eviction reuses the victim's string buffer for the new value.
//! Neither index is serialized: the JSON form is `capacity`, `n` and the
//! value-ordered `counters` map, and equality compares just those.

use std::collections::BTreeMap;

use serde::{Deserialize, Error as SerdeError, JsonValue, Serialize};

/// One tracked counter: estimated `count` and its maximum `overcount`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopEntry {
    pub count: u64,
    pub overcount: u64,
}

/// Bytes [`SpaceSaving::resident_bytes`] charges for the sketch itself on
/// top of its counters. A fixed figure rather than the struct's size, so
/// the footprint profiles report does not move with the in-memory
/// indexes.
pub const HEADER_BYTES: usize = 40;

/// Space-saving sketch; see the module docs for bounds and layout.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: u32,
    n: u64,
    /// Tracked values and their counters.
    slots: Vec<Slot>,
    /// Slot ids in value order.
    by_value: Vec<u32>,
    /// Min-heap of `(count when last refreshed, slot id)` by (count,
    /// value); holds every slot exactly once.
    heap: Vec<(u64, u32)>,
}

/// One tracked value and its counter.
#[derive(Debug, Clone)]
struct Slot {
    value: String,
    /// [`prefix_key`] of `value`.
    prefix: u64,
    entry: TopEntry,
}

impl Slot {
    fn new(value: String, entry: TopEntry) -> Slot {
        Slot {
            prefix: prefix_key(&value),
            value,
            entry,
        }
    }

    /// Orders like `value` but settles most comparisons on the prefix.
    fn key(&self) -> (u64, &str) {
        (self.prefix, &self.value)
    }
}

/// The first eight bytes of `s`, zero-padded, as a big-endian integer.
/// If `prefix_key(a) < prefix_key(b)` then `a < b`, so comparing
/// `(prefix_key(s), s)` orders strings exactly as comparing `s` does.
fn prefix_key(s: &str) -> u64 {
    let mut bytes = [0u8; 8];
    let n = s.len().min(8);
    bytes[..n].copy_from_slice(&s.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

impl SpaceSaving {
    /// Create an empty sketch tracking at most `capacity` values
    /// (clamped to `1..=4096`).
    pub fn new(capacity: u32) -> SpaceSaving {
        SpaceSaving {
            capacity: capacity.clamp(1, 4096),
            n: 0,
            slots: Vec::new(),
            by_value: Vec::new(),
            heap: Vec::new(),
        }
    }

    /// A sketch over `counters`, given in ascending value order.
    fn from_counters(capacity: u32, n: u64, counters: Vec<(String, TopEntry)>) -> SpaceSaving {
        let slots: Vec<Slot> = counters
            .into_iter()
            .map(|(value, entry)| Slot::new(value, entry))
            .collect();
        let mut s = SpaceSaving {
            capacity,
            n,
            by_value: (0..slots.len() as u32).collect(),
            heap: (0..slots.len() as u32)
                .map(|slot| (slots[slot as usize].entry.count, slot))
                .collect(),
            slots,
        };
        for i in (0..s.heap.len() / 2).rev() {
            s.sift_down(i);
        }
        s
    }

    /// Total observed stream length (including merged sketches).
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The smallest tracked count, or 0 when under capacity. This is the
    /// implicit upper bound on the frequency of every untracked value.
    fn floor(&self) -> u64 {
        if self.slots.len() < self.capacity as usize {
            0
        } else {
            self.slots.iter().map(|s| s.entry.count).min().unwrap_or(0)
        }
    }

    /// Observe one value.
    pub fn insert(&mut self, value: &str) {
        self.n += 1;
        let prefix = prefix_key(value);
        let at = match self.find((prefix, value)) {
            Ok(i) => {
                self.slots[self.by_value[i] as usize].entry.count += 1;
                return;
            }
            Err(at) => at,
        };
        if self.slots.len() < self.capacity as usize {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                value: value.to_string(),
                prefix,
                entry: TopEntry {
                    count: 1,
                    overcount: 0,
                },
            });
            self.by_value.insert(at, slot);
            self.heap.push((1, slot));
            self.sift_up(self.heap.len() - 1);
            return;
        }
        // Evict the (count, value)-minimal counter and inherit its count
        // as overcount — the space-saving replacement rule.
        let victim = self.victim();
        let floor = self.slots[victim].entry.count;
        let old = self
            .by_value
            .partition_point(|&s| self.slots[s as usize].key() < self.slots[victim].key());
        self.by_value.remove(old);
        let at = if old < at { at - 1 } else { at };
        let slot = &mut self.slots[victim];
        slot.value.clear();
        slot.value.push_str(value);
        slot.prefix = prefix;
        slot.entry = TopEntry {
            count: floor + 1,
            overcount: floor,
        };
        self.by_value.insert(at, victim as u32);
        self.heap[0] = (floor + 1, victim as u32);
        self.sift_down(0);
    }

    /// `Ok(position in by_value)` of the value with this [`Slot::key`],
    /// or `Err(position it would be inserted at)`.
    fn find(&self, key: (u64, &str)) -> Result<usize, usize> {
        self.by_value
            .binary_search_by(|&s| self.slots[s as usize].key().cmp(&key))
    }

    fn get(&self, value: &str) -> Option<&TopEntry> {
        let i = self.find((prefix_key(value), value)).ok()?;
        Some(&self.slots[self.by_value[i] as usize].entry)
    }

    /// The slot of the (count, value)-minimal counter. Refreshes stale
    /// heap entries at the top until the top is current; a current top
    /// is no larger than any other entry, and every entry is no larger
    /// than its slot's count. Only called when the heap is non-empty.
    fn victim(&mut self) -> usize {
        loop {
            let (seen, slot) = self.heap[0];
            let count = self.slots[slot as usize].entry.count;
            if seen == count {
                return slot as usize;
            }
            self.heap[0].0 = count;
            self.sift_down(0);
        }
    }

    /// Heap order: (count, value) ascending.
    fn heap_less(&self, a: (u64, u32), b: (u64, u32)) -> bool {
        (a.0, self.slots[a.1 as usize].key()) < (b.0, self.slots[b.1 as usize].key())
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.heap_less(self.heap[i], self.heap[parent]) {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut least = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.heap_less(self.heap[child], self.heap[least]) {
                    least = child;
                }
            }
            if least == i {
                break;
            }
            self.heap.swap(i, least);
            i = least;
        }
    }

    /// Merge another sketch (same capacity, enforced upstream). Counts
    /// add across the union of tracked values; a value absent from one
    /// side contributes that side's floor as additional overcount. The
    /// union is then truncated back to capacity keeping the largest
    /// counts (ties broken by value ascending).
    pub fn merge(&mut self, other: &SpaceSaving) {
        assert_eq!(
            self.capacity, other.capacity,
            "space-saving merge requires equal capacity"
        );
        let self_floor = self.floor();
        let other_floor = other.floor();
        let mut union: BTreeMap<String, TopEntry> = BTreeMap::new();
        for (k, e) in self.entries() {
            let (oc, oe) = other
                .get(k)
                .map(|o| (o.count, o.overcount))
                .unwrap_or((other_floor, other_floor));
            union.insert(
                k.to_string(),
                TopEntry {
                    count: e.count + oc,
                    overcount: e.overcount + oe,
                },
            );
        }
        for (k, o) in other.entries() {
            if union.contains_key(k) {
                continue;
            }
            union.insert(
                k.to_string(),
                TopEntry {
                    count: o.count + self_floor,
                    overcount: o.overcount + self_floor,
                },
            );
        }
        let mut counters: Vec<(String, TopEntry)> = union.into_iter().collect();
        if counters.len() > self.capacity as usize {
            counters.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(&b.0)));
            counters.truncate(self.capacity as usize);
            counters.sort_by(|a, b| a.0.cmp(&b.0));
        }
        *self = SpaceSaving::from_counters(self.capacity, self.n + other.n, counters);
    }

    /// The `k` most frequent tracked values as `(value, estimated count)`
    /// sorted by count descending, then value ascending.
    pub fn top(&self, k: usize) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .entries()
            .map(|(v, e)| (v.to_string(), e.count))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// All tracked counters in value order (for entropy-style estimates
    /// downstream).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &TopEntry)> {
        self.by_value.iter().map(|&s| {
            let slot = &self.slots[s as usize];
            (slot.value.as_str(), &slot.entry)
        })
    }

    /// Maximum possible overcount of any reported count: `n / capacity`.
    pub fn max_overcount(&self) -> u64 {
        self.n / u64::from(self.capacity)
    }

    /// Approximate heap footprint in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.value.len() + std::mem::size_of::<TopEntry>() + 48)
            .sum::<usize>()
            + HEADER_BYTES
    }
}

impl PartialEq for SpaceSaving {
    /// Equal capacity, stream length and counters; slot placement and
    /// index state do not participate.
    fn eq(&self, other: &SpaceSaving) -> bool {
        self.capacity == other.capacity && self.n == other.n && self.entries().eq(other.entries())
    }
}

impl Eq for SpaceSaving {}

impl Serialize for SpaceSaving {
    /// `{"capacity", "n", "counters": {value: entry, ...}}` with the
    /// counters in value order.
    fn to_json_value(&self) -> JsonValue {
        let counters = self
            .entries()
            .map(|(k, e)| (k.to_string(), e.to_json_value()))
            .collect();
        JsonValue::Obj(vec![
            ("capacity".to_string(), self.capacity.to_json_value()),
            ("n".to_string(), self.n.to_json_value()),
            ("counters".to_string(), JsonValue::Obj(counters)),
        ])
    }
}

impl Deserialize for SpaceSaving {
    fn from_json_value(v: &JsonValue) -> Result<SpaceSaving, SerdeError> {
        fn field<T: Deserialize>(v: &JsonValue, key: &str) -> Result<T, SerdeError> {
            let fields = v
                .as_object()
                .ok_or_else(|| SerdeError::new("expected object for `SpaceSaving`"))?;
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, v)) => T::from_json_value(v),
                None => Err(SerdeError::new(format!(
                    "missing field `{key}` of `SpaceSaving`"
                ))),
            }
        }
        let capacity: u32 = field(v, "capacity")?;
        let n: u64 = field(v, "n")?;
        let counters: BTreeMap<String, TopEntry> = field(v, "counters")?;
        Ok(SpaceSaving::from_counters(
            capacity,
            n,
            counters.into_iter().collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan-every-counter sketch `SpaceSaving` replaced, kept as the
    /// differential-test reference. Its derived JSON is the serialized
    /// form `SpaceSaving` must keep.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    struct Reference {
        capacity: u32,
        n: u64,
        counters: BTreeMap<String, TopEntry>,
    }

    impl Reference {
        fn new(capacity: u32) -> Reference {
            Reference {
                capacity: capacity.clamp(1, 4096),
                n: 0,
                counters: BTreeMap::new(),
            }
        }

        fn floor(&self) -> u64 {
            if self.counters.len() < self.capacity as usize {
                0
            } else {
                self.counters.values().map(|e| e.count).min().unwrap_or(0)
            }
        }

        fn insert(&mut self, value: &str) {
            self.n += 1;
            if let Some(e) = self.counters.get_mut(value) {
                e.count += 1;
                return;
            }
            if self.counters.len() < self.capacity as usize {
                self.counters.insert(
                    value.to_string(),
                    TopEntry {
                        count: 1,
                        overcount: 0,
                    },
                );
                return;
            }
            let victim = self
                .counters
                .iter()
                .min_by(|a, b| (a.1.count, a.0).cmp(&(b.1.count, b.0)))
                .map(|(k, e)| (k.clone(), e.count));
            if let Some((key, floor)) = victim {
                self.counters.remove(&key);
                self.counters.insert(
                    value.to_string(),
                    TopEntry {
                        count: floor + 1,
                        overcount: floor,
                    },
                );
            }
        }

        fn merge(&mut self, other: &Reference) {
            let self_floor = self.floor();
            let other_floor = other.floor();
            let mut union: BTreeMap<String, TopEntry> = BTreeMap::new();
            for (k, e) in &self.counters {
                let (oc, oe) = other
                    .counters
                    .get(k)
                    .map(|o| (o.count, o.overcount))
                    .unwrap_or((other_floor, other_floor));
                union.insert(
                    k.clone(),
                    TopEntry {
                        count: e.count + oc,
                        overcount: e.overcount + oe,
                    },
                );
            }
            for (k, o) in &other.counters {
                union.entry(k.clone()).or_insert(TopEntry {
                    count: o.count + self_floor,
                    overcount: o.overcount + self_floor,
                });
            }
            if union.len() > self.capacity as usize {
                let mut order: Vec<(String, TopEntry)> = union.into_iter().collect();
                order.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(&b.0)));
                order.truncate(self.capacity as usize);
                union = order.into_iter().collect();
            }
            self.counters = union;
            self.n += other.n;
        }
    }

    /// Asserts `s` holds exactly the reference's state and serializes to
    /// the reference's bytes.
    fn assert_matches(s: &SpaceSaving, r: &Reference) {
        let got: Vec<(&str, &TopEntry)> = s.entries().collect();
        let want: Vec<(&str, &TopEntry)> =
            r.counters.iter().map(|(k, e)| (k.as_str(), e)).collect();
        assert_eq!(got, want);
        assert_eq!(s.count(), r.n);
        assert_eq!(
            serde_json::to_string(s).unwrap(),
            serde_json::to_string(r).unwrap()
        );
    }

    /// A stream over `distinct` values with a skew, so some values are
    /// heavy and the tail churns through evictions. Values mix short
    /// strings, long ones sharing their first eight bytes, and ones with
    /// NUL bytes, so comparisons cannot settle on the prefix alone.
    fn stream(seed: u64, len: usize, distinct: u64) -> Vec<String> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = state >> 33;
                let v = if u % 3 == 0 {
                    u % 4
                } else {
                    u % distinct.max(1)
                };
                match v % 4 {
                    0 => format!("v{v}"),
                    1 => format!("shared-prefix-{v}"),
                    2 => format!("{}", v / 4),
                    _ => format!("z\0{}", "\0".repeat((v / 4 % 3) as usize)),
                }
            })
            .collect()
    }

    #[test]
    fn prefix_key_orders_like_strings() {
        let values = [
            "",
            "\0",
            "a",
            "a\0",
            "a\0\0",
            "ab",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghi",
            "abcdefgz",
            "b",
            "\u{ff}",
        ];
        for a in values {
            for b in values {
                let (ka, kb) = ((prefix_key(a), a), (prefix_key(b), b));
                assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    const MAX_LEN: usize = if cfg!(debug_assertions) { 300 } else { 5_000 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]
        /// Inserts and in-order merges of per-part sketches leave exactly
        /// the counters, stream length and serialized bytes the reference
        /// kernel does, and a deserialized sketch keeps matching as the
        /// stream continues.
        #[test]
        fn insert_and_merge_match_the_reference_kernel(
            seed in any::<u64>(),
            len in 0usize..MAX_LEN,
            distinct in 1u64..200,
            capacity in 1u32..20,
            parts in 1usize..5,
        ) {
            let values = stream(seed, len, distinct);
            let mut merged = SpaceSaving::new(capacity);
            let mut merged_ref = Reference::new(capacity);
            for part in values.chunks(len.div_ceil(parts).max(1)) {
                let mut s = SpaceSaving::new(capacity);
                let mut r = Reference::new(capacity);
                for v in part {
                    s.insert(v);
                    r.insert(v);
                }
                assert_matches(&s, &r);
                merged.merge(&s);
                merged_ref.merge(&r);
                assert_matches(&merged, &merged_ref);
            }
            let json = serde_json::to_string(&merged).unwrap();
            let mut back: SpaceSaving = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, &merged);
            for v in stream(seed ^ 1, len / 2, distinct) {
                back.insert(&v);
                merged_ref.insert(&v);
            }
            assert_matches(&back, &merged_ref);
        }
    }

    #[test]
    fn equality_ignores_slot_placement() {
        // Same counters reached through different histories land in
        // different slots but compare (and serialize) equal.
        let mut a = SpaceSaving::new(2);
        for v in ["x", "y", "z", "x"] {
            a.insert(v);
        }
        let json = serde_json::to_string(&a).unwrap();
        let b: SpaceSaving = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
        assert_eq!(serde_json::to_string(&b).unwrap(), json);
        assert_eq!(a.resident_bytes(), b.resident_bytes());
    }

    #[test]
    fn exact_under_capacity() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..5 {
            s.insert("a");
        }
        for _ in 0..3 {
            s.insert("b");
        }
        s.insert("c");
        assert_eq!(s.top(2), vec![("a".to_string(), 5), ("b".to_string(), 3)]);
        assert_eq!(s.max_overcount(), 1);
    }

    #[test]
    fn heavy_hitters_survive_eviction() {
        let mut s = SpaceSaving::new(16);
        // 40% "hot", the rest a churn of rare values.
        for i in 0..10_000u64 {
            if i % 5 < 2 {
                s.insert("hot");
            } else {
                s.insert(&format!("rare{}", i));
            }
        }
        let top = s.top(1);
        assert_eq!(top[0].0, "hot");
        let est = top[0].1;
        assert!(est >= 4000, "count underestimated: {est}");
        assert!(est <= 4000 + s.max_overcount());
    }

    #[test]
    fn merge_is_order_insensitive_for_exact_streams() {
        let mut a = SpaceSaving::new(32);
        let mut b = SpaceSaving::new(32);
        for i in 0..50u64 {
            a.insert(&format!("v{}", i % 5));
            b.insert(&format!("v{}", i % 7));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.top(12), ba.top(12));
        assert_eq!(ab.count(), 100);
    }

    #[test]
    fn ties_break_by_value_ascending() {
        let mut s = SpaceSaving::new(8);
        s.insert("b");
        s.insert("a");
        s.insert("c");
        assert_eq!(
            s.top(3),
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 1),
                ("c".to_string(), 1)
            ]
        );
    }
}
