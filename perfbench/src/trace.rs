//! In-memory span recorder used by the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public functions: name, start, end, parent, and an optional
//! request id. They stay in memory until the run ends, when they are
//! written out and folded into per-layer self times. The layer of a span
//! is its name up to the first `.` (`profile.exact` → `profile`).

use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

#[derive(Default)]
struct Inner {
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans on the recording thread (index into `spans`).
    stack: Vec<usize>,
}

pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.now_ns();
            let mut inner = self.tracer.lock();
            inner.spans[i].end_ns = now;
            if inner.stack.last() == Some(&i) {
                inner.stack.pop();
            }
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer poisoned by a panicking workload")
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Turn recording on or off; the traced runs alternate traced and
    /// untraced operations to measure the recorder's own cost.
    pub fn set_enabled(&self, on: bool) {
        self.lock().enabled = on;
    }

    /// Open a span nested under the innermost open one on this thread.
    pub fn enter(&self, name: &str) -> Guard<'_> {
        let mut inner = self.lock();
        if !inner.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let parent = inner.stack.last().copied();
        let i = inner.spans.len();
        let start = self.now_ns();
        inner.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent,
            request: None,
        });
        inner.stack.push(i);
        Guard {
            tracer: self,
            index: Some(i),
        }
    }

    /// Record a finished span with explicit bounds (used where the work
    /// is spread over threads). Returns its index for use as a parent.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        let mut inner = self.lock();
        if !inner.enabled {
            return None;
        }
        inner.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(inner.spans.len() - 1)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are merged first).
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6
        })
        .collect()
}

/// For each span called `root`, the share (%) of its duration covered by
/// its direct children.
pub fn coverage_pct(spans: &[Span], root: &str) -> Vec<f64> {
    let selfs = self_times_ms(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == root && s.end_ns > s.start_ns)
        .map(|(s, own)| 100.0 * (1.0 - own / s.dur_ms()))
        .collect()
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let line = serde_json::json!({
            "id": i,
            "name": s.name.clone(),
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "parent": s.parent,
            "request": s.request,
        });
        out.push_str(&serde_json::to_string(&line).expect("span json"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op.pass", 0, 100, None),
            span("table.ingest", 10, 40, Some(0)),
            span("profile.exact", 40, 90, Some(0)),
            span("profile.inner", 50, 60, Some(2)),
        ];
        let selfs = self_times_ms(&spans);
        assert_eq!(selfs[0] * 1e6, 20.0);
        assert_eq!(selfs[2] * 1e6, 40.0);
        assert_eq!(coverage_pct(&spans, "op.pass"), vec![80.0]);
    }

    #[test]
    fn guards_nest_and_disable() {
        let t = Tracer::new();
        {
            let _g = t.enter("off");
        }
        t.set_enabled(true);
        {
            let _a = t.enter("op.a");
            let _b = t.enter("x.b");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
