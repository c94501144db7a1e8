//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and request id; spans
//! stay in memory until the run ends and are then written out. A span's
//! self time is its duration minus the durations of its direct
//! children (children never overlap: one log belongs to one thread).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, times in nanoseconds since the log's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.vxm`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to start while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request (point) id the span belongs to; 0 for none.
    pub rid: u64,
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin` (share one origin
    /// between logs of different threads so their times line up).
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, rid: u64) -> usize {
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rid,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span (which must be `idx`) and returns
    /// its duration in seconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        (now - span.start_ns) as f64 * 1e-9
    }

    /// Sets the request id of span `idx` (known only after decoding).
    pub fn set_rid(&mut self, idx: usize, rid: u64) {
        self.spans[idx].rid = rid;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.begin(name, rid);
        let out = f(self);
        self.end(idx);
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time in seconds of each span.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns - c) as f64 * 1e-9)
            .collect()
    }

    /// Total self time in seconds per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Total duration in seconds per request id of the spans named `name`.
    pub fn duration_by_rid(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.rid).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rid\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.rid
            ));
        }
        out
    }
}
