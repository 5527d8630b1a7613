//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the crates is instrumented.
//! A span's self time is its duration minus the durations of its
//! children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the spans of op `op`; spans recorded until the next call
    /// carry this id.
    pub fn begin_op(&mut self, op: u64) {
        debug_assert!(self.stack.is_empty(), "op started inside a span");
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s value and the span's index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_indexed(name, f).0
    }

    pub fn span_indexed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        let idx = self.open(name, self.stack.last().copied());
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        (out, idx)
    }

    /// Times `f` as a child of the already closed span `parent`. Used for
    /// a call the parent makes internally that cannot be timed from
    /// outside its crate: the same call is repeated on the same input
    /// right after the parent, and its duration is charged to the
    /// parent's children.
    pub fn replayed_child<T>(
        &mut self,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, Some(parent));
        let out = f();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns() as i64;
            }
        }
        own.into_iter().map(|v| v.max(0) as u64).collect()
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        by_name
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span (with its self time) as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"op":{},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
