//! In-memory span recorder for the traced replay.
//!
//! A span is one call across a layer boundary: its name, start and end
//! (seconds since the recorder's origin), the span that enclosed it, and
//! the replay it belongs to. Spans stay in memory until the run ends and
//! are then written out as JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub run: usize,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans; nesting follows the open/close call order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    /// Tags every span opened from now on with replay `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, run: self.run });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in reverse open order");
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Per-name `(calls, total seconds, self seconds)` over the spans of
    /// `run`. Self time is a span's duration minus its direct children's.
    pub fn rollup(&self, run: usize) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_time) {
            if s.run == run {
                let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
                e.0 += 1;
                e.1 += s.seconds();
                e.2 += s.seconds() - child;
            }
        }
        out
    }

    /// Total duration of the spans of `run` that enclose no other span.
    pub fn leaf_seconds(&self, run: usize) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for p in self.spans.iter().filter_map(|s| s.parent) {
            has_child[p] = true;
        }
        self.spans
            .iter()
            .zip(&has_child)
            .filter(|(s, &parent)| s.run == run && !parent)
            .map(|(s, _)| s.seconds())
            .sum()
    }

    /// All spans as a JSON array; a span's id is its array index.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \
                 \"parent\": {parent}, \"run\": {}}}{sep}",
                s.name, s.start, s.end, s.run
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("root");
        t.leaf("child", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.close(root);
        let r = t.rollup(0);
        let (calls, total, own) = r["root"];
        assert_eq!(calls, 1);
        assert!(own < total);
        assert!((total - own - r["child"].1).abs() < 1e-12);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.leaf_seconds(0), r["child"].1);
    }
}
