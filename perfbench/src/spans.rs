//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public API is wrapped in
//! a span (name, start, end, parent, workload, run id). Spans stay in
//! memory until [`Spans::write_jsonl`] writes them out at the end of the
//! run. A disabled recorder still times the call (the untraced run needs
//! the durations) but records nothing.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Row {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span recorder. Single-threaded: spans nest by call order.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    run_id: String,
    rows: RefCell<Vec<Row>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    /// A recorder for `workload`; `enabled = false` only times calls.
    pub fn new(enabled: bool, workload: &'static str, seed: u64) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            workload,
            run_id: format!("{workload}-seed{seed}-pid{}", std::process::id()),
            rows: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// host time it took.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let parent = self.open.borrow().last().copied();
            let mut rows = self.rows.borrow_mut();
            rows.push(Row {
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent,
            });
            let id = rows.len() - 1;
            self.open.borrow_mut().push(id);
            id
        });
        let out = f();
        let end = Instant::now();
        if let Some(id) = id {
            self.open.borrow_mut().pop();
            self.rows.borrow_mut()[id].end_ns = self.ns_since_origin(end);
        }
        (out, end - start)
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.rows.borrow().len()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, r) in self.rows.borrow().iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{}\",\"run\":\"{}\"}}",
                r.name, r.start_ns, r.end_ns, self.workload, self.run_id
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let spans = Spans::new(true, "t", 1);
        let ((), _) = spans.span("outer", || {
            let (v, _) = spans.span("inner", || 3);
            assert_eq!(v, 3);
        });
        let rows = spans.rows.borrow();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].parent, None);
        assert_eq!(rows[1].parent, Some(0));
        assert!(rows[0].start_ns <= rows[1].start_ns && rows[1].end_ns <= rows[0].end_ns);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let spans = Spans::new(false, "t", 1);
        let (v, took) = spans.span("x", || 7);
        assert_eq!(v, 7);
        assert!(took <= Duration::from_secs(1));
        assert_eq!(spans.len(), 0);
    }
}
