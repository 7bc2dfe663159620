//! In-memory spans recorded around calls into the synthesizer's layers.
//!
//! Every span has a name, start and end (ns since the tracer was made), the
//! span that encloses it and the id of the request it belongs to. Spans stay
//! in memory until the run ends, then [`Tracer::write_jsonl`] writes them
//! out. A span's *self time* is its duration minus the time its child spans
//! cover; [`Tracer::requests`] folds the spans of each request into self
//! times per span name.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
}

/// Self times and counters of one request.
#[derive(Debug, Default)]
pub struct Request {
    /// Summed duration of the request's root spans, ns.
    pub total_ns: u64,
    /// Summed self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Counters recorded for the request.
    pub counts: BTreeMap<&'static str, f64>,
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(usize, &'static str, f64)>,
    request: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new request: later spans and counters carry its id.
    pub fn begin_request(&mut self) {
        debug_assert!(self.open.is_empty(), "a span is still open");
        self.request += 1;
    }

    /// Open a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record a counter value for the current request.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((self.request, name, value));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self times and counters, one entry per request, in request order.
    pub fn requests(&self) -> Vec<Request> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<usize, Request> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let r = out.entry(s.request).or_default();
            let dur = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                r.total_ns += dur;
            }
            *r.self_ns.entry(s.name).or_default() += dur.saturating_sub(child_ns[i]);
        }
        for &(req, name, v) in &self.counts {
            *out.entry(req).or_default().counts.entry(name).or_default() += v;
        }
        out.into_values().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// Cost of one empty open/close pair in ns, measured at run time.
pub fn span_cost_ns() -> f64 {
    let mut t = Tracer::default();
    let n = 20_000;
    let start = Instant::now();
    for _ in 0..n {
        let id = t.open("calibrate");
        t.close(id);
    }
    start.elapsed().as_nanos() as f64 / f64::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.begin_request();
        let root = t.open("root");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.count("things", 2.0);
        t.close(root);
        let reqs = t.requests();
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert!(r.self_ns["child"] >= 5_000_000);
        assert!(r.self_ns["root"] < r.self_ns["child"]);
        assert_eq!(r.total_ns, r.self_ns["root"] + r.self_ns["child"]);
        assert_eq!(r.counts["things"], 2.0);
    }
}
