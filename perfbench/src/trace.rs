//! In-memory spans recorded around the benchmark's calls into each layer.
//! Nothing here reaches inside the program: a span covers one public call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span.
struct Span {
    /// The layer (or structural) name.
    name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// The work item the span belongs to.
    item: Option<u32>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle on an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; otherwise every call is a single branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    item: Option<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            item: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose name is decided when it closes (a cache call is
    /// a hit or a simulation only once it has returned).
    pub fn open(&mut self) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: "",
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            item: self.item,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` under `name`.
    pub fn close(&mut self, open: Open, name: &'static str) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx];
        span.name = name;
        span.end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open();
        let out = f();
        self.close(open, name);
        out
    }

    /// Tags the spans opened from now on with a work-item id.
    pub fn set_item(&mut self, item: Option<u32>) {
        self.item = item;
    }

    /// Per-name self time in seconds: each span's duration minus the part
    /// its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.dur_ns() - c) as f64 / 1e9;
        }
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"item\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.item.map(u64::from)),
            )?;
        }
        out.flush()
    }
}
