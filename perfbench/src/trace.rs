//! Spans recorded by the benchmark around the public calls it makes.
//!
//! A span is `(name, start, end, parent)`. Spans live in memory for the
//! whole run and are written out once, at the end, as Chrome trace-event
//! JSON (viewable in Perfetto). With tracing off every method is a
//! branch and nothing else, so the untraced run measures the program,
//! not the tracer.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are ns since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Display track: 0 for the main thread, `1 + i` for the i-th job of
    /// a pool batch.
    pub lane: u32,
}

/// Span recorder; a no-op when built with `on == false`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch (for spans measured elsewhere).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Open a span that closes with [`Tracer::close`] — also for spans
    /// that enclose code borrowing the tracer itself.
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return ROOT;
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            lane: 0,
        });
        self.stack.push(idx);
        idx
    }

    pub fn close(&mut self, idx: u32) {
        if idx == ROOT {
            return;
        }
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close in LIFO order");
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.ns(Instant::now());
    }

    /// Record a span measured on another thread, under the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, lane: u32) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            lane,
        });
    }

    /// Position to pass to [`Tracer::seconds_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration, in seconds, of spans named `name` recorded since `mark`.
    pub fn seconds_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// its parent index in `args`, and `meta` under `otherData`.
    pub fn to_chrome_json(&self, meta: &[(&str, String)]) -> String {
        let other: Vec<String> = meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "'")))
            .collect();
        let mut out = format!(
            "{{\"otherData\": {{{}}},\n\"traceEvents\": [\n",
            other.join(", ")
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
