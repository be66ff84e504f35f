//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`<layer>.<call>`), start and end on a clock
//! shared by every thread of the run, the span that was open around it, the
//! request it belongs to, and one optional count (facts, answers, bytes).
//! Each thread keeps its own [`Trace`]; the run merges them at the end,
//! writes them out and derives the per-layer metrics from them.  With
//! tracing off, `begin`/`end` do nothing.  A trace that alternates switches
//! itself on for every other op of its workload (see [`Trace::step`]), so
//! that traced and untraced work interleave over the same window.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
    pub n: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span, returned by [`Trace::begin`] and closed by [`Trace::end`].
#[must_use]
pub struct Open(u32);

pub struct Trace {
    on: bool,
    alternate: bool,
    clock: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    thread: u64,
    next_req: u64,
    req: u64,
    /// Exact counts recorded beside the spans.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new(on: bool, clock: Instant, thread: u64) -> Trace {
        Trace {
            on,
            alternate: false,
            clock,
            spans: Vec::new(),
            stack: Vec::new(),
            thread,
            next_req: 0,
            req: 0,
            counts: BTreeMap::new(),
        }
    }

    /// A trace for another thread of the run: same clock and mode.
    pub fn child(&self, thread: u64) -> Trace {
        Trace {
            alternate: self.alternate,
            ..Trace::new(self.on, self.clock, thread)
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        self.alternate = false;
    }

    /// Makes the trace alternate: from now on [`Trace::step`] switches it
    /// on for odd steps and off for even ones.
    pub fn alternate(&mut self) {
        self.alternate = true;
    }

    /// Starts step `k` of a workload's loop.  Returns whether the step is
    /// traced, or `None` if the trace does not alternate.
    pub fn step(&mut self, k: usize) -> Option<bool> {
        if !self.alternate {
            return None;
        }
        self.on = k % 2 == 1;
        Some(self.on)
    }

    /// Starts a new request: spans begun from now on carry its id.
    pub fn request(&mut self) {
        self.next_req += 1;
        self.req = (self.thread << 40) | self.next_req;
    }

    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req: self.req,
            n: 0,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, recording `n` with it.
    pub fn end(&mut self, open: Open, n: u64) {
        if open.0 == NONE {
            return;
        }
        let now = self.now();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        span.n = n;
        if let Some(pos) = self.stack.iter().rposition(|&i| i == open.0) {
            self.stack.truncate(pos);
        }
    }

    /// Records a finished span measured elsewhere (e.g. inside a helper
    /// that had no access to the trace).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, n: u64) {
        if !self.on {
            return;
        }
        let base = self.clock;
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(base).as_nanos() as u64,
            end_ns: end.saturating_duration_since(base).as_nanos() as u64,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req: self.req,
            n,
        });
    }

    /// Adds `v` to an exact count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Moves another thread's spans and counts into this trace.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len() as u32;
        for mut span in other.spans {
            if span.parent != NONE {
                span.parent += offset;
            }
            self.spans.push(span);
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per-span `dur / n` in ns, for spans called `name` with `n > 0`.
    pub fn per_item(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.n > 0)
            .map(|s| s.dur_ns() as f64 / s.n as f64)
            .collect()
    }

    /// Each layer's self time in ns: the layer's span durations minus the
    /// part covered by their child spans, over the span trees whose root's
    /// name starts with `root_prefix` (the requests of the workload).
    pub fn self_time_by_layer(&self, root_prefix: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent as usize] += span.dur_ns();
            }
        }
        let root_of = |mut i: usize| {
            while self.spans[i].parent != NONE {
                i = self.spans[i].parent as usize;
            }
            i
        };
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, (span, children)) in self.spans.iter().zip(child_ns).enumerate() {
            if !self.spans[root_of(i)].name.starts_with(root_prefix) {
                continue;
            }
            *by_layer.entry(span.layer()).or_default() +=
                span.dur_ns().saturating_sub(children) as f64;
        }
        by_layer
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"n\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.n
            )?;
        }
        out.flush()
    }
}
