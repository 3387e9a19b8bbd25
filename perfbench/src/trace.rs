//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions (the program itself is not instrumented). Each
//! span carries its name, start and end (microseconds since the recorder was
//! created), the index of its parent span and the request it belongs to.
//! Everything stays in memory until [`Tracer::write_jsonl`] runs at exit.
//! A disabled recorder only runs the closures, so untraced runs pay nothing
//! beyond a branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span whose bounds were measured elsewhere (e.g. a submit
    /// on one thread and the matching receipt on another). Returns its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a span that starts now; [`Tracer::close`] sets its end.
    pub fn open(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.us(Instant::now());
            self.spans[id].end_us = end;
        }
    }

    /// Runs `f` inside a span named `name`; returns `f`'s value and the span
    /// index (`None` when disabled).
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, start, end, parent, request))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
