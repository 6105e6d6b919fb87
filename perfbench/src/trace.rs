//! Spans recorded around the benchmark's own calls into each layer of the
//! program. Nothing inside the program is instrumented: a span covers one
//! call from this benchmark into a public function. Spans stay in memory
//! while the workload runs and are written out when it ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`. Names starting with `bench.` group a request's spans
    /// and are the benchmark's own, not a layer of the program.
    pub name: &'static str,
    /// The search, job or screen the call served; its spans share this id.
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// The spans of one run, plus the stretches of its measured phase that
/// ran traced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    windows: Vec<(Instant, Instant)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            windows: Vec::new(),
        }
    }
}

impl Tracer {
    /// Record a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, request, parent, start, Instant::now());
        value
    }

    /// Open a span now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    /// End a span opened with [`open`](Self::open).
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// Mark a stretch of the measured phase as traced.
    pub fn window(&mut self, start: Instant, end: Instant) {
        self.windows.push((start, end));
    }

    /// Durations of the spans called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Share of the traced windows that the union of layer spans covers;
    /// the rest is time the benchmark spent outside any call into the
    /// program.
    pub fn coverage(&self) -> f64 {
        let mut total = 0.0;
        let mut covered = 0.0;
        for &(from, to) in &self.windows {
            total += (to - from).as_secs_f64();
            let mut parts: Vec<(Instant, Instant)> = self
                .spans
                .iter()
                .filter(|s| !s.name.starts_with("bench."))
                .map(|s| (s.start.max(from), s.end.min(to)))
                .filter(|(a, b)| a < b)
                .collect();
            parts.sort();
            let mut merged: Option<(Instant, Instant)> = None;
            for (a, b) in parts {
                merged = match merged {
                    Some((ma, mb)) if a <= mb => Some((ma, mb.max(b))),
                    Some((ma, mb)) => {
                        covered += (mb - ma).as_secs_f64();
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ma, mb)) = merged {
                covered += (mb - ma).as_secs_f64();
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Write one JSON object per span, times in nanoseconds since the
    /// tracer was created.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.request,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}
