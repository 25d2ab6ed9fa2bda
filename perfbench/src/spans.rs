//! In-memory span recording for the traced run, plus the timing
//! statistics every workload reports.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the library's public functions; the library itself is not
//! instrumented. A disabled recorder reads no clock, so the untraced
//! run pays one branch per call site.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The work item the span belongs to: a (mix, scheme) or
    /// (scenario, scheme, slice) item, or a chunk index.
    pub request: u64,
    /// How many calls this span stands for: spans of per-instruction
    /// calls are taken 1-in-`weight`, every other span has weight 1.
    pub weight: u32,
}

/// Span sink shared by the workload loop and the trace-source wrappers.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; close it with [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: Option<usize>,
}

impl Open {
    /// The span's index, for use as a parent.
    pub fn id(self) -> Option<usize> {
        self.id
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            inner: enabled.then(|| {
                Arc::new(Inner {
                    origin: Instant::now(),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn spans(&self) -> Option<std::sync::MutexGuard<'_, Vec<Span>>> {
        self.inner.as_ref().map(|i| {
            i.spans
                .lock()
                .expect("span recorder poisoned by a panicking thread")
        })
    }

    fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.origin.elapsed().as_nanos() as u64)
    }

    /// Opens a span now.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, request: u64) -> Open {
        if self.inner.is_none() {
            return Open { id: None };
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans().expect("enabled");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            weight: 1,
        });
        Open {
            id: Some(spans.len() - 1),
        }
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&self, open: Open) {
        if let Some(id) = open.id {
            let end_ns = self.now_ns();
            self.spans().expect("enabled")[id].end_ns = end_ns;
        }
    }

    /// Records a finished span timed by the caller with `Instant`s.
    pub fn record(&self, span: SpanAt) {
        if let Some(inner) = &self.inner {
            let rel = |t: Instant| t.saturating_duration_since(inner.origin).as_nanos() as u64;
            self.spans().expect("enabled").push(Span {
                name: span.name,
                start_ns: rel(span.start),
                end_ns: rel(span.end),
                parent: span.parent,
                request: span.request,
                weight: span.weight,
            });
        }
    }

    /// Per-name totals: weighted call count, weighted busy time with
    /// the clock cost taken out of each sampled span, and self time
    /// (busy time minus the time child spans cover).
    pub fn summary(&self, clock_ns: f64) -> Vec<SpanTotals> {
        let Some(spans) = self.spans() else {
            return Vec::new();
        };
        // A sampled span's interval includes about one clock read.
        let busy = |s: &Span| {
            let d = (s.end_ns - s.start_ns) as f64;
            if s.weight > 1 {
                (d - clock_ns).max(0.0) * f64::from(s.weight)
            } else {
                d
            }
        };
        let mut child_cover = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_cover[p] += busy(s);
            }
        }
        let mut totals: Vec<SpanTotals> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let t = match totals.iter_mut().find(|t| t.name == s.name) {
                Some(t) => t,
                None => {
                    totals.push(SpanTotals {
                        name: s.name,
                        calls: 0.0,
                        busy_ns: 0.0,
                        self_ns: 0.0,
                        spans: 0,
                    });
                    totals.last_mut().expect("just pushed")
                }
            };
            let b = busy(s);
            t.calls += f64::from(s.weight);
            t.busy_ns += b;
            t.self_ns += (b - child_cover[i]).max(0.0);
            t.spans += 1;
        }
        totals
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = self.spans() else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"weight\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.weight
            )?;
        }
        out.flush()
    }
}

/// A span timed by the caller.
pub struct SpanAt {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: u64,
    pub weight: u32,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone)]
pub struct SpanTotals {
    pub name: &'static str,
    /// Calls the spans stand for (sampled spans count `weight` each).
    pub calls: f64,
    pub busy_ns: f64,
    pub self_ns: f64,
    /// Spans actually recorded.
    pub spans: usize,
}

impl SpanTotals {
    pub fn ns_per_call(&self) -> f64 {
        if self.calls > 0.0 {
            self.busy_ns / self.calls
        } else {
            0.0
        }
    }
}

/// Looks a name up in a [`Recorder::summary`].
pub fn totals<'a>(summary: &'a [SpanTotals], name: &str) -> Option<&'a SpanTotals> {
    summary.iter().find(|t| t.name == name)
}

/// The cost of one `Instant::now()` in nanoseconds: the median of
/// several batches of back-to-back reads.
pub fn calibrate_clock_ns() -> f64 {
    const READS: u32 = 20_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            let mut last = t0;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            last.duration_since(t0).as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    quantile(&batches, 0.5)
}

/// Nearest-rank quantile `p` in [0, 1] of `values` (the library's
/// convention: the median of an even count is the lower middle sample);
/// 0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    untangle_sim::stats::percentile(values, p).unwrap_or(0.0)
}
