//! The repository benchmark: four workloads over the Untangle
//! reproduction, each timed end to end and, in a separate traced run,
//! split by layer.
//!
//! Usage (from the repository root, through `perfbench/run.py`, which
//! builds this binary first):
//!
//! ```text
//! untangle-perfbench --workload <mix-sim|scenario-replay|serve-mem|serve-wal>
//!     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Every workload is a loop of *passes*. A pass first sets up from
//! nothing but the seed (sources, rate-table solves with the `R_max`
//! cache emptied, trace files, admits, durable state) and then runs its
//! measured phase; passes repeat until the measured phases add up to
//! `--seconds`. Set-up never counts in the measured wall time or in
//! chunk latencies. Simulator statistics inside each `Runner` start
//! after its warmup (cycle warmup for `mix-sim`, instruction warmup for
//! the scenario slice replays), as the library's measurement protocol
//! defines them.
//!
//! Standard output is a human-readable report (run manifest, every
//! metric with its unit and sample count, the correctness checks) and,
//! as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, from a run that alternates
//! untraced and traced passes and then replays each layer standalone.
//! The traced run also writes its spans to
//! `<work-dir>/<workload>/spans.jsonl`.
//!
//! The end-to-end host times are host-adjusted: between passes the run
//! times a fixed reference kernel of its own ([`host`]) and scales each
//! pass's times to a nominal reference speed, so that the shared host's
//! changing speed drops out of them. The report also prints them raw.
//!
//! A failed correctness check counts as a failed operation, marks the
//! result `"correct": false` and makes the process exit with code 1.

mod gate;
mod host;
mod layers;
mod serve;
mod sim;
mod spans;

use std::path::PathBuf;
use std::time::Instant;

use untangle_obs::json::Json;

use spans::{quantile, Recorder};

/// The seed whose outputs `golden.txt` pins.
pub const DEFAULT_SEED: u64 = 1;

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for trace files and durable state.
    pub work: PathBuf,
    /// Calibrated cost of one clock read, in nanoseconds.
    pub clock_ns: f64,
}

impl Ctx {
    /// A 64-bit value derived from the seed for one named input
    /// stream (splitmix64 finalizer), so streams stay independent.
    pub fn derive(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// The metrics the JSON line carries (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further metrics for the report only (workload-specific ones).
    pub extra: Vec<Metric>,
    /// Manifest entries particular to the workload.
    pub manifest: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }
}

/// Timings of a sequence of passes.
#[derive(Debug)]
pub struct Passes<R> {
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub results: Vec<R>,
    /// Peak resident memory once the first pass has ended. Later passes
    /// only repeat the same work, but the allocator's high-water mark
    /// keeps creeping with their number, which depends on host speed.
    pub first_pass_rss_mb: f64,
    /// Seconds of the host reference kernel around each pass (the mean
    /// of the timings just before and just after it).
    pub reference_s: Vec<f64>,
}

impl<R> Default for Passes<R> {
    fn default() -> Self {
        Self {
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            results: Vec::new(),
            first_pass_rss_mb: 0.0,
            reference_s: Vec::new(),
        }
    }
}

impl<R> Passes<R> {
    /// The factor that scales pass `i`'s host time to the nominal
    /// reference speed.
    pub fn adjust(&self, i: usize) -> f64 {
        host::NOMINAL_S / self.reference_s[i]
    }
}

/// What one pass reports about itself.
pub struct PassTiming<R> {
    pub setup_s: f64,
    pub wall_s: f64,
    pub result: R,
}

/// Measured seconds between two timings of the host reference.
const REFERENCE_EVERY_S: f64 = 0.4;

/// Runs passes until their measured phases add up to the run's
/// seconds, and returns the untraced and the traced passes. `pass` gets
/// the recorder to use and the pass index, and times its own set-up and
/// measured phases.
///
/// The untraced run uses every pass. The traced run alternates
/// untraced and traced passes, so a drift in machine speed during the
/// run cancels out of their ratio, and keeps a fifth of its seconds for
/// the standalone layer replays that follow.
///
/// Between passes, once at least [`REFERENCE_EVERY_S`] measured seconds
/// have gone by, and after the last pass, the loop times the host
/// reference kernel (see [`host`]); it is never inside a pass.
pub fn measure<R>(
    ctx: &Ctx,
    recorder: &Recorder,
    mut pass: impl FnMut(&Recorder, usize) -> Result<PassTiming<R>, String>,
) -> Result<(Passes<R>, Passes<R>), String> {
    let off = Recorder::new(false);
    let (budget_s, min_passes) = if ctx.trace {
        (0.8 * ctx.seconds, 6)
    } else {
        (ctx.seconds, 3)
    };
    let mut untraced = Passes::default();
    let mut traced = Passes::default();
    let started = Instant::now();
    let mut reference = host::Reference::new();
    // (index of the pass that follows, seconds) of each reference timing.
    let mut timings: Vec<(usize, f64)> = Vec::new();
    let mut since_timing = f64::INFINITY;
    for i in 0.. {
        let measured: f64 = untraced.wall_s.iter().chain(&traced.wall_s).sum();
        let enough = measured >= budget_s && i >= min_passes;
        // A hard stop well inside the 180 s a run may take, whatever
        // the machine's speed.
        let overdue = started.elapsed().as_secs_f64() > 3.0 * budget_s + 30.0 && i >= 2;
        if enough || overdue {
            break;
        }
        if since_timing >= REFERENCE_EVERY_S {
            timings.push((i, reference.time()));
            since_timing = 0.0;
        }
        let (rec, out) = if ctx.trace && i % 2 == 1 {
            (recorder, &mut traced)
        } else {
            (&off, &mut untraced)
        };
        let t = pass(rec, i)?;
        eprintln!(
            "pass {i}{}: set-up {:.4} s, measured {:.4} s",
            if rec.enabled() { " (traced)" } else { "" },
            t.setup_s,
            t.wall_s
        );
        since_timing += t.wall_s;
        out.setup_s.push(t.setup_s);
        out.wall_s.push(t.wall_s);
        out.results.push(t.result);
        if i == 0 {
            untraced.first_pass_rss_mb = peak_rss_mb();
        }
    }
    timings.push((
        untraced.wall_s.len() + traced.wall_s.len(),
        reference.time(),
    ));
    // The passes between two timings get their mean.
    for pair in timings.windows(2) {
        let ((from, before), (to, after)) = (pair[0], pair[1]);
        for i in from..to {
            let out = if ctx.trace && i % 2 == 1 {
                &mut traced
            } else {
                &mut untraced
            };
            out.reference_s.push((before + after) / 2.0);
        }
    }
    Ok((untraced, traced))
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order, and the chunk-latency tail and the raw host times for the
/// report. `ops` is the work one pass completes (simulated instructions
/// or telemetry events) and `chunk_ms` the per-chunk latencies of each
/// measured pass.
///
/// Every time here is host-adjusted (see [`host`]): each pass's times
/// are scaled by its own reference timing before the median is taken.
/// The `raw_*` metrics are the same medians unscaled. The tail is not
/// gated: on `serve-wal` it follows the shared disk's fsync tail, and its
/// p99 doubles between identical runs.
pub fn end_to_end<R>(
    passes: &Passes<R>,
    ops: &[u64],
    chunk_ms: &[&[f64]],
) -> (Vec<Metric>, Vec<Metric>) {
    let n = passes.wall_s.len();
    let adjusted =
        |values: &[f64]| -> Vec<f64> { (0..n).map(|i| values[i] * passes.adjust(i)).collect() };
    let rates: Vec<f64> = (0..n).map(|i| ops[i] as f64 / passes.wall_s[i]).collect();
    let adj_rates: Vec<f64> = (0..n).map(|i| rates[i] / passes.adjust(i)).collect();
    let chunks: Vec<f64> = chunk_ms.concat();
    let adj_chunks: Vec<f64> = (0..n)
        .flat_map(|i| chunk_ms[i].iter().map(move |ms| ms * passes.adjust(i)))
        .collect();
    let at =
        |name, values: &[f64], p, unit| Metric::new(name, quantile(values, p), unit, values.len());
    (
        vec![
            at("setup_s", &adjusted(&passes.setup_s), 0.5, "s"),
            at("wall_s", &adjusted(&passes.wall_s), 0.5, "s"),
            at("ops_per_s", &adj_rates, 0.5, "1/s"),
            at("chunk_p50_ms", &adj_chunks, 0.5, "ms"),
            Metric::new("peak_rss_mb", passes.first_pass_rss_mb, "MB", 1),
        ],
        vec![
            at("chunk_p90_ms", &adj_chunks, 0.9, "ms"),
            at("chunk_p99_ms", &adj_chunks, 0.99, "ms"),
            at("raw_setup_s", &passes.setup_s, 0.5, "s"),
            at("raw_wall_s", &passes.wall_s, 0.5, "s"),
            at("raw_ops_per_s", &rates, 0.5, "1/s"),
            at("raw_chunk_p50_ms", &chunks, 0.5, "ms"),
            Metric::new(
                "host.reference_ms",
                quantile(&passes.reference_s, 0.5) * 1e3,
                "ms",
                passes.reference_s.len(),
            ),
        ],
    )
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> String {
    "usage: untangle-perfbench --workload <mix-sim|scenario-replay|serve-mem|serve-wal> \
     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]"
        .to_string()
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))?;
        args.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    let known = ["--workload", "--seed", "--seconds", "--trace", "--work-dir"];
    for pair in args.chunks(2) {
        if !known.contains(&pair[0].as_str()) {
            return Err(format!("unknown argument {}\n{}", pair[0], usage()));
        }
    }
    let workload = value("--workload")?;
    if !["mix-sim", "scenario-replay", "serve-mem", "serve-wal"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{}", usage()));
    }
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let work = PathBuf::from(value("--work-dir").unwrap_or_else(|_| ".bench_work".to_string()))
        .join(&workload);
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        work,
        clock_ns: spans::calibrate_clock_ns(),
    })
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("untangle-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!(
            "untangle-perfbench: cannot create {}: {e}",
            ctx.work.display()
        );
        std::process::exit(2);
    }
    let result = match ctx.workload.as_str() {
        "mix-sim" => sim::mix_sim(&ctx),
        "scenario-replay" => sim::scenario_replay(&ctx),
        "serve-mem" => serve::serve_mem(&ctx),
        _ => serve::serve_wal(&ctx),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("untangle-perfbench: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };
    print_report(&ctx, &outcome);
    let correct = outcome.failed == 0;
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if !correct {
        std::process::exit(1);
    }
}

fn print_report(ctx: &Ctx, outcome: &Outcome) {
    println!("# untangle-perfbench: {}", ctx.workload);
    println!("## manifest");
    for (key, value) in gate::manifest(ctx).iter().chain(&outcome.manifest) {
        println!("  {key:<24} {value}");
    }
    println!(
        "## {} metrics",
        if ctx.trace { "per-layer" } else { "end-to-end" }
    );
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!(
            "  {:<34} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<34} {:>16.6} {:<6} ({} of {} operations)",
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    println!("## correctness checks");
    for (name, ok) in &outcome.checks {
        println!("  [{}] {name}", if *ok { "ok" } else { "FAILED" });
    }
}
