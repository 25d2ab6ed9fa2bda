//! The simulator workloads: `mix-sim` (one paper mix, eight domains,
//! four schemes) and `scenario-replay` (one on-disk scenario trace per
//! class, five schemes, sampled slices and the full trace).
//!
//! A latency chunk of these workloads is one `Runner::run` item: a
//! (mix, scheme) run, or one slice or full-trace replay of a
//! (scenario, scheme).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use untangle_bench::scenarios::{self, SweepSettings, SCHEMES};
use untangle_core::runner::{RunReport, Runner, RunnerConfig};
use untangle_core::scheme::SchemeKind;
use untangle_info::RmaxCache;
use untangle_sim::stats::{geometric_mean, relative_error, stable_sum, weighted_mean};
use untangle_trace::file::FileSource;
use untangle_trace::simpoint::Slice;
use untangle_trace::{Instr, TraceSource};
use untangle_workloads::mix::{mix_by_id, Mix};
use untangle_workloads::scenario::{Scenario, ScenarioClass};

use crate::gate::{check_digests, Digest};
use crate::layers::{self, SimStreams};
use crate::spans::{quantile, totals, Recorder, SpanAt};
use crate::{end_to_end, measure, Ctx, Metric, Outcome, PassTiming, Passes};

/// The paper mix `mix-sim` runs (2 LLC-sensitive benchmarks).
const MIX_ID: usize = 1;
/// `RunnerConfig::eval_scale` of `mix-sim`: 125 k measured
/// instructions per domain after a 2.5 k-cycle warmup.
pub const MIX_SCALE: f64 = 0.00025;
/// In the traced run, one `next_instr` call in this many is timed. A
/// prime, so the samples do not lock onto a fixed offset within the
/// power-of-two trace blocks (where a whole block decodes at once) or
/// the interleave bursts.
const SAMPLE_EVERY: u32 = 1021;

/// The scenario sweep settings of `scenario-replay`: one scenario per
/// class, 1 M-instruction traces. The profiling interval, slice count
/// and block size are those of `SweepSettings::full`, and the trace is
/// long enough (at least four times the floor) that every replay gets
/// the sweep's full 250 k-instruction warmup.
fn scenario_settings() -> SweepSettings {
    let full = SweepSettings::full();
    SweepSettings {
        count: ScenarioClass::ALL.len(),
        trace_instrs: 1_000_000,
        validate_every: 1,
        ..full
    }
}

/// Counters shared by the counting wrappers of one pass. The wrappers
/// all run on the caller's thread, so the counters are written with plain
/// load/store pairs rather than locked read-modify-writes.
#[derive(Debug)]
struct Progress {
    recorder: Recorder,
    instrs: AtomicU64,
    parent: AtomicUsize,
    request: AtomicU64,
}

impl Progress {
    fn new(recorder: Recorder) -> Arc<Self> {
        Arc::new(Self {
            recorder,
            instrs: AtomicU64::new(0),
            parent: AtomicUsize::new(usize::MAX),
            request: AtomicU64::new(0),
        })
    }

    /// Marks the start of a `Runner::run`: the parent and request of the
    /// sampled `next_instr` spans that follow.
    fn begin_run(&self, parent: Option<usize>, request: u64) {
        self.parent.store(parent.unwrap_or(usize::MAX), Relaxed);
        self.request.store(request, Relaxed);
    }

    fn tick(&self) {
        self.instrs.store(self.instrs.load(Relaxed) + 1, Relaxed);
    }
}

/// Counts every instruction a source yields (exactly) and, in the
/// traced run, times one `next_instr` call in [`SAMPLE_EVERY`].
struct Counting {
    inner: Box<dyn TraceSource>,
    progress: Arc<Progress>,
    countdown: u32,
}

impl Counting {
    fn wrap(inner: Box<dyn TraceSource>, progress: &Arc<Progress>) -> Box<dyn TraceSource> {
        Box::new(Counting {
            inner,
            progress: Arc::clone(progress),
            countdown: SAMPLE_EVERY,
        })
    }
}

impl TraceSource for Counting {
    fn next_instr(&mut self) -> Option<Instr> {
        let instr = if self.progress.recorder.enabled() {
            self.countdown -= 1;
            if self.countdown == 0 {
                self.countdown = SAMPLE_EVERY;
                let start = Instant::now();
                let instr = self.inner.next_instr();
                let end = Instant::now();
                let parent = self.progress.parent.load(Relaxed);
                self.progress.recorder.record(SpanAt {
                    name: "TraceSource::next_instr",
                    start,
                    end,
                    parent: (parent != usize::MAX).then_some(parent),
                    request: self.progress.request.load(Relaxed),
                    weight: SAMPLE_EVERY,
                });
                instr
            } else {
                self.inner.next_instr()
            }
        } else {
            self.inner.next_instr()
        };
        if instr.is_some() {
            self.progress.tick();
        }
        instr
    }
}

/// One pass's simulator results.
#[derive(Default)]
struct SimPass {
    reports: Vec<RunReport>,
    /// `slice_instrs` each report's domains were configured for.
    slice_instrs: Vec<u64>,
    /// Instructions retired (warmup and post-slice pressure included).
    instrs: u64,
    /// Instructions retired under schemes that observe a metric.
    metric_instrs: u64,
    /// Host milliseconds of each `Runner::run` item.
    chunks_ms: Vec<f64>,
    /// Host seconds inside `Runner::run`.
    run_s: f64,
    /// Host seconds generating trace files (`scenario-replay`).
    gen_s: f64,
    /// Hits and misses of the process-wide `R_max` cache in the pass.
    rmax: (u64, u64),
    /// The trace files the pass generated (`scenario-replay`).
    traces: Vec<ScenarioTrace>,
}

/// Builds and runs one `Runner` item; returns (set-up s, run s, report).
fn run_item(
    config: RunnerConfig,
    sources: Vec<Box<dyn TraceSource>>,
    progress: &Arc<Progress>,
    pass_span: Option<usize>,
    request: u64,
) -> Result<(f64, f64, RunReport), String> {
    let rec = &progress.recorder;
    let t0 = Instant::now();
    let sources = sources
        .into_iter()
        .map(|s| Counting::wrap(s, progress))
        .collect();
    let open = rec.begin("Runner::new", pass_span, request);
    let runner = Runner::new(config, sources).map_err(|e| e.to_string())?;
    rec.end(open);
    let t1 = Instant::now();
    let open = rec.begin("Runner::run", pass_span, request);
    progress.begin_run(open.id(), request);
    let report = runner.run();
    rec.end(open);
    let t2 = Instant::now();
    Ok((
        t1.duration_since(t0).as_secs_f64(),
        t2.duration_since(t1).as_secs_f64(),
        report,
    ))
}

fn has_metric(kind: SchemeKind) -> bool {
    matches!(kind, SchemeKind::Time | SchemeKind::Untangle)
}

fn mix() -> Mix {
    mix_by_id(MIX_ID).expect("mix 1 exists")
}

fn mix_config(ctx: &Ctx, kind: SchemeKind) -> RunnerConfig {
    let mut config = RunnerConfig::eval_scale(kind, MIX_SCALE).expect("scale is in (0, 1]");
    config.seed = ctx.derive(1);
    config
}

fn mix_pass(ctx: &Ctx, recorder: &Recorder, pass: usize) -> Result<PassTiming<SimPass>, String> {
    let progress = Progress::new(recorder.clone());
    let pass_open = recorder.begin("pass", None, pass as u64);
    let t0 = Instant::now();
    // Every pass solves its rate table afresh, as a new process would.
    RmaxCache::global().clear();
    let mix = mix();
    let mut setup_s = t0.elapsed().as_secs_f64();
    let mut out = SimPass::default();
    for (k, kind) in SchemeKind::ALL.into_iter().enumerate() {
        let t = Instant::now();
        let config = mix_config(ctx, kind);
        let sources = mix.sources(ctx.derive(2), MIX_SCALE);
        setup_s += t.elapsed().as_secs_f64();
        let slice = config.slice_instrs;
        let before = progress.instrs.load(Relaxed);
        let (new_s, run_s, report) =
            run_item(config, sources, &progress, pass_open.id(), k as u64)?;
        let retired = progress.instrs.load(Relaxed) - before;
        setup_s += new_s;
        out.run_s += run_s;
        out.chunks_ms.push(run_s * 1e3);
        out.instrs += retired;
        if has_metric(kind) {
            out.metric_instrs += retired;
        }
        out.reports.push(report);
        out.slice_instrs.push(slice);
    }
    recorder.end(pass_open);
    let cache = RmaxCache::global().stats();
    out.rmax = (cache.hits, cache.misses);
    Ok(PassTiming {
        setup_s,
        wall_s: out.run_s,
        result: out,
    })
}

/// One generated scenario of a pass.
struct ScenarioTrace {
    path: PathBuf,
    slices: Vec<Slice>,
}

/// The scenarios of a seed: a block of consecutive ids, drawn from the
/// seed, with classes assigned round-robin as in `scenario_set`.
fn seeded_scenarios(ctx: &Ctx) -> Vec<Scenario> {
    let count = scenario_settings().count;
    let first = (ctx.derive(3) % 64) as usize * count;
    (first..first + count)
        .map(|id| Scenario {
            id: id as u32,
            class: ScenarioClass::ALL[id % ScenarioClass::ALL.len()],
        })
        .collect()
}

/// The (offset, length) spans a scheme replays for one scenario: every
/// slice, then the full trace after the warmup.
fn replay_spans(settings: &SweepSettings, slices: &[Slice]) -> Vec<(u64, u64)> {
    let warmup = settings.warmup_instrs().min(settings.trace_instrs);
    slices
        .iter()
        .map(|s| (s.offset_instrs, s.len_instrs))
        .chain(std::iter::once((warmup, settings.trace_instrs - warmup)))
        .collect()
}

fn scenario_pass(
    ctx: &Ctx,
    recorder: &Recorder,
    pass: usize,
) -> Result<PassTiming<SimPass>, String> {
    let settings = scenario_settings();
    let progress = Progress::new(recorder.clone());
    let pass_open = recorder.begin("pass", None, pass as u64);
    let t0 = Instant::now();
    RmaxCache::global().clear();
    let dir = ctx.work.join("traces");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut traces = Vec::new();
    let mut gen_s = 0.0;
    for (c, scenario) in seeded_scenarios(ctx).iter().enumerate() {
        let open = recorder.begin("scenarios::generate_trace", pass_open.id(), c as u64);
        let g = Instant::now();
        let path =
            scenarios::generate_trace(&dir, scenario, &settings).map_err(|e| e.to_string())?;
        gen_s += g.elapsed().as_secs_f64();
        recorder.end(open);
        let open = recorder.begin("scenarios::sample_slices", pass_open.id(), c as u64);
        let slices = scenarios::sample_slices(&path, &settings).map_err(|e| e.to_string())?;
        recorder.end(open);
        if slices.is_empty() {
            return Err(format!("no slices sampled for {}", scenario.name()));
        }
        traces.push(ScenarioTrace { path, slices });
    }
    let mut setup_s = t0.elapsed().as_secs_f64();
    let mut out = SimPass {
        gen_s,
        ..SimPass::default()
    };
    let mut request = 0u64;
    for trace in &traces {
        for kind in SCHEMES {
            for (offset, len) in replay_spans(&settings, &trace.slices) {
                let t = Instant::now();
                let prefix = settings.warmup_instrs().min(offset);
                let mut config = settings.runner_config(kind);
                config.warmup_instrs = Some(prefix);
                config.slice_instrs = len;
                let source = FileSource::open_slice(&trace.path, offset - prefix, prefix + len)
                    .map_err(|e| e.to_string())?;
                setup_s += t.elapsed().as_secs_f64();
                let before = progress.instrs.load(Relaxed);
                let (new_s, run_s, report) = run_item(
                    config,
                    vec![Box::new(source)],
                    &progress,
                    pass_open.id(),
                    request,
                )?;
                request += 1;
                let retired = progress.instrs.load(Relaxed) - before;
                setup_s += new_s;
                out.run_s += run_s;
                out.chunks_ms.push(run_s * 1e3);
                out.instrs += retired;
                if has_metric(kind) {
                    out.metric_instrs += retired;
                }
                out.reports.push(report);
                out.slice_instrs.push(len);
            }
        }
    }
    recorder.end(pass_open);
    let cache = RmaxCache::global().stats();
    out.rmax = (cache.hits, cache.misses);
    Ok(PassTiming {
        setup_s,
        wall_s: out.run_s,
        result: SimPass { traces, ..out },
    })
}

/// The seed-independent invariants of every report of a pass, as
/// (accounting violations, incomplete slices).
fn invariant_violations(pass: &SimPass) -> (usize, usize) {
    let mut accounting = 0;
    let mut incomplete = 0;
    for (report, &slice) in pass.reports.iter().zip(&pass.slice_instrs) {
        for d in &report.domains {
            let s = &d.stats;
            if s.l1_hits + s.llc_hits + s.llc_misses != s.mem_accesses {
                accounting += 1;
            }
            if s.instructions != slice {
                incomplete += 1;
            }
        }
    }
    (accounting, incomplete)
}

/// Applies every check of the simulator workloads to the passes.
fn check_passes(ctx: &Ctx, outcome: &mut Outcome, passes: &[&SimPass]) {
    let mut accounting = 0;
    let mut incomplete = 0;
    let mut digests = Vec::new();
    for pass in passes {
        outcome.attempted += pass.reports.len() as u64;
        let (a, i) = invariant_violations(pass);
        accounting += a;
        incomplete += i;
        let mut digest = Digest::default();
        for report in &pass.reports {
            digest.report(report);
        }
        digests.push(digest.finish());
    }
    outcome.check(
        format!(
            "l1_hits + llc_hits + llc_misses == mem_accesses ({accounting} domain runs violate)"
        ),
        accounting == 0,
    );
    outcome.check(
        format!("every measured slice is complete ({incomplete} domain runs short)"),
        incomplete == 0,
    );
    check_digests(ctx, outcome, &digests);
}

/// Exact simulator counts of one pass, summed over items and domains.
fn sim_counts(pass: &SimPass) -> Vec<Metric> {
    let (mut mem, mut l1, mut llc_hits, mut llc_misses, mut resizes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut assessments, mut maintains) = (0u64, 0u64);
    for report in &pass.reports {
        for d in &report.domains {
            mem += d.stats.mem_accesses;
            l1 += d.stats.l1_hits;
            llc_hits += d.stats.llc_hits;
            llc_misses += d.stats.llc_misses;
            resizes += d.trace.visible_count() as u64;
            assessments += d.leakage.assessments;
            maintains += d.leakage.maintains;
        }
    }
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    vec![
        Metric::new("sim.mem_accesses", mem as f64, "count", 1),
        Metric::new("sim.l1_hit_ratio", ratio(l1, mem), "ratio", 1),
        Metric::new(
            "sim.llc_hit_ratio",
            ratio(llc_hits, llc_hits + llc_misses),
            "ratio",
            1,
        ),
        Metric::new("sim.llc_misses", llc_misses as f64, "count", 1),
        Metric::new("sim.resizes", resizes as f64, "count", 1),
        Metric::new("core.assessments", assessments as f64, "count", 1),
        Metric::new(
            "core.maintain_ratio",
            ratio(maintains, assessments),
            "ratio",
            1,
        ),
    ]
}

/// The simulated (not host-time) results of a pass.
struct Modeled {
    speedup: f64,
    bits_per_assessment: f64,
    /// Only `scenario-replay` has a full-trace reference to compare
    /// sampled slices against.
    sampled_ipc_error: Option<f64>,
}

impl Modeled {
    fn metrics(&self) -> Vec<Metric> {
        [
            Metric::new("model.untangle_speedup", self.speedup, "x", 1),
            Metric::new(
                "model.untangle_bits_per_assessment",
                self.bits_per_assessment,
                "bit",
                1,
            ),
        ]
        .into_iter()
        .chain(
            self.sampled_ipc_error
                .map(|e| Metric::new("model.sampled_ipc_error", e, "ratio", 1)),
        )
        .collect()
    }
}

fn mix_modeled(pass: &SimPass) -> Modeled {
    let by_kind = |kind: SchemeKind| {
        let at = SchemeKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("scheme");
        &pass.reports[at]
    };
    let (base, unt) = (by_kind(SchemeKind::Static), by_kind(SchemeKind::Untangle));
    let normalized: Vec<f64> = unt
        .domains
        .iter()
        .zip(&base.domains)
        .map(|(u, s)| u.ipc() / s.ipc())
        .collect();
    let bits: Vec<f64> = unt
        .domains
        .iter()
        .map(|d| d.leakage.bits_per_assessment())
        .collect();
    Modeled {
        speedup: geometric_mean(&normalized),
        bits_per_assessment: stable_sum(&bits) / bits.len() as f64,
        sampled_ipc_error: None,
    }
}

fn scenario_modeled(pass: &SimPass) -> Result<Modeled, String> {
    let mut reports = pass.reports.iter();
    let mut speedups = Vec::new();
    let mut bits = Vec::new();
    let mut worst_error = 0.0f64;
    for trace in &pass.traces {
        let mut full_ipc = Vec::new();
        for kind in SCHEMES {
            // Slices combine by cluster weight in CPI space, as the
            // sweep's estimator does.
            let mut cpi = Vec::new();
            for slice in &trace.slices {
                let r = reports.next().ok_or("missing slice report")?;
                cpi.push((r.domains[0].ipc().recip(), slice.weight));
            }
            let full = &reports.next().ok_or("missing full-trace report")?.domains[0];
            let sampled = weighted_mean(&cpi)
                .ok_or("ill-posed slice weights")?
                .recip();
            let error = relative_error(sampled, full.ipc()).ok_or("non-finite IPC")?;
            worst_error = worst_error.max(error);
            full_ipc.push(full.ipc());
            if kind == SchemeKind::Untangle {
                bits.push(full.leakage.bits_per_assessment());
            }
        }
        let at = |kind: SchemeKind| SCHEMES.iter().position(|&k| k == kind).expect("scheme");
        speedups.push(full_ipc[at(SchemeKind::Untangle)] / full_ipc[at(SchemeKind::Static)]);
    }
    Ok(Modeled {
        speedup: geometric_mean(&speedups),
        bits_per_assessment: stable_sum(&bits) / bits.len() as f64,
        sampled_ipc_error: Some(worst_error),
    })
}

/// The trace-layer figures a simulator workload measures outside its
/// passes.
#[derive(Default)]
struct TraceLayer {
    /// Standalone drain of the sources the passes read, through the same
    /// counting wrapper: (ns per instruction, instructions).
    drain: (f64, usize),
    /// Standalone drain of whole trace files (`scenario-replay`).
    decode_ns: f64,
    bytes_per_instr: f64,
    /// Median trace-file generation seconds of a pass.
    gen_s: f64,
}

/// The quartiles of `values`, as (first, median, third).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    )
}

/// Per-layer metrics shared by both simulator workloads.
#[allow(clippy::too_many_arguments)]
fn sim_layers(
    ctx: &Ctx,
    untraced: &Passes<SimPass>,
    traced: &Passes<SimPass>,
    recorder: &Recorder,
    streams: &SimStreams,
    trace: TraceLayer,
    modeled: &Modeled,
) -> Result<Vec<Metric>, String> {
    let first = &untraced.results[0];
    let summary = recorder.summary(ctx.clock_ns);
    let next_ns = totals(&summary, "TraceSource::next_instr").map_or(0.0, |t| t.ns_per_call());
    let run_ns: Vec<f64> = untraced
        .results
        .iter()
        .map(|p| p.run_s * 1e9 / p.instrs as f64)
        .collect();
    let replay = layers::replay_sim(streams);
    let metric_share = first.metric_instrs as f64 / first.instrs as f64;
    // Every estimate subtracted here comes from a standalone replay timed
    // as a whole; the sampled in-place spans stay out of it.
    let attributed = trace.drain.0 + replay.step_ns + replay.metric_observe_ns * metric_share;
    let residuals: Vec<f64> = run_ns.iter().map(|r| r - attributed).collect();
    let (q1, residual, q3) = quartiles(&residuals);
    let run_ns = quantile(&run_ns, 0.5);
    let mut metrics = vec![
        Metric::new("trace.instrs", first.instrs as f64, "count", 1),
        Metric::new(
            "trace.ns_per_instr",
            next_ns,
            "ns",
            totals(&summary, "TraceSource::next_instr").map_or(0, |t| t.spans),
        ),
        Metric::new(
            "trace.drain_ns_per_instr",
            trace.drain.0,
            "ns",
            trace.drain.1,
        ),
        Metric::new("trace.decode_ns_per_instr", trace.decode_ns, "ns", 1),
        Metric::new("trace.bytes_per_instr", trace.bytes_per_instr, "B", 1),
        Metric::new("trace.gen_s", trace.gen_s, "s", untraced.results.len()),
    ];
    metrics.extend(sim_counts(first).into_iter().take(5));
    metrics.extend([
        Metric::new("sim.step_ns", replay.step_ns, "ns", replay.instrs),
        Metric::new(
            "sim.l1_access_ns",
            replay.l1_access_ns,
            "ns",
            replay.l1_accesses,
        ),
        Metric::new(
            "sim.llc_access_ns",
            replay.llc_access_ns,
            "ns",
            replay.llc_accesses,
        ),
        Metric::new(
            "sim.umon_observe_ns",
            replay.umon_observe_ns,
            "ns",
            replay.l1_accesses,
        ),
        Metric::new(
            "core.run_ns_per_instr",
            run_ns,
            "ns",
            untraced.results.len(),
        ),
        Metric::new(
            "core.residual_ns_per_instr",
            residual,
            "ns",
            untraced.results.len(),
        ),
        Metric::new("core.residual_iqr_ns", q3 - q1, "ns", residuals.len()),
    ]);
    metrics.extend(sim_counts(first).into_iter().skip(5));
    let accounting = layers::untangle_accounting(&streams.params, streams.commit_width)?;
    let (mut decide_ns, mut commit_ns, mut calls) = (0.0, 0.0, 0);
    for rounds in &replay.curves {
        let r = layers::replay_decisions(
            rounds,
            streams.machine.umon_window,
            streams.machine.llc_bytes,
            streams.initial,
            &streams.params,
            &accounting,
            streams.params.time_interval_cycles,
            ctx.derive(4),
        );
        decide_ns += r.decide_ns * r.calls as f64;
        commit_ns += r.commit_ns * r.calls as f64;
        calls += r.calls;
    }
    let per_call = |ns: f64| if calls > 0 { ns / calls as f64 } else { 0.0 };
    metrics.extend([
        Metric::new("core.decide_ns", per_call(decide_ns), "ns", calls),
        Metric::new("core.commit_ns", per_call(commit_ns), "ns", calls),
        layers::rmax_hit_ratio(first.rmax.0, first.rmax.1),
    ]);
    metrics.extend(layers::info_metrics(
        &streams.params,
        streams.commit_width,
        &[streams.params.max_maintain_credit],
    )?);
    metrics.push(overhead(untraced, traced));
    metrics.push(Metric::new("obs.clock_read_ns", ctx.clock_ns, "ns", 1));
    metrics.extend(modeled.metrics());
    Ok(layers::complete(metrics))
}

/// Traced over untraced median pass time, minus 1.
pub fn overhead<A, B>(untraced: &Passes<A>, traced: &Passes<B>) -> Metric {
    let u = quantile(&untraced.wall_s, 0.5);
    let t = quantile(&traced.wall_s, 0.5);
    Metric::new(
        "obs.overhead_ratio",
        if u > 0.0 { t / u - 1.0 } else { 0.0 },
        "ratio",
        untraced.wall_s.len() + traced.wall_s.len(),
    )
}

/// Drains the sources `open` builds through the counting wrapper the
/// passes use (with tracing off), at most `limit` instructions each.
fn drain_counted(
    mut open: impl FnMut() -> Result<Vec<Box<dyn TraceSource>>, String>,
    limit: u64,
) -> Result<(f64, usize), String> {
    let progress = Progress::new(Recorder::new(false));
    layers::drain_sources(
        || {
            Ok(open()?
                .into_iter()
                .map(|s| Counting::wrap(s, &progress))
                .collect())
        },
        limit,
    )
}

/// Runs a simulator workload's passes, applies the shared checks and
/// turns the passes into the run's metrics. `layer_inputs` supplies the
/// traced run's recorded streams and its trace-layer figures.
fn sim_workload(
    ctx: &Ctx,
    mut outcome: Outcome,
    mut pass: impl FnMut(&Recorder, usize) -> Result<PassTiming<SimPass>, String>,
    modeled: impl FnOnce(&SimPass) -> Result<Modeled, String>,
    layer_inputs: impl FnOnce(&Passes<SimPass>) -> Result<(SimStreams, TraceLayer), String>,
) -> Result<Outcome, String> {
    let recorder = Recorder::new(ctx.trace);
    let (untraced, traced) = measure(ctx, &recorder, &mut pass)?;
    let all: Vec<&SimPass> = untraced.results.iter().chain(&traced.results).collect();
    check_passes(ctx, &mut outcome, &all);
    outcome.manifest.extend([
        ("threads", "1 (Runner items in sequence)".to_string()),
        ("shards", "0".to_string()),
        (
            "measurement",
            "Runner statistics start after each run's warmup; set-up (sources, trace files, \
             Runner::new with its rate-table solve) is outside wall_s and chunk latencies; \
             a chunk is one Runner::run item"
                .to_string(),
        ),
    ]);
    let modeled = modeled(&untraced.results[0])?;
    if ctx.trace {
        let (streams, trace_layer) = layer_inputs(&untraced)?;
        outcome.metrics = sim_layers(
            ctx,
            &untraced,
            &traced,
            &recorder,
            &streams,
            trace_layer,
            &modeled,
        )?;
        let path = ctx.work.join("spans.jsonl");
        recorder
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let ops: Vec<u64> = untraced.results.iter().map(|p| p.instrs).collect();
        let chunks: Vec<&[f64]> = untraced
            .results
            .iter()
            .map(|p| p.chunks_ms.as_slice())
            .collect();
        let rates: Vec<f64> = (0..untraced.results.len())
            .map(|i| {
                let p = &untraced.results[i];
                p.instrs as f64 / p.run_s / untraced.adjust(i) / 1e6
            })
            .collect();
        (outcome.metrics, outcome.extra) = end_to_end(&untraced, &ops, &chunks);
        outcome.extra.push(Metric::new(
            "sim_minstr_per_s",
            quantile(&rates, 0.5),
            "Minstr/s",
            rates.len(),
        ));
        outcome.extra.extend(modeled.metrics());
    }
    Ok(outcome)
}

pub fn mix_sim(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    outcome.manifest.push((
        "workload_scale",
        format!("mix {MIX_ID}, eval_scale {MIX_SCALE}"),
    ));
    sim_workload(
        ctx,
        outcome,
        |rec, i| mix_pass(ctx, rec, i),
        |first| Ok(mix_modeled(first)),
        |untraced| {
            let config = mix_config(ctx, SchemeKind::Untangle);
            let mix = mix();
            // Each domain's source, drained for as many instructions as
            // a domain of the first pass retired on average.
            let first = &untraced.results[0];
            let domain_runs: usize = first.reports.iter().map(|r| r.domains.len()).sum();
            let per_domain = first.instrs.div_ceil(domain_runs.max(1) as u64);
            let drain = drain_counted(|| Ok(mix.sources(ctx.derive(2), MIX_SCALE)), per_domain)?;
            Ok((
                SimStreams::mix(&mix, ctx.derive(2), MIX_SCALE, config),
                TraceLayer {
                    drain,
                    ..TraceLayer::default()
                },
            ))
        },
    )
}

pub fn scenario_replay(ctx: &Ctx) -> Result<Outcome, String> {
    let settings = scenario_settings();
    let mut outcome = Outcome::default();
    outcome.manifest.extend([
        (
            "workload_scale",
            format!(
                "{} scenarios x {} instrs, interval {}, <= {} slices, warmup {}",
                settings.count,
                settings.trace_instrs,
                settings.interval_instrs,
                settings.max_slices,
                settings.warmup_instrs()
            ),
        ),
        (
            "scenarios",
            seeded_scenarios(ctx)
                .iter()
                .map(Scenario::name)
                .collect::<Vec<_>>()
                .join(","),
        ),
    ]);
    sim_workload(
        ctx,
        outcome,
        |rec, i| scenario_pass(ctx, rec, i),
        scenario_modeled,
        |untraced| {
            let paths: Vec<&Path> = untraced.results[0]
                .traces
                .iter()
                .map(|t| t.path.as_path())
                .collect();
            let decode = layers::drain_files(&paths)?;
            // Every span the passes replay, once (the five schemes read
            // the same instructions).
            let drain = drain_counted(
                || {
                    let mut sources: Vec<Box<dyn TraceSource>> = Vec::new();
                    for trace in &untraced.results[0].traces {
                        for (offset, len) in replay_spans(&settings, &trace.slices) {
                            let prefix = settings.warmup_instrs().min(offset);
                            let source =
                                FileSource::open_slice(&trace.path, offset - prefix, prefix + len)
                                    .map_err(|e| e.to_string())?;
                            sources.push(Box::new(source));
                        }
                    }
                    Ok(sources)
                },
                u64::MAX,
            )?;
            let gen: Vec<f64> = untraced.results.iter().map(|p| p.gen_s).collect();
            let streams = SimStreams::files(&paths, settings.runner_config(SchemeKind::Untangle))?;
            Ok((
                streams,
                TraceLayer {
                    drain,
                    decode_ns: decode.ns_per_instr,
                    bytes_per_instr: decode.bytes_per_instr,
                    gen_s: quantile(&gen, 0.5),
                },
            ))
        },
    )
}
