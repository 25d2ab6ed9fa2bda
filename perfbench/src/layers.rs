//! Standalone layer replays for the traced run, and the canonical list
//! of per-layer metrics.
//!
//! Each replay feeds a workload's own instruction, address, hit-curve
//! or record stream through one public entry point of one layer and
//! times it from outside: `System::step`, `SetAssocCache::access`,
//! `UtilityMonitor::observe`, `HitCurveMetric::observe`,
//! `heuristic::decide_global`, `DecisionCore::commit`, the `R_max`
//! rate-table solve, a `FileSource` drain, `Wal::append` and
//! `LineLog::append_lines`.

use std::path::Path;
use std::time::Instant;

use untangle_core::decision::DecisionCore;
use untangle_core::heuristic;
use untangle_core::leakage::{AccountingMode, LeakageAccountant};
use untangle_core::metric::{HitCurveMetric, MetricPolicy};
use untangle_core::runner::RunnerConfig;
use untangle_core::scheme::SchemeParams;
use untangle_durable::linelog::LineLog;
use untangle_durable::wal::Wal;
use untangle_info::{RateTable, RmaxCache};
use untangle_sim::cache::SetAssocCache;
use untangle_sim::config::{MachineConfig, PartitionSize};
use untangle_sim::system::{LlcMode, System};
use untangle_sim::umon::{HitCurve, UtilityMonitor};
use untangle_trace::file::FileSource;
use untangle_trace::source::VecSource;
use untangle_trace::synth::TraceRng;
use untangle_trace::{Instr, LineAddr, TraceSource};
use untangle_workloads::mix::Mix;

use crate::spans::quantile;
use crate::Metric;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
/// A workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("trace.instrs", "count"),
    ("trace.ns_per_instr", "ns"),
    ("trace.drain_ns_per_instr", "ns"),
    ("trace.decode_ns_per_instr", "ns"),
    ("trace.bytes_per_instr", "B"),
    ("trace.gen_s", "s"),
    ("sim.mem_accesses", "count"),
    ("sim.l1_hit_ratio", "ratio"),
    ("sim.llc_hit_ratio", "ratio"),
    ("sim.llc_misses", "count"),
    ("sim.resizes", "count"),
    ("sim.step_ns", "ns"),
    ("sim.l1_access_ns", "ns"),
    ("sim.llc_access_ns", "ns"),
    ("sim.umon_observe_ns", "ns"),
    ("core.run_ns_per_instr", "ns"),
    ("core.residual_ns_per_instr", "ns"),
    ("core.residual_iqr_ns", "ns"),
    ("core.assessments", "count"),
    ("core.maintain_ratio", "ratio"),
    ("core.decide_ns", "ns"),
    ("core.commit_ns", "ns"),
    ("info.rate_table_ms", "ms"),
    ("info.rmax_cache_hit_ratio", "ratio"),
    ("info.inner_iterations", "count"),
    ("serve.parse_ns_per_event", "ns"),
    ("serve.ingest_ns_per_event", "ns"),
    ("serve.decisions", "count"),
    ("serve.errors", "count"),
    ("serve.shard_skew", "ratio"),
    ("durable.writes_per_event", "count"),
    ("durable.wal_append_us", "us"),
    ("durable.linelog_append_us", "us"),
    ("durable.snapshot_ms", "ms"),
    ("durable.ingest_chunk_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.clock_read_ns", "ns"),
    ("model.untangle_speedup", "x"),
    ("model.untangle_bits_per_assessment", "bit"),
    ("model.sampled_ipc_error", "ratio"),
];

/// Orders `metrics` as [`PER_LAYER`] and adds a 0 for every layer the
/// workload does not exercise.
///
/// # Panics
///
/// On a metric missing from [`PER_LAYER`] or with another unit there:
/// a bug in this benchmark.
pub fn complete(metrics: Vec<Metric>) -> Vec<Metric> {
    for m in &metrics {
        assert!(
            PER_LAYER.contains(&(m.name, m.unit)),
            "per-layer metric {} ({}) is not in PER_LAYER",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0))
        })
        .collect()
}

/// Median over `reps` runs of `f`, which returns (elapsed ns, calls).
fn median_ns(reps: usize, mut f: impl FnMut() -> (f64, usize)) -> (f64, usize) {
    let mut calls = 0;
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let (ns, n) = f();
            calls = n;
            if n > 0 {
                ns / n as f64
            } else {
                0.0
            }
        })
        .collect();
    (quantile(&per, 0.5), calls)
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Instruction streams recorded from a workload's own sources, grouped
/// by the simulated system that runs them (`mix-sim`: one system of
/// eight domains; `scenario-replay`: one single-domain system per
/// trace), with the workload's machine and scheme parameters.
pub struct SimStreams {
    pub groups: Vec<Vec<Vec<Instr>>>,
    pub machine: MachineConfig,
    pub initial: PartitionSize,
    pub params: SchemeParams,
    pub commit_width: u32,
}

/// Instructions recorded per domain.
const STREAM_INSTRS: usize = 125_000;

impl SimStreams {
    fn new(groups: Vec<Vec<Vec<Instr>>>, config: RunnerConfig) -> Self {
        Self {
            groups,
            commit_width: config.machine.timing.commit_width,
            machine: config.machine,
            initial: config.initial_partition,
            params: config.params,
        }
    }

    /// The first [`STREAM_INSTRS`] instructions of every domain of a mix.
    pub fn mix(mix: &Mix, secret_seed: u64, scale: f64, config: RunnerConfig) -> Self {
        let domains = mix
            .sources(secret_seed, scale)
            .into_iter()
            .map(|mut s| take(&mut *s, STREAM_INSTRS))
            .collect();
        Self::new(vec![domains], config)
    }

    /// The first [`STREAM_INSTRS`] instructions of every trace file.
    pub fn files(paths: &[&Path], config: RunnerConfig) -> Result<Self, String> {
        let mut groups = Vec::new();
        for path in paths {
            let mut source = FileSource::open(path).map_err(|e| e.to_string())?;
            groups.push(vec![take(&mut source, STREAM_INSTRS)]);
        }
        Ok(Self::new(groups, config))
    }

    fn instrs(&self) -> usize {
        self.groups.iter().flatten().map(Vec::len).sum()
    }
}

fn take(source: &mut dyn TraceSource, n: usize) -> Vec<Instr> {
    std::iter::from_fn(|| source.next_instr()).take(n).collect()
}

/// Results of [`replay_sim`].
#[derive(Debug, Default)]
pub struct SimReplay {
    /// `System::step` per instruction, with the stream fetch taken out.
    pub step_ns: f64,
    pub l1_access_ns: f64,
    pub llc_access_ns: f64,
    pub umon_observe_ns: f64,
    /// `HitCurveMetric::observe` per instruction (policy filter + UMON).
    pub metric_observe_ns: f64,
    pub instrs: usize,
    pub l1_accesses: usize,
    pub llc_accesses: usize,
    /// Hit curves sampled during the UMON replay: per group, per
    /// sample point, one curve per domain.
    pub curves: Vec<Vec<Vec<HitCurve>>>,
}

const REPS: usize = 3;

/// Replays the recorded streams through each simulator layer.
pub fn replay_sim(streams: &SimStreams) -> SimReplay {
    let machine = &streams.machine;
    let mut out = SimReplay {
        instrs: streams.instrs(),
        ..SimReplay::default()
    };

    // The stream fetch `System::step` does through its source; the
    // streams are copied before the clock starts, as for the step replay.
    let (fetch_ns, _) = median_ns(REPS, || {
        let sources: Vec<VecSource> = streams
            .groups
            .iter()
            .flatten()
            .map(|s| VecSource::once(s.clone()))
            .collect();
        let mut n = 0;
        let t = Instant::now();
        for mut source in sources {
            while let Some(i) = source.next_instr() {
                std::hint::black_box(i);
                n += 1;
            }
        }
        (elapsed_ns(t), n)
    });
    // `System::step`, domains interleaved one instruction at a time.
    let (step_ns, _) = median_ns(REPS, || {
        let mut ns = 0.0;
        let mut n = 0;
        for group in &streams.groups {
            let mut system = System::new(machine.clone(), group.len(), LlcMode::Partitioned);
            let mut sources: Vec<VecSource> =
                group.iter().map(|s| VecSource::once(s.clone())).collect();
            for d in 0..group.len() {
                system.resize(d, streams.initial);
            }
            let t = Instant::now();
            let mut live = true;
            while live {
                live = false;
                for (d, source) in sources.iter_mut().enumerate() {
                    if system.step(d, source).is_some() {
                        live = true;
                        n += 1;
                    }
                }
            }
            ns += elapsed_ns(t);
        }
        (ns, n)
    });
    out.step_ns = (step_ns - fetch_ns).max(0.0);

    // L1 at the machine's L1 geometry; its misses feed the LLC replay.
    let addrs: Vec<Vec<Vec<LineAddr>>> = streams
        .groups
        .iter()
        .map(|g| {
            g.iter()
                .map(|s| {
                    s.iter()
                        .filter_map(|i| i.mem_access().map(|a| a.addr))
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut misses: Vec<Vec<LineAddr>> = Vec::new();
    (out.l1_access_ns, out.l1_accesses) = median_ns(REPS, || {
        misses.clear();
        let mut ns = 0.0;
        let mut n = 0;
        for stream in addrs.iter().flatten() {
            let mut l1 = SetAssocCache::new(machine.l1_geometry());
            let mut hit = Vec::with_capacity(stream.len());
            let t = Instant::now();
            for &a in stream {
                hit.push(l1.access(a).is_hit());
            }
            ns += elapsed_ns(t);
            n += stream.len();
            misses.push(
                stream
                    .iter()
                    .zip(&hit)
                    .filter(|(_, h)| !**h)
                    .map(|(a, _)| *a)
                    .collect(),
            );
        }
        (ns, n)
    });
    // The LLC partition as `System` builds it: the largest geometry,
    // resized to the workload's initial share.
    (out.llc_access_ns, out.llc_accesses) = median_ns(REPS, || {
        let mut ns = 0.0;
        let mut n = 0;
        for stream in &misses {
            let mut llc = SetAssocCache::new(machine.partition_geometry(PartitionSize::MB8));
            llc.resize_sets(streams.initial.sets(machine.llc_ways));
            let t = Instant::now();
            for &a in stream {
                std::hint::black_box(llc.access(a));
            }
            ns += elapsed_ns(t);
            n += stream.len();
        }
        (ns, n)
    });
    // UMON, sampling each group's curves every quarter window.
    let every = (machine.umon_window / 4).max(1);
    (out.umon_observe_ns, _) = median_ns(REPS, || {
        out.curves.clear();
        let mut ns = 0.0;
        let mut n = 0;
        for group in &addrs {
            let mut monitors: Vec<UtilityMonitor> =
                group.iter().map(|_| UtilityMonitor::new(machine)).collect();
            let mut samples = Vec::new();
            let len = group.iter().map(Vec::len).max().unwrap_or(0);
            let t = Instant::now();
            for k in 0..len {
                for (m, stream) in monitors.iter_mut().zip(group) {
                    if let Some(&a) = stream.get(k) {
                        m.observe(a);
                        n += 1;
                    }
                }
                if k % every == every - 1 {
                    samples.push(monitors.iter().map(UtilityMonitor::hit_curve).collect());
                }
            }
            ns += elapsed_ns(t);
            out.curves.push(samples);
        }
        (ns, n)
    });
    (out.metric_observe_ns, _) = median_ns(REPS, || {
        let mut ns = 0.0;
        let mut n = 0;
        for stream in streams.groups.iter().flatten() {
            let mut metric = HitCurveMetric::new(machine, MetricPolicy::PublicOnly);
            let t = Instant::now();
            for i in stream {
                metric.observe(i);
            }
            ns += elapsed_ns(t);
            n += stream.len();
        }
        (ns, n)
    });
    out
}

/// Results of [`replay_decisions`].
#[derive(Debug, Default)]
pub struct DecisionReplay {
    pub decide_ns: f64,
    pub commit_ns: f64,
    pub calls: usize,
}

/// The Untangle rate-table accounting the parameters describe.
pub fn untangle_accounting(
    params: &SchemeParams,
    commit_width: u32,
) -> Result<AccountingMode, String> {
    let model = params
        .build_rate_model(commit_width)
        .map_err(|e| e.to_string())?;
    Ok(AccountingMode::RateTable {
        table: model.table,
        cycles_per_unit: model.cycles_per_unit,
        cooldown_units: model.cooldown_units,
        delay_units: model.delay_units,
        optimized: params.optimized_accounting,
    })
}

/// Times `heuristic::decide_global` and `DecisionCore::commit` over a
/// sequence of assessments. `rounds[k]` holds every domain's curve at
/// assessment round `k`; each domain assesses once per round against
/// the whole set, over an LLC of `llc_bytes`.
#[allow(clippy::too_many_arguments)]
pub fn replay_decisions(
    rounds: &[Vec<HitCurve>],
    window_fill: usize,
    llc_bytes: u64,
    initial: PartitionSize,
    params: &SchemeParams,
    accounting: &AccountingMode,
    interval_cycles: f64,
    seed: u64,
) -> DecisionReplay {
    let domains = rounds.first().map_or(0, Vec::len);
    let mut out = DecisionReplay::default();
    let mut decide: Vec<f64> = Vec::new();
    let mut commit: Vec<f64> = Vec::new();
    for _ in 0..REPS {
        let mut cores: Vec<DecisionCore> = (0..domains as u64)
            .map(|d| {
                DecisionCore::new(
                    LeakageAccountant::new(accounting.clone(), None),
                    initial,
                    TraceRng::new(seed.wrapping_add(d)),
                    params.delay_max_cycles,
                )
            })
            .collect();
        let (mut decide_ns, mut commit_ns, mut calls) = (0.0, 0.0, 0);
        for (k, curves) in rounds.iter().enumerate() {
            let now = (k + 1) as f64 * interval_cycles;
            for d in 0..domains {
                let current = cores[d].logical_size();
                let assigned: u64 = cores.iter().map(|c| c.logical_size().bytes()).sum();
                let free = llc_bytes.saturating_sub(assigned);
                let t = Instant::now();
                let action = heuristic::decide_global(
                    curves,
                    d,
                    window_fill,
                    current,
                    free,
                    llc_bytes,
                    &params.heuristic,
                );
                let t1 = Instant::now();
                std::hint::black_box(cores[d].commit(action, now));
                commit_ns += elapsed_ns(t1);
                decide_ns += t1.duration_since(t).as_nanos() as f64;
                calls += 1;
            }
        }
        if calls > 0 {
            decide.push(decide_ns / calls as f64);
            commit.push(commit_ns / calls as f64);
        }
        out.calls = calls;
    }
    out.decide_ns = quantile(&decide, 0.5);
    out.commit_ns = quantile(&commit, 0.5);
    out
}

/// Times the `R_max` rate-table solves for the given Maintain credits
/// on an empty cache, and reports the solver's inner iterations.
pub fn info_metrics(
    params: &SchemeParams,
    commit_width: u32,
    credits: &[usize],
) -> Result<Vec<Metric>, String> {
    let mut specs = Vec::new();
    let mut options = None;
    for &credit in credits {
        let per_credit = SchemeParams {
            max_maintain_credit: credit,
            ..params.clone()
        };
        let (spec, opts) = per_credit
            .rate_table_spec(commit_width)
            .map_err(|e| e.to_string())?;
        specs.push(spec);
        options.get_or_insert(opts);
    }
    let options = options.ok_or("no Maintain credits to solve")?;
    let mut ms = Vec::new();
    let mut inner = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let tables = RateTable::precompute_many_batched_cached(&specs, &options, &RmaxCache::new())
            .map_err(|e| e.to_string())?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        inner = tables
            .iter()
            .map(|(_, s)| s.inner_iterations)
            .sum::<usize>();
    }
    Ok(vec![
        Metric::new("info.rate_table_ms", quantile(&ms, 0.5), "ms", ms.len()),
        Metric::new("info.inner_iterations", inner as f64, "count", 1),
    ])
}

/// Hit ratio of the process-wide `R_max` cache from its counters.
pub fn rmax_hit_ratio(hits: u64, misses: u64) -> Metric {
    let total = hits + misses;
    Metric::new(
        "info.rmax_cache_hit_ratio",
        if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        },
        "ratio",
        total as usize,
    )
}

/// Results of [`drain_files`].
#[derive(Debug, Default)]
pub struct Decode {
    pub ns_per_instr: f64,
    pub bytes_per_instr: f64,
}

/// Drains every trace file through a fresh `FileSource` (opening, which
/// validates every frame, is not timed).
pub fn drain_files(paths: &[&Path]) -> Result<Decode, String> {
    let mut bytes = 0u64;
    for path in paths {
        bytes += std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
    }
    let mut failure = None;
    let (ns, instrs) = median_ns(REPS, || {
        let mut ns = 0.0;
        let mut n = 0;
        for path in paths {
            match FileSource::open(path) {
                Ok(mut source) => {
                    let t = Instant::now();
                    while let Some(i) = source.next_instr() {
                        std::hint::black_box(i);
                        n += 1;
                    }
                    ns += elapsed_ns(t);
                    if let Some(e) = source.poisoned() {
                        failure = Some(e.to_string());
                    }
                }
                Err(e) => failure = Some(e.to_string()),
            }
        }
        (ns, n)
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(Decode {
        ns_per_instr: ns,
        bytes_per_instr: bytes as f64 / instrs.max(1) as f64,
    })
}

/// Drains trace sources standalone, in ns per instruction: one clock
/// read before and after each source and none inside the loop. `open`
/// builds the sources afresh, untimed, for each repetition; each is read
/// until it ends or has yielded `limit` instructions.
pub fn drain_sources(
    mut open: impl FnMut() -> Result<Vec<Box<dyn TraceSource>>, String>,
    limit: u64,
) -> Result<(f64, usize), String> {
    let mut failure = None;
    let drained = median_ns(REPS, || {
        let sources = match open() {
            Ok(sources) => sources,
            Err(e) => {
                failure = Some(e);
                return (0.0, 0);
            }
        };
        let mut ns = 0.0;
        let mut n = 0;
        for mut source in sources {
            let t = Instant::now();
            let mut k = 0;
            while k < limit {
                match source.next_instr() {
                    Some(i) => {
                        std::hint::black_box(i);
                        k += 1;
                    }
                    None => break,
                }
            }
            ns += elapsed_ns(t);
            n += k as usize;
        }
        (ns, n)
    });
    failure.map_or(Ok(drained), Err)
}

/// Times `Wal::append` (one synced frame per record) and
/// `LineLog::append_lines` (one synced batch per chunk) in `dir`, in
/// microseconds per call.
pub fn replay_durable(
    dir: &Path,
    records: &[Vec<u8>],
    chunks: &[Vec<String>],
) -> Result<(f64, f64), String> {
    let err = |e: untangle_durable::DurableError| e.to_string();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let wal_path = dir.join("replay.wal");
    let log_path = dir.join("replay.jsonl");
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&log_path);
    let (mut wal, _) = Wal::open(&wal_path).map_err(err)?;
    let mut wal_us = Vec::with_capacity(records.len());
    for r in records {
        let t = Instant::now();
        wal.append(r).map_err(err)?;
        wal_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (mut log, _) = LineLog::open(&log_path).map_err(err)?;
    let mut log_us = Vec::with_capacity(chunks.len());
    for c in chunks {
        let t = Instant::now();
        log.append_lines(c).map_err(err)?;
        log_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((quantile(&wal_us, 0.5), quantile(&log_us, 0.5)))
}
