//! The decision-service workloads: `serve-mem` (a sharded
//! `ServeEngine` in memory) and `serve-wal` (the same engine behind
//! `DurableServer`'s journal, snapshots and output log).
//!
//! `serve-wal` is bound by one synced journal write per event, so its
//! timings follow the shared disk; it is runnable but not one of the
//! gated workloads. `serve-mem` drives the same durable path after its
//! measured passes instead: once in every run, as a correctness check,
//! and [`JOURNAL_PASSES`] times in the traced run, for the `durable.*`
//! per-layer metrics.
//!
//! Both replay one `synth_events` stream rendered to line-JSON. The
//! stream is the load generator's input, made once per run from the
//! seed; every pass replays it into a fresh engine. All admits, and with
//! them the `R_max` rate-table solves, run in a pass's set-up.
//! The measured phase is a closed loop with one caller: parse a chunk
//! of telemetry lines with `Event::parse_line`, hand it to the engine,
//! and send the next chunk only once the call has returned. The retires
//! follow the measured loop untimed, so every measured chunk is a chunk
//! of telemetry.

use std::time::Instant;

use untangle_durable::fault::durable_writes;
use untangle_info::RmaxCache;
use untangle_serve::synth::{synth_events, SynthConfig};
use untangle_serve::{DurableServer, Event, ServeConfig, ServeEngine, Telemetry};

use crate::gate::check_digests;
use crate::layers;
use crate::sim::overhead;
use crate::spans::{quantile, totals, Recorder, SpanAt};
use crate::{end_to_end, measure, Ctx, Metric, Outcome, PassTiming, Passes};

/// Concurrent domains of the stream.
const DOMAINS: u64 = 512;
/// Telemetry rounds of `serve-mem`: every domain reports once per round.
const ROUNDS_MEM: u64 = 64;
/// Telemetry rounds of `serve-wal`. Each event costs a synced journal
/// write there, so a pass covers fewer rounds and a run holds enough
/// passes for a steady median.
const ROUNDS_WAL: u64 = 8;
/// Events per ingest call: the `untangle-serve` daemon's default
/// `--burst`, which it also hands to `DurableServer::open`.
const CHUNK: usize = 512;
/// Engine shards, drained in turn on the caller's thread.
const SHARDS: usize = 2;
/// `serve-wal` snapshots after this many measured events (the daemon's
/// default `--snapshot-every`).
const SNAPSHOT_EVERY: usize = 1024;
/// `serve-wal` passes `serve-mem`'s traced run makes after its measured
/// passes.
const JOURNAL_PASSES: usize = 3;
/// In the traced run, one `Event::parse_line` call in this many is
/// timed. Coprime to [`CHUNK`], so the samples visit every position in
/// a chunk (the first line after an ingest parses with colder caches).
const PARSE_SAMPLE: usize = 17;

fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ..ServeConfig::test_scale()
    }
}

fn synth(ctx: &Ctx, durable: bool) -> SynthConfig {
    SynthConfig {
        domains: DOMAINS,
        rounds: if durable { ROUNDS_WAL } else { ROUNDS_MEM },
        seed: ctx.derive(5),
        include_time: true,
        tainted_every: 0,
        budget_every: 0,
    }
}

/// The generated stream: the admits (set-up), the telemetry as the
/// line-JSON the measured loop parses, and the retires (ingested after
/// the measured loop, untimed).
struct Stream {
    admits: Vec<Event>,
    lines: Vec<String>,
    /// The parsed form of `lines`, for the reference engine and the
    /// standalone replays (never used by the measured loop).
    events: Vec<Event>,
    retires: Vec<Event>,
}

fn stream(ctx: &Ctx, durable: bool) -> Stream {
    let config = config(SHARDS);
    let mut admits = synth_events(&config.params, &synth(ctx, durable));
    let mut events = admits.split_off(DOMAINS as usize);
    let retires = events.split_off(events.len() - DOMAINS as usize);
    Stream {
        admits,
        lines: events.iter().map(Event::render).collect(),
        events,
        retires,
    }
}

/// The decision stream a 1-shard in-memory engine emits for the whole
/// stream (admits, then the same chunks): the reference both workloads
/// must reproduce byte for byte.
fn reference_output(stream: &Stream) -> Result<String, String> {
    let mut engine = ServeEngine::new(config(1)).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let mut push = |lines: Vec<String>| {
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
    };
    push(engine.ingest(&stream.admits).map_err(|e| e.to_string())?);
    for chunk in stream.events.chunks(CHUNK) {
        push(engine.ingest(chunk).map_err(|e| e.to_string())?);
    }
    push(engine.ingest(&stream.retires).map_err(|e| e.to_string())?);
    Ok(out)
}

/// One measured pass of either workload.
struct ServePass {
    /// FNV-1a of the full decision stream the pass emitted, admits
    /// included.
    digest: u64,
    /// Whether that stream equals the reference byte for byte.
    matches_reference: bool,
    errors: usize,
    decisions: usize,
    events: u64,
    chunks_ms: Vec<f64>,
    /// `durable_writes()` over the measured loop (`serve-wal`).
    writes: u64,
    /// Hits and misses of the process-wide `R_max` cache after set-up.
    rmax: (u64, u64),
}

/// The engine a pass drives.
enum Target {
    Mem(ServeEngine),
    Wal(DurableServer),
}

/// Parses chunk `k`, timing one call in [`PARSE_SAMPLE`] in the traced
/// run.
fn parse_chunk(
    lines: &[String],
    rec: &Recorder,
    parent: Option<usize>,
    k: usize,
) -> Result<Vec<Event>, String> {
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            if rec.enabled() && (k * CHUNK + i).is_multiple_of(PARSE_SAMPLE) {
                let start = Instant::now();
                let event = Event::parse_line(line);
                rec.record(SpanAt {
                    name: "Event::parse_line",
                    start,
                    end: Instant::now(),
                    parent,
                    request: k as u64,
                    weight: PARSE_SAMPLE as u32,
                });
                event
            } else {
                Event::parse_line(line)
            }
            .map_err(|e| e.to_string())
        })
        .collect()
}

fn serve_pass(
    ctx: &Ctx,
    stream: &Stream,
    durable: bool,
    reference: &str,
    rec: &Recorder,
    pass: usize,
) -> Result<PassTiming<ServePass>, String> {
    let err = |e: untangle_core::UntangleError| e.to_string();
    let pass_open = rec.begin("pass", None, pass as u64);
    let t0 = Instant::now();
    RmaxCache::global().clear();
    let state = ctx.work.join("state");
    let out_path = state.join("out.jsonl");
    // Sized once, so the output buffer does not regrow (and fragment the
    // heap differently) from pass to pass.
    let mut output = String::with_capacity(reference.len());
    let mut target = if durable {
        if state.exists() {
            std::fs::remove_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
        }
        let open = rec.begin("DurableServer::open", pass_open.id(), 0);
        // The internal cadence is disabled: the loop snapshots itself,
        // so the snapshot can be timed.
        let (mut server, _) = DurableServer::open(
            config(SHARDS),
            &state.join("journal"),
            &out_path,
            CHUNK,
            u64::MAX,
        )
        .map_err(err)?;
        rec.end(open);
        server.ingest_chunk(&stream.admits).map_err(err)?;
        Target::Wal(server)
    } else {
        let mut engine = ServeEngine::new(config(SHARDS)).map_err(err)?;
        for line in engine.ingest(&stream.admits).map_err(err)? {
            output.push_str(&line);
            output.push('\n');
        }
        Target::Mem(engine)
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let cache = RmaxCache::global().stats();

    let writes_before = durable_writes();
    let mut chunks_ms = Vec::with_capacity(stream.lines.len() / CHUNK + 1);
    let mut since_snapshot = 0;
    let t1 = Instant::now();
    for (k, lines) in stream.lines.chunks(CHUNK).enumerate() {
        let start = Instant::now();
        let chunk_open = rec.begin("chunk", pass_open.id(), k as u64);
        let events = parse_chunk(lines, rec, chunk_open.id(), k)?;
        match &mut target {
            Target::Mem(engine) => {
                let open = rec.begin("ServeEngine::ingest", chunk_open.id(), k as u64);
                let out = engine.ingest(&events).map_err(err)?;
                rec.end(open);
                for line in out {
                    output.push_str(&line);
                    output.push('\n');
                }
            }
            Target::Wal(server) => {
                let open = rec.begin("DurableServer::ingest_chunk", chunk_open.id(), k as u64);
                server.ingest_chunk(&events).map_err(err)?;
                rec.end(open);
            }
        }
        rec.end(chunk_open);
        chunks_ms.push(start.elapsed().as_secs_f64() * 1e3);
        // The snapshot is a step of the loop between two chunks: it
        // counts in the pass's wall time, not in a chunk's latency.
        since_snapshot += events.len();
        if let Target::Wal(server) = &mut target {
            if since_snapshot >= SNAPSHOT_EVERY {
                let open = rec.begin("DurableServer::snapshot", pass_open.id(), k as u64);
                server.snapshot().map_err(err)?;
                rec.end(open);
                since_snapshot = 0;
            }
        }
    }
    let wall_s = t1.elapsed().as_secs_f64();
    let writes = (durable_writes() - writes_before) as u64;
    rec.end(pass_open);
    match target {
        Target::Mem(mut engine) => {
            for line in engine.ingest(&stream.retires).map_err(err)? {
                output.push_str(&line);
                output.push('\n');
            }
        }
        Target::Wal(mut server) => {
            server.ingest_chunk(&stream.retires).map_err(err)?;
            drop(server);
            output = std::fs::read_to_string(&out_path)
                .map_err(|e| format!("{}: {e}", out_path.display()))?;
        }
    }
    Ok(PassTiming {
        setup_s,
        wall_s,
        result: ServePass {
            digest: untangle_durable::fnv1a(output.as_bytes()),
            matches_reference: output == reference,
            errors: count_lines(&output, "\"type\":\"serve_error\""),
            decisions: decisions(&output),
            events: stream.lines.len() as u64,
            chunks_ms,
            writes,
            rmax: (cache.hits, cache.misses),
        },
    })
}

fn count_lines(output: &str, needle: &str) -> usize {
    output.lines().filter(|l| l.contains(needle)).count()
}

fn decisions(output: &str) -> usize {
    count_lines(output, "\"type\":\"decision\"")
}

/// The events each shard receives, max over mean.
fn shard_skew(events: &[Event]) -> Result<f64, String> {
    let engine = ServeEngine::new(config(SHARDS)).map_err(|e| e.to_string())?;
    let mut load = [0u64; SHARDS];
    for e in events {
        load[engine.shard_of(e.domain())] += 1;
    }
    let max = load.iter().copied().max().unwrap_or(0) as f64;
    Ok(max * SHARDS as f64 / events.len().max(1) as f64)
}

/// `serve-wal` passes made outside a `serve-mem` run's measured passes,
/// with the stream they replayed and its reference output.
struct Journal {
    stream: Stream,
    reference: String,
    passes: Vec<ServePass>,
}

impl Journal {
    /// One untraced pass, or [`JOURNAL_PASSES`] passes recorded by `rec`
    /// in the traced run; pass indices start at `first_pass`.
    fn run(ctx: &Ctx, rec: &Recorder, first_pass: usize) -> Result<Self, String> {
        let stream = stream(ctx, true);
        let reference = reference_output(&stream)?;
        let count = if ctx.trace { JOURNAL_PASSES } else { 1 };
        let passes = (first_pass..first_pass + count)
            .map(|i| serve_pass(ctx, &stream, true, &reference, rec, i).map(|t| t.result))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            stream,
            reference,
            passes,
        })
    }
}

/// Counts the passes' operations and errors and checks their output
/// against the reference.
fn check_passes(outcome: &mut Outcome, passes: &[&ServePass], what: &str) {
    let mut errors = 0;
    for pass in passes {
        outcome.attempted += pass.events + 2 * DOMAINS;
        errors += pass.errors;
    }
    // Each `serve_error` line is a failed operation of its own, so the
    // check is recorded without counting once more.
    outcome.failed += errors as u64;
    outcome.checks.push((
        format!("{what}: no serve_error lines ({errors} emitted)"),
        errors == 0,
    ));
    let mismatched = passes.iter().filter(|p| !p.matches_reference).count();
    outcome.check(
        format!(
            "{what} output is byte-identical to a 1-shard in-memory engine ({mismatched} of {} passes differ)",
            passes.len()
        ),
        mismatched == 0,
    );
}

fn serve(ctx: &Ctx, durable: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let stream = stream(ctx, durable);
    let reference = reference_output(&stream)?;
    let recorder = Recorder::new(ctx.trace);
    let (untraced, traced) = measure(ctx, &recorder, |rec, i| {
        serve_pass(ctx, &stream, durable, &reference, rec, i)
    })?;
    let journal = if durable {
        None
    } else {
        let done = untraced.results.len() + traced.results.len();
        Some(Journal::run(ctx, &recorder, done)?)
    };

    let all: Vec<&ServePass> = untraced.results.iter().chain(&traced.results).collect();
    check_passes(
        &mut outcome,
        &all,
        if durable {
            "the durable log"
        } else {
            "the 2-shard engine"
        },
    );
    if let Some(journal) = &journal {
        let passes: Vec<&ServePass> = journal.passes.iter().collect();
        check_passes(&mut outcome, &passes, "the durable log (serve-wal passes)");
    }
    let digests: Vec<u64> = all.iter().map(|p| p.digest).collect();
    check_digests(ctx, &mut outcome, &digests);
    outcome.manifest.extend([
        (
            "workload_scale",
            format!(
                "{DOMAINS} domains x {} rounds, {} measured events, chunks of {CHUNK}{}",
                synth(ctx, durable).rounds,
                stream.lines.len(),
                if durable {
                    format!(", snapshot every {SNAPSHOT_EVERY} events")
                } else {
                    String::new()
                }
            ),
        ),
        (
            "threads",
            "1 (the caller drains the shards in turn)".to_string(),
        ),
        ("shards", SHARDS.to_string()),
    ]);

    let first = &untraced.results[0];
    if ctx.trace {
        outcome.metrics = serve_layers(
            ctx,
            durable,
            &stream,
            &reference,
            &untraced,
            &traced,
            &recorder,
            journal.as_ref(),
        )?;
        let path = ctx.work.join("spans.jsonl");
        recorder
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let ops: Vec<u64> = untraced.results.iter().map(|p| p.events).collect();
        let chunks: Vec<&[f64]> = untraced
            .results
            .iter()
            .map(|p| p.chunks_ms.as_slice())
            .collect();
        (outcome.metrics, outcome.extra) = end_to_end(&untraced, &ops, &chunks);
        let rates: Vec<f64> = (0..untraced.results.len())
            .map(|i| untraced.results[i].decisions as f64 / untraced.wall_s[i] / untraced.adjust(i))
            .collect();
        outcome.extra.extend([
            Metric::new("decisions_per_s", quantile(&rates, 0.5), "1/s", rates.len()),
            Metric::new("decisions_per_pass", first.decisions as f64, "count", 1),
        ]);
    }
    Ok(outcome)
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    ctx: &Ctx,
    durable: bool,
    stream: &Stream,
    reference: &str,
    untraced: &Passes<ServePass>,
    traced: &Passes<ServePass>,
    rec: &Recorder,
    journal: Option<&Journal>,
) -> Result<Vec<Metric>, String> {
    let first = &untraced.results[0];
    let summary = rec.summary(ctx.clock_ns);
    let per_event =
        |name: &str| totals(&summary, name).map_or(0.0, |t| t.busy_ns / t.calls.max(1.0));
    let traced_events: f64 = traced.results.iter().map(|p| p.events as f64).sum();
    let span_ms = |name: &str| totals(&summary, name).map_or(0.0, |t| t.ns_per_call() / 1e6);
    let spans_of = |name: &str| totals(&summary, name).map_or(0, |t| t.spans);
    // Every pass reproduced the reference stream byte for byte.
    let decided = decisions(reference);
    let maintains = count_lines(reference, "\"action\":\"maintain\"");
    let config = config(SHARDS);
    let mut metrics = vec![
        Metric::new(
            "serve.parse_ns_per_event",
            per_event("Event::parse_line"),
            "ns",
            spans_of("Event::parse_line"),
        ),
        Metric::new("serve.decisions", decided as f64, "count", 1),
        Metric::new(
            "serve.errors",
            count_lines(reference, "\"type\":\"serve_error\"") as f64,
            "count",
            1,
        ),
        Metric::new("serve.shard_skew", shard_skew(&stream.events)?, "ratio", 1),
        Metric::new("core.assessments", decided as f64, "count", 1),
        Metric::new(
            "core.maintain_ratio",
            maintains as f64 / decided.max(1) as f64,
            "ratio",
            1,
        ),
        layers::rmax_hit_ratio(first.rmax.0, first.rmax.1),
        overhead(untraced, traced),
        Metric::new("obs.clock_read_ns", ctx.clock_ns, "ns", 1),
    ];
    let credits = [
        config.params.max_maintain_credit,
        (config.params.max_maintain_credit / 2).max(1),
    ];
    metrics.extend(layers::info_metrics(
        &config.params,
        config.commit_width,
        &credits,
    )?);

    // The heuristic and decision core over the stream's own curves, one
    // single-domain assessment per telemetry event, as a tenant sees it.
    let telemetry: Vec<&Telemetry> = stream
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Telemetry(t) => Some(t),
            _ => None,
        })
        .collect();
    let rounds: Vec<Vec<_>> = telemetry
        .iter()
        .filter_map(|t| t.curve)
        .map(|c| vec![c])
        .collect();
    let fill = telemetry.first().map_or(0, |t| t.fill);
    let quota = stream
        .admits
        .first()
        .and_then(|e| match e {
            Event::Admit(a) => Some(a.quota_mb << 20),
            _ => None,
        })
        .unwrap_or(0);
    let accounting = layers::untangle_accounting(&config.params, config.commit_width)?;
    let d = layers::replay_decisions(
        &rounds,
        fill,
        quota,
        config.initial_partition,
        &config.params,
        &accounting,
        config.params.time_interval_cycles,
        ctx.derive(4),
    );
    metrics.extend([
        Metric::new("core.decide_ns", d.decide_ns, "ns", d.calls),
        Metric::new("core.commit_ns", d.commit_ns, "ns", d.calls),
    ]);

    if durable {
        metrics.push(Metric::new(
            "serve.ingest_ns_per_event",
            engine_ns_per_event(stream)?,
            "ns",
            stream.events.len(),
        ));
    } else {
        let ingest_ns = totals(&summary, "ServeEngine::ingest").map_or(0.0, |t| t.busy_ns);
        metrics.push(Metric::new(
            "serve.ingest_ns_per_event",
            ingest_ns / traced_events.max(1.0),
            "ns",
            spans_of("ServeEngine::ingest"),
        ));
    }

    // The durable layer, from the passes that drove `DurableServer`.
    let (stream, reference, first) = match journal {
        Some(j) => (&j.stream, j.reference.as_str(), &j.passes[0]),
        None => (stream, reference, first),
    };
    let records: Vec<Vec<u8>> = stream
        .events
        .iter()
        .take(1024)
        .enumerate()
        .map(|(i, e)| {
            let mut record = (DOMAINS + i as u64).to_le_bytes().to_vec();
            record.extend_from_slice(e.render().as_bytes());
            record
        })
        .collect();
    let out_lines: Vec<String> = reference.lines().map(str::to_string).collect();
    let chunks: Vec<Vec<String>> = out_lines
        .chunks(CHUNK)
        .take(256)
        .map(<[String]>::to_vec)
        .collect();
    let (wal_us, log_us) = layers::replay_durable(&ctx.work.join("replay"), &records, &chunks)?;
    metrics.extend([
        Metric::new(
            "durable.writes_per_event",
            first.writes as f64 / first.events as f64,
            "count",
            1,
        ),
        Metric::new("durable.wal_append_us", wal_us, "us", records.len()),
        Metric::new("durable.linelog_append_us", log_us, "us", chunks.len()),
        Metric::new(
            "durable.snapshot_ms",
            span_ms("DurableServer::snapshot"),
            "ms",
            spans_of("DurableServer::snapshot"),
        ),
        Metric::new(
            "durable.ingest_chunk_ms",
            span_ms("DurableServer::ingest_chunk"),
            "ms",
            spans_of("DurableServer::ingest_chunk"),
        ),
    ]);
    Ok(layers::complete(metrics))
}

/// `ServeEngine::ingest` per event over the stream's chunks, on an
/// in-memory engine with the workload's shard count, admits untimed.
fn engine_ns_per_event(stream: &Stream) -> Result<f64, String> {
    let err = |e: untangle_core::UntangleError| e.to_string();
    let mut engine = ServeEngine::new(config(SHARDS)).map_err(err)?;
    engine.ingest(&stream.admits).map_err(err)?;
    let t = Instant::now();
    for chunk in stream.events.chunks(CHUNK) {
        std::hint::black_box(engine.ingest(chunk).map_err(err)?);
    }
    Ok(t.elapsed().as_nanos() as f64 / stream.events.len().max(1) as f64)
}

pub fn serve_mem(ctx: &Ctx) -> Result<Outcome, String> {
    serve(ctx, false)
}

pub fn serve_wal(ctx: &Ctx) -> Result<Outcome, String> {
    serve(ctx, true)
}
