//! Experiment harness regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one artifact (see DESIGN.md's
//! per-experiment index); the logic lives here so integration tests can
//! reuse it:
//!
//! * [`experiments::sensitivity_study`] — Fig. 11: normalized IPC of
//!   every benchmark under every partition size, and the derived
//!   adequate LLC sizes.
//! * [`experiments::evaluate_mix`] — Figs. 10, 12–17: per-mix scheme
//!   comparison (normalized IPC, leakage per assessment, partition-size
//!   distribution).
//! * [`experiments::leakage_summary`] — Table 6: average per-assessment
//!   and total leakage under Time and Untangle.
//! * [`experiments::active_attacker_study`] — §9's worst-case leakage
//!   without the Maintain optimization, under squeeze pressure.
//! * [`experiments::rmax_vs_cooldown`] / [`experiments::rmax_vs_delay`] /
//!   [`experiments::strategy_example`] — §5.3's covert-channel behaviour:
//!   the strategy trade-off example, `R_max` against cooldown, delay
//!   width, and Maintain credit.
//! * [`table`] — plain-text table rendering for the binaries.
//! * [`plot`] — ASCII bar charts and sparklines for figure-shaped
//!   output.
//! * [`parallel`] — deterministic fan-out of experiment work across
//!   threads (the `parallel` cargo feature, on by default), with
//!   per-item panic isolation and bounded retries.
//! * [`checkpoint`] — the one resumable sweep engine behind `exp_mixes`
//!   and `exp_scenarios`: persisted work items and the `--resume` flow,
//!   so a killed sweep recomputes at most the items that were in flight.
//! * [`scenarios`] — the `exp_scenarios` sweep: on-disk trace
//!   generation, SimPoint-style slice sampling, weighted slice replay
//!   under every scheme, and sampled-vs-full validation.
//! * [`harness`] — a dependency-free micro-benchmark timer used by the
//!   `benches/` targets.
//! * [`report`] — the machine-readable `BENCH_experiments.json` perf
//!   trajectory emitted by `exp_mixes` and `exp_table6`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod experiments;
pub mod harness;
pub mod parallel;
pub mod plot;
pub mod report;
pub mod scenarios;
pub mod table;

/// Parses a `--flag value` style argument from `args`, with a default.
///
/// ```
/// let args = vec!["--scale".to_string(), "0.05".to_string()];
/// let scale: f64 = untangle_bench::parse_flag(&args, "--scale", 0.01);
/// assert_eq!(scale, 0.05);
/// ```
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare `--flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Atomically writes an experiment artifact (a CSV, a report fragment),
/// folding the durability error into [`UntangleError`] so the binaries
/// can `?` it: every experiment binary reports failures through its exit
/// status instead of panicking (the `untangle-lint` panic-free rule
/// covers `src/bin/`).
pub fn write_artifact(path: &str, bytes: &[u8]) -> Result<(), untangle_core::UntangleError> {
    untangle_durable::atomic::atomic_write(path.as_ref(), bytes)
        .map_err(|e| untangle_core::UntangleError::Io(e.to_string()))
}
