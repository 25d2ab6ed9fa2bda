//! Reusable experiment drivers (one per table/figure of the paper).
//!
//! Every driver that iterates over an independent collection — mixes,
//! schemes, benchmarks × partition sizes, `R_max` grid points, budget and
//! cooldown sweep settings — fans out through
//! [`crate::parallel::par_map_indexed`]. Each task constructs its own
//! [`Runner`] (and with it its own seeded RNGs), so the parallel output is
//! bit-identical to the sequential path at any thread count; see
//! DESIGN.md's "Parallel experiment engine" section for the contract.
//! Repeated `R_max` solves are deduplicated through the process-wide
//! [`RmaxCache`].

use crate::checkpoint::{
    run_resumable, sweep_fingerprint, CheckpointStore, MixSummary, SweepOutcome,
};
use crate::parallel::{par_map, par_map_indexed, RetryPolicy};
use untangle_core::runner::{RunReport, Runner, RunnerConfig};
use untangle_core::scheme::SchemeKind;
use untangle_info::{Channel, DelayDist, DinkelbachOptions, RmaxCache};
use untangle_info::{ChannelConfig, Dist};
use untangle_obs as obs;
use untangle_sim::config::PartitionSize;
use untangle_sim::stats::{geometric_mean, stable_sum};
use untangle_workloads::mix::Mix;
use untangle_workloads::spec::SpecBenchmark;

/// One row of the Fig. 11 sensitivity study.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC under each supported partition size, normalized to the 8 MB
    /// IPC.
    pub normalized_ipc: [f64; PartitionSize::COUNT],
    /// The smallest size reaching ≥ 0.9 normalized IPC (§8's adequate
    /// LLC size).
    pub adequate: PartitionSize,
}

impl SensitivityRow {
    /// Whether the measured adequate size classifies the benchmark as
    /// LLC-sensitive (above the 2 MB static share).
    pub fn llc_sensitive(&self) -> bool {
        self.adequate > PartitionSize::MB2
    }
}

/// Runs one benchmark alone under one fixed partition size and returns
/// its IPC.
pub fn ipc_at_size(bench: &SpecBenchmark, size: PartitionSize, scale: f64) -> f64 {
    let mut config = RunnerConfig::eval_scale(SchemeKind::Static, scale).expect("eval scale");
    config.initial_partition = size;
    let source = bench.model(untangle_trace::LineAddr::new(1 << 28));
    let report = Runner::new(config, vec![Box::new(source)])
        .expect("runner")
        .run();
    report.domains[0].ipc()
}

/// The Fig. 11 study for a set of benchmarks: each benchmark alone,
/// every supported partition size, IPC normalized to 8 MB.
///
/// The benchmark × size grid is flattened into one task list so short
/// benchmarks cannot leave workers idle while a long one finishes its
/// nine sizes.
pub fn sensitivity_study(benchmarks: &[SpecBenchmark], scale: f64) -> Vec<SensitivityRow> {
    let sizes = PartitionSize::COUNT;
    let ipcs: Vec<f64> = par_map_indexed(benchmarks.len() * sizes, |i| {
        ipc_at_size(&benchmarks[i / sizes], PartitionSize::ALL[i % sizes], scale)
    });
    benchmarks
        .iter()
        .zip(ipcs.chunks(sizes))
        .map(|(b, ipcs)| {
            let reference = ipcs[PartitionSize::MB8.index()];
            let mut normalized = [0.0; PartitionSize::COUNT];
            for (i, ipc) in ipcs.iter().enumerate() {
                normalized[i] = if reference > 0.0 {
                    ipc / reference
                } else {
                    0.0
                };
            }
            let adequate = PartitionSize::ALL
                .into_iter()
                .find(|s| normalized[s.index()] >= 0.9)
                .unwrap_or(PartitionSize::MB8);
            SensitivityRow {
                name: b.name,
                normalized_ipc: normalized,
                adequate,
            }
        })
        .collect()
}

/// The evaluation of one mix under one scheme.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// The scheme.
    pub kind: SchemeKind,
    /// The full run report.
    pub report: RunReport,
}

/// The evaluation of one mix under all four schemes (one Fig. 10 group).
#[derive(Debug, Clone)]
pub struct MixEvaluation {
    /// Mix id (1-based).
    pub mix_id: usize,
    /// Per-workload chart labels.
    pub labels: Vec<String>,
    /// Whether each workload's SPEC part is LLC-sensitive.
    pub sensitive: Vec<bool>,
    /// Total LLC demand in MB (figure captions).
    pub total_demand_mb: f64,
    /// Runs in [`SchemeKind::ALL`] order: Static, Time, Untangle, Shared.
    pub runs: Vec<SchemeRun>,
}

impl MixEvaluation {
    /// The run for one scheme.
    pub fn run(&self, kind: SchemeKind) -> &RunReport {
        &self
            .runs
            .iter()
            .find(|r| r.kind == kind)
            .expect("all four schemes evaluated")
            .report
    }

    /// Average per-workload total leakage in bits (Table 6 columns).
    pub fn avg_total_leakage(&self, kind: SchemeKind) -> f64 {
        avg_total_bits(self.run(kind))
    }

    /// Average per-assessment leakage across workloads (Table 6).
    pub fn avg_leakage_per_assessment(&self, kind: SchemeKind) -> f64 {
        avg_bits_per_assessment(self.run(kind))
    }
}

/// Mean over workloads of each one's leaked bits per assessment.
fn avg_bits_per_assessment(report: &RunReport) -> f64 {
    let per: Vec<f64> = report
        .domains
        .iter()
        .map(|d| d.leakage.bits_per_assessment())
        .collect();
    stable_sum(&per) / report.domains.len() as f64
}

/// Mean total leaked bits per workload.
fn avg_total_bits(report: &RunReport) -> f64 {
    let bits: Vec<f64> = report
        .domains
        .iter()
        .map(|d| d.leakage.total_bits)
        .collect();
    stable_sum(&bits) / report.domains.len() as f64
}

/// Builds the runner config for one (mix, scheme) evaluation.
pub fn mix_runner_config(kind: SchemeKind, scale: f64) -> RunnerConfig {
    RunnerConfig::eval_scale(kind, scale).expect("eval scale")
}

/// The base every mix evaluation XORs its id into to seed its RNGs.
/// Part of the checkpoint fingerprint: changing it invalidates resumes.
pub const MIX_SEED_BASE: u64 = 0xfeed;

/// Runs `mix` under one scheme.
pub fn run_mix_under(mix: &Mix, kind: SchemeKind, scale: f64) -> RunReport {
    let config = mix_runner_config(kind, scale);
    Runner::new(config, mix.sources(MIX_SEED_BASE ^ mix.id as u64, scale))
        .expect("runner")
        .run()
}

/// Runs `mix` under all four schemes (one Fig. 10 group), fanning the
/// schemes out across threads.
pub fn evaluate_mix(mix: &Mix, scale: f64) -> MixEvaluation {
    let runs = par_map(&SchemeKind::ALL, |&kind| SchemeRun {
        kind,
        report: run_mix_under(mix, kind, scale),
    });
    group_mix(mix, runs)
}

/// Assembles a [`MixEvaluation`] from per-scheme runs.
fn group_mix(mix: &Mix, runs: Vec<SchemeRun>) -> MixEvaluation {
    MixEvaluation {
        mix_id: mix.id,
        labels: mix.labels(),
        sensitive: mix
            .workloads
            .iter()
            .map(|w| w.spec.llc_sensitive())
            .collect(),
        total_demand_mb: mix.total_demand_mb(),
        runs,
    }
}

/// Evaluates every mix in `mixes` under all four schemes, fanning out
/// over the flattened (mix, scheme) grid — 64 independent tasks for the
/// full 16-mix evaluation, the best load-balancing granularity.
///
/// Each task seeds its own RNGs from `(mix.id, scheme)` alone, so the
/// result is bit-identical to calling [`evaluate_mix`] in a sequential
/// loop.
pub fn run_all_mixes(mixes: &[Mix], scale: f64) -> Vec<MixEvaluation> {
    let kinds = SchemeKind::ALL;
    let runs: Vec<SchemeRun> = par_map_indexed(mixes.len() * kinds.len(), |i| {
        let kind = kinds[i % kinds.len()];
        SchemeRun {
            kind,
            report: run_mix_under(&mixes[i / kinds.len()], kind, scale),
        }
    });
    mixes
        .iter()
        .zip(runs.chunks(kinds.len()))
        .map(|(mix, chunk)| group_mix(mix, chunk.to_vec()))
        .collect()
}

/// [`run_all_mixes`] hardened for long sweeps: the mixes go through
/// the resumable engine [`run_resumable`] (per-item panic isolation
/// with bounded retries, checkpoint/resume through `store`).
///
/// The unit of work is one mix (its four schemes run in sequence inside
/// the item, under a `mix/NN` span). Its checkpoint fingerprint is
/// [`sweep_fingerprint`] over the mix id, `scale`, [`MIX_SEED_BASE`],
/// and the default solver options. A panicking item is retried up to
/// `retry.max_attempts` times; every attempt re-derives its seeds from
/// `(MIX_SEED_BASE, mix.id)` alone, so retried results cannot diverge
/// from clean ones.
pub fn run_all_mixes_resumable(
    mixes: &[Mix],
    scale: f64,
    retry: RetryPolicy,
    store: Option<&CheckpointStore<MixSummary>>,
    resume: bool,
) -> SweepOutcome<MixSummary> {
    let options = DinkelbachOptions::default();
    run_resumable(
        mixes,
        |_, mix| sweep_fingerprint(mix.id, scale, MIX_SEED_BASE, &options),
        |_, mix| {
            let _span = obs::span(&format!("mix/{:02}", mix.id));
            let runs: Vec<SchemeRun> = SchemeKind::ALL
                .iter()
                .map(|&kind| SchemeRun {
                    kind,
                    report: run_mix_under(mix, kind, scale),
                })
                .collect();
            Ok(MixSummary::from_evaluation(&group_mix(mix, runs)))
        },
        store,
        resume,
        retry,
    )
}

/// One row of Table 6.
#[derive(Debug, Clone, Copy)]
pub struct LeakageSummaryRow {
    /// Mix id.
    pub mix_id: usize,
    /// Average leakage per assessment under Time (bits).
    pub time_per_assessment: f64,
    /// Average total leakage per workload under Time (bits).
    pub time_total: f64,
    /// Average leakage per assessment under Untangle (bits).
    pub untangle_per_assessment: f64,
    /// Average total leakage per workload under Untangle (bits).
    pub untangle_total: f64,
}

impl LeakageSummaryRow {
    /// The headline reduction: how much lower Untangle's leakage per
    /// assessment is than Time's (the paper's abstract reports 78 % on
    /// average).
    pub fn per_assessment_reduction(&self) -> f64 {
        1.0 - self.untangle_per_assessment / self.time_per_assessment
    }
}

/// Table 6 from already-evaluated mixes.
pub fn leakage_summary(evaluations: &[MixEvaluation]) -> Vec<LeakageSummaryRow> {
    evaluations
        .iter()
        .map(|e| LeakageSummaryRow {
            mix_id: e.mix_id,
            time_per_assessment: e.avg_leakage_per_assessment(SchemeKind::Time),
            time_total: e.avg_total_leakage(SchemeKind::Time),
            untangle_per_assessment: e.avg_leakage_per_assessment(SchemeKind::Untangle),
            untangle_total: e.avg_total_leakage(SchemeKind::Untangle),
        })
        .collect()
}

/// Result of the §9 active-attacker study for one mix.
#[derive(Debug, Clone, Copy)]
pub struct ActiveAttackerRow {
    /// Mix id.
    pub mix_id: usize,
    /// Average bits/assessment with the §5.3.4 Maintain optimization,
    /// benign environment.
    pub optimized_benign: f64,
    /// Average bits/assessment without the optimization, under squeeze
    /// pressure (worst case).
    pub worst_case: f64,
}

/// Runs the §9 active-attacker comparison for one mix: Untangle with
/// the optimized accounting (benign) versus the unoptimized, squeezed
/// worst case.
pub fn active_attacker_study(mix: &Mix, scale: f64) -> ActiveAttackerRow {
    let benign = run_mix_under(mix, SchemeKind::Untangle, scale);
    let mut config = mix_runner_config(SchemeKind::Untangle, scale);
    config.params.optimized_accounting = false;
    config.squeeze = true;
    let attacked = Runner::new(config, mix.sources(MIX_SEED_BASE ^ mix.id as u64, scale))
        .expect("runner")
        .run();
    ActiveAttackerRow {
        mix_id: mix.id,
        optimized_benign: avg_bits_per_assessment(&benign),
        worst_case: avg_bits_per_assessment(&attacked),
    }
}

/// One point of the §5.3 channel study.
#[derive(Debug, Clone, Copy)]
pub struct ChannelPoint {
    /// Cooldown in time units.
    pub cooldown: u64,
    /// Delay width in time units.
    pub delay_width: usize,
    /// Certified `R_max` upper bound (bits per unit).
    pub rmax: f64,
}

/// The channel instance behind one sweep point: 8 symbols spaced one
/// delay width apart.
fn sweep_channel_config(cooldown: u64, delay_width: usize) -> ChannelConfig {
    let delay = if delay_width <= 1 {
        DelayDist::none()
    } else {
        DelayDist::uniform(delay_width).expect("width > 0")
    };
    ChannelConfig::evenly_spaced(cooldown, 8, (delay_width as u64).max(1), delay)
        .expect("valid config")
}

/// One certified solve of a sweep point through the shared memo cache.
fn sweep_rmax(cooldown: u64, delay_width: usize) -> f64 {
    RmaxCache::global()
        .solve(
            &sweep_channel_config(cooldown, delay_width),
            &DinkelbachOptions::default(),
        )
        .expect("solver converges")
        .upper_bound
}

/// Sweeps `R_max` over cooldown times at fixed delay (Mechanism 1) —
/// the longer the cooldown, the lower the rate. Grid points solve in
/// parallel and memoize through [`RmaxCache::global`].
pub fn rmax_vs_cooldown(cooldowns: &[u64], delay_width: usize) -> Vec<ChannelPoint> {
    par_map(cooldowns, |&tc| ChannelPoint {
        cooldown: tc,
        delay_width,
        rmax: sweep_rmax(tc, delay_width),
    })
}

/// Sweeps `R_max` over delay widths at fixed cooldown (Mechanism 2) —
/// the wider the random delay, the lower the rate. Grid points solve in
/// parallel and memoize through [`RmaxCache::global`].
pub fn rmax_vs_delay(cooldown: u64, delay_widths: &[usize]) -> Vec<ChannelPoint> {
    par_map(delay_widths, |&w| ChannelPoint {
        cooldown,
        delay_width: w,
        rmax: sweep_rmax(cooldown, w),
    })
}

/// The §5.3.1 strategy example: data rates of the 4-symbol and
/// 8-symbol uniform strategies (expected 800 vs ≈667 bits/s with 1 ms
/// units).
pub fn strategy_example() -> (f64, f64) {
    let rate = |n: usize| {
        let ch = Channel::new(ChannelConfig {
            cooldown: 1,
            durations: (1..=n as u64).collect(),
            delay: DelayDist::none(),
        })
        .expect("valid channel");
        ch.rate_bits_per_unit(&Dist::uniform(n).expect("n > 0"))
            .expect("uniform input is valid for this channel")
            * 1000.0
    };
    (rate(4), rate(8))
}

/// Per-workload Static IPCs for `mix`, the baseline both sweeps
/// normalize against.
fn static_baseline(mix: &Mix, scale: f64, seed: u64) -> Vec<f64> {
    let config = RunnerConfig::eval_scale(SchemeKind::Static, scale).expect("eval scale");
    Runner::new(config, mix.sources(seed, scale))
        .expect("runner")
        .run()
        .domains
        .iter()
        .map(|d| d.ipc())
        .collect()
}

/// Geometric-mean speedup of `report` over per-workload baseline IPCs.
fn speedup_over(report: &RunReport, baseline: &[f64]) -> f64 {
    let normalized: Vec<f64> = report
        .domains
        .iter()
        .zip(baseline)
        .map(|(d, &s)| if s > 0.0 { d.ipc() / s } else { 0.0 })
        .collect();
    geometric_mean(&normalized)
}

/// One row of the §5.3.2 cooldown sweep (`exp_sweep`).
#[derive(Debug, Clone, Copy)]
pub struct CooldownSweepRow {
    /// Assessment interval in instructions.
    pub interval: u64,
    /// Geometric-mean speedup over Static.
    pub speedup: f64,
    /// Average bits per assessment across workloads.
    pub avg_bits_per_assessment: f64,
    /// Average total leaked bits per workload.
    pub avg_total_bits: f64,
    /// Average number of assessments per workload.
    pub avg_assessments: f64,
}

/// Sweeps Untangle's assessment interval over one mix (§5.3.2): the
/// longer the cooldown, the lower the leakage rate and the slower the
/// reaction. `factors` divide the scaled 8 M-instruction base interval.
/// Sweep settings run in parallel against a shared Static baseline.
pub fn cooldown_sweep(mix: &Mix, scale: f64, factors: &[u64], seed: u64) -> Vec<CooldownSweepRow> {
    let static_ipcs = static_baseline(mix, scale, seed);
    let base_interval = (8_000_000.0 * scale) as u64;
    par_map(factors, |&factor| {
        let interval = base_interval / factor;
        let mut config = RunnerConfig::eval_scale(SchemeKind::Untangle, scale).expect("eval scale");
        config.params.progress_interval_instrs = interval;
        config.params.delay_max_cycles = interval / 8; // δ ~ U[0, T_c)
        let report = Runner::new(config, mix.sources(seed, scale))
            .expect("runner")
            .run();
        let n = report.domains.len() as f64;
        CooldownSweepRow {
            interval,
            speedup: speedup_over(&report, &static_ipcs),
            avg_bits_per_assessment: avg_bits_per_assessment(&report),
            avg_total_bits: avg_total_bits(&report),
            avg_assessments: report
                .domains
                .iter()
                .map(|d| d.leakage.assessments)
                .sum::<u64>() as f64
                / n,
        }
    })
}

/// One row of the §3.3 budget trade-off sweep (`exp_budget`).
#[derive(Debug, Clone, Copy)]
pub struct BudgetSweepRow {
    /// The lifetime leakage budget in bits (`None` = unlimited).
    pub budget_bits: Option<f64>,
    /// Geometric-mean speedup of Time over Static.
    pub time_speedup: f64,
    /// Geometric-mean speedup of Untangle over Static.
    pub untangle_speedup: f64,
}

/// For each budget, runs `mix` under Time and Untangle and reports the
/// speedup over Static (§3.3: loose accounting exhausts the budget and
/// freezes resizing). The budget × scheme grid runs in parallel.
pub fn budget_sweep(
    mix: &Mix,
    scale: f64,
    budgets: &[Option<f64>],
    seed: u64,
) -> Vec<BudgetSweepRow> {
    let static_ipcs = static_baseline(mix, scale, seed);
    let kinds = [SchemeKind::Time, SchemeKind::Untangle];
    let speedups: Vec<f64> = par_map_indexed(budgets.len() * kinds.len(), |i| {
        let mut config =
            RunnerConfig::eval_scale(kinds[i % kinds.len()], scale).expect("eval scale");
        config.params.leakage_budget_bits = budgets[i / kinds.len()];
        let report = Runner::new(config, mix.sources(seed, scale))
            .expect("runner")
            .run();
        speedup_over(&report, &static_ipcs)
    });
    budgets
        .iter()
        .zip(speedups.chunks(kinds.len()))
        .map(|(&budget_bits, pair)| BudgetSweepRow {
            budget_bits,
            time_speedup: pair[0],
            untangle_speedup: pair[1],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_workloads::mix::mix_by_id;
    use untangle_workloads::spec::spec_by_name;

    #[test]
    fn strategy_example_matches_paper() {
        let (s1, s2) = strategy_example();
        assert!((s1 - 800.0).abs() < 1e-9);
        assert!((s2 - 3000.0 / 4.5).abs() < 1e-9);
        assert!(s1 > s2);
    }

    #[test]
    fn rmax_monotone_in_cooldown() {
        let pts = rmax_vs_cooldown(&[4, 8, 16], 4);
        assert!(pts[0].rmax > pts[1].rmax);
        assert!(pts[1].rmax > pts[2].rmax);
    }

    #[test]
    fn rmax_monotone_in_delay() {
        let pts = rmax_vs_delay(8, &[1, 4, 16]);
        assert!(pts[0].rmax > pts[1].rmax);
        assert!(pts[1].rmax > pts[2].rmax);
    }

    #[test]
    fn sensitivity_distinguishes_big_and_small_working_sets() {
        let rows = sensitivity_study(
            &[
                *spec_by_name("povray_0").unwrap(),
                *spec_by_name("mcf_0").unwrap(),
            ],
            0.002,
        );
        let povray = &rows[0];
        let mcf = &rows[1];
        assert!(!povray.llc_sensitive(), "adequate {}", povray.adequate);
        assert!(mcf.llc_sensitive(), "adequate {}", mcf.adequate);
        // Normalized IPC is monotone-ish: 8 MB is the reference 1.0.
        assert!((mcf.normalized_ipc[8] - 1.0).abs() < 1e-9);
        assert!(mcf.normalized_ipc[0] < 0.9);
    }

    #[test]
    fn evaluate_mix_produces_all_schemes() {
        let mix = mix_by_id(1).unwrap();
        let eval = evaluate_mix(&mix, 0.001);
        assert_eq!(eval.runs.len(), 4);
        assert_eq!(eval.labels.len(), 8);
        let time = eval.avg_leakage_per_assessment(SchemeKind::Time);
        assert!((time - 9f64.log2()).abs() < 1e-9);
        let untangle = eval.avg_leakage_per_assessment(SchemeKind::Untangle);
        assert!(untangle < time, "untangle {untangle} !< time {time}");
        let rows = leakage_summary(&[eval]);
        assert!(rows[0].per_assessment_reduction() > 0.0);
    }
}
