//! The 36 SPEC-like benchmarks of the sensitivity study (Fig. 11).
//!
//! Each benchmark is a [`WorkingSetModel`] parameterization. The
//! `adequate_target_bytes` field is the working-set knee we aim the
//! generator at; the *measured* adequate LLC size (the §8 definition:
//! the smallest supported partition size reaching ≥ 0.9 of the 8 MB
//! IPC) comes out of the `exp_sensitivity` harness. A benchmark is
//! LLC-sensitive when its adequate size exceeds the 2 MB static share.

use untangle_trace::synth::{WorkingSetConfig, WorkingSetModel};
use untangle_trace::LineAddr;

/// One SPEC-like benchmark definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecBenchmark {
    /// Benchmark name, `application_input` like the paper's labels.
    pub name: &'static str,
    /// The working-set knee the generator targets, in bytes.
    pub adequate_target_bytes: u64,
    /// Fraction of instructions that access memory.
    pub mem_fraction: f64,
    /// Fraction of memory accesses served by the tiny hot region.
    pub hot_fraction: f64,
    /// Fraction of memory accesses that stream (uncacheable misses).
    pub stream_fraction: f64,
}

impl SpecBenchmark {
    /// Whether the paper classifies this benchmark as LLC-sensitive
    /// (adequate LLC size above the 2 MB static share).
    pub fn llc_sensitive(&self) -> bool {
        self.adequate_target_bytes > 2 << 20
    }

    /// The generator configuration, with the workload placed at
    /// `region_base`.
    pub fn working_set_config(&self, region_base: LineAddr) -> WorkingSetConfig {
        WorkingSetConfig {
            // Aim the knee slightly below the target partition size so
            // the target size comfortably reaches ≥0.9 normalized IPC.
            working_set_bytes: (self.adequate_target_bytes as f64 * 0.85) as u64,
            mem_fraction: self.mem_fraction,
            hot_fraction: self.hot_fraction,
            hot_bytes: 16 << 10,
            stream_fraction: self.stream_fraction,
            stream_bytes: 64 << 20,
            store_fraction: 0.3,
            region_base,
        }
    }

    /// Builds the benchmark's trace source.
    pub fn model(&self, region_base: LineAddr) -> WorkingSetModel {
        WorkingSetModel::new(self.working_set_config(region_base), self.seed())
    }

    /// Deterministic per-benchmark seed (a hash of the name).
    pub fn seed(&self) -> u64 {
        crate::name_hash(self.name)
    }
}

macro_rules! spec {
    ($name:literal, $kb:expr, $mem:expr, $hot:expr, $stream:expr) => {
        SpecBenchmark {
            name: $name,
            adequate_target_bytes: $kb * 1024,
            mem_fraction: $mem,
            hot_fraction: $hot,
            stream_fraction: $stream,
        }
    };
}

/// All 36 benchmarks. The 8 LLC-sensitive ones (targets above 2 MB)
/// match the paper's bold set: `cam4_0`, `gcc_2`, `gcc_4`, `lbm_0`,
/// `mcf_0`, `parest_0`, `roms_0`, `wrf_0`.
pub const SPEC_BENCHMARKS: [SpecBenchmark; 36] = [
    spec!("blender_0", 768, 0.32, 0.50, 0.04),
    spec!("bwaves_0", 1024, 0.38, 0.45, 0.06),
    spec!("bwaves_1", 768, 0.38, 0.45, 0.06),
    spec!("bwaves_2", 1280, 0.38, 0.45, 0.06),
    spec!("bwaves_3", 512, 0.38, 0.45, 0.06),
    spec!("cactuBSSN_0", 1536, 0.35, 0.42, 0.08),
    spec!("cam4_0", 3072, 0.33, 0.45, 0.04),
    spec!("deepsjeng_0", 512, 0.28, 0.55, 0.02),
    spec!("exchange2_0", 256, 0.25, 0.60, 0.01),
    spec!("fotonik3d_0", 1536, 0.40, 0.40, 0.08),
    spec!("gcc_0", 768, 0.30, 0.50, 0.03),
    spec!("gcc_1", 1024, 0.30, 0.50, 0.03),
    spec!("gcc_2", 6144, 0.34, 0.45, 0.03),
    spec!("gcc_3", 768, 0.30, 0.50, 0.03),
    spec!("gcc_4", 4096, 0.34, 0.45, 0.03),
    spec!("imagick_0", 512, 0.30, 0.55, 0.02),
    spec!("lbm_0", 4096, 0.42, 0.35, 0.08),
    spec!("leela_0", 384, 0.27, 0.55, 0.02),
    spec!("mcf_0", 6144, 0.40, 0.35, 0.05),
    spec!("nab_0", 512, 0.33, 0.50, 0.03),
    spec!("namd_0", 384, 0.34, 0.52, 0.02),
    spec!("omnetpp_0", 1536, 0.36, 0.42, 0.05),
    spec!("parest_0", 4096, 0.36, 0.42, 0.04),
    spec!("perlbench_0", 512, 0.30, 0.52, 0.02),
    spec!("perlbench_1", 768, 0.30, 0.52, 0.02),
    spec!("perlbench_2", 512, 0.30, 0.52, 0.02),
    spec!("povray_0", 256, 0.28, 0.58, 0.01),
    spec!("roms_0", 8192, 0.40, 0.38, 0.06),
    spec!("wrf_0", 3072, 0.37, 0.42, 0.05),
    spec!("x264_0", 512, 0.31, 0.52, 0.03),
    spec!("x264_1", 384, 0.31, 0.52, 0.03),
    spec!("x264_2", 768, 0.31, 0.52, 0.03),
    spec!("xalancbmk_0", 1024, 0.33, 0.48, 0.03),
    spec!("xz_0", 768, 0.35, 0.45, 0.05),
    spec!("xz_1", 512, 0.35, 0.45, 0.05),
    spec!("xz_2", 1024, 0.35, 0.45, 0.05),
];

/// The benchmark table.
pub fn spec_benchmarks() -> &'static [SpecBenchmark] {
    &SPEC_BENCHMARKS
}

/// Looks a benchmark up by name.
pub fn spec_by_name(name: &str) -> Option<&'static SpecBenchmark> {
    SPEC_BENCHMARKS.iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_36_benchmarks_with_unique_names() {
        assert_eq!(SPEC_BENCHMARKS.len(), 36);
        let names: HashSet<&str> = SPEC_BENCHMARKS.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 36);
    }

    #[test]
    fn exactly_8_llc_sensitive() {
        let sensitive: Vec<&str> = SPEC_BENCHMARKS
            .iter()
            .filter(|b| b.llc_sensitive())
            .map(|b| b.name)
            .collect();
        assert_eq!(
            sensitive,
            vec!["cam4_0", "gcc_2", "gcc_4", "lbm_0", "mcf_0", "parest_0", "roms_0", "wrf_0"]
        );
    }

    #[test]
    fn seed_is_pinned() {
        // Every SPEC source is seeded from this; a re-hash would change
        // every mix result.
        assert_eq!(spec_by_name("mcf_0").unwrap().seed(), 0xa81b_9272_02e4_f7fa);
    }

    #[test]
    fn lookup_by_name() {
        assert!(spec_by_name("mcf_0").is_some());
        assert!(spec_by_name("mcf_9").is_none());
    }

    #[test]
    fn seeds_differ_across_benchmarks() {
        let seeds: HashSet<u64> = SPEC_BENCHMARKS.iter().map(|b| b.seed()).collect();
        assert_eq!(seeds.len(), 36);
    }

    #[test]
    fn configs_are_valid_and_respect_base() {
        use untangle_trace::source::TraceSource;
        for b in SPEC_BENCHMARKS.iter().take(4) {
            let mut m = b.model(LineAddr::new(1 << 30));
            let i = m.next_instr().expect("infinite source");
            let _ = i;
        }
    }

    #[test]
    fn models_are_deterministic_per_benchmark() {
        use untangle_trace::source::TraceSource;
        for b in SPEC_BENCHMARKS.iter().step_by(7) {
            let mut x = b.model(LineAddr::new(0));
            let mut y = b.model(LineAddr::new(0));
            for _ in 0..300 {
                assert_eq!(x.next_instr(), y.next_instr(), "{} diverged", b.name);
            }
        }
    }

    #[test]
    fn different_benchmarks_produce_different_streams() {
        use untangle_trace::source::TraceSource;
        let mut a = spec_by_name("gcc_2").unwrap().model(LineAddr::new(0));
        let mut b = spec_by_name("mcf_0").unwrap().model(LineAddr::new(0));
        let sa: Vec<_> = a.iter_instrs().take(200).collect();
        let sb: Vec<_> = b.iter_instrs().take(200).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn working_set_targets_shrink_slightly_for_the_knee() {
        for b in &SPEC_BENCHMARKS {
            let ws = b.working_set_config(LineAddr::new(0)).working_set_bytes;
            assert!(ws < b.adequate_target_bytes, "{}", b.name);
            assert!(ws * 10 >= b.adequate_target_bytes * 8, "{}", b.name);
        }
    }

    #[test]
    fn sensitive_benchmarks_sum_to_paper_mix4_demand() {
        // Mix 4's total LLC demand in the paper is 39.0 MB; our targets
        // sum to 38.5 MB — within half a megabyte.
        let total_mb: f64 = SPEC_BENCHMARKS
            .iter()
            .filter(|b| b.llc_sensitive())
            .map(|b| b.adequate_target_bytes as f64 / (1 << 20) as f64)
            .sum();
        assert!((total_mb - 39.0).abs() < 1.5, "total {total_mb} MB");
    }
}
