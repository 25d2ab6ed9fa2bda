//! Benchmark and mix definitions for the Untangle evaluation (§8).
//!
//! The paper builds workloads from SPEC CPU2017 SimPoint slices and
//! OpenSSL 3.0.5 kernels. Both are unavailable here (proprietary inputs
//! / external code), so this crate defines synthetic equivalents with
//! the same *roles* (see DESIGN.md, "Substitutions"):
//!
//! * [`spec`] — 36 SPEC-like benchmarks with per-benchmark working-set
//!   targets chosen so the LLC-sensitivity structure matches the
//!   paper's Fig. 11: 8 benchmarks with adequate LLC size above the
//!   2 MB static share (LLC-sensitive), 28 below.
//! * [`crypto`] — the 8 cryptographic kernels of Table 5, fully
//!   secret-annotated per the paper's conservative assumption.
//! * [`mix`] — the 16 evaluation mixes (Fig. 10, Figs. 12–17), built by
//!   the paper's replacement procedure, plus the 1 M-crypto /
//!   10 M-SPEC interleave loop that forms each workload.
//! * [`scenario`] — hundreds of generated scenario classes
//!   (phase-shifting, adversarial, bursty, co-scheduled crypto) for the
//!   trace-file + SimPoint sampling sweep, each a pure function of its
//!   id.
//!
//! # Example
//!
//! ```
//! use untangle_workloads::mix::mixes;
//!
//! let all = mixes();
//! assert_eq!(all.len(), 16);
//! assert_eq!(all[3].sensitive_count(), 8); // Mix 4 is all-sensitive
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crypto;
pub mod mix;
pub mod scenario;
pub mod spec;

/// The per-benchmark seed hash over a benchmark name. It has FNV-1a's
/// offset basis and xor-multiply shape, but multiplies by `0x1000001b3`,
/// not the 64-bit FNV prime `0x100000001b3`, so it is *not*
/// `untangle_durable::fnv1a`. Every SPEC and crypto source is seeded
/// from it, so changing the constant would change every mix result.
fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

pub use crypto::{crypto_benchmarks, CryptoBenchmark};
pub use mix::{mixes, Mix, WorkloadSpec};
pub use scenario::{scenario_set, Scenario, ScenarioClass};
pub use spec::{spec_benchmarks, SpecBenchmark};
