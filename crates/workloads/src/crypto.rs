//! The 8 cryptographic benchmarks of Table 5.
//!
//! Synthetic OpenSSL stand-ins: small secret-indexed working sets with
//! every instruction conservatively annotated as secret-dependent
//! (both `secret_data` and `secret_ctrl`), exactly as §8 assumes for
//! the crypto side of each workload.

use untangle_trace::synth::{CryptoConfig, CryptoModel};
use untangle_trace::LineAddr;

/// One crypto benchmark definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoBenchmark {
    /// Benchmark name as the paper prints it.
    pub name: &'static str,
    /// Lookup-table / state footprint in bytes.
    pub table_bytes: u64,
    /// Fraction of instructions that access memory (per-mille to stay
    /// `const`-friendly).
    pub mem_permille: u32,
}

impl CryptoBenchmark {
    /// Memory-instruction fraction.
    pub fn mem_fraction(&self) -> f64 {
        self.mem_permille as f64 / 1000.0
    }

    /// Generator configuration for a given secret, placed at
    /// `region_base`.
    ///
    /// `secret_scales_footprint` is disabled: the crypto kernels of the
    /// evaluation have secret-dependent *patterns*, and the annotations
    /// hide them from the monitor either way.
    pub fn crypto_config(&self, region_base: LineAddr, secret: u64) -> CryptoConfig {
        CryptoConfig {
            table_bytes: self.table_bytes,
            mem_fraction: self.mem_fraction(),
            secret,
            secret_scales_footprint: false,
            region_base,
        }
    }

    /// Builds the benchmark's trace source.
    pub fn model(&self, region_base: LineAddr, secret: u64) -> CryptoModel {
        CryptoModel::new(self.crypto_config(region_base, secret), self.seed())
    }

    /// Deterministic per-benchmark seed.
    pub fn seed(&self) -> u64 {
        crate::name_hash(self.name) ^ 0x5eed
    }
}

/// Table 5: the eight OpenSSL-like kernels.
pub const CRYPTO_BENCHMARKS: [CryptoBenchmark; 8] = [
    CryptoBenchmark {
        name: "Chacha20",
        table_bytes: 4 << 10,
        mem_permille: 300,
    },
    CryptoBenchmark {
        name: "AES-128",
        table_bytes: 8 << 10,
        mem_permille: 400,
    },
    CryptoBenchmark {
        name: "AES-256",
        table_bytes: 12 << 10,
        mem_permille: 400,
    },
    CryptoBenchmark {
        name: "SHA-256",
        table_bytes: 4 << 10,
        mem_permille: 250,
    },
    CryptoBenchmark {
        name: "RSA-2048",
        table_bytes: 24 << 10,
        mem_permille: 450,
    },
    CryptoBenchmark {
        name: "RSA-4096",
        table_bytes: 48 << 10,
        mem_permille: 450,
    },
    CryptoBenchmark {
        name: "ECDSA",
        table_bytes: 16 << 10,
        mem_permille: 380,
    },
    CryptoBenchmark {
        name: "EdDSA",
        table_bytes: 8 << 10,
        mem_permille: 350,
    },
];

/// The crypto benchmark table.
pub fn crypto_benchmarks() -> &'static [CryptoBenchmark] {
    &CRYPTO_BENCHMARKS
}

/// Looks a crypto benchmark up by name.
pub fn crypto_by_name(name: &str) -> Option<&'static CryptoBenchmark> {
    CRYPTO_BENCHMARKS.iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_trace::source::TraceSource;

    #[test]
    fn eight_kernels_with_unique_names() {
        assert_eq!(CRYPTO_BENCHMARKS.len(), 8);
        let names: std::collections::HashSet<&str> =
            CRYPTO_BENCHMARKS.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn seed_is_pinned() {
        // Every crypto source is seeded from this; a re-hash would change
        // every mix result.
        assert_eq!(
            crypto_by_name("Chacha20").unwrap().seed(),
            0xf49c_7490_2b48_fde2
        );
    }

    #[test]
    fn all_kernels_fit_well_under_the_smallest_partition() {
        // §8: crypto benchmarks have much smaller LLC use than SPEC.
        for b in &CRYPTO_BENCHMARKS {
            assert!(b.table_bytes <= 64 << 10, "{} too big", b.name);
        }
    }

    #[test]
    fn every_emitted_instruction_is_secret_annotated() {
        for b in CRYPTO_BENCHMARKS.iter().take(3) {
            let mut m = b.model(LineAddr::new(0), 7);
            for i in m.iter_instrs().take(200) {
                assert!(i.annotations.secret_data && i.annotations.secret_ctrl);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(crypto_by_name("RSA-4096").is_some());
        assert!(crypto_by_name("DES").is_none());
    }
}
