//! The correctness gate's shared parts: output digests, the digests
//! `golden.txt` pins for [`crate::DEFAULT_SEED`], and the run manifest.

use std::path::Path;

use untangle_core::runner::RunReport;

use crate::Ctx;

/// The stored digests, one `<workload> <hex digest>` line each.
const GOLDEN: &str = include_str!("../golden.txt");

/// Accumulates the bytes a digest covers.
#[derive(Debug, Default)]
pub struct Digest {
    bytes: Vec<u8>,
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Every per-domain `DomainStats` field, resizing-trace entry and
    /// leakage count of a run.
    pub fn report(&mut self, report: &RunReport) {
        self.str(report.kind.name());
        for d in &report.domains {
            let s = &d.stats;
            for v in [
                s.instructions,
                s.mem_accesses,
                s.l1_hits,
                s.llc_hits,
                s.llc_misses,
            ] {
                self.u64(v);
            }
            self.f64(s.cycles);
            for e in d.trace.entries() {
                self.u64(e.action.size.bytes());
                self.str(e.class.name());
                self.f64(e.decided_at_cycles);
                self.f64(e.applied_at_cycles);
            }
            self.f64(d.leakage.total_bits);
            self.u64(d.leakage.assessments);
            self.u64(d.leakage.maintains);
        }
    }

    pub fn finish(&self) -> u64 {
        untangle_durable::fnv1a(&self.bytes)
    }
}

/// The digest `golden.txt` stores for `workload`, if any.
pub fn golden(workload: &str) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(workload))
            .then(|| parts.next().and_then(|h| u64::from_str_radix(h, 16).ok()))
            .flatten()
    })
}

/// Checks every pass digest for equality and, at the default seed,
/// against the stored digest.
pub fn check_digests(ctx: &Ctx, outcome: &mut crate::Outcome, digests: &[u64]) {
    let first = digests.first().copied().unwrap_or(0);
    outcome.check(
        format!(
            "all {} passes produce identical outputs{}",
            digests.len(),
            if ctx.trace {
                ", traced and untraced alike"
            } else {
                ""
            }
        ),
        digests.iter().all(|&d| d == first),
    );
    outcome
        .manifest
        .push(("output_digest", format!("{first:016x}")));
    if ctx.seed == crate::DEFAULT_SEED {
        let want = golden(&ctx.workload);
        outcome.check(
            format!(
                "seed {} output digest {first:016x} matches golden.txt ({})",
                ctx.seed,
                want.map_or("missing".to_string(), |w| format!("{w:016x}"))
            ),
            want == Some(first),
        );
    }
}

/// The git revision of the checkout, read from `.git` without running
/// a subprocess; `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The manifest entries every workload shares.
pub fn manifest(ctx: &Ctx) -> Vec<(&'static str, String)> {
    vec![
        ("git_rev", git_rev()),
        (
            "cargo_features",
            "none (untangle-bench and untangle-serve without their default `parallel`)".to_string(),
        ),
        (
            "kernel_mode",
            untangle_info::kernels::active_mode().name().to_string(),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("traced", ctx.trace.to_string()),
        ("clock_read_ns", format!("{:.2}", ctx.clock_ns)),
    ]
}
