//! Benchmarks of the simulation substrate: cache accesses, UMON
//! observation, and full-system stepping — the inner loops every
//! experiment spends its time in. The two LLC benches cover both
//! set-mapping paths (mask and `%`), the two step benches both LLC
//! modes. Uses the in-repo harness
//! (`--features bench-harness`):
//!
//! `cargo bench -p untangle-bench --features bench-harness --bench cache`

use untangle_bench::harness::bench;
use untangle_sim::cache::SetAssocCache;
use untangle_sim::config::{CacheGeometry, MachineConfig, PartitionSize};
use untangle_sim::system::{LlcMode, System};
use untangle_sim::umon::UtilityMonitor;
use untangle_trace::synth::{TraceRng, WorkingSetConfig, WorkingSetModel};
use untangle_trace::LineAddr;

fn main() {
    let mut cache = SetAssocCache::new(CacheGeometry {
        sets: PartitionSize::MB2.sets(16),
        ways: 16,
    });
    let mut rng = TraceRng::new(1);
    println!(
        "{}",
        bench("llc_access_2mb_partition_10k", 5, 100, || {
            for _ in 0..10_000 {
                cache.access(LineAddr::new(rng.below(60_000)));
            }
        })
        .render()
    );

    // A 3 MB share has 3072 sets: the fold to the effective set count
    // takes the `%` path instead of a mask.
    let mut cache = SetAssocCache::new(CacheGeometry {
        sets: PartitionSize::MB8.sets(16),
        ways: 16,
    });
    cache.resize_sets(PartitionSize::MB3.sets(16));
    let mut rng = TraceRng::new(1);
    println!(
        "{}",
        bench("llc_access_3mb_partition_10k", 5, 100, || {
            for _ in 0..10_000 {
                cache.access(LineAddr::new(rng.below(90_000)));
            }
        })
        .render()
    );

    let mut mon = UtilityMonitor::new(&MachineConfig {
        umon_window: 4096,
        ..MachineConfig::default()
    });
    let mut rng = TraceRng::new(2);
    println!(
        "{}",
        bench("umon_observe_10k", 5, 100, || {
            for _ in 0..10_000 {
                mon.observe(LineAddr::new(rng.below(120_000)));
            }
        })
        .render()
    );

    for (name, mode) in [
        ("system_step_10k", LlcMode::Partitioned),
        ("system_step_shared_10k", LlcMode::Shared),
    ] {
        let mut system = System::new(MachineConfig::default(), 1, mode);
        let mut src = WorkingSetModel::new(
            WorkingSetConfig {
                working_set_bytes: 3 << 20,
                ..WorkingSetConfig::default()
            },
            3,
        );
        println!(
            "{}",
            bench(name, 5, 100, || {
                for _ in 0..10_000 {
                    system.step(0, &mut src);
                }
            })
            .render()
        );
    }
}
