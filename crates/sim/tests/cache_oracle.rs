//! Differential oracle for the cache substrate.
//!
//! `reference` holds a frozen copy of the original array-of-ways cache
//! model (16-byte `{tag, last_used}` ways stamped from a global clock,
//! `%` set mapping) and of the two utility monitors built on it
//! (`VecDeque` hit windows). The tests below drive the live
//! `SetAssocCache`, `UtilityMonitor` and `TlbUtilityMonitor` and their
//! references with the same seeded streams and require every observable
//! to agree: each access's hit/miss outcome, the `hits`/`misses`
//! counters, `probe` answers, `occupancy`, and the monitors' hit curves
//! and window fill. Any rewrite of the cache layout must keep these
//! green; the reference itself is never edited.

use untangle_sim::cache::SetAssocCache;
use untangle_sim::config::{CacheGeometry, MachineConfig, PartitionSize};
use untangle_sim::tlb::{TlbUtilityMonitor, PAGE_BYTES};
use untangle_sim::umon::UtilityMonitor;
use untangle_trace::synth::TraceRng;
use untangle_trace::LineAddr;

/// The original models, copied unchanged (module paths aside).
mod reference {
    use std::collections::VecDeque;
    use untangle_sim::cache::AccessOutcome;
    use untangle_sim::config::{CacheGeometry, MachineConfig, PartitionSize};
    use untangle_trace::LineAddr;

    #[derive(Debug, Clone, Copy)]
    struct Way {
        /// Full line index; `u64::MAX` marks an invalid way.
        tag: u64,
        /// Monotonic timestamp of last touch (for LRU).
        last_used: u64,
    }

    const INVALID: u64 = u64::MAX;

    #[derive(Debug, Clone)]
    pub struct SetAssocCache {
        geometry: CacheGeometry,
        effective_sets: usize,
        ways: Vec<Way>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl SetAssocCache {
        pub fn new(geometry: CacheGeometry) -> Self {
            assert!(
                geometry.sets > 0 && geometry.ways > 0,
                "degenerate geometry"
            );
            Self {
                geometry,
                effective_sets: geometry.sets,
                ways: vec![
                    Way {
                        tag: INVALID,
                        last_used: 0,
                    };
                    geometry.sets * geometry.ways
                ],
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        pub fn effective_sets(&self) -> usize {
            self.effective_sets
        }

        pub fn resize_sets(&mut self, sets: usize) {
            assert!(
                sets > 0 && sets <= self.geometry.sets,
                "resize to {sets} sets outside 1..={}",
                self.geometry.sets
            );
            if sets < self.effective_sets {
                for w in &mut self.ways
                    [sets * self.geometry.ways..self.effective_sets * self.geometry.ways]
                {
                    w.tag = INVALID;
                    w.last_used = 0;
                }
            }
            self.effective_sets = sets;
        }

        #[inline]
        fn map_set(&self, line: u64) -> usize {
            let home = (line % self.geometry.sets as u64) as usize;
            if home < self.effective_sets {
                home
            } else {
                home % self.effective_sets
            }
        }

        pub fn access(&mut self, addr: LineAddr) -> AccessOutcome {
            self.clock += 1;
            let line = addr.line_index();
            let set = self.map_set(line);
            let base = set * self.geometry.ways;
            let set_ways = &mut self.ways[base..base + self.geometry.ways];

            // Hit path.
            for w in set_ways.iter_mut() {
                if w.tag == line {
                    w.last_used = self.clock;
                    self.hits += 1;
                    return AccessOutcome::Hit;
                }
            }
            // Miss: fill into invalid or LRU way.
            let victim = set_ways
                .iter_mut()
                .min_by_key(|w| if w.tag == INVALID { 0 } else { w.last_used })
                .expect("ways > 0");
            victim.tag = line;
            victim.last_used = self.clock;
            self.misses += 1;
            AccessOutcome::Miss
        }

        pub fn probe(&self, addr: LineAddr) -> bool {
            let line = addr.line_index();
            let set = self.map_set(line);
            let base = set * self.geometry.ways;
            self.ways[base..base + self.geometry.ways]
                .iter()
                .any(|w| w.tag == line)
        }

        pub fn invalidate_all(&mut self) {
            for w in &mut self.ways {
                w.tag = INVALID;
                w.last_used = 0;
            }
        }

        pub fn hits(&self) -> u64 {
            self.hits
        }

        pub fn misses(&self) -> u64 {
            self.misses
        }

        pub fn reset_counters(&mut self) {
            self.hits = 0;
            self.misses = 0;
        }

        pub fn occupancy(&self) -> usize {
            self.ways.iter().filter(|w| w.tag != INVALID).count()
        }
    }

    pub type HitCurve = [u64; PartitionSize::COUNT];

    #[derive(Debug, Clone)]
    pub struct UtilityMonitor {
        sample_ratio: u64,
        window: usize,
        filter: SetAssocCache,
        candidates: Vec<SetAssocCache>,
        history: VecDeque<u16>,
        hit_counts: HitCurve,
    }

    impl UtilityMonitor {
        pub fn new(machine: &MachineConfig) -> Self {
            assert!(machine.umon_window > 0, "window must be positive");
            let r = machine.umon_sample_ratio;
            assert!(r > 0, "sample ratio must be positive");
            let candidates = PartitionSize::ALL
                .iter()
                .map(|s| {
                    let sets = s.sets(machine.llc_ways);
                    assert!(
                        sets % r == 0,
                        "sample ratio {r} must divide set count {sets} of {s}"
                    );
                    SetAssocCache::new(CacheGeometry {
                        sets: sets / r,
                        ways: machine.llc_ways,
                    })
                })
                .collect();
            Self {
                sample_ratio: r as u64,
                window: machine.umon_window,
                filter: SetAssocCache::new(machine.l1_geometry()),
                candidates,
                history: VecDeque::with_capacity(machine.umon_window + 1),
                hit_counts: [0; PartitionSize::COUNT],
            }
        }

        pub fn observe(&mut self, addr: LineAddr) {
            // Private-cache filter: only L1 misses reach the LLC monitor.
            if self.filter.access(addr).is_hit() {
                return;
            }
            let line = addr.line_index();
            if !line.is_multiple_of(self.sample_ratio) {
                return;
            }
            let scaled = LineAddr::new(line / self.sample_ratio);
            let mut mask: u16 = 0;
            for (i, cand) in self.candidates.iter_mut().enumerate() {
                if cand.access(scaled).is_hit() {
                    mask |= 1 << i;
                    self.hit_counts[i] += 1;
                }
            }
            self.history.push_back(mask);
            if self.history.len() > self.window {
                let old = self.history.pop_front().expect("nonempty");
                for (i, count) in self.hit_counts.iter_mut().enumerate() {
                    if old >> i & 1 == 1 {
                        *count -= 1;
                    }
                }
            }
        }

        pub fn hit_curve(&self) -> HitCurve {
            self.hit_counts
        }

        pub fn window_fill(&self) -> usize {
            self.history.len()
        }

        pub fn reset(&mut self) {
            self.history.clear();
            self.hit_counts = [0; PartitionSize::COUNT];
            for c in &mut self.candidates {
                c.invalidate_all();
            }
            self.filter.invalidate_all();
        }
    }

    pub const PAGE_BYTES: u64 = 4096;
    pub const TLB_SIZES: [usize; 6] = [16, 32, 64, 128, 256, 512];
    pub const TLB_WAYS: usize = 8;
    pub type TlbHitCurve = [u64; TLB_SIZES.len()];

    #[derive(Debug, Clone)]
    pub struct TlbUtilityMonitor {
        window: usize,
        candidates: Vec<SetAssocCache>,
        history: VecDeque<u8>,
        hit_counts: TlbHitCurve,
    }

    impl TlbUtilityMonitor {
        pub fn new(window: usize) -> Self {
            assert!(window > 0, "window must be positive");
            Self {
                window,
                candidates: TLB_SIZES
                    .iter()
                    .map(|&entries| {
                        SetAssocCache::new(CacheGeometry {
                            sets: entries / TLB_WAYS,
                            ways: TLB_WAYS,
                        })
                    })
                    .collect(),
                history: VecDeque::with_capacity(window + 1),
                hit_counts: [0; TLB_SIZES.len()],
            }
        }

        pub fn observe(&mut self, line: LineAddr) {
            let page = LineAddr::new(line.byte_addr() / PAGE_BYTES);
            let mut mask: u8 = 0;
            for (i, cand) in self.candidates.iter_mut().enumerate() {
                if cand.access(page).is_hit() {
                    mask |= 1 << i;
                    self.hit_counts[i] += 1;
                }
            }
            self.history.push_back(mask);
            if self.history.len() > self.window {
                let old = self.history.pop_front().expect("nonempty");
                for (i, count) in self.hit_counts.iter_mut().enumerate() {
                    if old >> i & 1 == 1 {
                        *count -= 1;
                    }
                }
            }
        }

        pub fn hit_curve(&self) -> TlbHitCurve {
            self.hit_counts
        }

        pub fn window_fill(&self) -> usize {
            self.history.len()
        }
    }
}

/// A seeded address stream with tunable locality: a mix of re-touches
/// of recent lines, uniform draws over `span` lines above `base`, and
/// sequential runs, so every geometry sees hits, cold misses and
/// capacity evictions.
struct Stream {
    rng: TraceRng,
    base: u64,
    span: u64,
    recent: Vec<u64>,
    seq: u64,
    seq_left: u32,
}

impl Stream {
    fn new(seed: u64, span: u64) -> Self {
        let mut rng = TraceRng::new(seed);
        // Half the streams live at high addresses, so tags use the upper
        // bits and set mapping sees more than small integers.
        let base = if rng.below(2) == 0 {
            0
        } else {
            rng.next_u64() >> 24
        };
        Self {
            rng,
            base,
            span: span.max(1),
            recent: Vec::with_capacity(64),
            seq: 0,
            seq_left: 0,
        }
    }

    fn next_line(&mut self) -> u64 {
        if self.seq_left > 0 {
            self.seq_left -= 1;
            self.seq += 1;
            return self.seq;
        }
        let line = match self.rng.below(16) {
            0..=5 if !self.recent.is_empty() => {
                self.recent[self.rng.below(self.recent.len() as u64) as usize]
            }
            6 => {
                self.seq = self.base + self.rng.below(self.span);
                self.seq_left = self.rng.below(64) as u32;
                self.seq
            }
            _ => self.base + self.rng.below(self.span),
        };
        if self.recent.len() < 64 {
            self.recent.push(line);
        } else {
            let slot = self.rng.below(64) as usize;
            self.recent[slot] = line;
        }
        line
    }
}

/// Compares every counter-like observable; `at` names the stream
/// position in a failure message.
fn assert_same_state(
    live: &SetAssocCache,
    oracle: &reference::SetAssocCache,
    at: &dyn std::fmt::Display,
) {
    assert_eq!(live.hits(), oracle.hits(), "{at}: hits");
    assert_eq!(live.misses(), oracle.misses(), "{at}: misses");
    assert_eq!(live.occupancy(), oracle.occupancy(), "{at}: occupancy");
    assert_eq!(
        live.effective_sets(),
        oracle.effective_sets(),
        "{at}: effective sets"
    );
}

/// A stream position, formatted only when an assertion fails.
struct At {
    geometry: CacheGeometry,
    seed: u64,
    access: u64,
}

impl std::fmt::Display for At {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} seed {} access {}",
            self.geometry, self.seed, self.access
        )
    }
}

/// Drives one geometry for `accesses` accesses with resizes every few
/// thousand accesses to sizes drawn from `sizes` (all of `1..=sets` when
/// empty). Returns the number of accesses made.
fn drive_cache(geometry: CacheGeometry, sizes: &[usize], accesses: u64, seed: u64) -> u64 {
    let mut live = SetAssocCache::new(geometry);
    let mut oracle = reference::SetAssocCache::new(geometry);
    let capacity = (geometry.sets * geometry.ways) as u64;
    let mut rng = TraceRng::new(seed ^ 0x5eed);
    // Footprint relative to capacity: fits, about fits, or thrashes.
    let span = match seed % 4 {
        0 => capacity / 2 + 1,
        1 => capacity + capacity / 4,
        2 => capacity * 3,
        _ => capacity * 12,
    };
    let mut stream = Stream::new(seed, span);
    let mut next_resize = 1 + rng.below(20_000);
    for i in 0..accesses {
        let at = At {
            geometry,
            seed,
            access: i,
        };
        if i == next_resize {
            let sets = if sizes.is_empty() {
                1 + rng.below(geometry.sets as u64) as usize
            } else {
                sizes[rng.below(sizes.len() as u64) as usize]
            };
            live.resize_sets(sets);
            oracle.resize_sets(sets);
            match rng.below(32) {
                0 => {
                    live.invalidate_all();
                    oracle.invalidate_all();
                }
                1 => {
                    live.reset_counters();
                    oracle.reset_counters();
                }
                _ => {}
            }
            assert_same_state(&live, &oracle, &at);
            next_resize += 1 + rng.below(20_000);
        }
        let addr = LineAddr::new(stream.next_line());
        assert_eq!(live.access(addr), oracle.access(addr), "{at}: outcome");
        if i % 4096 == 0 {
            assert_same_state(&live, &oracle, &at);
            for _ in 0..16 {
                let probe = LineAddr::new(stream.next_line());
                assert_eq!(live.probe(probe), oracle.probe(probe), "{at}: probe");
            }
        }
    }
    let end = At {
        geometry,
        seed,
        access: accesses,
    };
    assert_same_state(&live, &oracle, &end);
    accesses
}

#[test]
fn cache_matches_reference_on_every_geometry() {
    let llc_sizes: Vec<usize> = PartitionSize::ALL.iter().map(|s| s.sets(16)).collect();
    // UMON candidate set counts at the default 1-in-8 sampling.
    let umon_sizes: Vec<usize> = llc_sizes.iter().map(|s| s / 8).collect();
    let g = |sets, ways| CacheGeometry { sets, ways };
    let mut total = 0;
    let mut seed = 1;
    let mut run = |geometry: CacheGeometry, sizes: &[usize], accesses: u64| {
        seed += 1;
        total += drive_cache(geometry, sizes, accesses, seed);
    };
    // Degenerate shapes: one set, one way, both.
    run(g(1, 1), &[], 200_000);
    run(g(1, 16), &[], 300_000);
    run(g(16, 1), &[], 300_000);
    run(g(5, 1), &[], 200_000);
    // The private L1 and small non-power-of-two shapes.
    run(g(64, 8), &[], 1_000_000);
    run(g(3, 2), &[], 200_000);
    run(g(7, 5), &[], 200_000);
    run(g(12, 3), &[], 200_000);
    // LLC partitions at their maximum geometry, resized across every
    // supported size (3072 and 6144 sets take the `%` fold path).
    for _ in 0..4 {
        run(g(PartitionSize::MB8.sets(16), 16), &llc_sizes, 700_000);
    }
    // Fixed non-power-of-two slices and UMON candidates (3 MB / 6 MB).
    for sets in [3072, 6144, 384, 768] {
        run(g(sets, 16), &[sets], 500_000);
        run(g(sets, 16), &[], 300_000);
    }
    // The 16 MB shared LLC and the UMON candidate geometries resized
    // among each other.
    run(g(16384, 16), &[], 600_000);
    run(g(PartitionSize::MB8.sets(16) / 8, 16), &umon_sizes, 600_000);
    // Random small geometries.
    let mut gen = TraceRng::new(0x0eac1e);
    for _ in 0..40 {
        let geometry = g(1 + gen.below(40) as usize, 1 + gen.below(9) as usize);
        run(geometry, &[], 50_000);
    }
    assert!(total >= 10_000_000, "only {total} accesses");
}

#[test]
fn sentinel_line_matches_reference() {
    // `u64::MAX` is the reference's invalid-way tag. Accessing it "hits"
    // an invalid way without filling, or on a full set evicts the LRU
    // line and leaves the way invalid; the live model must agree.
    for ways in [1, 2, 4] {
        let geometry = CacheGeometry { sets: 2, ways };
        let mut live = SetAssocCache::new(geometry);
        let mut oracle = reference::SetAssocCache::new(geometry);
        let mut rng = TraceRng::new(ways as u64);
        for i in 0..20_000 {
            let line = match rng.below(4) {
                0 => u64::MAX,
                1 => u64::MAX - 1,
                _ => rng.below(12),
            };
            let addr = LineAddr::new(line);
            assert_eq!(live.access(addr), oracle.access(addr), "ways {ways} i {i}");
            let at = At {
                geometry,
                seed: ways as u64,
                access: i,
            };
            assert_same_state(&live, &oracle, &at);
            for probe in [u64::MAX, u64::MAX - 1, rng.below(12)] {
                let probe = LineAddr::new(probe);
                assert_eq!(live.probe(probe), oracle.probe(probe));
            }
        }
    }
}

fn drive_umon(machine: &MachineConfig, span_bytes: u64, observes: u64, seed: u64) -> u64 {
    let mut live = UtilityMonitor::new(machine);
    let mut oracle = reference::UtilityMonitor::new(machine);
    let mut stream = Stream::new(seed, span_bytes / 64);
    let mut rng = TraceRng::new(seed ^ 0x3e5e7);
    for i in 0..observes {
        if rng.below(200_000) == 0 {
            live.reset();
            oracle.reset();
        }
        let addr = LineAddr::new(stream.next_line());
        live.observe(addr);
        oracle.observe(addr);
        assert_eq!(
            live.hit_curve(),
            oracle.hit_curve(),
            "seed {seed} observe {i}"
        );
        assert_eq!(
            live.window_fill(),
            oracle.window_fill(),
            "seed {seed} observe {i}"
        );
    }
    observes
}

#[test]
fn utility_monitor_matches_reference() {
    let base = MachineConfig {
        umon_window: 1000,
        ..MachineConfig::default()
    };
    let mut total = 0;
    let mut seed = 100;
    for (machine, span, observes) in [
        (base.clone(), 1u64 << 20, 400_000),
        (base.clone(), 6 << 20, 600_000),
        (base.clone(), 40 << 20, 400_000),
        (
            MachineConfig {
                umon_window: 1,
                ..base.clone()
            },
            4 << 20,
            100_000,
        ),
        (
            MachineConfig {
                umon_sample_ratio: 1,
                umon_window: 5000,
                ..base.clone()
            },
            3 << 20,
            300_000,
        ),
        (
            MachineConfig {
                umon_sample_ratio: 16,
                ..base.clone()
            },
            8 << 20,
            300_000,
        ),
        (
            MachineConfig {
                llc_ways: 4,
                umon_sample_ratio: 32,
                ..base.clone()
            },
            2 << 20,
            200_000,
        ),
        // 89 ways: candidate set counts are multiples of 23, the one
        // sample ratio here that takes the divide path.
        (
            MachineConfig {
                llc_ways: 89,
                umon_sample_ratio: 23,
                ..base.clone()
            },
            2 << 20,
            100_000,
        ),
    ] {
        seed += 1;
        total += drive_umon(&machine, span, observes, seed);
    }
    assert!(total >= 2_000_000, "only {total} observes");
}

#[test]
fn tlb_monitor_matches_reference() {
    assert_eq!(PAGE_BYTES, reference::PAGE_BYTES);
    for (window, pages, seed) in [(1, 64, 1), (100, 300, 2), (4096, 48, 3), (4096, 900, 4)] {
        let mut live = TlbUtilityMonitor::new(window);
        let mut oracle = reference::TlbUtilityMonitor::new(window);
        let mut stream = Stream::new(seed, pages * (PAGE_BYTES / 64));
        for i in 0..200_000 {
            let addr = LineAddr::new(stream.next_line());
            live.observe(addr);
            oracle.observe(addr);
            assert_eq!(live.hit_curve(), oracle.hit_curve(), "window {window} {i}");
            assert_eq!(
                live.window_fill(),
                oracle.window_fill(),
                "window {window} {i}"
            );
        }
    }
}
