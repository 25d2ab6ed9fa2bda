//! UMON-style LLC utility monitoring (§7) and the partition chooser.
//!
//! For each domain, at runtime, the monitor *simulates* memory accesses
//! under every supported partition size and counts the LLC hits each
//! size would have produced over the last `M_w` retired public memory
//! instructions. During a resizing assessment, the chooser picks per-
//! domain sizes that maximize global hits (like UMON's lookahead).
//!
//! Timing-independence (Principle 1, §5.2) is built in:
//!
//! * the monitor is fed retired memory accesses in program order;
//! * accesses annotated as secret-dependent are excluded *by the
//!   caller* (the scheme) before they reach the monitor;
//! * the private-cache filter is a deterministic tag-only cache fed in
//!   the same program order, so its filtering decisions depend only on
//!   the architectural access sequence — never on cycle timing.

use crate::cache::{Divisor, SetAssocCache};
use crate::config::{CacheGeometry, MachineConfig, PartitionSize};
use std::collections::VecDeque;
use untangle_trace::LineAddr;

/// Per-size LLC hit counts over the monitor window.
pub type HitCurve = [u64; PartitionSize::COUNT];

/// The per-domain utility monitor: tag-only candidate caches for all
/// nine partition sizes, set-sampled, over a sliding window.
///
/// # Example
///
/// ```
/// use untangle_sim::umon::UtilityMonitor;
/// use untangle_sim::config::MachineConfig;
/// use untangle_trace::LineAddr;
///
/// let mut mon = UtilityMonitor::new(&MachineConfig::default());
/// for round in 0..4 {
///     let _ = round;
///     for line in 0..60_000u64 {
///         mon.observe(LineAddr::new(line * 7)); // ~3.3 MB footprint
///     }
/// }
/// let curve = mon.hit_curve();
/// // Bigger partitions capture more of the footprint.
/// assert!(curve[8] >= curve[0]);
/// ```
#[derive(Debug, Clone)]
pub struct UtilityMonitor {
    /// Only lines `≡ 0 (mod umon_sample_ratio)` are sampled.
    sample: Divisor,
    /// Tag-only private-cache filter (L1-sized), fed in program order.
    filter: SetAssocCache,
    /// One scaled candidate cache per supported partition size.
    candidates: Vec<SetAssocCache>,
    /// Which candidates hit, per sampled access, over the window.
    window: HitWindow<{ PartitionSize::COUNT }>,
}

impl UtilityMonitor {
    /// Builds a monitor for the machine's LLC and sampling parameters.
    ///
    /// # Panics
    ///
    /// Panics if the sample ratio does not divide every candidate's set
    /// count, or if the window is zero.
    pub fn new(machine: &MachineConfig) -> Self {
        let window = HitWindow::new(machine.umon_window);
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
            sample: Divisor::new(r as u64),
            filter: SetAssocCache::new(machine.l1_geometry()),
            candidates,
            window,
        }
    }

    /// Observes one retired public memory access (program order).
    ///
    /// Accesses that hit the private-cache filter or fall outside the
    /// sampled sets are discarded, exactly like the hardware table of §7.
    pub fn observe(&mut self, addr: LineAddr) {
        // Private-cache filter: only L1 misses reach the LLC monitor.
        if self.filter.access(addr).is_hit() {
            return;
        }
        let line = addr.line_index();
        if self.sample.rem(line) != 0 {
            return;
        }
        // Sampled sets {0, r, 2r, …} of the full cache map bijectively to
        // the scaled cache addressed by line / r (see module docs).
        let scaled = LineAddr::new(self.sample.div(line));
        let mut mask: u16 = 0;
        for (i, cand) in self.candidates.iter_mut().enumerate() {
            mask |= u16::from(cand.access(scaled).is_hit()) << i;
        }
        self.window.push(mask);
    }

    /// Hits each candidate partition size would have scored within the
    /// window.
    pub fn hit_curve(&self) -> HitCurve {
        self.window.counts()
    }

    /// Number of sampled accesses currently in the window.
    pub fn window_fill(&self) -> usize {
        self.window.len()
    }

    /// Clears window state and candidate contents (cold monitor).
    pub fn reset(&mut self) {
        self.window.clear();
        for c in &mut self.candidates {
            c.invalidate_all();
        }
        self.filter.invalidate_all();
    }
}

/// Per-candidate hit counts over the last `window` observations: a ring
/// of hit masks (bit `i` set when candidate `i` hit) and the running
/// count of set bits per candidate. Shared by the LLC and TLB monitors.
#[derive(Debug, Clone)]
pub(crate) struct HitWindow<const N: usize> {
    /// Ring of the last `len` masks; the oldest sits at `next` once full.
    masks: Vec<u16>,
    /// Slot the next mask is written to.
    next: usize,
    len: usize,
    counts: [u64; N],
}

impl<const N: usize> HitWindow<N> {
    /// An empty window over the last `window` observations.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub(crate) fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            masks: vec![0; window],
            next: 0,
            len: 0,
            counts: [0; N],
        }
    }

    /// Records one observation's hit mask, retiring the oldest once the
    /// window is full.
    pub(crate) fn push(&mut self, mask: u16) {
        if self.len == self.masks.len() {
            let old = self.masks[self.next];
            for (i, count) in self.counts.iter_mut().enumerate() {
                *count -= u64::from(old >> i & 1);
            }
        } else {
            self.len += 1;
        }
        for (i, count) in self.counts.iter_mut().enumerate() {
            *count += u64::from(mask >> i & 1);
        }
        self.masks[self.next] = mask;
        self.next += 1;
        if self.next == self.masks.len() {
            self.next = 0;
        }
    }

    /// Hits per candidate within the window.
    pub(crate) fn counts(&self) -> [u64; N] {
        self.counts
    }

    /// Observations currently in the window.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Empties the window.
    pub(crate) fn clear(&mut self) {
        self.next = 0;
        self.len = 0;
        self.counts = [0; N];
    }
}

/// A timing-independent *footprint* metric (Principle 1's example):
/// the number of unique lines among the last `window` observed memory
/// accesses.
#[derive(Debug, Clone)]
pub struct FootprintMonitor {
    window: usize,
    history: VecDeque<LineAddr>,
    counts: std::collections::HashMap<LineAddr, u32>,
}

impl FootprintMonitor {
    /// Creates a monitor over the last `window` accesses.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            history: VecDeque::with_capacity(window + 1),
            counts: std::collections::HashMap::new(),
        }
    }

    /// Observes one retired public memory access.
    pub fn observe(&mut self, addr: LineAddr) {
        self.history.push_back(addr);
        *self.counts.entry(addr).or_insert(0) += 1;
        if self.history.len() > self.window {
            let old = self.history.pop_front().expect("nonempty");
            if let Some(c) = self.counts.get_mut(&old) {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&old);
                }
            }
        }
    }

    /// Unique lines in the window — the memory footprint in lines.
    pub fn footprint_lines(&self) -> usize {
        self.counts.len()
    }

    /// Footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.counts.len() as u64 * untangle_trace::instr::LINE_BYTES
    }

    /// Accesses currently in the window.
    pub fn window_fill(&self) -> usize {
        self.history.len()
    }
}

/// Picks per-domain partition sizes maximizing global hits subject to
/// the LLC capacity, with UMON-style lookahead (marginal-utility
/// greedy that can jump across plateaus).
///
/// Every domain is guaranteed at least the smallest size. Leftover
/// capacity that yields no additional hits stays unassigned, matching a
/// scheme that only grows partitions on demand.
///
/// # Panics
///
/// Panics if `llc_bytes` cannot give every domain the minimum size.
pub fn choose_partitions(curves: &[HitCurve], llc_bytes: u64) -> Vec<PartitionSize> {
    let n = curves.len();
    let min_bytes = PartitionSize::KB128.bytes() * n as u64;
    assert!(
        llc_bytes >= min_bytes,
        "LLC too small for {n} minimum partitions"
    );
    let mut sizes = vec![PartitionSize::KB128; n];
    let mut budget = llc_bytes - min_bytes;

    loop {
        // Best (domain, target) upgrade by marginal hits per byte.
        let mut best: Option<(usize, PartitionSize, f64)> = None;
        for (d, curve) in curves.iter().enumerate() {
            let cur = sizes[d];
            let cur_hits = curve[cur.index()];
            #[allow(clippy::needless_range_loop)] // `t` indexes two arrays
            for t in (cur.index() + 1)..PartitionSize::COUNT {
                let target = PartitionSize::ALL[t];
                let extra = target.bytes() - cur.bytes();
                if extra > budget {
                    break; // larger targets only cost more
                }
                let gain = curve[t].saturating_sub(cur_hits);
                if gain == 0 {
                    continue;
                }
                let density = gain as f64 / extra as f64;
                let better = match best {
                    None => true,
                    Some((bd, bt, bdens)) => {
                        // Deterministic tie-breaks: favour the domain with
                        // the smaller current partition (fairness on
                        // plateaus), then the smaller target, then the
                        // lower domain index.
                        density > bdens + 1e-12
                            || ((density - bdens).abs() <= 1e-12
                                && (sizes[d].index(), target.index(), d)
                                    < (sizes[bd].index(), bt.index(), bd))
                    }
                };
                if better {
                    best = Some((d, target, density));
                }
            }
        }
        match best {
            Some((d, target, _)) => {
                budget -= target.bytes() - sizes[d].bytes();
                sizes[d] = target;
            }
            None => break,
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig {
            umon_window: 1000,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn small_footprint_hits_under_every_size_after_warmup() {
        let mut mon = UtilityMonitor::new(&machine());
        // 64 kB footprint (1024 lines), repeatedly accessed.
        for _ in 0..30 {
            for l in 0..1024u64 {
                mon.observe(LineAddr::new(l));
            }
        }
        let curve = mon.hit_curve();
        // Once warm, every candidate size captures a 64 kB footprint...
        // except none: the L1 filter absorbs a 32 kB slice. 64 kB > 32 kB
        // L1, so some accesses do reach the monitor.
        assert!(curve[0] > 0, "smallest partition should capture 64 kB");
        for i in 1..PartitionSize::COUNT {
            assert!(
                curve[i] >= curve[0] / 2,
                "larger sizes should do at least comparably: {curve:?}"
            );
        }
    }

    #[test]
    fn hit_curve_increases_with_size_for_large_footprint() {
        let mut mon = UtilityMonitor::new(&machine());
        // ~4 MB footprint: only large partitions capture it.
        let lines = (4u64 << 20) / 64;
        for _ in 0..6 {
            for l in 0..lines {
                mon.observe(LineAddr::new(l * 3)); // stride to spread sets
            }
        }
        let curve = mon.hit_curve();
        assert!(
            curve[PartitionSize::MB8.index()] > curve[PartitionSize::KB128.index()],
            "8MB must beat 128kB on a 4MB footprint: {curve:?}"
        );
    }

    #[test]
    fn window_caps_history() {
        let mut mon = UtilityMonitor::new(&machine());
        for l in 0..100_000u64 {
            mon.observe(LineAddr::new(l * 8)); // all sampled, all L1 misses
        }
        assert!(mon.window_fill() <= 1000);
    }

    #[test]
    fn l1_filter_absorbs_tiny_footprints() {
        let mut mon = UtilityMonitor::new(&machine());
        // 4 kB footprint fits fully in the 32 kB filter after one pass.
        for _ in 0..50 {
            for l in 0..64u64 {
                mon.observe(LineAddr::new(l));
            }
        }
        // After warmup the filter hits every access, so the window stops
        // growing: only the cold pass leaked through.
        assert!(
            mon.window_fill() < 64,
            "filter should absorb the steady state: {}",
            mon.window_fill()
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut mon = UtilityMonitor::new(&machine());
        for l in 0..10_000u64 {
            mon.observe(LineAddr::new(l));
        }
        mon.reset();
        assert_eq!(mon.window_fill(), 0);
        assert_eq!(mon.hit_curve(), [0; PartitionSize::COUNT]);
    }

    #[test]
    fn footprint_monitor_counts_unique_lines() {
        let mut m = FootprintMonitor::new(100);
        for l in [1u64, 2, 3, 2, 1] {
            m.observe(LineAddr::new(l));
        }
        assert_eq!(m.footprint_lines(), 3);
        assert_eq!(m.footprint_bytes(), 3 * 64);
    }

    #[test]
    fn footprint_monitor_window_slides() {
        let mut m = FootprintMonitor::new(3);
        for l in [1u64, 2, 3, 4] {
            m.observe(LineAddr::new(l));
        }
        // Window holds {2,3,4}; line 1 expired.
        assert_eq!(m.footprint_lines(), 3);
        m.observe(LineAddr::new(4)); // window {3,4,4}
        assert_eq!(m.footprint_lines(), 2);
        m.observe(LineAddr::new(4)); // window {4,4,4}
        assert_eq!(m.footprint_lines(), 1);
    }

    #[test]
    fn chooser_gives_capacity_to_the_hungry_domain() {
        // Domain 0 gains hits with size; domain 1 is flat.
        let mut hungry: HitCurve = [0; 9];
        for (i, h) in hungry.iter_mut().enumerate() {
            *h = (i as u64 + 1) * 1000;
        }
        let flat: HitCurve = [500; 9];
        let sizes = choose_partitions(&[hungry, flat], 16 << 20);
        assert!(sizes[0] > sizes[1]);
        assert_eq!(sizes[1], PartitionSize::KB128);
    }

    #[test]
    fn chooser_respects_budget() {
        let mut hungry: HitCurve = [0; 9];
        for (i, h) in hungry.iter_mut().enumerate() {
            *h = (i as u64 + 1) * 1000;
        }
        let curves = vec![hungry; 8];
        let sizes = choose_partitions(&curves, 16 << 20);
        let total: u64 = sizes.iter().map(|s| s.bytes()).sum();
        assert!(total <= 16 << 20, "total {total} exceeds budget");
        // All domains identical ⇒ sizes should be near-equal (within one
        // step) by deterministic greedy.
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max.index() - min.index() <= 1, "{sizes:?}");
    }

    #[test]
    fn chooser_skips_plateaus_with_lookahead() {
        // Hits only improve at 4 MB: greedy single-step would stall at a
        // zero-gain 256 kB upgrade; lookahead must jump straight to 4 MB.
        let mut stepped: HitCurve = [100; 9];
        for h in stepped.iter_mut().skip(PartitionSize::MB4.index()) {
            *h = 50_000;
        }
        let sizes = choose_partitions(&[stepped], 16 << 20);
        assert_eq!(sizes[0], PartitionSize::MB4);
    }

    #[test]
    fn chooser_leaves_flat_curves_at_minimum() {
        let flat: HitCurve = [100; 9];
        let sizes = choose_partitions(&[flat, flat], 16 << 20);
        assert_eq!(sizes, vec![PartitionSize::KB128, PartitionSize::KB128]);
    }

    #[test]
    #[should_panic(expected = "LLC too small")]
    fn chooser_rejects_impossible_budget() {
        let flat: HitCurve = [0; 9];
        let _ = choose_partitions(&vec![flat; 8], 256 << 10);
    }
}
