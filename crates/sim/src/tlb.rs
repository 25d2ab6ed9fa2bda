//! TLB partitioning support (§6.3, "Partitioning Other Hardware
//! Resources").
//!
//! The paper notes that Untangle's LLC utilization metric "trivially
//! extends to the TLB": the resource is the shared second-level TLB,
//! the partition unit is a group of TLB sets, and the
//! timing-independent metric is the number of TLB hits each candidate
//! partition size would have produced over the last `M_w` retired
//! public memory instructions. This module provides that substrate —
//! a page-granular twin of the LLC machinery — so the framework's
//! schedules, heuristics, and rate tables apply unchanged.

use crate::cache::SetAssocCache;
use crate::config::CacheGeometry;
use crate::umon::HitWindow;
use untangle_trace::LineAddr;

/// Bytes per page (4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// A virtual page number.
///
/// ```
/// use untangle_sim::tlb::PageNumber;
/// use untangle_trace::LineAddr;
///
/// let p = PageNumber::from_line(LineAddr::from_byte_addr(0x2345));
/// assert_eq!(p.value(), 0x2345 / 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageNumber(u64);

impl PageNumber {
    /// Page containing the given cache line.
    pub const fn from_line(line: LineAddr) -> Self {
        Self(line.byte_addr() / PAGE_BYTES)
    }

    /// The raw page number.
    pub const fn value(&self) -> u64 {
        self.0
    }
}

/// The supported TLB partition sizes, in entries. Mirrors the paper's
/// pre-defined LLC size list (Table 3) at TLB granularity: a shared
/// 1536-entry L2 TLB split into per-domain slices.
pub const TLB_SIZES: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// Associativity of the modeled L2 TLB.
pub const TLB_WAYS: usize = 8;

/// A set-associative TLB slice for one domain.
///
/// Thin wrapper over the tag-only cache, indexed by page number, with
/// runtime resizing over [`TLB_SIZES`].
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: SetAssocCache,
    entries: usize,
}

impl Tlb {
    /// Creates a TLB with the largest supported capacity, resized down
    /// to `entries`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not one of [`TLB_SIZES`].
    pub fn new(entries: usize) -> Self {
        let max = *TLB_SIZES.last().expect("nonempty size list");
        let inner = SetAssocCache::new(CacheGeometry {
            sets: max / TLB_WAYS,
            ways: TLB_WAYS,
        });
        let mut tlb = Self {
            inner,
            entries: max,
        };
        // Reuse the resize path for size validation.
        tlb.resize(entries);
        tlb
    }

    /// Current capacity in entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Resizes the TLB slice.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not one of [`TLB_SIZES`].
    pub fn resize(&mut self, entries: usize) {
        assert!(
            TLB_SIZES.contains(&entries),
            "unsupported TLB partition size {entries}"
        );
        self.inner.resize_sets(entries / TLB_WAYS);
        self.entries = entries;
    }

    /// Translates the page of `line`; returns `true` on a TLB hit.
    pub fn translate(&mut self, line: LineAddr) -> bool {
        self.inner
            .access(LineAddr::new(PageNumber::from_line(line).value()))
            .is_hit()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }
}

/// Per-size TLB hit counts over the monitor window.
pub type TlbHitCurve = [u64; TLB_SIZES.len()];

/// The TLB twin of the LLC utility monitor: tag-only candidate TLBs
/// for every supported size over a sliding window of retired public
/// memory accesses (fed in program order — timing-independent by
/// construction, Principle 1).
#[derive(Debug, Clone)]
pub struct TlbUtilityMonitor {
    candidates: Vec<SetAssocCache>,
    window: HitWindow<{ TLB_SIZES.len() }>,
}

impl TlbUtilityMonitor {
    /// Creates a monitor with the given window (in observed accesses).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        Self {
            window: HitWindow::new(window),
            candidates: TLB_SIZES
                .iter()
                .map(|&entries| {
                    SetAssocCache::new(CacheGeometry {
                        sets: entries / TLB_WAYS,
                        ways: TLB_WAYS,
                    })
                })
                .collect(),
        }
    }

    /// Observes one retired public memory access.
    pub fn observe(&mut self, line: LineAddr) {
        let page = LineAddr::new(PageNumber::from_line(line).value());
        let mut mask: u16 = 0;
        for (i, cand) in self.candidates.iter_mut().enumerate() {
            mask |= u16::from(cand.access(page).is_hit()) << i;
        }
        self.window.push(mask);
    }

    /// Hits each candidate TLB size would have scored in the window.
    pub fn hit_curve(&self) -> TlbHitCurve {
        self.window.counts()
    }

    /// Observed accesses currently in the window.
    pub fn window_fill(&self) -> usize {
        self.window.len()
    }

    /// The smallest supported size whose hits are within `slack` of the
    /// best — the §5.2 "adequate size" rule at TLB granularity.
    pub fn adequate_entries(&self, slack: u64) -> usize {
        let counts = self.window.counts();
        let best = *counts.iter().max().expect("nonempty curve");
        let threshold = best.saturating_sub(slack);
        for (i, &size) in TLB_SIZES.iter().enumerate() {
            if counts[i] >= threshold {
                return size;
            }
        }
        *TLB_SIZES.last().expect("nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of_page(p: u64) -> LineAddr {
        LineAddr::from_byte_addr(p * PAGE_BYTES)
    }

    #[test]
    fn page_number_strips_offset() {
        let p = PageNumber::from_line(LineAddr::from_byte_addr(PAGE_BYTES * 5 + 123));
        assert_eq!(p.value(), 5);
    }

    #[test]
    fn tlb_hits_after_fill() {
        let mut tlb = Tlb::new(64);
        assert!(!tlb.translate(line_of_page(3)));
        assert!(tlb.translate(line_of_page(3)));
        // Same page, different line: still a hit.
        assert!(tlb.translate(LineAddr::from_byte_addr(3 * PAGE_BYTES + 64)));
        assert_eq!(tlb.hits(), 2);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn small_tlb_thrashes_on_big_page_set() {
        let run = |entries: usize| {
            let mut tlb = Tlb::new(entries);
            let mut hits = 0;
            for _ in 0..4 {
                for p in 0..256u64 {
                    if tlb.translate(line_of_page(p)) {
                        hits += 1;
                    }
                }
            }
            hits
        };
        assert!(run(512) > run(16), "more entries must help a 256-page set");
    }

    #[test]
    fn resize_changes_capacity() {
        let mut tlb = Tlb::new(512);
        tlb.resize(16);
        assert_eq!(tlb.entries(), 16);
        tlb.resize(512);
        assert_eq!(tlb.entries(), 512);
    }

    #[test]
    #[should_panic(expected = "unsupported TLB partition size")]
    fn rejects_unsupported_size() {
        let _ = Tlb::new(100);
    }

    #[test]
    fn monitor_curve_increases_with_size() {
        let mut mon = TlbUtilityMonitor::new(4096);
        for _ in 0..6 {
            for p in 0..200u64 {
                mon.observe(line_of_page(p));
            }
        }
        let curve = mon.hit_curve();
        assert!(
            curve[TLB_SIZES.len() - 1] > curve[0],
            "512 entries must beat 16 on a 200-page footprint: {curve:?}"
        );
    }

    #[test]
    fn monitor_adequate_size_tracks_footprint() {
        let mut small = TlbUtilityMonitor::new(4096);
        let mut large = TlbUtilityMonitor::new(4096);
        for _ in 0..6 {
            for p in 0..24u64 {
                small.observe(line_of_page(p));
            }
            for p in 0..400u64 {
                large.observe(line_of_page(p));
            }
        }
        assert!(small.adequate_entries(8) <= 64);
        assert!(large.adequate_entries(8) >= 256);
    }

    #[test]
    fn monitor_window_slides() {
        let mut mon = TlbUtilityMonitor::new(100);
        for p in 0..500u64 {
            mon.observe(line_of_page(p));
        }
        assert_eq!(mon.window_fill(), 100);
    }
}
