//! Set-associative, tag-only cache model with true-LRU replacement.
//!
//! One model serves every cache in the system: private L1s, per-domain
//! LLC partitions, the shared LLC of the insecure baseline, and the
//! UMON monitor's candidate caches (§7's hardware table that "only
//! contains tags but not data").

use crate::config::CacheGeometry;
use untangle_trace::LineAddr;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting
    /// another line).
    Miss,
}

impl AccessOutcome {
    /// Whether this outcome is a hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Tag of an invalid way. Line index `u64::MAX` is therefore never
/// cached (see [`SetAssocCache::access`]).
const INVALID: u64 = u64::MAX;

/// Remainder and quotient by a fixed divisor: a mask and a shift when
/// the divisor is a power of two, hardware division otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    divisor: u64,
    /// `log2(divisor)` when the divisor is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub(crate) fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "zero divisor");
        Self {
            divisor,
            shift: divisor.is_power_of_two().then(|| divisor.trailing_zeros()),
        }
    }

    /// `x % divisor`.
    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.divisor - 1),
            None => x % self.divisor,
        }
    }

    /// `x / divisor`.
    #[inline]
    pub(crate) fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(shift) => x >> shift,
            None => x / self.divisor,
        }
    }
}

/// A set-associative cache holding line tags with LRU replacement.
///
/// Addresses are mapped to a *home set* `h = line_index % geometry.sets`.
/// When the cache is resized to use only its first `k` sets (set
/// partitioning), lines whose home set survives (`h < k`) keep their
/// mapping, and the rest fold into `h % k`. This makes resizes behave
/// like real set repartitioning: growing exposes cold sets and
/// shrinking surrenders sets, but the content of retained sets is
/// never displaced by remapping.
///
/// Each set is a contiguous run of `ways` tags kept in recency order:
/// the most recently used line first, the LRU line last, and invalid
/// ways forming a suffix. Fills go to the front and only whole sets are
/// ever invalidated, so the suffix property holds; the last slot is
/// always the victim (an invalid way if there is one, else the LRU
/// line).
///
/// # Example
///
/// ```
/// use untangle_sim::cache::SetAssocCache;
/// use untangle_sim::config::CacheGeometry;
/// use untangle_trace::LineAddr;
///
/// let mut c = SetAssocCache::new(CacheGeometry { sets: 2, ways: 2 });
/// assert!(!c.access(LineAddr::new(0)).is_hit()); // cold miss
/// assert!(c.access(LineAddr::new(0)).is_hit());  // now present
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Sets currently in use (≤ `geometry.sets`); supports set
    /// partitioning, where a domain's share of the LLC grows and
    /// shrinks at runtime.
    effective_sets: usize,
    /// Home-set mapping: `line % geometry.sets`.
    home: Divisor,
    /// Fold of a surrendered home set: `home % effective_sets`.
    fold: Divisor,
    /// `sets × ways` tags, one recency-ordered run per set.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero sets or zero ways.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.sets > 0 && geometry.ways > 0,
            "degenerate geometry"
        );
        Self {
            geometry,
            effective_sets: geometry.sets,
            home: Divisor::new(geometry.sets as u64),
            fold: Divisor::new(geometry.sets as u64),
            tags: vec![INVALID; geometry.sets * geometry.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry (maximum footprint).
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Sets currently in use.
    pub fn effective_sets(&self) -> usize {
        self.effective_sets
    }

    /// Resizes the cache to use only the first `sets` sets — the
    /// set-partitioning resize operation.
    ///
    /// Shrinking invalidates the lines in the sets being surrendered
    /// (in real hardware those sets are handed to another domain, which
    /// evicts their contents); growing exposes cold sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or exceeds the geometry's set count.
    pub fn resize_sets(&mut self, sets: usize) {
        assert!(
            sets > 0 && sets <= self.geometry.sets,
            "resize to {sets} sets outside 1..={}",
            self.geometry.sets
        );
        if sets < self.effective_sets {
            let ways = self.geometry.ways;
            self.tags[sets * ways..self.effective_sets * ways].fill(INVALID);
        }
        self.effective_sets = sets;
        self.fold = Divisor::new(sets as u64);
    }

    /// Home-set mapping with folding for surrendered sets (see type
    /// docs).
    #[inline]
    fn map_set(&self, line: u64) -> usize {
        let home = self.home.rem(line);
        if home < self.effective_sets as u64 {
            home as usize
        } else {
            self.fold.rem(home) as usize
        }
    }

    /// The recency-ordered tags of the set `line` maps to.
    #[inline]
    fn set_of(&mut self, line: u64) -> &mut [u64] {
        let ways = self.geometry.ways;
        let base = self.map_set(line) * ways;
        &mut self.tags[base..base + ways]
    }

    /// Accesses `addr`: on a hit refreshes LRU state, on a miss fills the
    /// line, evicting the least recently used way of the set.
    ///
    /// Line index `u64::MAX` is the invalid-way tag and is never cached:
    /// it hits when its set has an invalid way and otherwise misses,
    /// invalidating the set's LRU line.
    pub fn access(&mut self, addr: LineAddr) -> AccessOutcome {
        let line = addr.line_index();
        if line == INVALID {
            return self.access_invalid_tag();
        }
        let ways = self.geometry.ways;
        let set = self.set_of(line);
        let hit = match ways {
            8 => move_to_front::<8>(set.try_into().expect("8-way set"), line),
            16 => move_to_front::<16>(set.try_into().expect("16-way set"), line),
            _ => move_to_front_any(set, line),
        };
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        if hit {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss
        }
    }

    #[cold]
    fn access_invalid_tag(&mut self) -> AccessOutcome {
        let set = self.set_of(INVALID);
        let last = set.len() - 1;
        if set[last] == INVALID {
            self.hits += 1;
            AccessOutcome::Hit
        } else {
            set[last] = INVALID;
            self.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// Whether `addr` is currently present, without touching LRU state or
    /// counters.
    pub fn probe(&self, addr: LineAddr) -> bool {
        let line = addr.line_index();
        let base = self.map_set(line) * self.geometry.ways;
        self.tags[base..base + self.geometry.ways].contains(&line)
    }

    /// Invalidates every line (used when a model requires a cold
    /// restart; resizes do *not* flush — see `system`).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime access count.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Resets hit/miss counters without touching contents.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of valid lines currently cached.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != INVALID).count()
    }
}

/// Moves `line` to the front of a recency-ordered set; returns whether
/// it was present. Each way up to the hit (or, on a miss, every way)
/// takes its predecessor's tag, so a miss drops the last one.
///
/// Fixed-width form of [`move_to_front_any`] for the common
/// associativities: the compare and the shift have no data-dependent
/// branch, so the compiler can unroll and vectorize both.
#[inline(always)]
fn move_to_front<const N: usize>(set: &mut [u64; N], line: u64) -> bool {
    let mut matches = 0u32;
    for (i, &tag) in set.iter().enumerate() {
        matches |= u32::from(tag == line) << i;
    }
    let last = (matches.trailing_zeros() as usize).min(N - 1);
    let old = *set;
    for i in 1..N {
        set[i] = if i <= last { old[i - 1] } else { old[i] };
    }
    set[0] = line;
    matches != 0
}

/// [`move_to_front`] for any associativity.
fn move_to_front_any(set: &mut [u64], line: u64) -> bool {
    let mut carry = line;
    for tag in set {
        let seen = std::mem::replace(tag, carry);
        if seen == line {
            return true;
        }
        carry = seen;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry { sets, ways })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(4, 2);
        assert_eq!(c.access(LineAddr::new(5)), AccessOutcome::Miss);
        assert_eq!(c.access(LineAddr::new(5)), AccessOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Direct-mapped on a single set with 2 ways: lines 0, 4, 8 all
        // map to set 0 (4 sets).
        let mut c = cache(4, 2);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(4));
        c.access(LineAddr::new(0)); // refresh 0 → LRU is 4
        c.access(LineAddr::new(8)); // evicts 4
        assert!(c.probe(LineAddr::new(0)));
        assert!(!c.probe(LineAddr::new(4)));
        assert!(c.probe(LineAddr::new(8)));
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = cache(16, 4); // 64 lines capacity
        for round in 0..3 {
            for l in 0..64u64 {
                let out = c.access(LineAddr::new(l));
                if round > 0 {
                    assert!(out.is_hit(), "line {l} should hit in round {round}");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_under_lru_scan() {
        // Sequential scan of 2× capacity with LRU never hits.
        let mut c = cache(4, 2); // 8 lines
        let mut hits = 0;
        for _ in 0..4 {
            for l in 0..16u64 {
                if c.access(LineAddr::new(l)).is_hit() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = cache(1, 2);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(1));
        // Probing 0 must not make it MRU.
        assert!(c.probe(LineAddr::new(0)));
        c.access(LineAddr::new(2)); // evicts 0 (LRU), not 1
        assert!(!c.probe(LineAddr::new(0)));
        assert!(c.probe(LineAddr::new(1)));
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = cache(2, 2);
        c.access(LineAddr::new(1));
        c.access(LineAddr::new(2));
        assert_eq!(c.occupancy(), 2);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(LineAddr::new(1)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = cache(4, 1);
        for l in 0..4u64 {
            c.access(LineAddr::new(l));
        }
        for l in 0..4u64 {
            assert!(c.probe(LineAddr::new(l)));
        }
    }

    #[test]
    fn counters_reset() {
        let mut c = cache(2, 1);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(0));
        c.reset_counters();
        assert_eq!(c.accesses(), 0);
        // Contents survive.
        assert!(c.probe(LineAddr::new(0)));
    }

    #[test]
    #[should_panic(expected = "degenerate geometry")]
    fn rejects_zero_ways() {
        let _ = cache(4, 0);
    }

    #[test]
    fn shrink_invalidates_surrendered_sets() {
        let mut c = cache(4, 1);
        for l in 0..4u64 {
            c.access(LineAddr::new(l)); // line l in set l
        }
        c.resize_sets(2);
        // Lines 2 and 3 lived in surrendered sets and are gone; lines 0
        // and 1 survive (and still map to the same sets).
        assert!(c.probe(LineAddr::new(0)));
        assert!(c.probe(LineAddr::new(1)));
        assert_eq!(c.occupancy(), 2);
        // Line 2 now maps to set 0 and misses.
        assert!(!c.probe(LineAddr::new(2)));
    }

    #[test]
    fn grow_exposes_cold_sets() {
        let mut c = cache(4, 1);
        c.resize_sets(2);
        c.access(LineAddr::new(2)); // maps to set 0 while shrunk
        c.resize_sets(4);
        // After growth, line 2 maps to set 2, which is cold.
        assert!(!c.probe(LineAddr::new(2)));
        assert_eq!(c.access(LineAddr::new(2)), AccessOutcome::Miss);
        assert_eq!(c.access(LineAddr::new(2)), AccessOutcome::Hit);
    }

    #[test]
    fn smaller_effective_size_causes_more_conflicts() {
        let run = |sets: usize| {
            let mut c = cache(8, 2);
            c.resize_sets(sets);
            let mut hits = 0;
            for _ in 0..10 {
                for l in 0..12u64 {
                    if c.access(LineAddr::new(l)).is_hit() {
                        hits += 1;
                    }
                }
            }
            hits
        };
        assert!(run(8) > run(2));
    }

    #[test]
    fn resize_round_trip_keeps_retained_sets_warm() {
        // Lines whose home set survives a shrink/grow cycle never lose
        // their entries — resizes are not flushes.
        let mut c = cache(8, 1);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(1));
        c.resize_sets(2);
        c.resize_sets(8);
        assert!(c.probe(LineAddr::new(0)));
        assert!(c.probe(LineAddr::new(1)));
    }

    #[test]
    #[should_panic(expected = "resize to 0 sets")]
    fn rejects_zero_resize() {
        let mut c = cache(4, 1);
        c.resize_sets(0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_oversized_resize() {
        let mut c = cache(4, 1);
        c.resize_sets(5);
    }
}
