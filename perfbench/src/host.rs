//! Host speed reference: a fixed kernel, independent of the program
//! under test, timed between measured passes.
//!
//! The benchmark runs on a shared virtual machine whose caches are
//! shared with other tenants. How much of them this process gets changes
//! from second to second and over minutes, and the program's hot data
//! (simulated tag arrays, UMON shadow tags, serve state) lives in them,
//! so the same `mix-sim` pass took 1.4 s in one minute and 1.95 s a
//! minute later, with CPU time equal to wall time. The reference kernel
//! probes two 16-way LRU tag arrays, 1 MiB and 4 MiB, with random lines:
//! it feels the same contention and little else. Its code is this
//! file's, so no change to the program moves it.
//!
//! The host-adjusted metrics scale a pass's time by [`NOMINAL_S`] over
//! the reference time measured around that pass: they read as the pass
//! would on a host where the kernel takes `NOMINAL_S`. On a 2-vCPU Xeon
//! virtual machine, the spread (IQR over median) of 18-pass `mix-sim`
//! medians fell from 0.093 raw to 0.026 adjusted, and that of 250-pass
//! `serve-mem` medians from 0.102 to 0.052. The 4 MiB array alone
//! tracked `mix-sim` about as well (0.030) but `serve-mem` worse (0.077).

use std::time::Instant;

/// Ways per set of the reference tag arrays.
const WAYS: usize = 16;
/// Sets of the two reference tag arrays, at 16 ways x 16 B a way: 1 MiB,
/// which fits the host's 2 MiB L2 and feels a sibling thread's share of
/// it, and 4 MiB, which lives in the shared L3.
const SETS: [usize; 2] = [4 * 1024, 16 * 1024];
/// Probes of each array per timing.
const PROBES: usize = 600_000;
/// The reference time the adjusted metrics are scaled to: about what one
/// timing takes on the machine the committed figures come from.
pub const NOMINAL_S: f64 = 0.05;

#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    last_used: u64,
}

/// One LRU tag array.
struct TagArray {
    sets: usize,
    ways: Vec<Way>,
    clock: u64,
    hits: u64,
}

impl TagArray {
    fn new(sets: usize) -> Self {
        Self {
            sets,
            ways: vec![
                Way {
                    tag: u64::MAX,
                    last_used: 0
                };
                sets * WAYS
            ],
            clock: 0,
            hits: 0,
        }
    }

    fn probe(&mut self, line: u64) {
        self.clock += 1;
        let base = (line as usize % self.sets) * WAYS;
        let set = &mut self.ways[base..base + WAYS];
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (w, way) in set.iter_mut().enumerate() {
            if way.tag == line {
                way.last_used = self.clock;
                self.hits += 1;
                return;
            }
            if way.last_used < oldest {
                (victim, oldest) = (w, way.last_used);
            }
        }
        set[victim] = Way {
            tag: line,
            last_used: self.clock,
        };
    }
}

/// The reference tag arrays and their probe stream.
pub struct Reference {
    arrays: Vec<TagArray>,
    rng: u64,
}

impl Reference {
    /// A warm reference: the arrays are filled and timed once.
    pub fn new() -> Self {
        let mut reference = Self {
            arrays: SETS.iter().map(|&sets| TagArray::new(sets)).collect(),
            rng: 0x9e37_79b9_7f4a_7c15,
        };
        reference.time();
        reference
    }

    /// Seconds one fixed batch of probes takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        for array in &mut self.arrays {
            // Twice the array's capacity: about half the probes miss.
            let lines = 2 * (array.sets * WAYS) as u64;
            for _ in 0..PROBES {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                array.probe(self.rng % lines);
            }
            std::hint::black_box(array.hits);
        }
        t.elapsed().as_secs_f64()
    }
}
