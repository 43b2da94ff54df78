//! A fixed reference load that tells how fast the host runs right now.
//!
//! On the shared 2-core container this benchmark was written on, the host's
//! speed drifted by 20–40% over minutes: the same work with the same seed
//! took 16 s in one run and 26 s half an hour later. So every run also times
//! this loop — code of the benchmark, not of the program under test, so no
//! change to the program moves it — about every [`INTERVAL_S`] of measured
//! work, between runs, and its times are scaled by nominal ÷ measured
//! reference time. The loop chases dependent loads through a table larger
//! than the private caches, branches on what it reads, and searches a
//! 1,024-entry slice the way a scheduler scans its enabled machines; it
//! allocates nothing, so the heap the workload leaves behind does not change
//! its cost.

use std::time::Instant;

/// Seconds between reference samples.
pub const INTERVAL_S: f64 = 0.1;

/// Seconds one [`reference_load`] call takes on the reference host: the
/// median of 200 calls on a quiet 2-core x86-64 container.
pub const NOMINAL_S: f64 = 0.0024;

/// Words in the reference table (256 KiB: larger than a core's L1 and L2
/// share, like the engine's working set).
const TABLE_WORDS: usize = 32 * 1024;

/// One fixed amount of reference work over `table`, which the caller
/// allocates once so the loop never allocates; returns a value that depends
/// on all of it.
pub fn reference_load(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut state: u64 = 0x5EED;
    let mut acc = 0u64;
    let mut cursor = 0usize;
    for round in 0..80_000u64 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // A dependent load (latency-bound), then a data-dependent branch.
        cursor = (table[cursor] ^ z) as usize & mask;
        let word = table[cursor];
        if word & 1 == z & 1 {
            table[cursor] = word.wrapping_add(z);
        } else {
            acc ^= word.rotate_left((z & 63) as u32);
        }
        // Every 32nd round, a linear search through a 1,024-entry slice,
        // the pattern of a scheduler's pass over its enabled machines.
        if round % 32 == 0 {
            let needle = z & 0x3FF;
            let ids = &table[..1024];
            acc += ids
                .iter()
                .position(|&id| id & 0x3FF == needle)
                .unwrap_or(1024) as u64;
        }
    }
    acc
}

/// Samples the reference load while a pass runs.
pub struct Speedometer {
    calls: u32,
    seconds: f64,
    last: Option<Instant>,
    table: Vec<u64>,
}

impl Speedometer {
    /// A speedometer with no samples yet; allocates and touches its table.
    pub fn new() -> Self {
        Speedometer {
            calls: 0,
            seconds: 0.0,
            last: None,
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
                .collect(),
        }
    }

    /// Times one reference call when none was taken in the last
    /// [`INTERVAL_S`] (or ever).
    pub fn sample(&mut self) {
        if self
            .last
            .is_some_and(|last| last.elapsed().as_secs_f64() < INTERVAL_S)
        {
            return;
        }
        self.sample_now();
    }

    /// Times one reference call.
    pub fn sample_now(&mut self) {
        let start = Instant::now();
        std::hint::black_box(reference_load(&mut self.table));
        self.seconds += start.elapsed().as_secs_f64();
        self.calls += 1;
        self.last = Some(Instant::now());
    }

    /// Nominal ÷ measured mean reference time: above 1 when the host runs
    /// faster than the reference host. Multiply times by it, divide rates
    /// by it.
    pub fn factor(&self) -> f64 {
        assert!(self.calls > 0, "no reference sample taken");
        NOMINAL_S / (self.seconds / f64::from(self.calls))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_load_is_fixed_work() {
        let mut a = Speedometer::new();
        let mut b = Speedometer::new();
        assert_eq!(reference_load(&mut a.table), reference_load(&mut b.table));
        a.sample();
        a.sample();
        assert!(a.factor() > 0.0 && a.factor().is_finite());
    }
}
