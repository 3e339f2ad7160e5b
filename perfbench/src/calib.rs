//! Fixed reference work that measures how fast this machine runs right now.
//!
//! On a shared virtual machine the same code runs a fifth faster or slower
//! from one minute to the next, whatever the code does, because the host's
//! other tenants share the physical cores and caches. The benchmark times
//! this reference work right before and right after every timed pass, and
//! reports a pass's time as a multiple of it, which cancels most of that
//! drift. No code of the repository runs here, so a change to the stack
//! cannot move the reference.
//!
//! The work mixes the kinds of load the stack puts on a core, each taking
//! about a fifth of the time: dependent loads through a table far larger
//! than the core's caches (the circuit passes' graph walks), ordered-map
//! churn (the passes' and schedulers' bookkeeping), independent 64-bit
//! modular multiplies on data in the first-level cache and on data that
//! fills the second (NTT and BConv on small and large polynomials), and
//! allocating and freeing vectors of mixed sizes (ciphertext temporaries).
//! Timed pass by pass beside the three workloads, each kind alone tracked
//! the passes less closely than the mix. A loop of 128-bit divisions did not
//! track them at all: it held within a few per cent while the passes beside
//! it swung by a fifth.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Slots of the chased table: 16 MiB of `u32`, far beyond a core's caches.
const TABLE_SLOTS: usize = 1 << 22;
/// Dependent loads per reference run.
const CHASE_STEPS: u64 = 200_000;
/// Map insertions per reference run.
const MAP_KEYS: u64 = 100_000;
/// Passes of modular multiplies over the lanes per reference run.
const MULMOD_ROUNDS: u64 = 6_000;
/// Independent multiply lanes: 16 KiB, resident in the first-level cache.
const LANES: u64 = 2_048;
/// Passes of modular multiplies over the wide lanes per reference run.
const WIDE_ROUNDS: u64 = 60;
/// Wide multiply lanes: 1.5 MiB, resident in the second-level cache only.
const WIDE_LANES: u64 = 196_608;
/// Vectors allocated per reference run.
const ALLOCS: u64 = 150_000;
/// Vectors alive at once while allocating.
const LIVE: usize = 1_024;

/// A random single-cycle permutation of `len` slots (Sattolo's algorithm),
/// fixed by a constant seed, so the chase visits the same slots in the same
/// order on every run.
fn cycle(len: usize) -> Vec<u32> {
    let mut table: Vec<u32> = (0..len as u32).collect();
    let mut s: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..len).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        table.swap(i, (s % i as u64) as usize);
    }
    table
}

fn chase(table: &[u32], steps: u64) -> u32 {
    let mut at = 0u32;
    for _ in 0..steps {
        at = table[at as usize];
    }
    at
}

fn map_churn(keys: u64) -> usize {
    let mut map = BTreeMap::new();
    let mut k: u64 = 1;
    for i in 0..keys {
        k = k
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(k >> 40, vec![i; 4]);
        if i % 3 == 0 {
            map.pop_first();
        }
    }
    map.len()
}

/// Barrett reduction of `x * W mod Q` on every lane, `rounds` times.
fn mulmod_lanes(lanes: &mut [u64], rounds: u64) -> u64 {
    const Q: u64 = (1 << 50) - 27;
    const MU: u128 = (1u128 << 100) / Q as u128;
    const W: u64 = 0x1234_5678_9ab;
    for _ in 0..rounds {
        for x in lanes.iter_mut() {
            let p = *x as u128 * W as u128;
            // The estimated quotient is short by at most 2.
            let q = ((p >> 49) * MU) >> 51;
            let mut r = (p - q * Q as u128) as u64;
            if r >= Q {
                r -= Q;
            }
            if r >= Q {
                r -= Q;
            }
            *x = r;
        }
    }
    lanes.iter().fold(0, |a, &b| a ^ b)
}

/// Allocates `n` vectors of 8 to 512 words, freeing a random live one
/// whenever [`LIVE`] are alive.
fn alloc_churn(n: u64) -> usize {
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE);
    let mut k: u64 = 7;
    let mut freed = 0;
    for i in 0..n {
        k = k
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        live.push(vec![i; 8 + (k >> 58) as usize * 8]);
        if live.len() >= LIVE {
            let j = (k >> 33) as usize % live.len();
            freed += live.swap_remove(j).len();
        }
    }
    freed
}

/// The reference work's inputs, built once per run.
pub struct Reference {
    table: Vec<u32>,
    lanes: Vec<u64>,
    wide_lanes: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            table: cycle(TABLE_SLOTS),
            lanes: (1..=LANES).collect(),
            wide_lanes: (1..=WIDE_LANES).collect(),
        }
    }

    /// Runs the reference work once; returns its seconds (about 0.16 s).
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(chase(&self.table, black_box(CHASE_STEPS)));
        black_box(map_churn(black_box(MAP_KEYS)));
        black_box(mulmod_lanes(&mut self.lanes, black_box(MULMOD_ROUNDS)));
        black_box(mulmod_lanes(&mut self.wide_lanes, black_box(WIDE_ROUNDS)));
        black_box(alloc_churn(black_box(ALLOCS)));
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_through_every_slot() {
        let table = cycle(1 << 10);
        let mut at = 0u32;
        for step in 1..=table.len() {
            at = table[at as usize];
            assert_eq!(at == 0, step == table.len(), "back at 0 after {step} steps");
        }
    }

    #[test]
    fn barrett_lanes_match_plain_modular_multiplication() {
        const Q: u64 = (1 << 50) - 27;
        let mut lanes: Vec<u64> = vec![0, 1, 2, Q - 1, Q - 2, 0x3_ffff_ffff_ffff % Q];
        let expected: Vec<u64> = lanes
            .iter()
            .map(|&x| (x as u128 * 0x1234_5678_9ab_u128 % Q as u128) as u64)
            .collect();
        mulmod_lanes(&mut lanes, 1);
        assert_eq!(lanes, expected);
    }
}
