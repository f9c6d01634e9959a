//! A fixed reference workload that calls nothing in the repository, run
//! between the timed passes to gauge how fast the host is at that
//! moment.
//!
//! On a shared host the program slows down for seconds to minutes at a
//! time while neighbours contend for the cores and caches; a 30 s run
//! can fall wholly inside such a phase, and no statistic over its passes
//! removes that. The reference slows down in the same phases, so a
//! pass's throughput times the reference's time beside it stays put,
//! and so does a set-up's time divided by it.
//! Its five kernels cover the kinds of work the program does: hash-map
//! inserts and lookups with small allocations, random updates to a table
//! larger than the caches' inner levels, independent arithmetic with
//! short branches, a sort, and a dependent arithmetic chain.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference's host seconds on a quiet 2-core host (Intel Xeon,
/// 2.1 GHz), its median there between neighbours' busy phases.
/// `setup_s` is reported as set-up time on a host this fast: each
/// set-up's seconds × `NOMINAL_S` ÷ the reference's time before it.
pub const NOMINAL_S: f64 = 0.06;

/// Table of the random-update kernel: 4 MiB of `u64`s.
const TABLE_LEN: usize = 1 << 19;
/// Elements the sort kernel sorts.
const SORT_LEN: usize = 200_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The reference workload's inputs, built once so that a run times the
/// kernels alone.
pub struct Reference {
    table: Vec<u64>,
    unsorted: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 5;
        let unsorted = (0..SORT_LEN)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Reference {
            table: vec![0; TABLE_LEN],
            unsorted,
        }
    }

    /// Runs the five kernels once; returns their host seconds.
    pub fn run(&mut self) -> f64 {
        let clock = Instant::now();
        black_box(hash_map());
        black_box(table_updates(&mut self.table));
        black_box(independent_arithmetic());
        let mut sorted = self.unsorted.clone();
        sorted.sort_unstable();
        black_box(sorted);
        black_box(dependent_chain());
        clock.elapsed().as_secs_f64()
    }
}

fn hash_map() -> u64 {
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for i in 0..1u64 << 17 {
        x = xorshift(x);
        map.entry(x % (1 << 16)).or_insert_with(|| vec![i; 4])[0] ^= x;
        if let Some(v) = map.get(&(xorshift(x) % (1 << 16))) {
            acc = acc.wrapping_add(v[0]);
        }
    }
    acc
}

fn table_updates(table: &mut [u64]) -> u64 {
    let mut x = 3u64;
    for _ in 0..1u64 << 21 {
        x = xorshift(x);
        let i = (x % table.len() as u64) as usize;
        table[i] = table[i].wrapping_add(x);
    }
    table[(x % table.len() as u64) as usize]
}

fn independent_arithmetic() -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let mut small = [0u64; 512];
    for i in 0..1u64 << 22 {
        a = xorshift(a);
        b = xorshift(b);
        c = c.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(d);
        d ^= a >> 3;
        small[(b & 511) as usize] ^= c;
        if a & 1 == 0 {
            d = d.wrapping_add(i);
        }
    }
    small.iter().fold(a ^ b ^ c ^ d, |h, v| h ^ v)
}

fn dependent_chain() -> u64 {
    let (mut x, mut acc) = (1u64, 0u64);
    for _ in 0..1u64 << 22 {
        x = xorshift(x);
        acc = acc
            .wrapping_add(x.rotate_left(7) ^ (x >> 3))
            .wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    acc
}
