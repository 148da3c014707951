//! Host-speed calibration for the end-to-end timings.
//!
//! The hosts this benchmark runs on are shared. On a 2-core host a fixed
//! busy loop took anywhere from 190 to 390 ms, in phases lasting
//! minutes, and every timing of the program moved with it, so ten runs
//! of the same code disagreed by more than any useful bound. A run
//! therefore also times a fixed computation that shares no code with
//! the program, between operations, and scales its end-to-end timings
//! to a host on which that computation takes [`REFERENCE_MS`]. A change
//! to the program cannot move the reference; a slower or busier host
//! moves both. The unscaled figures are printed alongside.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What the reference computation is scaled to take, in ms: about its
/// median on the 2-core host the benchmark was defined on.
pub const REFERENCE_MS: f64 = 2.25;

/// Times one pass of the reference computation, in ms.
pub fn reference_ms() -> f64 {
    let started = Instant::now();
    black_box(reference_work(black_box(0x5EED)));
    started.elapsed().as_secs_f64() * 1e3
}

/// Hashing, allocation, 128-bit multiplication and sorting: the kinds
/// of work the workloads spend their time on, with fixed inputs and a
/// working set of about 100 KiB, so it adds nothing to the run's peak
/// memory.
fn reference_work(seed: u64) -> u64 {
    let mut x = seed;
    let mut acc = 1u64;
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4096);
    for _ in 0..10 {
        map.clear();
        for i in 0..4_000u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            map.insert(z >> 20, i);
            acc = ((u128::from(acc) * u128::from(z | 1)) % 0xFFFF_FFFF_FFFF_FFC5) as u64;
        }
        let mut keys: Vec<u64> = map.keys().copied().collect();
        keys.sort_unstable();
        acc ^= keys[keys.len() / 2];
    }
    acc
}
