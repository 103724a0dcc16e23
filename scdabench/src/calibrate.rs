//! A fixed calibration kernel that measures how fast the host runs right
//! now.
//!
//! On a shared virtual machine the speed of a vCPU drifts with other
//! tenants' load, by up to 2× within tens of seconds. Every `run`
//! repetition times this kernel before its set-ups, between set-up and
//! replay, and after the replay; `run.py` divides each host time by the
//! kernel times around it. The kernel lives in the benchmark, not in the
//! program, so a change to the program never changes it.
//!
//! The kernel does the kind of work the simulator does: a hash map of
//! flow entries that churns (insert, update, remove), f64 updates at
//! random indices of a link array of a few hundred KiB, and short-lived
//! allocations. On a 2-vCPU VM its time tracked the simulator's run time
//! more closely than an L1-resident arithmetic loop or random loads over
//! an L2- or L3-sized array, both on a quiet host and with a second
//! process loading the other vCPU.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations per calibration; about 0.1 s on a 2-vCPU Xeon VM.
pub const CAL_ITERS: u64 = 3_000_000;

/// Distinct flow keys in the map.
const FLOWS: u64 = 20_000;

/// Entries of the link array (400 KB of f64).
const LINKS: u64 = 50_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Run the kernel once; returns its wall clock and a checksum that
/// depends on every iteration. The map hashes with fixed keys, so every
/// call does the same work.
pub fn calibrate() -> (Duration, u64) {
    let t = Instant::now();
    let mut flows: HashMap<u64, (f64, f64), BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    let mut links = vec![1.0f64; LINKS as usize];
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0f64);
    for k in 0..black_box(CAL_ITERS) {
        let e = flows.entry(xorshift(&mut x) % FLOWS).or_insert((0.0, 0.0));
        e.0 += 1.5;
        e.1 = e.0 * 0.3;
        let rate = e.1;
        let l = (xorshift(&mut x) % LINKS) as usize;
        links[l] = links[l] * 0.999 + rate * 1e-3;
        acc += links[l];
        if k % 7 == 0 {
            flows.remove(&(xorshift(&mut x) % FLOWS));
        }
        if k % 50 == 0 {
            let scratch: Vec<f64> = (0..64).map(|i| f64::from(i) * acc).collect();
            acc += scratch[(k % 64) as usize] * 1e-12;
        }
    }
    let elapsed = t.elapsed();
    (elapsed, black_box(acc.to_bits() ^ flows.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(calibrate().1, calibrate().1);
    }
}
