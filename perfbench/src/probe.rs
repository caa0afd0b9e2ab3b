//! Host-speed probe.
//!
//! The benchmark shares its machine, whose speed drifts by tens of
//! percent over minutes as other work comes and goes. Each round times a
//! fixed piece of the benchmark's own work — ordered-map inserts and
//! removals, small allocations, dependent loads over a large table, and
//! filling fresh pages and copying into them, the kinds of work the
//! simulator does — just before set-up and just after its checks. The
//! probe uses no simulator code, so a change to the simulator cannot
//! move it. Each round's host times are reported scaled by `NOMINAL_S`
//! over the round's probe time: the times the round would have taken on
//! a host where the probe takes [`NOMINAL_S`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time at the reference host speed (a 2-vCPU cloud VM when quiet).
pub const NOMINAL_S: f64 = 0.08;
/// Bytes the bandwidth part of the probe copies and compares.
const STREAM_BYTES: usize = 32 << 20;
/// Slots (4 bytes each) of the latency part's table, and loads made.
const CHASE_SLOTS: usize = 8 << 20;
const CHASE_LOADS: usize = 200_000;

/// Ordered-map churn with small boxed values: pointer chasing and
/// allocation, like the event queue and the models' state.
fn map_work() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    for i in 0..40_000u64 {
        let k = next() % 65_536;
        map.insert(k, Box::new([i, k, i ^ k, 0]));
        if i % 3 == 0 {
            let r = next() % 65_536;
            map.remove(&r);
        }
    }
    map.values().map(|v| v[0] ^ v[2]).sum()
}

/// Dependent loads at random over a table larger than the last-level
/// cache: memory latency, like walking the event queue, the component
/// graph and the media maps.
fn chase_work(next: &[u32]) -> u64 {
    let mut i = 0usize;
    for _ in 0..CHASE_LOADS {
        i = next[i] as usize;
    }
    i as u64
}

/// Copy and compare a buffer larger than the last-level cache: memory
/// bandwidth, like payload copies and read-back checks.
fn stream_work(src: &[u8], dst: &mut [u8]) -> u64 {
    dst.copy_from_slice(src);
    u64::from(src == &dst[..])
}

/// A table whose entries, followed from 0, visit every slot once in a
/// scrambled order: the full-period LCG `i -> 5 i + 1 (mod n)`, `n` a
/// power of two.
fn cycle(n: usize) -> Vec<u32> {
    (0..n).map(|i| ((5 * i + 1) % n) as u32).collect()
}

/// Time of the probe work, in seconds.
pub fn probe_s() -> f64 {
    let next = cycle(CHASE_SLOTS);
    let src: Vec<u8> = (0..STREAM_BYTES).map(|i| (i * 7) as u8).collect();
    let start = Instant::now();
    black_box(map_work());
    black_box(chase_work(black_box(&next)));
    // Fresh pages: the first touch of each faults, as the simulator's
    // growing stores do.
    let mut dst = vec![1u8; STREAM_BYTES];
    black_box(stream_work(black_box(&src), &mut dst));
    start.elapsed().as_secs_f64()
}
