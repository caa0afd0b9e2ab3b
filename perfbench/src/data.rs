//! Workload inputs made from the seed, and the digest that summarises
//! a round's simulated statistics.

use snacc_sim::bytes::pattern_byte;
use snacc_sim::Payload;

/// SplitMix64: spreads a seed into independent-looking values.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`pattern_byte`] repeats every 32 KiB of offset: its byte mixes bits
/// 0..15 of the offset only.
pub const PERIOD: usize = 1 << 15;
/// The longest window [`Pattern::window`] hands out.
pub const MAX_WINDOW: usize = 64 << 10;

/// The data written to the SSD: the byte at SSD address `a` is
/// `pattern_byte(seed, a)`. Every window is a slice of one shared
/// materialised buffer, so writes cost no allocation, the media retains
/// no private copies, and reading back compares against the same bytes.
pub struct Pattern {
    seed: u64,
    buf: Payload,
}

impl Pattern {
    pub fn new(seed: u64) -> Pattern {
        let buf: Vec<u8> = (0..(PERIOD + MAX_WINDOW) as u64)
            .map(|i| pattern_byte(0, i))
            .collect();
        Pattern {
            seed,
            buf: Payload::from_vec(buf),
        }
    }

    /// The `n <= MAX_WINDOW` bytes written at SSD address `addr`.
    pub fn window(&self, addr: u64, n: usize) -> Payload {
        assert!(n <= MAX_WINDOW, "window of {n} bytes");
        let start = (addr.wrapping_add(self.seed) % PERIOD as u64) as usize;
        // buf[i] = pattern_byte(0, i), and the pattern only depends on
        // (seed + offset) mod PERIOD.
        self.buf.slice(start..start + n)
    }

    /// Does `data`, read at SSD address `addr`, hold the pattern?
    pub fn matches(&self, addr: u64, data: &[u8]) -> bool {
        data.chunks(MAX_WINDOW).enumerate().all(|(i, c)| {
            self.window(addr + (i * MAX_WINDOW) as u64, c.len())
                .as_slice()
                == c
        })
    }
}

/// FNV-1a over a canonical sequence of values: the round's `sim_digest`.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_windows_equal_the_lazy_pattern() {
        let p = Pattern::new(0xdead_beef_1234);
        for addr in [0u64, 1, 4095, 32767, 32768, 1 << 30, (3 << 30) + 12345] {
            let lazy = Payload::pattern(addr.wrapping_add(0xdead_beef_1234), 5000);
            assert_eq!(p.window(addr, 5000).as_slice(), lazy.as_slice(), "{addr}");
        }
        let long: Vec<u8> = (0..200_000u64)
            .map(|i| pattern_byte(0xdead_beef_1234, 77 + i))
            .collect();
        assert!(p.matches(77, &long));
        assert!(!p.matches(78, &long));
    }
}
