//! Multi-SSD extension (paper Sec 7).
//!
//! "Our design can easily be extended to access multiple SSDs
//! concurrently ... establish separate submission and completion queues
//! for each SSD, either consolidating them into a single address space or
//! providing distinct stream interfaces." This module implements the
//! distinct-stream-interfaces flavour: one streamer instance per SSD plus
//! a striping layer that fans a single logical write stream out over the
//! instances, hiding each SSD's latency behind the others.

use crate::streamer::{encode_read_cmd, StreamerHandle};
use snacc_fpga::axis::{self, AxisChannel, StreamBeat};
use snacc_sim::{Engine, EngineError, Payload};
use std::cell::RefCell;
use std::rc::Rc;

/// A stripe-set over multiple streamers (one per SSD).
pub struct MultiSsd {
    streamers: Vec<StreamerHandle>,
    stripe_bytes: u64,
}

impl MultiSsd {
    /// Build a stripe-set. `stripe_bytes` is the per-SSD chunk (a multiple
    /// of 4 KiB keeps commands page-aligned).
    pub fn new(streamers: Vec<StreamerHandle>, stripe_bytes: u64) -> Self {
        assert!(!streamers.is_empty());
        assert!(stripe_bytes > 0 && stripe_bytes.is_multiple_of(4096));
        MultiSsd {
            streamers,
            stripe_bytes,
        }
    }

    /// Number of member SSDs.
    pub fn width(&self) -> usize {
        self.streamers.len()
    }

    /// Member streamer `i`.
    pub fn member(&self, i: usize) -> &StreamerHandle {
        &self.streamers[i]
    }

    /// Split a logical `(addr, len)` extent into per-member extents under
    /// round-robin striping. Returns `(member, member_addr, len)` pieces
    /// in logical order.
    pub fn stripe_extent(&self, addr: u64, len: u64) -> Vec<(usize, u64, u64)> {
        assert!(
            addr.is_multiple_of(self.stripe_bytes),
            "extent must be stripe-aligned"
        );
        let n = self.streamers.len() as u64;
        let mut out = Vec::new();
        let mut off = 0u64;
        while off < len {
            let stripe_idx = (addr + off) / self.stripe_bytes;
            let member = (stripe_idx % n) as usize;
            // Address within the member: contiguous packing of its stripes.
            let member_stripe = stripe_idx / n;
            let member_addr = member_stripe * self.stripe_bytes;
            let take = self.stripe_bytes.min(len - off);
            out.push((member, member_addr, take));
            off += take;
        }
        out
    }

    /// Fan a write of `data` at logical address `addr` across the members
    /// (one write transfer per stripe piece), respecting each member's
    /// stream backpressure by stepping the engine while a channel is full.
    /// Every beat is a zero-copy window of `data`. Returns
    /// [`EngineError::Drained`] if the queue runs dry while a channel is
    /// still full, or the engine's own error if stepping fails.
    pub fn write_striped(
        &self,
        en: &mut Engine,
        addr: u64,
        data: &Payload,
    ) -> Result<(), EngineError> {
        let mut logical_off = 0usize;
        for (member, member_addr, take_len) in self.stripe_extent(addr, data.len() as u64) {
            let ports = self.streamers[member].ports();
            let header = StreamBeat::mid(member_addr.to_le_bytes().to_vec());
            push_blocking(en, &ports.wr_in, header, "multi-SSD write header")?;
            let piece_end = logical_off + take_len as usize;
            let mut coff = logical_off;
            while coff < piece_end {
                let cend = (coff + (64 << 10)).min(piece_end);
                let beat = StreamBeat {
                    data: data.slice(coff..cend),
                    last: cend == piece_end,
                };
                push_blocking(en, &ports.wr_in, beat, "multi-SSD write data")?;
                coff = cend;
            }
            logical_off = piece_end;
        }
        Ok(())
    }

    /// Issue a striped read for `(addr, len)`; data arrives on each
    /// member's `rd_data` port in stripe order per member. Returns
    /// [`EngineError::Drained`] if a member's command channel is full
    /// (the reader does not step the engine).
    pub fn read_striped(&self, en: &mut Engine, addr: u64, len: u64) -> Result<(), EngineError> {
        for (member, member_addr, take) in self.stripe_extent(addr, len) {
            let ports = self.streamers[member].ports();
            if !axis::push(&ports.rd_cmd, en, encode_read_cmd(member_addr, take)) {
                return Err(EngineError::Drained {
                    now: en.now(),
                    waiting_on: "multi-SSD read command headroom",
                });
            }
        }
        Ok(())
    }
}

/// Push `beat` into `ch`, stepping the engine while the channel is full.
fn push_blocking(
    en: &mut Engine,
    ch: &Rc<RefCell<AxisChannel>>,
    beat: StreamBeat,
    waiting_on: &'static str,
) -> Result<(), EngineError> {
    while !axis::push(ch, en, beat.clone()) {
        if !en.try_step()? {
            return Err(EngineError::Drained {
                now: en.now(),
                waiting_on,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StreamerConfig, StreamerVariant};
    use snacc_fpga::tapasco::TapascoShell;
    use snacc_pcie::PcieFabric;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn mk_streamers(n: usize) -> Vec<StreamerHandle> {
        mk_streamers_on(&mut Engine::new(), n)
    }

    fn mk_streamers_on(en: &mut Engine, n: usize) -> Vec<StreamerHandle> {
        let fabric = Rc::new(RefCell::new(PcieFabric::new()));
        let mut shell = TapascoShell::new(fabric, 0x4_0000_0000);
        (0..n)
            .map(|_| {
                StreamerHandle::instantiate(
                    &mut shell,
                    en,
                    StreamerConfig::snacc(StreamerVariant::Uram),
                )
            })
            .collect()
    }

    #[test]
    fn stripe_extent_round_robins() {
        let m = MultiSsd::new(mk_streamers(2), 4096);
        let pieces = m.stripe_extent(0, 16384);
        assert_eq!(
            pieces,
            vec![(0, 0, 4096), (1, 0, 4096), (0, 4096, 4096), (1, 4096, 4096),]
        );
    }

    #[test]
    fn stripe_extent_with_offset() {
        let m = MultiSsd::new(mk_streamers(4), 8192);
        let pieces = m.stripe_extent(8192 * 4, 8192 * 2);
        // Stripe indices 4, 5 → members 0, 1, each at their stripe 1.
        assert_eq!(pieces, vec![(0, 8192, 8192), (1, 8192, 8192)]);
    }

    #[test]
    fn stripe_covers_length_exactly() {
        let m = MultiSsd::new(mk_streamers(3), 4096);
        let pieces = m.stripe_extent(0, 4096 * 7 + 1024);
        let total: u64 = pieces.iter().map(|p| p.2).sum();
        assert_eq!(total, 4096 * 7 + 1024);
        assert_eq!(pieces.len(), 8);
    }

    #[test]
    fn stalls_are_errors_not_panics() {
        // No SSD behind the streamer: nothing drains its write channel.
        let mut en = Engine::new();
        let m = MultiSsd::new(mk_streamers_on(&mut en, 2), 1 << 20);
        let err = m
            .write_striped(&mut en, 0, &Payload::pattern(1, 64 << 20))
            .expect_err("a write nobody drains must stall");
        assert!(matches!(err, EngineError::Drained { .. }), "{err}");
        let mut reads = Ok(());
        for i in 0..1024 {
            reads = m.read_striped(&mut en, i << 21, 2 << 20);
            if reads.is_err() {
                break;
            }
        }
        assert!(matches!(reads, Err(EngineError::Drained { .. })));
    }
}
