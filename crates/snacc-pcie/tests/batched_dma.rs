//! Property tests: a DMA moved in batches is indistinguishable from the
//! same DMA moved one TLP at a time.
//!
//! The NVMe controller delivers a read command's data with one
//! [`PcieFabric::write_parts_at`] and fetches a write command's data with
//! per-page [`PcieFabric::book_read_at`] bookings plus one
//! [`PcieFabric::read_parts`] gather. These tests run random PRP layouts
//! both ways — contiguous and scattered pages, host memory and a URAM BAR
//! in one batch, an unmapped page part-way through, a link-degradation
//! window and completion timeouts — and require identical per-TLP
//! completion times, link and payload byte counts, target port bytes,
//! fault counters, store contents and delivered prefix.

use proptest::prelude::*;
use snacc_mem::{AddrRange, HostMemory, UramConfig, UramModel};
use snacc_pcie::target::{HostMemTarget, UramTarget};
use snacc_pcie::{
    NodeId, PcieError, PcieFabric, PcieFaultConfig, PcieFaultStats, PcieLinkConfig, HOST_NODE,
};
use snacc_sim::{Engine, Payload, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const PAGE: u64 = 4096;
/// Pages of host memory and of URAM the layouts draw from.
const REGION_PAGES: u64 = 64;
const HOST_BASE: u64 = 0x10_0000;
const URAM_BAR: u64 = 0x2000_0000;
/// Mapped by nobody: a page here fails with `Unmapped`.
const HOLE: u64 = 0x7000_0000;

struct Rig {
    en: Engine,
    fab: PcieFabric,
    ssd: NodeId,
    fpga: NodeId,
    host: Rc<RefCell<HostMemory>>,
    uram: Rc<RefCell<UramModel>>,
}

impl Rig {
    /// Host memory and a URAM BAR, both pre-loaded with data of several
    /// backings (so reads cross stored segments), and an optional fault
    /// configuration.
    fn new(faults: Option<PcieFaultConfig>) -> Rig {
        let mut fab = PcieFabric::new();
        let fpga = fab.add_device("fpga", PcieLinkConfig::alveo_u280());
        let ssd = fab.add_device("ssd", PcieLinkConfig::nvme_gen4_x4());
        let host = Rc::new(RefCell::new(HostMemory::default()));
        let uram = Rc::new(RefCell::new(UramModel::new(
            "uram",
            UramConfig::snacc_default(),
        )));
        let span = REGION_PAGES * PAGE;
        fab.map_region(
            HOST_NODE,
            AddrRange::new(HOST_BASE, span),
            Rc::new(RefCell::new(HostMemTarget::new(host.clone(), 0))),
        );
        fab.map_region(
            fpga,
            AddrRange::new(URAM_BAR, span),
            Rc::new(RefCell::new(UramTarget::new(uram.clone()))),
        );
        {
            let mut h = host.borrow_mut();
            let store = h.store_mut();
            store.fill(HOST_BASE, span / 2, 0x5a);
            store.write_payload(HOST_BASE + 3 * PAGE + 100, Payload::pattern(1, 3 * 4096));
        }
        {
            let mut u = uram.borrow_mut();
            let store = u.store_mut();
            store.write_payload(0, Payload::pattern(2, 5 * 4096 + 7));
            store.write_payload(9 * PAGE, Payload::from_vec(vec![0xc3; 20_000]));
        }
        if let Some(cfg) = faults {
            fab.install_faults(cfg);
        }
        Rig {
            en: Engine::new(),
            fab,
            ssd,
            fpga,
            host,
            uram,
        }
    }

    /// Everything a TLP can leave behind besides its completion time.
    fn state(&mut self) -> (Vec<u64>, PcieFaultStats, Vec<u64>, Vec<u8>, Vec<u8>) {
        let span = (REGION_PAGES * PAGE) as usize;
        let counters = vec![
            self.fab.link_bytes(self.ssd),
            self.fab.link_bytes(self.fpga),
            self.fab.total_payload_bytes(),
        ];
        let ports = vec![
            self.host.borrow().bytes_transferred(),
            self.uram.borrow().bytes_read(),
            self.uram.borrow().bytes_written(),
        ];
        let host = self.host.borrow_mut().store_mut().read_vec(HOST_BASE, span);
        let uram = self.uram.borrow_mut().store_mut().read_vec(0, span);
        (counters, self.fab.fault_stats(), ports, host, uram)
    }
}

/// One TLP of a random layout: issue time, fabric address, length.
#[derive(Clone, Copy, Debug)]
struct Page {
    start: SimTime,
    addr: u64,
    len: u64,
}

/// Build a PRP-like layout from raw draws. Each page continues the
/// previous one (contiguous) or jumps (scattered), on host memory or the
/// URAM BAR; the first page may start mid-page, as PRP1 can, and some
/// pages are control-sized. `hole` replaces that page with an unmapped one.
fn layout(draws: &[[u64; 3]], hole: Option<usize>) -> Vec<Page> {
    let mut pages = Vec::with_capacity(draws.len());
    let mut next: Option<(u64, u64)> = None; // (base, offset of next page)
    let mut t = 0u64;
    for (k, &[kind, place, size]) in draws.iter().enumerate() {
        let base = if kind % 3 == 0 { URAM_BAR } else { HOST_BASE };
        let off = match next {
            Some((b, off)) if b == base && place % 2 == 0 && off + PAGE <= REGION_PAGES * PAGE => {
                off
            }
            _ => (place >> 8) % REGION_PAGES * PAGE,
        };
        let first_cut = if k == 0 { (size >> 16) % 8 * 512 } else { 0 };
        let len = match size % 8 {
            0 => 1 + (size >> 4) % 512,
            _ => PAGE - first_cut,
        };
        let off = off + first_cut;
        t += (kind >> 8) % 700;
        let addr = if hole == Some(k) { HOLE } else { base + off };
        pages.push(Page {
            start: SimTime::ZERO + SimDuration::from_ns(t),
            addr,
            len,
        });
        next = Some((base, off + len));
    }
    pages
}

/// Fault plan drawn from `sel`: none, a degradation window over the
/// middle of the DMA, or that window plus completion timeouts.
fn faults(sel: u64) -> Option<PcieFaultConfig> {
    let win = (
        SimTime::ZERO + SimDuration::from_ns(2_000),
        SimTime::ZERO + SimDuration::from_ns(9_000),
    );
    match sel % 3 {
        0 => None,
        1 => Some(PcieFaultConfig::degraded(win, SimDuration::from_us(3))),
        _ => Some(PcieFaultConfig {
            timeout_rate: 0.08,
            seed: sel,
            ..PcieFaultConfig::degraded(win, SimDuration::from_us(3))
        }),
    }
}

/// Write data: slices of one big buffer (so adjacent pages re-join),
/// interleaved with pages of their own backing.
fn write_data(pages: &[Page], seed: u64) -> Vec<Payload> {
    let total: u64 = pages.iter().map(|p| p.len).sum();
    let big = Payload::pattern(seed, total as usize);
    let mut off = 0usize;
    pages
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let n = p.len as usize;
            let part = if (seed >> (k % 64)) & 1 == 0 {
                big.slice(off..off + n)
            } else {
                Payload::from_vec(vec![k as u8; n])
            };
            off += n;
            part
        })
        .collect()
}

proptest! {
    /// `write_parts_at` == a `write_payload_at` loop that stops at the
    /// first error.
    #[test]
    fn batched_writes_match_per_tlp_writes(
        draws in proptest::collection::vec(any::<[u64; 3]>(), 1..48),
        hole in any::<u64>(),
        fault_sel in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let hole = hole.is_multiple_of(4).then(|| (hole >> 8) as usize % draws.len());
        let pages = layout(&draws, hole);
        let data = write_data(&pages, seed);

        let mut a = Rig::new(faults(fault_sel));
        let mut done_a = Vec::new();
        let mut err_a = None;
        for (p, d) in pages.iter().zip(&data) {
            match a.fab.write_payload_at(&mut a.en, p.start, a.ssd, p.addr, d.clone()) {
                Ok(t) => done_a.push(t),
                Err(e) => {
                    err_a = Some(e);
                    break;
                }
            }
        }

        let mut b = Rig::new(faults(fault_sel));
        let tlps = pages.iter().zip(data).map(|(p, d)| (p.start, p.addr, d));
        let mut done_b = Vec::new();
        let err_b = b.fab.write_parts_at(&mut b.en, b.ssd, tlps, |t| done_b.push(t)).err();

        prop_assert_eq!(&done_b, &done_a);
        prop_assert_eq!(&err_b, &err_a);
        if let Some(k) = hole {
            prop_assert!(done_b.len() == k, "delivered prefix ends at the hole");
            let unmapped = matches!(err_b, Some(PcieError::Unmapped { .. }));
            prop_assert!(unmapped, "{:?}", err_b);
        }
        prop_assert!(a.state() == b.state(), "links, ports, faults or stores differ");
    }

    /// Per-page `book_read_at` plus one `read_parts` gather == a
    /// `read_payload_at` loop that stops at the first error.
    #[test]
    fn booked_reads_match_per_tlp_reads(
        draws in proptest::collection::vec(any::<[u64; 3]>(), 1..48),
        hole in any::<u64>(),
        fault_sel in any::<u64>(),
    ) {
        let hole = hole.is_multiple_of(4).then(|| (hole >> 8) as usize % draws.len());
        let pages = layout(&draws, hole);

        let mut a = Rig::new(faults(fault_sel));
        let mut done_a = Vec::new();
        let mut bytes_a = Vec::new();
        let mut err_a = None;
        for p in &pages {
            match a.fab.read_payload_at(&mut a.en, p.start, a.ssd, p.addr, p.len) {
                Ok((data, t)) => {
                    done_a.push(t);
                    bytes_a.extend_from_slice(data.as_slice());
                }
                Err(e) => {
                    err_a = Some(e);
                    break;
                }
            }
        }

        let mut b = Rig::new(faults(fault_sel));
        let mut done_b = Vec::new();
        let mut err_b = None;
        for p in &pages {
            match b.fab.book_read_at(&mut b.en, p.start, b.ssd, p.addr, p.len) {
                Ok(t) => done_b.push(t),
                Err(e) => {
                    err_b = Some(e);
                    break;
                }
            }
        }
        let delivered = pages[..done_b.len()].iter().map(|p| (p.addr, p.len));
        let parts = b.fab.read_parts(&mut b.en, b.ssd, delivered).expect("booked pages route");
        let bytes_b: Vec<u8> = parts.iter().flat_map(|p| p.as_slice().iter().copied()).collect();

        prop_assert_eq!(&done_b, &done_a);
        prop_assert_eq!(&err_b, &err_a);
        prop_assert!(bytes_b == bytes_a, "gathered bytes differ");
        if let Some(k) = hole {
            prop_assert!(done_b.len() <= k, "no page past the hole is read");
        }
        prop_assert!(a.state() == b.state(), "links, ports, faults or stores differ");
    }
}

/// A DMA's pages landing back to back on one target reach the store as
/// one run: 16 page slices of one buffer become one stored segment.
#[test]
fn a_back_to_back_run_lands_as_one_segment() {
    let mut r = Rig::new(None);
    let buf = Payload::pattern(9, 16 * PAGE as usize);
    let tlps = (0..16u64).map(|k| {
        let at = SimTime::ZERO + SimDuration::from_ns(k * 300);
        let part = buf.slice((k * PAGE) as usize..((k + 1) * PAGE) as usize);
        (at, URAM_BAR + 32 * PAGE + k * PAGE, part)
    });
    let mut done = 0;
    let r2 = r.fab.write_parts_at(&mut r.en, r.ssd, tlps, |_| done += 1);
    assert_eq!((done, r2), (16, Ok(())));
    let mut u = r.uram.borrow_mut();
    let parts = u
        .store_mut()
        .read_payload_parts(32 * PAGE, 16 * PAGE as usize);
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0], buf);
}
