//! End-to-end datapath benchmarks: simulated bytes moved through the
//! full model stack per wall-clock second.
//!
//! Three shapes cover the hot paths the zero-copy payload work targets:
//! sequential streamer transfers (64 KiB beats → NVMe), random 4 KiB
//! writes (payload reuse across commands), and the Fig 5/6 case study
//! (Ethernet frames → RX bridge → database controller → streamer), which
//! moves every image byte across four model layers.
//!
//! Three more cases time the functional media layer on its own
//! (`SegmentMemory`, the store behind NAND and host memory): scattered
//! 4 KiB writes and read-backs over a prewarmed span (the Fig 4b media
//! shape, which must stay zero-copy), dense 48 B writes into one window
//! (the fragmentation case the copy-on-write coalescer bounds), and 64 B
//! writes cycling through a 64 KiB ring (the submission-queue shape,
//! which lands in place once the ring is stored).
//!
//! Three more time the NVMe command path on its own (controller, PRP
//! walk, PCIe fabric TLPs, NAND, no streamer): 1 MiB read and write
//! commands between the media and a URAM BAR, both holding each MiB as
//! 16 distinct 64 KiB windows, issued straight into host-memory queues;
//! and the write commands again reading pinned host buffers through an
//! enforcing IOMMU that holds the Host-DRAM streamer's grant layout (five
//! queue windows, then 2 × 16 pinned 4 MiB segments), so every TLP's
//! grant lookup is part of the time.
//!
//! Two more time the case study's other layers on their own: an image
//! class's first sight (synthesis, a box-filter downscale read in place
//! from tee-shaped 8 KiB chunks, classification), and 8 KiB jumbo frames
//! between a TX and an RX MAC with 802.3x flow control.
//!
//! Run with `cargo bench -p snacc-bench --bench datapath`; set
//! `SNACC_QUICK=1` for the CI smoke sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use snacc_apps::images::{classify, downscale, generate_image, ImageFormat, HEADER_BYTES};
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::workloads::{self, Dir};
use snacc_core::config::{StreamerConfig, StreamerVariant};
use snacc_mem::hostmem::HostMemConfig;
use snacc_mem::{AddrRange, HostMemory, SegmentMemory, UramConfig, UramModel};
use snacc_net::{mac, EthFrame, EthMac, MacAddr, MacConfig};
use snacc_nvme::spec::{self, AdminOpcode, Cqe, IoOpcode, Sqe, Status};
use snacc_nvme::{NvmeDeviceHandle, NvmeProfile};
use snacc_pcie::target::{HostMemTarget, UramTarget};
use snacc_pcie::{Iommu, PcieFabric, PcieLinkConfig, HOST_NODE};
use snacc_sim::{Engine, Payload, SimRng};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn quick() -> bool {
    std::env::var_os("SNACC_QUICK").is_some()
}

const MIB: u64 = 1 << 20;
const BAR0: u64 = 0x8000_0000;
const URAM_BAR: u64 = 0x40_0000_0000;
const ASQ: u64 = 0x10_0000;
const ACQ: u64 = 0x11_0000;
const IO_SQ: u64 = 0x20_0000;
const IO_CQ: u64 = 0x30_0000;
/// One PRP list page per URAM slot.
const LISTS: u64 = 0x40_0000;
/// 1 MiB data slots the commands rotate through.
const SLOTS: u64 = 4;

/// Where the commands' data slots live.
#[derive(Clone, Copy)]
enum DataBuf {
    /// The URAM BAR, with a passthrough IOMMU.
    Uram,
    /// Pinned 64 MiB host buffers, one slot per 16 MiB of the write
    /// buffer, behind an enforcing IOMMU.
    HostDram,
}

/// One MiB as 16 distinct 64 KiB windows.
fn windows(seed: u64) -> Vec<Payload> {
    (0..16)
        .map(|k| Payload::pattern(seed * 16 + k, 64 << 10))
        .collect()
}

/// The NVMe command path without a streamer: admin and I/O queues in
/// host memory, an SSD, and data slots in a 4 MiB URAM BAR or in pinned
/// host buffers on one fabric. The media holds `cmds` MiB and the slots
/// theirs, each MiB as 16 windows.
struct NvmeRig {
    en: Engine,
    fabric: Rc<RefCell<PcieFabric>>,
    hostmem: Rc<RefCell<HostMemory>>,
    dev: NvmeDeviceHandle,
    admin_tail: u16,
    /// Fabric address of each physically contiguous 1 MiB data slot.
    slots: Vec<u64>,
}

impl NvmeRig {
    fn new(cmds: u64, buf: DataBuf) -> NvmeRig {
        let mut fab = PcieFabric::new();
        let hostmem = Rc::new(RefCell::new(HostMemory::default()));
        // Low memory holds the queues; the pinned region the buffers.
        let pinned = HostMemConfig::default();
        for (base, size) in [(0, 1 << 30), (pinned.pinned_base, pinned.pinned_size)] {
            let host = Rc::new(RefCell::new(HostMemTarget::new(hostmem.clone(), base)));
            fab.map_region(HOST_NODE, AddrRange::new(base, size), host);
        }
        let fpga = fab.add_device("fpga", PcieLinkConfig::alveo_u280());
        let uram = UramModel::new("uram", UramConfig::snacc_default());
        let uram = Rc::new(RefCell::new(uram));
        let bar = Rc::new(RefCell::new(UramTarget::new(uram.clone())));
        fab.map_region(fpga, AddrRange::new(URAM_BAR, SLOTS * MIB), bar);
        let fabric = Rc::new(RefCell::new(fab));
        let dev = NvmeDeviceHandle::attach(fabric.clone(), BAR0, NvmeProfile::samsung_990pro(), 7);
        dev.with(|d| {
            for i in 0..cmds {
                d.nand_mut().media_mut().write_parts(i * MIB, windows(i));
            }
        });
        let mut hm = hostmem.borrow_mut();
        let slots: Vec<u64> = match buf {
            DataBuf::Uram => {
                for s in 0..SLOTS {
                    uram.borrow_mut()
                        .store_mut()
                        .write_parts(s * MIB, windows(1000 + s));
                }
                (0..SLOTS).map(|s| URAM_BAR + s * MIB).collect()
            }
            DataBuf::HostDram => {
                let rd = hm.alloc_pinned(64 * MIB);
                let wr = hm.alloc_pinned(64 * MIB);
                let mut fab = fabric.borrow_mut();
                fab.set_iommu(Iommu::new());
                let ssd = dev.node();
                let queues = [
                    (ASQ, 4096),
                    (ACQ, 4096),
                    (IO_SQ, 256 * 64),
                    (IO_CQ, 4096),
                    (LISTS, SLOTS * 4096),
                ];
                for (base, size) in queues {
                    fab.iommu_mut().grant(ssd, AddrRange::new(base, size));
                }
                for seg in rd.segments().iter().chain(wr.segments()) {
                    fab.iommu_mut().grant(ssd, *seg);
                }
                let slots: Vec<u64> = (0..SLOTS).map(|s| wr.phys_addr(s * 16 * MIB)).collect();
                for (s, &at) in (0..SLOTS).zip(&slots) {
                    hm.store_mut().write_parts(at, windows(1000 + s));
                }
                slots
            }
        };
        for (s, &base) in (0..SLOTS).zip(&slots) {
            let entries: Vec<u8> = (1..256)
                .flat_map(|k| (base + k * 4096).to_le_bytes())
                .collect();
            hm.store_mut().write(LISTS + s * 4096, &entries);
        }
        drop(hm);
        let mut rig = NvmeRig {
            en: Engine::new(),
            fabric,
            hostmem,
            dev,
            admin_tail: 0,
            slots,
        };
        rig.reg(spec::regs::AQA, (31 << 16) | 31);
        rig.reg(spec::regs::ASQ, ASQ as u32);
        rig.reg(spec::regs::ACQ, ACQ as u32);
        rig.reg(spec::regs::CC, spec::cc::EN);
        rig.en.run();
        let mut cq = Sqe::new(AdminOpcode::CreateIoCq as u8, 1);
        cq.prp1 = IO_CQ;
        cq.cdw[0] = 1 | (255 << 16);
        cq.cdw[1] = 1;
        rig.admin(cq);
        let mut sq = Sqe::new(AdminOpcode::CreateIoSq as u8, 2);
        sq.prp1 = IO_SQ;
        sq.cdw[0] = 1 | (255 << 16);
        sq.cdw[1] = 1 | (1 << 16);
        rig.admin(sq);
        rig
    }

    fn reg(&mut self, off: u64, v: u32) {
        let mut fab = self.fabric.borrow_mut();
        fab.write_u32(&mut self.en, HOST_NODE, BAR0 + off, v)
            .expect("BAR0 mapped");
    }

    fn admin(&mut self, sqe: Sqe) {
        let slot = self.admin_tail as u64;
        let mut hm = self.hostmem.borrow_mut();
        hm.store_mut().write(ASQ + slot * 64, &sqe.encode());
        drop(hm);
        self.admin_tail += 1;
        self.reg(spec::regs::sq_tail_doorbell(0), self.admin_tail as u32);
        self.en.run();
        let raw = self
            .hostmem
            .borrow_mut()
            .store_mut()
            .read_vec(ACQ + slot * 16, 16);
        let cqe = Cqe::decode(&raw).expect("admin CQE");
        assert_eq!(cqe.status, Status::Success);
    }

    /// Submit `cmds` 1 MiB commands at once and run them to completion;
    /// returns the bytes the controller moved.
    fn run(&mut self, op: IoOpcode, cmds: u64) -> u64 {
        assert!(cmds < 256, "one pass of the 256-entry ring");
        let mut hm = self.hostmem.borrow_mut();
        for i in 0..cmds {
            let slot = i % SLOTS;
            let mut sqe = Sqe::io(op, i as u16, i * MIB / 512, (MIB / 512 - 1) as u16);
            sqe.prp1 = self.slots[slot as usize];
            sqe.prp2 = LISTS + slot * 4096;
            hm.store_mut().write(IO_SQ + i * 64, &sqe.encode());
        }
        drop(hm);
        self.reg(spec::regs::sq_tail_doorbell(1), cmds as u32);
        self.en.run();
        let st = self.dev.stats();
        assert_eq!(st.read_cmds + st.write_cmds, cmds, "every command succeeds");
        let faults = self.fabric.borrow_mut().iommu_mut().faults();
        assert_eq!(faults, 0, "every access is granted");
        st.read_bytes + st.write_bytes
    }
}

fn datapath_benches(c: &mut Criterion) {
    let q = quick();
    let mut g = c.benchmark_group("datapath");
    g.sample_size(if q { 2 } else { 5 });

    let seq_total: u64 = if q { 32 << 20 } else { 256 << 20 };
    g.bench_function("seq_write", |b| {
        b.iter(|| {
            black_box(workloads::snacc_seq_bandwidth(
                StreamerVariant::Uram,
                Dir::Write,
                seq_total,
            ))
        })
    });
    g.bench_function("seq_read", |b| {
        b.iter(|| {
            black_box(workloads::snacc_seq_bandwidth(
                StreamerVariant::Uram,
                Dir::Read,
                seq_total,
            ))
        })
    });

    let rand_total: u64 = if q { 8 << 20 } else { 64 << 20 };
    g.bench_function("rand_write_4k", |b| {
        b.iter(|| {
            black_box(workloads::snacc_rand_bandwidth(
                StreamerConfig::snacc(StreamerVariant::Uram),
                Dir::Write,
                rand_total,
                7,
            ))
        })
    });

    // The paper's case study: images over Ethernet into the database.
    // ~9.4 MB per image traverses net → AXIS → controller → streamer.
    let images: u64 = if q { 4 } else { 16 };
    g.bench_function("case_study", |b| {
        b.iter(|| {
            let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
            let report = run_snacc_case_study(
                &mut sys,
                CaseStudyConfig {
                    images,
                    ..Default::default()
                },
            );
            // Release the sparse functional stores (Rc-cycle web).
            sys.nvme.with(|d| d.nand_mut().media_mut().clear());
            sys.hostmem.borrow_mut().store_mut().clear();
            black_box(report.bandwidth_gbps)
        })
    });

    // The classification path alone, as on each class's memo miss:
    // synthesise the image, downscale it from chunks shaped like the tee
    // (8 KiB frames, the first 20 B short where the header shares its
    // frame) and classify it.
    let (cap, cls) = (ImageFormat::capture(), ImageFormat::classify());
    g.bench_function("image_first_sight", |b| {
        b.iter(|| {
            let (hdr, px) = generate_image(cap, 7);
            let (first, rest) = px.split_at(8192 - HEADER_BYTES);
            let small = downscale(std::iter::once(first).chain(rest.chunks(8192)), cap, cls);
            let class = classify(&small, cls);
            assert_eq!(class, hdr.truth);
            black_box(class)
        })
    });

    // The Ethernet layer alone: 8 KiB jumbo frames, each a window of one
    // shared buffer, from a TX to an RX MAC at 100 G with flow control;
    // the RX hook pops every frame as it lands.
    let frames: u64 = if q { 4096 } else { 32768 };
    let jumbo = Payload::pattern(13, 8192);
    g.bench_function("mac_jumbo_8k", |b| {
        b.iter(|| {
            let mut en = Engine::new();
            let (tx_addr, rx_addr) = (MacAddr::from_index(1), MacAddr::from_index(2));
            let tx = EthMac::new("tx", tx_addr, MacConfig::eth_100g(), 1);
            let rx = EthMac::new("rx", rx_addr, MacConfig::eth_100g(), 2);
            mac::connect(&tx, &rx);
            let got = Rc::new(Cell::new(0u64));
            let (rx_weak, got_hook) = (Rc::downgrade(&rx), got.clone());
            rx.borrow_mut().set_rx_hook(move |en| {
                let rx = rx_weak.upgrade().expect("rx MAC alive");
                while let Some(f) = mac::pop_frame(&rx, en) {
                    got_hook.set(got_hook.get() + f.payload.len() as u64);
                }
            });
            for _ in 0..frames {
                let f = EthFrame::data(rx_addr, tx_addr, jumbo.clone());
                while !mac::send(&tx, &mut en, f.clone()) {
                    en.step();
                }
            }
            en.run();
            assert_eq!(got.get(), frames * 8192, "every frame arrives");
            black_box(got.get())
        })
    });

    // Functional media alone: scattered 4 KiB writes, each a window of
    // one shared buffer, over a prewarmed 64 MiB span, then read back.
    let span: u64 = 64 << 20;
    let blocks = if q { 4096 } else { 16384 };
    let data = Payload::pattern(11, 4096 * blocks);
    g.bench_function("media_rand_4k", |b| {
        b.iter(|| {
            let mut m = SegmentMemory::new();
            m.fill(0, span, 0xa5);
            let mut rng = SimRng::new(7);
            let addrs: Vec<u64> = (0..blocks)
                .map(|_| rng.gen_range(span / 4096) * 4096)
                .collect();
            for (i, &a) in addrs.iter().enumerate() {
                m.write_payload(a, data.slice(i * 4096..(i + 1) * 4096));
            }
            let mut sum = 0u64;
            for &a in &addrs {
                sum += m.read_payload(a, 4096).len() as u64;
            }
            black_box((sum, m.segment_count()))
        })
    });

    // Dense 48 B writes into one 1 MiB window: the coalescer's worst case.
    let tiny = if q { 4096 } else { 32768 };
    g.bench_function("media_dense_48b", |b| {
        b.iter(|| {
            let mut m = SegmentMemory::new();
            let mut rng = SimRng::new(9);
            for i in 0..tiny {
                m.write(rng.gen_range((1 << 20) - 48), &[i as u8; 48]);
            }
            black_box(m.segment_count())
        })
    });

    // 64 B byte writes cycling through a 64 KiB ring: the SQ-ring shape.
    g.bench_function("media_ring_64b", |b| {
        b.iter(|| {
            let mut m = SegmentMemory::new();
            for i in 0..tiny as u64 {
                m.write((i % 1024) * 64, &[i as u8; 64]);
            }
            black_box(m.segment_count())
        })
    });

    // The NVMe command path alone: 1 MiB commands over 16 x 64 KiB
    // media windows through the fabric into (and out of) URAM, and write
    // commands reading pinned host buffers through the IOMMU.
    let cmds: u64 = if q { 32 } else { 128 };
    for (name, op, buf) in [
        ("nvme_read_1mib", IoOpcode::Read, DataBuf::Uram),
        ("nvme_write_1mib", IoOpcode::Write, DataBuf::Uram),
        (
            "nvme_write_1mib_hostdram",
            IoOpcode::Write,
            DataBuf::HostDram,
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut rig = NvmeRig::new(cmds, buf);
                black_box(rig.run(op, cmds))
            })
        });
    }

    g.finish();
}

criterion_group!(benches, datapath_benches);
criterion_main!(benches);
