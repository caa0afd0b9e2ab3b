//! `case_study`: images arrive over the 100 G Ethernet front (MAC with
//! PAUSE flow control, RX bridge, database controller with the
//! classification tee) and the Host-DRAM streamer stores them on the SSD
//! (Fig 6). Every image is checked: stored intact at its slot and
//! classified as its ground truth.

use crate::data::mix;
use crate::drive::{Driver, Stall};
use crate::stats::{self, Counts};
use crate::{span, Bench, Latency, Outcome, EVENT_LIMIT};
use snacc_apps::images::{generate_image, ImageFormat, NUM_CLASSES};
use snacc_apps::pipeline::{
    image_slot_bytes, CaseStudyConfig, DbController, ImageSender, RxBridge, StreamerSink,
};
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_core::config::StreamerVariant;
use snacc_fpga::axis::AxisChannel;
use snacc_net::mac::{self, EthMac, MacConfig, MacStats};
use snacc_net::MacAddr;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Images streamed per round: enough for the link, PAUSE and storage
/// pipeline to reach steady state while the stored media (which grows
/// with bytes moved) stays under half a gigabyte.
pub const IMAGES: u64 = 240;

type Controller = Rc<RefCell<DbController<StreamerSink>>>;

/// The pipeline pieces wired for the timed phase.
struct Front {
    ctl: Controller,
    sender: Rc<RefCell<ImageSender>>,
    tx: Rc<RefCell<EthMac>>,
    rx: Rc<RefCell<EthMac>>,
    rx_ch: Rc<RefCell<AxisChannel>>,
}

pub struct CaseStudy {
    sys: SnaccSystem,
    cfg: CaseStudyConfig,
    front: Option<Front>,
    counts: Counts,
}

impl CaseStudy {
    pub fn setup(seed: u64) -> CaseStudy {
        let mut sys = span::time("apps.bring_up", || {
            SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::HostDram))
        });
        sys.reset_pcie_meters();
        sys.en.set_event_limit(EVENT_LIMIT);
        let defaults = CaseStudyConfig::default();
        let cfg = CaseStudyConfig {
            images: IMAGES,
            image_table: (mix(seed, 1) % 1024) << 20,
            record_table: defaults.record_table + ((mix(seed, 2) % 1024) << 12),
            ..defaults
        };
        CaseStudy {
            sys,
            cfg,
            front: None,
            counts: Counts::new(),
        }
    }

    /// Wire the case-study front: a transmitting FPGA's MAC linked to
    /// the receiving MAC, the RX bridge into the controller's stream,
    /// and the controller writing into the streamer's ports.
    fn wire(&mut self) -> Front {
        let en = &mut self.sys.en;
        let tx = EthMac::new(
            "tx-fpga",
            MacAddr::from_index(1),
            MacConfig::eth_100g(),
            101,
        );
        let rx = EthMac::new(
            "rx-fpga",
            MacAddr::from_index(2),
            MacConfig::eth_100g(),
            102,
        );
        mac::connect(&tx, &rx);
        let rx_ch = AxisChannel::new("rx-stream", 256 << 10);
        RxBridge::install(en, rx.clone(), rx_ch.clone());
        let sink = StreamerSink::new(en, self.sys.streamer.ports());
        let ctl = DbController::start(en, self.cfg.clone(), rx_ch.clone(), sink);
        let sender = ImageSender::start(en, tx.clone(), MacAddr::from_index(2), self.cfg.clone());
        Front {
            ctl,
            sender,
            tx,
            rx,
            rx_ch,
        }
    }

    /// Check every image; returns the failed ones. Each class's image is
    /// generated once and compared with every stored image of its class.
    fn check(&self, ctl: &Controller) -> u64 {
        let c = ctl.borrow();
        let classes = u64::from(NUM_CLASSES);
        let classified: BTreeSet<u64> = c
            .records
            .iter()
            .filter(|r| r.id < IMAGES && r.class == r.truth && u64::from(r.truth) == r.id % classes)
            .map(|r| r.id)
            .collect();
        let fmt = ImageFormat::capture();
        let slot = image_slot_bytes(fmt);
        let mut good = 0;
        for class in 0..classes {
            let (_, px) = generate_image(fmt, class);
            for id in classified.iter().filter(|&id| id % classes == class) {
                let addr = self.cfg.image_table + id * slot;
                let intact = self.sys.nvme.with(|d| {
                    let parts = d.nand_mut().media_mut().read_payload_parts(addr, px.len());
                    let mut at = 0;
                    parts.iter().all(|p| {
                        let same = p.as_slice() == &px[at..at + p.len()];
                        at += p.len();
                        same
                    })
                });
                good += u64::from(intact);
            }
        }
        // An image stored but never acknowledged by the streamer is not
        // persisted.
        let unacked = c.transfers_begun() - c.sink_completed().min(c.transfers_begun());
        (IMAGES - good).max(unacked)
    }
}

fn net_counts(rx: &MacStats) -> Counts {
    let mut c = Counts::new();
    c.insert("net.frames", rx.rx_frames);
    c.insert("net.pauses_sent", rx.pauses_sent);
    c.insert(
        "net.rx_drops",
        rx.rx_drops + rx.crc_drops + rx.injected_drops + rx.corrupt_drops,
    );
    c
}

impl Bench for CaseStudy {
    fn run(&mut self, d: &mut Driver) -> Result<(), Stall> {
        let before = stats::snacc(&self.sys);
        let front = span::time("apps.wire_front", || self.wire());
        self.front = Some(front);
        let ports = self.sys.streamer.ports();
        d.watch(&ports.rd_data, &ports.wr_in, self.sys.en.now());
        let r = d.run(&mut self.sys.en);
        d.unwatch();
        stats::add(
            &mut self.counts,
            &stats::since(&stats::snacc(&self.sys), &before),
        );
        r?;
        let stored = self
            .front
            .as_ref()
            .map_or(0, |f| f.ctl.borrow().images_stored);
        if stored < IMAGES {
            return Err(Stall::Drained("images to be stored"));
        }
        Ok(())
    }

    fn finish(&mut self) -> Outcome {
        let mut out = Outcome {
            attempted: IMAGES,
            ..Outcome::default()
        };
        let front = self.front.take().expect("finish follows run");
        out.failed = self.check(&front.ctl);
        {
            let c = front.ctl.borrow();
            out.records = c
                .records
                .iter()
                .map(|r| [r.id, r.class.into(), r.truth.into()])
                .collect();
            let image_bytes = c.images_stored * ImageFormat::capture().bytes() as u64;
            out.user_bytes = image_bytes;
            let elapsed_s = self.counts.get("sim.ns").copied().unwrap_or(0) as f64 / 1e9;
            if c.images_stored == IMAGES && elapsed_s > 0.0 {
                out.rows
                    .insert("hostdram_case_gbps", image_bytes as f64 / 1e9 / elapsed_s);
            }
            let correct = c.records.iter().filter(|r| r.class == r.truth).count();
            out.counts.insert("apps.images", c.images_stored);
            out.counts.insert("apps.classified", c.records.len() as u64);
            out.counts.insert("apps.correct", correct as u64);
        }
        let rx = front.rx.borrow().stats();
        stats::add(&mut out.counts, &net_counts(&rx));
        out.latency = Some(Latency::of(&self.sys.streamer.metrics().cmd_latency_us));
        stats::add(&mut out.counts, &self.counts);
        stats::add(
            &mut out.counts,
            &stats::media(&self.sys.nvme, &self.sys.hostmem),
        );

        // The pieces hold each other through their hooks; replacing the
        // hooks breaks the cycles so the sender's image cache and the
        // controller are freed with the round.
        front.tx.borrow_mut().set_tx_space_hook(|_| {});
        front.rx.borrow_mut().set_rx_hook(|_| {});
        front.rx_ch.borrow_mut().set_data_hook(|_| {});
        front.rx_ch.borrow_mut().set_space_hook(|_| {});
        let ports = self.sys.streamer.ports();
        ports.wr_in.borrow_mut().set_space_hook(|_| {});
        ports.wr_resp.borrow_mut().set_data_hook(|_| {});
        drop(front.sender);
        stats::scrub(&self.sys.nvme, &self.sys.hostmem);
        out
    }
}
