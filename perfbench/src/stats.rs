//! Simulated statistics read through the layers' public accessors.
//!
//! Counters are snapshotted when the timed phase starts and when it ends;
//! the round reports the difference, summed over the round's systems.
//! Every value here is a pure function of the simulation, so it repeats
//! exactly and feeds the round's `sim_digest`.

use snacc_apps::system::{HostSystem, SnaccSystem};
use snacc_mem::HostMemory;
use snacc_nvme::NvmeDeviceHandle;
use snacc_sim::Engine;
use snacc_spdk::SpdkNvme;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Named simulated counts.
pub type Counts = BTreeMap<&'static str, u64>;

/// Add `from` into `into`, key by key.
pub fn add(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        *into.entry(k).or_default() += v;
    }
}

/// `now - base`, key by key (all counters are monotonic).
pub fn since(now: &Counts, base: &Counts) -> Counts {
    now.iter()
        .map(|(k, v)| (*k, v - base.get(k).copied().unwrap_or(0)))
        .collect()
}

fn engine(c: &mut Counts, en: &Engine) {
    c.insert("sim.events", en.events_executed());
    c.insert("sim.ns", en.now().as_ns());
}

/// Monotonic counters of a SNAcc system.
pub fn snacc(sys: &SnaccSystem) -> Counts {
    let mut c = Counts::new();
    engine(&mut c, &sys.en);
    let fabric = sys.fabric.borrow();
    c.insert("pcie.bytes", fabric.total_bytes());
    c.insert("pcie.payload_bytes", fabric.total_payload_bytes());
    drop(fabric);
    nvme(&mut c, sys.nvme.stats());
    let m = sys.streamer.metrics();
    c.insert("streamer.cmds", m.cmds_issued.get());
    c.insert("streamer.read_cmds", m.read_cmds.get());
    c.insert("streamer.write_cmds", m.write_cmds.get());
    c.insert("streamer.doorbells", m.doorbells.get());
    c.insert("streamer.cq_events", m.cq_events.get());
    c.insert("streamer.cqes", m.cqes_consumed.get());
    c.insert("streamer.errors", m.errors.get());
    c.insert("streamer.retries", m.retries.get());
    c.insert("streamer.gave_up", m.gave_up.get());
    c.insert("streamer.responses", m.responses.get());
    c
}

/// Monotonic counters of a host-only system driven by SPDK.
pub fn host(host: &HostSystem, spdk: &SpdkNvme) -> Counts {
    let mut c = Counts::new();
    engine(&mut c, &host.en);
    let fabric = host.fabric.borrow();
    c.insert("pcie.bytes", fabric.total_bytes());
    c.insert("pcie.payload_bytes", fabric.total_payload_bytes());
    drop(fabric);
    nvme(&mut c, host.nvme.stats());
    let s = spdk.stats();
    c.insert("spdk.cmds", s.completed);
    c.insert("spdk.errors", s.errors);
    c
}

fn nvme(c: &mut Counts, s: snacc_nvme::device::NvmeStats) {
    c.insert("nvme.read_cmds", s.read_cmds);
    c.insert("nvme.write_cmds", s.write_cmds);
    c.insert("nvme.bytes", s.read_bytes + s.write_bytes);
    c.insert("nvme.errors", s.errors);
}

/// Functional-media footprint at the end of the timed phase (a gauge,
/// not diffed): NAND and host-memory segment counts and NAND pages.
pub fn media(nvme: &NvmeDeviceHandle, hostmem: &RefCell<HostMemory>) -> Counts {
    let mut c = Counts::new();
    nvme.with(|d| {
        let m = d.nand_mut().media_mut();
        c.insert("mem.nand_segments", m.segment_count() as u64);
        c.insert("mem.nand_pages", m.resident_pages() as u64);
    });
    let host_segments = hostmem.borrow_mut().store_mut().segment_count();
    c.insert("mem.host_segments", host_segments as u64);
    c
}

/// Release a system's functional stores. A system's components form
/// `Rc` cycles, so dropping it frees nothing; without this the media
/// of every round would stay resident.
pub fn scrub(nvme: &NvmeDeviceHandle, hostmem: &RefCell<HostMemory>) {
    nvme.with(|d| d.nand_mut().media_mut().clear());
    hostmem.borrow_mut().store_mut().clear();
}
