//! Memory-mapped targets.
//!
//! Anything reachable over the fabric — host DRAM, an FPGA BAR window
//! backed by URAM or on-board DRAM, an NVMe controller's register file —
//! implements [`MmioTarget`]. Targets are *passive*: they move bytes and
//! return a service latency. Side effects that must re-enter the fabric
//! (e.g. a doorbell write triggering command fetch) are deferred via the
//! engine handle.

use snacc_mem::{DramController, HostMemory, MemDir, SparseMemory, UramModel};
use snacc_sim::bytes::Payload;
use snacc_sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A memory-mapped region reachable through the PCIe fabric.
pub trait MmioTarget {
    /// Target name for traces and error messages.
    fn name(&self) -> &str;

    /// Serve a read of `out.len()` bytes at `offset` within the region.
    /// `arrival` is when the request reaches the target; the return value
    /// is the service latency before the completion data starts back.
    fn read(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        out: &mut [u8],
    ) -> SimDuration;

    /// Absorb a write of `data` at `offset`. Returns the service latency.
    fn write(&mut self, en: &mut Engine, arrival: SimTime, offset: u64, data: &[u8])
        -> SimDuration;

    /// Serve a read of `len` bytes at `offset` as a zero-copy [`Payload`].
    /// The default materialises through [`read`](Self::read); memory-backed
    /// targets override it to hand out views of their segment store.
    fn read_payload(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        let mut buf = vec![0u8; len];
        let lat = self.read(en, arrival, offset, &mut buf);
        (Payload::from_vec(buf), lat)
    }

    /// Absorb a write of a [`Payload`] at `offset`. The default
    /// materialises through [`write`](Self::write); memory-backed targets
    /// override it to retain the window without copying.
    fn write_payload(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        self.write(en, arrival, offset, data.as_slice())
    }

    /// Absorb `parts` back to back from `offset` — one DMA's TLPs
    /// delivered as a batch. Each part comes with its arrival time; on
    /// return that time has become the part's completion time (arrival
    /// plus service latency) and the payload has been taken. The default
    /// writes the parts one at a time through
    /// [`write_payload`](Self::write_payload); memory-backed targets book
    /// their port per part and insert the bytes once.
    fn write_parts(&mut self, en: &mut Engine, offset: u64, parts: &mut [(SimTime, Payload)]) {
        let mut off = offset;
        for (t, p) in parts {
            let data = std::mem::take(p);
            let n = data.len() as u64;
            *t += self.write_payload(en, *t, off, data);
            off += n;
        }
    }

    /// Timing half of a read of `len` bytes at `offset`: the service
    /// latency, without handing out the bytes (fetch them afterwards with
    /// [`read_parts`](Self::read_parts)). The default serves a full
    /// [`read_payload`](Self::read_payload) and drops the bytes, so a
    /// target that counts its reads sees a booked-then-gathered read twice;
    /// memory-backed targets override it to book their port only.
    fn book_read(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> SimDuration {
        self.read_payload(en, arrival, offset, len).1
    }

    /// Functional half of a read: `len` bytes at `offset` as zero-copy
    /// parts, with no timing. The default is one
    /// [`read_payload`](Self::read_payload).
    fn read_parts(&mut self, en: &mut Engine, offset: u64, len: usize) -> Vec<Payload> {
        let now = en.now();
        vec![self.read_payload(en, now, offset, len).0]
    }
}

/// Host DRAM exposed as a fabric target.
pub struct HostMemTarget {
    mem: Rc<RefCell<HostMemory>>,
    /// Physical base address of the mapped window (offsets are absolute
    /// host-physical addresses minus this base).
    base: u64,
}

impl HostMemTarget {
    /// Map host memory at physical base `base`.
    pub fn new(mem: Rc<RefCell<HostMemory>>, base: u64) -> Self {
        HostMemTarget { mem, base }
    }
}

impl MmioTarget for HostMemTarget {
    fn name(&self) -> &str {
        "host-dram"
    }

    fn read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        out: &mut [u8],
    ) -> SimDuration {
        let mut m = self.mem.borrow_mut();
        let done = m.read(arrival, self.base + offset, out);
        done.since(arrival)
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: &[u8],
    ) -> SimDuration {
        let mut m = self.mem.borrow_mut();
        let done = m.write(arrival, self.base + offset, data);
        done.since(arrival)
    }

    fn read_payload(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        let mut m = self.mem.borrow_mut();
        let (p, done) = m.read_payload(arrival, self.base + offset, len);
        (p, done.since(arrival))
    }

    fn write_payload(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        let mut m = self.mem.borrow_mut();
        let done = m.write_payload(arrival, self.base + offset, data);
        done.since(arrival)
    }

    fn write_parts(&mut self, _en: &mut Engine, offset: u64, parts: &mut [(SimTime, Payload)]) {
        let mut m = self.mem.borrow_mut();
        for (t, p) in parts.iter_mut() {
            *t = m.book_write(*t, p.len() as u64);
        }
        let at = self.base + offset;
        m.store_mut()
            .write_parts(at, parts.iter_mut().map(|(_, p)| std::mem::take(p)));
    }

    fn book_read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        _offset: u64,
        len: usize,
    ) -> SimDuration {
        let done = self.mem.borrow_mut().book_read(arrival, len as u64);
        done.since(arrival)
    }

    fn read_parts(&mut self, _en: &mut Engine, offset: u64, len: usize) -> Vec<Payload> {
        let mut m = self.mem.borrow_mut();
        m.store_mut().read_payload_parts(self.base + offset, len)
    }
}

/// A URAM buffer exposed through an FPGA BAR window.
pub struct UramTarget {
    uram: Rc<RefCell<UramModel>>,
}

impl UramTarget {
    /// Wrap a shared URAM model.
    pub fn new(uram: Rc<RefCell<UramModel>>) -> Self {
        UramTarget { uram }
    }
}

impl MmioTarget for UramTarget {
    fn name(&self) -> &str {
        "uram-bar"
    }

    fn read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        out: &mut [u8],
    ) -> SimDuration {
        let mut u = self.uram.borrow_mut();
        let done = u.read(arrival, offset, out);
        done.since(arrival)
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: &[u8],
    ) -> SimDuration {
        let mut u = self.uram.borrow_mut();
        let done = u.write(arrival, offset, data);
        done.since(arrival)
    }

    fn read_payload(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        let mut u = self.uram.borrow_mut();
        let (p, done) = u.read_payload(arrival, offset, len);
        (p, done.since(arrival))
    }

    fn write_payload(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        let mut u = self.uram.borrow_mut();
        let done = u.write_payload(arrival, offset, data);
        done.since(arrival)
    }

    fn write_parts(&mut self, _en: &mut Engine, offset: u64, parts: &mut [(SimTime, Payload)]) {
        let mut u = self.uram.borrow_mut();
        let mut off = offset;
        for (t, p) in parts.iter_mut() {
            let n = p.len() as u64;
            *t = u.access(*t, MemDir::Write, off, n);
            off += n;
        }
        let store = u.store_mut();
        store.write_parts(offset, parts.iter_mut().map(|(_, p)| std::mem::take(p)));
    }

    fn book_read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> SimDuration {
        let done = self
            .uram
            .borrow_mut()
            .access(arrival, MemDir::Read, offset, len as u64);
        done.since(arrival)
    }

    fn read_parts(&mut self, _en: &mut Engine, offset: u64, len: usize) -> Vec<Payload> {
        self.uram
            .borrow_mut()
            .store_mut()
            .read_payload_parts(offset, len)
    }
}

/// An on-board DRAM window exposed through an FPGA BAR.
pub struct DramTarget {
    dram: Rc<RefCell<DramController>>,
    /// Offset of this window within the DRAM address space.
    window_base: u64,
}

impl DramTarget {
    /// Map `dram` starting at `window_base` within the channel.
    pub fn new(dram: Rc<RefCell<DramController>>, window_base: u64) -> Self {
        DramTarget { dram, window_base }
    }
}

impl MmioTarget for DramTarget {
    fn name(&self) -> &str {
        "onboard-dram-bar"
    }

    fn read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        out: &mut [u8],
    ) -> SimDuration {
        let mut d = self.dram.borrow_mut();
        let done = d.read(arrival, self.window_base + offset, out);
        done.since(arrival)
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: &[u8],
    ) -> SimDuration {
        let mut d = self.dram.borrow_mut();
        let done = d.write(arrival, self.window_base + offset, data);
        done.since(arrival)
    }

    fn read_payload(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        let mut d = self.dram.borrow_mut();
        let (p, done) = d.read_payload(arrival, self.window_base + offset, len);
        (p, done.since(arrival))
    }

    fn write_payload(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        let mut d = self.dram.borrow_mut();
        let done = d.write_payload(arrival, self.window_base + offset, data);
        done.since(arrival)
    }

    fn write_parts(&mut self, _en: &mut Engine, offset: u64, parts: &mut [(SimTime, Payload)]) {
        let mut d = self.dram.borrow_mut();
        for (t, p) in parts.iter_mut() {
            *t = d.access(*t, MemDir::Write, p.len() as u64);
        }
        let at = self.window_base + offset;
        d.store_mut()
            .write_parts(at, parts.iter_mut().map(|(_, p)| std::mem::take(p)));
    }

    fn book_read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        _offset: u64,
        len: usize,
    ) -> SimDuration {
        let done = self
            .dram
            .borrow_mut()
            .access(arrival, MemDir::Read, len as u64);
        done.since(arrival)
    }

    fn read_parts(&mut self, _en: &mut Engine, offset: u64, len: usize) -> Vec<Payload> {
        let at = self.window_base + offset;
        self.dram
            .borrow_mut()
            .store_mut()
            .read_payload_parts(at, len)
    }
}

/// A plain register-file / scratch target with fixed service latency.
/// Useful for config windows and in tests.
pub struct ScratchTarget {
    name: String,
    mem: SparseMemory,
    latency: SimDuration,
}

impl ScratchTarget {
    /// Create with a fixed access latency.
    pub fn new(name: impl Into<String>, latency: SimDuration) -> Self {
        ScratchTarget {
            name: name.into(),
            mem: SparseMemory::new(),
            latency,
        }
    }

    /// Functional access to the backing store.
    pub fn mem_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }
}

impl MmioTarget for ScratchTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn read(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        offset: u64,
        out: &mut [u8],
    ) -> SimDuration {
        self.mem.read(offset, out);
        self.latency
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        offset: u64,
        data: &[u8],
    ) -> SimDuration {
        self.mem.write(offset, data);
        self.latency
    }
}

/// Callback invoked by a [`NotifyTarget`] after a write lands:
/// `(engine, region offset, written bytes, arrival time)`. The hook runs
/// while the target (and typically the fabric) is borrowed — it must not
/// re-enter either; schedule an event for anything that does.
pub type WriteHook = Box<dyn FnMut(&mut Engine, u64, &[u8], SimTime)>;

/// A memory region that notifies a hook after each write — the simulation
/// stand-in for "a poller notices new bytes". NVMe completion queues use
/// this so consumers (the streamer's reorder buffer, the SPDK reactor)
/// wake without the simulator running dense polling events; consumers add
/// their own reaction latency to model real polling granularity.
pub struct NotifyTarget {
    name: String,
    mem: SparseMemory,
    latency: SimDuration,
    hook: Option<WriteHook>,
}

impl NotifyTarget {
    /// Create with a fixed access latency and no hook.
    pub fn new(name: impl Into<String>, latency: SimDuration) -> Self {
        NotifyTarget {
            name: name.into(),
            mem: SparseMemory::new(),
            latency,
            hook: None,
        }
    }

    /// Install (or replace) the write hook.
    pub fn set_hook(&mut self, hook: WriteHook) {
        self.hook = Some(hook);
    }

    /// Functional access to the backing store.
    pub fn mem_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }
}

impl MmioTarget for NotifyTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn read(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        offset: u64,
        out: &mut [u8],
    ) -> SimDuration {
        self.mem.read(offset, out);
        self.latency
    }

    fn write(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: &[u8],
    ) -> SimDuration {
        self.mem.write(offset, data);
        if let Some(hook) = &mut self.hook {
            hook(en, offset, data, arrival + self.latency);
        }
        self.latency
    }
}

/// Timing model of the URAM read path under dir contention is handled by
/// the URAM model itself; see `snacc-mem`.
#[cfg(test)]
mod tests {
    use super::*;
    use snacc_mem::{DramConfig, UramConfig};

    #[test]
    fn scratch_roundtrip() {
        let mut en = Engine::new();
        let mut t = ScratchTarget::new("regs", SimDuration::from_ns(50));
        let lat = t.write(&mut en, SimTime::ZERO, 0x10, b"abcd");
        assert_eq!(lat, SimDuration::from_ns(50));
        let mut out = [0u8; 4];
        t.read(&mut en, SimTime::ZERO, 0x10, &mut out);
        assert_eq!(&out, b"abcd");
    }

    #[test]
    fn uram_target_moves_bytes() {
        let mut en = Engine::new();
        let uram = Rc::new(RefCell::new(UramModel::new(
            "u",
            UramConfig::snacc_default(),
        )));
        let mut t = UramTarget::new(uram.clone());
        t.write(&mut en, SimTime::ZERO, 4096, b"hello");
        let mut out = [0u8; 5];
        t.read(&mut en, SimTime::ZERO, 4096, &mut out);
        assert_eq!(&out, b"hello");
        assert_eq!(uram.borrow().bytes_written(), 5);
    }

    #[test]
    fn dram_target_applies_window_base() {
        let mut en = Engine::new();
        let dram = Rc::new(RefCell::new(DramController::new(
            "d",
            DramConfig::ddr4_u280(),
        )));
        let mut t = DramTarget::new(dram.clone(), 0x100_0000);
        t.write(&mut en, SimTime::ZERO, 0, b"xy");
        let got = dram.borrow_mut().store_mut().read_vec(0x100_0000, 2);
        assert_eq!(got, b"xy");
    }

    #[test]
    fn hostmem_target_absolute_addresses() {
        let mut en = Engine::new();
        let mem = Rc::new(RefCell::new(HostMemory::default()));
        let mut t = HostMemTarget::new(mem.clone(), 0);
        t.write(&mut en, SimTime::ZERO, 0x5000, b"zz");
        assert_eq!(mem.borrow_mut().store_mut().read_vec(0x5000, 2), b"zz");
    }
}
