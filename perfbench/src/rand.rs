//! `rand_4k`: the URAM streamer and SPDK each write, then read, random
//! 4 KiB blocks at queue depth 64 over a prewarmed 1 GiB span (Fig 4b).
//! Every block read back is checked against what the span holds: the
//! written pattern where a write landed, the prewarm fill elsewhere.

use crate::data::{mix, Pattern, PERIOD};
use crate::drive::{Driver, Stall};
use crate::stats::{self, Counts};
use crate::{span, Bench, Latency, Outcome, EVENT_LIMIT};
use snacc_apps::system::{layout, HostSystem, SnaccSystem, SystemConfig};
use snacc_core::config::StreamerVariant;
use snacc_core::streamer::encode_read_cmd;
use snacc_faults::FaultPlan;
use snacc_fpga::axis::StreamBeat;
use snacc_nvme::NvmeProfile;
use snacc_sim::{Payload, SimRng, SimTime};
use snacc_spdk::{CompletionInfo, IoKind, SpdkConfig, SpdkNvme};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

const BLOCK: u64 = 4096;
/// The prewarmed span the blocks are drawn from.
const SPAN: u64 = 1 << 30;
/// Blocks per phase (each of streamer write, streamer read, SPDK write,
/// SPDK read).
pub const OPS: usize = 32768;
const QD: u16 = 64;
/// Seed of the SPDK host's SSD model (the streamer system uses the
/// paper-setup default).
const HOST_SEED: u64 = 0xF1B4;

/// The content a span holds: prewarm fill, with the pattern where a
/// write landed.
struct Content {
    pattern: Pattern,
    fill: u8,
    written: BTreeSet<u64>,
    /// Addresses of writes that completed with an error status: either
    /// content may be there.
    failed_writes: BTreeSet<u64>,
}

/// How a block read back compares with the span's content.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    Ok,
    /// The block still holds the fill though a write to it was issued.
    LostWrite,
    /// Wrong, but what a read buffer can hold from an earlier read: the
    /// fill, zeros, or the pattern of another block.
    Stale,
    Bad,
}

impl Content {
    fn check(&self, addr: u64, data: &[u8]) -> Check {
        if data.len() != BLOCK as usize {
            return Check::Bad;
        }
        let all = |v: u8| data.iter().all(|&b| b == v);
        let written = self.written.contains(&addr);
        if (written && self.pattern.matches(addr, data)) || (!written && all(self.fill)) {
            Check::Ok
        } else if written && all(self.fill) {
            Check::LostWrite
        } else if all(self.fill)
            || all(0)
            || (0..PERIOD as u64)
                .step_by(BLOCK as usize)
                .any(|a| self.pattern.matches(a, data))
        {
            Check::Stale
        } else {
            Check::Bad
        }
    }

    /// Is `data`, read back from `addr` by a read that completed without
    /// error, a failure? A lost write is not when the write to `addr`
    /// failed: that failure was counted when it completed.
    fn read_failed(&self, addr: u64, data: &[u8]) -> bool {
        match self.check(addr, data) {
            Check::Ok => false,
            Check::LostWrite => !self.failed_writes.contains(&addr),
            Check::Stale | Check::Bad => true,
        }
    }
}

/// Read-back mismatches that the streamer's abandoned commands explain.
/// An abandoned write leaves the fill; an abandoned read streams whatever
/// its buffer held from an earlier read, so its data is stale, never
/// [`Check::Bad`]. The streamer reports no per-command status at its
/// ports, only how many commands it gave up on, so a lost write or stale
/// data is excused only while that count exceeds the mismatches already
/// excused. With no abandoned command every mismatch is a failure.
#[derive(Default)]
struct Excuses {
    used: u64,
    /// Written addresses excused for reading back the fill; reading one
    /// again costs no further excuse.
    lost: BTreeSet<u64>,
}

impl Excuses {
    /// Is a read of `addr` that compared as `check` a failure, with
    /// `abandoned` commands given up on since the writes began?
    fn failed(&mut self, addr: u64, check: Check, abandoned: u64) -> bool {
        match check {
            Check::Ok => false,
            Check::LostWrite if self.lost.contains(&addr) => false,
            Check::LostWrite | Check::Stale if self.used < abandoned => {
                self.used += 1;
                if check == Check::LostWrite {
                    self.lost.insert(addr);
                }
                false
            }
            _ => true,
        }
    }
}

/// One phase's simulated rate and outcome.
#[derive(Default)]
struct Phase {
    done: u64,
    failed: u64,
    gbps: Option<f64>,
}

pub struct Rand4k {
    snacc: SnaccSystem,
    host: HostSystem,
    spdk: SpdkNvme,
    /// Block addresses of the four phases.
    w_addrs: Rc<Vec<u64>>,
    r_addrs: Rc<Vec<u64>>,
    spdk_w_addrs: Rc<Vec<u64>>,
    spdk_r_addrs: Rc<Vec<u64>>,
    snacc_content: Content,
    spdk_content: Rc<RefCell<Content>>,
    phases: [Phase; 4],
    counts: Counts,
}

fn addrs(seed: u64, salt: u64) -> Rc<Vec<u64>> {
    let mut rng = SimRng::new(mix(seed, salt));
    Rc::new(
        (0..OPS)
            .map(|_| rng.gen_range(SPAN / BLOCK) * BLOCK)
            .collect(),
    )
}

impl Rand4k {
    /// Bring both systems up and prewarm their spans. With a fault plan,
    /// its retry policy and injectors go into the streamer system only.
    pub fn setup(seed: u64, plan: Option<&FaultPlan>) -> Rand4k {
        let fill = (mix(seed, 3) % 255) as u8 + 1;
        let cfg = match plan {
            Some(p) => SystemConfig::snacc_faulted(StreamerVariant::Uram, p),
            None => SystemConfig::snacc(StreamerVariant::Uram),
        };
        let mut snacc = span::time("apps.bring_up", || SnaccSystem::bring_up(cfg));
        if let Some(p) = plan {
            snacc.inject_faults(p);
        }
        span::time("nvme.prewarm", || {
            snacc.nvme.with(|d| d.nand_mut().prewarm(0, SPAN, fill))
        });
        snacc.reset_pcie_meters();
        snacc.en.set_event_limit(EVENT_LIMIT);

        let mut host = span::time("apps.bring_up", || {
            HostSystem::bring_up(NvmeProfile::samsung_990pro(), HOST_SEED)
        });
        let spdk = SpdkNvme::new(
            host.fabric.clone(),
            host.hostmem.clone(),
            host.nvme.clone(),
            SpdkConfig::with_queue_depth(QD),
        );
        span::time("spdk.init", || {
            spdk.init(&mut host.en, layout::SPDK_CQ)
                .expect("SPDK init on a fresh host");
            host.en.run();
        });
        span::time("nvme.prewarm", || {
            host.nvme.with(|d| d.nand_mut().prewarm(0, SPAN, fill))
        });
        host.fabric.borrow_mut().reset_meters();
        host.en.set_event_limit(EVENT_LIMIT);

        let content = |salt| Content {
            pattern: Pattern::new(mix(seed, salt)),
            fill,
            written: BTreeSet::new(),
            failed_writes: BTreeSet::new(),
        };
        Rand4k {
            snacc,
            host,
            spdk,
            w_addrs: addrs(seed, 4),
            r_addrs: addrs(seed, 5),
            spdk_w_addrs: addrs(seed, 6),
            spdk_r_addrs: addrs(seed, 7),
            snacc_content: content(8),
            spdk_content: Rc::new(RefCell::new(content(9))),
            phases: Default::default(),
            counts: Counts::new(),
        }
    }

    /// Random writes through the write port, as many in flight as the
    /// port holds (Fig 4b's driver).
    fn streamer_writes(&mut self, d: &mut Driver) -> Result<(), Stall> {
        let sys = &mut self.snacc;
        let ports = sys.streamer.ports();
        d.watch(&ports.rd_data, &ports.wr_in, sys.en.now());
        let gave_up = sys.streamer.metrics().gave_up;
        let gave_up_before = gave_up.get();
        let t0 = sys.en.now();
        let phase = &mut self.phases[0];
        let mut issued = 0;
        while (phase.done as usize) < OPS {
            if issued < OPS && ports.wr_in.borrow().has_space(BLOCK as usize + 8) {
                let addr = self.w_addrs[issued];
                let hdr = StreamBeat::mid(addr.to_le_bytes().to_vec());
                if d.push(&ports.wr_in, &mut sys.en, hdr) {
                    let data = self.snacc_content.pattern.window(addr, BLOCK as usize);
                    let ok = d.push(&ports.wr_in, &mut sys.en, StreamBeat::last(data));
                    assert!(ok, "space was checked for header and data");
                    self.snacc_content.written.insert(addr);
                    issued += 1;
                    continue;
                }
            }
            match d.pop(&ports.wr_resp, &mut sys.en) {
                Some(token) => {
                    phase.done += 1;
                    phase.failed += u64::from(token.data.as_slice() != BLOCK.to_le_bytes());
                }
                None => d.step(&mut sys.en, "random write response")?,
            }
        }
        d.run(&mut sys.en)?;
        // A write the streamer abandoned still answers the port; the
        // streamer's count is the only per-write failure signal.
        phase.failed += gave_up.get() - gave_up_before;
        phase.gbps = Some(rate(OPS, t0, sys.en.now()));
        Ok(())
    }

    /// Random reads through the command port, keeping its FIFO primed.
    /// `gave_up_at_writes` is the streamer's abandoned-command count
    /// before the writes began.
    fn streamer_reads(&mut self, d: &mut Driver, gave_up_at_writes: u64) -> Result<(), Stall> {
        let sys = &mut self.snacc;
        let ports = sys.streamer.ports();
        d.watch(&ports.rd_data, &ports.wr_in, sys.en.now());
        let gave_up = sys.streamer.metrics().gave_up;
        let gave_up_before = gave_up.get();
        let t0 = sys.en.now();
        let phase = &mut self.phases[1];
        let mut issued = 0;
        let mut bad = 0;
        let mut excuses = Excuses::default();
        let mut beats = Vec::new();
        while (phase.done as usize) < OPS {
            while issued < OPS {
                let cmd = encode_read_cmd(self.r_addrs[issued], BLOCK);
                if !d.push(&ports.rd_cmd, &mut sys.en, cmd) {
                    break;
                }
                issued += 1;
            }
            match d.pop(&ports.rd_data, &mut sys.en) {
                Some(beat) => {
                    let last = beat.last;
                    beats.push(beat.data);
                    if last {
                        let addr = self.r_addrs[phase.done as usize];
                        let beats = std::mem::take(&mut beats);
                        let content = &self.snacc_content;
                        let check = d
                            .checks
                            .time(|| content.check(addr, Payload::concat(&beats).as_slice()));
                        // Every command abandoned before this read's data
                        // arrived has been counted by now.
                        let abandoned = gave_up.get() - gave_up_at_writes;
                        bad += u64::from(excuses.failed(addr, check, abandoned));
                        phase.done += 1;
                    }
                }
                None => d.step(&mut sys.en, "random read data")?,
            }
        }
        d.run(&mut sys.en)?;
        // Abandoned reads failed whatever they streamed; mismatches their
        // and the writes' abandonments do not explain fail on top.
        phase.failed = gave_up.get() - gave_up_before + bad;
        phase.gbps = Some(rate(OPS, t0, sys.en.now()));
        Ok(())
    }

    /// SPDK closed loop at QD 64: each completion submits the next
    /// command from the hook, as the host driver would.
    fn spdk_phase(&mut self, d: &mut Driver, kind: IoKind) -> Result<(), Stall> {
        let (addrs, idx) = match kind {
            IoKind::Write => (self.spdk_w_addrs.clone(), 2),
            IoKind::Read => (self.spdk_r_addrs.clone(), 3),
        };
        let tally = Rc::new(RefCell::new(Phase::default()));
        let slots: Rc<RefCell<HashMap<u16, (usize, u64)>>> = Rc::default();
        let issued = Rc::new(Cell::new(0usize));
        let submit = {
            let spdk = self.spdk.clone();
            let content = self.spdk_content.clone();
            let slots = slots.clone();
            let issued = issued.clone();
            move |en: &mut snacc_sim::Engine| {
                let i = issued.get();
                let addr = addrs[i];
                let r = match kind {
                    IoKind::Read => span::time("spdk.submit", || spdk.submit_read(en, addr, BLOCK)),
                    IoKind::Write => {
                        let data = content.borrow().pattern.window(addr, BLOCK as usize);
                        content.borrow_mut().written.insert(addr);
                        span::time("spdk.submit", || spdk.submit_write_payload(en, addr, data))
                    }
                };
                if let Ok(cid) = r {
                    let slot = spdk.slot_of(cid).expect("just submitted");
                    slots.borrow_mut().insert(cid, (slot, addr));
                    issued.set(i + 1);
                }
            }
        };
        let submit = Rc::new(RefCell::new(submit));
        {
            let spdk = self.spdk.clone();
            let content = self.spdk_content.clone();
            let tally = tally.clone();
            let submit = submit.clone();
            let issued = issued.clone();
            let checks = d.checks.clone();
            self.spdk
                .set_completion_hook(move |en, info: CompletionInfo| {
                    let (slot, addr) = slots.borrow_mut().remove(&info.cid).expect("known cid");
                    let mut t = tally.borrow_mut();
                    t.done += 1;
                    if !info.ok {
                        t.failed += 1;
                        if info.kind == IoKind::Write {
                            content.borrow_mut().failed_writes.insert(addr);
                        }
                    } else if info.kind == IoKind::Read {
                        let bad = checks.time(|| {
                            let data = span::time("spdk.take_read_data", || {
                                spdk.take_read_data(slot, BLOCK as usize)
                            });
                            content.borrow().read_failed(addr, &data)
                        });
                        t.failed += u64::from(bad);
                    }
                    drop(t);
                    if issued.get() < OPS {
                        (submit.borrow_mut())(en);
                    }
                });
        }
        let en = &mut self.host.en;
        let t0 = en.now();
        while issued.get() < OPS.min(QD as usize) {
            let before = issued.get();
            (submit.borrow_mut())(en);
            assert!(issued.get() > before, "priming fits the queue");
        }
        let r = d.run(en);
        self.spdk.set_completion_hook(|_, _| {});
        let t = std::mem::take(&mut *tally.borrow_mut());
        let now = en.now();
        let phase = &mut self.phases[idx];
        *phase = t;
        r?;
        if (phase.done as usize) < OPS {
            return Err(Stall::Drained("SPDK completions"));
        }
        phase.gbps = Some(rate(OPS, t0, now));
        Ok(())
    }
}

fn rate(ops: usize, t0: SimTime, t1: SimTime) -> f64 {
    (ops as u64 * BLOCK) as f64 / 1e9 / t1.since(t0).as_secs_f64()
}

impl Bench for Rand4k {
    fn run(&mut self, d: &mut Driver) -> Result<(), Stall> {
        let before = stats::snacc(&self.snacc);
        let gave_up = self.snacc.streamer.metrics().gave_up.get();
        let r = self
            .streamer_writes(d)
            .and_then(|_| self.streamer_reads(d, gave_up));
        d.unwatch();
        stats::add(
            &mut self.counts,
            &stats::since(&stats::snacc(&self.snacc), &before),
        );
        r?;
        let before = stats::host(&self.host, &self.spdk);
        let r = self
            .spdk_phase(d, IoKind::Write)
            .and_then(|_| self.spdk_phase(d, IoKind::Read));
        stats::add(
            &mut self.counts,
            &stats::since(&stats::host(&self.host, &self.spdk), &before),
        );
        r
    }

    fn finish(&mut self) -> Outcome {
        let mut out = Outcome {
            attempted: 4 * OPS as u64,
            ..Outcome::default()
        };
        let keys = ["uram_rand_w", "uram_rand_r", "spdk_rand_w", "spdk_rand_r"];
        let mut done = 0;
        for (p, key) in self.phases.iter().zip(keys) {
            done += p.done;
            out.failed += p.failed;
            if let Some(g) = p.gbps {
                out.rows.insert(key, g);
            }
        }
        out.failed += out.attempted - done;
        out.user_bytes = done * BLOCK;
        out.latency = Some(Latency::of(&self.snacc.streamer.metrics().cmd_latency_us));
        stats::add(&mut out.counts, &self.counts);
        stats::add(
            &mut out.counts,
            &stats::media(&self.snacc.nvme, &self.snacc.hostmem),
        );
        stats::add(
            &mut out.counts,
            &stats::media(&self.host.nvme, &self.host.hostmem),
        );
        stats::scrub(&self.snacc.nvme, &self.snacc.hostmem);
        stats::scrub(&self.host.nvme, &self.host.hostmem);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn content() -> Content {
        Content {
            pattern: Pattern::new(5),
            fill: 0x5a,
            written: BTreeSet::from([0, BLOCK]),
            failed_writes: BTreeSet::new(),
        }
    }

    #[test]
    fn a_lost_write_fails_unless_a_command_was_abandoned() {
        let c = content();
        let fill = vec![0x5a; BLOCK as usize];
        let check = c.check(0, &fill);
        assert!(check == Check::LostWrite);
        assert!(Excuses::default().failed(0, check, 0), "nothing abandoned");

        let mut e = Excuses::default();
        assert!(!e.failed(0, check, 1), "one abandoned write explains it");
        assert!(!e.failed(0, check, 1), "reading it again costs nothing");
        assert!(e.failed(BLOCK, c.check(BLOCK, &fill), 1), "a second loss");
        let zeros = vec![0u8; BLOCK as usize];
        assert!(c.check(2 * BLOCK, &zeros) == Check::Stale);
        assert!(e.failed(2 * BLOCK, c.check(2 * BLOCK, &zeros), 1));
        assert!(!e.failed(2 * BLOCK, c.check(2 * BLOCK, &zeros), 2));
        let other = c.pattern.window(9 * BLOCK, BLOCK as usize);
        assert!(c.check(2 * BLOCK, other.as_slice()) == Check::Stale);
        let good = c.pattern.window(BLOCK, BLOCK as usize);
        assert!(!e.failed(BLOCK, c.check(BLOCK, good.as_slice()), 2));
        let mut garbage = good.as_slice().to_vec();
        garbage[100] ^= 1;
        assert!(c.check(BLOCK, &garbage) == Check::Bad);
        assert!(
            e.failed(BLOCK, Check::Bad, 10),
            "no abandonment explains it"
        );
    }

    #[test]
    fn spdk_excuses_only_the_writes_that_failed() {
        let mut c = content();
        let fill = vec![0x5a; BLOCK as usize];
        assert!(c.read_failed(0, &fill), "write reported done, data lost");
        c.failed_writes.insert(0);
        assert!(!c.read_failed(0, &fill), "write reported failed");
        assert!(!c.read_failed(0, c.pattern.window(0, BLOCK as usize).as_slice()));
        assert!(c.read_failed(0, &[0u8; BLOCK as usize]), "neither content");
        assert!(!c.read_failed(2 * BLOCK, &fill), "never written");
    }
}
