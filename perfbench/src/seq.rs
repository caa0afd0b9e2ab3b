//! `seq_stream`: the URAM and Host-DRAM streamers each write a span
//! sequentially in 1 GiB requests through the user ports, then read it
//! back (Fig 4a). Every byte read back is checked against the pattern
//! written.

use crate::data::{mix, Pattern, MAX_WINDOW};
use crate::drive::{Driver, Stall};
use crate::stats::{self, Counts};
use crate::{span, Bench, Outcome, EVENT_LIMIT};
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_core::config::StreamerVariant;
use snacc_core::streamer::encode_read_cmd;
use snacc_fpga::axis::StreamBeat;

const GIB: u64 = 1 << 30;
/// Bytes written, then read, per variant. The first GiB written fills
/// the SSD's cache; the next two show its alternating program rates.
const SPAN: u64 = 3 * GIB;
/// Bytes per beat pushed into the write port.
const CHUNK: u64 = MAX_WINDOW as u64;

struct Variant {
    sys: SnaccSystem,
    /// Paper-row keys: (write lo, write hi, read).
    rows: [&'static str; 3],
    /// Simulated GB/s of each 1 GiB write and read request.
    write_rates: Vec<f64>,
    read_rates: Vec<f64>,
    /// Read requests whose data did not match the pattern written.
    bad_reads: u64,
    /// Write requests whose response token did not match their length.
    bad_tokens: u64,
}

pub struct SeqStream {
    pattern: Pattern,
    /// Where the span starts on the SSD (1 GiB aligned, from the seed).
    base: u64,
    variants: Vec<Variant>,
    counts: Counts,
}

impl SeqStream {
    pub fn setup(seed: u64) -> SeqStream {
        let pattern = Pattern::new(mix(seed, 1));
        let base = (mix(seed, 2) % 16) * GIB;
        let variants = [
            (
                StreamerVariant::Uram,
                ["uram_seq_w_lo", "uram_seq_w_hi", "uram_seq_r"],
            ),
            (
                StreamerVariant::HostDram,
                ["hostdram_seq_w_lo", "hostdram_seq_w_hi", "hostdram_seq_r"],
            ),
        ]
        .into_iter()
        .map(|(v, rows)| {
            let mut sys = span::time("apps.bring_up", || {
                SnaccSystem::bring_up(SystemConfig::snacc(v))
            });
            sys.reset_pcie_meters();
            sys.en.set_event_limit(EVENT_LIMIT);
            Variant {
                sys,
                rows,
                write_rates: Vec::new(),
                read_rates: Vec::new(),
                bad_reads: 0,
                bad_tokens: 0,
            }
        })
        .collect();
        SeqStream {
            pattern,
            base,
            variants,
            counts: Counts::new(),
        }
    }
}

/// One write request: address beat, then the data in 64 KiB beats, then
/// wait for the response token.
fn write(
    d: &mut Driver,
    sys: &mut SnaccSystem,
    pattern: &Pattern,
    addr: u64,
    len: u64,
) -> Result<bool, Stall> {
    let ports = sys.streamer.ports();
    d.watch(&ports.rd_data, &ports.wr_in, sys.en.now());
    let header = StreamBeat::mid(addr.to_le_bytes().to_vec());
    d.push_until(&ports.wr_in, &mut sys.en, header, "write header space")?;
    let mut off = 0;
    while off < len {
        let n = CHUNK.min(len - off);
        let beat = StreamBeat {
            data: pattern.window(addr + off, n as usize),
            last: off + n == len,
        };
        d.push_until(&ports.wr_in, &mut sys.en, beat, "write data space")?;
        off += n;
    }
    loop {
        if let Some(token) = d.pop(&ports.wr_resp, &mut sys.en) {
            return Ok(token.data.as_slice() == len.to_le_bytes());
        }
        d.step(&mut sys.en, "write response")?;
    }
}

/// One read request; checks each beat against the pattern as it
/// arrives (holding the beats would hold every byte read). Returns
/// whether the data matched.
fn read(
    d: &mut Driver,
    sys: &mut SnaccSystem,
    pattern: &Pattern,
    addr: u64,
    len: u64,
) -> Result<bool, Stall> {
    let ports = sys.streamer.ports();
    d.watch(&ports.rd_data, &ports.wr_in, sys.en.now());
    d.push_until(
        &ports.rd_cmd,
        &mut sys.en,
        encode_read_cmd(addr, len),
        "read command space",
    )?;
    let mut at = addr;
    let mut ok = true;
    loop {
        match d.pop(&ports.rd_data, &mut sys.en) {
            Some(beat) => {
                ok &= d.checks.time(|| pattern.matches(at, beat.data.as_slice()));
                at += beat.len() as u64;
                if beat.last {
                    return Ok(ok && at == addr + len);
                }
            }
            None => d.step(&mut sys.en, "read data")?,
        }
    }
}

fn gbps(bytes: u64, sys: &SnaccSystem, t0: snacc_sim::SimTime) -> f64 {
    bytes as f64 / 1e9 / sys.en.now().since(t0).as_secs_f64()
}

impl Variant {
    fn run(&mut self, d: &mut Driver, pattern: &Pattern, base: u64) -> Result<(), Stall> {
        for i in 0..SPAN / GIB {
            let t0 = self.sys.en.now();
            let ok = write(d, &mut self.sys, pattern, base + i * GIB, GIB)?;
            self.bad_tokens += u64::from(!ok);
            d.run(&mut self.sys.en)?;
            self.write_rates.push(gbps(GIB, &self.sys, t0));
        }
        for i in 0..SPAN / GIB {
            let t0 = self.sys.en.now();
            let addr = base + i * GIB;
            let ok = read(d, &mut self.sys, pattern, addr, GIB)?;
            self.bad_reads += u64::from(!ok);
            d.run(&mut self.sys.en)?;
            self.read_rates.push(gbps(GIB, &self.sys, t0));
        }
        Ok(())
    }
}

impl Bench for SeqStream {
    fn run(&mut self, d: &mut Driver) -> Result<(), Stall> {
        for v in &mut self.variants {
            let before = stats::snacc(&v.sys);
            let r = v.run(d, &self.pattern, self.base);
            d.unwatch();
            stats::add(
                &mut self.counts,
                &stats::since(&stats::snacc(&v.sys), &before),
            );
            r?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Outcome {
        let mut out = Outcome::default();
        let ops_per_variant = 2 * SPAN / GIB;
        out.attempted = ops_per_variant * self.variants.len() as u64;
        let mut done = 0;
        for v in &mut self.variants {
            done += (v.write_rates.len() + v.read_rates.len()) as u64;
            out.failed += v.bad_tokens + v.bad_reads;
            // Fig 4a: the first write window fills the cache and is left
            // out of the lo/hi pair; reads report the best window.
            let steady = &v.write_rates[1.min(v.write_rates.len())..];
            let lo = steady.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = steady.iter().copied().fold(0.0, f64::max);
            let read = v.read_rates.iter().copied().fold(0.0, f64::max);
            if !steady.is_empty() && v.read_rates.len() as u64 == SPAN / GIB {
                out.rows.insert(v.rows[0], lo);
                out.rows.insert(v.rows[1], hi);
                out.rows.insert(v.rows[2], read);
            }
            out.user_bytes += GIB * (v.write_rates.len() + v.read_rates.len()) as u64;
            if out.latency.is_none() {
                out.latency = Some(crate::Latency::of(&v.sys.streamer.metrics().cmd_latency_us));
            }
            stats::add(&mut out.counts, &stats::media(&v.sys.nvme, &v.sys.hostmem));
            stats::scrub(&v.sys.nvme, &v.sys.hostmem);
        }
        out.failed += out.attempted - done;
        stats::add(&mut out.counts, &self.counts);
        out
    }
}
