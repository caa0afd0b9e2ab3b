//! Sec 7 extension — multi-SSD scaling: aggregate sequential write
//! bandwidth over 1–4 SSDs, one streamer instance per drive, with a
//! striping layer fanning one logical stream across them.

use snacc_apps::system::layout;
use snacc_bench::sweep;
use snacc_bench::{print_table, BenchRecord, Telemetry};
use snacc_core::config::{StreamerConfig, StreamerVariant};
use snacc_core::hostinit::SnaccHostDriver;
use snacc_core::multi::MultiSsd;
use snacc_core::plugin::NvmeSubsystem;
use snacc_fpga::axis;
use snacc_fpga::tapasco::TapascoShell;
use snacc_mem::{AddrRange, HostMemory};
use snacc_nvme::{NvmeDeviceHandle, NvmeProfile};
use snacc_pcie::target::HostMemTarget;
use snacc_pcie::{PcieFabric, HOST_NODE};
use snacc_sim::{Engine, EngineError, Payload};
use std::cell::RefCell;
use std::rc::Rc;

fn aggregate_write_bw(n_ssds: usize) -> Result<f64, EngineError> {
    let mut en = Engine::new();
    let mut fabric = PcieFabric::new();
    let hostmem = Rc::new(RefCell::new(HostMemory::default()));
    let t = Rc::new(RefCell::new(HostMemTarget::new(hostmem.clone(), 0)));
    fabric.map_region(HOST_NODE, AddrRange::new(0, layout::HOST_SPAN), t);
    let fabric = Rc::new(RefCell::new(fabric));
    let mut shell = TapascoShell::new(fabric.clone(), layout::SHELL_BAR);

    let mut streamers = Vec::new();
    for i in 0..n_ssds {
        let mut plugin = NvmeSubsystem::new(StreamerConfig::snacc(StreamerVariant::Uram));
        shell.apply_plugin(&mut en, &mut plugin);
        let streamer = plugin.streamer();
        let nvme = NvmeDeviceHandle::attach(
            fabric.clone(),
            (layout::NVME_BAR + (i as u64)) << 28,
            NvmeProfile::samsung_990pro(),
            100 + i as u64,
        );
        let mut driver = SnaccHostDriver::new(fabric.clone(), hostmem.clone(), nvme.clone());
        driver.bring_up(&mut en, &streamer, 1).expect("bring-up");
        streamers.push(streamer);
    }
    let multi = MultiSsd::new(streamers.clone(), 1 << 20);

    // Stream 1 GiB of striped writes, paced by responses.
    let total: u64 = 1 << 30;
    let stripe_batch: u64 = (n_ssds as u64) << 20;
    // One shared batch buffer: every stripe beat is a window of it.
    let data = Payload::from_vec((0..stripe_batch).map(|i| i as u8).collect());
    let t0 = en.now();
    let mut off = 0u64;
    while off < total {
        multi.write_striped(&mut en, off, &data)?;
        en.try_run()?;
        off += stripe_batch;
    }
    // Drain responses.
    for s in &streamers {
        let ports = s.ports();
        while axis::pop(&ports.wr_resp, &mut en).is_some() {}
    }
    let dt = en.now().since(t0).as_secs_f64();
    Ok(total as f64 / 1e9 / dt)
}

fn main() {
    let telemetry = Telemetry::from_args();
    let records = sweep::map(telemetry.jobs(), (1..=4usize).collect(), |log, n| {
        let bw = aggregate_write_bw(n).map_err(|e| format!("{n} SSD(s): {e}"))?;
        log.println(format!(
            "{n} SSD(s): {bw:.2} GB/s aggregate sequential write"
        ));
        Ok(BenchRecord::new(
            "ext_multi_ssd",
            &format!("{n} SSD"),
            bw,
            None,
            "GB/s",
        ))
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()
    .unwrap_or_else(|e| {
        eprintln!("ext_multi_ssd: {e}");
        std::process::exit(1)
    });
    print_table("Sec 7 extension — multi-SSD write scaling", &records);
    snacc_bench::report::save_json(&records);
    telemetry.finish();
}
