//! End-to-end datapath benchmarks: simulated bytes moved through the
//! full model stack per wall-clock second.
//!
//! Three shapes cover the hot paths the zero-copy payload work targets:
//! sequential streamer transfers (64 KiB beats → NVMe), random 4 KiB
//! writes (payload reuse across commands), and the Fig 5/6 case study
//! (Ethernet frames → RX bridge → database controller → streamer), which
//! moves every image byte across four model layers.
//!
//! Two more cases time the functional media layer on its own
//! (`SegmentMemory`, the store behind NAND and host memory): scattered
//! 4 KiB writes and read-backs over a prewarmed span (the Fig 4b media
//! shape, which must stay zero-copy), and dense 48 B writes into one
//! window (the fragmentation case the copy-on-write coalescer bounds).
//!
//! Run with `cargo bench -p snacc-bench --bench datapath`; set
//! `SNACC_QUICK=1` for the CI smoke sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::workloads::{self, Dir};
use snacc_core::config::{StreamerConfig, StreamerVariant};
use snacc_mem::SegmentMemory;
use snacc_sim::{Payload, SimRng};

fn quick() -> bool {
    std::env::var_os("SNACC_QUICK").is_some()
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

    g.finish();
}

criterion_group!(benches, datapath_benches);
criterion_main!(benches);
