//! Sec 5.2 note — "SPDK can achieve even higher bandwidth when the
//! submission queue size is increased": random-read QD sweep.

use snacc_bench::sweep;
use snacc_bench::workloads::{spdk_bandwidth, Dir};
use snacc_bench::{print_table, BenchRecord, Telemetry};

fn main() {
    let telemetry = Telemetry::from_args();
    let total: u64 = if std::env::var("SNACC_QUICK").is_ok() {
        128 << 20
    } else {
        512 << 20
    };
    let qds = vec![8u16, 16, 32, 64, 128, 256];
    let records = sweep::map(telemetry.jobs(), qds, |_, qd| {
        let bw = spdk_bandwidth(Dir::Read, true, total, qd, 31);
        BenchRecord::new("ext_qd_sweep", &format!("QD {qd}"), bw, None, "GB/s")
    });
    print_table("SPDK random 4 KiB read vs submission queue depth", &records);
    snacc_bench::report::save_json(&records);
    telemetry.finish();
}
