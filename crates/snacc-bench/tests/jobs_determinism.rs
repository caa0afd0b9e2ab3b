//! CI gate: a `--jobs N` sweep must be byte-identical to `--jobs 1`.
//!
//! Runs each bin that finishes in about a second in quick mode twice,
//! once with one worker and once with four, and compares both console
//! streams byte for byte. The sweep pool buffers each job's output and
//! flushes in job order (see `snacc_bench::sweep`), so worker count must
//! not leak into anything observable.

use std::path::Path;
use std::process::Command;

/// (binary, a string its stdout must contain)
const BINS: &[(&str, &str)] = &[
    (env!("CARGO_BIN_EXE_ext_faults"), "error_rate"),
    (env!("CARGO_BIN_EXE_fig4c"), "SPDK read"),
    (env!("CARGO_BIN_EXE_ext_qd_sweep"), "QD 256"),
    (env!("CARGO_BIN_EXE_ext_ooo"), "OoO speedup"),
    (env!("CARGO_BIN_EXE_ext_gen5"), "Gen5 x4 projection"),
    (env!("CARGO_BIN_EXE_ext_multi_ssd"), "4 SSD(s)"),
];

fn run(bin: &str, jobs: &str, dir: &Path) -> (String, String) {
    let out = Command::new(bin)
        .args(["--jobs", jobs])
        .env("SNACC_QUICK", "1")
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    assert!(out.status.success(), "{bin} --jobs {jobs} failed");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs GiB-scale sweeps; use --release (CI does)"
)]
fn parallel_sweep_output_is_byte_identical() {
    // The bins write results/<bin>.json relative to their working
    // directory; keep that out of the source tree.
    let dir = std::env::temp_dir().join(format!("snacc-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for &(bin, marker) in BINS {
        let (out1, err1) = run(bin, "1", &dir);
        let (out4, err4) = run(bin, "4", &dir);
        assert!(out1.contains(marker), "{bin} printed no table:\n{out1}");
        assert_eq!(out1, out4, "{bin}: stdout differs, --jobs 1 vs 4");
        assert_eq!(err1, err4, "{bin}: stderr differs, --jobs 1 vs 4");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
