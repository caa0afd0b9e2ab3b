//! A `--faults` plan that cannot be used, a flag given without its value
//! and a `--jobs` that is not a positive integer are command-line errors:
//! the bin prints one `error: --<flag> …` line and exits with status 2,
//! before any simulation runs and without a panic.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ext_faults");

/// Run the bin with `args` in `dir`; returns (exit code, stdout, stderr).
fn run(args: &[&str], dir: &Path) -> (Option<i32>, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .env("SNACC_QUICK", "1")
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("run {BIN}: {e}"));
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

fn assert_usage_error(args: &[&str], dir: &Path, flag: &str, detail: &str) {
    let (code, stdout, stderr) = run(args, dir);
    assert_eq!(code, Some(2), "{args:?}: exit status\n{stderr}");
    assert_eq!(stdout, "", "{args:?}: printed results");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: one error line\n{stderr}");
    assert!(
        lines[0].starts_with(&format!("error: {flag} ")) && lines[0].contains(detail),
        "{args:?}: {stderr}"
    );
}

#[test]
fn unusable_fault_plans_exit_with_status_2() {
    let dir = std::env::temp_dir().join(format!("snacc-faults-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let invalid = dir.join("invalid.toml");
    std::fs::write(&invalid, "seed = 1\n[nvme]\nerror_rate = 2.5\n").expect("write plan");
    let invalid = invalid.to_str().expect("utf8 path");

    let f = "--faults";
    assert_usage_error(&[f, "no-such-plan.toml"], &dir, f, "cannot read");
    assert_usage_error(&[&format!("{f}={invalid}")], &dir, f, "invalid");
    assert_usage_error(&[f, invalid], &dir, f, "invalid");
    assert_usage_error(&[f], &dir, f, "needs a plan path");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn flags_without_values_and_bad_jobs_exit_with_status_2() {
    let dir = std::env::temp_dir().join(format!("snacc-usage-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for flag in ["--trace", "--metrics-json", "--perf-json"] {
        assert_usage_error(&[flag], &dir, flag, "needs an output path");
    }
    assert_usage_error(
        &["--trace", "--jobs", "1"],
        &dir,
        "--trace",
        "needs an output path",
    );
    assert_usage_error(&["--jobs"], &dir, "--jobs", "needs a worker count");
    for bad in [&["--jobs", "abc"][..], &["--jobs=x"], &["--jobs", "0"]] {
        assert_usage_error(bad, &dir, "--jobs", "not a positive worker count");
    }
    // Nothing ran, so nothing was written.
    let left = std::fs::read_dir(&dir).expect("read scratch dir").count();
    assert_eq!(left, 0, "a rejected run wrote files");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
