//! A `--faults` plan that cannot be used is a command-line error: the bin
//! prints one `error: --faults …` line and exits with status 2, before
//! any simulation runs and without a panic.

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

fn assert_usage_error(args: &[&str], dir: &Path, detail: &str) {
    let (code, stdout, stderr) = run(args, dir);
    assert_eq!(code, Some(2), "{args:?}: exit status\n{stderr}");
    assert_eq!(stdout, "", "{args:?}: printed results");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: one error line\n{stderr}");
    assert!(
        lines[0].starts_with("error: --faults ") && lines[0].contains(detail),
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

    assert_usage_error(&["--faults", "no-such-plan.toml"], &dir, "cannot read");
    assert_usage_error(&[&format!("--faults={invalid}")], &dir, "invalid");
    assert_usage_error(&["--faults", invalid], &dir, "invalid");
    assert_usage_error(&["--faults"], &dir, "needs a plan path");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
