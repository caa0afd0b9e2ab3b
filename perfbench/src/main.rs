//! `snacc-perfbench --workload <seq_stream|rand_4k|case_study> --seed <n>
//! --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs rounds of the workload for `--seconds`, each in a child process
//! of its own (`--round <id>`), and prints every metric as
//! `name value unit`, the rounds' `sim_digest`, and as the last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. End-to-end metrics are medians over untraced rounds;
//! host times are scaled to the probed host speed (see `probe.rs`).
//! With `--trace 1` untraced and traced rounds alternate; per-layer
//! numbers come from the traced ones, whose host-time spans are written
//! to `<out>/<workload>-<seed>-spans.json`. Exits 1 if a round stalled
//! or crashed, 2 on bad arguments.

use serde_json::{Map, Value};
use snacc_perfbench::{median, paper, probe, run_round, Summary, Workload, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest untraced rounds an end-to-end run reports medians over.
const MIN_ROUNDS: usize = 3;
/// Start no round after this much host time (the run must end in 180 s).
const LAST_START_S: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    /// Child mode: run the one round with this id.
    round: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut round) =
        (None, None, None, None, None);
    let mut out = PathBuf::from("perfbench-out");
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .map_err(|_| format!("bad seconds {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            "--out" => out = val.into(),
            "--round" => round = Some(val.parse().map_err(|_| format!("bad round {val}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(0.0),
        trace: trace.ok_or("--trace is required")?,
        out,
        round,
    })
}

fn spans_path(args: &Args) -> PathBuf {
    args.out
        .join(format!("{}-{}-spans.json", args.workload.name(), args.seed))
}

/// Child mode: run one round, write its spans if traced, and print its
/// summary as the last line.
fn child(args: &Args, run_id: u32) {
    let r = run_round(args.workload, args.seed, args.trace, None, run_id);
    if let Some(rec) = &r.spans {
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|_| std::fs::write(spans_path(args), serde_json::to_string(&rec.to_json())));
        if let Err(e) = written {
            eprintln!("snacc-perfbench: cannot write spans: {e}");
        }
    }
    println!(
        "{}",
        serde_json::to_string(&Summary::of(&r, args.workload).to_json())
    );
}

/// Run round `run_id` in a child process.
fn spawn_round(args: &Args, run_id: u32, traced: bool) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--round", &run_id.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start round: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    serde_json::from_str(last)
        .ok()
        .and_then(|v| Summary::from_json(&v))
        .ok_or_else(|| format!("round {run_id} ended with {} and no summary", out.status))
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn med(rounds: &[&Summary], f: impl Fn(&Summary) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Median of a host time over `rounds`, each round's value scaled by its
/// own probe: `NOMINAL_S / probe_s` (see [`probe`]).
fn scaled(rounds: &[&Summary], f: impl Fn(&Summary) -> f64) -> f64 {
    med(rounds, |r| f(r) * probe::NOMINAL_S / r.probe_s)
}

fn end_to_end(plain: &[&Summary]) -> Metrics {
    let attempted: u64 = plain.iter().map(|r| r.attempted).sum();
    let failed: u64 = plain.iter().map(|r| r.failed).sum();
    vec![
        ("setup_s", scaled(plain, |r| r.setup_s), "s"),
        ("wall_s", scaled(plain, |r| r.wall_s), "s"),
        ("peak_rss_mb", med(plain, |r| r.peak_rss_mb), "MB"),
        (
            "paper_err_pct",
            plain[0].paper_err_pct.unwrap_or(f64::NAN),
            "%",
        ),
        ("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
    ]
}

/// Simulated counts from the last traced round (they repeat exactly);
/// host times as medians over traced rounds; set-up memory over
/// untraced rounds.
fn per_layer(plain: &[&Summary], traced: &[&Summary]) -> Metrics {
    let last = traced[traced.len() - 1];
    let layer = |r: &Summary, k: &str| r.layers.get(k).copied().unwrap_or(0.0);
    let attempted: u64 = traced.iter().map(|r| r.attempted).sum();
    let failed: u64 = traced.iter().map(|r| r.failed).sum();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "sim.drive_s" | "sim.host_ns_per_event" | "bench.driver_s" => {
                    scaled(traced, |r| layer(r, name))
                }
                "mem.rss_after_setup_mb" => med(plain, |r| r.rss_after_setup_mb),
                "trace.overhead_ratio" => med(traced, |r| r.wall_s) / med(plain, |r| r.wall_s),
                "fail_ratio" => failed as f64 / attempted as f64,
                _ => layer(last, name),
            };
            (name, value, unit)
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snacc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(run_id) = args.round {
        child(&args, run_id);
        return;
    }
    let w = args.workload;
    let start = Instant::now();
    let mut rounds: Vec<Summary> = Vec::new();
    loop {
        let mut kinds = vec![false];
        if args.trace {
            kinds.push(true);
        }
        for traced in kinds {
            match spawn_round(&args, rounds.len() as u32, traced) {
                Ok(s) => rounds.push(s),
                Err(e) => {
                    eprintln!("snacc-perfbench: workload {}: {e}", w.name());
                    std::process::exit(1);
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = args.trace || rounds.len() >= MIN_ROUNDS;
        let stalled = rounds.iter().any(|r| r.stall.is_some());
        if stalled || (enough && elapsed >= args.seconds) || elapsed >= LAST_START_S {
            break;
        }
    }
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "round {i}{}: setup_s {:.6} wall_s {:.6} probe_s {:.6} rss_after_setup_mb {:.1} peak_rss_mb {:.1}",
            if r.traced { " (traced)" } else { "" },
            r.setup_s,
            r.wall_s,
            r.probe_s,
            r.rss_after_setup_mb,
            r.peak_rss_mb
        );
    }
    let plain: Vec<&Summary> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Summary> = rounds.iter().filter(|r| r.traced).collect();

    let digest = rounds[0].digest;
    let same_digest = rounds.iter().all(|r| r.digest == digest);
    let correct = same_digest && rounds.iter().all(|r| r.correct);
    let e2e = end_to_end(&plain);
    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        e2e.clone()
    };
    for (name, value, unit) in e2e
        .iter()
        .chain(if args.trace { &metrics[..] } else { &[] })
    {
        println!("{name} {value} {unit}");
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    if !args.trace {
        println!("fail_ratio {} ratio", failed as f64 / attempted as f64);
    }
    println!("failed {failed} of {attempted} ops");
    println!(
        "unscaled medians: setup_s {} wall_s {}; probe_s {} (nominal {})",
        med(&plain, |r| r.setup_s),
        med(&plain, |r| r.wall_s),
        med(&plain, |r| r.probe_s),
        probe::NOMINAL_S
    );
    for row in paper::rows().iter().filter(|r| r.workload == w.name()) {
        let sim = rounds[0].rows.get(&row.key);
        println!(
            "paper_row {} ({} {}{}): simulated {} paper {} GB/s",
            row.key,
            row.figure,
            row.config,
            row.part.as_ref().map_or(String::new(), |p| format!(" {p}")),
            sim.map_or("-".to_string(), |v| format!("{v:.3}")),
            row.paper
        );
    }
    println!("sim_digest {digest:016x}");
    println!(
        "rounds {} ({} traced), digests {}",
        rounds.len(),
        traced.len(),
        if same_digest { "identical" } else { "DIFFER" }
    );
    if rounds.iter().any(|r| !r.peak_reset) {
        println!("peak_rss_mb: /proc/self/clear_refs refused; peak is whole-process VmHWM");
    }
    if args.trace {
        println!("spans {}", spans_path(&args).display());
    }

    let mut m = Map::new();
    for (name, value, unit) in metrics {
        let mut e = Map::new();
        e.insert("value", Value::from(value));
        e.insert("unit", Value::from(unit));
        m.insert(name, Value::Object(e));
    }
    let mut out = Map::new();
    out.insert("correct", Value::from(correct));
    out.insert("attempted", Value::from(attempted));
    out.insert("failed", Value::from(failed));
    out.insert("metrics", Value::Object(m));
    println!("{}", serde_json::to_string(&Value::Object(out)));

    if let Some(stall) = rounds.iter().find_map(|r| r.stall.as_ref()) {
        eprintln!("snacc-perfbench: workload {} stalled: {stall}", w.name());
        std::process::exit(1);
    }
}
