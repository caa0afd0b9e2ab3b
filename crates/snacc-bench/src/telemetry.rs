//! `--trace` / `--metrics-json` / `--perf-json` support shared by the
//! evaluation binaries.
//!
//! [`Telemetry::from_args`] scans the process arguments; `--trace <path>`
//! installs a fresh [`Tracer`] so every model-crate instrumentation site
//! starts recording, `--metrics-json <path>` installs a fresh metrics
//! registry scoped to this run, and `--perf-json <path>` records *wall
//! clock* performance of the process itself — elapsed seconds, simulation
//! events executed, peak RSS. [`Telemetry::finish`] writes the exports:
//! the trace as Chrome `trace_event` JSON (open it in
//! <https://ui.perfetto.dev> or `chrome://tracing`), the metrics as a
//! key-sorted JSON snapshot, and the perf record merged into the given
//! JSON file keyed by binary name (so several figure binaries can append
//! to one `BENCH_*.json`).
//!
//! `--faults <plan.toml>` loads a [`FaultPlan`] (see `snacc-faults` and
//! the shipped `plans/*.toml`); binaries that support fault campaigns
//! fetch it with [`Telemetry::fault_plan`] and wire it into their
//! systems. A bare `--faults`, or a plan that cannot be read or is
//! invalid, prints one `error: --faults …` line and exits with status 2.
//!
//! `--jobs <N>` sizes the sweep worker pool ([`Telemetry::jobs`]): every
//! binary that runs simulations (all but `table1`) fans its independent
//! jobs across `N` threads with [`crate::sweep::map`], with byte-identical
//! output. Defaults to 1; forced back to 1 while any telemetry sink is
//! recording.
//!
//! Any of these flags given without its value, and a `--jobs` that is not
//! a positive integer, prints one `error: --<flag> …` line and exits with
//! status 2 before any simulation runs.

use serde_json::{Map, Value};
use snacc_faults::FaultPlan;
use snacc_trace::{MetricsRegistry, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed telemetry flags; holds the export paths while the thread-local
/// tracer/registry record the run.
pub struct Telemetry {
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    perf_path: Option<PathBuf>,
    fault_plan: Option<FaultPlan>,
    jobs: usize,
    started: Instant,
}

struct Flags {
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    perf_path: Option<PathBuf>,
    faults_path: Option<PathBuf>,
    jobs: usize,
}

/// Parse the flags. A recognised flag with no value (at the end of the
/// arguments, empty, or followed by another `--` flag) is an error, as
/// is a `--jobs` that is not a positive integer; other arguments are
/// ignored.
fn parse(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut f = Flags {
        trace_path: None,
        metrics_path: None,
        perf_path: None,
        faults_path: None,
        jobs: 1,
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((flag, v)) => (flag, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let needs = match flag {
            "--trace" | "--metrics-json" | "--perf-json" => "an output path",
            "--faults" => "a plan path",
            "--jobs" => "a worker count",
            _ => continue,
        };
        let v = inline
            .or_else(|| args.next_if(|v| !v.starts_with("--")))
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("{flag} needs {needs}"))?;
        match flag {
            "--trace" => f.trace_path = Some(v.into()),
            "--metrics-json" => f.metrics_path = Some(v.into()),
            "--perf-json" => f.perf_path = Some(v.into()),
            "--faults" => f.faults_path = Some(v.into()),
            _ => {
                // --jobs
                f.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--jobs {v}: not a positive worker count"))?;
            }
        }
    }
    Ok(f)
}

/// Report a command-line error and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Peak resident set size of this process in KiB, from
/// `/proc/self/status` `VmHWM` (0 where unavailable).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
    }
    0
}

/// Merge `{key: record}` into the JSON object file at `path`, preserving
/// other keys (each figure binary writes its own entry; re-running one
/// replaces it). A missing or unparsable file is rewritten with only the
/// new entry.
fn merge_json_entry(path: &Path, key: &str, record: Value) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut doc = match serde_json::from_str(&existing) {
        Ok(Value::Object(map)) => map,
        _ => Map::new(),
    };
    doc.insert(key, record);
    std::fs::write(
        path,
        serde_json::to_string_pretty(&Value::Object(doc)) + "\n",
    )
}

impl Telemetry {
    /// Parse `--trace <path>` / `--metrics-json <path>` / `--perf-json
    /// <path>` (also the `--flag=path` spelling) from the process
    /// arguments and install the corresponding sinks. Other arguments are
    /// ignored. A flag without its value, a `--jobs` that is not a
    /// positive integer, or a `--faults` plan that does not load exits the
    /// process with status 2.
    pub fn from_args() -> Telemetry {
        let f = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));
        if f.trace_path.is_some() {
            snacc_trace::install(Tracer::new());
        }
        if f.metrics_path.is_some() {
            snacc_trace::install_registry(MetricsRegistry::new());
        }
        let fault_plan = f.faults_path.as_ref().map(|p| {
            let plan = FaultPlan::load(p).unwrap_or_else(|e| usage_error(&format!("--faults {e}")));
            eprintln!(
                "(faults: campaign from {}, seed {})",
                p.display(),
                plan.seed
            );
            plan
        });
        Telemetry {
            trace_path: f.trace_path,
            metrics_path: f.metrics_path,
            perf_path: f.perf_path,
            fault_plan,
            jobs: f.jobs,
            started: Instant::now(),
        }
    }

    /// The fault campaign requested with `--faults <plan.toml>`, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Worker count for the sweep pool (`--jobs N`, default 1). Degrades
    /// to 1 whenever telemetry is recording: the tracer, the metrics
    /// registry and the engine's lifetime event counter are all
    /// thread-local, so a fan-out would record nothing (and make
    /// `--perf-json` events/RSS incomparable). The sweep output itself is
    /// byte-identical at any worker count (see `snacc_bench::sweep`).
    pub fn jobs(&self) -> usize {
        if self.trace_path.is_some() || self.metrics_path.is_some() || self.perf_path.is_some() {
            1
        } else {
            self.jobs
        }
    }

    /// Write the requested export files and stop recording.
    pub fn finish(self) {
        if let Some(p) = &self.trace_path {
            let tracer = snacc_trace::uninstall().expect("tracer was installed");
            std::fs::write(p, snacc_trace::export_chrome_trace(&tracer)).expect("write trace");
            eprintln!(
                "(trace: {} events -> {}; open in https://ui.perfetto.dev)",
                tracer.events_recorded(),
                p.display()
            );
        }
        if let Some(p) = &self.metrics_path {
            std::fs::write(p, snacc_trace::registry().snapshot_json()).expect("write metrics");
            eprintln!("(metrics -> {})", p.display());
        }
        if let Some(p) = &self.perf_path {
            let wall = self.started.elapsed().as_secs_f64();
            let events = snacc_sim::engine::lifetime_events_executed();
            let rss = peak_rss_kb();
            let bin = std::env::args()
                .next()
                .map(|a| {
                    PathBuf::from(a)
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "unknown".into())
                })
                .unwrap_or_else(|| "unknown".into());
            let mut record = Map::new();
            record.insert("wall_seconds", Value::from((wall * 1e3).round() / 1e3));
            record.insert("events_executed", Value::from(events));
            record.insert("peak_rss_kb", Value::from(rss));
            merge_json_entry(p, &bin, Value::Object(record)).expect("write perf json");
            eprintln!(
                "(perf: {wall:.3} s wall, {events} events, {rss} KiB peak RSS -> {})",
                p.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: impl Iterator<Item = String>) -> Flags {
        parse(args).expect("flags parse")
    }

    fn strings(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_both_flag_spellings() {
        let f = parse_ok(strings(&["--trace", "a.json", "--metrics-json=m.json"]));
        assert_eq!(f.trace_path, Some(PathBuf::from("a.json")));
        assert_eq!(f.metrics_path, Some(PathBuf::from("m.json")));
        let f = parse_ok(strings(&["--trace=b.json", "--metrics-json", "n.json"]));
        assert_eq!(f.trace_path, Some(PathBuf::from("b.json")));
        assert_eq!(f.metrics_path, Some(PathBuf::from("n.json")));
        let f = parse_ok(strings(&["--perf-json", "p.json"]));
        assert_eq!(f.perf_path, Some(PathBuf::from("p.json")));
        let f = parse_ok(strings(&["--perf-json=q.json"]));
        assert_eq!(f.perf_path, Some(PathBuf::from("q.json")));
        let f = parse_ok(strings(&["--faults", "plans/flaky_ssd.toml"]));
        assert_eq!(f.faults_path, Some(PathBuf::from("plans/flaky_ssd.toml")));
        let f = parse_ok(strings(&["--faults=x.toml"]));
        assert_eq!(f.faults_path, Some(PathBuf::from("x.toml")));
        let f = parse_ok(strings(&["--jobs", "8"]));
        assert_eq!(f.jobs, 8);
        let f = parse_ok(strings(&["--jobs=4"]));
        assert_eq!(f.jobs, 4);
    }

    #[test]
    fn bare_faults_is_an_error() {
        let err = parse(strings(&["--jobs", "2", "--faults"])).err();
        assert_eq!(err.as_deref(), Some("--faults needs a plan path"));
    }

    #[test]
    fn flags_without_a_value_are_errors() {
        for flag in ["--trace", "--metrics-json", "--perf-json"] {
            let want = format!("{flag} needs an output path");
            for args in [vec![flag], vec![flag, "--jobs", "2"]] {
                assert_eq!(parse(strings(&args)).err(), Some(want.clone()), "{args:?}");
            }
            let eq = format!("{flag}=");
            assert_eq!(parse(strings(&[&eq])).err(), Some(want));
        }
        let err = parse(strings(&["--jobs"])).err();
        assert_eq!(err.as_deref(), Some("--jobs needs a worker count"));
    }

    #[test]
    fn jobs_must_be_a_positive_integer() {
        for bad in ["abc", "0", "-1", "2.5"] {
            let want = format!("--jobs {bad}: not a positive worker count");
            assert_eq!(parse(strings(&["--jobs", bad])).err(), Some(want.clone()));
            let eq = format!("--jobs={bad}");
            assert_eq!(parse(strings(&[&eq])).err(), Some(want));
        }
    }

    #[test]
    fn jobs_defaults_to_one() {
        let f = parse_ok(strings(&[]));
        assert_eq!(f.jobs, 1);
    }

    #[test]
    fn ignores_unrelated_args() {
        let f = parse_ok(strings(&["--quiet", "positional"]));
        assert_eq!(f.trace_path, None);
        assert_eq!(f.metrics_path, None);
        assert_eq!(f.perf_path, None);
    }

    fn wall(v: f64) -> Value {
        let mut m = Map::new();
        m.insert("wall_seconds", Value::from(v));
        Value::Object(m)
    }

    fn scratch_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("snacc-perf-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("perf.json")
    }

    fn reparse(path: &Path) -> Value {
        let text = std::fs::read_to_string(path).unwrap();
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{e}: {text}"))
    }

    fn wall_of(doc: &Value, key: &str) -> Option<f64> {
        doc.get(key)?.get("wall_seconds")?.as_f64()
    }

    #[test]
    fn perf_json_merges_by_key() {
        let path = scratch_file("merge");
        merge_json_entry(&path, "fig4a", wall(1.5)).unwrap();
        merge_json_entry(&path, "fig7", wall(2.0)).unwrap();
        // Re-running a binary replaces its entry, keeping the others.
        merge_json_entry(&path, "fig4a", wall(1.0)).unwrap();
        let doc = reparse(&path);
        assert_eq!(doc.as_object().map(Map::len), Some(2));
        assert_eq!(wall_of(&doc, "fig7"), Some(2.0));
        assert_eq!(wall_of(&doc, "fig4a"), Some(1.0));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn perf_json_merge_keeps_nested_records_intact() {
        let path = scratch_file("nested");
        std::fs::write(&path, r#"{"suite": {"fig4a": {"wall": 1.0}}}"#).unwrap();
        merge_json_entry(&path, "fig7", wall(2.0)).unwrap();
        let doc = reparse(&path);
        let inner = doc.get("suite").and_then(|s| s.get("fig4a"));
        assert_eq!(inner.and_then(|f| f.get("wall")?.as_f64()), Some(1.0));
        assert_eq!(wall_of(&doc, "fig7"), Some(2.0));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn perf_json_rewrites_an_unparsable_file() {
        let path = scratch_file("garbage");
        std::fs::write(&path, "not json {").unwrap();
        merge_json_entry(&path, "fig4a", wall(1.0)).unwrap();
        let doc = reparse(&path);
        assert_eq!(doc.as_object().map(Map::len), Some(1));
        assert_eq!(wall_of(&doc, "fig4a"), Some(1.0));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        // The proc parse itself must not panic anywhere; on Linux the
        // value is real.
        let rss = peak_rss_kb();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0);
        }
    }
}
