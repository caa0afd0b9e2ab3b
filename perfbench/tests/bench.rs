//! The benchmark's own checks: its digest is deterministic and blind to
//! tracing, its failure metric is live, stalls are counted rather than
//! panicking, and its paper values match EXPERIMENTS.md.

use snacc_faults::FaultPlan;
use snacc_perfbench::drive::{Driver, Stall};
use snacc_perfbench::{paper, run_round, Workload};
use snacc_sim::{Engine, SimDuration};

#[test]
fn digest_repeats_for_a_seed_and_ignores_tracing() {
    for w in Workload::ALL {
        let a = run_round(w, 11, false, None, 0);
        let b = run_round(w, 11, false, None, 1);
        let t = run_round(w, 11, true, None, 2);
        for r in [&a, &b, &t] {
            assert!(r.correct(w), "{}: failed {}", w.name(), r.outcome.failed);
        }
        assert_eq!(a.digest, b.digest, "{}: same seed, same digest", w.name());
        assert_eq!(
            a.digest,
            t.digest,
            "{}: tracing changed the model",
            w.name()
        );
        assert!(t.trace_events[0] > 0, "{}: the tracer recorded", w.name());
        let spans = t.spans.as_ref().expect("traced round has spans");
        assert!(spans.total_s("sim.") > 0.0, "{}: engine spans", w.name());
    }
}

#[test]
fn fail_ratio_counts_every_abandoned_command() {
    // NVMe errors on, retries off: every failed command is abandoned.
    let plan = FaultPlan::parse("seed = 7\n[nvme]\nerror_rate = 0.02\n").expect("plan parses");
    assert_eq!(plan.retry.max_retries, 0);
    let w = Workload::Rand4k;
    let r = run_round(w, 3, false, Some(&plan), 0);
    let o = &r.outcome;
    let gave_up = o.count("streamer.gave_up");
    assert!(o.failed > 0, "the plan must fail commands");
    assert!(!r.correct(w));
    assert_eq!(
        o.failed as f64 / o.attempted as f64,
        gave_up as f64 / o.attempted as f64,
        "fail_ratio is streamer.gave_up over attempted ops"
    );
}

#[test]
fn stalls_are_reported_not_panics() {
    let mut d = Driver::new(false);
    let mut en = Engine::new();
    match d.step(&mut en, "nothing") {
        Err(Stall::Drained(what)) => assert_eq!(what, "nothing"),
        other => panic!("expected a drained stall, got {other:?}"),
    }
    en.schedule_in(SimDuration::from_ns(5), |en| {
        en.schedule_in(SimDuration::from_ns(5), |_| {})
    });
    en.set_event_limit(1);
    assert!(matches!(d.run(&mut en), Err(Stall::Limit(_))));
}

/// The paper value of `config` in the EXPERIMENTS.md table under the
/// heading that starts with `## <figure> `.
fn experiments_value(doc: &str, figure: &str, config: &str, part: Option<&str>) -> f64 {
    let heading = format!("## {figure} ");
    let section = doc
        .split("\n## ")
        .map(|s| format!("## {s}"))
        .find(|s| s.starts_with(&heading))
        .unwrap_or_else(|| panic!("no section {heading}"));
    let prefix = format!("| {config} |");
    let line = section
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no row {config} under {figure}"));
    let cell = line.split('|').nth(2).expect("paper column").trim();
    let num = |s: &str| -> f64 {
        let s = s.trim().trim_start_matches('~');
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(s.len());
        s[..end]
            .parse()
            .unwrap_or_else(|_| panic!("number in {s:?}"))
    };
    match part {
        Some("lo") => num(cell.split('/').next().expect("lo")),
        Some("hi") => num(cell.split('/').nth(1).expect("hi")),
        Some(p) => panic!("unknown part {p}"),
        None => num(cell),
    }
}

#[test]
fn paper_rows_match_experiments_tables() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md next to the benchmark");
    let rows = paper::rows();
    for w in Workload::ALL {
        assert!(rows.iter().any(|r| r.workload == w.name()), "{}", w.name());
    }
    let mut keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), rows.len(), "row keys are unique");
    for r in &rows {
        let documented = experiments_value(&doc, &r.figure, &r.config, r.part.as_deref());
        assert_eq!(r.paper, documented, "{} ({} {})", r.key, r.figure, r.config);
    }
}
