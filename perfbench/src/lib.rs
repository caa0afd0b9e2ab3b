//! End-to-end and per-layer benchmark of the SNAcc simulator.
//!
//! A workload is a closed loop driven by this single-threaded process
//! through the layers' public entry points: system bring-up, the
//! streamer's AXIS user ports, SPDK submits, the case-study pipeline
//! pieces and `Engine::try_step` / `try_run`. A *round* sets a workload
//! up, runs its timed phase, checks every output and reads the
//! simulated statistics. The binary repeats rounds for the requested
//! time and reports medians (see `main.rs`).

pub mod case;
pub mod data;
pub mod drive;
pub mod mem;
pub mod paper;
pub mod probe;
pub mod rand;
pub mod seq;
pub mod span;
pub mod stats;

use data::Digest;
use drive::{Driver, Stall};
use serde_json::{Map, Value};
use snacc_faults::FaultPlan;
use snacc_trace::{HistogramHandle, MetricsRegistry, Tracer};
use stats::Counts;
use std::collections::BTreeMap;
use std::time::Instant;

/// Trace events the traced run keeps (recording stops past this).
const TRACE_EVENTS: usize = 1_000_000;

/// Events any one engine may run: over ten times what a round needs, so
/// a model that reschedules itself forever stalls the round in seconds.
pub const EVENT_LIMIT: u64 = 20_000_000;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SeqStream,
    Rand4k,
    CaseStudy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SeqStream, Workload::Rand4k, Workload::CaseStudy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqStream => "seq_stream",
            Workload::Rand4k => "rand_4k",
            Workload::CaseStudy => "case_study",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A set-up workload.
pub trait Bench {
    /// The timed phase.
    fn run(&mut self, d: &mut Driver) -> Result<(), Stall>;
    /// Check the outputs, collect the simulated statistics and release
    /// the functional media. Runs after [`Bench::run`], also after a
    /// stall, counting unfinished operations as failed.
    fn finish(&mut self) -> Outcome;
}

/// Set `w` up: bring-up, prewarm and input generation. A fault plan
/// applies to the streamer system of `rand_4k` only.
pub fn setup(w: Workload, seed: u64, plan: Option<&FaultPlan>) -> Box<dyn Bench> {
    match w {
        Workload::SeqStream => Box::new(seq::SeqStream::setup(seed)),
        Workload::Rand4k => Box::new(rand::Rand4k::setup(seed, plan)),
        Workload::CaseStudy => Box::new(case::CaseStudy::setup(seed)),
    }
}

/// Streamer command latencies (simulated µs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    pub samples: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
}

impl Latency {
    pub fn of(h: &HistogramHandle) -> Latency {
        Latency {
            samples: h.len() as u64,
            p50_us: h.quantile(0.5).unwrap_or(0.0),
            p99_us: h.quantile(0.99).unwrap_or(0.0),
            mean_us: h.mean().unwrap_or(0.0),
        }
    }
}

/// What a round's outputs and simulated statistics were.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Simulated value of each paper row measured.
    pub rows: BTreeMap<&'static str, f64>,
    pub counts: Counts,
    pub latency: Option<Latency>,
    /// Classification records `[id, class, truth]`.
    pub records: Vec<[u64; 3]>,
    /// Payload bytes the workload moved (written plus read back).
    pub user_bytes: u64,
}

impl Outcome {
    /// Hash of every simulated statistic: equal digests mean the model
    /// did the same thing.
    pub fn digest(&self, push_rejects: u64) -> u64 {
        let mut d = Digest::default();
        d.u64(self.attempted);
        d.u64(self.failed);
        for (k, v) in &self.rows {
            d.str(k);
            d.f64(*v);
        }
        for (k, v) in &self.counts {
            d.str(k);
            d.u64(*v);
        }
        if let Some(l) = self.latency {
            d.u64(l.samples);
            d.f64(l.p50_us);
            d.f64(l.p99_us);
            d.f64(l.mean_us);
        }
        for r in &self.records {
            r.iter().for_each(|&v| d.u64(v));
        }
        d.u64(self.user_bytes);
        d.u64(push_rejects);
        d.value()
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

/// One round: set up, run, check.
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    /// Host time of the timed phase, less the output checks made in it.
    pub wall_s: f64,
    pub rss_after_setup_mb: f64,
    /// Peak RSS of the timed phase (see [`mem`]).
    pub peak_rss_mb: f64,
    /// Host-speed probe time around the round (see [`probe`]).
    pub probe_s: f64,
    pub outcome: Outcome,
    pub stall: Option<Stall>,
    pub digest: u64,
    pub push_rejects: u64,
    /// Mean occupancy in bytes of the streamer's `[rd_data, wr_in]`
    /// (traced rounds only).
    pub occupancy: [f64; 2],
    /// Host-time spans (traced rounds only).
    pub spans: Option<span::Recording>,
    /// Trace events `[recorded, dropped past the tracer's capacity]`.
    pub trace_events: [u64; 2],
}

impl Round {
    pub fn paper_err_pct(&self, w: Workload) -> Option<f64> {
        paper::err_pct(w.name(), &self.outcome.rows)
    }

    /// Every operation finished and every output checked out.
    pub fn correct(&self, w: Workload) -> bool {
        self.stall.is_none()
            && self.outcome.failed == 0
            && self.outcome.count("net.rx_drops") == 0
            && self.paper_err_pct(w).is_some()
    }
}

/// Run one round of `w`. A traced round installs a `snacc-trace` tracer
/// and records host-time spans under id `run_id`.
pub fn run_round(
    w: Workload,
    seed: u64,
    traced: bool,
    plan: Option<&FaultPlan>,
    run_id: u32,
) -> Round {
    // Fresh registry: the streamer's counters cover this round only.
    snacc_trace::install_registry(MetricsRegistry::new());
    let tracer = traced.then(|| {
        let t = Tracer::with_capacity(TRACE_EVENTS);
        snacc_trace::install(t.clone());
        span::arm(run_id);
        t
    });
    let probe_before = probe::probe_s();
    let round = span::begin("bench.round");

    let t0 = Instant::now();
    let mut bench = span::time("bench.setup", || setup(w, seed, plan));
    let setup_s = t0.elapsed().as_secs_f64();
    let rss_after_setup_mb = mem::rss_mb();
    mem::reset_peak();

    let mut d = Driver::new(traced);
    let t1 = Instant::now();
    let stall = span::time("bench.run", || bench.run(&mut d)).err();
    let wall_s = t1.elapsed().as_secs_f64() - d.checks.seconds();
    let peak_rss_mb = mem::peak_mb();
    let outcome = span::time("bench.check", || bench.finish());
    span::end(round);
    drop(bench);
    let probe_s = (probe_before + probe::probe_s()) / 2.0;

    let trace_events = tracer.map_or([0, 0], |t| {
        snacc_trace::uninstall();
        [t.events_recorded() as u64, t.events_dropped()]
    });
    Round {
        traced,
        setup_s,
        wall_s,
        rss_after_setup_mb,
        peak_rss_mb,
        probe_s,
        digest: outcome.digest(d.push_rejects),
        outcome,
        stall,
        push_rejects: d.push_rejects,
        occupancy: d.occupancy_means(),
        spans: traced.then(span::disarm),
        trace_events,
    }
}

/// The per-layer metrics with their units, in report order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sim.events", "count"),
    ("sim.simulated_s", "sim_s"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.drive_s", "s"),
    ("mem.nand_segments", "count"),
    ("mem.nand_covered_mb", "MB"),
    ("mem.host_segments", "count"),
    ("mem.rss_after_setup_mb", "MB"),
    ("pcie.total_mb", "MB"),
    ("pcie.bytes_per_payload_byte", "B/B"),
    ("nvme.read_cmds", "count"),
    ("nvme.write_cmds", "count"),
    ("nvme.bytes_per_cmd", "B"),
    ("nvme.errors", "count"),
    ("streamer.cmds", "count"),
    ("streamer.doorbells_per_cmd", "1/cmd"),
    ("streamer.cqes_per_cq_event", "1/event"),
    ("streamer.cmd_lat_p50_us", "sim_us"),
    ("streamer.cmd_lat_p99_us", "sim_us"),
    ("streamer.cmd_lat_samples", "count"),
    ("streamer.retries", "count"),
    ("streamer.gave_up", "count"),
    ("axis.push_rejects", "count"),
    ("axis.rd_data_occ_mean", "B"),
    ("axis.wr_in_occ_mean", "B"),
    ("net.frames", "count"),
    ("net.pauses_sent", "count"),
    ("net.rx_drops", "count"),
    ("apps.images", "count"),
    ("apps.correct", "count"),
    ("apps.classified", "count"),
    ("apps.fps", "1/sim_s"),
    ("spdk.cmds", "count"),
    ("spdk.errors", "count"),
    ("bench.driver_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events_recorded", "count"),
    ("trace.events_dropped", "count"),
    ("fail_ratio", "ratio"),
];

impl Round {
    /// This round's per-layer metrics. Host times come from the spans of
    /// a traced round (0 otherwise); `trace.overhead_ratio` needs an
    /// untraced round too and is left to the caller.
    pub fn layers(&self) -> BTreeMap<&'static str, f64> {
        let o = &self.outcome;
        let c = |k: &str| o.count(k) as f64;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let spans = |f: fn(&span::Recording) -> f64| self.spans.as_ref().map_or(0.0, f);
        let drive_s = spans(|s| s.total_s("sim."));
        let lat = o.latency.unwrap_or_default();
        let sim_s = c("sim.ns") / 1e9;
        BTreeMap::from([
            ("sim.events", c("sim.events")),
            ("sim.simulated_s", sim_s),
            (
                "sim.host_ns_per_event",
                ratio(drive_s * 1e9, c("sim.events")),
            ),
            ("sim.drive_s", drive_s),
            ("mem.nand_segments", c("mem.nand_segments")),
            ("mem.nand_covered_mb", c("mem.nand_pages") * 4096.0 / 1e6),
            ("mem.host_segments", c("mem.host_segments")),
            ("mem.rss_after_setup_mb", self.rss_after_setup_mb),
            ("pcie.total_mb", c("pcie.bytes") / 1e6),
            (
                "pcie.bytes_per_payload_byte",
                ratio(c("pcie.bytes"), o.user_bytes as f64),
            ),
            ("nvme.read_cmds", c("nvme.read_cmds")),
            ("nvme.write_cmds", c("nvme.write_cmds")),
            (
                "nvme.bytes_per_cmd",
                ratio(c("nvme.bytes"), c("nvme.read_cmds") + c("nvme.write_cmds")),
            ),
            ("nvme.errors", c("nvme.errors")),
            ("streamer.cmds", c("streamer.cmds")),
            (
                "streamer.doorbells_per_cmd",
                ratio(c("streamer.doorbells"), c("streamer.cmds")),
            ),
            (
                "streamer.cqes_per_cq_event",
                ratio(c("streamer.cqes"), c("streamer.cq_events")),
            ),
            ("streamer.cmd_lat_p50_us", lat.p50_us),
            ("streamer.cmd_lat_p99_us", lat.p99_us),
            ("streamer.cmd_lat_samples", lat.samples as f64),
            ("streamer.retries", c("streamer.retries")),
            ("streamer.gave_up", c("streamer.gave_up")),
            ("axis.push_rejects", self.push_rejects as f64),
            ("axis.rd_data_occ_mean", self.occupancy[0]),
            ("axis.wr_in_occ_mean", self.occupancy[1]),
            ("net.frames", c("net.frames")),
            ("net.pauses_sent", c("net.pauses_sent")),
            ("net.rx_drops", c("net.rx_drops")),
            ("apps.images", c("apps.images")),
            ("apps.correct", c("apps.correct")),
            ("apps.classified", c("apps.classified")),
            ("apps.fps", ratio(c("apps.images"), sim_s)),
            ("spdk.cmds", c("spdk.cmds")),
            ("spdk.errors", c("spdk.errors")),
            ("bench.driver_s", spans(|s| s.self_s("bench."))),
            ("trace.events_recorded", self.trace_events[0] as f64),
            ("trace.events_dropped", self.trace_events[1] as f64),
            ("fail_ratio", ratio(o.failed as f64, o.attempted as f64)),
        ])
    }
}

/// A round reduced to the numbers the report needs. Rounds run in
/// child processes (a fresh heap each: no round inherits another's
/// memory) and hand this back as one JSON line.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub traced: bool,
    pub setup_s: f64,
    pub wall_s: f64,
    pub rss_after_setup_mb: f64,
    pub peak_rss_mb: f64,
    pub probe_s: f64,
    /// Whether the peak was reset after set-up (else it is whole-process).
    pub peak_reset: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub stall: Option<String>,
    pub digest: u64,
    pub paper_err_pct: Option<f64>,
    pub rows: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
}

impl Summary {
    pub fn of(r: &Round, w: Workload) -> Summary {
        Summary {
            traced: r.traced,
            setup_s: r.setup_s,
            wall_s: r.wall_s,
            rss_after_setup_mb: r.rss_after_setup_mb,
            peak_rss_mb: r.peak_rss_mb,
            probe_s: r.probe_s,
            peak_reset: mem::peak_was_reset(),
            attempted: r.outcome.attempted,
            failed: r.outcome.failed,
            correct: r.correct(w),
            stall: r.stall.as_ref().map(|s| s.to_string()),
            digest: r.digest,
            paper_err_pct: r.paper_err_pct(w),
            rows: r
                .outcome
                .rows
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            layers: r
                .layers()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    pub fn to_json(&self) -> Value {
        let map = |m: &BTreeMap<String, f64>| {
            let mut o = Map::new();
            m.iter()
                .for_each(|(k, v)| o.insert(k.as_str(), Value::from(*v)));
            Value::Object(o)
        };
        let mut o = Map::new();
        o.insert("traced", Value::from(self.traced));
        o.insert("setup_s", Value::from(self.setup_s));
        o.insert("wall_s", Value::from(self.wall_s));
        o.insert("rss_after_setup_mb", Value::from(self.rss_after_setup_mb));
        o.insert("peak_rss_mb", Value::from(self.peak_rss_mb));
        o.insert("probe_s", Value::from(self.probe_s));
        o.insert("peak_reset", Value::from(self.peak_reset));
        o.insert("attempted", Value::from(self.attempted));
        o.insert("failed", Value::from(self.failed));
        o.insert("correct", Value::from(self.correct));
        o.insert(
            "stall",
            self.stall.as_deref().map_or(Value::Null, Value::from),
        );
        o.insert("digest", Value::from(format!("{:016x}", self.digest)));
        o.insert(
            "paper_err_pct",
            self.paper_err_pct.map_or(Value::Null, Value::from),
        );
        o.insert("rows", map(&self.rows));
        o.insert("layers", map(&self.layers));
        Value::Object(o)
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        let u = |k: &str| v.get(k).and_then(Value::as_u64);
        let b = |k: &str| v.get(k).and_then(Value::as_bool);
        let map = |k: &str| -> Option<BTreeMap<String, f64>> {
            v.get(k)?
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        Some(Summary {
            traced: b("traced")?,
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            rss_after_setup_mb: f("rss_after_setup_mb")?,
            peak_rss_mb: f("peak_rss_mb")?,
            probe_s: f("probe_s")?,
            peak_reset: b("peak_reset")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            correct: b("correct")?,
            stall: v.get("stall").and_then(Value::as_str).map(str::to_string),
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            paper_err_pct: f("paper_err_pct"),
            rows: map("rows")?,
            layers: map("layers")?,
        })
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
