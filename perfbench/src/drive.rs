//! The benchmark's calls into the engine and the AXIS user ports.
//!
//! Every engine call goes through [`Driver`], which turns a drained queue
//! the benchmark still waits on, or an [`EngineError`], into a [`Stall`]
//! instead of a panic. In the traced run it also samples the streamer's
//! user-channel occupancies, time-weighted by simulated time, at each
//! call; sampling reads state only, so the model runs the same events.

use crate::span;
use snacc_fpga::axis::{self, AxisChannel, StreamBeat};
use snacc_sim::{Engine, EngineError, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

/// Simulated time between occupancy samples while the engine runs freely.
const SAMPLE_EVERY: SimDuration = SimDuration::from_ns(1000);

/// Why a workload could not finish.
#[derive(Clone, Debug)]
pub enum Stall {
    /// The event queue drained while the benchmark still waited.
    Drained(&'static str),
    /// The engine's event limit tripped.
    Limit(EngineError),
}

impl fmt::Display for Stall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stall::Drained(what) => write!(f, "event queue drained while waiting for {what}"),
            Stall::Limit(e) => write!(f, "{e}"),
        }
    }
}

type Chan = Rc<RefCell<AxisChannel>>;

/// Time-weighted occupancy of two channels.
struct Occupancy {
    chans: [Chan; 2],
    last_t: SimTime,
    last: [u64; 2],
    weighted: [f64; 2],
    span_ps: f64,
}

impl Occupancy {
    fn sample(&mut self, now: SimTime) {
        let dt = now.since(self.last_t).as_ps() as f64;
        for i in 0..2 {
            self.weighted[i] += self.last[i] as f64 * dt;
            self.last[i] = self.chans[i].borrow().occupancy();
        }
        self.span_ps += dt;
        self.last_t = now;
    }
}

/// Host time spent checking outputs inside the timed phase; the round
/// subtracts it from `wall_s`.
#[derive(Clone, Default)]
pub struct CheckClock(Rc<Cell<f64>>);

impl CheckClock {
    /// Run the output check `f`, timing it.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = span::time("bench.check", f);
        self.0.set(self.0.get() + start.elapsed().as_secs_f64());
        r
    }

    pub fn seconds(&self) -> f64 {
        self.0.get()
    }
}

/// Engine and port access for one round, with its own tallies.
pub struct Driver {
    traced: bool,
    /// Pushes the user ports refused (backpressure waits).
    pub push_rejects: u64,
    /// Inline output checks.
    pub checks: CheckClock,
    watched: Option<Occupancy>,
    /// Time-weighted occupancy sums of finished watches, `[rd_data, wr_in]`.
    weighted: [f64; 2],
    span_ps: f64,
}

impl Driver {
    pub fn new(traced: bool) -> Driver {
        Driver {
            traced,
            push_rejects: 0,
            checks: CheckClock::default(),
            watched: None,
            weighted: [0.0; 2],
            span_ps: 0.0,
        }
    }

    /// Sample `rd_data` and `wr_in` from now on (traced run only).
    pub fn watch(&mut self, rd_data: &Chan, wr_in: &Chan, now: SimTime) {
        self.unwatch();
        if self.traced {
            self.watched = Some(Occupancy {
                chans: [rd_data.clone(), wr_in.clone()],
                last_t: now,
                last: [rd_data.borrow().occupancy(), wr_in.borrow().occupancy()],
                weighted: [0.0; 2],
                span_ps: 0.0,
            });
        }
    }

    /// Stop sampling and fold the samples into the round's means.
    pub fn unwatch(&mut self) {
        if let Some(o) = self.watched.take() {
            for i in 0..2 {
                self.weighted[i] += o.weighted[i];
            }
            self.span_ps += o.span_ps;
        }
    }

    /// Mean occupancy in bytes of `[rd_data, wr_in]` over the watched time.
    pub fn occupancy_means(&self) -> [f64; 2] {
        if self.span_ps == 0.0 {
            return [0.0; 2];
        }
        [
            self.weighted[0] / self.span_ps,
            self.weighted[1] / self.span_ps,
        ]
    }

    fn sample(&mut self, now: SimTime) {
        if let Some(o) = &mut self.watched {
            o.sample(now);
        }
    }

    /// Execute one event; the benchmark is waiting for `what`.
    pub fn step(&mut self, en: &mut Engine, what: &'static str) -> Result<(), Stall> {
        let r = span::time("sim.try_step", || en.try_step());
        self.sample(en.now());
        match r {
            Ok(true) => Ok(()),
            Ok(false) => Err(Stall::Drained(what)),
            Err(e) => Err(Stall::Limit(e)),
        }
    }

    /// Run until the event queue drains.
    pub fn run(&mut self, en: &mut Engine) -> Result<(), Stall> {
        if self.watched.is_none() {
            return span::time("sim.try_run", || en.try_run())
                .map(|_| ())
                .map_err(Stall::Limit);
        }
        // Traced: run in short slices of simulated time and sample between
        // them. A slice only moves the clock up to its deadline when the
        // next event lies beyond it, so the events run exactly as in one
        // `try_run`.
        loop {
            let deadline = en.now() + SAMPLE_EVERY;
            let drained = span::time("sim.try_run_until", || en.try_run_until(deadline))
                .map_err(Stall::Limit)?;
            self.sample(en.now());
            if drained {
                return Ok(());
            }
        }
    }

    /// Offer `beat` to `ch`; counts a refusal.
    pub fn push(&mut self, ch: &Chan, en: &mut Engine, beat: StreamBeat) -> bool {
        let ok = span::time("fpga.axis.push", || axis::push(ch, en, beat));
        if !ok {
            self.push_rejects += 1;
        }
        ok
    }

    /// Push `beat`, stepping the engine until `ch` accepts it.
    pub fn push_until(
        &mut self,
        ch: &Chan,
        en: &mut Engine,
        beat: StreamBeat,
        what: &'static str,
    ) -> Result<(), Stall> {
        while !self.push(ch, en, beat.clone()) {
            self.step(en, what)?;
        }
        Ok(())
    }

    /// Pop one beat from `ch`, if any.
    pub fn pop(&mut self, ch: &Chan, en: &mut Engine) -> Option<StreamBeat> {
        span::time("fpga.axis.pop", || axis::pop(ch, en))
    }
}
