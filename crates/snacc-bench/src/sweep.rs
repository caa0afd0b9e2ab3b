//! Deterministic parallel sweep runner — the one way a bench binary runs
//! its simulations.
//!
//! The figure binaries are sweeps: a list of self-contained simulation
//! jobs (variant × direction × seed), each bringing up its own
//! [`Engine`](snacc_sim::Engine) world. Jobs share no state, so they can
//! run on worker threads — but the simulation stack is intentionally
//! single-threaded (`Rc`-based, thread-local tracer/metrics), so each job
//! must *construct and run* its world entirely on one thread.
//!
//! [`map`] provides exactly that: a fixed worker pool pulls items in
//! index order and applies the job function to each, every job's console
//! output is captured in a [`JobOutput`] buffer, and the main thread
//! flushes buffers strictly in job order. The visible byte stream is
//! therefore identical for `--jobs 1` and `--jobs N` (CI asserts this;
//! see `tests/jobs_determinism.rs`), and identical to a plain sequential
//! loop.
//!
//! Telemetry caveat: the tracer, metrics registry and the engine's
//! lifetime event counter are thread-local, so runs recording `--trace`,
//! `--metrics-json` or `--perf-json` degrade to one worker
//! ([`Telemetry::jobs`](crate::Telemetry::jobs) handles this).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Captured console output of one sweep job. Jobs print through this
/// handle instead of `println!`/`eprintln!`; the runner flushes each
/// job's lines (stderr first, then stdout) in job order.
#[derive(Default)]
pub struct JobOutput {
    out: Vec<String>,
    err: Vec<String>,
}

impl JobOutput {
    /// Buffer a stdout line.
    pub fn println(&mut self, line: impl Into<String>) {
        self.out.push(line.into());
    }

    /// Buffer a stderr line (progress/diagnostics).
    pub fn eprintln(&mut self, line: impl Into<String>) {
        self.err.push(line.into());
    }

    fn flush(self) {
        for l in self.err {
            eprintln!("{l}");
        }
        for l in self.out {
            println!("{l}");
        }
    }
}

enum Slot<R> {
    Done(JobOutput, R),
    Panicked(JobOutput, Box<dyn std::any::Any + Send>),
}

fn run_one<T, R>(f: &(impl Fn(&mut JobOutput, T) -> R + Sync), item: T) -> Slot<R> {
    let mut log = JobOutput::default();
    match catch_unwind(AssertUnwindSafe(|| f(&mut log, item))) {
        Ok(r) => Slot::Done(log, r),
        Err(p) => Slot::Panicked(log, p),
    }
}

fn settle<R>(slot: Slot<R>) -> R {
    match slot {
        Slot::Done(log, r) => {
            log.flush();
            r
        }
        Slot::Panicked(log, p) => {
            log.flush();
            resume_unwind(p);
        }
    }
}

/// Apply `f` to every item on a pool of `workers` threads, returning the
/// results in item order. Each call prints through its own [`JobOutput`],
/// flushed strictly in item order, so the byte stream is independent of
/// the worker count. `workers <= 1` runs inline with no threads (the
/// CI-deterministic default). A panicking job still flushes its output,
/// then the panic resumes on the caller's thread.
pub fn map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut JobOutput, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(|t| settle(run_one(&f, t))).collect();
    }
    let workers = workers.min(n);
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<Slot<R>>>> = Mutex::new((0..n).map(|_| None).collect());
    let done = Condvar::new();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue lock").pop_front();
                let Some((i, item)) = next else {
                    break;
                };
                let slot = run_one(&f, item);
                slots.lock().expect("slot lock")[i] = Some(slot);
                done.notify_all();
            });
        }
        // Flush and collect in item order as results land.
        let mut results = Vec::with_capacity(n);
        for i in 0..n {
            let slot = {
                let mut g = slots.lock().expect("slot lock");
                while g[i].is_none() {
                    g = done.wait(g).expect("slot wait");
                }
                g[i].take().expect("checked above")
            };
            results.push(settle(slot));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order() {
        for workers in [1, 2, 4, 16] {
            let got = map(workers, (0..9).collect(), |log, i: usize| {
                log.eprintln(format!("job {i} starting"));
                log.println(format!("job {i} result"));
                i * 10
            });
            assert_eq!(got, (0..9).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrows_are_allowed() {
        // Jobs may borrow caller state (e.g. a fault plan).
        let shared = [1u64, 2, 3];
        assert_eq!(
            map(3, vec![0, 1, 2], |_, i: usize| shared[i]),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn panic_propagates_after_flush() {
        let r = catch_unwind(|| {
            map(2, vec![false, true], |log, fail| {
                if fail {
                    log.eprintln("about to fail");
                    panic!("boom");
                }
            })
        });
        assert!(r.is_err());
    }
}
