//! Host-time spans recorded from the benchmark's own code around each
//! call into a simulator layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end in host
//! nanoseconds since the recorder was armed, a parent span and the id of
//! the round it belongs to. Spans are recorded only while a recorder is
//! armed (the traced run); otherwise [`begin`] and [`end`] cost one
//! thread-local flag read. Per-name totals and self times (a span's
//! duration minus the time its child spans cover) are accumulated
//! exactly; individual spans are kept in memory up to a cap and written
//! out when the run ends.

use serde_json::{Map, Value};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Individual spans kept for the span file; totals stay exact beyond it.
const KEPT_SPANS: usize = 200_000;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of every span with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// What a finished recorder holds.
#[derive(Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub totals: BTreeMap<&'static str, Totals>,
}

impl Recording {
    /// Self time of every span whose name starts with `prefix`, in s.
    pub fn self_s(&self, prefix: &str) -> f64 {
        self.sum(prefix, |t| t.self_ns)
    }

    /// Total time of every span whose name starts with `prefix`, in s.
    pub fn total_s(&self, prefix: &str) -> f64 {
        self.sum(prefix, |t| t.total_ns)
    }

    fn sum(&self, prefix: &str, f: impl Fn(&Totals) -> u64) -> f64 {
        let ns: u64 = self
            .totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| f(t))
            .sum();
        ns as f64 / 1e9
    }

    /// The per-name totals and the kept spans as JSON.
    pub fn to_json(&self) -> Value {
        let mut totals = Map::new();
        for (name, t) in &self.totals {
            let mut e = Map::new();
            e.insert("count", Value::from(t.count));
            e.insert("total_s", Value::from(t.total_ns as f64 / 1e9));
            e.insert("self_s", Value::from(t.self_ns as f64 / 1e9));
            totals.insert(*name, Value::Object(e));
        }
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut e = Map::new();
                e.insert("id", Value::from(u64::from(s.id)));
                e.insert(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                );
                e.insert("run", Value::from(u64::from(s.run)));
                e.insert("name", Value::from(s.name));
                e.insert("start_ns", Value::from(s.start_ns));
                e.insert("end_ns", Value::from(s.end_ns));
                Value::Object(e)
            })
            .collect();
        let mut root = Map::new();
        root.insert("totals", Value::Object(totals));
        root.insert("spans_dropped", Value::from(self.dropped));
        root.insert("spans", Value::from(spans));
        Value::Object(root)
    }
}

struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Recorder {
    origin: Instant,
    run: u32,
    next_id: u32,
    stack: Vec<Open>,
    out: Recording,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans for round `run`.
pub fn arm(run: u32) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            run,
            next_id: 0,
            stack: Vec::new(),
            out: Recording::default(),
        })
    });
    ARMED.with(|a| a.set(true));
}

/// Stop recording and hand back what was recorded.
pub fn disarm() -> Recording {
    ARMED.with(|a| a.set(false));
    let rec = RECORDER.with(|r| r.borrow_mut().take());
    let rec = rec.expect("disarm follows arm");
    assert!(rec.stack.is_empty(), "span still open at disarm");
    rec.out
}

/// Token returned by [`begin`]; pass it to [`end`].
#[must_use]
pub struct Token(bool);

/// Open a span named `name` as a child of the innermost open span.
#[inline]
pub fn begin(name: &'static str) -> Token {
    if !ARMED.with(|a| a.get()) {
        return Token(false);
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("armed recorder");
        let id = r.next_id;
        r.next_id += 1;
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
    });
    Token(true)
}

/// Close the innermost open span.
#[inline]
pub fn end(token: Token) {
    if !token.0 {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("armed recorder");
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        let open = r.stack.pop().expect("end matches begin");
        let dur = end_ns - open.start_ns;
        let parent = r.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let t = r.out.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if r.out.spans.len() < KEPT_SPANS {
            let run = r.run;
            r.out.spans.push(Span {
                id: open.id,
                parent,
                run,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            r.out.dropped += 1;
        }
    });
}

/// Run `f` inside a span named `name`.
#[inline]
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = begin(name);
    let r = f();
    end(t);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        arm(3);
        let outer = begin("a.outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        time("b.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        end(outer);
        let rec = disarm();
        let o = rec.totals["a.outer"];
        let i = rec.totals["b.inner"];
        assert_eq!((o.count, i.count), (1, 1));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 5_000_000);
        let inner = rec.spans.iter().find(|s| s.name == "b.inner").unwrap();
        let outer = rec.spans.iter().find(|s| s.name == "a.outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.run, 3);
    }

    #[test]
    fn disarmed_spans_record_nothing() {
        let t = begin("x.y");
        end(t);
        arm(0);
        assert!(disarm().totals.is_empty());
    }
}
