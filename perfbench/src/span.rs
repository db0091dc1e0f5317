//! In-memory span tracer for the traced run.
//!
//! Spans are opened and closed around calls into the library's public
//! functions from the benchmark's own code. Every span is keyed by name,
//! start, end and parent. The first [`MAX_RECORDS`] spans are kept whole;
//! per-request spans beyond that are aggregated per name (count, total
//! time, time covered by child spans), which is all the self-time
//! arithmetic needs. Nothing is written while the run measures:
//! [`write_tsv`] dumps the spans after it ends.
//!
//! The tracer is thread-local and off until [`enable`] is called, so the
//! untraced runs pay one thread-local flag read per wrapper call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Whole span records kept before the tracer switches to aggregates only.
pub const MAX_RECORDS: usize = 20_000;

/// One closed span, kept whole.
#[derive(Clone, Debug)]
pub struct Record {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
}

/// Per-name aggregate of every closed span with that name.
#[derive(Copy, Clone, Default, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Time inside this name's spans covered by their direct children.
    pub child_ns: u64,
}

impl Agg {
    /// Span time minus the part of it child spans cover.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<Frame>,
    aggs: BTreeMap<&'static str, Agg>,
    parents: BTreeMap<&'static str, &'static str>,
    records: Vec<Record>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        stack: Vec::new(),
        aggs: BTreeMap::new(),
        parents: BTreeMap::new(),
        records: Vec::new(),
    });
}

/// Clears every span and turns tracing on for this thread.
pub fn enable() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = true;
        t.origin = Instant::now();
        t.stack.clear();
        t.aggs.clear();
        t.parents.clear();
        t.records.clear();
    });
}

/// Turns tracing off; the collected spans stay readable.
pub fn disable() {
    TRACER.with(|t| t.borrow_mut().on = false);
}

/// Opens a span; it closes when the guard drops. A no-op while tracing
/// is off.
#[must_use]
pub fn enter(name: &'static str) -> Guard {
    let on = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            t.stack.push(Frame {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
        }
        t.on
    });
    Guard { on }
}

/// Closes the innermost span on drop.
pub struct Guard {
    on: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(frame) = t.stack.pop() else {
                return;
            };
            let dur = end.duration_since(frame.start).as_nanos() as u64;
            let parent = t.stack.last_mut().map(|p| {
                p.child_ns += dur;
                p.name
            });
            let agg = t.aggs.entry(frame.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.child_ns += frame.child_ns;
            if let Some(parent) = parent {
                t.parents.entry(frame.name).or_insert(parent);
            }
            if t.records.len() < MAX_RECORDS {
                let origin = t.origin;
                t.records.push(Record {
                    name: frame.name,
                    start_ns: frame.start.duration_since(origin).as_nanos() as u64,
                    end_ns: end.duration_since(origin).as_nanos() as u64,
                    parent,
                });
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// The aggregate for `name` (zero if it never closed).
pub fn agg(name: &'static str) -> Agg {
    TRACER.with(|t| t.borrow().aggs.get(name).copied().unwrap_or_default())
}

/// Every aggregate, by name, with the name of its parent span.
pub fn aggs() -> Vec<(&'static str, Option<&'static str>, Agg)> {
    TRACER.with(|t| {
        let t = t.borrow();
        t.aggs
            .iter()
            .map(|(&n, &a)| (n, t.parents.get(n).copied(), a))
            .collect()
    })
}

/// Renders the spans as tab-separated text: one `agg` line per name
/// (count, total, self), then one `span` line per kept record.
pub fn write_tsv() -> String {
    let mut out = String::from("kind\tname\tparent\tcount_or_start_ns\ttotal_or_end_ns\tself_ns\n");
    for (name, parent, a) in aggs() {
        let _ = writeln!(
            out,
            "agg\t{name}\t{}\t{}\t{}\t{}",
            parent.unwrap_or("-"),
            a.count,
            a.total_ns,
            a.self_ns()
        );
    }
    TRACER.with(|t| {
        for r in &t.borrow().records {
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{}\t-",
                r.name,
                r.parent.unwrap_or("-"),
                r.start_ns,
                r.end_ns
            );
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable();
        {
            let _outer = enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        }
        disable();
        let outer = agg("outer");
        let inner = agg("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.child_ns, inner.total_ns);
        assert!(outer.self_ns() >= 2_000_000 && outer.self_ns() < outer.total_ns);
        assert!(write_tsv().contains("agg\tinner\touter\t1\t"));
    }
}
