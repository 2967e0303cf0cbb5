//! Outside-in tracing: spans recorded by the benchmark around its calls into
//! each layer's public functions (no span lives inside the program).
//!
//! A span has a name, a start, an end and the span that caused it (its
//! parent on the open-span stack). A span's self time is its duration minus
//! the time its child spans cover. Spans are aggregated per name into
//! [`SpanTotals`]; coarse spans (everything but the replay's per-candidate
//! hot calls) are also kept as records in memory and written out when the
//! run ends.
//!
//! A disabled tracer costs one branch per span and records nothing: the
//! end-to-end numbers are measured with tracing off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Self time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// Duration in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// Per-name span totals of one phase (a pass, a set-up, the replay).
pub type Totals = BTreeMap<&'static str, SpanTotals>;

/// One kept span.
#[derive(Debug, Clone)]
struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    record: Option<usize>,
}

/// The span recorder of one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    totals: Totals,
    op: u64,
}

impl Tracer {
    /// A tracer; `on == false` makes every span a plain call.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            records: Vec::new(),
            totals: Totals::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between phases (no span may be open).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "span still open");
        self.on = on;
    }

    /// Sets the operation id stamped on the spans that follow (spans of
    /// one operation share it).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a kept span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.run(name, true, f)
    }

    /// Runs `f` inside an aggregated-only span: for calls made thousands of
    /// times per operation, whose records would swamp memory.
    pub fn hot<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.run(name, false, f)
    }

    fn run<R>(&mut self, name: &'static str, keep: bool, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start = Instant::now();
        let record = keep.then(|| {
            self.records.push(SpanRecord {
                name,
                start_ns: ns(start - self.epoch),
                end_ns: 0,
                parent: self.stack.iter().rev().find_map(|o| o.record),
                op: self.op,
            });
            self.records.len() - 1
        });
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            record,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack underflow");
        debug_assert_eq!(open.name, name);
        let dur = ns(end - open.start);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(name).or_default();
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(i) = open.record {
            self.records[i].end_ns = ns(end - self.epoch);
        }
        out
    }

    /// Takes the totals accumulated since the last call (one phase).
    pub fn take_totals(&mut self) -> Totals {
        std::mem::take(&mut self.totals)
    }

    /// Number of kept span records.
    pub fn records(&self) -> usize {
        self.records.len()
    }

    /// The kept spans as JSON lines.
    pub fn records_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                r.name, r.start_ns, r.end_ns, r.op
            );
        }
        out
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.hot("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t.take_totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.total_ns - outer.self_ns, inner.total_ns);
        assert_eq!(t.records(), 1, "hot spans are not kept");
        assert!(t.take_totals().is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.take_totals().is_empty());
        assert_eq!(t.records(), 0);
    }
}
