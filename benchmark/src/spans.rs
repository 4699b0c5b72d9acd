//! The traced run's span recorder. It lives in the benchmark, not in the
//! program: spans go around the driver's calls into each layer (name,
//! start, end, parent), stay in memory, and are written at exit as Chrome
//! trace-event JSON plus a self-time table.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One closed span. `index` distinguishes repeats (`round[3]`,
/// `source[1742]`); the self-time table groups by `name` alone.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub index: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tid: u32,
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// A per-thread span recorder. When off, `begin`/`end` do nothing, so
/// the untraced run pays one branch per call site.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// `epoch` is the process-wide time origin, shared by every thread's
    /// recorder so their spans line up in one trace.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Recorder { on, epoch, tid, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.open(name, None)
    }

    pub fn begin_at(&mut self, name: &'static str, index: u64) -> Open {
        self.open(name, Some(index))
    }

    fn open(&mut self, name: &'static str, index: Option<u64>) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            index,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            tid: self.tid,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span. Spans close innermost-first; closing an outer span
    /// closes whatever is still open inside it.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Take another thread's spans into this recorder (parents re-indexed).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its direct children cover.
    pub self_ns: u64,
}

/// Self time per span name: a span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (k, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let row = rows.entry(s.name).or_insert(SelfTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(child_ns[k]);
    }
    let mut out: Vec<SelfTime> = rows.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    out
}

/// The self-time table as text, widest self time first.
pub fn format_self_times(rows: &[SelfTime]) -> String {
    let mut out = format!("{:<34} {:>7} {:>12} {:>12}\n", "span", "count", "total_ms", "self_ms");
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>7} {:>12.3} {:>12.3}\n",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        ));
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, timestamps in microseconds.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let label = |s: &Span| match s.index {
        Some(i) => format!("{}[{i}]", s.name),
        None => s.name.to_string(),
    };
    let events = spans
        .iter()
        .map(|s| {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            Value::Obj(vec![
                ("name".into(), label(s).into()),
                ("cat".into(), layer.into()),
                ("ph".into(), "X".into()),
                ("ts".into(), (s.start_ns as f64 / 1e3).into()),
                ("dur".into(), ((s.end_ns - s.start_ns) as f64 / 1e3).into()),
                ("pid".into(), 1u64.into()),
                ("tid".into(), u64::from(s.tid).into()),
                (
                    "args".into(),
                    Value::Obj(vec![(
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| label(&spans[p]).into()),
                    )]),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("displayTimeUnit".into(), "ms".into()),
        ("traceEvents".into(), Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let s = |name, start_ns, end_ns, parent| Span {
            name,
            index: None,
            start_ns,
            end_ns,
            parent,
            tid: 0,
        };
        let spans = vec![
            s("run", 0, 100, None),
            s("round", 10, 90, Some(0)),
            s("kernel", 20, 50, Some(1)),
            s("kernel", 50, 80, Some(1)),
        ];
        let rows = self_times(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("run").self_ns, 20);
        assert_eq!(get("round").self_ns, 20);
        assert_eq!(get("kernel"), SelfTime { name: "kernel", count: 2, total_ns: 60, self_ns: 60 });
        // Self times add up to the root's duration.
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        let mut off = Recorder::new(false, Instant::now(), 0);
        let a = off.begin("x");
        off.end(a);
        assert!(off.spans().is_empty());

        let mut rec = Recorder::new(true, Instant::now(), 0);
        let run = rec.begin("run");
        let round = rec.begin_at("round", 3);
        let k = rec.begin("kernel.bfs");
        rec.end(k);
        rec.end(round);
        rec.end(run);
        let sp = rec.spans();
        assert_eq!(sp.len(), 3);
        assert_eq!(sp[1].parent, Some(0));
        assert_eq!(sp[2].parent, Some(1));
        assert!(sp[0].end_ns >= sp[2].end_ns);
        let doc = chrome_trace(sp);
        let ev = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev[1].get("name").unwrap().as_str(), Some("round[3]"));
        assert_eq!(ev[2].get("args").unwrap().get("parent").unwrap().as_str(), Some("round[3]"));
        assert_eq!(crate::json::parse(&doc.render()).unwrap(), doc);
    }
}
