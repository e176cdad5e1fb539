//! In-memory span and count recorder for traced runs, its JSONL file
//! format, and the self-time arithmetic the summariser builds on.
//!
//! A span records a name, a start and an end (nanoseconds since the
//! recorder started), its parent span and a trace id; the spans of one
//! request share the request's trace id. A count records one reading of an
//! instrument the program exports. Nothing is written until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Trace id shared by the spans of one request; `0` when the span is
    /// not tied to a request.
    pub trace: u64,
    /// Span name, e.g. `capsnet.stage`.
    pub name: String,
    /// Free label: the stage (`L1`), the rounding scheme (`RTN`), ...
    pub label: String,
    /// Samples the span processed (batch size), `0` when not applicable.
    pub size: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The process-wide recorder of a traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// Parent for spans opened on threads with no open span of their own
    /// (the kernel pool's workers during a traced `core.run`).
    ambient: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<String, f64>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns tracing on for the rest of the process.
pub fn enable() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        ambient: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
        counts: Mutex::new(BTreeMap::new()),
    })
}

/// The recorder, when tracing is on.
pub fn active() -> Option<&'static Tracer> {
    TRACER.get()
}

/// An open span; records itself when dropped.
pub struct Guard {
    tracer: &'static Tracer,
    span: Span,
    ambient: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.span.end_ns = self.tracer.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        if self.ambient {
            self.tracer.ambient.store(0, Ordering::SeqCst);
        }
        self.tracer.record(std::mem::take(&mut self.span));
    }
}

impl Tracer {
    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    /// An instant as nanoseconds since the recorder started.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Records (overwrites) one instrument reading.
    pub fn count(&self, name: &str, value: f64) {
        self.counts
            .lock()
            .expect("count buffer poisoned")
            .insert(name.to_string(), value);
    }

    /// Opens a span on this thread, parented to the thread's innermost
    /// open span, or to the ambient parent when the thread has none.
    pub fn enter(&'static self, name: &str, label: &str, size: u64) -> Guard {
        self.open(name, label, size, false)
    }

    /// [`enter`](Self::enter), and make the span the ambient parent of
    /// spans opened on other threads until it closes.
    pub fn enter_ambient(&'static self, name: &str, label: &str) -> Guard {
        self.open(name, label, 0, true)
    }

    fn open(&'static self, name: &str, label: &str, size: u64, ambient: bool) -> Guard {
        let id = self.new_id();
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.ambient.load(Ordering::SeqCst));
            open.push(id);
            parent
        });
        if ambient {
            self.ambient.store(id, Ordering::SeqCst);
        }
        Guard {
            tracer: self,
            span: Span {
                id,
                parent,
                trace: 0,
                name: name.to_string(),
                label: label.to_string(),
                size,
                start_ns: self.now_ns(),
                end_ns: 0,
            },
            ambient,
        }
    }

    /// Everything recorded so far, as JSONL: one `span` or `count`
    /// object per line.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let counts = self.counts.lock().expect("count buffer poisoned");
        let mut out = String::new();
        for (name, value) in counts.iter() {
            writeln!(
                out,
                "{{\"kind\":\"count\",\"name\":\"{name}\",\"value\":{value}}}"
            )
            .expect("write to String");
        }
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"label\":\"{}\",\"size\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.label, s.size, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out
    }
}

/// A parsed trace file.
#[derive(Debug, Default)]
pub struct TraceFile {
    /// Every span, in file order.
    pub spans: Vec<Span>,
    /// Every count, by name.
    pub counts: BTreeMap<String, f64>,
}

/// Splits one flat JSON object of string and number values into fields.
fn fields(line: &str) -> Result<BTreeMap<&str, &str>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    let mut out = BTreeMap::new();
    let mut rest = body;
    while !rest.is_empty() {
        let after_key = rest.strip_prefix('"').ok_or("key must be quoted")?;
        let (key, after) = after_key.split_once("\":").ok_or("missing ':'")?;
        let (value, tail) = if let Some(s) = after.strip_prefix('"') {
            let (v, t) = s.split_once('"').ok_or("unterminated string")?;
            (v, t)
        } else {
            match after.find(',') {
                Some(i) => (&after[..i], &after[i..]),
                None => (after, ""),
            }
        };
        out.insert(key, value);
        rest = tail.strip_prefix(',').unwrap_or(tail);
    }
    Ok(out)
}

/// Parses the JSONL written by [`Tracer::to_jsonl`].
pub fn parse(text: &str) -> Result<TraceFile, String> {
    let mut file = TraceFile::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let f = fields(line)?;
        let get = |k: &str| {
            f.get(k)
                .copied()
                .ok_or_else(|| format!("missing {k}: {line}"))
        };
        let num =
            |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
        match get("kind")? {
            "count" => {
                let value = get("value")?.parse().map_err(|e| format!("value: {e}"))?;
                file.counts.insert(get("name")?.to_string(), value);
            }
            "span" => file.spans.push(Span {
                id: num("id")?,
                parent: num("parent")?,
                trace: num("trace")?,
                name: get("name")?.to_string(),
                label: get("label")?.to_string(),
                size: num("size")?,
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
            }),
            other => return Err(format!("unknown record kind {other}")),
        }
    }
    Ok(file)
}

/// Self time of every span with children: its duration minus the part of
/// its interval covered by the union of its children's intervals.
/// Childless spans are absent (their self time is their duration).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let Some(kids) = children.get_mut(&s.id) else {
            continue;
        };
        kids.sort_unstable();
        let (mut covered, mut cursor) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        out.insert(s.id, s.dur_ns() - covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 7,
            name: "x".into(),
            label: "L1".into(),
            size: 3,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Overlapping children (parallel probes) count once.
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            // A child reaching past the parent is clipped to it.
            span(4, 1, 90, 120),
            span(5, 2, 12, 14),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 20 - 2);
        assert!(!st.contains_key(&3));
    }

    #[test]
    fn self_time_of_disjoint_children() {
        let spans = [span(1, 0, 0, 50), span(2, 1, 0, 10), span(3, 1, 40, 50)];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn jsonl_round_trips() {
        let tracer = Box::leak(Box::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            ambient: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }));
        tracer.record(span(9, 4, 5, 6));
        tracer.count("serve.replicas", 2.0);
        tracer.count("core.run_s", 0.125);
        {
            let _outer = tracer.enter("core.run", "RTN", 0);
            let _inner = tracer.enter("capsnet.stage", "L2", 6);
        }
        let file = parse(&tracer.to_jsonl()).unwrap();
        assert_eq!(file.counts["serve.replicas"], 2.0);
        assert_eq!(file.counts["core.run_s"], 0.125);
        assert_eq!(file.spans[0], span(9, 4, 5, 6));
        let inner = file
            .spans
            .iter()
            .find(|s| s.name == "capsnet.stage")
            .unwrap();
        let outer = file.spans.iter().find(|s| s.name == "core.run").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.label.as_str(), inner.size), ("L2", 6));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
