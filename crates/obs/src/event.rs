//! Structured telemetry events and the bounded, striped event ring.

use crate::json::{fixed, JsonObject};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Ring stripes: recording threads are spread over independent mutexes
/// so event pushes from different threads rarely contend.
const STRIPES: usize = 16;

/// Events retained per stripe; the oldest in a full stripe is dropped
/// (and counted) so recording is always bounded-memory and non-blocking.
const STRIPE_CAP: usize = 4096;

/// A typed field value on an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Free-form text.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::U64(v as u64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Digits after the point of every `F64` field, in the JSON line and in
/// the human rendering.
const FLOAT_DECIMALS: usize = 3;

/// A field as [`Event::render_human`] prints it: a number as the JSON
/// line writes it, a string unquoted.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => f.write_str(&fixed(*v, FLOAT_DECIMALS)),
            Value::Str(s) => f.write_str(s),
        }
    }
}

/// What kind of record an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time record ([`crate::Registry::event`]).
    Point,
    /// A completed span: duration plus its nesting depth at entry
    /// (1 = outermost).
    Span {
        /// Wall-clock duration, nanoseconds.
        dur_ns: u64,
        /// Nesting depth when the span was entered (1 = outermost).
        depth: u32,
    },
}

/// One structured telemetry record: a name, a timestamp (µs since the
/// registry was created), a monotone sequence number, and typed fields.
/// Exported as one JSON line by [`to_json_line`](Event::to_json_line) —
/// the contract in `docs/obs-schema.md`.
#[derive(Clone, Debug)]
pub struct Event {
    /// Drain-order sequence number (stamped by the registry).
    pub seq: u64,
    /// Microseconds since registry creation (stamped by the registry).
    pub ts_us: u64,
    /// Event name.
    pub name: &'static str,
    /// Point vs. completed-span.
    pub kind: EventKind,
    /// Typed fields, in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new point event named `name`; `seq`/`ts_us` are stamped when
    /// the event is recorded into a registry.
    pub fn new(name: &'static str) -> Self {
        Event {
            seq: 0,
            ts_us: 0,
            name,
            kind: EventKind::Point,
            fields: Vec::new(),
        }
    }

    /// Attach a field (builder style).
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// One JSON line: reserved keys `event`, `seq`, `ts_us`, `kind`
    /// (plus `dur_ns`/`depth` for spans), then the fields flattened into
    /// the same object. Field keys must avoid the reserved names.
    pub fn to_json_line(&self) -> String {
        let line = JsonObject::new()
            .str("event", self.name)
            .u64("seq", self.seq)
            .u64("ts_us", self.ts_us);
        let line = match self.kind {
            EventKind::Point => line.str("kind", "point"),
            EventKind::Span { dur_ns, depth } => line
                .str("kind", "span")
                .u64("dur_ns", dur_ns)
                .u64("depth", depth.into()),
        };
        self.fields
            .iter()
            .fold(line, |line, (k, v)| match v {
                Value::U64(v) => line.u64(k, *v),
                Value::I64(v) => line.i64(k, *v),
                Value::F64(v) => line.f64(k, *v, FLOAT_DECIMALS),
                Value::Str(s) => line.str(k, s),
            })
            .finish()
    }

    /// Human rendering of the same record (`name key=value …`), used by
    /// `--human` flags so drivers never hand-roll a second format.
    pub fn render_human(&self) -> String {
        let mut out = format!("{:>12}", self.name);
        if let EventKind::Span { dur_ns, depth } = self.kind {
            out.push_str(&format!(" dur_ns={dur_ns} depth={depth}"));
        }
        for (k, v) in &self.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The bounded event buffer: [`STRIPES`] independently locked rings so
/// concurrent recorders rarely share a mutex, plus a global sequence
/// counter so a drain can restore total recording order.
pub(crate) struct EventSink {
    stripes: Vec<Mutex<VecDeque<Event>>>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

/// Round-robin stripe assignment, one stripe per recording thread.
fn my_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl EventSink {
    pub(crate) fn new() -> Self {
        EventSink {
            stripes: (0..STRIPES).map(|_| Mutex::new(VecDeque::new())).collect(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, mut event: Event, ts_us: u64) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        event.ts_us = ts_us;
        let mut ring = self.stripes[my_stripe()]
            .lock()
            .expect("event stripe poisoned");
        if ring.len() >= STRIPE_CAP {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    pub(crate) fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(stripe.lock().expect("event stripe poisoned").drain(..));
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact line for every `Value` kind: readers of the JSON lines
    /// (`docs/obs-schema.md`) see no byte move when the writer changes.
    #[test]
    fn point_event_line_is_byte_exact() {
        let e = Event {
            seq: 3,
            ts_us: 99,
            name: "round",
            kind: EventKind::Point,
            fields: vec![
                ("work", Value::U64(10)),
                ("delta", Value::I64(-4)),
                ("ratio", Value::F64(0.5)),
                ("nan", Value::F64(f64::NAN)),
                ("inf", Value::F64(f64::INFINITY)),
                ("note", Value::Str("a\"b\\c\nd\u{1}".into())),
            ],
        };
        assert_eq!(
            e.to_json_line(),
            r#"{"event":"round","seq":3,"ts_us":99,"kind":"point","work":10,"delta":-4,"ratio":0.500,"nan":null,"inf":null,"note":"a\"b\\c\nd\u0001"}"#
        );
        assert_eq!(
            e.render_human(),
            "       round work=10 delta=-4 ratio=0.500 nan=null inf=null note=a\"b\\c\nd\u{1}"
        );
        assert_eq!(e.field("work"), Some(&Value::U64(10)));
        assert_eq!(e.field("missing"), None);
    }

    #[test]
    fn span_event_line_is_byte_exact() {
        let e = Event {
            seq: 7,
            ts_us: 1234,
            kind: EventKind::Span {
                dur_ns: 1200,
                depth: 2,
            },
            ..Event::new("commit").with("epoch", 5u64)
        };
        assert_eq!(
            e.to_json_line(),
            r#"{"event":"commit","seq":7,"ts_us":1234,"kind":"span","dur_ns":1200,"depth":2,"epoch":5}"#
        );
        assert_eq!(e.render_human(), "      commit dur_ns=1200 depth=2 epoch=5");
    }

    #[test]
    fn full_stripe_drops_oldest_and_counts() {
        let sink = EventSink::new();
        for i in 0..(STRIPE_CAP + 5) as u64 {
            sink.push(Event::new("e").with("i", i), 0);
        }
        // Single thread → single stripe → exactly 5 drops, newest kept.
        assert_eq!(sink.dropped(), 5);
        let drained = sink.drain();
        assert_eq!(drained.len(), STRIPE_CAP);
        assert_eq!(drained[0].fields[0].1, Value::U64(5));
    }
}
