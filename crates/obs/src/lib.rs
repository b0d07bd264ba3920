//! # `logdiam-obs` — the workspace's unified observability layer
//!
//! One queryable telemetry surface for every layer of the reproduction:
//! the PRAM simulator's resource accounting, the theorem drivers'
//! per-round metrics, and the connectivity service's commit pipeline all
//! record into the same three primitives instead of growing one-off
//! counters per subsystem.
//!
//! * **Metrics registry** ([`Registry`]): monotonic [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s. Recording is lock-free
//!   (relaxed atomics on pre-registered handles); the registry's name
//!   maps are only locked at registration and snapshot time.
//! * **Spans** ([`Span`], [`span!`]): scoped timers. A completed span
//!   observes its duration (nanoseconds) into the histogram of the same
//!   name and appends an enter/exit event to a bounded, striped
//!   per-thread ring. Spans nest (the recorded event carries its depth)
//!   and can be disabled at runtime ([`Registry::set_spans_enabled`], or
//!   the `LOGDIAM_OBS_SPANS` environment variable read at
//!   [`Registry::new`]); a disabled span costs one relaxed load.
//! * **Structured events** ([`Event`]): named, timestamped records with
//!   typed fields, drained in order and exported as JSON lines.
//!
//! Snapshots ([`MetricsSnapshot`]) are plain data: self-validating
//! (histogram count == Σ buckets) and dumped as a single JSON object.
//! Every JSON the workspace writes — event lines, metric dumps, bench
//! report rows and envelopes — goes through one writer, [`JsonObject`].
//! The external contracts — metric names, the event JSON-lines schema —
//! are documented in `docs/obs-schema.md`.
//!
//! Nothing in this crate is on the determinism fingerprint surface:
//! metrics and events record host timing and are never read back by any
//! algorithm, so enabling or disabling observability cannot change a
//! published label (pinned by the workspace determinism suite).
//!
//! ```
//! use logdiam_obs::{Registry, span};
//!
//! let reg = Registry::new();
//! reg.counter("requests_total").inc();
//! reg.gauge("inflight").set(3);
//! reg.histogram("batch_size").observe(128);
//! {
//!     let _commit = span!(reg, "commit", epoch = 7); // times this scope
//! }
//! reg.event(logdiam_obs::Event::new("replay_progress").with("epoch", 7u64));
//!
//! let snap = reg.snapshot();
//! snap.validate().expect("internally consistent");
//! assert_eq!(snap.counters["requests_total"], 1);
//! assert_eq!(snap.histograms["commit"].count, 1); // the span landed
//! let json = snap.to_json();
//! assert!(json.contains("\"requests_total\":1"));
//! let lines = reg.drain_events();
//! assert_eq!(lines.len(), 2); // the span event + the explicit event
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;
mod json;
mod snapshot;
mod span;

pub use event::{Event, EventKind, Value};
pub use hist::{bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use json::JsonObject;
pub use snapshot::MetricsSnapshot;
pub use span::Span;

use event::EventSink;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Environment variable consulted by [`Registry::new`]: set to `0`,
/// `off`, or `false` to start with spans disabled. Timing-only — label
/// output is identical either way.
pub const SPANS_ENV: &str = "LOGDIAM_OBS_SPANS";

/// A monotonic counter handle. Cloning shares the underlying cell;
/// recording is a relaxed atomic add — approximate-ordering,
/// exact-total (the sum of all `add`s is never lost).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable signed value (relaxed atomics).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct Inner {
    start: Instant,
    spans_enabled: AtomicBool,
    counters: RwLock<BTreeMap<&'static str, Counter>>,
    gauges: RwLock<BTreeMap<&'static str, Gauge>>,
    histograms: RwLock<BTreeMap<&'static str, Histogram>>,
    events: EventSink,
}

/// The metrics registry: named counters, gauges, histograms, plus the
/// bounded event ring. Cheap to clone (an `Arc` handle); all clones see
/// the same metrics.
///
/// Registration (`counter`/`gauge`/`histogram`/`span`) takes a short
/// read lock on the name map (write lock only the first time a name is
/// seen); recording through a returned handle is lock-free. Hold the
/// handle in hot paths instead of re-looking it up per record.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, empty registry. Spans start enabled unless the
    /// [`SPANS_ENV`] environment variable says otherwise.
    pub fn new() -> Self {
        let spans = !matches!(
            std::env::var(SPANS_ENV).as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        );
        Registry {
            inner: Arc::new(Inner {
                start: Instant::now(),
                spans_enabled: AtomicBool::new(spans),
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
                events: EventSink::new(),
            }),
        }
    }

    /// Intern a runtime-built metric name (e.g. `format!("{prefix}_{f}")`)
    /// into the `&'static str` the registry maps require. Each unique
    /// string is leaked exactly once, process-wide; repeat calls return
    /// the same pointer. For end-of-run exports and prefixed bridges —
    /// hot paths should pass string literals instead.
    pub fn intern(name: &str) -> &'static str {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let mut set = INTERNED.lock().expect("obs intern set poisoned");
        if let Some(found) = set.get(name) {
            return found;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        set.insert(leaked);
        leaked
    }

    fn get_or_insert<T: Clone + Default>(
        map: &RwLock<BTreeMap<&'static str, T>>,
        name: &'static str,
    ) -> T {
        if let Some(found) = map.read().expect("obs map poisoned").get(name) {
            return found.clone();
        }
        map.write()
            .expect("obs map poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// The counter registered under `name` (registered on first use).
    pub fn counter(&self, name: &'static str) -> Counter {
        Self::get_or_insert(&self.inner.counters, name)
    }

    /// The gauge registered under `name` (registered on first use).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Self::get_or_insert(&self.inner.gauges, name)
    }

    /// The histogram registered under `name` (registered on first use).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Self::get_or_insert(&self.inner.histograms, name)
    }

    /// Start a span named `name`. When it drops, its duration in
    /// nanoseconds is observed into the histogram of the same name and a
    /// span event is appended to the ring. When spans are disabled the
    /// returned guard is inert (no clock read, no recording).
    pub fn span(&self, name: &'static str) -> Span {
        if !self.spans_enabled() {
            return Span::disabled();
        }
        Span::enabled(self.clone(), name, self.histogram(name))
    }

    /// Whether spans currently record (see
    /// [`set_spans_enabled`](Registry::set_spans_enabled)).
    pub fn spans_enabled(&self) -> bool {
        self.inner.spans_enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable span recording at runtime. Purely a telemetry
    /// switch: toggling it cannot change any algorithm output.
    pub fn set_spans_enabled(&self, enabled: bool) {
        self.inner.spans_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Microseconds since the registry was created — the timestamp base
    /// of every recorded [`Event`].
    pub fn elapsed_us(&self) -> u64 {
        self.inner.start.elapsed().as_micros() as u64
    }

    /// Record a structured event into the bounded ring. The registry
    /// stamps the sequence number and timestamp; when a ring stripe is
    /// full the oldest event in it is dropped (counted by
    /// [`dropped_events`](Registry::dropped_events)) — recording never
    /// blocks on a reader.
    pub fn event(&self, event: Event) {
        self.inner.events.push(event, self.elapsed_us());
    }

    /// Drain every buffered event, in recording (sequence) order.
    pub fn drain_events(&self) -> Vec<Event> {
        self.inner.events.drain()
    }

    /// Events discarded because their ring stripe was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner.events.dropped()
    }

    /// A point-in-time copy of every metric. The snapshot is plain data:
    /// exportable, and safe to hold while recording continues.
    /// Concurrent recording may be torn *across* metrics (the snapshot is
    /// not a global atomic cut) but each histogram's count always equals
    /// the sum of its buckets — counts and buckets are written
    /// count-first, read buckets-first (see [`Histogram::snapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .read()
            .expect("obs map poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .expect("obs map poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .read()
            .expect("obs map poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("spans_enabled", &self.spans_enabled())
            .finish_non_exhaustive()
    }
}

/// Start a [`Span`] on a registry, optionally attaching fields:
/// `span!(reg, "commit")` or `span!(reg, "commit", epoch = e, m = m)`.
/// Field values must convert to `u64` with `as`.
#[macro_export]
macro_rules! span {
    ($reg:expr, $name:expr) => {
        $reg.span($name)
    };
    ($reg:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $reg.span($name)$(.with(stringify!($key), $value as u64))+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("c").get(), 5);
        let g = reg.gauge("g");
        g.set(-3);
        g.add(5);
        assert_eq!(reg.gauge("g").get(), 2);
        // Same name, same cell.
        assert_eq!(c.get(), reg.counter("c").get());
    }

    #[test]
    fn span_records_into_same_named_histogram_and_ring() {
        let reg = Registry::new();
        reg.set_spans_enabled(true);
        {
            let _outer = span!(reg, "outer", k = 3);
            let _inner = span!(reg, "inner");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["outer"].count, 1);
        assert_eq!(snap.histograms["inner"].count, 1);
        let events = reg.drain_events();
        assert_eq!(events.len(), 2);
        // Inner span ends (and records) first; depth reflects nesting.
        assert_eq!(events[0].name, "inner");
        assert!(matches!(events[0].kind, EventKind::Span { depth: 2, .. }));
        assert!(matches!(events[1].kind, EventKind::Span { depth: 1, .. }));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let reg = Registry::new();
        reg.set_spans_enabled(false);
        {
            let _s = span!(reg, "quiet", a = 1);
        }
        let snap = reg.snapshot();
        assert!(snap.histograms.is_empty());
        assert!(reg.drain_events().is_empty());
        reg.set_spans_enabled(true);
        {
            let _s = span!(reg, "loud");
        }
        assert_eq!(reg.snapshot().histograms["loud"].count, 1);
    }

    #[test]
    fn intern_returns_one_pointer_per_unique_name() {
        let a = Registry::intern("pfx_steps");
        let b = Registry::intern(&format!("pfx_{}", "steps"));
        assert!(std::ptr::eq(a, b));
        let reg = Registry::new();
        reg.gauge(a).set(7);
        assert_eq!(reg.gauge(b).get(), 7);
    }

    #[test]
    fn events_drain_in_sequence_order() {
        let reg = Registry::new();
        for i in 0..10u64 {
            reg.event(Event::new("tick").with("i", i));
        }
        let events = reg.drain_events();
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.fields[0].1, Value::U64(i as u64));
        }
        assert!(reg.drain_events().is_empty(), "drain consumes");
        assert_eq!(reg.dropped_events(), 0);
    }
}
