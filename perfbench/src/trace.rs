//! The benchmark's own spans around each call into a layer.
//!
//! Spans use the `logdiam-obs` event format and registry: they are kept in
//! the registry's in-memory ring and written out as JSON lines when the run
//! ends, together with the service registry's own events. Each span event
//! carries the workload name; per-call spans also carry the call's `op`
//! index, so the spans of one operation share an identifier. Nesting is the
//! span's `depth` field, and a span's start is `ts_us - dur_ns / 1000`.

use logdiam_obs::{Event, Registry, Span};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A registry of benchmark spans, switched on only in traced runs.
pub struct Tracer {
    reg: Registry,
    workload: &'static str,
}

impl Tracer {
    /// A tracer for `workload`, recording iff `enabled`.
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        let reg = Registry::new();
        reg.set_spans_enabled(enabled);
        Tracer { reg, workload }
    }

    /// Switch recording on or off (the traced run alternates to measure
    /// tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.reg.set_spans_enabled(on);
    }

    /// Open a span named `name` (inert when recording is off).
    pub fn span(&self, name: &'static str) -> Span {
        self.reg.span(name).with("workload", self.workload)
    }

    /// Run `f` inside a span named `name`; returns its result and seconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.span(name);
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    }

    /// Write every recorded span, then `more` (e.g. the service's events),
    /// as JSON lines to `path`.
    pub fn write(&self, path: &Path, more: Vec<Event>) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for e in self.reg.drain_events().into_iter().chain(more) {
            writeln!(out, "{}", e.to_json_line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_when_enabled() {
        let t = Tracer::new("w", false);
        let (x, secs) = t.time("a", || 7);
        assert_eq!(x, 7);
        assert!(secs >= 0.0);
        t.set_enabled(true);
        t.time("b", || ());
        let events = t.reg.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "b");
        assert!(events[0].to_json_line().contains("\"workload\":\"w\""));
    }
}
