//! Point-in-time metric snapshots and their JSON dump.

use crate::hist::HistogramSnapshot;
use crate::JsonObject;
use std::collections::BTreeMap;

/// A plain-data copy of a [`crate::Registry`]'s metrics: counters,
/// gauges, and histogram snapshots, keyed by name.
///
/// A snapshot [`validate`](MetricsSnapshot::validate)s its histograms;
/// its JSON layout is the `obs` dump contract in `docs/obs-schema.md`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Validate every histogram ([`HistogramSnapshot::validate`]).
    /// Counters and gauges need no check (unsigned / free-ranging).
    pub fn validate(&self) -> Result<(), String> {
        for (name, h) in &self.histograms {
            h.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// Export as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,max,
    /// mean,p50,p90,p99,buckets:[..]}}}` — histogram `buckets` arrays are
    /// written in full (fixed [`crate::BUCKETS`] length) so `count ==
    /// Σ buckets` is externally checkable.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .fold(JsonObject::new(), |o, (k, &v)| o.u64(k, v));
        let gauges = self
            .gauges
            .iter()
            .fold(JsonObject::new(), |o, (k, &v)| o.i64(k, v));
        let histograms = self.histograms.iter().fold(JsonObject::new(), |o, (k, h)| {
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            let h = JsonObject::new()
                .u64("count", h.count)
                .u64("sum", h.sum)
                .u64("max", h.max)
                .f64("mean", h.mean(), 3)
                .f64("p50", h.p50(), 3)
                .f64("p90", h.p90(), 3)
                .f64("p99", h.p99(), 3)
                .raw("buckets", &format!("[{}]", buckets.join(",")));
            o.raw(k, &h.finish())
        });
        JsonObject::new()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &histograms.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("a_total").add(3);
        reg.gauge("depth").set(-2);
        reg.histogram("lat_ns").observe(100);
        reg.histogram("lat_ns").observe(200);
        reg.snapshot()
    }

    /// The exact dump: readers of the `obs` objects embedded in bench
    /// reports (`docs/obs-schema.md`) see no byte move when the writer
    /// changes.
    #[test]
    fn json_dump_is_byte_exact() {
        let s = sample();
        s.validate().unwrap();
        assert_eq!(
            s.to_json(),
            r#"{"counters":{"a_total":3},"gauges":{"depth":-2},"histograms":{"lat_ns":{"count":2,"sum":300,"max":200,"mean":150.000,"p50":127.000,"p90":200.000,"p99":200.000,"buckets":[0,0,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}"#
        );
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }
}
