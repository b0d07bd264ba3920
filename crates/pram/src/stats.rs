//! Accounting: simulated time, work, processors, memory traffic, space.

/// Resource accounting for a simulated PRAM run.
///
/// The quantities correspond one-to-one to the resources bounded by the
/// paper's theorems:
///
/// * `steps` — simulated parallel time (`O(log d + log log_{m/n} n)` for
///   Theorem 3),
/// * `max_procs` — the processor bound (`O(m)`),
/// * `peak_words` — the space bound (`O(m)`),
/// * `work` — processor-time product (near work-efficiency),
/// * `max_ops_per_proc` — audit of the "O(1) local computation per step"
///   discipline (see ARCHITECTURE.md, "The charge / live-work accounting
///   model": a few primitives scan an `O(log log n)` level array in one
///   charged step; this counter exposes the real constant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Simulated parallel time: sum of charges over executed steps
    /// (a plain [`crate::Pram::step`] charges 1).
    pub steps: u64,
    /// Number of `step` calls (== `steps` unless charged steps were used).
    pub step_calls: u64,
    /// Total work: Σ (active processors × charge) over steps.
    pub work: u64,
    /// Maximum number of processors active in any single step.
    pub max_procs: u64,
    /// Total shared-memory reads.
    pub reads: u64,
    /// Total shared-memory writes (before write resolution).
    pub writes: u64,
    /// Maximum number of memory/local operations a single processor
    /// performed within one step.
    pub max_ops_per_proc: u64,
    /// Live words currently allocated (counting size-class rounding).
    pub live_words: u64,
    /// High-water mark of `live_words` over the run.
    pub peak_words: u64,
    /// Write conflicts, counted on every machine and in every kind of
    /// step ([`crate::Pram::step_combine`] included): the number of writes
    /// that hit a cell already written in the same step. Non-zero means
    /// the program is not a legal CREW program.
    pub write_conflicts: u64,
    /// Number of host threads the rayon pool was running when the machine
    /// was created ([`crate::Pram::new`]) — what the simulation *actually*
    /// executed on, so experiment tables can report it. Purely host-side;
    /// no simulated quantity depends on it.
    pub host_threads: u64,
}

impl Stats {
    /// Merge per-step deltas into the totals.
    pub(crate) fn record_step(&mut self, nprocs: u64, charge: u64) {
        self.steps += charge;
        self.step_calls += 1;
        self.work += nprocs * charge;
        self.max_procs = self.max_procs.max(nprocs);
    }

    /// All fields as `(name, value)` pairs, in declaration order — the
    /// single source for both observability bridges below.
    fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("steps", self.steps),
            ("step_calls", self.step_calls),
            ("work", self.work),
            ("max_procs", self.max_procs),
            ("reads", self.reads),
            ("writes", self.writes),
            ("max_ops_per_proc", self.max_ops_per_proc),
            ("live_words", self.live_words),
            ("peak_words", self.peak_words),
            ("write_conflicts", self.write_conflicts),
            ("host_threads", self.host_threads),
        ]
    }

    /// Export the totals into `registry` as gauges named
    /// `{prefix}_{field}` (e.g. `sim_steps`). Gauges, not counters: a
    /// `Stats` is a finished run's absolute accounting, not a delta, and
    /// re-recording the same run must not double-count.
    ///
    /// Metric names are interned via [`logdiam_obs::Registry::intern`],
    /// so this is an end-of-run export, not a per-step hot path.
    pub fn record_into(&self, registry: &logdiam_obs::Registry, prefix: &str) {
        for (name, v) in self.fields() {
            let metric = logdiam_obs::Registry::intern(&format!("{prefix}_{name}"));
            registry.gauge(metric).set(v as i64);
        }
    }

    /// The same totals as one structured telemetry event named
    /// `pram_stats` (one field per [`Stats`] field), ready for a
    /// registry's event ring or direct JSON-lines output.
    pub fn to_event(&self) -> logdiam_obs::Event {
        let mut e = logdiam_obs::Event::new("pram_stats");
        for (name, v) in self.fields() {
            e = e.with(name, v);
        }
        e
    }

    /// Pretty one-line summary, used by the experiment harness.
    pub fn summary(&self) -> String {
        format!(
            "steps={} work={} max_procs={} peak_words={} reads={} writes={} max_ops/proc={} host_threads={}",
            self.steps,
            self.work,
            self.max_procs,
            self.peak_words,
            self.reads,
            self.writes,
            self.max_ops_per_proc,
            self.host_threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_step_accumulates() {
        let mut s = Stats::default();
        s.record_step(10, 1);
        s.record_step(4, 3);
        assert_eq!(s.steps, 4);
        assert_eq!(s.step_calls, 2);
        assert_eq!(s.work, 10 + 12);
        assert_eq!(s.max_procs, 10);
    }

    #[test]
    fn summary_contains_fields() {
        let s = Stats {
            steps: 7,
            ..Default::default()
        };
        assert!(s.summary().contains("steps=7"));
    }

    #[test]
    fn record_into_exports_every_field_as_prefixed_gauge() {
        let s = Stats {
            steps: 7,
            work: 40,
            peak_words: 99,
            ..Default::default()
        };
        let reg = logdiam_obs::Registry::new();
        s.record_into(&reg, "sim");
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["sim_steps"], 7);
        assert_eq!(snap.gauges["sim_work"], 40);
        assert_eq!(snap.gauges["sim_peak_words"], 99);
        assert_eq!(snap.gauges.len(), 11, "one gauge per Stats field");
        // Re-recording the same run is idempotent (gauges, not counters).
        s.record_into(&reg, "sim");
        assert_eq!(reg.snapshot().gauges["sim_steps"], 7);
    }

    #[test]
    fn to_event_carries_all_fields() {
        let s = Stats {
            steps: 3,
            host_threads: 2,
            ..Default::default()
        };
        let e = s.to_event();
        assert_eq!(e.name, "pram_stats");
        assert_eq!(e.fields.len(), 11);
        assert_eq!(e.field("steps"), Some(&logdiam_obs::Value::U64(3)));
        assert_eq!(e.field("host_threads"), Some(&logdiam_obs::Value::U64(2)));
        assert!(e.to_json_line().contains("\"steps\":3"));
    }
}
