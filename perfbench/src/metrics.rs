//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; `tests/contract.rs` keeps the two in step. Every run prints every
//! metric of its table: a layer that a workload bypasses reports 0 for its
//! per-layer metrics (the layer did no work), while every end-to-end metric
//! is measured on every workload and is never 0.

use std::collections::BTreeMap;

/// One reported metric: its name and its unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by untraced runs (`--trace 0`): what a user of the program sees.
pub const END_TO_END: [Metric; 4] = [
    // Median set-up: the CSR build from the edge stream (plus
    // `ConnectivityService::create` on the service workload).
    m("setup_s", "s"),
    // Median latency of the workload's unit of work: one `faster_cc` call
    // on a fresh machine, one `unionfind_cc` call, or one service commit
    // from its due time to its fulfilled ticket.
    m("op_p50_ms", "ms"),
    // Input edges labelled per second of one median call, or committed
    // edge writes per second under the closed loop on the service.
    m("edges_per_s", "edges/s"),
    // Peak resident set of the workload process.
    m("peak_rss_mb", "MB"),
];

/// Printed by traced runs (`--trace 1`), grouped by workspace layer.
pub const PER_LAYER: [Metric; 64] = [
    // The benchmark's own bookkeeping: pool width, and the sample count and
    // tail behind `op_p50_ms` (the highest percentile with at least ten
    // samples beyond it; the maximum when fewer than eleven were taken).
    m("perfbench.threads", "count"),
    m("perfbench.op_samples", "count"),
    m("perfbench.op_tail_ms", "ms"),
    m("perfbench.sender_late_ms", "ms"),
    // cc-graph: edge runs -> CSR, and the sequential reference.
    m("cc-graph.push_s", "s"),
    m("cc-graph.build_s", "s"),
    m("cc-graph.csr_bytes", "bytes"),
    m("cc-graph.seq_dsu_s", "s"),
    // pram-sim: the CRCW machine.
    m("pram-sim.steps", "count"),
    m("pram-sim.work", "count"),
    m("pram-sim.ns_per_work", "ns"),
    m("pram-sim.reads", "count"),
    m("pram-sim.writes", "count"),
    m("pram-sim.step_ns", "ns"),
    m("pram-sim.peak_words", "words"),
    m("pram-sim.arena_bytes", "bytes"),
    // pram-kit: compaction and hashing, per item.
    m("pram-kit.compact_ns", "ns"),
    m("pram-kit.pairset_ns", "ns"),
    // logdiam-cc: the Theorem-3 run's own report.
    m("logdiam-cc.rounds", "count"),
    m("logdiam-cc.prepare_rounds", "count"),
    m("logdiam-cc.compaction_retries", "count"),
    m("logdiam-cc.startup_work", "count"),
    m("logdiam-cc.round_work", "count"),
    m("logdiam-cc.compaction_work", "count"),
    m("logdiam-cc.post_work", "count"),
    m("logdiam-cc.work_per_m_round", "ratio"),
    m("logdiam-cc.max_level", "count"),
    m("logdiam-cc.dormant", "count"),
    m("logdiam-cc.peak_table_words", "words"),
    m("logdiam-cc.live_arcs_r1", "count"),
    // logdiam-par: the practical backends on the workload's graph.
    m("logdiam-par.unionfind_s", "s"),
    m("logdiam-par.labelprop_s", "s"),
    m("logdiam-par.sv_s", "s"),
    m("logdiam-par.contract_s", "s"),
    m("logdiam-par.vs_dsu", "ratio"),
    // logdiam-svc: caller-side timings plus the service's own registry.
    m("logdiam-svc.enqueue_p50_us", "us"),
    m("logdiam-svc.enqueue_p99_us", "us"),
    m("logdiam-svc.queue_wait_us", "us"),
    m("logdiam-svc.commit_span_us", "us"),
    m("logdiam-svc.dedup_us", "us"),
    m("logdiam-svc.absorb_us", "us"),
    m("logdiam-svc.cross_drain_us", "us"),
    m("logdiam-svc.publish_us", "us"),
    m("logdiam-svc.wal_append_us", "us"),
    m("logdiam-svc.fsync_us", "us"),
    m("logdiam-svc.pipeline_coverage", "ratio"),
    m("logdiam-svc.fold_ms", "ms"),
    m("logdiam-svc.recompute_ms", "ms"),
    m("logdiam-svc.swap_ms", "ms"),
    m("logdiam-svc.durable_snapshot_ms", "ms"),
    m("logdiam-svc.folds", "count"),
    m("logdiam-svc.stale_rebuild_ratio", "ratio"),
    m("logdiam-svc.new_edge_ratio", "ratio"),
    m("logdiam-svc.wal_bytes_per_edge", "bytes"),
    m("logdiam-svc.fsyncs_per_commit", "ratio"),
    m("logdiam-svc.query_p50_us", "us"),
    m("logdiam-svc.query_p99_us", "us"),
    m("logdiam-svc.query_in_rebuild_p99_us", "us"),
    m("logdiam-svc.recover_s", "s"),
    m("logdiam-svc.replayed_records", "count"),
    // logdiam-obs: traced / untraced main metric, minus one.
    m("logdiam-obs.overhead", "ratio"),
    // rayon: 1-thread time / pool-width time.
    m("rayon.speedup_2t_faster_cc", "ratio"),
    m("rayon.speedup_2t_unionfind_cc", "ratio"),
    m("rayon.speedup_2t_build", "ratio"),
];

/// Measured values by metric name. Names are checked against both
/// tables on insertion, so a misspelt metric fails loudly instead of
/// silently printing 0.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `num / den`, or 0 when the denominator is 0 (a bypassed layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Tracing overhead: median traced sample over median untraced sample,
/// minus one (0 when either side has no samples).
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    let (t, u) = (
        crate::measure::median(traced),
        crate::measure::median(untraced),
    );
    if t > 0.0 && u > 0.0 {
        t / u - 1.0
    } else {
        0.0
    }
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`, with one `{"value", "unit"}` object per metric of `table`.
/// Values print with every digit Rust's shortest round-trip form gives;
/// a metric not recorded (a bypassed layer) prints 0.
pub fn result_line(attempted: u64, failed: u64, table: &[Metric], values: &Values) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let v = values.get(m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_prints_every_metric_and_zero_for_missing_ones() {
        let mut v = Values::default();
        v.set("setup_s", 0.125);
        v.set("op_p50_ms", f64::NAN);
        let line = result_line(3, 0, &END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        assert!(result_line(3, 1, &END_TO_END, &v).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn misspelt_metric_panics() {
        Values::default().set("setup_seconds", 1.0);
    }
}
