//! Multi-writer / multi-reader service benchmark: the async-API stress.
//!
//! PR 4's replay (`svc::run_trace`) drives the service from one thread and
//! waits out every commit, so its `batch_*_us` numbers measure the full
//! synchronous commit path (~2 ms at batch = 128 on the full matrix). The
//! PR 6 split moves commits onto a dedicated writer thread and turns
//! `apply_batch` into an enqueue that returns an [`EpochTicket`]; this
//! module measures what that buys under contention:
//!
//! * `W` writer threads enqueue batched edge writes drawn from a shared
//!   (deliberately *contended*) Zipfian stream, keeping a sliding window
//!   of outstanding tickets — **enqueue latency** (the new caller cost)
//!   and **commit latency** (enqueue → ticket fulfilled) are recorded
//!   separately.
//! * `R` reader threads hammer `query_latest` on Zipfian endpoints the
//!   whole time, so the report shows query latency under contention.
//!
//! Acceptance (recorded per row in `BENCH_PR6.json`):
//!
//! * `enqueue_ok` — enqueue p50 under [`ENQUEUE_BUDGET_US`] (1/10 of the
//!   PR 4 synchronous batch p50 at batch = 128);
//! * `pipeline_sum_ok` — the service registry's per-stage commit
//!   histograms (dedup / WAL append / fsync / absorb / cross-drain /
//!   publish) explain the writer's `svc_commit_ns` span: stage p50 sum
//!   within 20% of the span p50, or exact sum coverage ≥ 80%. Every row
//!   embeds the final registry dump (`obs` field, the
//!   `docs/obs-schema.md` JSON object) so the accounting is auditable.
//! * `verified` — final maintained partition equals a from-scratch
//!   sequential recompute on `initial + every committed batch`.
//!
//! All of it is wall-clock measurement, not fingerprint surface: the
//! determinism suite covers labels; this module covers latency. Numbers
//! from CI containers are 1-core and mostly show scheduling, not
//! parallelism — see README's caveat next to the published rows.

use crate::svc::{family_graph, percentile_us, TraceConfig, Zipf, SMOKE_CAP_MS};
use cc_graph::seq::{components, same_partition};
use cc_graph::{Graph, GraphBuilder, Rng};
use logdiam_svc::{ConnectivityService, EpochTicket, SvcParams};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Enqueue-latency budget, microseconds: 1/10 of PR 4's synchronous
/// batch-commit p50 (~2 ms at batch = 128 on the full matrix).
pub const ENQUEUE_BUDGET_US: f64 = 200.0;

/// Per-reader latency sample cap (queries keep running past it; only
/// recording stops, so percentiles stay memory-bounded on fast hosts).
const READER_SAMPLE_CAP: usize = 2_000_000;

/// One multi-threaded scenario: a base trace plus the contention shape.
#[derive(Clone, Debug)]
pub struct MtConfig {
    /// Workload, sizes, batch, Zipf exponent, seed (ops × (1 − read_frac)
    /// sets the total write count; reads are unbounded — readers run until
    /// the writers finish).
    pub trace: TraceConfig,
    /// Concurrent `apply_batch` caller threads.
    pub writers: usize,
    /// Concurrent `query_latest` threads.
    pub readers: usize,
    /// Overlay shard count handed to the service.
    pub shard_count: usize,
    /// Command-queue depth (bounded channel; blocking send = backpressure).
    pub command_queue: usize,
    /// Outstanding tickets per writer before it awaits the oldest.
    pub window: usize,
}

impl MtConfig {
    /// The full-run configuration for one family at one size.
    pub fn full(family: &str, n: usize) -> Self {
        MtConfig {
            trace: TraceConfig::full(family, n),
            writers: 4,
            readers: 4,
            shard_count: 8,
            command_queue: 1024,
            window: 32,
        }
    }

    /// The CI smoke configuration: same shape, seconds not minutes.
    pub fn smoke() -> Self {
        MtConfig {
            trace: TraceConfig::smoke(),
            writers: 2,
            readers: 2,
            shard_count: 4,
            command_queue: 64,
            window: 8,
        }
    }
}

/// The measured result of one contended run — one row of `BENCH_PR6.json`.
#[derive(Clone, Debug)]
pub struct MtOutcome {
    /// `family/n`.
    pub workload: String,
    /// Vertex count.
    pub n: usize,
    /// Edges in the initial CSR.
    pub m_initial: usize,
    /// Edges in the accumulated (initial + committed) graph.
    pub m_final: usize,
    /// Writer threads.
    pub writers: usize,
    /// Reader threads.
    pub readers: usize,
    /// Overlay shard count.
    pub shard_count: usize,
    /// Writes per `apply_batch`.
    pub batch: usize,
    /// Zipf exponent for write/query endpoints.
    pub zipf_s: f64,
    /// Total edge writes committed.
    pub writes: usize,
    /// `apply_batch` calls.
    pub batches: usize,
    /// Total `query_latest` calls completed by the readers.
    pub reads: u64,
    /// Rayon pool width during the run.
    pub threads: usize,
    /// Wall clock for the whole contended phase, milliseconds.
    pub elapsed_ms: f64,
    /// Committed writes per second.
    pub writes_per_s: f64,
    /// Completed queries per second.
    pub queries_per_s: f64,
    /// Enqueue (caller-side `apply_batch` return) latency p50, µs.
    pub enqueue_p50_us: f64,
    /// Enqueue latency p90, µs.
    pub enqueue_p90_us: f64,
    /// Enqueue latency p99, µs.
    pub enqueue_p99_us: f64,
    /// Commit (enqueue → ticket fulfilled) latency p50, µs.
    pub commit_p50_us: f64,
    /// Commit latency p90, µs.
    pub commit_p90_us: f64,
    /// Commit latency p99, µs.
    pub commit_p99_us: f64,
    /// Query latency p50 over all reader samples, µs.
    pub query_p50_us: f64,
    /// Query latency p99 over all reader samples, µs.
    pub query_p99_us: f64,
    /// Folds the writer performed.
    pub rebuilds: u64,
    /// Components in the final maintained partition.
    pub components: usize,
    /// `enqueue_p50_us < ENQUEUE_BUDGET_US`.
    pub enqueue_ok: bool,
    /// Sum of the per-commit stage p50s (`svc_dedup_ns` + WAL append +
    /// fsync + absorb + cross-drain + publish), µs — the registry's own
    /// account of where a median commit goes.
    pub pipeline_p50_sum_us: f64,
    /// The writer's `svc_commit_ns` span p50, µs (enqueue wait excluded:
    /// the span opens after dequeue).
    pub commit_span_p50_us: f64,
    /// Σ stage `sum` / `svc_commit_ns` `sum` — exact fraction of total
    /// span time the per-stage histograms explain (folds included here;
    /// they are amortized, so they belong in the totals but not in the
    /// median-commit p50 sum).
    pub pipeline_coverage: f64,
    /// The stage accounting explains the commit span: p50 sum within 20%
    /// of the span p50, **or** coverage ≥ 80% — the p50 comparison alone
    /// is quantized by the power-of-two histogram buckets, while the
    /// coverage ratio is exact, so either suffices. Vacuously true when
    /// spans are disabled (no span, nothing to explain).
    pub pipeline_sum_ok: bool,
    /// Final partition equals a from-scratch sequential recompute.
    pub verified: bool,
    /// The service registry's final metrics dump (the `docs/obs-schema.md`
    /// JSON object), embedded verbatim as the row's `obs` field.
    pub obs: String,
}

impl MtOutcome {
    /// Serialize as one JSON object (no external deps, like `bench_report`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"n\":{},\"m_initial\":{},\"m_final\":{},\
             \"writers\":{},\"readers\":{},\"shard_count\":{},\"batch\":{},\"zipf_s\":{:.3},\
             \"writes\":{},\"batches\":{},\"reads\":{},\"threads\":{},\
             \"elapsed_ms\":{:.3},\"writes_per_s\":{:.1},\"queries_per_s\":{:.1},\
             \"enqueue_p50_us\":{:.3},\"enqueue_p90_us\":{:.3},\"enqueue_p99_us\":{:.3},\
             \"commit_p50_us\":{:.3},\"commit_p90_us\":{:.3},\"commit_p99_us\":{:.3},\
             \"query_p50_us\":{:.3},\"query_p99_us\":{:.3},\
             \"rebuilds\":{},\"components\":{},\"enqueue_ok\":{},\
             \"pipeline_p50_sum_us\":{:.3},\"commit_span_p50_us\":{:.3},\
             \"pipeline_coverage\":{:.3},\"pipeline_sum_ok\":{},\
             \"verified\":{},\"obs\":{}}}",
            self.workload,
            self.n,
            self.m_initial,
            self.m_final,
            self.writers,
            self.readers,
            self.shard_count,
            self.batch,
            self.zipf_s,
            self.writes,
            self.batches,
            self.reads,
            self.threads,
            self.elapsed_ms,
            self.writes_per_s,
            self.queries_per_s,
            self.enqueue_p50_us,
            self.enqueue_p90_us,
            self.enqueue_p99_us,
            self.commit_p50_us,
            self.commit_p90_us,
            self.commit_p99_us,
            self.query_p50_us,
            self.query_p99_us,
            self.rebuilds,
            self.components,
            self.enqueue_ok,
            self.pipeline_p50_sum_us,
            self.commit_span_p50_us,
            self.pipeline_coverage,
            self.pipeline_sum_ok,
            self.verified,
            self.obs,
        )
    }
}

/// The per-commit pipeline stages (each runs at most once per commit and
/// is individually timed inside the writer's `svc_commit_ns` span), in
/// commit order. `svc_fold_ns` is deliberately absent: folds hit one
/// commit in thousands, so they belong in [`PIPELINE_TOTAL_STAGES`]'s
/// exact sum accounting but would wreck a median-commit p50 sum.
const PIPELINE_P50_STAGES: [&str; 6] = [
    "svc_wal_append_ns",
    "svc_fsync_ns",
    "svc_dedup_ns",
    "svc_absorb_ns",
    "svc_cross_drain_ns",
    "svc_snapshot_publish_ns",
];

/// Every timed sub-interval of the `svc_commit_ns` span, folds included —
/// the denominator-exact coverage set.
const PIPELINE_TOTAL_STAGES: [&str; 7] = [
    "svc_wal_append_ns",
    "svc_fsync_ns",
    "svc_dedup_ns",
    "svc_absorb_ns",
    "svc_cross_drain_ns",
    "svc_fold_ns",
    "svc_snapshot_publish_ns",
];

/// What one writer thread brings back: caller-side latencies.
struct WriterLog {
    enqueue_ns: Vec<u64>,
    commit_ns: Vec<u64>,
}

/// What one reader thread brings back: sampled latencies, split by
/// whether a rebuild was in flight, plus the true query count (sampling
/// stops at [`READER_SAMPLE_CAP`], counting never does).
struct ReaderLog {
    queries: u64,
    all_ns: Vec<u64>,
}

/// Await the oldest outstanding ticket and record its enqueue→fulfilled
/// latency (the commit latency the window is sized to hide).
fn await_oldest(inflight: &mut VecDeque<(Instant, EpochTicket)>, commit_ns: &mut Vec<u64>) {
    let (sent, ticket) = inflight.pop_front().expect("non-empty window");
    ticket.wait().expect("writer died");
    commit_ns.push(sent.elapsed().as_nanos() as u64);
}

/// Run one contended scenario end-to-end and measure it.
///
/// The write stream is synthesized exactly like `svc::run_trace`: held-out
/// family edges first, then synthetic Zipfian pairs — but here the batches
/// are dealt round-robin to `writers` threads that enqueue concurrently,
/// so commit *order* is a race while commit *content* is fixed. Readers
/// run until the last writer drains its ticket window.
pub fn run_mt_trace(cfg: &MtConfig) -> MtOutcome {
    let t = &cfg.trace;
    assert!(cfg.writers >= 1 && cfg.readers >= 1 && cfg.window >= 1);
    let g_full = family_graph(&t.family, t.n, t.seed);
    let n = g_full.n();

    // Same split as the single-threaded replay: shuffled prefix seeds the
    // CSR, suffix feeds the write stream.
    let mut edges: Vec<(u32, u32)> = g_full.edges().to_vec();
    Rng::new(t.seed ^ 0x5417).shuffle(&mut edges);
    let cut = ((edges.len() as f64) * t.initial_frac).round() as usize;
    let (initial_edges, stream) = edges.split_at(cut.min(edges.len()));
    let mut b = GraphBuilder::with_capacity(n, initial_edges.len());
    for &(u, v) in initial_edges {
        b.add_edge(u, v);
    }
    let initial = b.build();

    // Pre-generate every batch deterministically (the contended part is
    // *when* they commit, not *what* they contain): family stream first,
    // then contended Zipfian pairs — every writer draws from the same hot
    // set, so cross-shard unions and CAS traffic concentrate.
    let zipf = Zipf::new(n, t.zipf_s, t.seed);
    let writes_total = (((t.ops as f64) * (1.0 - t.read_frac)).round() as usize).max(t.batch);
    let mut synth = Rng::new(t.seed ^ 0xA57);
    let mut stream_it = stream.iter().copied();
    let mut batches: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut remaining = writes_total;
    while remaining > 0 {
        let take = remaining.min(t.batch);
        let batch: Vec<(u32, u32)> = (0..take)
            .map(|_| {
                stream_it
                    .next()
                    .unwrap_or_else(|| (zipf.sample(&mut synth), zipf.sample(&mut synth)))
            })
            .collect();
        remaining -= take;
        batches.push(batch);
    }

    let svc = ConnectivityService::new(
        initial.clone(),
        SvcParams {
            rebuild_threshold: t.rebuild_threshold,
            shard_count: cfg.shard_count,
            command_queue: cfg.command_queue,
            ..SvcParams::default()
        },
    );

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (writer_logs, reader_logs): (Vec<WriterLog>, Vec<ReaderLog>) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..cfg.readers)
            .map(|r| {
                let (svc, zipf, stop) = (&svc, &zipf, &stop);
                let seed = t.seed ^ (0xBEEF + 77 * r as u64);
                s.spawn(move || {
                    let mut rng = Rng::new(seed);
                    let mut log = ReaderLog {
                        queries: 0,
                        all_ns: Vec::new(),
                    };
                    while !stop.load(Ordering::Relaxed) {
                        let (u, v) = (zipf.sample(&mut rng), zipf.sample(&mut rng));
                        let tq = Instant::now();
                        std::hint::black_box(svc.query_latest(u, v));
                        let ns = tq.elapsed().as_nanos() as u64;
                        log.queries += 1;
                        if log.all_ns.len() < READER_SAMPLE_CAP {
                            log.all_ns.push(ns);
                        }
                    }
                    log
                })
            })
            .collect();
        let writers: Vec<_> = (0..cfg.writers)
            .map(|w| {
                let (svc, batches) = (&svc, &batches);
                s.spawn(move || {
                    let mut log = WriterLog {
                        enqueue_ns: Vec::new(),
                        commit_ns: Vec::new(),
                    };
                    let mut inflight: VecDeque<(Instant, EpochTicket)> = VecDeque::new();
                    for batch in batches.iter().skip(w).step_by(cfg.writers) {
                        let te = Instant::now();
                        let ticket = svc.apply_batch(batch);
                        log.enqueue_ns.push(te.elapsed().as_nanos() as u64);
                        inflight.push_back((te, ticket));
                        if inflight.len() >= cfg.window {
                            await_oldest(&mut inflight, &mut log.commit_ns);
                        }
                    }
                    while !inflight.is_empty() {
                        await_oldest(&mut inflight, &mut log.commit_ns);
                    }
                    log
                })
            })
            .collect();
        let writer_logs = writers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        (
            writer_logs,
            readers.into_iter().map(|h| h.join().unwrap()).collect(),
        )
    });
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Acceptance check, independent of the code under test: sequential BFS
    // on the accumulated graph. Commit order raced, but union is
    // order-free, so the final partition is still a pure function of the
    // batch contents.
    let applied: Vec<(u32, u32)> = batches.iter().flatten().copied().collect();
    let union = Graph::from_csr_plus_edges(&initial, &applied);
    svc.flush().expect("writer died");
    let verified = same_partition(svc.latest().labels(), &components(&union));

    // Commit-pipeline accounting from the service's own registry: the
    // per-stage histograms must explain the `svc_commit_ns` span (see
    // the field docs on [`MtOutcome`] for the two comparisons).
    let metrics = svc.metrics();
    metrics
        .validate()
        .expect("service metrics snapshot failed validation");
    let commit_span = metrics.histograms["svc_commit_ns"].clone();
    let pipeline_p50_sum_us = PIPELINE_P50_STAGES
        .iter()
        .map(|s| metrics.histograms[*s].p50())
        .sum::<f64>()
        / 1e3;
    let commit_span_p50_us = commit_span.p50() / 1e3;
    let stage_sum_ns: u64 = PIPELINE_TOTAL_STAGES
        .iter()
        .map(|s| metrics.histograms[*s].sum)
        .sum();
    let pipeline_coverage = if commit_span.sum > 0 {
        stage_sum_ns as f64 / commit_span.sum as f64
    } else {
        0.0
    };
    let p50_ratio = if commit_span_p50_us > 0.0 {
        pipeline_p50_sum_us / commit_span_p50_us
    } else {
        0.0
    };
    let pipeline_sum_ok = commit_span.count == 0 // spans disabled
        || (0.8..=1.2).contains(&p50_ratio)
        || (0.8..=1.05).contains(&pipeline_coverage);

    let mut enqueue_ns: Vec<u64> = writer_logs
        .iter()
        .flat_map(|l| &l.enqueue_ns)
        .copied()
        .collect();
    let mut commit_ns: Vec<u64> = writer_logs
        .iter()
        .flat_map(|l| &l.commit_ns)
        .copied()
        .collect();
    let mut all_query_ns: Vec<u64> = reader_logs
        .iter()
        .flat_map(|l| &l.all_ns)
        .copied()
        .collect();
    enqueue_ns.sort_unstable();
    commit_ns.sort_unstable();
    all_query_ns.sort_unstable();
    let reads: u64 = reader_logs.iter().map(|l| l.queries).sum();

    let enqueue_p50_us = percentile_us(&enqueue_ns, 0.50);
    let commit_p50_us = percentile_us(&commit_ns, 0.50);
    let spectrum = svc.spectrum();
    MtOutcome {
        workload: format!("{}/{}", t.family, t.n),
        n,
        m_initial: initial.m(),
        m_final: union.m(),
        writers: cfg.writers,
        readers: cfg.readers,
        shard_count: cfg.shard_count,
        batch: t.batch,
        zipf_s: t.zipf_s,
        writes: writes_total,
        batches: batches.len(),
        reads,
        threads: rayon::current_num_threads(),
        elapsed_ms,
        writes_per_s: writes_total as f64 / (elapsed_ms / 1e3),
        queries_per_s: reads as f64 / (elapsed_ms / 1e3),
        enqueue_p50_us,
        enqueue_p90_us: percentile_us(&enqueue_ns, 0.90),
        enqueue_p99_us: percentile_us(&enqueue_ns, 0.99),
        commit_p50_us,
        commit_p90_us: percentile_us(&commit_ns, 0.90),
        commit_p99_us: percentile_us(&commit_ns, 0.99),
        query_p50_us: percentile_us(&all_query_ns, 0.50),
        query_p99_us: percentile_us(&all_query_ns, 0.99),
        rebuilds: spectrum.rebuilds,
        components: spectrum.components,
        enqueue_ok: enqueue_p50_us < ENQUEUE_BUDGET_US,
        pipeline_p50_sum_us,
        commit_span_p50_us,
        pipeline_coverage,
        pipeline_sum_ok,
        verified,
        obs: metrics.to_json(),
    }
}

/// Serialize outcomes into the `BENCH_PR6.json` document.
pub fn mt_report_json(emitter: &str, smoke: bool, outcomes: &[MtOutcome]) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rows: Vec<String> = outcomes.iter().map(MtOutcome::to_json).collect();
    format!(
        "{{\n  \"report\": \"logdiam connectivity service multi-writer baseline\",\n  \"emitter\": \"{emitter}\",\n  \"smoke\": {smoke},\n  \"host_cores\": {cores},\n  \"measurements\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    )
}

/// Run the contended smoke scenario, enforce the wall-clock cap, the
/// verification contract, and the enqueue budget, and write the report.
/// Shared by `bench_report --smoke` (the CI guard) and `svc_driver --mt
/// --smoke`.
pub fn run_mt_smoke(emitter: &str, out_path: &str) -> MtOutcome {
    let cfg = MtConfig::smoke();
    eprintln!(
        "svc mt smoke: {}/{} with {} writers × {} readers (batch {}, shards {})...",
        cfg.trace.family, cfg.trace.n, cfg.writers, cfg.readers, cfg.trace.batch, cfg.shard_count
    );
    let outcome = run_mt_trace(&cfg);
    assert!(
        outcome.verified,
        "svc mt smoke: maintained partition diverged from one-shot recompute"
    );
    assert!(
        outcome.enqueue_ok,
        "svc mt smoke: enqueue p50 {:.1} µs blew the {ENQUEUE_BUDGET_US:.0} µs budget",
        outcome.enqueue_p50_us
    );
    assert!(
        outcome.elapsed_ms < SMOKE_CAP_MS,
        "svc mt smoke exceeded its wall-clock cap: {:.0} ms (cap {SMOKE_CAP_MS:.0} ms)",
        outcome.elapsed_ms
    );
    assert!(
        outcome.pipeline_sum_ok,
        "svc mt smoke: per-stage histograms do not explain the commit span: \
         stage p50 sum {:.1} µs vs span p50 {:.1} µs, coverage {:.2}",
        outcome.pipeline_p50_sum_us, outcome.commit_span_p50_us, outcome.pipeline_coverage
    );
    std::fs::write(
        out_path,
        mt_report_json(emitter, true, std::slice::from_ref(&outcome)),
    )
    .expect("cannot write svc mt smoke report");
    eprintln!(
        "svc mt smoke: OK — enqueue p50 {:.1} µs, commit p50 {:.0} µs, \
         {:.0} queries/s alongside, pipeline coverage {:.2}, wrote {out_path}",
        outcome.enqueue_p50_us,
        outcome.commit_p50_us,
        outcome.queries_per_s,
        outcome.pipeline_coverage
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MtConfig {
        let mut cfg = MtConfig::smoke();
        cfg.trace.n = 600;
        cfg.trace.ops = 1_200;
        cfg.trace.rebuild_threshold = 64;
        cfg.writers = 3;
        cfg.readers = 2;
        cfg.window = 4;
        cfg
    }

    #[test]
    fn contended_run_verifies_and_counts_add_up() {
        let out = run_mt_trace(&tiny());
        assert!(out.verified);
        // The embedded registry dump is a real, self-consistent snapshot
        // whose stage sums sit inside the commit span (1.05 allows clock
        // granularity; the tiny scale is too noisy to pin the 0.8 floor
        // the smoke run asserts via `pipeline_sum_ok`).
        assert!(out.obs.contains("\"svc_commits_total\""));
        assert!(
            out.pipeline_coverage > 0.0 && out.pipeline_coverage <= 1.05,
            "stage sums outside the commit span: coverage {}",
            out.pipeline_coverage
        );
        assert_eq!(
            out.batches,
            out.writes.div_ceil(out.batch),
            "every pre-generated batch must have been committed"
        );
        assert!(out.reads > 0, "readers never ran");
        assert!(out.rebuilds > 0, "trace too small to exercise folds");
        assert!(out.enqueue_p99_us >= out.enqueue_p50_us);
        assert!(out.commit_p50_us >= out.enqueue_p50_us);
    }

    #[test]
    fn json_row_has_the_acceptance_fields() {
        let out = run_mt_trace(&tiny());
        let row = out.to_json();
        for key in [
            "enqueue_p50_us",
            "commit_p50_us",
            "enqueue_ok",
            "pipeline_p50_sum_us",
            "pipeline_sum_ok",
            "verified",
            "\"obs\":{\"counters\"",
        ] {
            assert!(row.contains(key), "missing {key} in {row}");
        }
        let doc = mt_report_json("test", true, &[out]);
        assert!(doc.contains("multi-writer baseline"));
    }

    #[test]
    fn single_writer_single_reader_degenerate_case() {
        let mut cfg = tiny();
        cfg.writers = 1;
        cfg.readers = 1;
        cfg.window = 1; // fully synchronous: commit == enqueue + wait
        let out = run_mt_trace(&cfg);
        assert!(out.verified);
        assert_eq!(out.writers, 1);
    }
}
