//! Connectivity-service trace runner: the one harness behind `svc_driver`
//! (full runs, `BENCH_SVC.json`) and `bench_report --smoke` (the CI guard,
//! `BENCH_SVC_SMOKE.json`).
//!
//! A trace is synthesized deterministically from a [`TraceConfig`]. A
//! workload-family graph is generated; a shuffled half of its edges seeds
//! the service's initial CSR, and the rest, padded with Zipfian pairs once
//! exhausted, is cut into `batches` write batches of `batch` edges.
//! `writers` threads deal the batches round-robin and enqueue them, each
//! keeping `window` tickets outstanding, while `readers` threads query
//! Zipfian endpoints until the writers drain. The Zipfian rank-to-vertex
//! mapping is shuffled by the seed, so hot vertices are spread across the
//! graph, and every writer draws from the same hot set, so cross-shard
//! unions and CAS traffic concentrate. Commit *order* is a race; commit
//! *content* is fixed, so the final partition is a pure function of the
//! batches.
//!
//! With `fsync` set the trace is durable: the service is created in a
//! store directory, and after the trace it is dropped (clean shutdown)
//! and reopened cold through recovery. Each trace yields one [`TraceRow`];
//! [`TraceRow::check`] asserts every contract before a row is written.
//!
//! All of it is wall-clock measurement, not fingerprint surface: the
//! determinism suite covers labels; this module covers latency.

use cc_graph::seq::{components, same_partition};
use cc_graph::{gen, Graph, GraphBuilder, Rng};
use logdiam_obs::MetricsSnapshot;
use logdiam_svc::{ConnectivityService, EpochTicket, FsyncPolicy, SvcParams};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Base seed shared by the default trace configurations.
pub const SVC_SEED: u64 = 0x5E7_CAFE;

/// Wall-clock cap per smoke row, milliseconds.
pub const SMOKE_CAP_MS: f64 = 5_000.0;

/// Enqueue-latency budget, microseconds: 1/10 of the synchronous commit
/// p50 (~2 ms at batch = 128 on the full matrix, `BENCH_PR4.json`).
pub const ENQUEUE_BUDGET_US: f64 = 200.0;

/// The fsync policies a durable sweep covers: `svc_driver --durable`
/// without `--fsync`, and the smoke's durable rows.
pub const FSYNC_SWEEP: [FsyncPolicy; 3] =
    [FsyncPolicy::Always, FsyncPolicy::Batch(8), FsyncPolicy::Off];

/// Fraction of the family graph's edges placed in the initial CSR; the
/// rest become the write stream.
const INITIAL_FRAC: f64 = 0.5;

/// Per-reader latency sample cap (queries keep running past it; only
/// recording stops, so percentiles stay memory-bounded on fast hosts).
const READER_SAMPLE_CAP: usize = 2_000_000;

/// Every timed sub-interval of the writer's `svc_commit_ns` span. All but
/// [`FOLD_STAGE`] run at most once per commit; folds hit one commit in
/// thousands, so they belong in the exact sum accounting but would wreck
/// a median-commit p50 sum.
const PIPELINE_STAGES: [&str; 7] = [
    "svc_wal_append_ns",
    "svc_fsync_ns",
    "svc_dedup_ns",
    "svc_absorb_ns",
    "svc_cross_drain_ns",
    "svc_fold_ns",
    "svc_snapshot_publish_ns",
];

/// The amortized stage of [`PIPELINE_STAGES`].
const FOLD_STAGE: &str = "svc_fold_ns";

/// One trace: workload, write stream, contention shape, and service knobs.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Workload family (`path` / `grid` / `powerlaw` / `mixture`).
    pub family: String,
    /// Vertex count of the generated family graph.
    pub n: usize,
    /// Write batches committed over the trace.
    pub batches: usize,
    /// Edges per batch.
    pub batch: usize,
    /// Zipf exponent for query and synthetic-write endpoints (0 = uniform).
    pub zipf_s: f64,
    /// Threads enqueueing the batches, dealt round-robin.
    pub writers: usize,
    /// Threads running `query_latest` until the writers drain (0 allowed).
    pub readers: usize,
    /// Outstanding tickets per writer before it awaits the oldest; 1 makes
    /// every commit synchronous.
    pub window: usize,
    /// Service rebuild threshold (distinct delta edges).
    pub rebuild_threshold: usize,
    /// Overlay shard count handed to the service.
    pub shard_count: usize,
    /// Command-queue depth (bounded channel; blocking send = backpressure).
    pub command_queue: usize,
    /// WAL fsync policy. `Some` makes the trace durable; `None` keeps the
    /// service in memory.
    pub fsync: Option<FsyncPolicy>,
    /// Commits between durable snapshots (durable traces only).
    pub snapshot_every: u64,
    /// RNG seed for the edge split, synthetic writes, and query endpoints.
    pub seed: u64,
}

impl TraceConfig {
    /// The full-run shape for one family at one size, in memory.
    pub fn full(family: &str, n: usize) -> Self {
        TraceConfig {
            family: family.to_string(),
            n,
            batches: 160,
            batch: 128,
            zipf_s: 1.0,
            writers: 4,
            readers: 4,
            window: 32,
            rebuild_threshold: 4096,
            shard_count: 8,
            command_queue: 1024,
            fsync: None,
            snapshot_every: 64,
            seed: SVC_SEED,
        }
    }

    /// The CI smoke shape, in memory: seconds, not minutes.
    pub fn smoke() -> Self {
        TraceConfig {
            family: "mixture".to_string(),
            n: 3_000,
            batches: 48,
            batch: 64,
            zipf_s: 1.0,
            writers: 2,
            readers: 2,
            window: 8,
            rebuild_threshold: 256,
            shard_count: 4,
            command_queue: 64,
            fsync: None,
            snapshot_every: 16,
            seed: SVC_SEED,
        }
    }

    /// `family/n fsync=policy`: how logs and check messages name a trace.
    fn label(&self) -> String {
        format!(
            "{}/{} fsync={}",
            self.family,
            self.n,
            fsync_name(self.fsync)
        )
    }

    fn describe(&self) -> String {
        format!(
            "{}: {} batches of {}, {} writers (window {}) x {} readers",
            self.label(),
            self.batches,
            self.batch,
            self.writers,
            self.window,
            self.readers
        )
    }
}

/// The smoke's rows: the smoke shape once in memory and once under each
/// policy of [`FSYNC_SWEEP`].
pub fn smoke_configs() -> Vec<TraceConfig> {
    std::iter::once(None)
        .chain(FSYNC_SWEEP.map(Some))
        .map(|fsync| TraceConfig {
            fsync,
            ..TraceConfig::smoke()
        })
        .collect()
}

fn fsync_name(fsync: Option<FsyncPolicy>) -> String {
    fsync.map_or_else(|| "none".to_string(), |p| p.to_string())
}

/// The benchmark workload families, shared with `bench_report`.
pub fn family_graph(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        // Long path: the d ≈ n stress case the paper's log d bound targets.
        "path" => gen::path(n),
        // Square-ish grid: d ≈ 2√n, m/n ≈ 2.
        "grid" => {
            let rows = (n as f64).sqrt().round() as usize;
            gen::grid(rows, n / rows)
        }
        // Power-law: preferential attachment, low diameter, skewed degrees.
        "powerlaw" => gen::preferential_attachment(n, 4, seed),
        // Mixture: dense random + long path + giant star in one graph.
        "mixture" => gen::union_all(&[
            gen::gnm(n / 2, 2 * n, seed ^ 1),
            gen::path(n / 4),
            gen::star(n / 4),
        ]),
        other => panic!("unknown workload family {other}"),
    }
}

/// A Zipfian sampler over `0..n` with exponent `s`, composed with a
/// seeded rank→vertex shuffle (so popularity is not correlated with the
/// generators' vertex numbering). Sampling is O(log n) via binary search
/// on the precomputed CDF; fully deterministic in (n, s, seed).
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    /// Build the sampler (O(n) precompute).
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        Rng::new(seed ^ 0x21BF).shuffle(&mut perm);
        Zipf { cdf, perm }
    }

    /// Draw one vertex.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let total = *self.cdf.last().expect("non-empty CDF");
        let x = rng.f64() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// Latency percentile (sorted input, microseconds out).
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// p50 / p90 / p99 of one latency sample, microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Latency {
    /// Percentiles over the union of per-thread samples (nanoseconds).
    fn of<'a>(samples: impl Iterator<Item = &'a Vec<u64>>) -> Self {
        let mut ns: Vec<u64> = samples.flatten().copied().collect();
        ns.sort_unstable();
        Latency {
            p50: percentile_us(&ns, 0.50),
            p90: percentile_us(&ns, 0.90),
            p99: percentile_us(&ns, 0.99),
        }
    }

    fn json(&self, name: &str) -> String {
        format!(
            "\"{name}_p50_us\":{:.3},\"{name}_p90_us\":{:.3},\"{name}_p99_us\":{:.3}",
            self.p50, self.p90, self.p99
        )
    }
}

/// What reopening a durable store found.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// WAL size on disk after the clean shutdown, bytes.
    pub wal_bytes: u64,
    /// Durable snapshot files left on disk after pruning.
    pub snapshots: usize,
    /// Cold `open()` (recovery) wall clock, milliseconds.
    pub reopen_ms: f64,
    /// Epoch reported by the reopened service.
    pub recovered_epoch: u64,
}

/// The measured result of one trace: one row of the report.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// The trace this row measured; the row's JSON carries all of it.
    pub cfg: TraceConfig,
    /// Vertex count of the generated graph (a grid rounds `cfg.n` down to
    /// rows × columns).
    pub n: usize,
    /// Edges in the initial CSR.
    pub m_initial: usize,
    /// Edges in the accumulated (initial + committed) graph.
    pub m_final: usize,
    /// `query_latest` calls the readers completed.
    pub reads: u64,
    /// Rayon pool width during the trace.
    pub threads: usize,
    /// Wall clock of the threaded phase, milliseconds.
    pub elapsed_ms: f64,
    /// Caller-side `apply_batch` return latency.
    pub enqueue: Latency,
    /// Enqueue → ticket fulfilled latency.
    pub commit: Latency,
    /// `query_latest` latency over all reader samples.
    pub query: Latency,
    /// Folds the writer performed.
    pub rebuilds: u64,
    /// Components in the final maintained partition.
    pub components: usize,
    /// Sum of the per-commit stage p50s (WAL append, fsync, dedup, absorb,
    /// cross-drain, publish), µs: the registry's own account of where a
    /// median commit goes.
    pub pipeline_p50_sum_us: f64,
    /// The writer's `svc_commit_ns` span p50, µs (the span opens after
    /// dequeue, so enqueue wait is excluded).
    pub commit_span_p50_us: f64,
    /// Σ stage `sum` / `svc_commit_ns` `sum`: the exact fraction of span
    /// time the per-stage histograms explain, folds included.
    pub pipeline_coverage: f64,
    /// The live partition, and for a durable row the reopened one too,
    /// equals sequential BFS on the accumulated graph.
    pub verified: bool,
    /// What reopening the store found (durable rows only).
    pub recovery: Option<Recovery>,
    /// The service registry's final metrics dump (the
    /// `docs/obs-schema.md` object), written as the row's `obs` field.
    pub obs: MetricsSnapshot,
}

impl TraceRow {
    /// `enqueue p50 < ENQUEUE_BUDGET_US`.
    pub fn enqueue_ok(&self) -> bool {
        self.enqueue.p50 < ENQUEUE_BUDGET_US
    }

    /// The stage accounting explains the commit span: stage p50 sum within
    /// 20 % of the span p50, **or** coverage in [0.8, 1.05]. The p50
    /// comparison alone is quantized by the power-of-two histogram
    /// buckets, while the coverage ratio is exact, so either suffices.
    /// Trivially true when spans are off (no span, nothing to explain).
    pub fn pipeline_sum_ok(&self) -> bool {
        let spans_off = self
            .obs
            .histograms
            .get("svc_commit_ns")
            .is_none_or(|h| h.count == 0);
        // An empty span divides to NaN or infinity: in no range.
        let p50_ratio = self.pipeline_p50_sum_us / self.commit_span_p50_us;
        spans_off
            || (0.8..=1.2).contains(&p50_ratio)
            || (0.8..=1.05).contains(&self.pipeline_coverage)
    }

    /// Assert every contract of a row; panics naming the first one broken.
    /// `cap_ms` bounds [`TraceRow::elapsed_ms`] (the smoke's per-row cap).
    pub fn check(&self, cap_ms: Option<f64>) {
        let cfg = &self.cfg;
        let row = cfg.label();
        assert!(
            self.verified,
            "{row}: partition diverged from BFS on the accumulated graph"
        );
        if cfg.fsync.is_some() {
            let r = self
                .recovery
                .as_ref()
                .unwrap_or_else(|| panic!("{row}: durable store was never reopened"));
            assert_eq!(
                r.recovered_epoch, cfg.batches as u64,
                "{row}: reopened store is not at the committed epoch"
            );
            assert!(
                r.wal_bytes > 0 && r.snapshots >= 1,
                "{row}: no durable footprint (WAL {} B, {} snapshots)",
                r.wal_bytes,
                r.snapshots
            );
        }
        assert!(
            self.enqueue_ok(),
            "{row}: enqueue p50 {:.1} µs over the {ENQUEUE_BUDGET_US:.0} µs budget",
            self.enqueue.p50
        );
        assert!(
            self.pipeline_sum_ok(),
            "{row}: stage histograms do not explain the commit span \
             (stage p50 sum {:.1} µs vs span p50 {:.1} µs, coverage {:.2})",
            self.pipeline_p50_sum_us,
            self.commit_span_p50_us,
            self.pipeline_coverage
        );
        assert_eq!(
            self.obs.counters.get("svc_commits_total").copied(),
            Some(cfg.batches as u64),
            "{row}: registry commit count disagrees with the trace"
        );
        crate::check_obs_dump(&self.obs, &row);
        for (name, l) in [
            ("enqueue", self.enqueue),
            ("commit", self.commit),
            ("query", self.query),
        ] {
            assert!(
                0.0 <= l.p50 && l.p50 <= l.p90 && l.p90 <= l.p99,
                "{row}: {name} percentiles out of order: {l:?}"
            );
        }
        assert!(
            self.enqueue.p50 <= self.commit.p50,
            "{row}: enqueue p50 {:.1} µs above commit p50 {:.1} µs",
            self.enqueue.p50,
            self.commit.p50
        );
        if let Some(cap) = cap_ms {
            assert!(
                self.elapsed_ms < cap,
                "{row}: took {:.0} ms, over the {cap:.0} ms cap",
                self.elapsed_ms
            );
        }
    }

    /// Serialize as one JSON object.
    pub fn to_json(&self) -> String {
        let cfg = &self.cfg;
        let secs = self.elapsed_ms / 1e3;
        let writes = cfg.batches * cfg.batch;
        let recovery = self.recovery.as_ref().map_or(String::new(), |r| {
            format!(
                ",\"wal_bytes\":{},\"snapshots\":{},\"reopen_ms\":{:.3},\"recovered_epoch\":{}",
                r.wal_bytes, r.snapshots, r.reopen_ms, r.recovered_epoch
            )
        });
        format!(
            "{{\"workload\":\"{}/{}\",\"fsync\":\"{}\",\"n\":{},\"m_initial\":{},\"m_final\":{},\
             \"writers\":{},\"readers\":{},\"window\":{},\"shard_count\":{},\
             \"rebuild_threshold\":{},\"command_queue\":{},\"snapshot_every\":{},\"seed\":{},\
             \"batch\":{},\"zipf_s\":{:.3},\"writes\":{},\"batches\":{},\"reads\":{},\"threads\":{},\
             \"elapsed_ms\":{:.3},\"writes_per_s\":{:.1},\"queries_per_s\":{:.1},{},{},{},\
             \"rebuilds\":{},\"components\":{},\"enqueue_ok\":{},\
             \"pipeline_p50_sum_us\":{:.3},\"commit_span_p50_us\":{:.3},\
             \"pipeline_coverage\":{:.3},\"pipeline_sum_ok\":{},\"verified\":{}{},\"obs\":{}}}",
            cfg.family,
            cfg.n,
            fsync_name(cfg.fsync),
            self.n,
            self.m_initial,
            self.m_final,
            cfg.writers,
            cfg.readers,
            cfg.window,
            cfg.shard_count,
            cfg.rebuild_threshold,
            cfg.command_queue,
            cfg.snapshot_every,
            cfg.seed,
            cfg.batch,
            cfg.zipf_s,
            writes,
            cfg.batches,
            self.reads,
            self.threads,
            self.elapsed_ms,
            writes as f64 / secs,
            self.reads as f64 / secs,
            self.enqueue.json("enqueue"),
            self.commit.json("commit"),
            self.query.json("query"),
            self.rebuilds,
            self.components,
            self.enqueue_ok(),
            self.pipeline_p50_sum_us,
            self.commit_span_p50_us,
            self.pipeline_coverage,
            self.pipeline_sum_ok(),
            self.verified,
            recovery,
            self.obs.to_json(),
        )
    }

    fn summary(&self) -> String {
        let recovery = self.recovery.as_ref().map_or(String::new(), |r| {
            format!(
                ", reopened at epoch {} in {:.1} ms",
                r.recovered_epoch, r.reopen_ms
            )
        });
        format!(
            "[{}] enqueue p50/p99 {:.1}/{:.1} µs, commit p50/p99 {:.0}/{:.0} µs, \
             query p50/p99 {:.1}/{:.1} µs, {} rebuilds, coverage {:.2}{recovery}, verified",
            self.cfg.label(),
            self.enqueue.p50,
            self.enqueue.p99,
            self.commit.p50,
            self.commit.p99,
            self.query.p50,
            self.query.p99,
            self.rebuilds,
            self.pipeline_coverage
        )
    }
}

/// What one writer thread brings back: caller-side latencies.
#[derive(Default)]
struct WriterLog {
    enqueue_ns: Vec<u64>,
    commit_ns: Vec<u64>,
}

/// What one reader thread brings back: sampled latencies plus the true
/// query count (sampling stops at [`READER_SAMPLE_CAP`], counting never
/// does).
#[derive(Default)]
struct ReaderLog {
    queries: u64,
    ns: Vec<u64>,
}

/// Await the oldest outstanding ticket and record its enqueue→fulfilled
/// latency (the commit latency the window is sized to hide).
fn await_oldest(inflight: &mut VecDeque<(Instant, EpochTicket)>, commit_ns: &mut Vec<u64>) {
    let (sent, ticket) = inflight.pop_front().expect("non-empty window");
    ticket.wait().expect("writer died");
    commit_ns.push(sent.elapsed().as_nanos() as u64);
}

/// Run one trace end-to-end and measure it. A durable trace creates its
/// store in a fresh subdirectory of `root` named after the row, wiping any
/// leftover first, and leaves it there; an in-memory trace does not touch
/// `root`. The row is returned unchecked: callers run [`TraceRow::check`].
pub fn run_trace(cfg: &TraceConfig, root: &Path) -> TraceRow {
    assert!(
        cfg.writers >= 1 && cfg.window >= 1,
        "a trace needs at least one writer and a window of at least one ticket"
    );
    let g_full = family_graph(&cfg.family, cfg.n, cfg.seed);
    let n = g_full.n();

    // A shuffled half of the family's edges seeds the base CSR; the rest
    // feeds the write stream.
    let mut edges: Vec<(u32, u32)> = g_full.edges().to_vec();
    Rng::new(cfg.seed ^ 0x5417).shuffle(&mut edges);
    let cut = ((edges.len() as f64) * INITIAL_FRAC).round() as usize;
    let (initial_edges, stream) = edges.split_at(cut);
    let mut b = GraphBuilder::with_capacity(n, initial_edges.len());
    for &(u, v) in initial_edges {
        b.add_edge(u, v);
    }
    let initial = b.build();

    // Pre-generate every batch (the contended part is *when* they commit,
    // not *what* they contain): family stream first, then Zipfian pairs,
    // duplicates and loops included — the service must absorb them.
    let zipf = Zipf::new(n, cfg.zipf_s, cfg.seed);
    let mut synth = Rng::new(cfg.seed ^ 0xA57);
    let mut stream_it = stream.iter().copied();
    let batches: Vec<Vec<(u32, u32)>> = (0..cfg.batches)
        .map(|_| {
            (0..cfg.batch)
                .map(|_| {
                    stream_it
                        .next()
                        .unwrap_or_else(|| (zipf.sample(&mut synth), zipf.sample(&mut synth)))
                })
                .collect()
        })
        .collect();

    let mut params = SvcParams {
        rebuild_threshold: cfg.rebuild_threshold,
        shard_count: cfg.shard_count,
        command_queue: cfg.command_queue,
        snapshot_every: cfg.snapshot_every,
        ..SvcParams::default()
    };
    let store = cfg.fsync.map(|fsync| {
        params.fsync = fsync;
        let dir = root.join(format!("{}-{}-{fsync}", cfg.family, cfg.n));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let svc = match &store {
        Some(dir) => ConnectivityService::create(dir, initial.clone(), params)
            .expect("cannot create durable store"),
        None => ConnectivityService::new(initial.clone(), params),
    };

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (writer_logs, reader_logs): (Vec<WriterLog>, Vec<ReaderLog>) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..cfg.readers)
            .map(|r| {
                let (svc, zipf, stop) = (&svc, &zipf, &stop);
                let seed = cfg.seed ^ (0xBEEF + 77 * r as u64);
                s.spawn(move || {
                    let mut rng = Rng::new(seed);
                    let mut log = ReaderLog::default();
                    while !stop.load(Ordering::Relaxed) {
                        let (u, v) = (zipf.sample(&mut rng), zipf.sample(&mut rng));
                        let tq = Instant::now();
                        std::hint::black_box(svc.query_latest(u, v));
                        let ns = tq.elapsed().as_nanos() as u64;
                        log.queries += 1;
                        if log.ns.len() < READER_SAMPLE_CAP {
                            log.ns.push(ns);
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
                    let mut log = WriterLog::default();
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
    // Every ticket was awaited; the flush also waits out the last commit's
    // stage timings, so the registry dump below is complete.
    svc.flush().expect("writer died");

    // Ground truth independent of the code under test: sequential BFS on
    // the accumulated graph. Union is order-free, so the raced commit
    // order does not matter.
    let applied: Vec<(u32, u32)> = batches.iter().flatten().copied().collect();
    let union = Graph::from_csr_plus_edges(&initial, &applied);
    let truth = components(&union);
    let mut verified = same_partition(svc.latest().labels(), &truth);

    // Commit-pipeline accounting from the service's own registry.
    let obs = svc.metrics();
    let hist = |name: &str| {
        obs.histograms
            .get(name)
            .unwrap_or_else(|| panic!("service registry has no {name} histogram"))
    };
    let commit_span = hist("svc_commit_ns");
    let pipeline_p50_sum_us = PIPELINE_STAGES
        .iter()
        .filter(|&&s| s != FOLD_STAGE)
        .map(|s| hist(s).p50())
        .sum::<f64>()
        / 1e3;
    let stage_sum_ns: u64 = PIPELINE_STAGES.iter().map(|s| hist(s).sum).sum();
    let pipeline_coverage = if commit_span.sum > 0 {
        stage_sum_ns as f64 / commit_span.sum as f64
    } else {
        0.0
    };
    let commit_span_p50_us = commit_span.p50() / 1e3;
    let spectrum = svc.spectrum();
    drop(svc); // clean shutdown: final WAL sync, writer joined

    let recovery = store.map(|dir| {
        let t1 = Instant::now();
        let back = ConnectivityService::open(&dir, params).expect("recovery failed");
        let reopen_ms = t1.elapsed().as_secs_f64() * 1e3;
        verified &= same_partition(back.latest().labels(), &truth);
        let recovered_epoch = back.epoch();
        drop(back);
        let snapshots = std::fs::read_dir(&dir)
            .expect("cannot list the store")
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("snap-") && name.ends_with(".bin")
            })
            .count();
        Recovery {
            wal_bytes: std::fs::metadata(dir.join("wal.bin")).map_or(0, |m| m.len()),
            snapshots,
            reopen_ms,
            recovered_epoch,
        }
    });

    TraceRow {
        cfg: cfg.clone(),
        n,
        m_initial: initial.m(),
        m_final: union.m(),
        reads: reader_logs.iter().map(|l| l.queries).sum(),
        threads: rayon::current_num_threads(),
        elapsed_ms,
        enqueue: Latency::of(writer_logs.iter().map(|l| &l.enqueue_ns)),
        commit: Latency::of(writer_logs.iter().map(|l| &l.commit_ns)),
        query: Latency::of(reader_logs.iter().map(|l| &l.ns)),
        rebuilds: spectrum.rebuilds,
        components: spectrum.components,
        pipeline_p50_sum_us,
        commit_span_p50_us,
        pipeline_coverage,
        verified,
        recovery,
        obs,
    }
}

/// Write `rows` as one report document (`docs/bench-schema.md`).
pub fn write_report(path: &str, emitter: &str, smoke: bool, rows: &[TraceRow]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<String> = rows.iter().map(TraceRow::to_json).collect();
    let doc = format!(
        "{{\n  \"report\": \"logdiam connectivity service trace\",\n  \"emitter\": \"{emitter}\",\n  \"smoke\": {smoke},\n  \"host_cores\": {cores},\n  \"measurements\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// A scratch directory under the system temp dir, unique per process and
/// tag; any stale leftover from a crashed previous run is removed first.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logdiam_svc_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one trace, check it, and log it: the per-row step of the smoke and
/// of `svc_driver`.
pub fn run_checked(who: &str, cfg: &TraceConfig, root: &Path, cap_ms: Option<f64>) -> TraceRow {
    eprintln!("{who}: {}...", cfg.describe());
    let row = run_trace(cfg, root);
    row.check(cap_ms);
    eprintln!("{who}: {}", row.summary());
    row
}

/// The smoke: [`smoke_configs`], each row checked under [`SMOKE_CAP_MS`],
/// written to `out_path`. Shared by `bench_report --smoke` (the CI guard)
/// and `svc_driver --smoke`.
pub fn run_smoke(emitter: &str, out_path: &str) -> Vec<TraceRow> {
    let root = scratch_dir("smoke");
    let rows: Vec<TraceRow> = smoke_configs()
        .iter()
        .map(|cfg| run_checked("svc smoke", cfg, &root, Some(SMOKE_CAP_MS)))
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    write_report(out_path, emitter, true, &rows);
    eprintln!("svc smoke: {} rows checked, wrote {out_path}", rows.len());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The smoke shape at unit-test size, too small for the accounting
    /// floor: preemption between timed stages can push a dozen commits'
    /// coverage under 0.8, so the trace tests assert contracts one by one.
    fn tiny() -> TraceConfig {
        TraceConfig {
            n: 600,
            batches: 12,
            batch: 16,
            rebuild_threshold: 32,
            snapshot_every: 4,
            ..TraceConfig::smoke()
        }
    }

    /// The keys of the "Service trace rows" table in
    /// `docs/bench-schema.md`, each with whether only durable rows carry it.
    fn schema_keys() -> Vec<(String, bool)> {
        let doc = include_str!("../../../docs/bench-schema.md");
        let section = doc.split("## Service trace rows").nth(1).expect("section");
        let section = section.split("\n## ").next().unwrap();
        section
            .lines()
            .filter_map(|line| line.strip_prefix("| `"))
            .flat_map(|line| {
                let (keys, meaning) = line.split_once(" | ").expect("two cells");
                let durable = meaning.starts_with("durable rows:");
                keys.split(", ")
                    .map(move |k| (k.trim_matches('`').to_string(), durable))
            })
            .collect()
    }

    /// The row's JSON, after asserting it carries every key the schema
    /// table lists for its kind of row, and an in-memory row no durable key.
    fn schema_json(row: &TraceRow) -> String {
        let keys = schema_keys();
        assert_eq!(keys.iter().filter(|(_, durable)| *durable).count(), 4);
        let json = row.to_json();
        // Keys inside the embedded dump do not count.
        let (head, _) = json.split_once(",\"obs\":{").expect("an obs dump");
        for (key, durable) in keys {
            let has = key == "obs" || head.contains(&format!("\"{key}\":"));
            let want = !durable || row.recovery.is_some();
            assert_eq!(has, want, "schema key {key} in {json}");
        }
        json
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, 1.2, 7);
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        let xs: Vec<u32> = (0..64).map(|_| z.sample(&mut a)).collect();
        let ys: Vec<u32> = (0..64).map(|_| z.sample(&mut b)).collect();
        assert_eq!(xs, ys);
        // The hottest vertex should dominate a uniform draw's 1/n share.
        let mut counts = std::collections::HashMap::new();
        let mut rng = Rng::new(11);
        for _ in 0..4000 {
            *counts.entry(z.sample(&mut rng)).or_insert(0usize) += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > 200, "hottest vertex drew {hottest}/4000");
    }

    #[test]
    fn percentiles_on_tiny_inputs() {
        assert_eq!(percentile_us(&[], 0.99), 0.0);
        assert_eq!(percentile_us(&[5_000], 0.5), 5.0);
        let xs = [1_000, 2_000, 3_000, 4_000];
        assert_eq!(percentile_us(&xs, 0.0), 1.0);
        assert_eq!(percentile_us(&xs, 1.0), 4.0);
    }

    #[test]
    fn smoke_is_contended_and_sweeps_every_fsync_policy() {
        let cfgs = smoke_configs();
        let policies: Vec<String> = cfgs.iter().map(|c| fsync_name(c.fsync)).collect();
        assert_eq!(policies, ["none", "always", "batch=8", "off"]);
        for c in &cfgs {
            assert!(c.writers >= 2 && c.readers >= 2 && c.window > 1, "{c:?}");
            assert_eq!(
                (c.family.as_str(), c.n, c.batches, c.batch),
                ("mixture", 3_000, 48, 64)
            );
        }
    }

    #[test]
    fn contended_in_memory_trace_checks_out() {
        let cfg = TraceConfig {
            writers: 3,
            readers: 2,
            window: 4,
            ..tiny()
        };
        let row = run_trace(&cfg, Path::new("unused"));
        assert!(row.verified);
        assert_eq!(row.obs.counters["svc_commits_total"], cfg.batches as u64);
        assert!(row.reads > 0, "readers never ran");
        assert!(row.rebuilds > 0, "trace too small to exercise folds");
        assert!(row.commit.p50 >= row.enqueue.p50);
        // 1.05 allows clock granularity.
        assert!(
            row.pipeline_coverage > 0.0 && row.pipeline_coverage <= 1.05,
            "stage sums outside the commit span: coverage {}",
            row.pipeline_coverage
        );
        assert!(schema_json(&row).contains("\"fsync\":\"none\""));
    }

    #[test]
    fn synchronous_durable_trace_recovers_under_each_policy() {
        let root = scratch_dir("unit_durable");
        for fsync in [FsyncPolicy::Off, FsyncPolicy::Batch(4), FsyncPolicy::Always] {
            let cfg = TraceConfig {
                writers: 1,
                window: 1,
                readers: 0,
                fsync: Some(fsync),
                ..tiny()
            };
            let row = run_trace(&cfg, &root);
            assert!(row.verified, "fsync={fsync} failed");
            let r = row.recovery.as_ref().expect("durable row reopened");
            assert_eq!(r.recovered_epoch, cfg.batches as u64);
            assert!(r.wal_bytes > 0 && r.snapshots >= 1);
            assert_eq!(row.reads, 0);
            let json = schema_json(&row);
            assert!(json.contains(&format!("\"recovered_epoch\":{}", cfg.batches)));
            assert!(json.contains(&format!("\"fsync\":\"{fsync}\"")));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn check_fires_on_every_broken_contract() {
        let root = scratch_dir("unit_check");
        let mut good = run_trace(
            &TraceConfig {
                fsync: Some(FsyncPolicy::Off),
                ..tiny()
            },
            &root,
        );
        let _ = std::fs::remove_dir_all(&root);
        // The one timing ratio this size cannot hold (see `tiny`), set
        // inside its contract; every other field is as measured.
        good.pipeline_coverage = 1.0;
        good.check(Some(SMOKE_CAP_MS));

        // One broken contract each, and a phrase of the message it must fire.
        type Break = (fn(&mut TraceRow), &'static str);
        let breaks: [Break; 10] = [
            (|r| r.verified = false, "diverged"),
            (|r| r.enqueue.p50 = 300.0, "budget"),
            (
                |r| {
                    r.pipeline_coverage = 0.5;
                    r.commit_span_p50_us = 100.0;
                    r.pipeline_p50_sum_us = 50.0;
                },
                "do not explain",
            ),
            (
                |r| *r.obs.counters.get_mut("svc_commits_total").unwrap() -= 1,
                "commit count",
            ),
            (
                |r| r.recovery.as_mut().unwrap().recovered_epoch -= 1,
                "committed epoch",
            ),
            (|r| r.recovery = None, "never reopened"),
            (|r| r.recovery.as_mut().unwrap().wal_bytes = 0, "footprint"),
            (|r| r.recovery.as_mut().unwrap().snapshots = 0, "footprint"),
            (
                |r| {
                    r.obs
                        .histograms
                        .values_mut()
                        .max_by_key(|h| h.sum)
                        .unwrap()
                        .max = 0
                },
                "zero max",
            ),
            (|r| r.elapsed_ms = SMOKE_CAP_MS + 1.0, "cap"),
        ];
        for (breakage, phrase) in breaks {
            let mut row = good.clone();
            breakage(&mut row);
            let err =
                catch_unwind(AssertUnwindSafe(|| row.check(Some(SMOKE_CAP_MS)))).expect_err(phrase);
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(
                msg.contains(phrase),
                "expected {phrase:?}, check() fired {msg:?}"
            );
        }
    }
}
