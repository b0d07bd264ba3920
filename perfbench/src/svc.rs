//! The durable-service workload, `svc-mixture`.
//!
//! Set-up builds the initial CSR from the first half of the mixture stream
//! and `ConnectivityService::create`s a durable store on it with
//! `SvcParams::default()` (fsync on every commit), several times. Then two
//! client threads run side by side:
//!
//! * the writer: in phase A an open loop offering [`RATE`] batches of
//!   [`BATCH`] edges per second and waiting for each ack, every latency
//!   counted from the batch's due time; in phase B a closed loop keeping
//!   [`WINDOW`] tickets outstanding (committed edge writes per second);
//! * the reader: `query_latest` back to back.
//!
//! Batches carry the held-out half of the stream first, then Zipf(1.0)
//! pairs. Afterwards the handle is dropped and the store reopened with
//! `ConnectivityService::open`. Checked: every ticket (a `WriterDead` or a
//! wrong epoch fails), every recorded query answer against a union–find
//! replayed through the batch prefix it was answered at, and the live and
//! the reopened partitions against BFS over all acked batches.

use crate::check::{Dsu, Tally};
use crate::input::{self, Workload, Zipf};
use crate::layers;
use crate::measure::{mean, median, quantile, sleep_until, tail};
use crate::metrics::{overhead, ratio};
use crate::trace::Tracer;
use crate::Ctx;
use cc_graph::{seq, GraphBuilder, Rng};
use logdiam_obs::{HistogramSnapshot, MetricsSnapshot};
use logdiam_svc::{ConnectivityService, Epoch, SvcParams};
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Edges per batch.
pub const BATCH: usize = 128;
/// Offered batch rate of the open loop (phase A), batches per second:
/// about a quarter of the closed-loop capacity beside the reader on a
/// 2-core host, so the median shows the commit path, not queueing.
pub const RATE: f64 = 50.0;
/// Tickets the closed loop (phase B) keeps outstanding.
pub const WINDOW: usize = 16;
/// Zipf exponent of the synthetic write pairs and of the queries.
const ZIPF_S: f64 = 1.0;
/// Queries timed together (one `query_latest` is ~100 ns, close to the
/// cost of reading the clock); a sample is the group's time per query.
const QUERY_GROUP: usize = 8;
/// Every `LATENCY_STRIDE`-th phase-A group is kept as a latency sample.
const LATENCY_STRIDE: u64 = 2;
/// Cap on stored query latencies.
const LATENCY_CAP: usize = 1 << 19;
/// Every `ANSWER_STRIDE`-th group's answers are kept for the replay check.
const ANSWER_STRIDE: u64 = 4;
/// Cap on stored answers.
const ANSWER_CAP: usize = 1 << 16;

/// Phases, as the reader sees them.
const PROBE: u8 = 0;
const OPEN: u8 = 1;
const CLOSED: u8 = 2;
const DONE: u8 = 3;

/// The write stream: held-out edges first, then Zipf pairs; every batch
/// handed out is kept (for the replay and BFS checks).
struct Feed<'a> {
    held: &'a [(u32, u32)],
    next_held: usize,
    zipf: Zipf,
    rng: Rng,
    batches: Vec<Vec<(u32, u32)>>,
}

impl Feed<'_> {
    /// Make the next batch; returns its index.
    fn next(&mut self) -> usize {
        let batch = (0..BATCH)
            .map(|_| match self.held.get(self.next_held) {
                Some(&e) => {
                    self.next_held += 1;
                    e
                }
                None => (
                    self.zipf.sample(&mut self.rng),
                    self.zipf.sample(&mut self.rng),
                ),
            })
            .collect();
        self.batches.push(batch);
        self.batches.len() - 1
    }
}

/// One acked commit of the open loop.
struct Commit {
    ms: f64,
    probe: bool,
    spans_on: bool,
}

/// What the writer client brings back.
#[derive(Default)]
struct WriterLog {
    commits: Vec<Commit>,
    enqueue_us: Vec<f64>,
    late_ms: Vec<f64>,
    /// One checked operation per ticket.
    tally: Tally,
    /// Tickets that resolved (in FIFO order: a prefix of the batches).
    acked: usize,
    closed_edges: usize,
    closed_secs: f64,
    metrics_at_open: MetricsSnapshot,
}

impl WriterLog {
    /// Settle one ticket: it must commit as the next epoch (one writer,
    /// FIFO). Returns `false` once the writer thread is dead.
    fn settle(&mut self, idx: usize, result: Result<Epoch, logdiam_svc::WriterDead>) -> bool {
        let alive = result.is_ok();
        if alive {
            self.acked += 1;
        }
        let ok = matches!(result, Ok(epoch) if epoch == idx as Epoch + 1);
        self.tally
            .record(ok, || format!("batch {idx} settled as {result:?}"));
        alive
    }
}

/// Phase lengths in seconds.
struct Plan {
    probe: f64,
    open: f64,
    closed: f64,
}

fn writer(
    svc: &ConnectivityService,
    feed: &mut Feed,
    phase: &AtomicU8,
    plan: &Plan,
    tracer: &Tracer,
    trace: bool,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut alive = open_loop(svc, feed, plan.probe, true, &mut log, tracer);
    svc.obs().set_spans_enabled(trace);
    tracer.set_enabled(trace);
    log.metrics_at_open = svc.metrics();
    phase.store(OPEN, Ordering::SeqCst);
    alive = alive && open_loop(svc, feed, plan.open, false, &mut log, tracer);
    phase.store(CLOSED, Ordering::SeqCst);
    alive = alive && closed_loop(svc, feed, plan.closed, &mut log) && top_up(svc, feed, &mut log);
    if !alive {
        eprintln!("service writer died; the run stopped early");
    }
    phase.store(DONE, Ordering::SeqCst);
    log
}

/// Offer [`RATE`] batches per second for `secs`, waiting for each ack.
/// In the overhead probe, spans alternate off and on batch by batch.
fn open_loop(
    svc: &ConnectivityService,
    feed: &mut Feed,
    secs: f64,
    probe: bool,
    log: &mut WriterLog,
    tracer: &Tracer,
) -> bool {
    let period = Duration::from_secs_f64(1.0 / RATE);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    for i in 0u32.. {
        let due = t0 + period * i;
        if due >= end {
            break;
        }
        sleep_until(due);
        let spans_on = !probe || i % 2 == 1;
        if probe {
            svc.obs().set_spans_enabled(spans_on);
            tracer.set_enabled(spans_on);
        }
        let idx = feed.next();
        let span = tracer.span("logdiam-svc.commit").with("op", idx as u64);
        let sent = Instant::now();
        let ticket = svc.apply_batch(&feed.batches[idx]);
        let enqueued = sent.elapsed();
        let result = ticket.wait();
        let done = Instant::now();
        drop(span);
        if !log.settle(idx, result) {
            return false;
        }
        log.commits.push(Commit {
            ms: (done - due).as_secs_f64() * 1e3,
            probe,
            spans_on,
        });
        if !probe {
            log.enqueue_us.push(enqueued.as_secs_f64() * 1e6);
            log.late_ms.push((sent - due).as_secs_f64() * 1e3);
        }
    }
    true
}

/// Keep [`WINDOW`] tickets outstanding for `secs`, then drain them.
fn closed_loop(svc: &ConnectivityService, feed: &mut Feed, secs: f64, log: &mut WriterLog) -> bool {
    let t0 = Instant::now();
    let acked_before = log.acked;
    let mut inflight = VecDeque::new();
    let mut alive = true;
    while alive && t0.elapsed().as_secs_f64() < secs {
        let idx = feed.next();
        inflight.push_back((idx, svc.apply_batch(&feed.batches[idx])));
        if inflight.len() >= WINDOW {
            let (idx, ticket) = inflight.pop_front().expect("window is full");
            alive = log.settle(idx, ticket.wait());
        }
    }
    while let Some((idx, ticket)) = inflight.pop_front() {
        alive &= log.settle(idx, ticket.wait());
    }
    log.closed_secs = t0.elapsed().as_secs_f64();
    log.closed_edges = (log.acked - acked_before) * BATCH;
    alive
}

/// Commit single batches until the acked count sits halfway between two
/// durable snapshots (`SvcParams::snapshot_every`), so every reopen
/// replays the same number of WAL records whatever the phases reached.
fn top_up(svc: &ConnectivityService, feed: &mut Feed, log: &mut WriterLog) -> bool {
    let every = SvcParams::default().snapshot_every as usize;
    while log.acked % every != every / 2 {
        let idx = feed.next();
        if !log.settle(idx, svc.apply_batch(&feed.batches[idx]).wait()) {
            return false;
        }
    }
    true
}

/// What the reader client brings back.
#[derive(Default)]
struct ReaderLog {
    /// Phase-A `query_latest` latencies, ns per query of a timed group.
    open_ns: Vec<u32>,
    /// The subset taken while a background rebuild was in flight.
    rebuild_ns: Vec<u32>,
    /// `(epoch before, epoch after, u, v, answer)`.
    answers: Vec<(Epoch, Epoch, u32, u32, bool)>,
}

fn reader(svc: &ConnectivityService, n: usize, seed: u64, phase: &AtomicU8) -> ReaderLog {
    let zipf = Zipf::new(n, ZIPF_S, seed ^ 0x0BEE);
    let mut rng = Rng::new(seed ^ 0x0B5E);
    // Full capacity up front: the buffers' footprint then grows with use,
    // not in doublings that would jump the process's peak RSS.
    let mut log = ReaderLog {
        open_ns: Vec::with_capacity(LATENCY_CAP),
        rebuild_ns: Vec::new(),
        answers: Vec::with_capacity(ANSWER_CAP),
    };
    for group in 0u64.. {
        let ph = phase.load(Ordering::SeqCst);
        if ph == DONE {
            break;
        }
        let pairs: [(u32, u32); QUERY_GROUP] =
            std::array::from_fn(|_| (zipf.sample(&mut rng), zipf.sample(&mut rng)));
        let in_rebuild = svc.rebuild_in_flight();
        let e0 = svc.epoch();
        let t = Instant::now();
        let answers = pairs.map(|(u, v)| svc.query_latest(u, v));
        let ns = t.elapsed().as_nanos() / QUERY_GROUP as u128;
        let e1 = svc.epoch();
        let ns = ns.min(u32::MAX as u128) as u32;
        if ph == OPEN && group % LATENCY_STRIDE == 0 && log.open_ns.len() < LATENCY_CAP {
            log.open_ns.push(ns);
            if in_rebuild {
                log.rebuild_ns.push(ns);
            }
        }
        if group % ANSWER_STRIDE == 0 && log.answers.len() < ANSWER_CAP {
            for (&(u, v), &answer) in pairs.iter().zip(&answers) {
                log.answers.push((e0, e1, u, v, answer));
            }
        }
    }
    log
}

/// Check each recorded answer against a union–find replayed through the
/// batch prefix it was answered at. Connectivity only grows, so a `true`
/// answer must hold at the later epoch read around the query and a `false`
/// one at the earlier.
fn verify_answers(
    tally: &mut Tally,
    n: usize,
    initial: &[(u32, u32)],
    batches: &[Vec<(u32, u32)>],
    answers: &[(Epoch, Epoch, u32, u32, bool)],
) {
    let mut checks: Vec<(Epoch, u32, u32, bool)> = answers
        .iter()
        .map(|&(e0, e1, u, v, a)| (if a { e1 } else { e0 }, u, v, a))
        .collect();
    checks.sort_unstable_by_key(|c| c.0);
    let mut dsu = Dsu::new(n);
    for &(u, v) in initial {
        dsu.union(u, v);
    }
    let mut applied = 0;
    for (epoch, u, v, answer) in checks {
        while (applied as Epoch) < epoch && applied < batches.len() {
            for &(a, b) in &batches[applied] {
                dsu.union(a, b);
            }
            applied += 1;
        }
        let ok = epoch <= batches.len() as Epoch && dsu.same(u, v) == answer;
        tally.record(ok, || {
            format!("query ({u},{v}) at epoch {epoch} answered {answer}")
        });
    }
}

fn remove_store(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn persist_err(e: logdiam_svc::PersistError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Run `svc-mixture`.
pub fn run(cx: &mut Ctx) -> io::Result<()> {
    let (seed, trace, secs) = (cx.args.seed, cx.args.trace, cx.args.seconds);
    let w = Workload::SvcMixture;
    let inp = input::input(w, cx.args.size, seed);
    let n = inp.n;
    let initial = input::initial_edges(w, &inp.edges);
    let held = &inp.edges[initial.len()..];

    // Set-up: CSR build + durable create, several times; the last one stays.
    let (mut setup, mut push, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    let mut m0 = 0;
    let t0 = Instant::now();
    for k in 0.. {
        let dir = cx.workdir.join(format!("store-{}-{k}", std::process::id()));
        remove_store(&dir)?;
        let span = cx.tracer.span("perfbench.setup");
        let t = Instant::now();
        let (g0, p, b) = layers::build_csr(&cx.tracer, n, initial);
        m0 = g0.m();
        let (svc, _) = cx.tracer.time("logdiam-svc.create", || {
            ConnectivityService::create(&dir, g0, SvcParams::default())
        });
        setup.push(t.elapsed().as_secs_f64());
        drop(span);
        push.push(p);
        build.push(b);
        let svc = svc.map_err(persist_err)?;
        if layers::more_setups(setup.len(), t0) {
            drop(svc);
            remove_store(&dir)?;
        } else {
            kept = Some((svc, dir));
            break;
        }
    }
    let (svc, dir) = kept.expect("at least one set-up ran");

    // Writes beside reads.
    let plan = Plan {
        probe: if trace { secs / 4.0 } else { 0.0 },
        open: secs / 2.0,
        closed: secs / 2.0,
    };
    let mut feed = Feed {
        held,
        next_held: 0,
        zipf: Zipf::new(n, ZIPF_S, seed ^ 0x21BF),
        rng: Rng::new(seed ^ 0x0A57),
        batches: Vec::new(),
    };
    let phase = AtomicU8::new(PROBE);
    let tracer = &cx.tracer;
    let (wlog, rlog) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(&svc, n, seed, &phase));
        let w = s.spawn(|| writer(&svc, &mut feed, &phase, &plan, tracer, trace));
        let wlog = w.join();
        phase.store(DONE, Ordering::SeqCst); // even if the writer client panicked
        (wlog, r.join())
    });
    let (mut wlog, rlog) = match (wlog, rlog) {
        (Ok(w), Ok(r)) => (w, r),
        _ => {
            cx.tally.record(false, || "a client thread panicked".into());
            return Ok(());
        }
    };
    let (acked, commits) = (wlog.acked, &wlog.commits);
    cx.tally.absorb(std::mem::take(&mut wlog.tally));
    let flushed = svc.flush();
    cx.tally
        .record(flushed.is_ok(), || format!("flush: {flushed:?}"));
    let live = svc.latest();
    let metrics = svc.metrics();
    let spectrum = svc.spectrum();
    if trace {
        cx.layer_events = svc.obs().drain_events();
    }
    drop(svc);

    // Recovery: reopen the store from disk.
    let (reopened, recover_s) = cx.tracer.time("logdiam-svc.open", || {
        ConnectivityService::open(&dir, SvcParams::default())
    });
    let reopened = reopened.map_err(persist_err)?;
    let recovered = reopened.latest();
    let replayed = reopened.metrics().counters["svc_replayed_records_total"];
    drop(reopened);
    remove_store(&dir)?;
    // Before the checks below, whose buffers are the benchmark's own.
    cx.values.set("peak_rss_mb", crate::measure::peak_rss_mb());

    // The live and reopened partitions against BFS over every acked batch.
    let batches = &feed.batches[..acked];
    let mut b = GraphBuilder::new(n);
    for &(u, v) in initial.iter().chain(batches.iter().flatten()) {
        b.add_edge(u, v);
    }
    let truth = seq::components_bfs(&b.build());
    for (what, snap) in [("live", &live), ("reopened", &recovered)] {
        cx.tally.check_labels(what, snap.labels(), &truth);
        cx.tally.record(snap.epoch() == acked as Epoch, || {
            format!("{what} epoch {} after {acked} acked batches", snap.epoch())
        });
    }
    verify_answers(&mut cx.tally, n, initial, batches, &rlog.answers);

    let open: Vec<f64> = commits.iter().filter(|c| !c.probe).map(|c| c.ms).collect();
    let v = &mut cx.values;
    v.set("setup_s", median(&setup));
    v.set("op_p50_ms", median(&open));
    v.set(
        "edges_per_s",
        ratio(wlog.closed_edges as f64, wlog.closed_secs),
    );
    v.set("perfbench.op_samples", open.len() as f64);
    v.set("perfbench.op_tail_ms", tail(&open));
    if !trace {
        return Ok(());
    }

    // Traced run only: per-layer numbers.
    let us = |xs: &[u32]| -> Vec<f64> { xs.iter().map(|&ns| ns as f64 / 1e3).collect() };
    let probe = |on: bool| -> Vec<f64> {
        commits
            .iter()
            .filter(|c| c.probe && c.spans_on == on)
            .map(|c| c.ms)
            .collect()
    };
    v.set(
        "logdiam-obs.overhead",
        overhead(&probe(true), &probe(false)),
    );
    v.set("perfbench.sender_late_ms", mean(&wlog.late_ms));
    v.set("cc-graph.push_s", median(&push));
    v.set("cc-graph.build_s", median(&build));
    v.set(
        "logdiam-svc.enqueue_p50_us",
        quantile(&wlog.enqueue_us, 0.5),
    );
    v.set(
        "logdiam-svc.enqueue_p99_us",
        quantile(&wlog.enqueue_us, 0.99),
    );
    v.set(
        "logdiam-svc.query_p50_us",
        quantile(&us(&rlog.open_ns), 0.5),
    );
    v.set(
        "logdiam-svc.query_p99_us",
        quantile(&us(&rlog.open_ns), 0.99),
    );
    v.set(
        "logdiam-svc.query_in_rebuild_p99_us",
        quantile(&us(&rlog.rebuild_ns), 0.99),
    );
    v.set("logdiam-svc.recover_s", recover_s);
    v.set("logdiam-svc.replayed_records", replayed as f64);
    let submitted = (acked * BATCH) as f64;
    let distinct_new = (spectrum.base_m + spectrum.delta_edges).saturating_sub(m0);
    v.set(
        "logdiam-svc.new_edge_ratio",
        ratio(distinct_new as f64, submitted),
    );
    let probed = commits.iter().filter(|c| c.probe).count();
    registry_layer(
        cx,
        &wlog.metrics_at_open,
        &metrics,
        (acked - probed) * BATCH,
    );

    // The other layers, on the initial graph.
    let (g0, _, _) = layers::build_csr(&cx.tracer, n, initial);
    let (truth0, seq_dsu_s) = layers::reference(&cx.tracer, &g0);
    cx.values.set("cc-graph.csr_bytes", g0.heap_bytes() as f64);
    let own = layers::Own {
        build_s: median(&build),
        unionfind_s: None,
        faster_cc_s: 0.0,
    };
    layers::traced_layers(cx, &g0, &truth0, seq_dsu_s, initial, g0.m(), own);
    Ok(())
}

/// The commit stages timed inside the writer's `svc_commit_ns` span, folds
/// included: the denominator-exact coverage set.
const STAGES: [&str; 7] = [
    "svc_wal_append_ns",
    "svc_fsync_ns",
    "svc_dedup_ns",
    "svc_absorb_ns",
    "svc_cross_drain_ns",
    "svc_fold_ns",
    "svc_snapshot_publish_ns",
];

/// Per-layer numbers from the service's own registry, over the phases
/// that ran with spans on (`after - before`), and the `pipeline_sum_ok`
/// check: the stage p50s sum to within 20 % of the commit span's p50, or
/// the exact stage sums cover 80–105 % of the span's sum.
fn registry_layer(cx: &mut Ctx, before: &MetricsSnapshot, after: &MetricsSnapshot, edges: usize) {
    let hist = |name: &str| -> HistogramSnapshot {
        let mut d = after.histograms.get(name).cloned().unwrap_or_default();
        if let Some(b) = before.histograms.get(name) {
            d.count -= b.count;
            d.sum = d.sum.wrapping_sub(b.sum);
            for (x, y) in d.buckets.iter_mut().zip(&b.buckets) {
                *x -= y;
            }
        }
        d
    };
    let count = |name: &str| -> f64 {
        let get = |m: &MetricsSnapshot| m.counters.get(name).copied().unwrap_or(0);
        (get(after) - get(before)) as f64
    };
    let mean_ns = |name: &str| {
        let h = hist(name);
        ratio(h.sum as f64, h.count as f64)
    };
    let span = hist("svc_commit_ns");
    let stage_sum: u64 = STAGES.iter().map(|s| hist(s).sum).sum();
    let coverage = ratio(stage_sum as f64, span.sum as f64);
    let p50_sum: f64 = STAGES
        .iter()
        .filter(|s| **s != "svc_fold_ns")
        .map(|s| hist(s).p50())
        .sum();
    let p50_ratio = ratio(p50_sum, span.p50());
    let ok =
        span.count == 0 || (0.8..=1.2).contains(&p50_ratio) || (0.8..=1.05).contains(&coverage);
    cx.tally.record(ok, || {
        format!("commit stages explain the span poorly: p50 ratio {p50_ratio}, coverage {coverage}")
    });
    let v = &mut cx.values;
    v.set("logdiam-svc.pipeline_coverage", coverage);
    v.set(
        "logdiam-svc.queue_wait_us",
        mean_ns("svc_enqueue_wait_ns") / 1e3,
    );
    v.set("logdiam-svc.commit_span_us", mean_ns("svc_commit_ns") / 1e3);
    v.set("logdiam-svc.dedup_us", mean_ns("svc_dedup_ns") / 1e3);
    v.set("logdiam-svc.absorb_us", mean_ns("svc_absorb_ns") / 1e3);
    v.set(
        "logdiam-svc.cross_drain_us",
        mean_ns("svc_cross_drain_ns") / 1e3,
    );
    v.set(
        "logdiam-svc.publish_us",
        mean_ns("svc_snapshot_publish_ns") / 1e3,
    );
    v.set(
        "logdiam-svc.wal_append_us",
        mean_ns("svc_wal_append_ns") / 1e3,
    );
    v.set("logdiam-svc.fsync_us", mean_ns("svc_fsync_ns") / 1e3);
    v.set("logdiam-svc.fold_ms", mean_ns("svc_fold_ns") / 1e6);
    v.set(
        "logdiam-svc.recompute_ms",
        mean_ns("svc_recompute_ns") / 1e6,
    );
    v.set("logdiam-svc.swap_ms", mean_ns("svc_swap_ns") / 1e6);
    v.set(
        "logdiam-svc.durable_snapshot_ms",
        mean_ns("svc_durable_snapshot_ns") / 1e6,
    );
    let folds = count("svc_folds_total");
    v.set("logdiam-svc.folds", folds);
    v.set(
        "logdiam-svc.stale_rebuild_ratio",
        ratio(count("svc_stale_rebuilds_total"), folds),
    );
    v.set(
        "logdiam-svc.wal_bytes_per_edge",
        ratio(count("svc_wal_bytes_total"), edges as f64),
    );
    v.set(
        "logdiam-svc.fsyncs_per_commit",
        ratio(count("svc_wal_fsyncs_total"), count("svc_commits_total")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_answers_follow_the_batch_prefix() {
        let initial = [(0, 1)];
        let batches = vec![vec![(1, 2)], vec![(3, 4)]];
        let mut t = Tally::default();
        let answers = [
            (0, 0, 0, 2, false), // not yet connected at epoch 0
            (0, 1, 0, 2, true),  // connected by epoch 1
            (2, 2, 3, 4, true),
            (0, 0, 0, 1, true),
        ];
        verify_answers(&mut t, 5, &initial, &batches, &answers);
        assert_eq!((t.attempted, t.failed), (4, 0));
        verify_answers(&mut t, 5, &initial, &batches, &[(1, 1, 0, 3, true)]);
        assert_eq!((t.attempted, t.failed), (5, 1));
    }
}
