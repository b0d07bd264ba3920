//! The one-shot workloads: `faster_cc` on a fresh simulated machine
//! (`sim-path`, `sim-powerlaw`) and `unionfind_cc` (`practical-grid`), each
//! on a CSR built from the workload's edge stream.
//!
//! Untraced, a run builds the CSR several times (`setup_s`), then calls the
//! labelling entry point back to back for the window, checking every
//! answer against `cc_graph::seq::components`; simulated calls cycle
//! through a few machine seeds derived from the run's seed
//! ([`layers::machine_seed`]). Traced, the same calls alternate between
//! spans off and on (for `logdiam-obs.overhead`), and the run adds the
//! per-layer reads, micro-calls, backends and the 1-thread rerun.

use crate::input::{self, Workload};
use crate::layers;
use crate::measure::{median, tail};
use crate::metrics::{overhead, ratio};
use crate::Ctx;
use cc_graph::Graph;
use logdiam_cc::theorem3::{faster_cc, FasterParams, FasterReport};
use pram_sim::{Pram, Stats, WritePolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One labelling call's outcome.
struct Call {
    labels: Vec<u32>,
    seconds: f64,
    /// The simulated run's report and machine facts (simulated workloads).
    sim: Option<SimCall>,
}

struct SimCall {
    report: FasterReport,
    /// `Stats::work` read off the machine after the call, independently of
    /// the report's copy.
    machine_work: u64,
    /// The arena's backing bytes after the call.
    arena_bytes: usize,
}

/// A fresh `Pram::new` + `faster_cc` (+ dropping the machine), as a caller
/// pays for it.
fn sim_call(g: &Graph, seed: u64) -> Call {
    let t = Instant::now();
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
    let report = faster_cc(&mut pram, g, seed, &FasterParams::default());
    let machine_work = pram.stats().work;
    let arena_bytes = pram.arena_backing_bytes();
    drop(pram);
    Call {
        labels: report.run.labels.clone(),
        seconds: t.elapsed().as_secs_f64(),
        sim: Some(SimCall {
            report,
            machine_work,
            arena_bytes,
        }),
    }
}

fn unionfind_call(g: &Graph) -> Call {
    let t = Instant::now();
    let labels = logdiam_par::unionfind::unionfind_cc(g);
    Call {
        labels,
        seconds: t.elapsed().as_secs_f64(),
        sim: None,
    }
}

/// Run `sim-path`, `sim-powerlaw` or `practical-grid`.
pub fn run(cx: &mut Ctx) {
    let (w, seed, trace) = (cx.args.workload, cx.args.seed, cx.args.trace);
    let sim = w != Workload::PracticalGrid;
    let inp = input::input(w, cx.args.size, seed);

    // Set-up: the CSR build from the stream, several times.
    let (mut setup, mut push, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut graph = None;
    let t0 = Instant::now();
    while layers::more_setups(setup.len(), t0) {
        drop(graph.take()); // one CSR alive at a time
        let _span = cx.tracer.span("perfbench.setup");
        let (g, p, b) = layers::build_csr(&cx.tracer, inp.n, &inp.edges);
        setup.push(p + b);
        push.push(p);
        build.push(b);
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up ran");
    let (truth, seq_dsu_s) = layers::reference(&cx.tracer, &g);

    // The window: labelling calls back to back, every answer checked.
    let span_name = if sim {
        "logdiam-cc.faster_cc"
    } else {
        "logdiam-par.unionfind_cc"
    };
    let mut samples: Vec<(f64, bool)> = Vec::new(); // (seconds, spans on)
    let mut first: Option<SimCall> = None;
    // Each machine seed's counts, to check its next call repeats them.
    let mut counts: Vec<Option<(Stats, u64)>> = vec![None; layers::MACHINE_SEEDS as usize];
    let t0 = Instant::now();
    for op in 0u64.. {
        let spans_on = trace && op % 2 == 1;
        cx.tracer.set_enabled(spans_on);
        let span = cx.tracer.span(span_name).with("op", op);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if sim {
                sim_call(&g, layers::machine_seed(seed, op))
            } else {
                unionfind_call(&g)
            }
        }));
        drop(span);
        match outcome {
            Ok(call) => {
                let labels_ok = crate::check::same_partition(&call.labels, &truth);
                // The same machine seed must give the same simulated run.
                let repeats = call.sim.as_ref().is_none_or(|s| {
                    let now = (s.report.run.stats, s.report.run.rounds);
                    let slot = &mut counts[(op / 2 % layers::MACHINE_SEEDS) as usize];
                    *slot.get_or_insert(now) == now
                });
                cx.tally.record(labels_ok && repeats, || {
                    format!("{span_name} call {op}: labels ok {labels_ok}, counts repeat {repeats}")
                });
                samples.push((call.seconds, spans_on));
                if first.is_none() {
                    first = call.sim;
                }
            }
            Err(_) => cx
                .tally
                .record(false, || format!("{span_name} call {op} panicked")),
        }
        if t0.elapsed().as_secs_f64() >= cx.args.seconds {
            break;
        }
    }
    cx.tracer.set_enabled(trace);

    let secs: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let p50 = median(&secs);
    let v = &mut cx.values;
    v.set("peak_rss_mb", crate::measure::peak_rss_mb());
    v.set("setup_s", median(&setup));
    v.set("op_p50_ms", p50 * 1e3);
    v.set("edges_per_s", ratio(g.m() as f64, p50));
    v.set("perfbench.op_samples", secs.len() as f64);
    v.set("perfbench.op_tail_ms", tail(&secs) * 1e3);
    if let Some(first) = &first {
        account(cx, first, g.m(), p50);
    }
    if !trace {
        return;
    }

    // Traced run only: the per-layer reads and calls.
    let v = &mut cx.values;
    v.set("cc-graph.push_s", median(&push));
    v.set("cc-graph.build_s", median(&build));
    v.set("cc-graph.csr_bytes", g.heap_bytes() as f64);
    let pick =
        |on: bool| -> Vec<f64> { samples.iter().filter(|s| s.1 == on).map(|s| s.0).collect() };
    v.set("logdiam-obs.overhead", overhead(&pick(true), &pick(false)));
    let live = first
        .as_ref()
        .and_then(|f| f.report.run.per_round.first())
        .map_or(g.m(), |r| r.live_arcs);
    let own = layers::Own {
        build_s: median(&build),
        unionfind_s: (!sim).then_some(p50),
        faster_cc_s: if sim { p50 } else { 0.0 },
    };
    layers::traced_layers(cx, &g, &truth, seq_dsu_s, &inp.edges, live, own);
}

/// Record the simulated run's counts and check that its four phase works
/// account for the machine's work: start-up (everything before round 1:
/// CcState init, the COMPACT prefix, compaction, state and live-index
/// init) is what the report's rounds, compaction and postprocess leave of
/// the total, so the check is that no phase is negative or double-counted
/// and that the report's total equals the machine's own counter.
fn account(cx: &mut Ctx, call: &SimCall, m: usize, p50: f64) {
    let r = &call.report;
    let stats = &r.run.stats;
    let rounds: u128 = r.run.per_round.iter().map(|x| x.work as u128).sum();
    let compaction: u128 = r
        .run
        .per_round
        .iter()
        .map(|x| x.compaction_work as u128)
        .sum();
    let post = r.post_work as u128;
    let total = stats.work as u128;
    let startup = total.checked_sub(rounds + compaction + post);
    let ok = startup.is_some_and(|s| s > 0) && call.machine_work == stats.work;
    cx.tally.record(ok, || {
        format!(
            "phase works {startup:?} + {rounds} + {compaction} + {post} do not account for \
             pram_work {} (machine {})",
            stats.work, call.machine_work
        )
    });
    let startup = startup.unwrap_or(0) as f64;
    let total = total as f64;
    let v = &mut cx.values;
    v.set("pram-sim.steps", stats.steps as f64);
    v.set("pram-sim.work", total);
    v.set("pram-sim.ns_per_work", ratio(p50 * 1e9, total));
    v.set("pram-sim.reads", stats.reads as f64);
    v.set("pram-sim.writes", stats.writes as f64);
    v.set("pram-sim.peak_words", stats.peak_words as f64);
    v.set("pram-sim.arena_bytes", call.arena_bytes as f64);
    v.set("logdiam-cc.rounds", r.run.rounds as f64);
    v.set("logdiam-cc.prepare_rounds", r.run.prepare_rounds as f64);
    v.set("logdiam-cc.compaction_retries", r.compaction_rounds as f64);
    v.set("logdiam-cc.startup_work", startup);
    v.set("logdiam-cc.round_work", rounds as f64);
    v.set("logdiam-cc.compaction_work", compaction as f64);
    v.set("logdiam-cc.post_work", post as f64);
    v.set(
        "logdiam-cc.work_per_m_round",
        ratio(total, m as f64 * r.run.rounds as f64),
    );
    v.set("logdiam-cc.max_level", r.run.max_level() as f64);
    let dormant: u64 = r.run.per_round.iter().map(|x| x.dormant).sum();
    v.set("logdiam-cc.dormant", dormant as f64);
    v.set("logdiam-cc.peak_table_words", r.table_peak_words as f64);
    let live = r.run.per_round.first().map_or(0, |x| x.live_arcs);
    v.set("logdiam-cc.live_arcs_r1", live as f64);
}
