//! Calls into single layers, shared by the workloads: the CSR build, the
//! `pram-sim`/`pram-kit` micro-calls, the `logdiam-par` backends, and the
//! 1-thread rerun behind the `rayon` speedups.

use crate::check::Tally;
use crate::input::{self, Workload};
use crate::measure::{median, timed};
use crate::metrics::ratio;
use crate::trace::Tracer;
use crate::{Args, Ctx};
use cc_graph::{seq, Graph, GraphBuilder};
use logdiam_cc::theorem3::{faster_cc, FasterParams};
use pram_kit::{compact_over, PairSet};
use pram_sim::{Pram, WritePolicy};
use std::time::Instant;

/// Stream `edges` through `GraphBuilder::add_edge`, then `build()`.
/// Returns the graph, the push seconds and the build seconds.
pub fn build_csr(tracer: &Tracer, n: usize, edges: &[(u32, u32)]) -> (Graph, f64, f64) {
    let (builder, push_s) = tracer.time("cc-graph.push", || {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b
    });
    let (g, build_s) = tracer.time("cc-graph.build", || builder.build());
    (g, push_s, build_s)
}

/// Set-ups per run: at least [`SETUP_MIN`], and more while less than
/// [`SETUP_SECS`] have passed (at most [`SETUP_MAX`]); `setup_s` is their
/// median.
pub const SETUP_MIN: usize = 3;
/// See [`SETUP_MIN`].
pub const SETUP_SECS: f64 = 1.0;
/// See [`SETUP_MIN`].
pub const SETUP_MAX: usize = 64;

/// Whether another set-up should run after `done` set-ups that started at
/// `start`.
pub fn more_setups(done: usize, start: Instant) -> bool {
    done < SETUP_MIN || (done < SETUP_MAX && start.elapsed().as_secs_f64() < SETUP_SECS)
}

/// Machine seeds a simulated run cycles through, so that its median and
/// its peak RSS do not hang on one seeded machine.
pub const MACHINE_SEEDS: u64 = 4;

/// The `ArbitrarySeeded` machine seed of call `op` in a run for `seed`:
/// calls come in pairs on one machine seed (the traced run times the pair
/// with spans off, then on), cycling through [`MACHINE_SEEDS`] seeds that
/// no other `seed` shares.
pub fn machine_seed(seed: u64, op: u64) -> u64 {
    seed.wrapping_mul(MACHINE_SEEDS)
        .wrapping_add(op / 2 % MACHINE_SEEDS)
}

/// Ground truth from the sequential reference, with its seconds.
pub fn reference(tracer: &Tracer, g: &Graph) -> (Vec<u32>, f64) {
    tracer.time("cc-graph.seq_components", || seq::components(g))
}

/// One `Pram::step` with `n` processors, each reading one cell and writing
/// another: the engine's floor, in ns per processor (median of 5 steps).
pub fn step_ns(seed: u64, n: usize) -> f64 {
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
    let src = pram.alloc_filled(n, 1);
    let dst = pram.alloc(n);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let ((), d) = timed(|| {
                pram.step(n, |p, ctx| {
                    let x = ctx.read(src, p as usize);
                    ctx.write(dst, p as usize, x + 1);
                })
            });
            d.as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// `compact_over` over `k` items keeping every other one, in ns per item
/// (median of 5 calls on one machine).
pub fn compact_ns(seed: u64, k: usize) -> f64 {
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
    let items: Vec<u32> = (0..k as u32).collect();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let (kept, d) = timed(|| compact_over(&mut pram, &items, |_, &x, _| x % 2 == 0));
            assert_eq!(kept.len(), k.div_ceil(2), "compact_over lost items");
            d.as_nanos() as f64 / k as f64
        })
        .collect();
    median(&samples)
}

/// `PairSet::insert` of `k` endpoint pairs taken (cyclically) from
/// `edges`, in ns per insert (median of 5 fresh sets).
pub fn pairset_ns(seed: u64, edges: &[(u32, u32)], k: usize) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let (set_len, d) = timed(|| {
                let mut set = PairSet::with_capacity(seed, k);
                for &(u, v) in edges.iter().cycle().take(k) {
                    set.insert(u as u64, v as u64);
                }
                set.len()
            });
            std::hint::black_box(set_len);
            d.as_nanos() as f64 / k as f64
        })
        .collect();
    median(&samples)
}

/// Times a workload already took at the pool's full width, for the
/// `rayon` speedups (0 where it made no such call).
pub struct Own {
    /// Median `build()` seconds.
    pub build_s: f64,
    /// Median `unionfind_cc` seconds, when the workload times it itself.
    pub unionfind_s: Option<f64>,
    /// Median `faster_cc` call seconds.
    pub faster_cc_s: f64,
}

/// The traced run's calls into layers a workload does not time itself:
/// the `pram-sim`/`pram-kit` micro-calls (at `live` items, the workload's
/// live-arc count, bounded so the run stays short), the `logdiam-par`
/// backends on `g` (each answer checked against `truth`), and the 1-thread
/// rerun behind the `rayon` speedups.
pub fn traced_layers(
    cx: &mut Ctx,
    g: &Graph,
    truth: &[u32],
    seq_dsu_s: f64,
    edges: &[(u32, u32)],
    live: usize,
    own: Own,
) {
    let seed = cx.args.seed;
    let items = live.clamp(1, 1 << 22);
    cx.values.set("pram-sim.step_ns", step_ns(seed, g.n()));
    cx.values
        .set("pram-kit.compact_ns", compact_ns(seed, items));
    cx.values
        .set("pram-kit.pairset_ns", pairset_ns(seed, edges, items));
    let unionfind_s = backends(cx, g, truth, seq_dsu_s, own.unionfind_s);
    let one = one_thread_rerun(&cx.args, &mut cx.tally);
    let v = &mut cx.values;
    v.set("rayon.speedup_2t_build", ratio(one.build_s, own.build_s));
    v.set(
        "rayon.speedup_2t_unionfind_cc",
        ratio(one.unionfind_s, unionfind_s),
    );
    v.set(
        "rayon.speedup_2t_faster_cc",
        ratio(one.faster_cc_s, own.faster_cc_s),
    );
}

/// Time the `logdiam-par` backends on `g` (each answer checked against
/// `truth`) and record them beside the sequential reference's `seq_dsu_s`.
/// `unionfind_s` is the workload's own median when it already ran
/// `unionfind_cc`; otherwise the median of three calls here. Returns the
/// `unionfind_cc` seconds recorded.
fn backends(
    cx: &mut Ctx,
    g: &Graph,
    truth: &[u32],
    seq_dsu_s: f64,
    unionfind_s: Option<f64>,
) -> f64 {
    let unionfind_s = unionfind_s.unwrap_or_else(|| {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let (labels, s) = cx.tracer.time("logdiam-par.unionfind_cc", || {
                    logdiam_par::unionfind::unionfind_cc(g)
                });
                cx.tally.check_labels("unionfind_cc", &labels, truth);
                s
            })
            .collect();
        median(&runs)
    });
    type Backend = fn(&Graph) -> Vec<u32>;
    let others: [(&'static str, &'static str, Backend); 3] = [
        (
            "logdiam-par.labelprop_s",
            "logdiam-par.labelprop_cc",
            logdiam_par::labelprop::labelprop_cc,
        ),
        (
            "logdiam-par.sv_s",
            "logdiam-par.sv_cc",
            logdiam_par::sv::sv_cc,
        ),
        (
            "logdiam-par.contract_s",
            "logdiam-par.contract_cc",
            logdiam_par::contract::contract_cc,
        ),
    ];
    for (metric, span, f) in others {
        let (labels, s) = cx.tracer.time(span, || f(g));
        cx.tally.check_labels(span, &labels, truth);
        cx.values.set(metric, s);
    }
    cx.values.set("cc-graph.seq_dsu_s", seq_dsu_s);
    cx.values.set("logdiam-par.unionfind_s", unionfind_s);
    cx.values
        .set("logdiam-par.vs_dsu", ratio(seq_dsu_s, unionfind_s));
    unionfind_s
}

/// What the 1-thread rerun measured (seconds; `faster_cc_s` is 0 on
/// workloads that bypass the simulator).
#[derive(Clone, Copy, Debug, Default)]
struct OneThread {
    build_s: f64,
    unionfind_s: f64,
    faster_cc_s: f64,
}

/// Rerun this workload's CSR build, `unionfind_cc` and (on the simulated
/// workloads) `faster_cc` in a child process whose pool has one thread.
/// The child's checked operations are folded into `tally`.
fn one_thread_rerun(args: &Args, tally: &mut Tally) -> OneThread {
    let exe = std::env::current_exe().expect("cannot locate the benchmark binary");
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--size", args.size.name(), "--one-thread"])
        .env("RAYON_NUM_THREADS", "1")
        .env("LOGDIAM_OBS_SPANS", "0")
        .output();
    let line = match &out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .unwrap_or_default()
            .to_string(),
        _ => String::new(),
    };
    let field = |key: &str| -> Option<f64> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    };
    let (attempted, failed) = (field("attempted"), field("failed"));
    let ok = line.starts_with("one-thread ") && attempted.is_some() && failed.is_some();
    tally.attempted += attempted.unwrap_or(0.0) as u64;
    tally.failed += failed.unwrap_or(0.0) as u64;
    tally.record(ok, || match &out {
        Ok(o) => format!(
            "1-thread rerun failed: {}",
            String::from_utf8_lossy(&o.stderr)
        ),
        Err(e) => format!("1-thread rerun did not start: {e}"),
    });
    OneThread {
        build_s: field("build_s").unwrap_or(0.0),
        unionfind_s: field("unionfind_s").unwrap_or(0.0),
        faster_cc_s: field("faster_cc_s").unwrap_or(0.0),
    }
}

/// The child side of [`one_thread_rerun`]: measure and return the line
/// the parent parses.
pub fn one_thread_child(args: &Args) -> String {
    let tracer = Tracer::new(args.workload.name(), false);
    let inp = input::input(args.workload, args.size, args.seed);
    let edges = input::initial_edges(args.workload, &inp.edges);
    let mut builds = Vec::new();
    let mut g = None;
    for _ in 0..3 {
        let (graph, _, build_s) = build_csr(&tracer, inp.n, edges);
        builds.push(build_s);
        g = Some(graph);
    }
    let g = g.expect("three builds ran");
    let (truth, _) = reference(&tracer, &g);
    let mut tally = Tally::default();
    let uf: Vec<f64> = (0..3)
        .map(|_| {
            let (labels, d) = timed(|| logdiam_par::unionfind::unionfind_cc(&g));
            tally.check_labels("unionfind_cc (1 thread)", &labels, &truth);
            d.as_secs_f64()
        })
        .collect();
    let mut faster_cc_s = 0.0;
    if matches!(args.workload, Workload::SimPath | Workload::SimPowerlaw) {
        let seed = machine_seed(args.seed, 0);
        let t = Instant::now();
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let report = faster_cc(&mut pram, &g, seed, &FasterParams::default());
        drop(pram);
        faster_cc_s = t.elapsed().as_secs_f64();
        tally.check_labels("faster_cc (1 thread)", &report.run.labels, &truth);
    }
    for note in &tally.notes {
        eprintln!("{note}");
    }
    format!(
        "one-thread build_s={} unionfind_s={} faster_cc_s={} attempted={} failed={}",
        median(&builds),
        median(&uf),
        faster_cc_s,
        tally.attempted,
        tally.failed
    )
}
