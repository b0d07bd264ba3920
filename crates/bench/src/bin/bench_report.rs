//! `bench_report` — the reproducible perf baseline.
//!
//! Runs a fixed workload matrix — path / grid / power-law / mixture graphs
//! at n ∈ {1e5, 1e6} plus path / grid at 1e7 — through the paper's
//! Theorem-3 pipeline (on the PRAM simulator, i.e. the `Pram::step` host
//! path) and all four `logdiam-par` practical algorithms, at 1 thread and
//! at all available cores, and writes per-(workload, algorithm, threads)
//! wall-clock medians to `BENCH_PR8.json`. Every future perf PR is judged
//! against this file.
//!
//! `theorem3_sim` rows additionally carry the run's charged `work`, its
//! `rounds`, and `work_per_m_round` = work / (m · rounds) — the
//! near-work-efficiency invariant (E9): with live-work scheduling in the
//! rounds, the controller, and (since the stamped EXPAND phase state) the
//! Theorem-1 postprocess, this ratio stays flat as n grows, which is what
//! justifies lifting the simulated range to 1e7.
//!
//! Every workload also gets a `graph_build` row timing the streaming
//! chunked CSR build (generator → bounded sorted runs → k-way merge) and
//! recording `peak_rss_kb` — the kernel's `VmHWM` high-water mark, reset
//! per phase via `/proc/self/clear_refs` — plus the final `csr_bytes`;
//! the streaming-build memory contract (peak ≤ 2× the final CSR
//! footprint) is asserted in-process for CSR footprints large enough to
//! dominate the process baseline. `theorem3_sim` rows record the simulate
//! phase's `peak_rss_kb` the same way. A `builder_equivalence` row
//! asserts the streaming build is bit-identical to the reference
//! sort+dedup build on a duplicate/loop-heavy stream and carries
//! `"verified": true`.
//!
//! Because the rayon pool size is fixed at first use, the parent process
//! re-executes itself once per thread count (`RAYON_NUM_THREADS=k
//! bench_report --child ...`) and merges the children's measurements.
//!
//! Usage:
//!
//! ```text
//! bench_report [--smoke | --xl] [--out PATH] [--svc-out PATH] [--sim-max-n N]
//! ```
//!
//! `--xl` switches to the 1e8 tier (see `BENCH_PR10.json`): path and
//! grid at n = 1e8, graph build forced through out-of-core edge runs
//! (`LOGDIAM_RUN_SPILL` — the parent pins a spill dir for its children,
//! honoring a pre-set value), the Theorem-3 simulation path-only and
//! single-rep. Rows carry `cell_width`, `spilled_runs`, `spill_bytes`
//! (process-wide spill counter deltas around the build) and
//! `arena_bytes` (the machine's backing allocation after the run); the
//! streaming-build memory contract (peak RSS ≤ 2× final CSR) is
//! asserted with spilling active, and the practical `logdiam-par` rows
//! are gated off above 1e7 where the graphs alone dominate the
//! measurement budget.
//!
//! `--smoke` shrinks the matrix to seconds (CI keeps the emitter alive)
//! and additionally runs the **wall-clock guards**: diameter-heavy
//! `theorem3_sim`, `theorem1_sim`, and `theorem2_sim` runs on path/2^14
//! must each finish under a generous cap, so an O(n+m)-per-round pathology
//! in any of the live-scheduled drivers can never silently return. The
//! theorem3 guard is then repeated with full `logdiam_obs` registry
//! recording (spans on, per-round events, gauge bridges) and asserted to
//! cost ≤ 5% over the plain run; that `theorem3_sim_obs` row embeds the
//! final registry dump under `"obs"` (the `docs/obs-schema.md` object),
//! which the child validates before emitting the row. Smoke mode also
//! runs the connectivity-service smoke (`logdiam_bench::svc::run_smoke`:
//! one trace shape in memory and under each fsync policy, every row
//! checked) and writes its report to `--svc-out` (default
//! `BENCH_SVC_SMOKE.json`). Every row is asserted in-process before it is
//! emitted, so CI only checks that a written report parses. `--out`
//! overrides the output path, which defaults to `BENCH_PR8.json` for the
//! full matrix, `BENCH_PR10.json` for `--xl` and `BENCH_SMOKE.json` for
//! `--smoke`, so a smoke run never overwrites a committed baseline;
//! `--sim-max-n` raises (or lowers) the largest n the full Theorem-3
//! simulation runs at.

use cc_graph::runs::spill_counters;
use cc_graph::seq::{components, same_partition};
use cc_graph::{gen, EdgeRunStore, Graph, Rng};
use logdiam_bench::check_obs_dump;
use logdiam_bench::svc::{family_graph, run_smoke};
use logdiam_cc::theorem1::{connected_components, Theorem1Params};
use logdiam_cc::theorem2::spanning_forest;
use logdiam_cc::theorem3::{faster_cc, FasterParams};
use logdiam_obs::Registry;
use logdiam_par::{
    contract::contract_cc, labelprop::labelprop_cc, sv::sv_cc, unionfind::unionfind_cc,
};
use pram_sim::{Pram, WritePolicy};
use std::io::Write as _;
use std::process::Command;
use std::sync::Arc;

const SEED: u64 = 0xBEEF_CAFE;

/// Default largest n the full Theorem-3 *simulation* runs at. With the
/// rounds, the controller, and the EXPAND phase state all live-sized
/// (charged LiveIndex rebuild, stamped MAXLINK, stamped fdr/liveness),
/// and the streaming chunked builder keeping construction memory at
/// runs + CSR instead of 2× edge list, 1e7 path/grid runs fit and finish.
/// Overridable with `--sim-max-n`; anything larger is skipped with a log
/// line naming the limit and the flag, never silently.
const DEFAULT_SIM_MAX_N: usize = 10_000_000;

/// The `--xl` tier size. A path/1e8 Theorem-3 run peaks at ≈ 33 simulated
/// words per vertex (measured with `t3_probe`), i.e. ≈ 3.3e9 words
/// — inside the arena's 2^32-word address space, which is exactly what
/// the compact-image work buys. The build streams its ≈ 1e8-edge runs
/// through spill files, so construction never holds the unsorted list.
const XL_N: usize = 100_000_000;

/// Largest n the practical `logdiam-par` algorithms (and the `pram_step`
/// microworkload) run at: above this the measurements are dominated by
/// memory traffic on graphs the simulated tier is the story for, so the
/// matrix stops paying for them.
const PAR_MAX_N: usize = 10_000_000;

/// Largest n at which `theorem3_sim` is cheap enough to repeat for an
/// honest median; above this a single rep is taken and the JSON field is
/// labeled `ms` (not `median_ms`).
const SIM_MEDIAN_MAX_N: usize = 100_000;

/// Wall-clock guard workload (`--smoke` only): a path graph this long is
/// diameter-heavy enough that O(n+m)-per-round behaviour costs minutes,
/// while the live-work scheduler finishes in seconds.
const GUARD_N: usize = 1 << 14;

/// Generous cap for the theorem3 guard run (per rep, milliseconds). The
/// pre-PR3 code needed ~2 minutes for this workload; the scheduler needs
/// well under a second.
const GUARD_CAP_MS: f64 = 60_000.0;

/// Caps for the Theorem-1/Theorem-2 guards (per rep, milliseconds). Both
/// drivers run the same live discipline; Theorem 2 snapshots its
/// expansion tables, so it gets the same generous envelope.
const GUARD_T1_CAP_MS: f64 = 60_000.0;
const GUARD_T2_CAP_MS: f64 = 60_000.0;

/// Absolute slack for the observability-overhead guard, milliseconds.
/// The contract is relative (recording into a registry must cost ≤ 5% of
/// the guard run), but 5% of a sub-second run is inside the scheduling
/// jitter of a loaded CI container even with median-of-3 reps, so the
/// assert allows this fixed noise floor on top.
const OBS_GUARD_SLACK_MS: f64 = 100.0;

/// Steps of the `pram_step` microworkload: each step runs n processors
/// that read one cell and write another (with a deterministic per-step
/// shuffle), i.e. pure `run_procs` + sharded-commit throughput. Written
/// values stay below 2^31, inside the machine's 32-bit word.
const PRAM_STEP_ROUNDS: usize = 8;

fn pram_step_workload(n: usize) {
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(SEED));
    let xs = pram.alloc(n);
    for _ in 0..PRAM_STEP_ROUNDS {
        pram.step(n, |p, ctx| {
            let i = p as usize;
            let v = ctx.read(xs, i);
            let r = ctx.rand(0);
            let j = (i + 1) % n;
            ctx.write(xs, j, v ^ (r >> 33));
        });
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_report [--smoke | --xl] [--out PATH] [--svc-out PATH] [--sim-max-n N]\n\
         --out defaults to {} (full), {} (--xl) or {} (--smoke)",
        default_out_path(false, false),
        default_out_path(false, true),
        default_out_path(true, false)
    );
    std::process::exit(2);
}

/// The report path without `--out`: each tier writes its own file, and
/// only the full matrix writes the committed `BENCH_PR8.json` baseline.
fn default_out_path(smoke: bool, xl: bool) -> &'static str {
    if smoke {
        "BENCH_SMOKE.json"
    } else if xl {
        "BENCH_PR10.json"
    } else {
        "BENCH_PR8.json"
    }
}

fn main() {
    let mut smoke = false;
    let mut xl = false;
    let mut out_path: Option<String> = None;
    let mut svc_out_path = "BENCH_SVC_SMOKE.json".to_string();
    let mut sim_max_n = DEFAULT_SIM_MAX_N;
    let mut child = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--xl" => xl = true,
            "--child" => child = true,
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--svc-out" => svc_out_path = args.next().unwrap_or_else(|| usage()),
            "--sim-max-n" => {
                sim_max_n = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    if smoke && xl {
        usage(); // the tiers are disjoint matrices
    }
    let out_path = out_path.unwrap_or_else(|| default_out_path(smoke, xl).into());
    if child {
        run_child(smoke, xl, sim_max_n);
    } else {
        run_parent(smoke, xl, &out_path, &svc_out_path, sim_max_n);
    }
}

/// The workload sizes: (label, n). Smoke mode is sized for CI seconds.
fn sizes(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![3_000]
    } else {
        vec![100_000, 1_000_000, 10_000_000]
    }
}

const FAMILIES: [&str; 4] = ["path", "grid", "powerlaw", "mixture"];

/// Workload names, cheap to enumerate; graphs are built one at a time by
/// [`family_graph`] and dropped before the next workload, so a 1e6 graph's
/// footprint never sits resident while an unrelated simulation runs
/// (keeping RSS flat keeps the measurements independent). Beyond 1e6 only
/// path and grid run — the diameter-stress shapes the 1e7 target names —
/// so the matrix grows where the live-work story is tested, not where
/// graph generation dominates.
fn workload_names(smoke: bool, xl: bool) -> Vec<(String, &'static str, usize)> {
    if xl {
        // The 1e8 tier: only the diameter-stress shapes, built out-of-core.
        return ["path", "grid"]
            .into_iter()
            .map(|family| (format!("{family}/{XL_N}"), family, XL_N))
            .collect();
    }
    let mut out = Vec::new();
    for n in sizes(smoke) {
        for family in FAMILIES {
            if n > 1_000_000 && !matches!(family, "path" | "grid") {
                continue;
            }
            out.push((format!("{family}/{n}"), family, n));
        }
    }
    out
}

/// Simulation telemetry attached to `theorem3_sim` rows.
struct SimCost {
    rounds: u64,
    work: u64,
    work_per_m_round: f64,
}

/// One measurement row, serialized as a JSON object. A median is only a
/// median with ≥ 3 reps; single-rep rows are labeled `ms` instead of
/// `median_ms` so the JSON never overstates its statistics.
#[derive(Default)]
struct Row {
    workload: String,
    n: usize,
    m: usize,
    algorithm: &'static str,
    threads: u64,
    reps: usize,
    ms: f64,
    sim: Option<SimCost>,
    /// Phase peak RSS (`VmHWM`, kB) — `graph_build` and `theorem3_sim`.
    peak_rss_kb: Option<u64>,
    /// Final CSR heap footprint — `graph_build` rows.
    csr_bytes: Option<usize>,
    /// Correctness flag — `builder_equivalence` rows (asserted before
    /// emission, so a written row is always `true`).
    verified: Option<bool>,
    /// Final `logdiam_obs` registry dump (the `docs/obs-schema.md` JSON
    /// object), embedded verbatim — `theorem3_sim_obs` guard rows.
    obs: Option<String>,
    /// Machine cell width in bits (always 32: narrow cells) — simulated
    /// rows.
    cell_width: Option<u32>,
    /// Edge runs sealed to spill files during the build, and bytes
    /// written to them (deltas of the process-wide spill counters across
    /// the build) — `graph_build` rows. Zero when spilling is off.
    spilled_runs: Option<u64>,
    spill_bytes: Option<u64>,
    /// The machine's arena backing allocation (cells + stamps) after the
    /// run — simulated rows; divide by `n` for the bytes-per-vertex budget
    /// line.
    arena_bytes: Option<u64>,
}

impl Row {
    fn to_json(&self) -> String {
        let field = if self.reps >= 3 { "median_ms" } else { "ms" };
        let sim = match &self.sim {
            Some(s) => format!(
                ",\"rounds\":{},\"work\":{},\"work_per_m_round\":{:.3}",
                s.rounds, s.work, s.work_per_m_round
            ),
            None => String::new(),
        };
        let peak = self
            .peak_rss_kb
            .map(|k| format!(",\"peak_rss_kb\":{k}"))
            .unwrap_or_default();
        let csr = self
            .csr_bytes
            .map(|b| format!(",\"csr_bytes\":{b}"))
            .unwrap_or_default();
        let verified = self
            .verified
            .map(|v| format!(",\"verified\":{v}"))
            .unwrap_or_default();
        let obs = self
            .obs
            .as_ref()
            .map(|o| format!(",\"obs\":{o}"))
            .unwrap_or_default();
        let cell = self
            .cell_width
            .map(|w| format!(",\"cell_width\":{w}"))
            .unwrap_or_default();
        let spill = match (self.spilled_runs, self.spill_bytes) {
            (Some(r), Some(b)) => format!(",\"spilled_runs\":{r},\"spill_bytes\":{b}"),
            _ => String::new(),
        };
        let arena = self
            .arena_bytes
            .map(|b| format!(",\"arena_bytes\":{b}"))
            .unwrap_or_default();
        format!(
            "{{\"workload\":\"{}\",\"n\":{},\"m\":{},\"algorithm\":\"{}\",\"threads\":{},\"reps\":{},\"{}\":{:.3}{}{}{}{}{}{}{}{}}}",
            self.workload, self.n, self.m, self.algorithm, self.threads, self.reps, field, self.ms,
            sim, peak, csr, verified, obs, cell, spill, arena
        )
    }
}

/// Reset the kernel's peak-RSS watermark (`VmHWM`) so the next
/// [`peak_rss_kb`] read covers only the phase between the two calls.
/// Best-effort: a kernel without `clear_refs` just yields whole-process
/// peaks (still monotone, never under-reported).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak RSS in kB since the last [`reset_peak_rss`] (`VmHWM` from
/// `/proc/self/status`). Panics if the field is unreadable: the memory
/// rows exist to carry it.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .expect("bench_report: VmHWM unreadable in /proc/self/status")
}

/// One child-level proof that the streaming chunked builder is
/// bit-identical to the reference sort+dedup build: a duplicate- and
/// self-loop-heavy pseudo-random stream goes through an [`EdgeRunStore`]
/// with a deliberately tiny run capacity (so run sealing and the k-way
/// parallel merge genuinely execute, at this child's thread count) and
/// through the obvious canonicalize+sort+dedup reference; the two
/// [`Graph`]s must compare equal (`Graph: Eq`, so edges, offsets, and
/// adjacency all match bit-for-bit). Asserted before the row is written,
/// so an emitted row always carries `"verified": true`.
fn builder_equivalence_row(threads: u64) -> Row {
    const N: usize = 50_000;
    const PUSHES: usize = 400_000;
    let mut rng = Rng::new(SEED ^ 0xB01D);
    let mut stream: Vec<(u32, u32)> = Vec::with_capacity(PUSHES);
    for _ in 0..PUSHES {
        let u = (rng.next_u64() % N as u64) as u32;
        // Half the pushes land in a 64-vertex hot set: heavy duplicates
        // (both orientations) and a steady rate of self-loops.
        let v = if rng.next_u64().is_multiple_of(2) {
            (rng.next_u64() % 64) as u32
        } else {
            (rng.next_u64() % N as u64) as u32
        };
        stream.push((u, v));
    }
    let t0 = std::time::Instant::now();
    let mut store = EdgeRunStore::with_run_capacity(Some(N as u32), 1 << 12);
    for &(u, v) in &stream {
        store.push(u, v);
    }
    let streamed = Graph::from_canonical_edges(N as u32, store.into_sorted_edges());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut reference: Vec<(u32, u32)> = stream
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    reference.sort_unstable();
    reference.dedup();
    let expected = Graph::from_canonical_edges(N as u32, reference);
    assert_eq!(
        streamed, expected,
        "streaming chunked builder diverged from the reference \
         sort+dedup build at {threads} thread(s)"
    );
    eprintln!("bench_report: builder_equivalence verified at {threads} thread(s)");
    Row {
        workload: format!("dirty_stream/{N}"),
        n: streamed.n(),
        m: streamed.m(),
        algorithm: "builder_equivalence",
        threads,
        reps: 1,
        ms,
        verified: Some(true),
        ..Row::default()
    }
}

/// Wall-clock median of `reps` runs, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let out = f();
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            drop(out);
            dt
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// One verified `faster_cc` run returning its charged-cost telemetry.
///
/// The machine comes from the caller and is reused across reps:
/// [`Pram::reset_for_run`] rewinds the step counter and live image while
/// keeping the arena's backing, free lists, and commit scratch, so
/// repeated reps replay bit-identically without re-mapping memory — the
/// cross-run reuse path the 1e8 tier depends on, measured here. The
/// driver's host-side buffers are sized by each run's renamed subproblem
/// and allocated afresh.
fn faster_run(pram: &mut Pram, g: &Graph, check: &impl Fn(&[u32])) -> SimCost {
    pram.reset_for_run();
    let report = faster_cc(pram, g, SEED, &FasterParams::default());
    check(&report.run.labels);
    let work = report.run.stats.work;
    let rounds = report.run.rounds.max(1);
    SimCost {
        rounds: report.run.rounds,
        work,
        work_per_m_round: work as f64 / (g.m().max(1) as f64 * rounds as f64),
    }
}

/// Child mode: run the matrix at this process's (env-pinned) thread count
/// and print one JSON object per line.
fn run_child(smoke: bool, xl: bool, sim_max_n: usize) {
    let threads = rayon::current_num_threads() as u64;
    let reps = if xl { 1 } else { 3 };
    let stdout = std::io::stdout();
    let emit = |row: Row| writeln!(stdout.lock(), "{}", row.to_json()).unwrap();
    emit(builder_equivalence_row(threads));
    for (name, family, size) in workload_names(smoke, xl) {
        // Build phase: reset the RSS watermark so `VmHWM` covers just the
        // streaming chunked build (generator → sealed runs → merge → CSR),
        // then check the memory contract against the finished footprint.
        // The spill-counter delta around the build records how much of it
        // ran out-of-core (the `--xl` parent pins `LOGDIAM_RUN_SPILL`).
        reset_peak_rss();
        let (spill_runs0, spill_bytes0) = spill_counters();
        let t0 = std::time::Instant::now();
        let g = family_graph(family, size, SEED);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (spill_runs1, spill_bytes1) = spill_counters();
        let build_peak = peak_rss_kb();
        let csr_bytes = g.heap_bytes();
        // Only meaningful when the CSR dominates the process baseline
        // (binary + rayon pool + allocator slack ≈ tens of MB): the 1e7
        // rows are the ones the contract is about.
        if csr_bytes >= 100 * 1024 * 1024 {
            assert!(
                build_peak.saturating_mul(1024) <= 2 * csr_bytes as u64,
                "streaming-build memory contract violated on {name}: \
                 build peak RSS {build_peak} kB exceeds 2x the final CSR \
                 footprint ({csr_bytes} bytes)"
            );
        }
        let truth = components(&g);
        let check = |labels: &[u32]| {
            assert!(
                same_partition(labels, &truth),
                "bench_report: {name} produced wrong labels"
            )
        };
        let row = |algorithm: &'static str, reps: usize, ms: f64, sim: Option<SimCost>| {
            eprintln!("bench_report: [{name}] {algorithm}: done");
            Row {
                workload: name.clone(),
                n: g.n(),
                m: g.m(),
                algorithm,
                threads,
                reps,
                ms,
                sim,
                ..Row::default()
            }
        };
        emit(Row {
            peak_rss_kb: Some(build_peak),
            csr_bytes: Some(csr_bytes),
            spilled_runs: Some(spill_runs1 - spill_runs0),
            spill_bytes: Some(spill_bytes1 - spill_bytes0),
            ..row("graph_build", 1, build_ms, None)
        });
        // The xl tier simulates path only (the d ≈ n shape the paper's
        // bound is about): the whole point of the compact image is that
        // 1e8 vertices of simulated memory fit the 2^32-word address
        // space, and 8 bytes of backing per word make that affordable.
        let run_sim = if xl {
            family == "path"
        } else {
            g.n() <= sim_max_n
        };
        if run_sim {
            // A simulated rep is deterministic in its seed but minutes long
            // at 1e6+; repeat only where the live-work scheduler makes reps
            // cheap, and label the single-rep case honestly (see Row).
            let sim_reps = if g.n() <= SIM_MEDIAN_MAX_N { reps } else { 1 };
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(SEED));
            let mut cost = None;
            reset_peak_rss();
            let ms = time_ms(sim_reps, || {
                // Identical seed per rep → identical charged cost; keep the
                // last rep's telemetry.
                cost = Some(faster_run(&mut pram, &g, &check));
            });
            let sim_peak = peak_rss_kb();
            emit(Row {
                peak_rss_kb: Some(sim_peak),
                cell_width: Some(32),
                arena_bytes: Some(pram.arena_backing_bytes() as u64),
                ..row("theorem3_sim", sim_reps, ms, cost)
            });
        } else if !xl {
            eprintln!(
                "bench_report: skipping theorem3_sim on {name} \
                 (n {size} > configured sim-max-n limit {sim_max_n}; \
                 raise with --sim-max-n N to simulate larger inputs)"
            );
        }
        if g.n() > PAR_MAX_N {
            eprintln!(
                "bench_report: skipping practical rows on {name} \
                 (n {size} > practical-tier limit {PAR_MAX_N})"
            );
            continue;
        }
        emit(row(
            "pram_step",
            reps,
            time_ms(reps, || pram_step_workload(g.n())),
            None,
        ));
        emit(row(
            "labelprop",
            reps,
            time_ms(reps, || check(&labelprop_cc(&g))),
            None,
        ));
        emit(row(
            "unionfind",
            reps,
            time_ms(reps, || check(&unionfind_cc(&g))),
            None,
        ));
        emit(row("sv", reps, time_ms(reps, || check(&sv_cc(&g))), None));
        emit(row(
            "contract",
            reps,
            time_ms(reps, || check(&contract_cc(&g))),
            None,
        ));
    }
    if smoke {
        // Wall-clock guards: diameter-heavy simulations under hard caps,
        // one per live-scheduled driver family.
        let g = gen::path(GUARD_N);
        let truth = components(&g);
        let check = |labels: &[u32]| {
            assert!(
                same_partition(labels, &truth),
                "bench_report: guard workload produced wrong labels"
            )
        };
        let guard_row = |algorithm: &'static str, ms: f64, sim: Option<SimCost>| Row {
            workload: format!("path/{GUARD_N}"),
            n: g.n(),
            m: g.m(),
            algorithm,
            threads,
            reps,
            ms,
            sim,
            ..Row::default()
        };

        let mut guard_pram = Pram::new(WritePolicy::ArbitrarySeeded(SEED));
        let mut cost = None;
        let ms = time_ms(reps, || {
            cost = Some(faster_run(&mut guard_pram, &g, &check));
        });
        assert!(
            ms < GUARD_CAP_MS,
            "wall-clock guard tripped: theorem3_sim on path/{GUARD_N} took {ms:.0} ms \
             (cap {GUARD_CAP_MS:.0} ms) — per-round cost is no longer tracking live work"
        );
        emit(guard_row("theorem3_sim", ms, cost));

        // Observability-overhead guard: the same workload, re-measured
        // with full registry recording — spans enabled, per-round events
        // and `sim_`/`run_` gauges via `RunReport::record_into`, the
        // machine's per-step host-time counters (`sim_step_run_ns`,
        // `sim_commit_ns`), plus a per-round charged-work histogram. The
        // plain guard run above is the spans-off baseline; recording must
        // cost ≤ 5% of it (plus [`OBS_GUARD_SLACK_MS`] of scheduler
        // noise). The row embeds the final registry dump, checked here
        // before the row is emitted.
        let off_ms = ms;
        let reg = Arc::new(Registry::new());
        reg.set_spans_enabled(true);
        let round_work = reg.histogram("sim_round_work");
        let on_ms = time_ms(reps, || {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(SEED));
            pram.set_obs_registry(reg.clone());
            let report = faster_cc(&mut pram, &g, SEED, &FasterParams::default());
            check(&report.run.labels);
            report.run.record_into(&reg);
            for m in &report.run.per_round {
                round_work.observe(m.work);
            }
        });
        assert!(
            on_ms <= off_ms * 1.05 + OBS_GUARD_SLACK_MS,
            "observability overhead guard tripped: theorem3_sim on path/{GUARD_N} \
             took {on_ms:.0} ms with registry recording vs {off_ms:.0} ms without \
             (allowed: 5% + {OBS_GUARD_SLACK_MS:.0} ms slack)"
        );
        let dump = reg.snapshot();
        check_obs_dump(&dump, "theorem3_sim_obs");
        for counter in ["runs_total", "sim_step_run_ns", "sim_commit_ns"] {
            assert!(
                dump.counters.get(counter).is_some_and(|&v| v > 0),
                "theorem3_sim_obs: registry recorded no {counter}"
            );
        }
        assert!(
            dump.histograms["sim_round_work"].count > 0,
            "theorem3_sim_obs: registry recorded no per-round work"
        );
        emit(Row {
            obs: Some(dump.to_json()),
            ..guard_row("theorem3_sim_obs", on_ms, None)
        });

        let ms = time_ms(reps, || {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(SEED));
            let report = connected_components(&mut pram, &g, SEED, &Theorem1Params::default());
            check(&report.labels);
        });
        assert!(
            ms < GUARD_T1_CAP_MS,
            "wall-clock guard tripped: theorem1_sim on path/{GUARD_N} took {ms:.0} ms \
             (cap {GUARD_T1_CAP_MS:.0} ms) — per-phase cost is no longer tracking live work"
        );
        emit(guard_row("theorem1_sim", ms, None));

        let ms = time_ms(reps, || {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(SEED));
            let report = spanning_forest(&mut pram, &g, SEED, &Theorem1Params::default());
            check(&report.labels);
        });
        assert!(
            ms < GUARD_T2_CAP_MS,
            "wall-clock guard tripped: theorem2_sim on path/{GUARD_N} took {ms:.0} ms \
             (cap {GUARD_T2_CAP_MS:.0} ms) — per-phase cost is no longer tracking live work"
        );
        emit(guard_row("theorem2_sim", ms, None));
    }
}

/// Parent mode: one child process per thread count, merged into the JSON
/// report.
fn run_parent(smoke: bool, xl: bool, out_path: &str, svc_out_path: &str, sim_max_n: usize) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1];
    if cores > 1 {
        thread_counts.push(cores);
    }
    // The xl tier builds out-of-core: pin a spill directory for the
    // children unless the caller already chose one via the environment.
    let spill_dir = xl.then(|| {
        std::env::var(cc_graph::runs::RUN_SPILL_ENV)
            .unwrap_or_else(|_| std::env::temp_dir().to_string_lossy().into_owned())
    });
    let exe = std::env::current_exe().expect("cannot locate own binary");
    let mut rows: Vec<String> = Vec::new();
    for &t in &thread_counts {
        eprintln!("bench_report: measuring at {t} thread(s)...");
        let mut cmd = Command::new(&exe);
        cmd.arg("--child")
            .args(["--sim-max-n", &sim_max_n.to_string()])
            .env("RAYON_NUM_THREADS", t.to_string());
        if smoke {
            cmd.arg("--smoke");
        }
        if xl {
            cmd.arg("--xl");
        }
        if let Some(dir) = &spill_dir {
            cmd.env(cc_graph::runs::RUN_SPILL_ENV, dir);
        }
        // Child stderr (per-workload progress + skip logs) streams through
        // live; only stdout (the JSON rows) is captured.
        cmd.stderr(std::process::Stdio::inherit());
        let out = cmd.output().expect("failed to spawn child bench process");
        if !out.status.success() {
            panic!("bench_report child at {t} threads failed: {}", out.status);
        }
        rows.extend(
            String::from_utf8(out.stdout)
                .expect("child emitted invalid UTF-8")
                .lines()
                .map(str::to_string),
        );
    }
    let json = format!(
        "{{\n  \"report\": \"logdiam perf baseline\",\n  \"emitter\": \"bench_report\",\n  \"smoke\": {smoke},\n  \"xl\": {xl},\n  \"host_cores\": {cores},\n  \"sim_max_n\": {sim_max_n},\n  \"thread_counts\": {thread_counts:?},\n  \"measurements\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    std::fs::write(out_path, &json).expect("cannot write report");
    eprintln!(
        "bench_report: wrote {} measurements to {out_path}",
        rows.len()
    );
    if smoke {
        run_smoke("bench_report --smoke", svc_out_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_row(reps: usize) -> Row {
        Row {
            workload: "path/8".into(),
            n: 8,
            m: 7,
            algorithm: "theorem3_sim",
            threads: 1,
            reps,
            ms: 1.5,
            sim: Some(SimCost {
                rounds: 3,
                work: 42,
                work_per_m_round: 2.0,
            }),
            peak_rss_kb: Some(100),
            ..Row::default()
        }
    }

    #[test]
    fn row_json_claims_a_median_only_with_three_reps() {
        for reps in 1..=4 {
            let json = sim_row(reps).to_json();
            assert_eq!(json.contains("\"median_ms\":1.500"), reps >= 3, "{json}");
            assert_eq!(json.contains("\"ms\":1.500"), reps < 3, "{json}");
            for field in [
                "\"rounds\":3",
                "\"work\":42",
                "\"work_per_m_round\":2.000",
                "\"peak_rss_kb\":100",
            ] {
                assert!(json.contains(field), "{field} missing from {json}");
            }
        }
        // The smoke matrix stays where theorem3_sim takes 3 reps, so every
        // smoke theorem3_sim row carries a real median.
        assert!(sizes(true).iter().all(|&n| n <= SIM_MEDIAN_MAX_N));
    }

    #[test]
    fn only_the_full_matrix_defaults_to_the_committed_baseline() {
        assert_eq!(default_out_path(true, false), "BENCH_SMOKE.json");
        assert_eq!(default_out_path(false, true), "BENCH_PR10.json");
        assert_eq!(default_out_path(false, false), "BENCH_PR8.json");
    }
}
