//! Ad-hoc probe: per-round live/table/work telemetry of a Theorem-3 run
//! on a path graph (straggler-tail diagnosis) or a preferential-attachment
//! graph, emitted as structured telemetry events.
//!
//! Every record is a `logdiam_obs` event — the per-round rows come
//! straight from [`RoundMetrics::to_event`], the summary from
//! [`RunReport::to_event`] plus probe-specific events — printed to stdout
//! as JSON lines (the `docs/obs-schema.md` contract; pipe into `jq` or a
//! file). Pass `--human` for the aligned `name key=value` rendering of
//! the *same* records on stderr; there is no second hand-rolled format.
//!
//! `work` is the round's charged step work; `compaction_work` the charged
//! work of the round's two live-index rebuilds (the Lemma-D.2
//! compaction), reported separately so the controller's own bookkeeping
//! cost is visible. On a healthy run every column decays with the live
//! subproblem — no column may flatline at a value scaling with n.
//!
//! The `arena` event (peak/live words, backing bytes) is how the
//! memory-per-vertex budget for the 1e8 tier was measured; the
//! `host_time` event splits the machine's host time between running
//! step closures and committing their writes (the `sim_step_run_ns` /
//! `sim_commit_ns` counters of an attached registry).
//!
//! Usage: `t3_probe [n] [path|powerlaw] [--human] [--all-rounds]`
//!
//! `path` (the default) is `gen::path(n)`; `powerlaw` is
//! `gen::preferential_attachment(n, 4, seed)`, the graph of perfbench's
//! `sim-powerlaw` workload (m/n = 4).
//!
//! [`RoundMetrics::to_event`]: logdiam_cc::metrics::RoundMetrics::to_event
//! [`RunReport::to_event`]: logdiam_cc::metrics::RunReport::to_event

use cc_graph::gen;
use logdiam_cc::theorem3::{faster_cc, FasterParams};
use logdiam_obs::{Event, Registry};
use pram_sim::{Pram, WritePolicy};
use std::sync::Arc;

/// The seed of the machine and of the `powerlaw` graph.
const SEED: u64 = 0xBEEF_CAFE;

fn main() {
    let mut n: usize = 200_000;
    let mut powerlaw = false;
    let mut human = false;
    let mut all_rounds = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--human" => human = true,
            "--all-rounds" => all_rounds = true,
            "path" => powerlaw = false,
            "powerlaw" => powerlaw = true,
            other => match other.parse() {
                Ok(v) => n = v,
                Err(_) => {
                    eprintln!("usage: t3_probe [n] [path|powerlaw] [--human] [--all-rounds]");
                    std::process::exit(2);
                }
            },
        }
    }

    // Collect everything through one registry so events carry ordered
    // sequence numbers and a common timestamp base; the machine feeds its
    // host-time counters into it.
    let reg = Arc::new(Registry::new());
    let g = if powerlaw {
        gen::preferential_attachment(n, 4, SEED)
    } else {
        gen::path(n)
    };
    let t0 = std::time::Instant::now();
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(SEED));
    pram.set_obs_registry(reg.clone());
    let r = faster_cc(&mut pram, &g, SEED, &FasterParams::default());
    let wall = t0.elapsed();

    for m in &r.run.per_round {
        // Default: the interesting prefix/suffix plus every 5th round.
        if all_rounds || m.round % 5 == 0 || m.round <= 3 || m.round + 3 >= r.run.rounds {
            reg.event(m.to_event());
        }
    }
    reg.event(r.run.to_event());
    reg.event(
        Event::new("postprocess")
            .with("phases", r.post.rounds)
            .with("stop", r.post.stop.as_str()),
    );
    let main_work: u64 = r.run.per_round.iter().map(|m| m.work).sum();
    let compact_work: u64 = r.run.per_round.iter().map(|m| m.compaction_work).sum();
    reg.event(
        Event::new("work_breakdown")
            .with("total", r.run.stats.work)
            .with("rounds_step", main_work)
            .with("compaction", compact_work)
            .with("postprocess", r.post_work)
            .with(
                "startup",
                r.run.stats.work - main_work - compact_work - r.post_work,
            ),
    );
    // Arena footprint: peak/live simulated words and the actual backing
    // allocation. peak_words × (bytes/word) is the budget line for
    // raising n — 1e8 must stay under the 2^32-word address cap.
    let stats = pram.stats();
    reg.event(
        Event::new("arena")
            .with("cell_width", 32u64)
            .with("peak_words", stats.peak_words)
            .with("live_words", stats.live_words)
            .with("backing_bytes", pram.arena_backing_bytes() as u64),
    );
    let counters = reg.snapshot().counters;
    reg.event(
        Event::new("host_time")
            .with("step_run_ns", counters["sim_step_run_ns"])
            .with("commit_ns", counters["sim_commit_ns"]),
    );
    reg.event(
        Event::new("probe_done")
            .with("n", n)
            .with("table_peak_words", r.table_peak_words)
            .with("wall_ms", wall.as_millis() as u64),
    );

    for e in reg.drain_events() {
        println!("{}", e.to_json_line());
        if human {
            eprintln!("{}", e.render_human());
        }
    }
}
