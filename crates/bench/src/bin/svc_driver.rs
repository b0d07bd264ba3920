//! `svc_driver` — run connectivity-service traces and write `BENCH_SVC.json`.
//!
//! Each row is one trace of the runner in `logdiam_bench::svc`: writer
//! threads enqueue a deterministic batched write stream (each keeping
//! `--window` tickets outstanding) while reader threads query Zipfian
//! endpoints, and the row records enqueue, commit and query latency. Every
//! row is checked before it is written (`TraceRow::check`): the final
//! partition equals a from-scratch recompute, the enqueue p50 is within
//! budget, the per-stage commit histograms explain the commit span, and
//! the registry counted every commit. The run aborts on the first
//! violation.
//!
//! Usage:
//!
//! ```text
//! svc_driver [--smoke] [--durable DIR] [--fsync always|batch[=N]|off]
//!            [--out PATH] [--family F]... [--n N] [--batches N] [--batch N]
//!            [--zipf S] [--seed S] [--rebuild-threshold N]
//!            [--writers W] [--readers R] [--queue Q] [--window K]
//! ```
//!
//! With no flags the full matrix runs in memory: path/grid/powerlaw/mixture
//! at n = 1e5, 160 batches of 128 edges, 4 writers (window 32) against 4
//! readers, Zipf 1.0. `--writers 1 --window 1` times the synchronous
//! commit; `--readers 0` runs the writers alone.
//!
//! `--durable DIR` makes every row durable: stores are created under `DIR`
//! (one subdirectory per row, wiped first), the write stream commits
//! through the WAL under `--fsync` (all three policies when the flag is
//! omitted), and after the trace the store is reopened cold and checked
//! again — it must be at exactly the committed epoch with the same
//! partition. Durable rows add WAL and snapshot footprint and reopen time.
//!
//! `--smoke` runs the CI-sized smoke instead (one shape, in memory and
//! under each fsync policy, each row under a 5 s cap) and writes
//! `BENCH_SVC_SMOKE.json` by default.

use logdiam_bench::svc::{run_checked, run_smoke, write_report, TraceConfig, FSYNC_SWEEP};
use logdiam_svc::FsyncPolicy;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: svc_driver [--smoke] [--durable DIR] [--fsync always|batch[=N]|off] \
         [--out PATH] [--family F]... [--n N] [--batches N] [--batch N] \
         [--zipf S] [--seed S] [--rebuild-threshold N] \
         [--writers W] [--readers R] [--queue Q] [--window K]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(s: String) -> T {
    s.parse().unwrap_or_else(|_| usage())
}

fn main() {
    let mut smoke = false;
    let mut durable_dir: Option<PathBuf> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut out_path: Option<String> = None;
    let mut families: Vec<String> = Vec::new();
    let mut shape = TraceConfig::full("mixture", 100_000);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("svc_driver: {a} needs a {what}");
                usage()
            })
        };
        match a.as_str() {
            "--smoke" => smoke = true,
            "--durable" => durable_dir = Some(PathBuf::from(next("directory"))),
            "--fsync" => {
                fsync = Some(FsyncPolicy::parse(&next("policy")).unwrap_or_else(|| usage()))
            }
            "--out" => out_path = Some(next("path")),
            "--family" => families.push(next("family name")),
            "--n" => shape.n = parse(next("number")),
            "--batches" => shape.batches = parse(next("number")),
            "--batch" => shape.batch = parse(next("number")),
            "--zipf" => shape.zipf_s = parse(next("exponent")),
            "--seed" => shape.seed = parse(next("seed")),
            "--rebuild-threshold" => shape.rebuild_threshold = parse(next("number")),
            "--writers" => shape.writers = parse(next("number")),
            "--readers" => shape.readers = parse(next("number")),
            "--queue" => shape.command_queue = parse(next("number")),
            "--window" => shape.window = parse(next("number")),
            _ => usage(),
        }
    }
    if fsync.is_some() && durable_dir.is_none() {
        eprintln!("svc_driver: --fsync needs --durable DIR");
        usage();
    }

    if smoke {
        run_smoke(
            "svc_driver --smoke",
            out_path.as_deref().unwrap_or("BENCH_SVC_SMOKE.json"),
        );
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_SVC.json".to_string());
    if families.is_empty() {
        families = ["path", "grid", "powerlaw", "mixture"]
            .map(String::from)
            .to_vec();
    }
    let policies: Vec<Option<FsyncPolicy>> = match (&durable_dir, fsync) {
        (None, _) => vec![None],
        (Some(_), Some(p)) => vec![Some(p)],
        (Some(_), None) => FSYNC_SWEEP.map(Some).to_vec(),
    };
    // An in-memory trace never touches its store root.
    let root = durable_dir.unwrap_or_default();

    let mut rows = Vec::new();
    for family in &families {
        for &fsync in &policies {
            let cfg = TraceConfig {
                family: family.clone(),
                fsync,
                ..shape.clone()
            };
            rows.push(run_checked("svc_driver", &cfg, &root, None));
        }
    }
    write_report(&out_path, "svc_driver", false, &rows);
    eprintln!(
        "svc_driver: wrote {} measurements to {out_path}",
        rows.len()
    );
}
