//! `svc_driver` — replay request traces against the connectivity service.
//!
//! The service-scenario counterpart of `bench_report`: synthesizes a
//! deterministic request trace per workload family (batched edge writes
//! mixed with Zipfian-endpoint connectivity queries, ≥90% reads by
//! default), replays it end-to-end through `logdiam_svc::
//! ConnectivityService`, and writes throughput plus query/batch latency
//! percentiles to `BENCH_PR4.json`. Every row is verified: the maintained
//! partition after the last commit must equal a from-scratch recompute on
//! the accumulated graph, and the run aborts if it doesn't.
//!
//! Usage:
//!
//! ```text
//! svc_driver [--smoke] [--mt] [--durable DIR] [--fsync always|batch[=N]|off]
//!            [--out PATH] [--family F]... [--n N] [--ops N]
//!            [--read-frac F] [--batch N] [--zipf S] [--seed S]
//!            [--rebuild-threshold N]
//!            [--writers W] [--readers R] [--shards S] [--queue Q] [--window K]
//! ```
//!
//! With no flags the full matrix runs: path/grid/powerlaw/mixture at
//! n = 1e5, 200k ops, 90% reads, batch 128, Zipf 1.0. `--smoke` replays
//! the CI-sized mixture trace instead (same schema, seconds not minutes).
//!
//! `--mt` switches to the PR 6 contended scenario: `--writers` threads
//! enqueue the batched write stream concurrently (each keeping `--window`
//! tickets outstanding) while `--readers` threads hammer `query_latest`,
//! and the report — `BENCH_PR6.json` by default — records enqueue vs
//! commit latency and query latency under contention. Each row asserts
//! `verified`, the enqueue budget (p50 < 1/10 of the PR 4 synchronous
//! batch p50), and that the per-stage histograms explain the commit span.
//!
//! `--durable DIR` switches to the PR 7 durability scenario: stores are
//! created under `DIR` (one subdirectory per row, wiped first), the write
//! stream commits through the WAL under `--fsync {always,batch[=N],off}`
//! (all three policies when the flag is omitted), and the report —
//! `BENCH_PR7.json` by default — records commit latency, WAL/snapshot
//! footprint, and cold-reopen time. Each row asserts `verified`: the live
//! and the recovered partitions must both match a from-scratch recompute.

use logdiam_bench::svc::{report_json, run_smoke, run_trace, TraceConfig};
use logdiam_bench::svc_durable::{
    durable_report_json, run_durable_smoke, run_durable_trace, DurableConfig,
};
use logdiam_bench::svc_mt::{mt_report_json, run_mt_smoke, run_mt_trace, MtConfig};
use logdiam_svc::FsyncPolicy;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: svc_driver [--smoke] [--mt] [--durable DIR] [--fsync always|batch[=N]|off] \
         [--out PATH] [--family F]... [--n N] [--ops N] \
         [--read-frac F] [--batch N] [--zipf S] [--seed S] [--rebuild-threshold N] \
         [--writers W] [--readers R] [--shards S] [--queue Q] [--window K]"
    );
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut mt = false;
    let mut durable_dir: Option<PathBuf> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut out_path: Option<String> = None;
    let mut families: Vec<String> = Vec::new();
    let mut overrides = TraceConfig::full("mixture", 100_000);
    let mut mt_shape = MtConfig::full("mixture", 100_000);
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
            "--mt" => mt = true,
            "--durable" => durable_dir = Some(PathBuf::from(next("directory"))),
            "--fsync" => {
                fsync = Some(FsyncPolicy::parse(&next("policy")).unwrap_or_else(|| usage()))
            }
            "--out" => out_path = Some(next("path")),
            "--writers" => mt_shape.writers = next("number").parse().unwrap_or_else(|_| usage()),
            "--readers" => mt_shape.readers = next("number").parse().unwrap_or_else(|_| usage()),
            "--shards" => mt_shape.shard_count = next("number").parse().unwrap_or_else(|_| usage()),
            "--queue" => {
                mt_shape.command_queue = next("number").parse().unwrap_or_else(|_| usage())
            }
            "--window" => mt_shape.window = next("number").parse().unwrap_or_else(|_| usage()),
            "--family" => families.push(next("family name")),
            "--n" => overrides.n = next("number").parse().unwrap_or_else(|_| usage()),
            "--ops" => overrides.ops = next("number").parse().unwrap_or_else(|_| usage()),
            "--read-frac" => {
                overrides.read_frac = next("fraction").parse().unwrap_or_else(|_| usage())
            }
            "--batch" => overrides.batch = next("number").parse().unwrap_or_else(|_| usage()),
            "--zipf" => overrides.zipf_s = next("exponent").parse().unwrap_or_else(|_| usage()),
            "--seed" => overrides.seed = next("seed").parse().unwrap_or_else(|_| usage()),
            "--rebuild-threshold" => {
                overrides.rebuild_threshold = next("number").parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }

    let out_path = out_path.unwrap_or_else(|| {
        if durable_dir.is_some() {
            "BENCH_PR7.json"
        } else if mt {
            "BENCH_PR6.json"
        } else {
            "BENCH_PR4.json"
        }
        .to_string()
    });

    if smoke {
        if let Some(_dir) = durable_dir {
            // The smoke owns its scratch stores; DIR only marks the mode.
            run_durable_smoke("svc_driver --durable --smoke", &out_path);
        } else if mt {
            run_mt_smoke("svc_driver --mt --smoke", &out_path);
        } else {
            run_smoke("svc_driver --smoke", &out_path);
        }
        return;
    }

    if families.is_empty() {
        families = ["path", "grid", "powerlaw", "mixture"]
            .map(String::from)
            .to_vec();
    }

    if let Some(root) = durable_dir {
        let policies: Vec<FsyncPolicy> = match fsync {
            Some(p) => vec![p],
            None => vec![FsyncPolicy::Always, FsyncPolicy::Batch(8), FsyncPolicy::Off],
        };
        let mut outcomes = Vec::new();
        for family in &families {
            for &policy in &policies {
                let mut cfg = DurableConfig::full(family, overrides.n, policy);
                cfg.batch = overrides.batch;
                cfg.rebuild_threshold = overrides.rebuild_threshold;
                cfg.seed = overrides.seed;
                eprintln!(
                    "svc_driver --durable: {}/{} × {} batches under fsync={policy}...",
                    cfg.family, cfg.n, cfg.batches
                );
                let dir = root.join(format!("{family}-{policy}"));
                let _ = std::fs::remove_dir_all(&dir);
                let out = run_durable_trace(&cfg, &dir);
                assert!(
                    out.verified,
                    "svc_driver --durable: {} under fsync={}: recovery diverged \
                     from one-shot recompute (epoch {})",
                    out.workload, out.fsync, out.recovered_epoch
                );
                eprintln!(
                    "svc_driver --durable: [{} fsync={}] commit p50/p99 {:.1}/{:.1} µs, \
                     {:.0} commits/s, wal {} B, {} snapshots, reopen {:.1} ms, verified",
                    out.workload,
                    out.fsync,
                    out.commit_p50_us,
                    out.commit_p99_us,
                    out.commits_per_s,
                    out.wal_bytes,
                    out.snapshots,
                    out.reopen_ms
                );
                outcomes.push(out);
            }
        }
        std::fs::write(
            &out_path,
            durable_report_json("svc_driver --durable", false, &outcomes),
        )
        .expect("cannot write report");
        eprintln!(
            "svc_driver --durable: wrote {} measurements to {out_path}",
            outcomes.len()
        );
        return;
    }

    if mt {
        let mut outcomes = Vec::new();
        for family in &families {
            let cfg = MtConfig {
                trace: TraceConfig {
                    family: family.clone(),
                    ..overrides.clone()
                },
                ..mt_shape.clone()
            };
            eprintln!(
                "svc_driver --mt: {}/{} with {} writers × {} readers \
                 (batch {}, shards {}, window {})...",
                cfg.trace.family,
                cfg.trace.n,
                cfg.writers,
                cfg.readers,
                cfg.trace.batch,
                cfg.shard_count,
                cfg.window
            );
            let out = run_mt_trace(&cfg);
            assert!(
                out.verified,
                "svc_driver --mt: {}: maintained partition diverged from one-shot recompute",
                out.workload
            );
            assert!(
                out.enqueue_ok,
                "svc_driver --mt: {}: enqueue p50 {:.1} µs blew the budget",
                out.workload, out.enqueue_p50_us
            );
            assert!(
                out.pipeline_sum_ok,
                "svc_driver --mt: {}: per-stage histograms do not explain the commit \
                 span (stage p50 sum {:.1} µs vs span p50 {:.1} µs, coverage {:.2})",
                out.workload,
                out.pipeline_p50_sum_us,
                out.commit_span_p50_us,
                out.pipeline_coverage
            );
            eprintln!(
                "svc_driver --mt: [{}] enqueue p50/p99 {:.1}/{:.1} µs, commit p50/p99 \
                 {:.0}/{:.0} µs, query p50/p99 {:.1}/{:.1} µs, {} rebuilds, verified",
                out.workload,
                out.enqueue_p50_us,
                out.enqueue_p99_us,
                out.commit_p50_us,
                out.commit_p99_us,
                out.query_p50_us,
                out.query_p99_us,
                out.rebuilds
            );
            outcomes.push(out);
        }
        std::fs::write(
            &out_path,
            mt_report_json("svc_driver --mt", false, &outcomes),
        )
        .expect("cannot write report");
        eprintln!(
            "svc_driver --mt: wrote {} measurements to {out_path}",
            outcomes.len()
        );
        return;
    }

    let mut outcomes = Vec::new();
    for family in &families {
        let cfg = TraceConfig {
            family: family.clone(),
            ..overrides.clone()
        };
        eprintln!(
            "svc_driver: replaying {}/{} ({} ops, {:.0}% reads, batch {}, zipf {:.2})...",
            cfg.family,
            cfg.n,
            cfg.ops,
            cfg.read_frac * 100.0,
            cfg.batch,
            cfg.zipf_s
        );
        let out = run_trace(&cfg);
        assert!(
            out.verified,
            "svc_driver: {}: maintained partition diverged from one-shot recompute",
            out.workload
        );
        eprintln!(
            "svc_driver: [{}] {:.0} ops/s end-to-end, query p50/p99 {:.1}/{:.1} µs, \
             batch p50/p99 {:.0}/{:.0} µs, {} rebuilds, {} components, verified",
            out.workload,
            out.ops_per_s,
            out.query_p50_us,
            out.query_p99_us,
            out.batch_p50_us,
            out.batch_p99_us,
            out.rebuilds,
            out.components
        );
        outcomes.push(out);
    }
    std::fs::write(&out_path, report_json("svc_driver", false, &outcomes))
        .expect("cannot write report");
    eprintln!(
        "svc_driver: wrote {} measurements to {out_path}",
        outcomes.len()
    );
}
