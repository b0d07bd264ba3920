//! Experiment driver: regenerates every table/figure of the suite in
//! `crates/bench/src/experiments/mod.rs`.
//!
//! ```text
//! cargo run -p logdiam-bench --release --bin experiments -- all
//! cargo run -p logdiam-bench --release --bin experiments -- e1 e7 --full
//! ```
//!
//! Every argument is checked before any experiment runs: an unknown id or
//! a malformed seed prints the usage and exits with code 2.

use logdiam_bench::{experiments, Config};

fn usage() -> ! {
    eprintln!(
        "usage: experiments [all | e1..e14]... [--full] [--seed=N]\n\
         available: {:?}",
        experiments::ALL
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = Config::default();
    let mut ids: Vec<&str> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--full" => cfg.full = true,
            "all" => ids.extend(experiments::ALL),
            other => {
                if let Some(seed) = other.strip_prefix("--seed=") {
                    cfg.seed = seed.parse().unwrap_or_else(|_| {
                        eprintln!("experiments: bad seed {seed:?}");
                        usage()
                    });
                } else if let Some(&id) = experiments::ALL.iter().find(|&&id| id == other) {
                    ids.push(id);
                } else {
                    eprintln!("experiments: unknown argument {other:?}");
                    usage()
                }
            }
        }
    }
    if ids.is_empty() {
        usage();
    }
    ids.dedup();
    for id in ids {
        let t0 = std::time::Instant::now();
        let tables = experiments::run(id, &cfg);
        for t in &tables {
            print!("{}", t.markdown());
        }
        eprintln!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
