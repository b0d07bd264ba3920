//! Experiment driver: regenerates every table/figure of the suite in
//! `crates/bench/src/experiments/mod.rs`.
//!
//! ```text
//! cargo run -p logdiam-bench --release --bin experiments -- all
//! cargo run -p logdiam-bench --release --bin experiments -- e1 e7 --full
//! ```

use logdiam_bench::{experiments, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config::default();
    let mut ids: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--full" => cfg.full = true,
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other if other.starts_with("--seed=") => {
                cfg.seed = other["--seed=".len()..].parse().expect("bad seed");
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [all | e1..e12]... [--full] [--seed=N]\n\
             available: {:?}",
            experiments::ALL
        );
        std::process::exit(2);
    }
    ids.dedup();
    for id in &ids {
        let t0 = std::time::Instant::now();
        let tables = experiments::run(id, &cfg);
        for t in &tables {
            print!("{}", t.markdown());
        }
        eprintln!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
