//! `perfbench`: run one workload and print its result line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-path --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; failure notes go to
//! standard error. A bad command line exits with code 2 and no result.

use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::{layers, Args, USAGE, WORKDIR};
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.one_thread {
        println!("{}", layers::one_thread_child(&args));
        return;
    }
    // Service registries read the spans switch when they are created; set
    // it before any thread starts.
    std::env::set_var("LOGDIAM_OBS_SPANS", if args.trace { "1" } else { "0" });
    let table: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let cx = match perfbench::run(args, Path::new(WORKDIR)) {
        Ok(cx) => cx,
        Err(e) => {
            eprintln!("benchmark i/o failed: {e}");
            std::process::exit(1);
        }
    };
    for note in &cx.tally.notes {
        eprintln!("FAILED: {note}");
    }
    println!(
        "{}",
        result_line(cx.tally.attempted, cx.tally.failed, table, &cx.values)
    );
}
