//! # perfbench — one benchmark for the logdiam workspace
//!
//! Runs one named workload from a seed, checks every answer, and reports
//! end-to-end metrics (untraced run) or per-layer metrics (traced run) as
//! one JSON line; see `README.md` next to this crate. Every layer is driven
//! through its default public entry points only: `Pram::new`,
//! `FasterParams::default()`, `SvcParams::default()`, `GraphBuilder`, and the
//! `logdiam-par` one-shot functions.

#![warn(missing_docs)]

pub mod check;
pub mod input;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod oneshot;
pub mod svc;
pub mod trace;

use check::Tally;
use input::{Size, Workload};
use metrics::Values;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input scale (`full` unless a test asks for `tiny`).
    pub size: Size,
    /// Internal: the 1-thread rerun the traced run spawns.
    pub one_thread: bool,
}

/// Usage text for a bad command line.
pub const USAGE: &str =
    "usage: perfbench --workload <sim-path|sim-powerlaw|practical-grid|svc-mixture> \
--seed <u64> --seconds <s> --trace <0|1> [--size full|tiny]";

impl Args {
    /// Parse `--key value` pairs (everything after the program name).
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut size = Size::Full;
        let mut one_thread = false;
        let mut it = args.iter();
        while let Some(key) = it.next() {
            if key == "--one-thread" {
                one_thread = true;
                continue;
            }
            let val = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            let bad = || format!("bad value {val:?} for {key}");
            match key.as_str() {
                "--workload" => workload = Some(Workload::parse(val).ok_or_else(bad)?),
                "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = val.parse::<f64>().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--size" => size = Size::parse(val).ok_or_else(bad)?,
                _ => return Err(format!("unknown flag {key}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.unwrap_or(1.0),
            trace: trace.unwrap_or(false),
            size,
            one_thread,
        })
    }
}

/// Everything a workload run accumulates.
pub struct Ctx {
    /// The command line.
    pub args: Args,
    /// Benchmark spans (recording only in traced runs).
    pub tracer: Tracer,
    /// Checked and failed operations.
    pub tally: Tally,
    /// Measured metrics.
    pub values: Values,
    /// Directory of the run's own files (service stores, trace output).
    pub workdir: PathBuf,
    /// Events other layers recorded (the service's registry), written to
    /// the trace file after the benchmark's own spans.
    pub layer_events: Vec<logdiam_obs::Event>,
}

/// Directory of the run's own files (service stores, trace files), under
/// the directory it runs from.
pub const WORKDIR: &str = ".perfbench";

/// Run the workload `args` names, with service stores and the trace file
/// under `workdir`, and return its tally and metrics.
pub fn run(args: Args, workdir: &Path) -> std::io::Result<Ctx> {
    let workdir = workdir.to_path_buf();
    std::fs::create_dir_all(&workdir)?;
    let mut cx = Ctx {
        tracer: Tracer::new(args.workload.name(), args.trace),
        tally: Tally::default(),
        values: Values::default(),
        workdir,
        layer_events: Vec::new(),
        args,
    };
    cx.values
        .set("perfbench.threads", rayon::current_num_threads() as f64);
    match cx.args.workload {
        Workload::SvcMixture => svc::run(&mut cx)?,
        _ => oneshot::run(&mut cx),
    }
    if cx.args.trace {
        let path = cx.workdir.join(format!(
            "trace-{}-seed{}.jsonl",
            cx.args.workload.name(),
            cx.args.seed
        ));
        let more = std::mem::take(&mut cx.layer_events);
        cx.tracer.write(&path, more)?;
    }
    Ok(cx)
}
