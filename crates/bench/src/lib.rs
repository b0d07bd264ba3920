//! # `logdiam-bench` — experiment harness and bench emitters
//!
//! One function per experiment of [`experiments`] (E1–E14). Each returns
//! [`table::Table`]s that the `experiments` binary prints as Markdown —
//! these are the "tables and figures" of the reproduction, listed in
//! `crates/bench/src/experiments/mod.rs`. [`svc`] is the connectivity
//! service's trace runner, shared by `svc_driver` and
//! `bench_report --smoke`; `bench_report` itself holds the perf baseline.
//! Every emitter asserts its own rows before writing them.
//!
//! Sizes are chosen so `experiments all` finishes in minutes on a laptop;
//! `--full` enlarges the sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod svc;
pub mod table;

use logdiam_obs::MetricsSnapshot;

/// Global experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Enlarged sweeps.
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            full: false,
            seed: 0xC0FFEE,
        }
    }
}

/// Assert the `docs/obs-schema.md` dump contract on a registry snapshot
/// that a bench row embeds: every histogram validates (count == Σ
/// buckets; an empty one carries no sum or max), and none has a non-zero
/// sum with a zero max. `what` names the row in the panic message.
pub fn check_obs_dump(dump: &MetricsSnapshot, what: &str) {
    if let Err(e) = dump.validate() {
        panic!("{what}: metrics dump failed validation: {e}");
    }
    for (name, h) in &dump.histograms {
        assert!(
            h.sum == 0 || h.max > 0,
            "{what}: histogram {name} has sum {} with a zero max",
            h.sum
        );
    }
}
